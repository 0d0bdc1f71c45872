//! Known-bad: the panic, console and wall-clock rule families.

use std::time::{Instant, SystemTime};

pub fn brittle(x: Option<u32>) -> u32 {
    let a = x.unwrap(); // unwrap_used
    let b = x.expect("always here"); // expect_used
    if a != b {
        panic!("mismatch"); // panic
    }
    println!("a = {a}"); // print_stdout
    let _t = Instant::now(); // disallowed_methods
    a
}

pub fn unfinished(x: u32) -> u32 {
    eprintln!("x = {x}"); // print_stderr
    let _t = SystemTime::now(); // disallowed_methods
    match dbg!(x) {
        0 => todo!(),
        1 => unimplemented!(),
        _ => unreachable!(),
    }
}
