//! Known-good: everything here that looks like a violation is inert:
//! commented out, quoted, or test-only.

/*
 * A whole function commented out across multiple lines:
 *
 * fn old_code() {
 *     let x = config.unwrap();
 *     panic!("unreachable");
 * }
 */

pub fn renders_documentation() -> &'static str {
    r#"
        example: value.unwrap()
        example: panic!("boom")
        example: Instant::now()
    "#
}

/* nested /* block */ comments: fn fake() { x.unwrap(); } */

pub fn escaped_quotes() -> String {
    let s = "not a real \" string end: x.unwrap()";
    s.into()
}

#[cfg(test)]
mod tests {
    fn next(n: u32) -> Option<u32> {
        n.checked_add(1)
    }

    #[test]
    fn tests_may_unwrap_panic_and_print() {
        assert_eq!(next(1).unwrap(), 2);
        println!("{:?}", next(2).expect("no overflow"));
        if next(u32::MAX).is_some() {
            panic!("test-only panic is fine");
        }
    }
}
