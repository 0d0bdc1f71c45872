//! Command-line entry point; prints notes, then one JSON result line.

use datagrid_perfbench::bench::{self, Options};
use datagrid_perfbench::workload::{Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: perfbench --workload <contended-4096|longhaul-replay|longhaul-blocking> \
[--seed N] [--seconds S] [--trace 0|1 --untraced-wall S --untraced-digest HEX [--spans FILE]] \
[--reduced]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut untraced_wall = None;
    let mut untraced_digest = None;
    let mut reduced = false;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--reduced" {
            reduced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("bad seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("bad duration"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--untraced-wall" => {
                untraced_wall = Some(value.parse::<f64>().map_err(|_| bad("bad duration"))?)
            }
            "--spans" => spans_out = Some(std::path::PathBuf::from(value)),
            "--untraced-digest" => {
                untraced_digest =
                    Some(u64::from_str_radix(value, 16).map_err(|_| bad("bad digest"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let traced = match (trace, untraced_wall, untraced_digest) {
        (false, None, None) => None,
        (true, Some(wall), Some(digest)) => Some((wall, digest)),
        _ => return Err("--trace 1 needs exactly --untraced-wall and --untraced-digest".into()),
    };
    let shape = workload.shape();
    Ok(Options {
        workload,
        shape: if reduced { shape.reduced() } else { shape },
        seed,
        seconds,
        traced,
        spans_out,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = bench::run(&opts);
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
