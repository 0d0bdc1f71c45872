//! The repository benchmark: the contended and long-haul replay cells and
//! the blocking fetch path, measured in host time and simulated time from
//! outside the crates' public APIs.
//!
//! `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` builds this crate twice (plain and `prof-timing`) and
//! drives the `perfbench` binary; see `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod bench;
pub mod checks;
pub mod probe;
pub mod run;
pub mod workload;
