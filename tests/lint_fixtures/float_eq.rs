//! Known-bad: exact float comparisons.

pub fn check(rate: f64, target: f64) -> bool {
    if rate == 0.0 {
        return false; // exempt: a comparison with zero is exact in IEEE 754
    }
    let at_target = rate == target; // float_cmp
    at_target || rate != 1.5 // float_cmp
}

pub fn fine(count: u64) -> bool {
    count == 0 // integers compare exactly
}
