//! Known-good: real violations, each under a scoped `#[expect]` that
//! carries its audit reason, so nothing is reported.

#[expect(clippy::expect_used, reason = "slot map invariant: live handle")]
pub fn invariant_backed_expect(x: Option<u32>) -> u32 {
    x.expect("slot map invariant: live handle")
}

#[expect(clippy::cast_possible_truncation, reason = "slot ids fit u32")]
pub fn slot(index: usize) -> u32 {
    index as u32
}
