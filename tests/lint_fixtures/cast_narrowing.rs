//! Known-bad: values silently truncated by `as` casts.

pub fn register(flow_id: u64, hosts: &[u8]) -> (u32, u16) {
    let short = flow_id as u32; // id narrowed
    let n = hosts.len() as u16; // length narrowed
    (short, n)
}

pub fn widen(flow_id: u32) -> u64 {
    flow_id as u64 // widening loses nothing
}

pub fn ratio(r: f64) -> u32 {
    r as u32 // a float cast truncates too
}
