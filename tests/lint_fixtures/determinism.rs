//! Known-bad: hash-ordered containers feeding a rendered artifact.

use std::collections::{HashMap, HashSet};

pub fn render_summary(counts: &HashMap<String, u64>, seen: &HashSet<u32>) -> String {
    let mut out = String::new();
    for (k, v) in counts {
        out.push_str(&format!("{k}={v}\n"));
    }
    let keys: Vec<&String> = counts.keys().collect();
    let total: u64 = counts.values().sum();
    let ids: Vec<&u32> = seen.iter().collect();
    out + &format!("{} {total} {}", keys.len(), ids.len())
}

pub fn lookup(map: &HashMap<u32, u32>) -> Option<u32> {
    // Lookups by key do not depend on hash order.
    map.get(&1).copied()
}
