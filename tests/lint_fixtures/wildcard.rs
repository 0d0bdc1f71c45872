//! Known-bad: a `_` arm over an enum swallows variants added later.

pub enum EventKind {
    FlowCompleted(u32),
    TimerFired(u64),
    FaultChanged(u8),
}

pub fn classify(ev: &EventKind) -> &'static str {
    match ev {
        EventKind::FlowCompleted(_) => "done",
        _ => "other", // wildcard_enum_match_arm
    }
}

pub fn fine(n: u32) -> &'static str {
    match n {
        0 => "zero",
        _ => "many", // integers have no variants to miss
    }
}
