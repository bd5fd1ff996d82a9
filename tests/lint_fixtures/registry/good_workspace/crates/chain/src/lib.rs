//! Fixture chain crate: every knob read is documented (see ARCHITECTURE.md)
//! and goes through the shared helper, and every fault point has a hook
//! site.

pub fn seed() -> u64 {
    match knob("GRUB_SEED") {
        Some(raw) => raw.parse().unwrap_or(0),
        None => 0,
    }
}

fn knob(name: &'static str) -> Option<String> {
    std::env::var(name).ok()
}

pub fn hooks() -> (&'static str, &'static str) {
    let _ = FaultPoint::PreCommit;
    let _ = FaultPoint::Orphan;
    ("pre-commit", "orphan")
}

pub enum FaultPoint {
    PreCommit,
    Orphan,
}
