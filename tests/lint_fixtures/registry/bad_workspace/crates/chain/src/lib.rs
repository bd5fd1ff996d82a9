//! Fixture chain crate: reads a documented knob through the helper, an
//! undocumented knob with a direct `env::var`, hooks only
//! `FaultPoint::PreCommit`, and points at a GHOST.md nobody wrote.

pub fn seed() -> u64 {
    match knob("GRUB_SEED") {
        Some(raw) => raw.parse().unwrap_or(0),
        None => 0,
    }
}

fn knob(name: &'static str) -> Option<String> {
    std::env::var(name).ok()
}

pub fn rogue() -> bool {
    std::env::var("GRUB_ROGUE").is_ok()
}

pub fn hook() -> &'static str {
    let _ = FaultPoint::PreCommit;
    "hooked"
}

pub enum FaultPoint {
    PreCommit,
}
