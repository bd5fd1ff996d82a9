//! Security tests: a hostile storage provider tries every attack class the
//! provider implements — forging values, omitting records naively, hiding a
//! leaf behind an opaque digest, and replaying a stale snapshot — and the
//! storage-manager contract's Merkle ADS verification must reject each one
//! (paper §3.3; promoted from `examples/adversarial_sp.rs` into assertions).

use grub::core::policy::PolicyKind;
use grub::core::provider::AdversaryMode;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::workload::{Op, Trace, ValueSpec};

/// One full-epoch trace: a fresh write of `key` followed by 31 reads.
fn epoch_trace(key: &str, value_seed: u64) -> Trace {
    let mut trace = Trace::new();
    trace.ops.push(Op::Write {
        key: key.into(),
        value: ValueSpec::new(32, value_seed),
    });
    trace
        .ops
        .extend(std::iter::repeat_n(Op::Read { key: key.into() }, 31));
    trace
}

/// Delivers the contract rejected so far, over every booked epoch.
fn failed_delivers(system: &GrubSystem) -> usize {
    let reports = system.driver().reports();
    reports.iter().map(|e| e.failed_delivers).sum()
}

/// Runs warm-up honestly, switches the SP to `mode`, replays an epoch of
/// traffic, and returns `(honest_rejections, attack_rejections)`.
fn run_attack(mode: AdversaryMode) -> (usize, usize) {
    // BL1 keeps the record off chain, so every read needs a delivery — the
    // maximal attack surface for a lying SP.
    let config = SystemConfig::new(PolicyKind::Bl1);
    let mut system = GrubSystem::new(&config).expect("system builds");
    system
        .drive(&mut epoch_trace("price", 7).into_source())
        .expect("honest warmup");
    let honest = failed_delivers(&system);

    // The fresh write gives ReplayStale a genuinely stale snapshot to serve.
    system
        .driver_mut()
        .set_adversary(mode)
        .expect("adversary mode set");
    system
        .drive(&mut epoch_trace("price", 8).into_source())
        .expect("attack epoch");
    let total = failed_delivers(&system);
    (honest, total - honest)
}

#[test]
fn honest_sp_has_no_rejected_deliveries() {
    let (honest, attack) = run_attack(AdversaryMode::Honest);
    assert_eq!(honest, 0, "honest warm-up must verify cleanly");
    assert_eq!(attack, 0, "an honest SP is never rejected");
}

#[test]
fn forged_values_are_rejected() {
    let (honest, attack) = run_attack(AdversaryMode::ForgeValue);
    assert_eq!(honest, 0);
    assert!(attack > 0, "tampered record values must fail proof checks");
}

#[test]
fn omitted_records_are_rejected() {
    let (honest, attack) = run_attack(AdversaryMode::OmitRecord);
    assert_eq!(honest, 0);
    assert!(attack > 0, "dropping a requested record must be detected");
}

#[test]
fn hidden_leaves_are_rejected() {
    let (honest, attack) = run_attack(AdversaryMode::HideLeaf);
    assert_eq!(honest, 0);
    assert!(
        attack > 0,
        "collapsing an in-range leaf to an opaque digest must be detected"
    );
}

#[test]
fn stale_replays_are_rejected() {
    let (honest, attack) = run_attack(AdversaryMode::ReplayStale);
    assert_eq!(honest, 0);
    assert!(attack > 0, "proofs against a superseded root must fail");
}

/// After an attack is caught, an SP that returns to the protocol serves
/// verifiable deliveries again — rejection never wedges the feed.
#[test]
fn feed_recovers_once_the_sp_turns_honest_again() {
    let config = SystemConfig::new(PolicyKind::Bl1);
    let mut system = GrubSystem::new(&config).expect("system builds");
    system
        .drive(&mut epoch_trace("price", 7).into_source())
        .expect("honest warmup");

    system
        .driver_mut()
        .set_adversary(AdversaryMode::ForgeValue)
        .expect("adversary mode set");
    system
        .drive(&mut epoch_trace("price", 8).into_source())
        .expect("attack epoch");
    let after_attack = failed_delivers(&system);
    assert!(after_attack > 0, "attack must be caught first");

    system
        .driver_mut()
        .set_adversary(AdversaryMode::Honest)
        .expect("adversary mode set");
    system
        .drive(&mut epoch_trace("price", 9).into_source())
        .expect("recovery epoch");
    let after_recovery = failed_delivers(&system);
    assert_eq!(
        after_recovery, after_attack,
        "no further rejections once the SP follows the protocol again"
    );
}

/// The attacks must also fail against an adaptive policy mid-flight (the
/// record may be replicated or in transition — verification must hold in
/// every replication state).
#[test]
fn attacks_fail_under_an_adaptive_policy_too() {
    for mode in [
        AdversaryMode::ForgeValue,
        AdversaryMode::ReplayStale,
        AdversaryMode::OmitRecord,
    ] {
        let config = SystemConfig::new(PolicyKind::Memoryless { k: 64 });
        let mut system = GrubSystem::new(&config).expect("system builds");
        system
            .drive(&mut epoch_trace("price", 7).into_source())
            .expect("honest warmup");
        let honest = failed_delivers(&system);
        assert_eq!(honest, 0, "{mode:?}: honest warm-up must verify");

        system
            .driver_mut()
            .set_adversary(mode)
            .expect("adversary mode set");
        // K=64 exceeds the reads per epoch, so the record stays
        // un-replicated and the epoch still exercises request/deliver
        // under an adaptive policy.
        system
            .drive(&mut epoch_trace("price", 8).into_source())
            .expect("attack epoch");
        let total = failed_delivers(&system);
        assert!(
            total > 0,
            "{mode:?}: attack must be rejected mid-adaptation"
        );
    }
}
