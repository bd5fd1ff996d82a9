//! Security tests: a hostile storage provider tries every attack class the
//! provider implements — forging values, omitting records naively, hiding a
//! leaf behind an opaque digest, and replaying a stale snapshot — and the
//! storage-manager contract's Merkle ADS verification must reject each one
//! (paper §3.3; promoted from `examples/adversarial_sp.rs` into assertions).
//!
//! Two delivery paths are attacked: `GrubSystem`'s per-request delivers,
//! and the batched engine's coalesced delivers, where one feed's round of
//! queries shares one proof — attacked both through the provider's modes
//! and with hand-built hostile payloads.

use std::rc::Rc;

use grub::chain::{Address, Block, Blockchain, Transaction};
use grub::core::contract::{
    coalesce_delivers, encode_deliver, encode_update, DeliverPayload, NullConsumer, OnChainTrace,
    StorageManager,
};
use grub::core::policy::PolicyKind;
use grub::core::provider::AdversaryMode;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::engine::{EngineConfig, EngineReport, FeedEngine, FeedSpec};
use grub::gas::Layer;
use grub::merkle::{leaf_hash, record_value_hash, MerkleKv, ProofKey, ProofNode, ReplState};
use grub::workload::ratio::RatioWorkload;
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

/// The victim feed's three adjacent keys, preloaded so a replaying SP has a
/// genuinely stale snapshot from the start.
const VICTIM_KEYS: [&str; 3] = ["price-a", "price-b", "price-c"];

/// Epochs that rewrite all three keys and then read them round-robin: every
/// round delivers three keys for the feed, which the engine merges into one
/// shared-proof payload.
fn three_key_epochs(epochs: u64) -> Trace {
    let mut trace = Trace::new();
    for epoch in 0..epochs {
        for (i, key) in VICTIM_KEYS.iter().enumerate() {
            trace.ops.push(Op::Write {
                key: (*key).into(),
                value: ValueSpec::new(32, epoch * 3 + i as u64),
            });
        }
        for read in 0..29 {
            trace.ops.push(Op::Read {
                key: VICTIM_KEYS[read % 3].into(),
            });
        }
    }
    trace
}

/// A one-shard, read-batching engine: the victim (BL1, so every read needs
/// a deliver) beside an honest bystander feed whose delivers share the
/// victim's `batchDeliver` transactions. The victim's SP runs in `mode`
/// from the first round.
fn engine_under(mode: AdversaryMode) -> (grub::core::Result<EngineReport>, Blockchain) {
    let preload = VICTIM_KEYS
        .iter()
        .map(|key| ((*key).to_owned(), b"genesis".to_vec()))
        .collect();
    let specs = vec![
        FeedSpec::from_source(
            "victim",
            SystemConfig::new(PolicyKind::Bl1).preload(preload),
            Box::new(three_key_epochs(3).into_source()),
        ),
        FeedSpec::from_source(
            "bystander",
            SystemConfig::new(PolicyKind::Bl1),
            Box::new(RatioWorkload::new("bystander-key", 8.0).source(3)),
        ),
    ];
    let mut engine = FeedEngine::new(&EngineConfig::new(1), specs).expect("engine builds");
    engine
        .driver_mut("victim")
        .expect("victim feed")
        .set_adversary(mode)
        .expect("adversary mode set");
    engine.run_surviving()
}

#[test]
fn honest_coalesced_delivers_share_one_proof_per_round() {
    let (report, chain) = engine_under(AdversaryMode::Honest);
    let report = report.expect("an honest SP is never rejected");
    assert_eq!(report.failed_delivers(), 0);
    let manager = Address::derive("grub-storage-manager/tenant/victim");
    let delivers: Vec<DeliverPayload> = chain
        .blocks()
        .iter()
        .flat_map(|block| &block.call_records)
        .filter(|call| call.to == manager && call.func == "deliver")
        .map(|call| DeliverPayload::decode(&call.input).expect("mined payload decodes"))
        .collect();
    assert_eq!(delivers.len(), 3, "one deliver per round for the victim");
    for payload in &delivers {
        assert_eq!(payload.queries.len(), VICTIM_KEYS.len());
        assert!(payload.queries.iter().all(|q| q.records.len() == 1));
    }
}

#[test]
fn every_attack_on_a_coalesced_deliver_is_rejected() {
    for mode in [
        AdversaryMode::ForgeValue,
        AdversaryMode::OmitRecord,
        AdversaryMode::HideLeaf,
        AdversaryMode::ReplayStale,
    ] {
        let (report, _) = engine_under(mode);
        let err = report
            .expect_err("the shared batch must revert")
            .to_string();
        assert!(
            err.contains("batchDeliver failed: execution reverted"),
            "{mode:?}: {err}"
        );
    }
}

/// A storage manager over `k00`..`k15` (NR), its DO's tree, and a consumer.
struct Manager {
    chain: Blockchain,
    manager: Address,
    sp: Address,
    consumer: Address,
    tree: MerkleKv,
}

fn nr(key: &str) -> ProofKey {
    ProofKey::new(ReplState::NotReplicated, key.as_bytes().to_vec())
}

fn manager_over_sixteen_keys() -> Manager {
    let mut chain = Blockchain::new();
    let owner = Address::derive("hostile-test-do");
    let manager = Address::derive("hostile-test-manager");
    let consumer = Address::derive("hostile-test-consumer");
    chain.deploy(
        manager,
        Rc::new(StorageManager::new(owner, OnChainTrace::None)),
        Layer::Feed,
    );
    chain.deploy(
        consumer,
        Rc::new(NullConsumer::new(manager)),
        Layer::Application,
    );
    let mut tree = MerkleKv::new();
    tree.insert_batch(
        (0..16)
            .map(|i| {
                (
                    nr(&format!("k{i:02}")),
                    record_value_hash(format!("v{i}").as_bytes()),
                )
            })
            .collect(),
    );
    chain.submit(Transaction::new(
        owner,
        manager,
        "update",
        encode_update(&tree.root(), &[], &[], &[]),
        Layer::Feed,
    ));
    assert!(chain.produce_block().receipts[0].success);
    Manager {
        chain,
        manager,
        sp: Address::derive("hostile-test-sp"),
        consumer,
        tree,
    }
}

impl Manager {
    fn point(&self, i: usize) -> Vec<u8> {
        let key = format!("k{i:02}");
        let proof = self.tree.prove_range(&nr(&key), &nr(&key));
        let record = (key.clone().into_bytes(), format!("v{i}").into_bytes());
        encode_deliver(
            key.as_bytes(),
            key.as_bytes(),
            false,
            &[record],
            &proof,
            &[(self.consumer, "onData".to_owned())],
        )
    }

    /// The honest shared-proof payload for `k02`, `k06`, `k10`, decoded.
    fn shared(&self) -> DeliverPayload {
        let coalesced = coalesce_delivers([2, 6, 10].map(|i| self.point(i)).to_vec());
        assert_eq!(coalesced.len(), 1);
        DeliverPayload::decode(&coalesced[0]).expect("decodes")
    }

    fn deliver(&mut self, input: Vec<u8>) -> Block {
        self.chain.submit(Transaction::new(
            self.sp,
            self.manager,
            "deliver",
            input,
            Layer::Feed,
        ));
        self.chain.produce_block().clone()
    }
}

/// Replaces the first opaque node whose subtree `full` reveals with an inner
/// node over its two (opaque) children: same root, one node too many.
fn open_an_opaque(node: &mut ProofNode, full: &ProofNode) -> bool {
    match (node, full) {
        (ProofNode::Inner { left, right }, ProofNode::Inner { left: l, right: r }) => {
            open_an_opaque(left, l) || open_an_opaque(right, r)
        }
        (node @ ProofNode::Opaque(_), ProofNode::Inner { left, right }) => {
            let digest = ProofNode::digest;
            *node = ProofNode::Inner {
                left: Box::new(ProofNode::Opaque(digest(left))),
                right: Box::new(ProofNode::Opaque(digest(right))),
            };
            true
        }
        _ => false,
    }
}

/// Collapses the revealed leaf `target` to its digest.
fn hide(node: &mut ProofNode, target: &ProofKey) {
    match node {
        ProofNode::Leaf { pkey, vhash, valid } if pkey == target => {
            *node = ProofNode::Opaque(leaf_hash(pkey, vhash, *valid));
        }
        ProofNode::Inner { left, right } => {
            hide(left, target);
            hide(right, target);
        }
        _ => {}
    }
}

#[test]
fn hostile_coalesced_payloads_revert_with_typed_errors() {
    let mut m = manager_over_sixteen_keys();
    let honest = m.shared();
    let block = m.deliver(honest.encode());
    assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);

    // (what, payload, the typed error it must revert with)
    let mut hostile: Vec<(&str, DeliverPayload, &str)> = Vec::new();
    let out_of_order = "payload decode failed: deliver queries are not in strictly increasing";
    let mut duplicated = honest.clone();
    duplicated.queries.insert(1, honest.queries[1].clone());
    hostile.push(("duplicated query", duplicated, out_of_order));
    let mut reordered = honest.clone();
    reordered.queries.swap(1, 2);
    hostile.push(("out-of-order queries", reordered, out_of_order));
    let not_minimal = "execution reverted: proof rejected: proof reveals nodes no query needs";
    let mut extra_leaf = honest.clone();
    extra_leaf
        .proof
        .union_with(m.tree.prove_range(&nr("k13"), &nr("k13")))
        .expect("same tree");
    hostile.push(("an extra revealed leaf", extra_leaf, not_minimal));
    let mut hollow = honest.clone();
    let full = m
        .tree
        .prove_range(&nr(""), &nr("z"))
        .tree
        .expect("non-empty");
    assert!(open_an_opaque(
        hollow.proof.tree.as_mut().expect("non-empty"),
        &full
    ));
    hostile.push((
        "an inner node over two opaque children",
        hollow,
        not_minimal,
    ));
    let mut no_boundary = honest.clone();
    hide(
        no_boundary.proof.tree.as_mut().expect("non-empty"),
        &nr("k11"),
    );
    hostile.push((
        "a query whose run lacks a boundary",
        no_boundary,
        "execution reverted: proof rejected: hidden subtree may contain in-range keys",
    ));
    // The crafted omission: an in-range leaf behind its digest, its record
    // dropped to match.
    let mut hidden = honest.clone();
    hide(hidden.proof.tree.as_mut().expect("non-empty"), &nr("k06"));
    hidden.queries[1].records.clear();
    hostile.push((
        "a query whose own leaf is hidden",
        hidden,
        "execution reverted: proof rejected: revealed leaves are not contiguous",
    ));
    let mut short = honest.clone();
    short.queries[1].records.clear();
    hostile.push((
        "a record-count mismatch",
        short,
        "execution reverted: record count mismatch",
    ));

    for (what, payload, want) in hostile {
        let block = m.deliver(payload.encode());
        let receipt = &block.receipts[0];
        let err = receipt.error.as_deref().unwrap_or_default();
        assert!(!receipt.success && err.starts_with(want), "{what}: {err:?}");
    }
}
