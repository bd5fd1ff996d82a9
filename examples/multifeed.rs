//! Multifeed: run many tenants' feeds through the sharded multi-tenant
//! engine and measure what cross-feed batching saves, write path and read
//! path separately.
//!
//! Eight tenants with Zipfian activity skew (tenant-00 is the hot feed, the
//! tail idles) and a rotating mix of read/write ratios and replication
//! policies share one chain across two shards. Every feed *streams* its
//! workload from a lazy `OpSource` — the engine pulls one epoch per round,
//! no trace is materialized. The same specs run three times — batching off
//! (the sum-of-singles baseline), update batching only (one `batchUpdate`
//! per shard per block), and full batching (delivers coalesced into
//! `batchDeliver` too) — and the per-tenant tables plus the aggregate
//! savings are printed. The run asserts the savings ladder (read batching
//! strictly undercuts write-only batching, which strictly undercuts no
//! batching).
//!
//! The chain-realism knobs ride along: `GRUB_REORG=seed:period:depth` mines
//! seeded forks (rolled back and canonically re-committed — the run then
//! re-executes on a never-forking chain and asserts the digests agree),
//! `GRUB_FEE_SCHEDULE=step|spike|mean-reverting[:seed]` prices blocks with
//! the volatile gas-price process, and `GRUB_MEMPOOL=n` caps transactions
//! per block so batches split under congestion. The confirmation knobs
//! compose with all of them: `GRUB_CONFIRM_DEPTH=n` acknowledges writes
//! only n blocks deep, and `GRUB_INCLUSION_LATENCY=max[:seed]` gates each
//! transaction's mining behind a seeded, congestion-dependent block delay.
//!
//! ```sh
//! cargo run --release --example multifeed
//! # CI smoke run (scaled-down traces):
//! GRUB_SMOKE=1 cargo run --release --example multifeed
//! # Chain realism: seeded reorgs plus a spiking gas price:
//! GRUB_REORG=7:5:2 GRUB_FEE_SCHEDULE=spike:11 cargo run --release --example multifeed
//! # Confirmation semantics: depth-3 acknowledgment, inclusion latency, reorgs:
//! GRUB_CONFIRM_DEPTH=3 GRUB_INCLUSION_LATENCY=1 GRUB_REORG=7:5:2 cargo run --release --example multifeed
//! ```

use grub::chain::ChainConfig;
use grub::engine::specs::{demo_policies, zipfian_ratio_specs};
use grub::engine::{scrub_from_env, EngineConfig, FeedEngine, FeedSpec};

fn build_specs(total_ops: usize) -> Vec<FeedSpec> {
    // A wider ratio rotation than the default demo fleet: includes a
    // read-dominated (16), a write-only (0.0), and a bursty (8.0) tenant.
    let ratios = [0.5, 4.0, 0.125, 2.0, 16.0, 1.0, 0.0, 8.0];
    zipfian_ratio_specs(8, total_ops, &ratios, &demo_policies())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = grub::fault::knob("GRUB_SMOKE").is_some();
    let scrub = scrub_from_env()?;
    let total_ops = if smoke { 256 } else { 2048 };
    let shards = 2;
    // Chain realism from the environment: GRUB_REORG / GRUB_FEE_SCHEDULE /
    // GRUB_MEMPOOL (all default off).
    let realism = ChainConfig::default().with_env_realism()?;
    let config = move |base: EngineConfig| {
        let mut base = base.with_scrub(scrub);
        base.chain = realism;
        base
    };

    // Crash-testing harness: with GRUB_FAULT_POINT=<point>[:<n>] set, the
    // named pipeline crash point trips on its n-th crossing and the run
    // dies there — exactly what tests/fault_recovery.rs automates.
    if let Some(plan) = grub::fault::plan_from_env()? {
        println!("fault injection armed from GRUB_FAULT_POINT: {plan:?}");
        grub::fault::arm(plan);
    }
    if let Some(scrubber) = scrub {
        let mode = if scrubber.repair { "Repair" } else { "Detect" };
        println!("epoch-boundary Merkle scrubbing on (GRUB_SCRUB): {mode}");
    }
    if realism.reorg.is_some()
        || realism.fee.is_some()
        || realism.mempool.is_some()
        || realism.confirm_depth > 0
        || realism.latency.is_some()
    {
        println!(
            "chain realism on: reorg={:?} fee={:?} mempool={:?} confirm_depth={} latency={:?}",
            realism.reorg, realism.fee, realism.mempool, realism.confirm_depth, realism.latency
        );
    }

    println!(
        "8 tenants, zipfian activity skew, {total_ops} total ops, {shards} shards{}",
        if smoke { " (smoke)" } else { "" },
    );

    let unbatched = FeedEngine::run_specs(
        &config(EngineConfig::new(shards).unbatched()),
        build_specs(total_ops),
    )?;
    println!("\n== batching OFF (sum-of-singles baseline) ==");
    print!("{}", unbatched.render_table());

    let write_only = FeedEngine::run_specs(
        &config(EngineConfig::new(shards).without_read_batching()),
        build_specs(total_ops),
    )?;
    println!("\n== update batching ON, read batching OFF ==");
    print!("{}", write_only.render_table());

    let (full, full_chain) =
        FeedEngine::new(&config(EngineConfig::new(shards)), build_specs(total_ops))?
            .run_with_chain()?;
    println!("\n== full batching (updates + delivers per shard) ==");
    print!("{}", full.render_table());

    if realism.reorg.is_some() {
        // The reorg contract, end to end: re-execute the full-batching run
        // on the canonical branch only (same fees, same congestion, no
        // forks) — the forked run's rollback-and-replay must have converged
        // to that exact chain.
        let mut canonical = realism;
        canonical.reorg = None;
        let mut straight = config(EngineConfig::new(shards));
        straight.chain = canonical;
        let (_, straight_chain) =
            FeedEngine::new(&straight, build_specs(total_ops))?.run_with_chain()?;
        assert_eq!(
            full_chain.chain_digest(),
            straight_chain.chain_digest(),
            "reorg-and-replay must converge to the canonical-branch digest"
        );
        println!(
            "reorged == canonical-branch chain digest over {} reorgs: {}",
            full_chain.reorg_events().len(),
            full_chain.chain_digest().to_hex()
        );
    }

    // Hot-path observability: the store fast-path and batched-Merkle
    // counters, summed over the full-batching run's rounds.
    let sum = |field: fn(&grub::engine::EpochMetrics) -> u64| -> u64 {
        full.metrics.iter().map(field).sum()
    };
    println!(
        "\nstore fast path: {} cache hits / {} misses, {} bloom skips, {} merkle nodes rehashed",
        sum(|m| m.cache_hits),
        sum(|m| m.cache_misses),
        sum(|m| m.bloom_skips),
        sum(|m| m.merkle_nodes_rehashed),
    );

    let (u, w, f) = (
        unbatched.feed_gas_total(),
        write_only.feed_gas_total(),
        full.feed_gas_total(),
    );
    let saved = |from: u64, to: u64| 100.0 * from.saturating_sub(to) as f64 / from.max(1) as f64;
    println!(
        "\nupdate batching:        {u} -> {w} feed gas ({:.1}% saved)",
        saved(u, w)
    );
    println!(
        "read batching on top:   {w} -> {f} feed gas ({:.1}% more saved)",
        saved(w, f)
    );
    println!(
        "total batching savings: {u} -> {f} feed gas ({:.1}% saved)",
        saved(u, f)
    );
    if realism.fee.is_none() {
        assert!(w < u, "update batching must reduce total feed gas");
        assert!(f < w, "read batching must save on top of update batching");
    } else {
        // The savings ladder is a base-price claim: a volatile fee schedule
        // prices each run by the heights its blocks happen to land on, so
        // cross-run totals are no longer comparable.
        println!("fee schedule active: batching-ladder assertions skipped (height-priced totals)");
    }
    assert_eq!(full.failed_delivers(), 0);
    Ok(())
}
