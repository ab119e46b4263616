//! The engine's shard-count contract: byte-identical outputs at any
//! shard count to the one-shard run — converged RIBs, event counts,
//! simulator stats, and every per-router counter, verify-cache hits
//! included — and event budgets that stop at the same event. Exercised
//! over random topologies, random shard counts, signed mode, and
//! `Malice` route leaks, so the CI determinism gate rests on more than
//! one hand-picked workload.

use proptest::prelude::*;
use pvr::bgp::{
    internet_like, Asn, BgpRouter, Candidate, InstantiateOptions, InternetParams, Malice, Prefix,
    Topology,
};
use pvr::netsim::{LinkConfig, RunLimits, SimDuration, StopReason};
use std::sync::Arc;

/// The converged Loc-RIB, fully materialized: every selected prefix with
/// its winning candidate (route attributes + learned-from neighbor).
fn rib_fingerprint(router: &BgpRouter) -> Vec<(Prefix, Candidate)> {
    router
        .selected_prefixes()
        .into_iter()
        .map(|p| (p, router.best_route(p).expect("selected prefix has a best route").clone()))
        .collect()
}

/// Converges `topology` on both engines and asserts every deterministic
/// observable matches. `leaker` optionally flips one AS to
/// `Malice::leak_all` before the run (in both engines, symmetrically).
fn assert_engines_agree(
    topology: &Topology,
    options: InstantiateOptions,
    shards: usize,
    leaker: Option<Asn>,
) {
    let mut serial = topology.instantiate(options);
    let mut sharded = topology.instantiate_sharded(options, shards);
    if options.signed {
        let table = Arc::new(topology.origin_table());
        serial.install_origin_table(Arc::clone(&table));
        sharded.install_origin_table(table);
    }
    if let Some(asn) = leaker {
        let malice = Malice { leak_all: true };
        serial.router_mut(asn).set_malice(malice.clone());
        sharded.router_mut(asn).set_malice(malice);
    }

    assert_eq!(serial.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(sharded.converge(RunLimits::none()), StopReason::Quiescent);

    // Identical event counts and simulator stats (events, delivered,
    // sent, bytes, drops — all of it).
    assert_eq!(serial.sim.stats(), sharded.sim.stats(), "{shards} shards");
    assert_eq!(serial.sim.now(), sharded.sim.now(), "{shards} shards");

    // Identical converged RIBs and per-router counters: one
    // network-wide verify cache whose entries become visible at the
    // next sim instant makes even the hit counts engine-invariant.
    for asn in topology.ases() {
        assert_eq!(
            rib_fingerprint(serial.router(asn)),
            rib_fingerprint(sharded.router(asn)),
            "{asn} RIB at {shards} shards"
        );
        assert_eq!(
            serial.router(asn).stats(),
            sharded.router(asn).stats(),
            "{asn} counters at {shards} shards"
        );
    }

    // Order-independent network totals (the satellite-3 pin): summed
    // counters agree however the routers are laid out.
    assert_eq!(serial.router_totals(), sharded.router_totals(), "{shards} shards");
    if options.signed {
        let hits = serial.router_totals().verify_cache_hits;
        assert!(hits > 0, "the signed run must exercise the cache");
    }
}

fn small_internet(seed: u64) -> Topology {
    internet_like(
        InternetParams {
            tier1: 3,
            tier2: 6,
            stubs: 16,
            t2_peering_prob: 0.25,
            ..InternetParams::default()
        },
        seed,
    )
}

#[test]
fn event_budgets_are_exact_at_every_shard_count() {
    // Zero base latency with 2 µs of jitter packs many events into one
    // instant, so most budgets end inside a window: each shard count
    // must stop after exactly the events the one-shard run stops after.
    let topology = small_internet(64);
    let link = LinkConfig {
        latency: SimDuration::ZERO,
        jitter: SimDuration::from_micros(2),
        ..LinkConfig::default()
    };
    let options = InstantiateOptions { seed: 64, link, ..Default::default() };
    let mut full = topology.instantiate(options);
    assert_eq!(full.converge(RunLimits::none()), StopReason::Quiescent);
    let total = full.sim.stats().events;
    let mut mid_instant = 0;
    for budget in (1..total).step_by((total / 48).max(1) as usize) {
        let observe = |shards| {
            let mut net = topology.instantiate_sharded(options, shards);
            let stop = net.converge(RunLimits { deadline: None, max_events: Some(budget) });
            let sim = &net.sim;
            (stop, sim.stats().clone(), sim.now(), sim.pending_at_now(), net.rib_fingerprint())
        };
        let one = observe(1);
        assert_eq!(one.0, StopReason::EventLimit);
        assert_eq!(one.1.events, budget);
        mid_instant += usize::from(one.3);
        for shards in [2, 4] {
            assert!(observe(shards) == one, "budget {budget}: {shards} shards stop elsewhere");
        }
    }
    assert!(mid_instant > 10, "only {mid_instant} budgets ended inside an instant");
}

#[test]
fn signed_run_identical_across_shard_counts() {
    let topology = small_internet(61);
    let options =
        InstantiateOptions { seed: 61, signed: true, key_bits: 512, ..Default::default() };
    for shards in [2, 4, 8] {
        assert_engines_agree(&topology, options, shards, None);
    }
}

#[test]
fn malicious_leaker_identical_across_shard_counts() {
    // A tier-2 AS leaking everything it hears changes propagation
    // substantially; the engines must still agree event for event.
    let topology = small_internet(62);
    let options = InstantiateOptions { seed: 62, ..Default::default() };
    for shards in [2, 5] {
        assert_engines_agree(&topology, options, shards, Some(Asn(101)));
    }
}

#[test]
fn signed_malicious_leaker_identical_across_shard_counts() {
    let topology = small_internet(63);
    let options =
        InstantiateOptions { seed: 63, signed: true, key_bits: 512, ..Default::default() };
    assert_engines_agree(&topology, options, 3, Some(Asn(102)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topologies × random shard counts (1–8), plain mode, with
    /// a randomly placed route leaker on odd seeds.
    #[test]
    fn random_topology_matches_serial(
        seed in 0u64..10_000,
        tier1 in 2usize..=4,
        tier2 in 3usize..=8,
        stubs in 4usize..=20,
        shards in 1usize..=8,
    ) {
        let params = InternetParams {
            tier1,
            tier2,
            stubs,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let topology = internet_like(params, seed);
        let leaker = if seed % 2 == 1 { Some(Asn(100 + (seed % tier2 as u64) as u32)) } else { None };
        let options = InstantiateOptions { seed, ..Default::default() };
        assert_engines_agree(&topology, options, shards, leaker);
    }
}
