//! The telemetry layer's shard-count contract: metrics snapshots,
//! timeline windows, and JSONL traces at shards 2, 4, and 8 are
//! byte-identical to the one-shard run's, verify-cache hit series
//! included.

use pvr::bgp::{
    internet_like, workload, Asn, DampeningPolicy, Edge, InstantiateOptions, InternetParams, Prefix,
};
use pvr::netsim::{Fault, FaultPlan, NodeId, RunLimits, SimDuration, SimTime, StopReason};
use std::sync::Arc;

fn observed_options(signed: bool) -> InstantiateOptions {
    InstantiateOptions {
        seed: 71,
        signed,
        key_bits: 512,
        timeline_window: Some(SimDuration::from_millis(5)),
        journal_capacity: 32,
        ..Default::default()
    }
}

#[test]
fn telemetry_is_engine_invariant() {
    let params = InternetParams { tier1: 3, tier2: 8, stubs: 24, ..InternetParams::default() };
    let topology = internet_like(params, 71);
    for signed in [false, true] {
        let options = observed_options(signed);
        let mut serial = topology.instantiate(options);
        if signed {
            serial.install_origin_table(Arc::new(topology.origin_table()));
        }
        assert_eq!(serial.converge(RunLimits::none()), StopReason::Quiescent);
        let serial_snap = serial.metrics_snapshot(if signed { "signed" } else { "plain" });
        let serial_tl = serial.convergence_timeline().expect("timeline enabled");
        let serial_trace = serial.trace_jsonl();
        assert!(!serial_snap.series.is_empty());
        assert!(!serial_tl.windows.is_empty());
        assert!(!serial_trace.is_empty());

        for shards in [2usize, 4, 8] {
            let mut sharded = topology.instantiate_sharded(options, shards);
            if signed {
                sharded.install_origin_table(Arc::new(topology.origin_table()));
            }
            assert_eq!(sharded.converge(RunLimits::none()), StopReason::Quiescent);
            let snap = sharded.metrics_snapshot(if signed { "signed" } else { "plain" });
            let tl = sharded.convergence_timeline().expect("timeline enabled");

            assert_eq!(snap, serial_snap, "metrics diverge at {shards} shards (signed={signed})");
            assert_eq!(tl, serial_tl, "timeline diverges at {shards} shards (signed={signed})");
            assert_eq!(
                sharded.trace_jsonl(),
                serial_trace,
                "trace diverges at {shards} shards (signed={signed})"
            );
        }
        if signed {
            // The hit series are live, so the equalities above cover them.
            let hits = serial_snap.counter_value("pvr_router_verify_cache_hits_total").unwrap();
            assert!(hits > 0, "the signed run must exercise the cache");
            assert!(serial_tl.windows.iter().any(|w| w.verify_cache_hits > 0));
        }
    }
}

/// The two endpoints of a topology edge, whichever flavor.
fn endpoints(edge: &Edge) -> (Asn, Asn) {
    match *edge {
        Edge::ProviderCustomer { provider, customer } => (provider, customer),
        Edge::Peering(a, b) => (a, b),
        Edge::PartialTransit { provider, customer, .. } => (provider, customer),
    }
}

#[test]
fn fault_telemetry_is_engine_invariant() {
    // A churn-plus-faults run in plain mode. Snapshot, timeline, and
    // trace must be byte-identical across engines, *including* every
    // fault counter and the withdraw-storm channel the fault layer
    // feeds.
    let params = InternetParams { tier1: 3, tier2: 8, stubs: 24, ..InternetParams::default() };
    let mut topology = internet_like(params, 73);
    let candidates: Vec<(Asn, Prefix)> = topology
        .ases()
        .flat_map(|a| topology.originated_by(a).iter().map(move |&p| (a, p)))
        .take(3)
        .collect();
    workload::continuous_churn(
        &mut topology,
        &candidates,
        24,
        SimDuration::from_millis(400),
        SimDuration::from_millis(30),
        73,
    );
    // Two faulted edges: a three-cycle flap fast enough to outrun the
    // dampening half-life (penalties 1000 → 1707 → 2207 > the 2000
    // suppress threshold) and a mid-churn session reset.
    let (fa, fb) = endpoints(&topology.edges()[0]);
    let (ra, rb) = endpoints(&topology.edges()[1]);
    let fault_plan = |node_of: &dyn Fn(Asn) -> NodeId| {
        let mut plan = FaultPlan::new();
        plan.flap_link(
            node_of(fa),
            node_of(fb),
            SimTime::ZERO + SimDuration::from_millis(500),
            SimDuration::from_millis(40),
            SimDuration::from_millis(100),
            3,
        );
        plan.push(
            SimTime::ZERO + SimDuration::from_millis(700),
            Fault::SessionReset { a: node_of(ra), b: node_of(rb) },
        );
        plan
    };
    let options = InstantiateOptions {
        seed: 73,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(DampeningPolicy::default()),
        timeline_window: Some(SimDuration::from_millis(5)),
        journal_capacity: 32,
        ..Default::default()
    };

    let mut serial = topology.instantiate(options);
    serial.install_fault_plan(fault_plan(&|a| serial.node_of(a)));
    assert_eq!(serial.converge(RunLimits::none()), StopReason::Quiescent);
    let serial_snap = serial.metrics_snapshot("plain");
    let serial_tl = serial.convergence_timeline().expect("timeline enabled");
    let serial_trace = serial.trace_jsonl();

    // The fault layer actually showed up in the telemetry.
    for name in [
        "pvr_sim_link_down_total",
        "pvr_sim_session_resets_total",
        "pvr_router_withdraws_sent_total",
        "pvr_router_dampening_suppressed_total",
    ] {
        assert!(
            serial_snap.counter_value(name).unwrap_or(0) > 0,
            "{name} should be non-zero in a churn-plus-faults run"
        );
    }
    assert!(
        serial_tl.windows.iter().any(|w| w.withdraws > 0),
        "some timeline window should carry withdraw-storm activity"
    );

    for shards in [2usize, 4, 8] {
        let mut sharded = topology.instantiate_sharded(options, shards);
        sharded.install_fault_plan(fault_plan(&|a| sharded.node_of(a)));
        assert_eq!(sharded.converge(RunLimits::none()), StopReason::Quiescent);
        assert_eq!(
            sharded.metrics_snapshot("plain"),
            serial_snap,
            "fault metrics diverge at {shards} shards"
        );
        assert_eq!(
            sharded.convergence_timeline().expect("timeline enabled"),
            serial_tl,
            "fault timeline diverges at {shards} shards"
        );
        assert_eq!(sharded.trace_jsonl(), serial_trace, "fault trace diverges at {shards} shards");
    }
}

#[test]
fn disabled_telemetry_stays_dark() {
    let params = InternetParams::default();
    let topology = internet_like(params, 72);
    let mut net = topology.instantiate(InstantiateOptions { seed: 72, ..Default::default() });
    assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
    // No timeline window → no recorder; no journal capacity → no trace.
    assert!(net.convergence_timeline().is_none());
    assert!(net.trace_jsonl().is_empty());
    // Metrics still work: counters come from the always-on stats structs.
    let snap = net.metrics_snapshot("plain");
    assert!(snap.counter_value("pvr_sim_events_total").unwrap() > 0);
}
