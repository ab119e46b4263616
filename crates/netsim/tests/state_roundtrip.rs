//! Engine checkpoint/restore equivalence: a run interrupted at a
//! deadline, saved, loaded into a freshly built simulator, and resumed
//! must be indistinguishable — stats, clock, timeline, DRBG stream —
//! from the same run left uninterrupted, at any shard count on either
//! side: the saved bytes do not depend on the shard count. Exercised
//! with jitter and loss (DRBG continuation) and fault plans (remaining
//! schedule round-trip).

use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_netsim::sim::Agent;
use pvr_netsim::{
    Context, Fault, FaultPlan, LinkConfig, NodeId, Payload, RunLimits, SimDuration, SimTime,
    Simulator, StateError, StopReason,
};
use std::any::Any;

#[derive(Clone, Debug, PartialEq)]
struct Token(u32);

impl Payload for Token {
    fn wire_size(&self) -> usize {
        4
    }
}

impl Wire for Token {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Token(u32::decode(r)?))
    }
}

/// Relay whose behaviour depends only on message contents, so a
/// freshly built instance continues a restored run identically.
#[derive(Clone)]
struct Relay {
    peer: NodeId,
    kick_off: u32,
}

impl Agent<Token> for Relay {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        if self.kick_off > 0 {
            ctx.send(self.peer, Token(self.kick_off));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
        if msg.0 > 0 {
            ctx.send(self.peer, Token(msg.0 - 1));
        }
    }
    fn on_session(&mut self, ctx: &mut Context<Token>, peer: NodeId, up: bool) {
        if up {
            ctx.send(peer, Token(3));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const SEED: u64 = 21;
const NODES: usize = 4;

fn ring_link() -> LinkConfig {
    LinkConfig::with_latency(SimDuration::from_millis(3))
        .jittered(SimDuration::from_micros(500))
        .lossy(0.1)
}

fn plan() -> FaultPlan {
    FaultPlan::new()
        .at(SimTime(40_000), Fault::LinkDown { a: 0, b: 1 })
        .at(SimTime(90_000), Fault::LinkUp { a: 0, b: 1 })
}

fn ring(shards: usize, with_plan: bool, with_timeline: bool) -> Simulator<Token> {
    let mut sim = Simulator::new(SEED, shards);
    for i in 0..NODES {
        sim.add_node(Box::new(Relay { peer: (i + 1) % NODES, kick_off: u32::from(i == 0) * 60 }));
    }
    sim.set_default_link(ring_link());
    if with_plan {
        sim.set_fault_plan(plan());
    }
    if with_timeline {
        sim.enable_timeline(SimDuration::from_millis(10));
    }
    sim
}

/// The ring run until `kill_at`, saved.
fn saved_at(shards: usize, with_plan: bool, kill_at: u64) -> Vec<u8> {
    let mut sim = ring(shards, with_plan, true);
    sim.run(RunLimits::until(SimTime(kill_at)));
    sim.save_state().expect("clean engines must checkpoint")
}

#[test]
fn restore_matches_uninterrupted() {
    for shards in [1, 2, 4] {
        for (with_plan, kill_at) in [(false, 20_000), (true, 50_000), (true, 131_072)] {
            let mut baseline = ring(shards, with_plan, true);
            baseline.run(RunLimits::none());

            let bytes = saved_at(shards, with_plan, kill_at);
            // "Crash": rebuild from scratch — without re-installing the
            // fault plan (the saved state carries its unapplied tail).
            let mut restored = ring(shards, false, false);
            restored.load_state(&bytes).expect("own bytes must load");
            assert_eq!(restored.run(RunLimits::none()), StopReason::Quiescent);

            let what = format!("{shards} shards, kill at {kill_at}");
            assert_eq!(baseline.now(), restored.now(), "{what}");
            assert_eq!(baseline.stats(), restored.stats(), "{what}");
            assert_eq!(baseline.timeline(), restored.timeline(), "{what}");
        }
    }
}

#[test]
fn saved_state_is_shard_invariant() {
    for kill_at in [20_000, 50_000, 131_072] {
        let one = saved_at(1, true, kill_at);
        for shards in [2, 3, 4] {
            assert!(saved_at(shards, true, kill_at) == one, "{shards} shards, kill at {kill_at}");
        }
    }
}

/// Every node starts a token on a jitter-free link, so each instant
/// holds one event per node, spread over the shards.
fn lockstep(shards: usize) -> Simulator<Token> {
    let mut sim = Simulator::new(SEED, shards);
    for i in 0..NODES {
        sim.add_node(Box::new(Relay { peer: (i + 1) % NODES, kick_off: 40 + i as u32 }));
    }
    sim.set_default_link(LinkConfig::with_latency(SimDuration::from_millis(3)));
    sim
}

#[test]
fn same_instant_events_are_saved_in_global_order() {
    let mut baseline = lockstep(1);
    baseline.run(RunLimits::none());
    let saved = |shards| {
        let mut sim = lockstep(shards);
        sim.run(RunLimits::until(SimTime(20_000)));
        sim.save_state().expect("clean engines must checkpoint")
    };
    let one = saved(1);
    for shards in [2, 3, 4] {
        let bytes = saved(shards);
        assert!(bytes == one, "{shards} shards");
        let mut restored = lockstep(5 - shards);
        restored.load_state(&bytes).expect("state loads at any shard count");
        restored.run(RunLimits::none());
        assert_eq!(baseline.stats(), restored.stats(), "saved at {shards} shards");
    }
}

#[test]
fn state_saved_at_two_shards_replays_at_one_and_four() {
    let mut baseline = ring(2, true, true);
    baseline.run(RunLimits::none());
    let bytes = saved_at(2, true, 50_000);
    for shards in [1, 4] {
        let mut restored = ring(shards, false, false);
        restored.load_state(&bytes).expect("state loads at any shard count");
        assert_eq!(restored.run(RunLimits::none()), StopReason::Quiescent);
        assert_eq!(baseline.now(), restored.now(), "{shards} shards");
        assert_eq!(baseline.stats(), restored.stats(), "{shards} shards");
        assert_eq!(baseline.timeline(), restored.timeline(), "{shards} shards");
    }
}

#[test]
fn engines_refuse_traces_and_mismatched_shapes() {
    let mut traced = ring(1, false, false);
    traced.enable_trace();
    assert_eq!(traced.save_state().unwrap_err(), StateError::TraceActive);

    let bytes = ring(2, false, false).save_state().unwrap();

    // Wrong node count.
    let mut small: Simulator<Token> = Simulator::new(SEED, 1);
    small.add_node(Box::new(Relay { peer: 0, kick_off: 0 }));
    assert!(matches!(
        small.load_state(&bytes).unwrap_err(),
        StateError::NodeCountMismatch { expected: NODES, found: 1 }
    ));

    // Any leading layout byte but 0 — such as the per-shard layout's 1,
    // once written at two or more shards — is refused.
    for tag in [1, 2, 0xff] {
        let mut other = bytes.clone();
        other[0] = tag;
        let mut target = ring(2, false, false);
        assert!(matches!(target.load_state(&other).unwrap_err(), StateError::Corrupt(_)));
    }
}

#[test]
fn corrupt_engine_state_is_rejected_without_panic() {
    let bytes = saved_at(1, true, 50_000);

    // Every strict prefix fails with a typed error.
    for cut in 0..bytes.len() {
        let mut target = ring(2, false, false);
        let err = target.load_state(&bytes[..cut]).expect_err("truncation must fail");
        let _ = err.to_string();
    }
    // Trailing garbage fails.
    let mut extended = bytes.clone();
    extended.push(0);
    let mut target = ring(1, false, false);
    assert!(target.load_state(&extended).is_err());

    // A failed load leaves the target untouched (still at t=0, still
    // able to run its own workload from scratch).
    let mut target = ring(1, false, false);
    assert!(target.load_state(&bytes[..bytes.len() / 2]).is_err());
    assert_eq!(target.now(), SimTime::ZERO);
    target.run(RunLimits::none());
    let mut fresh = ring(1, false, false);
    fresh.run(RunLimits::none());
    assert_eq!(target.stats(), fresh.stats());
}
