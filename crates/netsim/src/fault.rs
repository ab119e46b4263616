//! Deterministic fault injection: scheduled link, session, and node
//! faults applied at exact sim times.
//!
//! A [`FaultPlan`] is a list of `(time, fault)` pairs installed into
//! either engine before (or during) a run. Faults fire as their own sim
//! instants, *before* any queued event carrying the same timestamp, so
//! a fault schedule perturbs a run at reproducible points: every shard
//! count applies the same plan in the same order and stays
//! byte-identical.
//!
//! Faults are *network*-level (the same layer as [`LinkConfig`]
//! partitions): topology-aware semantics — flushing RIBs, flooding
//! withdraws, re-announcing on recovery — live in the agents, reached
//! through the [`Agent::on_session`] callback that link and session
//! faults trigger on both endpoints.
//!
//! [`LinkConfig`]: crate::LinkConfig
//! [`Agent::on_session`]: crate::Agent::on_session

use crate::sim::NodeId;
use crate::time::{SimDuration, SimTime};

/// One schedulable fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Both directions of the `a`–`b` link go administratively down.
    /// Each endpoint receives `on_session(peer, up: false)`.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Both directions of the `a`–`b` link come back up. Each endpoint
    /// receives `on_session(peer, up: true)`.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Ramps loss and jitter on both directions of the `a`–`b` link
    /// without tearing the session down (brown-out rather than
    /// black-out). Latency is preserved.
    LinkDegrade {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// New drop probability for both directions.
        drop_prob: f64,
        /// New uniform jitter bound for both directions.
        jitter: SimDuration,
    },
    /// Tears the `a`–`b` session down and immediately back up without
    /// touching link state: both endpoints see `on_session(false)` then
    /// `on_session(true)` at the same instant.
    SessionReset {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Pauses a node: every message to or from it is dropped at the
    /// sender until the matching [`Fault::NodeResume`]. In-flight
    /// deliveries still arrive and timers still fire — a pause models a
    /// stalled control plane, not a powered-off box.
    NodePause {
        /// The paused node.
        node: NodeId,
    },
    /// Resumes a paused node.
    NodeResume {
        /// The resumed node.
        node: NodeId,
    },
}

/// A schedule of seeded fault events, installed into an engine with
/// `set_fault_plan`. Events with equal times apply in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `fault` at `time`.
    pub fn push(&mut self, time: SimTime, fault: Fault) {
        self.events.push((time, fault));
    }

    /// Builder-style [`push`](FaultPlan::push).
    pub fn at(mut self, time: SimTime, fault: Fault) -> FaultPlan {
        self.push(time, fault);
        self
    }

    /// Schedules `count` down/up flaps of the `a`–`b` link: down at
    /// `start + k·period`, up again `down_for` later.
    pub fn flap_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        start: SimTime,
        down_for: SimDuration,
        period: SimDuration,
        count: usize,
    ) {
        assert!(down_for < period, "flap must come back up before the next cycle");
        for k in 0..count as u64 {
            let down_at = start + SimDuration::from_micros(period.as_micros() * k);
            self.push(down_at, Fault::LinkDown { a, b });
            self.push(down_at + down_for, Fault::LinkUp { a, b });
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events in insertion order.
    pub fn events(&self) -> &[(SimTime, Fault)] {
        &self.events
    }

    pub(crate) fn into_injector(self) -> FaultInjector {
        let mut schedule = self.events;
        // Stable by time: equal-time faults keep insertion order, the
        // same tie-break rule as the event queue.
        schedule.sort_by_key(|&(t, _)| t);
        FaultInjector { schedule, cursor: 0 }
    }
}

/// Engine-internal cursor over a sorted fault schedule.
pub(crate) struct FaultInjector {
    schedule: Vec<(SimTime, Fault)>,
    cursor: usize,
}

impl FaultInjector {
    /// Earliest unapplied fault time (raw schedule time; engines clamp
    /// to `now` so late-installed plans fire immediately, never in the
    /// past).
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.schedule.get(self.cursor).map(|&(t, _)| t)
    }

    /// Pops the next fault if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<Fault> {
        let &(t, fault) = self.schedule.get(self.cursor)?;
        if t > now {
            return None;
        }
        self.cursor += 1;
        Some(fault)
    }

    /// The unapplied tail of the schedule (checkpoint codecs persist
    /// exactly this, so a restored run need not re-install the plan).
    pub(crate) fn remaining(&self) -> &[(SimTime, Fault)] {
        &self.schedule[self.cursor..]
    }

    /// Rebuilds an injector from a checkpointed remaining schedule
    /// (already time-sorted by construction).
    pub(crate) fn from_schedule(schedule: Vec<(SimTime, Fault)>) -> FaultInjector {
        FaultInjector { schedule, cursor: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_stably_by_time() {
        let plan = FaultPlan::new()
            .at(SimTime(20), Fault::LinkUp { a: 0, b: 1 })
            .at(SimTime(10), Fault::LinkDown { a: 0, b: 1 })
            .at(SimTime(10), Fault::NodePause { node: 2 });
        let mut inj = plan.into_injector();
        assert_eq!(inj.next_time(), Some(SimTime(10)));
        assert_eq!(inj.pop_due(SimTime(10)), Some(Fault::LinkDown { a: 0, b: 1 }));
        assert_eq!(inj.pop_due(SimTime(10)), Some(Fault::NodePause { node: 2 }));
        assert_eq!(inj.pop_due(SimTime(10)), None, "future faults stay queued");
        assert_eq!(inj.pop_due(SimTime(20)), Some(Fault::LinkUp { a: 0, b: 1 }));
        assert_eq!(inj.next_time(), None, "schedule exhausted");
    }

    #[test]
    fn flap_link_expands_to_down_up_pairs() {
        let mut plan = FaultPlan::new();
        plan.flap_link(
            3,
            4,
            SimTime(1_000),
            SimDuration::from_micros(100),
            SimDuration::from_micros(500),
            2,
        );
        assert_eq!(
            plan.events(),
            &[
                (SimTime(1_000), Fault::LinkDown { a: 3, b: 4 }),
                (SimTime(1_100), Fault::LinkUp { a: 3, b: 4 }),
                (SimTime(1_500), Fault::LinkDown { a: 3, b: 4 }),
                (SimTime(1_600), Fault::LinkUp { a: 3, b: 4 }),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "back up before")]
    fn flap_longer_than_period_rejected() {
        let mut plan = FaultPlan::new();
        plan.flap_link(
            0,
            1,
            SimTime(0),
            SimDuration::from_micros(500),
            SimDuration::from_micros(500),
            1,
        );
    }
}
