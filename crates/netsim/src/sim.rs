//! What agents and callers see of the simulator: the agent contract,
//! the callback context, run limits and statistics, and the calendar
//! queue the engine ([`crate::Simulator`]) is built on.
//!
//! Determinism rules:
//! * events are ordered by `(time, sequence-number)` — ties broken by
//!   scheduling order, never by map iteration order;
//! * all randomness (jitter, drops) comes from one seeded DRBG, drawn
//!   in that order;
//! * agents only interact with the world through [`Context`].

use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Index of a node within the simulator.
pub type NodeId = usize;

/// Payloads must expose their serialized size for overhead accounting
/// (experiments E5/E8/E14 report bytes on the wire).
///
/// Contract for internet-scale runs: both required operations sit on
/// the per-message hot path, so `Clone` should be O(1)-ish (share large
/// attribute data behind `Arc`s, as `pvr-bgp`'s routes and attestation
/// chains do) and `wire_size` should be arithmetic — computed from the
/// payload's shape, never by encoding it. The simulator calls
/// `wire_size` on every send and `clone` on every traced delivery.
pub trait Payload: Clone + 'static {
    /// Serialized size in bytes.
    fn wire_size(&self) -> usize;
}

/// A protocol participant.
///
/// `on_message` / `on_timer` receive a [`Context`] through which the
/// agent sends messages and arms timers; mutations are applied by the
/// simulator after the callback returns, preserving determinism.
pub trait Agent<P: Payload>: Any {
    /// Called once before the first event is processed.
    fn on_start(&mut self, _ctx: &mut Context<P>) {}

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Context<P>, from: NodeId, msg: P);

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<P>, _timer: u64) {}

    /// Called when the fault layer changes this node's session state
    /// toward `peer`: `up == false` on link-down/session-teardown,
    /// `up == true` on recovery. Default: ignore (non-session
    /// protocols are unaffected by fault plans).
    fn on_session(&mut self, _ctx: &mut Context<P>, _peer: NodeId, _up: bool) {}

    /// Downcast support (simulators are heterogeneous collections).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The API surface agents see during a callback. It carries no
/// randomness: an agent that needs some owns a DRBG of its own (as the
/// BGP router's MRAI jitter does), so what it draws cannot depend on
/// the engine's scheduling.
pub struct Context<P> {
    now: SimTime,
    self_id: NodeId,
    actions: Vec<Action<P>>,
}

pub(crate) enum Action<P> {
    Send { to: NodeId, msg: P },
    SetTimer { delay: SimDuration, timer: u64 },
}

impl<P> Context<P> {
    /// Builds a callback context over a recycled action buffer.
    pub(crate) fn renew(now: SimTime, self_id: NodeId, actions: Vec<Action<P>>) -> Context<P> {
        Context { now, self_id, actions }
    }

    /// Consumes the context, returning the buffered actions in the
    /// order the agent issued them.
    pub(crate) fn into_actions(self) -> Vec<Action<P>> {
        self.actions
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node's own id.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to` over the configured link.
    pub fn send(&mut self, to: NodeId, msg: P) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Arms a one-shot timer; `timer` is returned in `on_timer`.
    pub fn set_timer(&mut self, delay: SimDuration, timer: u64) {
        self.actions.push(Action::SetTimer { delay, timer });
    }
}

/// One delivered message, as recorded by the trace. Payloads are cloned
/// into the trace — cheap by the [`Payload`] contract, so tracing an
/// internet-scale run no longer copies attribute bytes per delivery.
#[derive(Clone, Debug)]
pub struct Delivery<P> {
    /// Delivery time.
    pub time: SimTime,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// The payload.
    pub msg: P,
}

pvr_obs::metric_struct! {
    /// Aggregate counters for a run.
    ///
    /// Declared through [`pvr_obs::metric_struct!`], so the struct, its
    /// `add` fold, and its registry export (counters named
    /// `pvr_sim_<field>_total`) are generated from one field list and
    /// can never drift apart.
    pub struct SimStats, prefix = "pvr_sim" {
        /// Messages handed to the network by agents.
        pub sent: u64,
        /// Messages delivered to agents.
        pub delivered: u64,
        /// Messages dropped by lossy/down links.
        pub dropped: u64,
        /// Sum of payload wire sizes for sent messages.
        pub bytes_sent: u64,
        /// Timer firings.
        pub timers_fired: u64,
        /// Total events processed.
        pub events: u64,
        /// Messages injected from outside the simulation (attack campaigns,
        /// test harnesses) via [`crate::Simulator::inject`].
        pub injected: u64,
        /// Link-down faults applied by the fault plan.
        pub link_down: u64,
        /// Link-up (recovery) faults applied by the fault plan.
        pub link_up: u64,
        /// Link-degrade (loss/jitter ramp) faults applied.
        pub link_degrades: u64,
        /// Session-reset faults applied by the fault plan.
        pub session_resets: u64,
        /// Node-pause faults applied by the fault plan.
        pub node_pauses: u64,
    }
}

pub(crate) enum EventKind<P> {
    Deliver { src: NodeId, dst: NodeId, msg: P },
    Timer { node: NodeId, timer: u64 },
}

/// The pending-event queue: a time-bucketed calendar.
///
/// Event ordering is `(time, insertion order)` — exactly the old
/// binary-heap-with-sequence-numbers contract — but discrete-event
/// routing workloads concentrate events on a small set of delivery
/// times (link latencies are quantized), so a FIFO per distinct time
/// beats a heap: a push is an O(log #distinct-times) map walk plus an
/// O(1) deque append, and a window detaches its whole bucket in one map
/// operation, with none of the heap's per-level payload moves. Emptied
/// buckets are recycled to keep the queue allocation-free in steady
/// state.
///
/// Generic over the queued item; the engine stores `(global-seq,
/// EventKind)` pairs so cross-shard merges can reconstruct total order.
pub(crate) struct EventQueue<E> {
    buckets: BTreeMap<SimTime, VecDeque<E>>,
    len: usize,
    /// Spare deques from drained buckets, reused for new times.
    spares: Vec<VecDeque<E>>,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> EventQueue<E> {
        EventQueue { buckets: BTreeMap::new(), len: 0, spares: Vec::new() }
    }

    pub(crate) fn push(&mut self, time: SimTime, item: E) {
        let bucket =
            self.buckets.entry(time).or_insert_with(|| self.spares.pop().unwrap_or_default());
        bucket.push_back(item);
        self.len += 1;
    }

    /// Earliest pending event time.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.buckets.keys().next().copied()
    }

    /// Total number of pending items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of items scheduled exactly at `time`.
    pub(crate) fn len_at(&self, time: SimTime) -> usize {
        self.buckets.get(&time).map_or(0, VecDeque::len)
    }

    /// Detaches the items scheduled exactly at `time` (empty if none), so
    /// a window drains them without a map operation per item. Hand the
    /// bucket back with [`put_back`](Self::put_back) before the queue is
    /// used again.
    pub(crate) fn take_at(&mut self, time: SimTime) -> VecDeque<E> {
        let bucket = self.buckets.remove(&time).unwrap_or_default();
        self.len -= bucket.len();
        bucket
    }

    /// Returns a bucket detached by [`take_at`](Self::take_at): what is
    /// left in it stays scheduled at `time`, ahead of anything pushed
    /// there since; an emptied bucket is recycled.
    pub(crate) fn put_back(&mut self, time: SimTime, mut bucket: VecDeque<E>) {
        self.len += bucket.len();
        let spare = match self.buckets.entry(time) {
            Entry::Vacant(slot) if !bucket.is_empty() => {
                slot.insert(bucket);
                return;
            }
            Entry::Vacant(_) => bucket,
            Entry::Occupied(mut pushed) => {
                bucket.append(pushed.get_mut());
                std::mem::replace(pushed.get_mut(), bucket)
            }
        };
        // Cap the pool: a handful of deques covers the distinct latencies
        // in flight.
        if self.spares.len() < 8 && spare.capacity() > 0 {
            self.spares.push(spare);
        }
    }

    /// Iterates the items scheduled exactly at `time`, in pop order.
    pub(crate) fn iter_at(&self, time: SimTime) -> impl Iterator<Item = &E> {
        self.buckets.get(&time).into_iter().flatten()
    }

    /// Iterates pending items in pop order (ascending time, FIFO per
    /// bucket) without draining — the checkpoint codec's view of the
    /// calendar.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.buckets.iter().flat_map(|(&t, q)| q.iter().map(move |e| (t, e)))
    }
}

/// A network-level barrier callback, fired whenever a sim-time instant
/// fully drains (no further event is scheduled at the current `now`).
///
/// Drained instants hold the same pending set at every shard count (the
/// same rule the convergence timeline uses for queue-depth sampling),
/// which makes a hook fired there — and any timers it schedules —
/// shard-count invariant. Fault-only instants never fire the hook.
///
/// The returned `(node, delay, timer)` triples are scheduled exactly as
/// if each node had called `SetTimer` itself, in the returned order
/// (they take fresh global sequence numbers in that order). A hook that
/// returns an empty vec at an empty queue lets the run go quiescent;
/// returned timers keep it alive.
pub trait BarrierHook: Send {
    /// Called at each drained instant; returns timers to schedule.
    fn on_barrier(&mut self, now: SimTime) -> Vec<(NodeId, SimDuration, u64)>;
}

/// Bounds for [`crate::Simulator::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunLimits {
    /// Stop before processing any event later than this time.
    pub deadline: Option<SimTime>,
    /// Stop after this many events.
    pub max_events: Option<u64>,
}

impl RunLimits {
    /// No limits: run to quiescence.
    pub fn none() -> RunLimits {
        RunLimits::default()
    }

    /// Run until simulated `deadline`.
    pub fn until(deadline: SimTime) -> RunLimits {
        RunLimits { deadline: Some(deadline), max_events: None }
    }
}

/// Why a [`crate::Simulator::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// No events left: the protocol converged.
    Quiescent,
    /// The next event lies past the deadline.
    Deadline,
    /// The event budget was exhausted.
    EventLimit,
}
