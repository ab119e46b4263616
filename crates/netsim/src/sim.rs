//! The discrete-event simulator core.
//!
//! Design follows the smoltcp school: a synchronous, poll-driven event
//! loop with no hidden concurrency — every run is a deterministic
//! function of (agent code, topology, seed). Agents exchange typed
//! messages; the simulator owns the clock, the event queue, the links,
//! and the statistics.
//!
//! Determinism rules:
//! * events are ordered by `(time, sequence-number)` — ties broken by
//!   insertion order, never by map iteration order;
//! * all randomness (jitter, drops) comes from one seeded [`HmacDrbg`];
//! * agents only interact with the world through [`Context`].

use crate::fault::{Fault, FaultInjector, FaultPlan};
use crate::link::LinkConfig;
use crate::time::{SimDuration, SimTime};
use pvr_crypto::drbg::HmacDrbg;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};

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

/// The API surface agents see during a callback.
pub struct Context<'a, P> {
    now: SimTime,
    self_id: NodeId,
    rng: &'a mut HmacDrbg,
    actions: Vec<Action<P>>,
}

pub(crate) enum Action<P> {
    Send { to: NodeId, msg: P },
    SetTimer { delay: SimDuration, timer: u64 },
}

impl<'a, P> Context<'a, P> {
    /// Builds a callback context over a recycled action buffer. Shared
    /// between the serial engine and the sharded engine so both apply
    /// identical semantics to agent callbacks.
    pub(crate) fn renew(
        now: SimTime,
        self_id: NodeId,
        rng: &'a mut HmacDrbg,
        actions: Vec<Action<P>>,
    ) -> Context<'a, P> {
        Context { now, self_id, rng, actions }
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

    /// Deterministic per-simulation randomness (e.g. for randomized
    /// protocol choices inside agents).
    pub fn rng(&mut self) -> &mut HmacDrbg {
        self.rng
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
        /// test harnesses) via [`Simulator::inject`].
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
/// beats a heap: push and pop are O(log #distinct-times) map walks
/// plus an O(1) deque operation, with none of the heap's per-level
/// payload moves. Emptied buckets are recycled to keep the queue
/// allocation-free in steady state.
///
/// Generic over the queued item: the serial engine stores bare
/// [`EventKind`]s, the sharded engine stores `(global-seq, EventKind)`
/// pairs so cross-shard merges can reconstruct total order.
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

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut entry = self.buckets.first_entry()?;
        let time = *entry.key();
        let item = entry.get_mut().pop_front().expect("buckets are never left empty");
        self.len -= 1;
        if entry.get().is_empty() {
            let mut spare = entry.remove();
            // Cap the pool: a handful of deques covers the distinct
            // latencies in flight.
            if self.spares.len() < 8 {
                spare.clear();
                self.spares.push(spare);
            }
        }
        Some((time, item))
    }

    /// Total number of pending items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of items scheduled exactly at `time`.
    pub(crate) fn len_at(&self, time: SimTime) -> usize {
        self.buckets.get(&time).map_or(0, VecDeque::len)
    }

    /// Pops the next item only if it is scheduled exactly at `time` —
    /// the window-draining primitive of the sharded engine.
    pub(crate) fn pop_at(&mut self, time: SimTime) -> Option<E> {
        if self.peek_time()? != time {
            return None;
        }
        self.pop().map(|(_, item)| item)
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
/// Drained instants are the one point where the serial and sharded
/// engines provably hold the same pending set (the same rule the
/// convergence timeline uses for queue-depth sampling), which makes a
/// hook fired there — and any timers it schedules — engine-invariant.
/// Fault-only instants never fire the hook on either engine.
///
/// The returned `(node, delay, timer)` triples are scheduled exactly as
/// if each node had called `SetTimer` itself, in the returned order
/// (the sharded engine tags them with fresh global sequence numbers in
/// that order). A hook that returns an empty vec at an empty queue lets
/// the run go quiescent; returned timers keep it alive.
pub trait BarrierHook: Send {
    /// Called at each drained instant; returns timers to schedule.
    fn on_barrier(&mut self, now: SimTime) -> Vec<(NodeId, SimDuration, u64)>;
}

/// The simulator: nodes, links, clock, queue, stats, and optional trace.
pub struct Simulator<P: Payload> {
    nodes: Vec<Box<dyn Agent<P>>>,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    default_link: LinkConfig,
    queue: EventQueue<EventKind<P>>,
    now: SimTime,
    rng: HmacDrbg,
    stats: SimStats,
    trace: Option<Vec<Delivery<P>>>,
    /// Optional convergence-timeline recorder (sim-time windows; see
    /// `pvr_obs::timeline`). Stamped exclusively with `self.now` — the
    /// sim-time-only tracing rule — so enabling it cannot perturb
    /// determinism.
    timeline: Option<pvr_obs::TimelineRecorder>,
    started: bool,
    /// Recycled buffer for agent actions (see `dispatch`).
    action_scratch: Vec<Action<P>>,
    /// Scheduled fault events, if a plan was installed.
    faults: Option<FaultInjector>,
    /// Per-node pause flags (see [`Fault::NodePause`]).
    paused: Vec<bool>,
    /// Optional drained-instant callback (see [`BarrierHook`]).
    barrier: Option<Box<dyn BarrierHook>>,
}

impl<P: Payload> Simulator<P> {
    /// Creates a simulator with the given seed (all randomness derives
    /// from it) and a default link configuration.
    pub fn new(seed: u64) -> Simulator<P> {
        Simulator {
            nodes: Vec::new(),
            links: HashMap::new(),
            default_link: LinkConfig::default(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: HmacDrbg::from_u64_labeled(seed, "netsim"),
            stats: SimStats::default(),
            trace: None,
            timeline: None,
            started: false,
            action_scratch: Vec::new(),
            faults: None,
            paused: Vec::new(),
            barrier: None,
        }
    }

    /// Installs a [`BarrierHook`], replacing any previous one. The hook
    /// fires at every drained sim-time instant from then on; with no
    /// hook installed the engine's behaviour is bit-identical to before
    /// this API existed.
    pub fn set_barrier_hook(&mut self, hook: Box<dyn BarrierHook>) {
        self.barrier = Some(hook);
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, agent: Box<dyn Agent<P>>) -> NodeId {
        self.nodes.push(agent);
        self.paused.push(false);
        self.nodes.len() - 1
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Sets the link configuration used when no per-pair config exists.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        self.default_link = cfg;
    }

    /// Configures the directed link `src → dst`.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        self.links.insert((src, dst), cfg);
    }

    /// Configures both directions between `a` and `b`.
    pub fn set_link_bidi(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.set_link(a, b, cfg);
        self.set_link(b, a, cfg);
    }

    /// Takes a directed link down (partition).
    pub fn set_link_down(&mut self, src: NodeId, dst: NodeId, down: bool) {
        let mut cfg = self.link_config(src, dst);
        cfg.down = down;
        self.links.insert((src, dst), cfg);
    }

    /// Installs a fault plan. Faults fire at their scheduled sim times,
    /// before any queued event at the same instant; faults scheduled in
    /// the past fire immediately. Replaces any previous plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan.into_injector());
    }

    fn link_config(&self, src: NodeId, dst: NodeId) -> LinkConfig {
        self.links.get(&(src, dst)).copied().unwrap_or(self.default_link)
    }

    /// Enables trace recording (for audits and debugging).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded trace, if enabled.
    pub fn trace(&self) -> Option<&[Delivery<P>]> {
        self.trace.as_deref()
    }

    /// Enables the convergence-timeline recorder with `window`-wide
    /// sim-time windows. Events and deliveries are counted into the
    /// window containing their processing time; queue depth is sampled
    /// whenever a sim-time instant fully drains — the one point where
    /// the serial and sharded engines provably hold the same pending
    /// set, which is what makes the samples byte-identical across
    /// engines.
    pub fn enable_timeline(&mut self, window: SimDuration) {
        if self.timeline.is_none() {
            self.timeline = Some(pvr_obs::TimelineRecorder::new(
                window.as_micros(),
                pvr_obs::timeline::SIM_CHANNELS,
            ));
        }
    }

    /// The timeline recorder, if enabled.
    pub fn timeline(&self) -> Option<&pvr_obs::TimelineRecorder> {
        self.timeline.as_ref()
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True when an event or fault is still due at [`now`](Self::now):
    /// a `max_events` stop can leave the current instant half-drained.
    pub fn pending_at_now(&self) -> bool {
        self.queue.peek_time() == Some(self.now) || self.next_fault_time() == Some(self.now)
    }

    /// Injects a message from outside the simulation (e.g. a test
    /// harness kicking off a round, or an attack campaign forging
    /// announcements); delivered after link latency.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, msg: P) {
        self.stats.injected += 1;
        self.schedule_send(src, dst, msg);
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes.get(id)?.as_any().downcast_ref::<T>()
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes.get_mut(id)?.as_any_mut().downcast_mut::<T>()
    }

    fn schedule(&mut self, time: SimTime, kind: EventKind<P>) {
        self.queue.push(time, kind);
    }

    fn schedule_send(&mut self, src: NodeId, dst: NodeId, msg: P) {
        assert!(dst < self.nodes.len(), "send to unknown node {dst}");
        let cfg = self.link_config(src, dst);
        self.stats.sent += 1;
        self.stats.bytes_sent += msg.wire_size() as u64;
        // Pause drops happen before the DRBG drop-check so a paused
        // clean link consumes no randomness — the sharded engine's
        // coordinator applies the identical rule.
        if self.paused[src] || self.paused[dst] {
            self.stats.dropped += 1;
            return;
        }
        if cfg.down || (cfg.drop_prob > 0.0 && self.rng.chance(cfg.drop_prob)) {
            self.stats.dropped += 1;
            return;
        }
        let jitter = if cfg.jitter.as_micros() > 0 {
            SimDuration::from_micros(self.rng.below(cfg.jitter.as_micros() + 1))
        } else {
            SimDuration::ZERO
        };
        let at = self.now + cfg.latency + jitter;
        self.schedule(at, EventKind::Deliver { src, dst, msg });
    }

    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action<P>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => self.schedule_send(node, to, msg),
                Action::SetTimer { delay, timer } => {
                    let at = self.now + delay;
                    self.schedule(at, EventKind::Timer { node, timer });
                }
            }
        }
    }

    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Agent<P>, &mut Context<P>),
    {
        let mut agent =
            std::mem::replace(&mut self.nodes[node], Box::new(InertAgent) as Box<dyn Agent<P>>);
        // The action buffer is recycled across dispatches (one event =
        // one callback, millions of events per convergence run).
        let actions = std::mem::take(&mut self.action_scratch);
        let mut ctx = Context { now: self.now, self_id: node, rng: &mut self.rng, actions };
        f(agent.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        self.nodes[node] = agent;
        self.apply_actions(node, &mut actions);
        self.action_scratch = actions;
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.nodes.len() {
            self.dispatch(id, |agent, ctx| agent.on_start(ctx));
        }
    }

    /// Earliest unapplied fault time, clamped to `now` (late-installed
    /// plans fire immediately, never in the past).
    fn next_fault_time(&self) -> Option<SimTime> {
        self.faults.as_ref().and_then(FaultInjector::next_time).map(|t| t.max(self.now))
    }

    /// Applies one fault. Link and session faults dispatch
    /// [`Agent::on_session`] on both endpoints (`a` first), consuming
    /// the link DRBG through any actions they produce — the sharded
    /// engine runs the identical sequence on its coordinator.
    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::LinkDown { a, b } => {
                self.stats.link_down += 1;
                self.set_link_down(a, b, true);
                self.set_link_down(b, a, true);
                self.dispatch(a, |agent, ctx| agent.on_session(ctx, b, false));
                self.dispatch(b, |agent, ctx| agent.on_session(ctx, a, false));
            }
            Fault::LinkUp { a, b } => {
                self.stats.link_up += 1;
                self.set_link_down(a, b, false);
                self.set_link_down(b, a, false);
                self.dispatch(a, |agent, ctx| agent.on_session(ctx, b, true));
                self.dispatch(b, |agent, ctx| agent.on_session(ctx, a, true));
            }
            Fault::LinkDegrade { a, b, drop_prob, jitter } => {
                self.stats.link_degrades += 1;
                for (src, dst) in [(a, b), (b, a)] {
                    let mut cfg = self.link_config(src, dst);
                    cfg.drop_prob = drop_prob;
                    cfg.jitter = jitter;
                    self.links.insert((src, dst), cfg);
                }
            }
            Fault::SessionReset { a, b } => {
                self.stats.session_resets += 1;
                self.dispatch(a, |agent, ctx| agent.on_session(ctx, b, false));
                self.dispatch(b, |agent, ctx| agent.on_session(ctx, a, false));
                self.dispatch(a, |agent, ctx| agent.on_session(ctx, b, true));
                self.dispatch(b, |agent, ctx| agent.on_session(ctx, a, true));
            }
            Fault::NodePause { node } => {
                self.stats.node_pauses += 1;
                self.paused[node] = true;
            }
            Fault::NodeResume { node } => {
                self.paused[node] = false;
            }
        }
    }

    /// Processes a single event or fault instant; returns `false` when
    /// nothing is pending (queue drained and fault plan exhausted).
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        // A due fault fires before any queued event at the same time.
        if let Some(ft) = self.next_fault_time() {
            let fault_first = match self.queue.peek_time() {
                Some(head) => ft <= head,
                None => true,
            };
            if fault_first {
                self.now = ft;
                while let Some(fault) = self.faults.as_mut().and_then(|f| f.pop_due(ft)) {
                    self.apply_fault(fault);
                }
                return true;
            }
        }
        let (time, kind) = match self.queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.stats.events += 1;
        let delivered = matches!(kind, EventKind::Deliver { .. });
        match kind {
            EventKind::Deliver { src, dst, msg } => {
                self.stats.delivered += 1;
                if let Some(trace) = &mut self.trace {
                    trace.push(Delivery { time: self.now, src, dst, msg: msg.clone() });
                }
                self.dispatch(dst, |agent, ctx| agent.on_message(ctx, src, msg));
            }
            EventKind::Timer { node, timer } => {
                self.stats.timers_fired += 1;
                self.dispatch(node, |agent, ctx| agent.on_timer(ctx, timer));
            }
        }
        if let Some(tl) = &mut self.timeline {
            use pvr_obs::timeline::{SIM_DELIVERED, SIM_EVENTS, SIM_QUEUE_DEPTH};
            let t_us = self.now.as_micros();
            tl.add(t_us, SIM_EVENTS, 1);
            if delivered {
                tl.add(t_us, SIM_DELIVERED, 1);
            }
            // Sample queue depth only when the current sim-instant has
            // fully drained (zero-latency cascades land back in the
            // `now` bucket, so this is checked after dispatch): at that
            // point the pending set is identical in the sharded engine,
            // making the sample engine-independent.
            if self.queue.peek_time() != Some(self.now) {
                tl.set(t_us, SIM_QUEUE_DEPTH, self.queue.len() as u64);
            }
        }
        // Fire the barrier hook at the same drained-instant condition
        // the timeline samples at (and after the depth sample, so hook
        // timers never count into it) — the sharded engine mirrors both
        // the condition and the ordering.
        if self.barrier.is_some() && self.queue.peek_time() != Some(self.now) {
            let mut hook = self.barrier.take().expect("checked above");
            let timers = hook.on_barrier(self.now);
            self.barrier = Some(hook);
            for (node, delay, timer) in timers {
                let at = self.now + delay;
                self.schedule(at, EventKind::Timer { node, timer });
            }
        }
        true
    }

    /// Runs until the event queue drains or a bound is hit. Returns the
    /// reason the run stopped.
    pub fn run(&mut self, limits: RunLimits) -> StopReason {
        self.start_if_needed();
        loop {
            if let Some(max) = limits.max_events {
                if self.stats.events >= max {
                    return StopReason::EventLimit;
                }
            }
            let head = match (self.queue.peek_time(), self.next_fault_time()) {
                (Some(q), Some(f)) => Some(q.min(f)),
                (q, f) => q.or(f),
            };
            if let (Some(head), Some(deadline)) = (head, limits.deadline) {
                if head > deadline {
                    return StopReason::Deadline;
                }
            }
            if !self.step() {
                return StopReason::Quiescent;
            }
        }
    }
}

impl<P: Payload + pvr_crypto::encoding::Wire> Simulator<P> {
    /// Serializes the engine's dynamic state — clock, DRBG, calendar,
    /// stats, link overrides, pause flags, unapplied faults, timeline
    /// cells. Agents are **not** included: the caller owns their
    /// reconstruction and overlays this state via
    /// [`load_state`](Self::load_state) on a freshly built simulator.
    ///
    /// Refuses (typed [`crate::state::StateError`]) when a trace or barrier hook is
    /// active — neither survives a round-trip, and silently dropping
    /// them would corrupt the restored run's observable behaviour.
    pub fn save_state(&self) -> Result<Vec<u8>, crate::state::StateError> {
        use crate::state::{self, CommonState, StateError, TAG_SERIAL};
        use pvr_crypto::encoding::Wire;
        if self.trace.is_some() {
            return Err(StateError::TraceActive);
        }
        if self.barrier.is_some() {
            return Err(StateError::BarrierActive);
        }
        let mut links: Vec<_> = self.links.iter().map(|(&k, &v)| (k, v)).collect();
        links.sort_unstable_by_key(|&(key, _)| key);
        let common = CommonState {
            node_count: self.nodes.len(),
            now: self.now,
            started: self.started,
            stats: self.stats.clone(),
            default_link: self.default_link,
            links,
            paused: self.paused.clone(),
            faults: self.faults.as_ref().map(|f| f.remaining().to_vec()),
            timeline: self
                .timeline
                .as_ref()
                .map(|tl| (tl.window_us(), tl.channels(), tl.cells().clone())),
        };
        let mut out = vec![TAG_SERIAL];
        common.encode(&mut out);
        state::encode_drbg(&self.rng, &mut out);
        (self.queue.len() as u64).encode(&mut out);
        for (time, kind) in self.queue.iter() {
            time.encode(&mut out);
            state::encode_event(kind, &mut out);
        }
        Ok(out)
    }

    /// Restores state saved by [`save_state`](Self::save_state) into
    /// this simulator, which must hold the same number of nodes (the
    /// caller rebuilds agents from its own configuration first).
    ///
    /// The input is decoded and validated in full before anything is
    /// applied: on any error — truncation, corrupt discriminants,
    /// out-of-range node ids, a mismatching stats field list — the
    /// simulator is left exactly as it was.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::state::StateError> {
        use crate::state::{self, CommonState, StateError, TAG_SERIAL, TAG_SHARDED};
        use pvr_crypto::encoding::{Reader, Wire, WireError};
        if self.trace.is_some() {
            return Err(StateError::TraceActive);
        }
        if self.barrier.is_some() {
            return Err(StateError::BarrierActive);
        }
        let mut r = Reader::new(bytes);
        match r.take(1).map_err(StateError::from)?[0] {
            TAG_SERIAL => {}
            TAG_SHARDED => return Err(StateError::EngineMismatch),
            _ => return Err(StateError::Corrupt("engine discriminant")),
        }
        let common = CommonState::decode(&mut r)?;
        if common.node_count != self.nodes.len() {
            return Err(StateError::NodeCountMismatch {
                expected: common.node_count,
                found: self.nodes.len(),
            });
        }
        let rng = state::decode_drbg(&mut r)?;
        let event_count = state::checked_count(&mut r, 9)?;
        let mut queue = EventQueue::new();
        let mut last_time = common.now;
        for _ in 0..event_count {
            let time = SimTime::decode(&mut r)?;
            if time < last_time {
                return Err(StateError::Corrupt("event calendar out of order"));
            }
            last_time = time;
            queue.push(time, state::decode_event::<P>(&mut r, common.node_count)?);
        }
        if r.remaining() > 0 {
            return Err(StateError::Wire(WireError::TrailingBytes(r.remaining())));
        }
        // Fully validated — apply.
        self.now = common.now;
        self.started = common.started;
        self.stats = common.stats;
        self.default_link = common.default_link;
        self.links = common.links.into_iter().collect();
        self.paused = common.paused;
        self.faults = common.faults.map(FaultInjector::from_schedule);
        self.timeline =
            common.timeline.map(|(w, c, cells)| pvr_obs::TimelineRecorder::from_cells(w, c, cells));
        self.rng = rng;
        self.queue = queue;
        Ok(())
    }
}

/// Bounds for [`Simulator::run`].
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

/// Why a [`Simulator::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// No events left: the protocol converged.
    Quiescent,
    /// The next event lies past the deadline.
    Deadline,
    /// The event budget was exhausted.
    EventLimit,
}

/// Placeholder agent swapped in while a real agent's callback runs.
pub(crate) struct InertAgent;

impl<P: Payload> Agent<P> for InertAgent {
    fn on_message(&mut self, _ctx: &mut Context<P>, _from: NodeId, _msg: P) {
        unreachable!("InertAgent must never receive messages");
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: counts down a token passed between two nodes.
    #[derive(Clone, Debug, PartialEq)]
    struct Token(u32);

    impl Payload for Token {
        fn wire_size(&self) -> usize {
            4
        }
    }

    struct PingPong {
        peer: NodeId,
        received: Vec<u32>,
        kick_off: bool,
    }

    impl Agent<Token> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            if self.kick_off {
                ctx.send(self.peer, Token(5));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
            self.received.push(msg.0);
            if msg.0 > 0 {
                ctx.send(self.peer, Token(msg.0 - 1));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ping_pong_sim(seed: u64) -> Simulator<Token> {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node(Box::new(PingPong { peer: 1, received: vec![], kick_off: true }));
        let b = sim.add_node(Box::new(PingPong { peer: 0, received: vec![], kick_off: false }));
        assert_eq!((a, b), (0, 1));
        sim
    }

    #[test]
    fn ping_pong_converges() {
        let mut sim = ping_pong_sim(1);
        assert_eq!(sim.run(RunLimits::none()), StopReason::Quiescent);
        let a: &PingPong = sim.node(0).unwrap();
        let b: &PingPong = sim.node(1).unwrap();
        assert_eq!(b.received, vec![5, 3, 1]);
        assert_eq!(a.received, vec![4, 2, 0]);
        assert_eq!(sim.stats().delivered, 6);
        assert_eq!(sim.stats().bytes_sent, 24);
    }

    #[test]
    fn time_advances_with_latency() {
        let mut sim = ping_pong_sim(1);
        sim.set_default_link(LinkConfig::with_latency(SimDuration::from_millis(10)));
        sim.run(RunLimits::none());
        // 6 hops × 10 ms.
        assert_eq!(sim.now().as_micros(), 60_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut sim = ping_pong_sim(seed);
            sim.set_default_link(
                LinkConfig::with_latency(SimDuration::from_millis(1))
                    .jittered(SimDuration::from_micros(500)),
            );
            sim.enable_trace();
            sim.run(RunLimits::none());
            (
                sim.now(),
                sim.stats().clone(),
                sim.trace().unwrap().iter().map(|d| (d.time, d.src, d.dst)).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2, "different seeds should jitter differently");
    }

    #[test]
    fn lossy_link_drops() {
        let mut sim = ping_pong_sim(3);
        sim.set_default_link(LinkConfig::default().lossy(1.0));
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().dropped, 1); // the kick-off message
    }

    #[test]
    fn partition_blocks_messages() {
        let mut sim = ping_pong_sim(4);
        sim.set_link_down(0, 1, true);
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 0);
        // Bringing the link back up lets an injected message through.
        sim.set_link_down(0, 1, false);
        sim.inject(0, 1, Token(0));
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 1);
    }

    #[test]
    fn deadline_stops_run() {
        let mut sim = ping_pong_sim(5);
        sim.set_default_link(LinkConfig::with_latency(SimDuration::from_millis(10)));
        let r = sim.run(RunLimits::until(SimTime(25_000)));
        assert_eq!(r, StopReason::Deadline);
        assert!(sim.now().as_micros() <= 25_000);
        // Resume to quiescence.
        assert_eq!(sim.run(RunLimits::none()), StopReason::Quiescent);
    }

    #[test]
    fn event_limit_stops_run() {
        let mut sim = ping_pong_sim(6);
        let r = sim.run(RunLimits { deadline: None, max_events: Some(2) });
        assert_eq!(r, StopReason::EventLimit);
        assert_eq!(sim.stats().events, 2);
    }

    struct TimerAgent {
        fired: Vec<u64>,
    }

    impl Agent<Token> for TimerAgent {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            ctx.set_timer(SimDuration::from_millis(5), 42);
            ctx.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_message(&mut self, _: &mut Context<Token>, _: NodeId, _: Token) {}
        fn on_timer(&mut self, _ctx: &mut Context<Token>, timer: u64) {
            self.fired.push(timer);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim: Simulator<Token> = Simulator::new(9);
        sim.add_node(Box::new(TimerAgent { fired: vec![] }));
        sim.run(RunLimits::none());
        let a: &TimerAgent = sim.node(0).unwrap();
        assert_eq!(a.fired, vec![7, 42]);
        assert_eq!(sim.stats().timers_fired, 2);
    }

    #[test]
    fn trace_records_deliveries() {
        let mut sim = ping_pong_sim(10);
        sim.enable_trace();
        sim.run(RunLimits::none());
        let trace = sim.trace().unwrap();
        assert_eq!(trace.len(), 6);
        assert_eq!(trace[0].msg, Token(5));
        assert_eq!(trace[0].src, 0);
        assert_eq!(trace[0].dst, 1);
    }

    #[test]
    fn fifo_ordering_on_equal_latency_links() {
        // Two messages sent back-to-back over the same link must arrive
        // in send order (ties broken by sequence number).
        struct Burst {
            peer: NodeId,
            got: Vec<u32>,
        }
        impl Agent<Token> for Burst {
            fn on_start(&mut self, ctx: &mut Context<Token>) {
                for i in 0..10 {
                    ctx.send(self.peer, Token(i));
                }
            }
            fn on_message(&mut self, _: &mut Context<Token>, _: NodeId, msg: Token) {
                self.got.push(msg.0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulator<Token> = Simulator::new(11);
        sim.add_node(Box::new(Burst { peer: 1, got: vec![] }));
        sim.add_node(Box::new(Burst { peer: 0, got: vec![] }));
        sim.run(RunLimits::none());
        let b: &Burst = sim.node(1).unwrap();
        assert_eq!(b.got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn send_to_unknown_node_panics() {
        let mut sim = ping_pong_sim(12);
        sim.inject(0, 99, Token(0));
    }
}
