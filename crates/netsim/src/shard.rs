//! Sharded discrete-event engine: parallel dispatch, serial order.
//!
//! [`ShardedSimulator`] partitions the node set across shards, each with
//! its own time-bucketed calendar (the same `EventQueue` the serial
//! engine uses), and runs the
//! simulation in lockstep *time windows*: all events scheduled for the
//! earliest pending timestamp are dispatched in parallel (one worker per
//! shard under `std::thread::scope`), then a serial exchange phase
//! routes every action the agents produced — including boundary-crossing
//! messages — back into the calendars in exactly the order the serial
//! [`Simulator`](crate::Simulator) would have produced.
//!
//! # Why the output is byte-identical to the serial engine
//!
//! The serial engine's behaviour is a fold over events ordered by
//! `(time, sequence-number)`, where sequence numbers are assigned in
//! scheduling order and the link DRBG is consumed on the send path in
//! that same order. The sharded engine reproduces that fold exactly:
//!
//! * **Within a window** all events share one timestamp and target
//!   disjoint agents (each node lives on exactly one shard), so their
//!   dispatch order across shards cannot affect agent state. Per shard,
//!   events are drained in FIFO (= global sequence) order.
//! * **Actions** are buffered during dispatch tagged with
//!   `(cause-sequence, action-index)`. The exchange phase merges all
//!   shard outboxes sorted by that key — which is precisely the order
//!   the serial engine applies actions in (it finishes each event's
//!   actions before popping the next event at the same time).
//! * **Randomness**: link jitter and loss draw from one coordinator
//!   DRBG seeded identically to the serial engine's (label `"netsim"`),
//!   and the exchange phase consumes it in the serial order above — so
//!   even lossy, jittered runs are bit-reproducible across shard
//!   counts. Per-shard DRBGs (labels `"netsim-shard-{k}"`) back
//!   [`Context::rng`] during parallel dispatch; agents that draw from
//!   their context rng (none of the BGP routers do) trade cross-engine
//!   identity for cross-run determinism at a fixed shard count.
//! * **Same-time cascades** (zero-latency sends landing in the current
//!   window) are appended to the window's buckets with fresh sequence
//!   numbers and drained by re-running the window until it empties,
//!   matching the serial engine's FIFO append semantics.
//!
//! The only observable divergence is [`RunLimits::max_events`], which
//! the sharded engine checks at window granularity rather than per
//! event (convergence workloads run with deadlines or no limits).

use crate::fault::{Fault, FaultInjector, FaultPlan};
use crate::link::LinkConfig;
use crate::sim::{Action, Agent, Context, Delivery, EventKind, EventQueue, NodeId, Payload};
use crate::sim::{InertAgent, RunLimits, SimStats, StopReason};
use crate::time::SimTime;
use pvr_crypto::drbg::HmacDrbg;
use std::collections::HashMap;

/// One buffered agent action awaiting the exchange phase:
/// `(cause-sequence, action-index, acting node, action)`.
type OutboxEntry<P> = (u64, u32, NodeId, Action<P>);

/// A node partition with its own calendar, DRBG, and counters.
struct Shard<P: Payload> {
    nodes: Vec<Box<dyn Agent<P> + Send>>,
    /// Global node id per local index (ascending).
    node_ids: Vec<NodeId>,
    /// Global node id → local index.
    local_of: HashMap<NodeId, usize>,
    queue: EventQueue<(u64, EventKind<P>)>,
    /// Shard-local DRBG backing `Context::rng` during parallel dispatch.
    rng: HmacDrbg,
    /// Actions produced this window, sorted by construction.
    outbox: Vec<OutboxEntry<P>>,
    /// Traced deliveries tagged with their global sequence number.
    trace: Vec<(u64, Delivery<P>)>,
    events: u64,
    delivered: u64,
    timers_fired: u64,
    action_scratch: Vec<Action<P>>,
}

impl<P: Payload> Shard<P> {
    fn new(seed: u64, index: usize) -> Shard<P> {
        Shard {
            nodes: Vec::new(),
            node_ids: Vec::new(),
            local_of: HashMap::new(),
            queue: EventQueue::new(),
            rng: HmacDrbg::from_u64_labeled(seed, &format!("netsim-shard-{index}")),
            outbox: Vec::new(),
            trace: Vec::new(),
            events: 0,
            delivered: 0,
            timers_fired: 0,
            action_scratch: Vec::new(),
        }
    }

    /// Runs one agent callback, buffering its actions into the outbox
    /// keyed by `cause` (the triggering event's global sequence number,
    /// or the node id during start-up).
    fn dispatch_local<F>(&mut self, local: usize, cause: u64, now: SimTime, f: F)
    where
        F: FnOnce(&mut dyn Agent<P>, &mut Context<P>),
    {
        let Shard { nodes, node_ids, rng, outbox, action_scratch, .. } = self;
        let id = node_ids[local];
        let mut ctx = Context::renew(now, id, rng, std::mem::take(action_scratch));
        f(nodes[local].as_mut(), &mut ctx);
        let mut actions = ctx.into_actions();
        for (idx, action) in actions.drain(..).enumerate() {
            outbox.push((cause, idx as u32, id, action));
        }
        *action_scratch = actions;
    }

    /// Dispatches `on_start` for every local node (ascending global id).
    fn run_starts(&mut self, now: SimTime) {
        for local in 0..self.nodes.len() {
            let cause = self.node_ids[local] as u64;
            self.dispatch_local(local, cause, now, |agent, ctx| agent.on_start(ctx));
        }
    }

    /// Drains and dispatches every event scheduled exactly at `time`.
    fn run_bucket(&mut self, time: SimTime, trace: bool) {
        while let Some((seq, kind)) = self.queue.pop_at(time) {
            self.events += 1;
            match kind {
                EventKind::Deliver { src, dst, msg } => {
                    self.delivered += 1;
                    if trace {
                        self.trace.push((seq, Delivery { time, src, dst, msg: msg.clone() }));
                    }
                    let local = self.local_of[&dst];
                    self.dispatch_local(local, seq, time, |agent, ctx| {
                        agent.on_message(ctx, src, msg)
                    });
                }
                EventKind::Timer { node, timer } => {
                    self.timers_fired += 1;
                    let local = self.local_of[&node];
                    self.dispatch_local(local, seq, time, |agent, ctx| agent.on_timer(ctx, timer));
                }
            }
        }
    }
}

/// Drop-in parallel counterpart of [`Simulator`](crate::Simulator):
/// same seed ⇒ same stats, same trace, same final agent state, at any
/// shard count. See the module docs for the ordering argument.
pub struct ShardedSimulator<P: Payload + Send> {
    shards: Vec<Shard<P>>,
    /// Shard index per global node id.
    node_shard: Vec<u32>,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    default_link: LinkConfig,
    now: SimTime,
    /// Coordinator DRBG — seeded exactly like the serial engine's and
    /// consumed only in the serial exchange phase.
    rng: HmacDrbg,
    /// Next global event sequence number.
    next_seq: u64,
    stats: SimStats,
    trace_enabled: bool,
    /// Optional convergence-timeline recorder, maintained by the
    /// coordinator only (shard workers never touch it) so the recorded
    /// windows are byte-identical to the serial engine's.
    timeline: Option<pvr_obs::TimelineRecorder>,
    started: bool,
    /// Minimum events in a window before worker threads are spawned;
    /// smaller windows dispatch inline (identical output either way).
    spawn_threshold: usize,
    /// Recycled merge buffer for the exchange phase.
    merged: Vec<OutboxEntry<P>>,
    /// Scheduled fault events, if a plan was installed.
    faults: Option<FaultInjector>,
    /// Per-node pause flags (see [`Fault::NodePause`]).
    paused: Vec<bool>,
    /// Optional drained-instant callback (see
    /// [`BarrierHook`](crate::sim::BarrierHook)), fired by the
    /// coordinator only — at the same instants, in the same order
    /// relative to the queue-depth sample, as the serial engine.
    barrier: Option<Box<dyn crate::sim::BarrierHook>>,
}

impl<P: Payload + Send> ShardedSimulator<P> {
    /// Creates a sharded simulator. `shards` is clamped to at least 1;
    /// all randomness derives from `seed` exactly as in the serial
    /// engine, so outputs are comparable across engines and shard
    /// counts.
    pub fn new(seed: u64, shards: usize) -> ShardedSimulator<P> {
        let shards = shards.max(1);
        ShardedSimulator {
            shards: (0..shards).map(|k| Shard::new(seed, k)).collect(),
            node_shard: Vec::new(),
            links: HashMap::new(),
            default_link: LinkConfig::default(),
            now: SimTime::ZERO,
            rng: HmacDrbg::from_u64_labeled(seed, "netsim"),
            next_seq: 0,
            stats: SimStats::default(),
            trace_enabled: false,
            timeline: None,
            started: false,
            spawn_threshold: 16,
            merged: Vec::new(),
            faults: None,
            paused: Vec::new(),
            barrier: None,
        }
    }

    /// Installs a [`BarrierHook`](crate::sim::BarrierHook), replacing
    /// any previous one — the sharded counterpart of
    /// [`Simulator::set_barrier_hook`](crate::Simulator::set_barrier_hook).
    /// Returned timers receive fresh global sequence numbers in the
    /// returned order, so their firing order matches the serial engine.
    pub fn set_barrier_hook(&mut self, hook: Box<dyn crate::sim::BarrierHook>) {
        self.barrier = Some(hook);
    }

    /// Adds a node on an explicit shard, returning its global id.
    pub fn add_node_to_shard(&mut self, agent: Box<dyn Agent<P> + Send>, shard: usize) -> NodeId {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        let id = self.node_shard.len();
        self.node_shard.push(shard as u32);
        self.paused.push(false);
        let s = &mut self.shards[shard];
        let local = s.nodes.len();
        s.nodes.push(agent);
        s.node_ids.push(id);
        s.local_of.insert(id, local);
        id
    }

    /// Adds a node round-robin across shards, returning its global id.
    pub fn add_node(&mut self, agent: Box<dyn Agent<P> + Send>) -> NodeId {
        let shard = self.node_shard.len() % self.shards.len();
        self.add_node_to_shard(agent, shard)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_shard.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a node lives on.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node] as usize
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

    /// Installs a fault plan — the sharded counterpart of
    /// [`Simulator::set_fault_plan`](crate::Simulator::set_fault_plan).
    /// Faults are applied by the coordinator between windows, in the
    /// same order and with the same DRBG consumption as the serial
    /// engine, so fault-injected runs stay byte-identical at any shard
    /// count.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan.into_injector());
    }

    fn link_config(&self, src: NodeId, dst: NodeId) -> LinkConfig {
        self.links.get(&(src, dst)).copied().unwrap_or(self.default_link)
    }

    /// Tunes the inline/parallel cutover: windows with fewer events than
    /// this are dispatched on the coordinator thread. Lower it when per
    /// event work is heavy (e.g. RSA verification), raise it for cheap
    /// payloads. Has no effect on outputs.
    pub fn set_spawn_threshold(&mut self, events: usize) {
        self.spawn_threshold = events;
    }

    /// Enables trace recording (for audits and debugging).
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// Enables the convergence-timeline recorder — the sharded
    /// counterpart of
    /// [`Simulator::enable_timeline`](crate::Simulator::enable_timeline),
    /// recording byte-identical windows: event/delivery counts are
    /// folded per window on the coordinator, and queue depth is sampled
    /// at the same engine-independent points (a sim-instant fully
    /// draining).
    pub fn enable_timeline(&mut self, window: crate::time::SimDuration) {
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

    /// The recorded deliveries in serial processing order — identical
    /// to the serial engine's [`Simulator::trace`](crate::Simulator::trace).
    pub fn trace_sorted(&self) -> Option<Vec<Delivery<P>>> {
        if !self.trace_enabled {
            return None;
        }
        let mut all: Vec<(u64, Delivery<P>)> =
            self.shards.iter().flat_map(|s| s.trace.iter().cloned()).collect();
        all.sort_by_key(|&(seq, ref d)| (d.time, seq));
        Some(all.into_iter().map(|(_, d)| d).collect())
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True when an event or fault is still due at [`now`](Self::now)
    /// (a `max_events` stop between same-instant cascades, or after a
    /// fault-only step).
    pub fn pending_at_now(&self) -> bool {
        self.shards.iter().any(|s| s.queue.peek_time() == Some(self.now))
            || self.next_fault_time() == Some(self.now)
    }

    /// Injects a message from outside the simulation; delivered after
    /// link latency, exactly like the serial engine's `inject`.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, msg: P) {
        self.stats.injected += 1;
        self.schedule_send(src, dst, msg);
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let shard = &self.shards[*self.node_shard.get(id)? as usize];
        shard.nodes[shard.local_of[&id]].as_any().downcast_ref::<T>()
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let shard = &mut self.shards[*self.node_shard.get(id)? as usize];
        let local = shard.local_of[&id];
        shard.nodes[local].as_any_mut().downcast_mut::<T>()
    }

    /// Schedules a send on the coordinator: consumes the link DRBG and
    /// assigns the global sequence number. Must only be called from the
    /// serial exchange phase (or before the run starts) to preserve the
    /// serial consumption order.
    fn schedule_send(&mut self, src: NodeId, dst: NodeId, msg: P) {
        assert!(dst < self.node_shard.len(), "send to unknown node {dst}");
        let cfg = self.link_config(src, dst);
        self.stats.sent += 1;
        self.stats.bytes_sent += msg.wire_size() as u64;
        // Pause drops precede the DRBG drop-check, mirroring the serial
        // engine exactly (no randomness consumed for paused sends).
        if self.paused[src] || self.paused[dst] {
            self.stats.dropped += 1;
            return;
        }
        if cfg.down || (cfg.drop_prob > 0.0 && self.rng.chance(cfg.drop_prob)) {
            self.stats.dropped += 1;
            return;
        }
        let jitter = if cfg.jitter.as_micros() > 0 {
            crate::time::SimDuration::from_micros(self.rng.below(cfg.jitter.as_micros() + 1))
        } else {
            crate::time::SimDuration::ZERO
        };
        let at = self.now + cfg.latency + jitter;
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = self.node_shard[dst] as usize;
        self.shards[shard].queue.push(at, (seq, EventKind::Deliver { src, dst, msg }));
    }

    /// Serial exchange: merges every shard's outbox into the order the
    /// serial engine applies actions in — `(cause-sequence,
    /// action-index)` — then routes each action to its destination
    /// calendar, consuming the coordinator DRBG along the way.
    fn exchange(&mut self) {
        let mut merged = std::mem::take(&mut self.merged);
        for shard in &mut self.shards {
            merged.append(&mut shard.outbox);
        }
        merged.sort_unstable_by_key(|&(cause, idx, _, _)| (cause, idx));
        for (_, _, src, action) in merged.drain(..) {
            match action {
                Action::Send { to, msg } => self.schedule_send(src, to, msg),
                Action::SetTimer { delay, timer } => {
                    let at = self.now + delay;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let shard = self.node_shard[src] as usize;
                    self.shards[shard].queue.push(at, (seq, EventKind::Timer { node: src, timer }));
                }
            }
        }
        self.merged = merged;
    }

    /// Folds per-shard counters into the aggregate stats (summation is
    /// order-independent, so this cannot depend on shard layout).
    /// Returns the `(events, delivered)` deltas so the caller can
    /// attribute them to the window just dispatched.
    fn drain_shard_counters(&mut self) -> (u64, u64) {
        let mut events = 0;
        let mut delivered = 0;
        let mut timers = 0;
        for shard in &mut self.shards {
            events += std::mem::take(&mut shard.events);
            delivered += std::mem::take(&mut shard.delivered);
            timers += std::mem::take(&mut shard.timers_fired);
        }
        self.stats.events += events;
        self.stats.delivered += delivered;
        self.stats.timers_fired += timers;
        (events, delivered)
    }

    /// Earliest unapplied fault time, clamped to `now` (matching the
    /// serial engine's rule for late-installed plans).
    fn next_fault_time(&self) -> Option<SimTime> {
        self.faults.as_ref().and_then(FaultInjector::next_time).map(|t| t.max(self.now))
    }

    /// Runs one `on_session` callback on the coordinator thread: the
    /// agent is swapped out of its shard, the context draws from the
    /// coordinator's `"netsim"` DRBG (exactly what the serial engine's
    /// dispatch uses), and the resulting actions are applied
    /// immediately in issue order — the serial engine's semantics.
    fn dispatch_session(&mut self, node: NodeId, peer: NodeId, up: bool) {
        let shard = self.node_shard[node] as usize;
        let local = self.shards[shard].local_of[&node];
        let mut agent = std::mem::replace(
            &mut self.shards[shard].nodes[local],
            Box::new(InertAgent) as Box<dyn Agent<P> + Send>,
        );
        let mut ctx = Context::renew(self.now, node, &mut self.rng, Vec::new());
        agent.on_session(&mut ctx, peer, up);
        let actions = ctx.into_actions();
        self.shards[shard].nodes[local] = agent;
        for action in actions {
            match action {
                Action::Send { to, msg } => self.schedule_send(node, to, msg),
                Action::SetTimer { delay, timer } => {
                    let at = self.now + delay;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let s = self.node_shard[node] as usize;
                    self.shards[s].queue.push(at, (seq, EventKind::Timer { node, timer }));
                }
            }
        }
    }

    /// Applies one fault — the same sequence of link mutations and
    /// session callbacks as the serial engine's `apply_fault`.
    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::LinkDown { a, b } => {
                self.stats.link_down += 1;
                self.set_link_down(a, b, true);
                self.set_link_down(b, a, true);
                self.dispatch_session(a, b, false);
                self.dispatch_session(b, a, false);
            }
            Fault::LinkUp { a, b } => {
                self.stats.link_up += 1;
                self.set_link_down(a, b, false);
                self.set_link_down(b, a, false);
                self.dispatch_session(a, b, true);
                self.dispatch_session(b, a, true);
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
                self.dispatch_session(a, b, false);
                self.dispatch_session(b, a, false);
                self.dispatch_session(a, b, true);
                self.dispatch_session(b, a, true);
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

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Start-up is a synthetic window at t=0: causes are node ids, so
        // the exchange sorts actions by (node, action-index) — the order
        // the serial engine applies them in.
        let now = self.now;
        for shard in &mut self.shards {
            shard.run_starts(now);
        }
        self.exchange();
    }

    /// Dispatches every event in the window at `time`, spawning one
    /// worker per non-empty shard when the window is large enough to
    /// amortize thread start-up.
    fn run_window(&mut self, time: SimTime) {
        let trace = self.trace_enabled;
        let active = self.shards.iter().filter(|s| s.queue.peek_time() == Some(time)).count();
        let pending: usize = self.shards.iter().map(|s| s.queue.len_at(time)).sum();
        if active <= 1 || pending < self.spawn_threshold {
            for shard in &mut self.shards {
                shard.run_bucket(time, trace);
            }
        } else {
            std::thread::scope(|scope| {
                for shard in self.shards.iter_mut() {
                    if shard.queue.peek_time() == Some(time) {
                        scope.spawn(move || shard.run_bucket(time, trace));
                    }
                }
            });
        }
        self.exchange();
        let (events, delivered) = self.drain_shard_counters();
        if let Some(tl) = &mut self.timeline {
            use pvr_obs::timeline::{SIM_DELIVERED, SIM_EVENTS};
            // Every event dispatched by this call carried timestamp
            // `time` — exactly where the serial engine counts them.
            tl.add(time.as_micros(), SIM_EVENTS, events);
            tl.add(time.as_micros(), SIM_DELIVERED, delivered);
        }
    }

    /// Runs until every calendar drains or a bound is hit. Returns the
    /// reason the run stopped — with outputs identical to the serial
    /// engine's [`run`](crate::Simulator::run) (modulo the `max_events`
    /// granularity noted in the module docs).
    pub fn run(&mut self, limits: RunLimits) -> StopReason {
        self.start_if_needed();
        loop {
            if let Some(max) = limits.max_events {
                if self.stats.events >= max {
                    return StopReason::EventLimit;
                }
            }
            let qhead = self.shards.iter().filter_map(|s| s.queue.peek_time()).min();
            let fhead = self.next_fault_time();
            let head = match (qhead, fhead) {
                (Some(q), Some(f)) => Some(q.min(f)),
                (q, f) => q.or(f),
            };
            let time = match head {
                Some(t) => t,
                None => return StopReason::Quiescent,
            };
            if let Some(deadline) = limits.deadline {
                if time > deadline {
                    return StopReason::Deadline;
                }
            }
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            // A due fault fires before any queued event at the same
            // instant (the serial engine's rule); the window itself, if
            // any, runs on the next loop iteration.
            if fhead.is_some_and(|f| f <= time) {
                while let Some(fault) = self.faults.as_mut().and_then(|f| f.pop_due(time)) {
                    self.apply_fault(fault);
                }
                continue;
            }
            self.run_window(time);
            // Mirror the serial engine's drained-instant rule: the
            // queue-depth sample and the barrier hook both run only
            // once the instant `time` has fully drained (zero-latency
            // cascades re-enter the window above), at which point both
            // engines hold the same pending set.
            if self.timeline.is_some() || self.barrier.is_some() {
                let head = self.shards.iter().filter_map(|s| s.queue.peek_time()).min();
                if head != Some(time) {
                    if self.timeline.is_some() {
                        let depth: usize = self.shards.iter().map(|s| s.queue.len()).sum();
                        if let Some(tl) = &mut self.timeline {
                            tl.set(
                                time.as_micros(),
                                pvr_obs::timeline::SIM_QUEUE_DEPTH,
                                depth as u64,
                            );
                        }
                    }
                    // Depth first, hook second — identical to the
                    // serial engine, so hook timers never count into
                    // the sample on either engine.
                    if self.barrier.is_some() {
                        let mut hook = self.barrier.take().expect("checked above");
                        let timers = hook.on_barrier(time);
                        self.barrier = Some(hook);
                        for (node, delay, timer) in timers {
                            let at = time + delay;
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            let s = self.node_shard[node] as usize;
                            self.shards[s].queue.push(at, (seq, EventKind::Timer { node, timer }));
                        }
                    }
                }
            }
        }
    }
}

impl<P: Payload + Send + pvr_crypto::encoding::Wire> ShardedSimulator<P> {
    /// Serializes the engine's dynamic state — the sharded counterpart
    /// of `Simulator::save_state`. On top of the state both engines
    /// share, this captures the global sequence counter, the
    /// coordinator DRBG, and every shard's DRBG and sequence-tagged
    /// calendar; the resulting bytes are therefore *shard-shaped* and
    /// restore only into a simulator with the same shard count
    /// (cross-shard-count recovery goes through store-level RIB
    /// snapshots, which are engine-invariant).
    ///
    /// Must be called between `run` invocations (outboxes drained);
    /// refuses when a trace or barrier hook is active, like the serial
    /// engine.
    pub fn save_state(&self) -> Result<Vec<u8>, crate::state::StateError> {
        use crate::state::{self, CommonState, StateError, TAG_SHARDED};
        use pvr_crypto::encoding::Wire;
        if self.trace_enabled {
            return Err(StateError::TraceActive);
        }
        if self.barrier.is_some() {
            return Err(StateError::BarrierActive);
        }
        debug_assert!(
            self.shards.iter().all(|s| s.outbox.is_empty() && s.events == 0),
            "save_state must be called between runs, not mid-window"
        );
        let mut links: Vec<_> = self.links.iter().map(|(&k, &v)| (k, v)).collect();
        links.sort_unstable_by_key(|&(key, _)| key);
        let common = CommonState {
            node_count: self.node_shard.len(),
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
        let mut out = vec![TAG_SHARDED];
        (self.shards.len() as u64).encode(&mut out);
        common.encode(&mut out);
        self.next_seq.encode(&mut out);
        state::encode_drbg(&self.rng, &mut out);
        for shard in &self.shards {
            state::encode_drbg(&shard.rng, &mut out);
            (shard.queue.len() as u64).encode(&mut out);
            for (time, (seq, kind)) in shard.queue.iter() {
                time.encode(&mut out);
                seq.encode(&mut out);
                state::encode_event(kind, &mut out);
            }
        }
        Ok(out)
    }

    /// Restores state saved by [`save_state`](Self::save_state) into
    /// this simulator, which must hold the same node and shard layout.
    /// Decode-then-apply: any error leaves the simulator untouched.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::state::StateError> {
        use crate::state::{self, CommonState, StateError, TAG_SERIAL, TAG_SHARDED};
        use pvr_crypto::encoding::{Reader, Wire, WireError};
        if self.trace_enabled {
            return Err(StateError::TraceActive);
        }
        if self.barrier.is_some() {
            return Err(StateError::BarrierActive);
        }
        let mut r = Reader::new(bytes);
        match r.take(1).map_err(StateError::from)?[0] {
            TAG_SHARDED => {}
            TAG_SERIAL => return Err(StateError::EngineMismatch),
            _ => return Err(StateError::Corrupt("engine discriminant")),
        }
        let shard_count = state::checked_count(&mut r, 1)? as usize;
        if shard_count != self.shards.len() {
            return Err(StateError::ShardCountMismatch {
                expected: shard_count,
                found: self.shards.len(),
            });
        }
        let common = CommonState::decode(&mut r)?;
        if common.node_count != self.node_shard.len() {
            return Err(StateError::NodeCountMismatch {
                expected: common.node_count,
                found: self.node_shard.len(),
            });
        }
        let next_seq = u64::decode(&mut r)?;
        let rng = state::decode_drbg(&mut r)?;
        let mut shard_rngs = Vec::with_capacity(shard_count);
        let mut shard_queues = Vec::with_capacity(shard_count);
        for shard_ix in 0..shard_count {
            shard_rngs.push(state::decode_drbg(&mut r)?);
            let event_count = state::checked_count(&mut r, 17)?;
            let mut queue = EventQueue::new();
            let mut last_time = common.now;
            for _ in 0..event_count {
                let time = SimTime::decode(&mut r)?;
                if time < last_time {
                    return Err(StateError::Corrupt("event calendar out of order"));
                }
                last_time = time;
                let seq = u64::decode(&mut r)?;
                if seq >= next_seq {
                    return Err(StateError::Corrupt("event sequence beyond counter"));
                }
                let kind = state::decode_event::<P>(&mut r, common.node_count)?;
                // An event must live on the shard that owns its target
                // node, or later local-index lookups would panic.
                let target = match &kind {
                    EventKind::Deliver { dst, .. } => *dst,
                    EventKind::Timer { node, .. } => *node,
                };
                if self.node_shard[target] as usize != shard_ix {
                    return Err(StateError::Corrupt("event on wrong shard"));
                }
                queue.push(time, (seq, kind));
            }
            shard_queues.push(queue);
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
        self.next_seq = next_seq;
        self.rng = rng;
        for (shard, (rng, queue)) in
            self.shards.iter_mut().zip(shard_rngs.into_iter().zip(shard_queues))
        {
            shard.rng = rng;
            shard.queue = queue;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::time::SimDuration;
    use std::any::Any;

    #[derive(Clone, Debug, PartialEq)]
    struct Token(u32);

    impl Payload for Token {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[derive(Clone)]
    struct PingPong {
        peer: NodeId,
        received: Vec<u32>,
        kick_off: bool,
    }

    impl Agent<Token> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            if self.kick_off {
                ctx.send(self.peer, Token(8));
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

    /// `(now, stats, trace as (time, src, dst, token))`.
    type Fingerprint = (SimTime, SimStats, Vec<(SimTime, NodeId, NodeId, u32)>);

    fn fingerprint_serial(sim: &Simulator<Token>) -> Fingerprint {
        (
            sim.now(),
            sim.stats().clone(),
            sim.trace().unwrap().iter().map(|d| (d.time, d.src, d.dst, d.msg.0)).collect(),
        )
    }

    fn fingerprint_sharded(sim: &ShardedSimulator<Token>) -> Fingerprint {
        (
            sim.now(),
            sim.stats().clone(),
            sim.trace_sorted().unwrap().iter().map(|d| (d.time, d.src, d.dst, d.msg.0)).collect(),
        )
    }

    /// Builds the same 4-node ring in both engines and checks that the
    /// run outputs are identical, including under jitter and loss
    /// (which exercise the DRBG consumption order).
    fn assert_ring_equivalence(link: LinkConfig, shards: usize, seed: u64) {
        let mk_agents = || {
            (0..4)
                .map(|i| PingPong { peer: (i + 1) % 4, received: vec![], kick_off: i == 0 })
                .collect::<Vec<_>>()
        };

        let mut serial: Simulator<Token> = Simulator::new(seed);
        for a in mk_agents() {
            serial.add_node(Box::new(a));
        }
        serial.set_default_link(link);
        serial.enable_trace();
        serial.run(RunLimits::none());

        let mut sharded: ShardedSimulator<Token> = ShardedSimulator::new(seed, shards);
        sharded.set_spawn_threshold(1); // force the threaded path
        for a in mk_agents() {
            sharded.add_node(Box::new(a));
        }
        sharded.set_default_link(link);
        sharded.enable_trace();
        sharded.run(RunLimits::none());

        assert_eq!(fingerprint_serial(&serial), fingerprint_sharded(&sharded));
        for id in 0..4 {
            let s: &PingPong = serial.node(id).unwrap();
            let p: &PingPong = sharded.node(id).unwrap();
            assert_eq!(s.received, p.received, "node {id} state diverged");
        }
    }

    #[test]
    fn matches_serial_on_clean_links() {
        for shards in 1..=4 {
            assert_ring_equivalence(LinkConfig::default(), shards, 1);
        }
    }

    #[test]
    fn matches_serial_under_jitter() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(1))
            .jittered(SimDuration::from_micros(700));
        for shards in 1..=4 {
            assert_ring_equivalence(link, shards, 7);
        }
    }

    #[test]
    fn matches_serial_under_loss_and_jitter() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(2))
            .jittered(SimDuration::from_micros(300))
            .lossy(0.3);
        for shards in 1..=4 {
            for seed in [3, 11, 42] {
                assert_ring_equivalence(link, shards, seed);
            }
        }
    }

    #[test]
    fn matches_serial_with_zero_latency_cascades() {
        // Zero-latency sends land in the current window and must be
        // processed in the same FIFO order as the serial engine.
        assert_ring_equivalence(LinkConfig::with_latency(SimDuration::ZERO), 2, 5);
    }

    struct TimerAgent {
        fired: Vec<u64>,
        peer: NodeId,
    }

    impl Agent<Token> for TimerAgent {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            ctx.set_timer(SimDuration::from_millis(5), 42);
            ctx.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_message(&mut self, _: &mut Context<Token>, _: NodeId, _: Token) {}
        fn on_timer(&mut self, ctx: &mut Context<Token>, timer: u64) {
            self.fired.push(timer);
            if timer == 7 {
                ctx.send(self.peer, Token(1));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_match_serial() {
        let mut serial: Simulator<Token> = Simulator::new(9);
        serial.add_node(Box::new(TimerAgent { fired: vec![], peer: 1 }));
        serial.add_node(Box::new(TimerAgent { fired: vec![], peer: 0 }));
        serial.run(RunLimits::none());

        let mut sharded: ShardedSimulator<Token> = ShardedSimulator::new(9, 2);
        sharded.add_node(Box::new(TimerAgent { fired: vec![], peer: 1 }));
        sharded.add_node(Box::new(TimerAgent { fired: vec![], peer: 0 }));
        sharded.run(RunLimits::none());

        assert_eq!(serial.stats(), sharded.stats());
        for id in 0..2 {
            let s: &TimerAgent = serial.node(id).unwrap();
            let p: &TimerAgent = sharded.node(id).unwrap();
            assert_eq!(s.fired, p.fired);
        }
    }

    #[test]
    fn deadline_and_resume_match_serial() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(10));
        let mk = || PingPong { peer: 1, received: vec![], kick_off: true };
        let mk2 = || PingPong { peer: 0, received: vec![], kick_off: false };

        let mut serial: Simulator<Token> = Simulator::new(5);
        serial.add_node(Box::new(mk()));
        serial.add_node(Box::new(mk2()));
        serial.set_default_link(link);
        let r1 = serial.run(RunLimits::until(SimTime(25_000)));

        let mut sharded: ShardedSimulator<Token> = ShardedSimulator::new(5, 2);
        sharded.add_node(Box::new(mk()));
        sharded.add_node(Box::new(mk2()));
        sharded.set_default_link(link);
        let r2 = sharded.run(RunLimits::until(SimTime(25_000)));

        assert_eq!(r1, StopReason::Deadline);
        assert_eq!(r2, StopReason::Deadline);
        assert_eq!(serial.now(), sharded.now());
        assert_eq!(serial.stats(), sharded.stats());

        assert_eq!(serial.run(RunLimits::none()), StopReason::Quiescent);
        assert_eq!(sharded.run(RunLimits::none()), StopReason::Quiescent);
        assert_eq!(serial.stats(), sharded.stats());
        assert_eq!(serial.now(), sharded.now());
    }

    #[test]
    fn injection_matches_serial() {
        let mut serial: Simulator<Token> = Simulator::new(2);
        serial.add_node(Box::new(PingPong { peer: 1, received: vec![], kick_off: false }));
        serial.add_node(Box::new(PingPong { peer: 0, received: vec![], kick_off: false }));
        serial.inject(0, 1, Token(3));
        serial.run(RunLimits::none());

        let mut sharded: ShardedSimulator<Token> = ShardedSimulator::new(2, 2);
        sharded.add_node(Box::new(PingPong { peer: 1, received: vec![], kick_off: false }));
        sharded.add_node(Box::new(PingPong { peer: 0, received: vec![], kick_off: false }));
        sharded.inject(0, 1, Token(3));
        sharded.run(RunLimits::none());

        assert_eq!(serial.stats(), sharded.stats());
        assert_eq!(serial.stats().injected, 1);
    }

    #[test]
    fn timeline_matches_serial_byte_for_byte() {
        // Sim channels (events, deliveries, queue-depth samples): the
        // recorders must be *equal*, including under jitter and
        // zero-latency cascades.
        for link in [
            LinkConfig::default(),
            LinkConfig::with_latency(SimDuration::ZERO),
            LinkConfig::with_latency(SimDuration::from_millis(1))
                .jittered(SimDuration::from_micros(700)),
        ] {
            let window = SimDuration::from_millis(5);
            let mut serial: Simulator<Token> = Simulator::new(7);
            for i in 0..4 {
                serial.add_node(Box::new(PingPong {
                    peer: (i + 1) % 4,
                    received: vec![],
                    kick_off: i == 0,
                }));
            }
            serial.set_default_link(link);
            serial.enable_timeline(window);
            serial.run(RunLimits::none());

            for shards in [2, 3] {
                let mut sharded: ShardedSimulator<Token> = ShardedSimulator::new(7, shards);
                sharded.set_spawn_threshold(1);
                for i in 0..4 {
                    sharded.add_node(Box::new(PingPong {
                        peer: (i + 1) % 4,
                        received: vec![],
                        kick_off: i == 0,
                    }));
                }
                sharded.set_default_link(link);
                sharded.enable_timeline(window);
                sharded.run(RunLimits::none());
                assert_eq!(
                    serial.timeline().unwrap(),
                    sharded.timeline().unwrap(),
                    "{shards} shards"
                );
            }
        }
    }

    /// Echo agent that also reacts to session faults: on teardown it
    /// notes the loss, on recovery it re-sends a token to the restored
    /// peer — a miniature of the BGP re-announce flow.
    #[derive(Clone)]
    struct SessionAware {
        peer: NodeId,
        received: Vec<u32>,
        sessions: Vec<(NodeId, bool)>,
    }

    impl Agent<Token> for SessionAware {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            if ctx.id() == 0 {
                ctx.send(self.peer, Token(40));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
            self.received.push(msg.0);
            if msg.0 > 0 {
                ctx.send(self.peer, Token(msg.0 - 1));
            }
        }
        fn on_session(&mut self, ctx: &mut Context<Token>, peer: NodeId, up: bool) {
            self.sessions.push((peer, up));
            if up {
                ctx.send(peer, Token(5));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn fault_plan_matches_serial() {
        use crate::fault::{Fault, FaultPlan};
        let mk_plan = || {
            let mut plan = FaultPlan::new();
            plan.flap_link(
                0,
                1,
                SimTime(15_000),
                SimDuration::from_millis(30),
                SimDuration::from_millis(60),
                2,
            );
            plan.push(SimTime(25_000), Fault::NodePause { node: 2 });
            plan.push(SimTime(55_000), Fault::NodeResume { node: 2 });
            plan.push(SimTime(70_000), Fault::SessionReset { a: 2, b: 3 });
            plan.push(
                SimTime(80_000),
                Fault::LinkDegrade {
                    a: 1,
                    b: 2,
                    drop_prob: 0.4,
                    jitter: SimDuration::from_micros(300),
                },
            );
            plan
        };
        let mk_agents = || {
            (0..4)
                .map(|i| SessionAware { peer: (i + 1) % 4, received: vec![], sessions: vec![] })
                .collect::<Vec<_>>()
        };

        let mut serial: Simulator<Token> = Simulator::new(13);
        for a in mk_agents() {
            serial.add_node(Box::new(a));
        }
        serial.enable_trace();
        serial.set_fault_plan(mk_plan());
        serial.run(RunLimits::none());
        assert!(serial.stats().link_down > 0, "plan must actually fire");
        assert_eq!(serial.stats().session_resets, 1);

        for shards in 1..=4 {
            let mut sharded: ShardedSimulator<Token> = ShardedSimulator::new(13, shards);
            sharded.set_spawn_threshold(1);
            for a in mk_agents() {
                sharded.add_node(Box::new(a));
            }
            sharded.enable_trace();
            sharded.set_fault_plan(mk_plan());
            sharded.run(RunLimits::none());
            assert_eq!(fingerprint_serial(&serial), fingerprint_sharded(&sharded), "{shards}");
            for id in 0..4 {
                let s: &SessionAware = serial.node(id).unwrap();
                let p: &SessionAware = sharded.node(id).unwrap();
                assert_eq!(s.received, p.received, "node {id} state diverged");
                assert_eq!(s.sessions, p.sessions, "node {id} session log diverged");
            }
        }
    }

    #[test]
    fn paused_node_drops_traffic_both_engines() {
        use crate::fault::{Fault, FaultPlan};
        let plan = FaultPlan::new()
            .at(SimTime(0), Fault::NodePause { node: 1 })
            .at(SimTime(100_000), Fault::NodeResume { node: 1 });
        let mut serial: Simulator<Token> = Simulator::new(3);
        serial.add_node(Box::new(PingPong { peer: 1, received: vec![], kick_off: true }));
        serial.add_node(Box::new(PingPong { peer: 0, received: vec![], kick_off: false }));
        serial.set_fault_plan(plan.clone());
        serial.run(RunLimits::none());
        // Start-up precedes the t=0 fault, so the kick-off is already in
        // flight (in-flight deliveries survive a pause); the paused
        // node's reply is what gets dropped.
        assert_eq!(serial.stats().delivered, 1);
        assert_eq!(serial.stats().dropped, 1);
        assert_eq!(serial.stats().node_pauses, 1);

        let mut sharded: ShardedSimulator<Token> = ShardedSimulator::new(3, 2);
        sharded.add_node(Box::new(PingPong { peer: 1, received: vec![], kick_off: true }));
        sharded.add_node(Box::new(PingPong { peer: 0, received: vec![], kick_off: false }));
        sharded.set_fault_plan(plan);
        sharded.run(RunLimits::none());
        assert_eq!(serial.stats(), sharded.stats());
    }

    #[test]
    fn explicit_shard_placement() {
        let mut sim: ShardedSimulator<Token> = ShardedSimulator::new(1, 3);
        let a = sim
            .add_node_to_shard(Box::new(PingPong { peer: 1, received: vec![], kick_off: true }), 2);
        let b = sim.add_node_to_shard(
            Box::new(PingPong { peer: 0, received: vec![], kick_off: false }),
            0,
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(sim.shard_of(a), 2);
        assert_eq!(sim.shard_of(b), 0);
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 9);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn send_to_unknown_node_panics() {
        let mut sim: ShardedSimulator<Token> = ShardedSimulator::new(1, 2);
        sim.add_node(Box::new(PingPong { peer: 1, received: vec![], kick_off: false }));
        sim.inject(0, 99, Token(0));
    }
}
