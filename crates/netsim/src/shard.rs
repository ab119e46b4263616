//! The discrete-event engine: parallel dispatch, serial order.
//!
//! [`Simulator`] partitions the node set across one or more shards, each
//! with its own time-bucketed calendar, and runs the simulation in
//! lockstep *time windows*: all events scheduled for the earliest
//! pending timestamp are dispatched (one worker per non-empty shard
//! under `std::thread::scope` when the window is large enough), then a
//! serial exchange phase routes every action the agents produced —
//! including boundary-crossing messages — back into the calendars.
//!
//! # Why the output does not depend on the shard count
//!
//! A run is a fold over events ordered by `(time, sequence-number)`,
//! where sequence numbers are assigned in scheduling order and the link
//! DRBG is consumed on the send path in that same order: what one loop
//! over one calendar would do. The windows reproduce that fold exactly:
//!
//! * **Within a window** all events share one timestamp and target
//!   disjoint agents (each node lives on exactly one shard), so their
//!   dispatch order across shards cannot affect agent state. Per shard,
//!   events are drained in FIFO (= global sequence) order.
//! * **Actions** are buffered during dispatch tagged with
//!   `(cause-sequence, action-index)`. Each shard's outbox is sorted by
//!   that key by construction, so the exchange merges the outboxes in
//!   place into key order — the order the one-calendar loop applies
//!   actions in (it finishes each event's actions before popping the
//!   next event at the same time). With one shard the engine is that
//!   loop: it applies each event's actions as soon as the event runs.
//! * **Randomness**: link jitter and loss draw from one DRBG (label
//!   `"netsim"`), consumed only in the exchange phase in the order
//!   above, so even lossy, jittered runs are bit-reproducible across
//!   shard counts. Agents get no engine randomness.
//! * **Same-time cascades** (zero-latency sends landing in the current
//!   window) are appended to the window's buckets with fresh sequence
//!   numbers and drained by re-running the window until it empties,
//!   matching FIFO append semantics.
//! * **Event budgets** ([`RunLimits::max_events`]) are exact: when the
//!   budget ends inside a window, each shard dispatches only the events
//!   among the budget's smallest sequence numbers at that instant — the
//!   ones the one-calendar loop would run before stopping.
//!
//! The unit tests check every rule against a naive one-heap loop.

use crate::fault::{Fault, FaultInjector, FaultPlan};
use crate::link::LinkConfig;
use crate::sim::{Action, Agent, BarrierHook, Context, Delivery, EventKind, EventQueue, NodeId};
use crate::sim::{Payload, RunLimits, SimStats, StopReason};
use crate::state::{self, CommonState, StateError, STATE_TAG};
use crate::time::{SimDuration, SimTime};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::encoding::{Reader, Wire, WireError};
use std::collections::{HashMap, VecDeque};

/// One buffered agent action awaiting the exchange phase:
/// `(cause-sequence, action-index, acting node, action)`.
type OutboxEntry<P> = (u64, u32, NodeId, Action<P>);

/// A node partition with its own calendar and counters.
struct Shard<P: Payload> {
    nodes: Vec<Box<dyn Agent<P> + Send>>,
    /// Global node id per local index (ascending).
    node_ids: Vec<NodeId>,
    queue: EventQueue<(u64, EventKind<P>)>,
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
    fn new() -> Shard<P> {
        Shard {
            nodes: Vec::new(),
            node_ids: Vec::new(),
            queue: EventQueue::new(),
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
        let Shard { nodes, node_ids, outbox, action_scratch, .. } = self;
        let id = node_ids[local];
        let mut ctx = Context::renew(now, id, std::mem::take(action_scratch));
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

    /// Drains and dispatches every event scheduled exactly at `time`
    /// whose sequence number is below `below`. `local_of` maps global
    /// node ids to local indices.
    fn run_bucket(&mut self, time: SimTime, below: u64, local_of: &[u32], trace: bool) {
        // Dispatch never touches the calendar (actions go to the
        // outbox), so the bucket drains detached from it.
        let mut bucket = self.queue.take_at(time);
        while let Some((seq, kind)) = pop_below(&mut bucket, below) {
            self.run_event(time, seq, kind, local_of, trace);
        }
        self.queue.put_back(time, bucket);
    }

    /// Dispatches one event of sequence number `seq` due at `time`.
    fn run_event(
        &mut self,
        time: SimTime,
        seq: u64,
        kind: EventKind<P>,
        local_of: &[u32],
        trace: bool,
    ) {
        self.events += 1;
        match kind {
            EventKind::Deliver { src, dst, msg } => {
                self.delivered += 1;
                if trace {
                    self.trace.push((seq, Delivery { time, src, dst, msg: msg.clone() }));
                }
                let local = local_of[dst] as usize;
                self.dispatch_local(local, seq, time, |agent, ctx| agent.on_message(ctx, src, msg));
            }
            EventKind::Timer { node, timer } => {
                self.timers_fired += 1;
                let local = local_of[node] as usize;
                self.dispatch_local(local, seq, time, |agent, ctx| agent.on_timer(ctx, timer));
            }
        }
    }
}

/// Pops the front of a detached bucket if its sequence number is below
/// `below`.
fn pop_below<P>(
    bucket: &mut VecDeque<(u64, EventKind<P>)>,
    below: u64,
) -> Option<(u64, EventKind<P>)> {
    if bucket.front()?.0 < below {
        bucket.pop_front()
    } else {
        None
    }
}

/// The simulator: nodes on one or more shards, links, clock, calendars,
/// stats, and optional trace. Same seed ⇒ same stats, same trace, same
/// final agent state, at any shard count; see the module docs for the
/// ordering argument.
pub struct Simulator<P: Payload + Send> {
    shards: Vec<Shard<P>>,
    /// Shard index per global node id.
    node_shard: Vec<u32>,
    /// Index within its shard per global node id.
    node_local: Vec<u32>,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    default_link: LinkConfig,
    now: SimTime,
    /// The link DRBG, consumed only in the serial exchange phase.
    rng: HmacDrbg,
    /// Next global event sequence number.
    next_seq: u64,
    stats: SimStats,
    trace_enabled: bool,
    /// Optional convergence-timeline recorder (sim-time windows; see
    /// `pvr_obs::timeline`), maintained by the coordinator only and
    /// stamped exclusively with sim time, so enabling it cannot perturb
    /// determinism.
    timeline: Option<pvr_obs::TimelineRecorder>,
    started: bool,
    /// Minimum events in a window before worker threads are spawned;
    /// smaller windows dispatch inline (identical output either way).
    spawn_threshold: usize,
    /// Scheduled fault events, if a plan was installed.
    faults: Option<FaultInjector>,
    /// Per-node pause flags (see [`Fault::NodePause`]).
    paused: Vec<bool>,
    /// Optional drained-instant callback (see [`BarrierHook`]), fired
    /// by the coordinator only.
    barrier: Option<Box<dyn BarrierHook>>,
}

impl<P: Payload + Send> Simulator<P> {
    /// Creates a simulator with `shards` worker calendars (clamped to at
    /// least 1). All randomness derives from `seed`, identically at
    /// every shard count.
    pub fn new(seed: u64, shards: usize) -> Simulator<P> {
        Simulator {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            node_shard: Vec::new(),
            node_local: Vec::new(),
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
            faults: None,
            paused: Vec::new(),
            barrier: None,
        }
    }

    /// Installs a [`BarrierHook`], replacing any previous one. The hook
    /// fires at every drained sim-time instant from then on; returned
    /// timers take fresh global sequence numbers in the returned order.
    pub fn set_barrier_hook(&mut self, hook: Box<dyn BarrierHook>) {
        self.barrier = Some(hook);
    }

    /// Adds a node on an explicit shard, returning its global id. Ids
    /// are assigned in call order.
    pub fn add_node_to_shard(&mut self, agent: Box<dyn Agent<P> + Send>, shard: usize) -> NodeId {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        let id = self.node_shard.len();
        let s = &mut self.shards[shard];
        self.node_shard.push(shard as u32);
        self.node_local.push(s.nodes.len() as u32);
        self.paused.push(false);
        s.nodes.push(agent);
        s.node_ids.push(id);
        id
    }

    /// Adds a node round-robin across shards, returning its global id.
    pub fn add_node(&mut self, agent: Box<dyn Agent<P> + Send>) -> NodeId {
        let shard = self.node_shard.len() % self.shards.len();
        self.add_node_to_shard(agent, shard)
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

    /// Takes a directed link down (partition).
    pub fn set_link_down(&mut self, src: NodeId, dst: NodeId, down: bool) {
        let mut cfg = self.link_config(src, dst);
        cfg.down = down;
        self.links.insert((src, dst), cfg);
    }

    /// Installs a fault plan, replacing any previous one. Faults fire at
    /// their scheduled sim times, before any queued event at the same
    /// instant; faults scheduled in the past fire immediately. The
    /// coordinator applies them between windows.
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

    /// The recorded deliveries in processing order, if tracing is
    /// enabled.
    pub fn trace(&self) -> Option<Vec<Delivery<P>>> {
        if !self.trace_enabled {
            return None;
        }
        let mut all: Vec<(u64, Delivery<P>)> =
            self.shards.iter().flat_map(|s| s.trace.iter().cloned()).collect();
        all.sort_by_key(|&(seq, ref d)| (d.time, seq));
        Some(all.into_iter().map(|(_, d)| d).collect())
    }

    /// Enables the convergence-timeline recorder with `window`-wide
    /// sim-time windows. Events and deliveries are counted into the
    /// window containing their processing time; queue depth is sampled
    /// whenever a sim-time instant fully drains — a point where the
    /// pending set does not depend on the shard count.
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
        self.queue_head() == Some(self.now) || self.next_fault_time() == Some(self.now)
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
        let shard = &self.shards[*self.node_shard.get(id)? as usize];
        shard.nodes[self.node_local[id] as usize].as_any().downcast_ref::<T>()
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let shard = &mut self.shards[*self.node_shard.get(id)? as usize];
        shard.nodes[self.node_local[id] as usize].as_any_mut().downcast_mut::<T>()
    }

    /// Earliest pending event time across all calendars.
    fn queue_head(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.queue.peek_time()).min()
    }

    /// Queues `kind` at `at` on its node's shard under the next global
    /// sequence number.
    fn schedule(&mut self, at: SimTime, node: NodeId, kind: EventKind<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[self.node_shard[node] as usize].queue.push(at, (seq, kind));
    }

    /// Schedules a send on the coordinator: consumes the link DRBG and
    /// assigns the global sequence number. Called only from the serial
    /// exchange phase, fault application, or injection, so the DRBG is
    /// consumed in the serial order.
    fn schedule_send(&mut self, src: NodeId, dst: NodeId, msg: P) {
        assert!(dst < self.node_shard.len(), "send to unknown node {dst}");
        let cfg = self.link_config(src, dst);
        self.stats.sent += 1;
        self.stats.bytes_sent += msg.wire_size() as u64;
        // Pause drops happen before the DRBG drop-check, so a paused
        // clean link consumes no randomness.
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
        self.schedule(at, dst, EventKind::Deliver { src, dst, msg });
    }

    /// Applies one agent action issued by `node` at the current instant.
    fn apply_action(&mut self, node: NodeId, action: Action<P>) {
        match action {
            Action::Send { to, msg } => self.schedule_send(node, to, msg),
            Action::SetTimer { delay, timer } => {
                self.schedule(self.now + delay, node, EventKind::Timer { node, timer })
            }
        }
    }

    /// Serial exchange: applies every shard's outbox in `(cause-sequence,
    /// action-index)` order — merging the outboxes, each already sorted,
    /// in place — and routes each action to its destination calendar,
    /// consuming the link DRBG along the way.
    fn exchange(&mut self) {
        let mut busy = self.shards.iter().enumerate().filter(|(_, s)| !s.outbox.is_empty());
        match (busy.next(), busy.next()) {
            (None, _) => {}
            (Some((k, _)), None) => {
                // One outbox (always so at one shard): already in order.
                let mut outbox = std::mem::take(&mut self.shards[k].outbox);
                for (_, _, node, action) in outbox.drain(..) {
                    self.apply_action(node, action);
                }
                self.shards[k].outbox = outbox;
            }
            _ => {
                let mut outboxes: Vec<Vec<OutboxEntry<P>>> =
                    self.shards.iter_mut().map(|s| std::mem::take(&mut s.outbox)).collect();
                let mut heads: Vec<_> =
                    outboxes.iter_mut().map(|o| o.drain(..).peekable()).collect();
                // A k-way merge whose scan is over shards, not actions.
                while let Some(k) = (0..heads.len())
                    .filter_map(|k| heads[k].peek().map(|&(cause, idx, _, _)| ((cause, idx), k)))
                    .min()
                    .map(|(_, k)| k)
                {
                    let (_, _, node, action) = heads[k].next().expect("peeked above");
                    self.apply_action(node, action);
                }
                drop(heads);
                for (shard, outbox) in self.shards.iter_mut().zip(outboxes) {
                    shard.outbox = outbox;
                }
            }
        }
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

    /// Earliest unapplied fault time, clamped to `now` (late-installed
    /// plans fire immediately, never in the past).
    fn next_fault_time(&self) -> Option<SimTime> {
        self.faults.as_ref().and_then(FaultInjector::next_time).map(|t| t.max(self.now))
    }

    /// Runs one `on_session` callback on the coordinator thread and
    /// applies its actions immediately, in issue order.
    fn dispatch_session(&mut self, node: NodeId, peer: NodeId, up: bool) {
        let shard = &mut self.shards[self.node_shard[node] as usize];
        let mut ctx = Context::renew(self.now, node, Vec::new());
        shard.nodes[self.node_local[node] as usize].on_session(&mut ctx, peer, up);
        for action in ctx.into_actions() {
            self.apply_action(node, action);
        }
    }

    /// Applies one fault. Link and session faults dispatch
    /// [`Agent::on_session`] on both endpoints (`a` first), consuming
    /// the link DRBG through any actions they produce.
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
        // Start-up is a synthetic window at the current time: causes are
        // node ids, so the exchange applies actions by (node,
        // action-index).
        let now = self.now;
        for shard in &mut self.shards {
            shard.run_starts(now);
        }
        self.exchange();
    }

    /// The exclusive sequence bound that lets exactly `budget` of the
    /// events due at `time` run: the ones with the smallest sequence
    /// numbers, which a one-calendar loop would pop first. `u64::MAX`
    /// when the budget covers the whole window.
    fn budget_bound(&self, time: SimTime, budget: u64) -> u64 {
        let due: usize = self.shards.iter().map(|s| s.queue.len_at(time)).sum();
        if budget >= due as u64 {
            return u64::MAX;
        }
        let mut seqs: Vec<u64> =
            self.shards.iter().flat_map(|s| s.queue.iter_at(time).map(|&(seq, _)| seq)).collect();
        *seqs.select_nth_unstable(budget as usize).1
    }

    /// Dispatches the events due at `time` with a sequence number below
    /// `below`, spawning one worker per non-empty shard when the window
    /// is large enough to amortize thread start-up.
    fn run_window(&mut self, time: SimTime, below: u64) {
        let trace = self.trace_enabled;
        if self.shards.len() == 1 {
            // One calendar: each event's actions are applied as soon as
            // it has run, which is the order the exchange would apply
            // them in, so a window's worth of actions is never
            // buffered. Same-instant sends land in a fresh bucket at
            // `time`, behind what this window leaves.
            let mut bucket = self.shards[0].queue.take_at(time);
            while let Some((seq, kind)) = pop_below(&mut bucket, below) {
                self.shards[0].run_event(time, seq, kind, &self.node_local, trace);
                self.exchange();
            }
            self.shards[0].queue.put_back(time, bucket);
        } else {
            let local_of = &self.node_local;
            let active = self.shards.iter().filter(|s| s.queue.peek_time() == Some(time)).count();
            let pending: usize = self.shards.iter().map(|s| s.queue.len_at(time)).sum();
            if active <= 1 || pending < self.spawn_threshold {
                for shard in &mut self.shards {
                    shard.run_bucket(time, below, local_of, trace);
                }
            } else {
                std::thread::scope(|scope| {
                    for shard in self.shards.iter_mut() {
                        if shard.queue.peek_time() == Some(time) {
                            scope.spawn(move || shard.run_bucket(time, below, local_of, trace));
                        }
                    }
                });
            }
            self.exchange();
        }
        let (events, delivered) = self.drain_shard_counters();
        if let Some(tl) = &mut self.timeline {
            use pvr_obs::timeline::{SIM_DELIVERED, SIM_EVENTS};
            tl.add(time.as_micros(), SIM_EVENTS, events);
            tl.add(time.as_micros(), SIM_DELIVERED, delivered);
        }
    }

    /// Samples queue depth and fires the barrier hook once the instant
    /// `time` has fully drained (zero-latency cascades re-enter the
    /// window first): depth first, hook second, so hook timers never
    /// count into the sample.
    fn after_window(&mut self, time: SimTime) {
        if self.timeline.is_none() && self.barrier.is_none() {
            return;
        }
        if self.queue_head() == Some(time) {
            return;
        }
        if let Some(tl) = &mut self.timeline {
            let depth: usize = self.shards.iter().map(|s| s.queue.len()).sum();
            tl.set(time.as_micros(), pvr_obs::timeline::SIM_QUEUE_DEPTH, depth as u64);
        }
        if let Some(mut hook) = self.barrier.take() {
            let timers = hook.on_barrier(time);
            self.barrier = Some(hook);
            for (node, delay, timer) in timers {
                self.schedule(time + delay, node, EventKind::Timer { node, timer });
            }
        }
    }

    /// Runs until every calendar drains or a bound is hit. Returns the
    /// reason the run stopped.
    pub fn run(&mut self, limits: RunLimits) -> StopReason {
        self.start_if_needed();
        loop {
            let budget = match limits.max_events {
                Some(max) if self.stats.events >= max => return StopReason::EventLimit,
                Some(max) => Some(max - self.stats.events),
                None => None,
            };
            let qhead = self.queue_head();
            let fhead = self.next_fault_time();
            let time = match (qhead, fhead) {
                (Some(q), Some(f)) => q.min(f),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => return StopReason::Quiescent,
            };
            if limits.deadline.is_some_and(|deadline| time > deadline) {
                return StopReason::Deadline;
            }
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            // A due fault fires before any queued event at the same
            // instant; the window itself, if any, runs on the next loop
            // iteration.
            if fhead.is_some_and(|f| f <= time) {
                while let Some(fault) = self.faults.as_mut().and_then(|f| f.pop_due(time)) {
                    self.apply_fault(fault);
                }
                continue;
            }
            let below = budget.map_or(u64::MAX, |budget| self.budget_bound(time, budget));
            self.run_window(time, below);
            self.after_window(time);
        }
    }
}

impl<P: Payload + Send + Wire> Simulator<P> {
    /// Serializes the engine's dynamic state — clock, link DRBG, stats,
    /// link overrides, pause flags, unapplied faults, timeline cells,
    /// and every pending event as `(time, event)` in global `(time,
    /// seq)` order. The bytes do not depend on the shard count. Agents
    /// are **not** included: the caller owns their reconstruction and
    /// overlays this state via [`load_state`](Self::load_state) on a
    /// freshly built simulator.
    ///
    /// Must be called between `run` invocations. Refuses (typed
    /// [`StateError`]) when a trace or barrier hook is active — neither
    /// survives a round-trip, and silently dropping them would corrupt
    /// the restored run's observable behaviour.
    pub fn save_state(&self) -> Result<Vec<u8>, StateError> {
        if self.trace_enabled {
            return Err(StateError::TraceActive);
        }
        if self.barrier.is_some() {
            return Err(StateError::BarrierActive);
        }
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
        let mut events: Vec<(SimTime, u64, &EventKind<P>)> = self
            .shards
            .iter()
            .flat_map(|s| s.queue.iter().map(|(time, (seq, kind))| (time, *seq, kind)))
            .collect();
        events.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        let mut out = vec![STATE_TAG];
        common.encode(&mut out);
        state::encode_drbg(&self.rng, &mut out);
        (events.len() as u64).encode(&mut out);
        for (time, _, kind) in events {
            time.encode(&mut out);
            state::encode_event(kind, &mut out);
        }
        Ok(out)
    }

    /// Restores state saved by [`save_state`](Self::save_state), at any
    /// shard count, into this simulator, which must hold the same number
    /// of nodes (the caller rebuilds agents from its own configuration
    /// first). Each event goes to its node's shard with its position in
    /// the saved order as its sequence number.
    ///
    /// The input is decoded and validated in full before anything is
    /// applied: on any error — truncation, corrupt discriminants,
    /// out-of-range node ids, a mismatching stats field list — the
    /// simulator is left exactly as it was.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        if self.trace_enabled {
            return Err(StateError::TraceActive);
        }
        if self.barrier.is_some() {
            return Err(StateError::BarrierActive);
        }
        let mut r = Reader::new(bytes);
        if r.take(1)?[0] != STATE_TAG {
            return Err(StateError::Corrupt("engine discriminant"));
        }
        let common = CommonState::decode(&mut r)?;
        if common.node_count != self.node_shard.len() {
            return Err(StateError::NodeCountMismatch {
                expected: common.node_count,
                found: self.node_shard.len(),
            });
        }
        let rng = state::decode_drbg(&mut r)?;
        let event_count = state::checked_count(&mut r, 9)?;
        let mut queues: Vec<_> = self.shards.iter().map(|_| EventQueue::new()).collect();
        let mut last_time = common.now;
        for seq in 0..event_count {
            let time = SimTime::decode(&mut r)?;
            if time < last_time {
                return Err(StateError::Corrupt("event calendar out of order"));
            }
            last_time = time;
            let kind = state::decode_event::<P>(&mut r, common.node_count)?;
            let node = match &kind {
                EventKind::Deliver { dst, .. } => *dst,
                EventKind::Timer { node, .. } => *node,
            };
            queues[self.node_shard[node] as usize].push(time, (seq, kind));
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
        self.next_seq = event_count;
        for (shard, queue) in self.shards.iter_mut().zip(queues) {
            shard.queue = queue;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::fmt::Debug;

    #[derive(Clone, Debug, PartialEq)]
    struct Token(u32);

    impl Payload for Token {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// The independent reference the engine is checked against: one
    /// binary heap over `(time, seq)`, one event popped at a time and its
    /// actions applied before the next pops. No windows, outboxes or
    /// shards; only the value types (links, DRBG, fault schedule, stats,
    /// timeline recorder) are shared with the engine.
    struct Reference {
        agents: Vec<Box<dyn Agent<Token>>>,
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        pending: HashMap<u64, EventKind<Token>>,
        next_seq: u64,
        links: HashMap<(NodeId, NodeId), LinkConfig>,
        default_link: LinkConfig,
        rng: HmacDrbg,
        now: SimTime,
        stats: SimStats,
        paused: Vec<bool>,
        faults: Option<FaultInjector>,
        trace: Vec<Delivery<Token>>,
        timeline: Option<pvr_obs::TimelineRecorder>,
        started: bool,
    }

    impl Reference {
        fn new(seed: u64) -> Reference {
            Reference {
                agents: Vec::new(),
                heap: BinaryHeap::new(),
                pending: HashMap::new(),
                next_seq: 0,
                links: HashMap::new(),
                default_link: LinkConfig::default(),
                rng: HmacDrbg::from_u64_labeled(seed, "netsim"),
                now: SimTime::ZERO,
                stats: SimStats::default(),
                paused: Vec::new(),
                faults: None,
                trace: Vec::new(),
                timeline: None,
                started: false,
            }
        }

        fn push(&mut self, at: SimTime, kind: EventKind<Token>) {
            self.heap.push(Reverse((at, self.next_seq)));
            self.pending.insert(self.next_seq, kind);
            self.next_seq += 1;
        }

        fn link(&self, src: NodeId, dst: NodeId) -> LinkConfig {
            self.links.get(&(src, dst)).copied().unwrap_or(self.default_link)
        }

        fn send(&mut self, src: NodeId, dst: NodeId, msg: Token) {
            let cfg = self.link(src, dst);
            self.stats.sent += 1;
            self.stats.bytes_sent += msg.wire_size() as u64;
            // Pause first: a paused send draws no randomness.
            let paused = self.paused[src] || self.paused[dst];
            if paused || cfg.down || (cfg.drop_prob > 0.0 && self.rng.chance(cfg.drop_prob)) {
                self.stats.dropped += 1;
            } else {
                let jitter = match cfg.jitter.as_micros() {
                    0 => 0,
                    j => self.rng.below(j + 1),
                };
                let at = self.now + cfg.latency + SimDuration::from_micros(jitter);
                self.push(at, EventKind::Deliver { src, dst, msg });
            }
        }

        fn callback(
            &mut self,
            node: NodeId,
            f: impl FnOnce(&mut dyn Agent<Token>, &mut Context<Token>),
        ) {
            let mut ctx = Context::renew(self.now, node, Vec::new());
            f(self.agents[node].as_mut(), &mut ctx);
            for action in ctx.into_actions() {
                match action {
                    Action::Send { to, msg } => self.send(node, to, msg),
                    Action::SetTimer { delay, timer } => {
                        self.push(self.now + delay, EventKind::Timer { node, timer })
                    }
                }
            }
        }

        fn set_down(&mut self, a: NodeId, b: NodeId, down: bool) {
            for (src, dst) in [(a, b), (b, a)] {
                let mut cfg = self.link(src, dst);
                cfg.down = down;
                self.links.insert((src, dst), cfg);
            }
        }

        fn fault(&mut self, fault: Fault) {
            let session = |r: &mut Reference, a: NodeId, b: NodeId, up: bool| {
                r.callback(a, |agent, ctx| agent.on_session(ctx, b, up));
                r.callback(b, |agent, ctx| agent.on_session(ctx, a, up));
            };
            match fault {
                Fault::LinkDown { a, b } => {
                    self.stats.link_down += 1;
                    self.set_down(a, b, true);
                    session(self, a, b, false);
                }
                Fault::LinkUp { a, b } => {
                    self.stats.link_up += 1;
                    self.set_down(a, b, false);
                    session(self, a, b, true);
                }
                Fault::LinkDegrade { a, b, drop_prob, jitter } => {
                    self.stats.link_degrades += 1;
                    for (src, dst) in [(a, b), (b, a)] {
                        let cfg = LinkConfig { drop_prob, jitter, ..self.link(src, dst) };
                        self.links.insert((src, dst), cfg);
                    }
                }
                Fault::SessionReset { a, b } => {
                    self.stats.session_resets += 1;
                    session(self, a, b, false);
                    session(self, a, b, true);
                }
                Fault::NodePause { node } => {
                    self.stats.node_pauses += 1;
                    self.paused[node] = true;
                }
                Fault::NodeResume { node } => self.paused[node] = false,
            }
        }

        fn next_fault(&self) -> Option<SimTime> {
            self.faults.as_ref()?.next_time().map(|t| t.max(self.now))
        }

        fn pending_at_now(&self) -> bool {
            self.heap.peek().map(|r| r.0 .0) == Some(self.now)
                || self.next_fault() == Some(self.now)
        }

        fn run(&mut self, limits: RunLimits) -> StopReason {
            if !self.started {
                self.started = true;
                for node in 0..self.agents.len() {
                    self.callback(node, |agent, ctx| agent.on_start(ctx));
                }
            }
            loop {
                if limits.max_events.is_some_and(|max| self.stats.events >= max) {
                    return StopReason::EventLimit;
                }
                let queued = self.heap.peek().map(|r| r.0 .0);
                let fault = self.next_fault();
                let Some(time) = queued.into_iter().chain(fault).min() else {
                    return StopReason::Quiescent;
                };
                if limits.deadline.is_some_and(|d| time > d) {
                    return StopReason::Deadline;
                }
                self.now = time;
                if fault.is_some_and(|f| f <= time) {
                    while let Some(f) = self.faults.as_mut().and_then(|i| i.pop_due(time)) {
                        self.fault(f);
                    }
                    continue;
                }
                let Reverse((_, seq)) = self.heap.pop().expect("peeked above");
                let kind = self.pending.remove(&seq).expect("every key has an event");
                self.stats.events += 1;
                let delivered = matches!(kind, EventKind::Deliver { .. });
                match kind {
                    EventKind::Deliver { src, dst, msg } => {
                        self.stats.delivered += 1;
                        self.trace.push(Delivery { time, src, dst, msg: msg.clone() });
                        self.callback(dst, |agent, ctx| agent.on_message(ctx, src, msg));
                    }
                    EventKind::Timer { node, timer } => {
                        self.stats.timers_fired += 1;
                        self.callback(node, |agent, ctx| agent.on_timer(ctx, timer));
                    }
                }
                if let Some(tl) = &mut self.timeline {
                    use pvr_obs::timeline::{SIM_DELIVERED, SIM_EVENTS, SIM_QUEUE_DEPTH};
                    tl.add(time.as_micros(), SIM_EVENTS, 1);
                    tl.add(time.as_micros(), SIM_DELIVERED, u64::from(delivered));
                    if self.heap.peek().map(|r| r.0 .0) != Some(time) {
                        tl.set(time.as_micros(), SIM_QUEUE_DEPTH, self.heap.len() as u64);
                    }
                }
            }
        }
    }

    /// One run set-up, applied identically to the reference and to the
    /// engine at every shard count.
    #[derive(Clone)]
    struct Scenario {
        seed: u64,
        link: LinkConfig,
        plan: Option<FaultPlan>,
        inject: Vec<(NodeId, NodeId, Token)>,
        timeline: Option<SimDuration>,
        /// Successive `run` calls.
        runs: Vec<RunLimits>,
    }

    impl Scenario {
        fn new(seed: u64) -> Scenario {
            Scenario {
                seed,
                link: LinkConfig::default(),
                plan: None,
                inject: Vec::new(),
                timeline: None,
                runs: vec![RunLimits::none()],
            }
        }

        fn link(self, link: LinkConfig) -> Scenario {
            Scenario { link, ..self }
        }
    }

    /// What one `run` call leaves behind.
    type Stop = (StopReason, SimTime, SimStats, bool);

    /// Runs `agents()` on the reference and on the engine at 1–4 shards
    /// (worker threads forced), and asserts identical stops, traces,
    /// timelines and final agent states. Returns the reference.
    fn assert_matches_reference<A>(sc: &Scenario, agents: impl Fn() -> Vec<A>) -> Reference
    where
        A: Agent<Token> + Send + Debug,
    {
        let mut reference = Reference::new(sc.seed);
        for agent in agents() {
            reference.agents.push(Box::new(agent));
            reference.paused.push(false);
        }
        reference.default_link = sc.link;
        reference.faults = sc.plan.clone().map(FaultPlan::into_injector);
        for (src, dst, msg) in sc.inject.iter().cloned() {
            reference.stats.injected += 1;
            reference.send(src, dst, msg);
        }
        reference.timeline = sc.timeline.map(|w| {
            pvr_obs::TimelineRecorder::new(w.as_micros(), pvr_obs::timeline::SIM_CHANNELS)
        });
        let expected: Vec<Stop> = sc
            .runs
            .iter()
            .map(|&limits| {
                let stop = reference.run(limits);
                (stop, reference.now, reference.stats.clone(), reference.pending_at_now())
            })
            .collect();

        for shards in 1..=4 {
            let mut sim: Simulator<Token> = Simulator::new(sc.seed, shards);
            sim.set_spawn_threshold(1);
            for agent in agents() {
                sim.add_node(Box::new(agent));
            }
            sim.set_default_link(sc.link);
            if let Some(plan) = &sc.plan {
                sim.set_fault_plan(plan.clone());
            }
            for (src, dst, msg) in sc.inject.iter().cloned() {
                sim.inject(src, dst, msg);
            }
            if let Some(window) = sc.timeline {
                sim.enable_timeline(window);
            }
            sim.enable_trace();
            let stops: Vec<Stop> = sc
                .runs
                .iter()
                .map(|&limits| {
                    let stop = sim.run(limits);
                    (stop, sim.now(), sim.stats().clone(), sim.pending_at_now())
                })
                .collect();
            assert_eq!(stops, expected, "{shards} shards: stops diverge");
            let trace = sim.trace().expect("tracing enabled");
            let key = |d: &Delivery<Token>| (d.time, d.src, d.dst, d.msg.0);
            assert_eq!(
                trace.iter().map(key).collect::<Vec<_>>(),
                reference.trace.iter().map(key).collect::<Vec<_>>(),
                "{shards} shards: traces diverge"
            );
            assert_eq!(sim.timeline(), reference.timeline.as_ref(), "{shards} shards: timeline");
            for (id, agent) in reference.agents.iter().enumerate() {
                let want = agent.as_any().downcast_ref::<A>().expect("reference agent type");
                let got: &A = sim.node(id).expect("engine agent type");
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{shards} shards: node {id}");
            }
        }
        reference
    }

    #[derive(Clone, Debug)]
    struct PingPong {
        peer: NodeId,
        received: Vec<u32>,
        kick_off: Option<u32>,
    }

    impl Agent<Token> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            if let Some(n) = self.kick_off {
                ctx.send(self.peer, Token(n));
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

    /// `n` nodes passing a token around a ring, node 0 starting at `from`.
    fn ring(n: usize, from: u32) -> impl Fn() -> Vec<PingPong> {
        move || {
            (0..n)
                .map(|i| PingPong {
                    peer: (i + 1) % n,
                    received: vec![],
                    kick_off: (i == 0).then_some(from),
                })
                .collect()
        }
    }

    #[test]
    fn ping_pong_converges() {
        let reference = assert_matches_reference(&Scenario::new(1), ring(2, 5));
        let received = |id: NodeId| {
            reference.agents[id].as_any().downcast_ref::<PingPong>().unwrap().received.clone()
        };
        assert_eq!(received(1), vec![5, 3, 1]);
        assert_eq!(received(0), vec![4, 2, 0]);
        assert_eq!(reference.stats.delivered, 6);
        assert_eq!(reference.stats.bytes_sent, 24);
    }

    #[test]
    fn time_advances_with_latency() {
        let sc = Scenario::new(1).link(LinkConfig::with_latency(SimDuration::from_millis(10)));
        let reference = assert_matches_reference(&sc, ring(2, 5));
        // 6 hops × 10 ms.
        assert_eq!(reference.now.as_micros(), 60_000);
    }

    #[test]
    fn matches_reference_on_clean_links() {
        assert_matches_reference(&Scenario::new(1), ring(4, 8));
    }

    #[test]
    fn matches_reference_under_jitter() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(1))
            .jittered(SimDuration::from_micros(700));
        assert_matches_reference(&Scenario::new(7).link(link), ring(4, 8));
    }

    #[test]
    fn matches_reference_under_loss_and_jitter() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(2))
            .jittered(SimDuration::from_micros(300))
            .lossy(0.3);
        for seed in [3, 11, 42] {
            assert_matches_reference(&Scenario::new(seed).link(link), ring(4, 8));
        }
        let all_lost = Scenario::new(3).link(LinkConfig::default().lossy(1.0));
        let reference = assert_matches_reference(&all_lost, ring(2, 5));
        assert_eq!((reference.stats.delivered, reference.stats.dropped), (0, 1));
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(1))
            .jittered(SimDuration::from_micros(500));
        let times = |seed| {
            let reference = assert_matches_reference(&Scenario::new(seed).link(link), ring(2, 5));
            reference.trace.iter().map(|d| d.time).collect::<Vec<_>>()
        };
        assert_ne!(times(7), times(8));
    }

    #[test]
    fn matches_reference_with_zero_latency_cascades() {
        // Zero-latency sends land in the current window and must be
        // processed in FIFO order after the window's own events.
        let sc = Scenario::new(5).link(LinkConfig::with_latency(SimDuration::ZERO));
        assert_matches_reference(&sc, ring(4, 8));
    }

    #[derive(Debug)]
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

    #[test]
    fn fifo_ordering_on_equal_latency_links() {
        // Messages sent back-to-back over one link arrive in send order.
        let reference = assert_matches_reference(&Scenario::new(11), || {
            vec![Burst { peer: 1, got: vec![] }, Burst { peer: 0, got: vec![] }]
        });
        let b = reference.agents[1].as_any().downcast_ref::<Burst>().unwrap();
        assert_eq!(b.got, (0..10).collect::<Vec<_>>());
    }

    #[derive(Debug)]
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
    fn timers_match_reference() {
        let reference = assert_matches_reference(&Scenario::new(9), || {
            vec![TimerAgent { fired: vec![], peer: 1 }, TimerAgent { fired: vec![], peer: 0 }]
        });
        let a = reference.agents[0].as_any().downcast_ref::<TimerAgent>().unwrap();
        assert_eq!(a.fired, vec![7, 42]);
        assert_eq!(reference.stats.timers_fired, 4);
    }

    #[test]
    fn deadline_and_resume_match_reference() {
        let sc = Scenario {
            link: LinkConfig::with_latency(SimDuration::from_millis(10)),
            runs: vec![RunLimits::until(SimTime(25_000)), RunLimits::none()],
            ..Scenario::new(5)
        };
        let reference = assert_matches_reference(&sc, ring(2, 5));
        assert_eq!(reference.now, SimTime(60_000));
    }

    #[test]
    fn injection_matches_reference() {
        let sc = Scenario { inject: vec![(0, 1, Token(3))], ..Scenario::new(2) };
        let reference = assert_matches_reference(&sc, || {
            (0..2).map(|i| PingPong { peer: 1 - i, received: vec![], kick_off: None }).collect()
        });
        assert_eq!(reference.stats.injected, 1);
    }

    #[test]
    fn timeline_matches_reference() {
        // Sim channels (events, deliveries, queue-depth samples), under
        // jitter and zero-latency cascades.
        for link in [
            LinkConfig::default(),
            LinkConfig::with_latency(SimDuration::ZERO),
            LinkConfig::with_latency(SimDuration::from_millis(1))
                .jittered(SimDuration::from_micros(700)),
        ] {
            let sc = Scenario { timeline: Some(SimDuration::from_millis(5)), ..Scenario::new(7) };
            assert_matches_reference(&sc.link(link), ring(4, 8));
        }
    }

    /// Floods a countdown token: node 0 starts one per peer, and every
    /// receipt of `n > 0` sends `n - 1` to each peer, so many events
    /// share an instant on a zero-latency link.
    #[derive(Debug)]
    struct Fanout {
        peers: Vec<NodeId>,
        received: Vec<u32>,
    }

    impl Agent<Token> for Fanout {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            if ctx.id() == 0 {
                for &peer in &self.peers {
                    ctx.send(peer, Token(4));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
            self.received.push(msg.0);
            if msg.0 > 0 {
                for &peer in &self.peers {
                    ctx.send(peer, Token(msg.0 - 1));
                }
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
    fn event_budgets_are_exact() {
        // Zero latency plus 1 µs of jitter packs many events, spread
        // over every shard, into each instant, with same-instant
        // cascades, so most budgets end inside a window. Every budget,
        // alone and chained, stops exactly where the reference does.
        let link =
            LinkConfig::with_latency(SimDuration::ZERO).jittered(SimDuration::from_micros(1));
        let flood =
            || (0..6).map(|i| Fanout { peers: vec![(i + 1) % 6, (i + 3) % 6], received: vec![] });
        let flood = move || flood().collect::<Vec<_>>();
        let total = assert_matches_reference(&Scenario::new(4).link(link), flood).stats.events;
        assert!(total > 50, "{total} events");
        let limit = |max| RunLimits { deadline: None, max_events: Some(max) };
        let mut mid_instant = 0;
        for budget in 1..=total + 1 {
            let once = Scenario { runs: vec![limit(budget)], ..Scenario::new(4).link(link) };
            mid_instant += usize::from(assert_matches_reference(&once, flood).pending_at_now());
            let chained = Scenario {
                runs: vec![limit(budget), limit(budget + budget / 2 + 1), RunLimits::none()],
                ..once
            };
            assert_matches_reference(&chained, flood);
        }
        assert!(mid_instant * 2 > total as usize, "only {mid_instant} budgets cut an instant");
    }

    /// Echo agent that also reacts to session faults: on teardown it
    /// notes the loss, on recovery it re-sends a token to the restored
    /// peer — a miniature of the BGP re-announce flow.
    #[derive(Clone, Debug)]
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
    fn fault_plan_matches_reference() {
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
        let degrade = Fault::LinkDegrade {
            a: 1,
            b: 2,
            drop_prob: 0.4,
            jitter: SimDuration::from_micros(300),
        };
        plan.push(SimTime(80_000), degrade);
        let sc = Scenario { plan: Some(plan), ..Scenario::new(13) };
        let reference = assert_matches_reference(&sc, || {
            (0..4)
                .map(|i| SessionAware { peer: (i + 1) % 4, received: vec![], sessions: vec![] })
                .collect()
        });
        assert!(reference.stats.link_down > 0, "plan must actually fire");
        assert_eq!(reference.stats.session_resets, 1);
    }

    #[test]
    fn paused_node_drops_traffic() {
        let plan = FaultPlan::new()
            .at(SimTime(0), Fault::NodePause { node: 1 })
            .at(SimTime(100_000), Fault::NodeResume { node: 1 });
        let sc = Scenario { plan: Some(plan), ..Scenario::new(3) };
        let reference = assert_matches_reference(&sc, ring(2, 8));
        // Start-up precedes the t=0 fault, so the kick-off is already in
        // flight (in-flight deliveries survive a pause); the paused
        // node's reply is what gets dropped.
        assert_eq!(reference.stats.delivered, 1);
        assert_eq!(reference.stats.dropped, 1);
        assert_eq!(reference.stats.node_pauses, 1);
    }

    #[test]
    fn partition_blocks_messages() {
        let mut sim: Simulator<Token> = Simulator::new(4, 2);
        for agent in ring(2, 5)() {
            sim.add_node(Box::new(agent));
        }
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
    fn explicit_shard_placement() {
        let mut sim: Simulator<Token> = Simulator::new(1, 3);
        let [a, b] = ring(2, 8)().try_into().expect("two nodes");
        let a = sim.add_node_to_shard(Box::new(a), 2);
        let b = sim.add_node_to_shard(Box::new(b), 0);
        assert_eq!((a, b), (0, 1));
        assert_eq!(sim.shard_of(a), 2);
        assert_eq!(sim.shard_of(b), 0);
        sim.run(RunLimits::none());
        assert_eq!(sim.stats().delivered, 9);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn send_to_unknown_node_panics() {
        let mut sim: Simulator<Token> = Simulator::new(1, 2);
        sim.add_node(Box::new(PingPong { peer: 1, received: vec![], kick_off: None }));
        sim.inject(0, 99, Token(0));
    }
}
