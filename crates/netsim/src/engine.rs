//! One handle over both engines, chosen by shard count.
//!
//! [`Engine::new`] returns the serial [`Simulator`] at one shard and the
//! [`ShardedSimulator`] above, so callers make that decision in exactly
//! one place and write everything else once. The serial engine stays as
//! the one-shard engine rather than running the sharded one at one
//! shard: the sharded engine's window/exchange machinery is measurably
//! slower when there is nothing to parallelize (15–35 % on a 2 000-AS
//! plain convergence, measured on a 2-core x86 box).
//!
//! Every method dispatches once per call, never per event: `run` hands
//! the whole run to the chosen engine.

use crate::fault::FaultPlan;
use crate::link::LinkConfig;
use crate::shard::ShardedSimulator;
use crate::sim::{Agent, BarrierHook, NodeId, Payload, RunLimits, SimStats, Simulator, StopReason};
use crate::state::StateError;
use crate::time::{SimDuration, SimTime};

/// The serial engine at one shard, the sharded engine above.
pub enum Engine<P: Payload + Send> {
    /// One calendar, no worker threads.
    Serial(Simulator<P>),
    /// Two or more worker calendars.
    Sharded(ShardedSimulator<P>),
}

macro_rules! each {
    ($engine:expr, $sim:ident => $body:expr) => {
        match $engine {
            Engine::Serial($sim) => $body,
            Engine::Sharded($sim) => $body,
        }
    };
}

impl<P: Payload + Send> Engine<P> {
    /// The serial engine when `shards <= 1`, else the sharded engine
    /// with `shards` worker calendars. All randomness derives from
    /// `seed` identically in both.
    pub fn new(seed: u64, shards: usize) -> Engine<P> {
        if shards <= 1 {
            Engine::Serial(Simulator::new(seed))
        } else {
            Engine::Sharded(ShardedSimulator::new(seed, shards))
        }
    }

    /// Installs a [`BarrierHook`], replacing any previous one.
    pub fn set_barrier_hook(&mut self, hook: Box<dyn BarrierHook>) {
        each!(self, sim => sim.set_barrier_hook(hook))
    }

    /// Adds a node on `shard` (ignored by the serial engine), returning
    /// its global id. Ids are assigned in call order on both engines.
    pub fn add_node(&mut self, agent: Box<dyn Agent<P> + Send>, shard: usize) -> NodeId {
        match self {
            Engine::Serial(sim) => sim.add_node(agent),
            Engine::Sharded(sim) => sim.add_node_to_shard(agent, shard),
        }
    }

    /// Number of worker calendars (1 for the serial engine).
    pub fn shard_count(&self) -> usize {
        match self {
            Engine::Serial(_) => 1,
            Engine::Sharded(sim) => sim.shard_count(),
        }
    }

    /// The shard a node lives on (0 on the serial engine).
    pub fn shard_of(&self, node: NodeId) -> usize {
        match self {
            Engine::Serial(_) => 0,
            Engine::Sharded(sim) => sim.shard_of(node),
        }
    }

    /// Sets the link configuration used when no per-pair config exists.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        each!(self, sim => sim.set_default_link(cfg))
    }

    /// Administratively downs (or restores) the directed link `src → dst`.
    pub fn set_link_down(&mut self, src: NodeId, dst: NodeId, down: bool) {
        each!(self, sim => sim.set_link_down(src, dst, down))
    }

    /// Installs a scheduled fault plan, replacing any previous one.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        each!(self, sim => sim.set_fault_plan(plan))
    }

    /// Minimum events in a window before the sharded engine spawns
    /// worker threads; a no-op on the serial engine.
    pub fn set_spawn_threshold(&mut self, events: usize) {
        if let Engine::Sharded(sim) = self {
            sim.set_spawn_threshold(events);
        }
    }

    /// Enables the convergence-timeline recorder with sim-time windows
    /// of width `window`.
    pub fn enable_timeline(&mut self, window: SimDuration) {
        each!(self, sim => sim.enable_timeline(window))
    }

    /// The convergence-timeline recorder, if enabled.
    pub fn timeline(&self) -> Option<&pvr_obs::TimelineRecorder> {
        each!(self, sim => sim.timeline())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        each!(self, sim => sim.stats())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        each!(self, sim => sim.now())
    }

    /// Injects a message from `src` to `dst` over the configured link.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, msg: P) {
        each!(self, sim => sim.inject(src, dst, msg))
    }

    /// Typed read access to a node's agent.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        each!(self, sim => sim.node::<T>(id))
    }

    /// Typed write access to a node's agent.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        each!(self, sim => sim.node_mut::<T>(id))
    }

    /// Runs until quiescence or a limit.
    pub fn run(&mut self, limits: RunLimits) -> StopReason {
        each!(self, sim => sim.run(limits))
    }
}

impl<P: Payload + Send + pvr_crypto::encoding::Wire> Engine<P> {
    /// Serializes the engine's dynamic state (clock, calendars, DRBGs);
    /// see [`Simulator::save_state`] and [`ShardedSimulator::save_state`].
    pub fn save_state(&self) -> Result<Vec<u8>, StateError> {
        each!(self, sim => sim.save_state())
    }

    /// Loads state written by [`Engine::save_state`] on an engine of the
    /// same kind, node count and shard count.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        each!(self, sim => sim.load_state(bytes))
    }
}
