//! # pvr-netsim — deterministic discrete-event network simulator
//!
//! The substrate PVR runs on in this reproduction. The paper's protocol
//! is control-plane only, so a message-passing simulator preserves every
//! behaviour the evaluation depends on: message ordering, adversarial
//! interleavings, loss, partitions, and per-node receive views (the raw
//! material for the §2.3 Confidentiality audit).
//!
//! Design notes (following the smoltcp philosophy from the project
//! guides): synchronous poll-driven core (worker threads live only
//! inside one time window, scoped, at two or more shards), no
//! wall-clock reads, simple data structures. Determinism is a feature
//! under test: identical seeds reproduce identical traces, bit for bit.

pub mod fault;
pub mod link;
pub mod shard;
pub mod sim;
pub mod state;
pub mod time;

pub use fault::{Fault, FaultPlan};
pub use link::LinkConfig;
pub use shard::Simulator;
pub use sim::{
    Agent, BarrierHook, Context, Delivery, NodeId, Payload, RunLimits, SimStats, StopReason,
};
pub use state::StateError;
pub use time::{SimDuration, SimTime};
