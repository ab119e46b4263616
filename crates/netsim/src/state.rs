//! Engine checkpoint state: the dynamic half of a simulator as bytes.
//!
//! A checkpoint of a deterministic run needs only the state that is not
//! a pure function of construction inputs: the clock, the DRBG streams,
//! the pending-event calendars, the stats, and whatever the fault plan
//! has not yet applied. Everything else — agents, node layout, link
//! wiring — is rebuilt by the caller from its own configuration, and
//! the engine's `load_state` overlays the dynamic state on top. This
//! module holds the codec (`CommonState`, [`Wire`] impls for the
//! engine's value types) plus the typed [`StateError`];
//! `Simulator::save_state`/`load_state` live next to the engine's
//! private fields and delegate here. The layout does not depend on the
//! shard count: pending events are written in global `(time, seq)`
//! order, whichever shard holds them.
//!
//! Corruption safety: decoding never panics — every shape violation is
//! a typed error — and the engines apply a decoded state only after it
//! has been validated in full, so a failed load leaves the target
//! simulator untouched.

use crate::fault::Fault;
use crate::link::LinkConfig;
use crate::sim::{EventKind, Payload, SimStats};
use crate::time::{SimDuration, SimTime};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::encoding::{Reader, Wire, WireError};
use std::collections::BTreeMap;

/// Why an engine state could not be saved or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The simulator has trace recording enabled. Traces are unbounded
    /// audit logs, not run state; a restored run would silently record
    /// only the post-restore suffix, so saving and loading both refuse.
    TraceActive,
    /// A barrier hook is installed. Hooks are arbitrary closures and
    /// cannot be serialized; detach the hook before checkpointing.
    BarrierActive,
    /// The target simulator's node count does not match the saved one.
    NodeCountMismatch {
        /// Nodes in the saved state.
        expected: usize,
        /// Nodes in the target simulator.
        found: usize,
    },
    /// A low-level decoding failure (truncation, bad discriminant).
    Wire(WireError),
    /// A shape violation the wire layer cannot see (node id out of
    /// range, stats field list drift, bogus counts).
    Corrupt(&'static str),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::TraceActive => write!(f, "cannot checkpoint with trace recording enabled"),
            StateError::BarrierActive => {
                write!(f, "cannot checkpoint with a barrier hook installed")
            }
            StateError::NodeCountMismatch { expected, found } => {
                write!(f, "saved state has {expected} nodes, simulator has {found}")
            }
            StateError::Wire(e) => write!(f, "malformed engine state: {e}"),
            StateError::Corrupt(what) => write!(f, "corrupt engine state: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<WireError> for StateError {
    fn from(e: WireError) -> StateError {
        StateError::Wire(e)
    }
}

/// Layout byte leading every engine-state encoding. It is the only
/// layout; any other byte (such as the per-shard layout, tag 1, that
/// older code wrote at two or more shards) is refused as corrupt.
pub(crate) const STATE_TAG: u8 = 0;

impl Wire for SimTime {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SimTime(u64::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for SimDuration {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_micros().encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SimDuration::from_micros(u64::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for LinkConfig {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.latency.encode(buf);
        self.jitter.encode(buf);
        // f64 via its IEEE-754 bits: exact round-trip, no text detour.
        self.drop_prob.to_bits().encode(buf);
        self.down.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let latency = SimDuration::decode(r)?;
        let jitter = SimDuration::decode(r)?;
        let drop_prob = f64::from_bits(u64::decode(r)?);
        if !(0.0..=1.0).contains(&drop_prob) {
            return Err(WireError::Invalid("drop probability out of range"));
        }
        let down = bool::decode(r)?;
        Ok(LinkConfig { latency, jitter, drop_prob, down })
    }
    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 1
    }
}

impl Wire for Fault {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Fault::LinkDown { a, b } => {
                buf.push(0);
                (a as u64).encode(buf);
                (b as u64).encode(buf);
            }
            Fault::LinkUp { a, b } => {
                buf.push(1);
                (a as u64).encode(buf);
                (b as u64).encode(buf);
            }
            Fault::LinkDegrade { a, b, drop_prob, jitter } => {
                buf.push(2);
                (a as u64).encode(buf);
                (b as u64).encode(buf);
                drop_prob.to_bits().encode(buf);
                jitter.encode(buf);
            }
            Fault::SessionReset { a, b } => {
                buf.push(3);
                (a as u64).encode(buf);
                (b as u64).encode(buf);
            }
            Fault::NodePause { node } => {
                buf.push(4);
                (node as u64).encode(buf);
            }
            Fault::NodeResume { node } => {
                buf.push(5);
                (node as u64).encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        fn node(r: &mut Reader<'_>) -> Result<usize, WireError> {
            Ok(u64::decode(r)? as usize)
        }
        let tag = r.take(1)?[0];
        Ok(match tag {
            0 => Fault::LinkDown { a: node(r)?, b: node(r)? },
            1 => Fault::LinkUp { a: node(r)?, b: node(r)? },
            2 => {
                let a = node(r)?;
                let b = node(r)?;
                let drop_prob = f64::from_bits(u64::decode(r)?);
                if !(0.0..=1.0).contains(&drop_prob) {
                    return Err(WireError::Invalid("drop probability out of range"));
                }
                Fault::LinkDegrade { a, b, drop_prob, jitter: SimDuration::decode(r)? }
            }
            3 => Fault::SessionReset { a: node(r)?, b: node(r)? },
            4 => Fault::NodePause { node: node(r)? },
            5 => Fault::NodeResume { node: node(r)? },
            _ => return Err(WireError::Invalid("fault discriminant")),
        })
    }
}

/// Engine state apart from the link DRBG and the pending events, which
/// the engine encodes on top of this.
pub(crate) struct CommonState {
    pub(crate) node_count: usize,
    pub(crate) now: SimTime,
    pub(crate) started: bool,
    pub(crate) stats: SimStats,
    pub(crate) default_link: LinkConfig,
    /// Per-pair link overrides, sorted by `(src, dst)` for canonical
    /// bytes (the in-memory map is an unordered `HashMap`).
    pub(crate) links: Vec<((usize, usize), LinkConfig)>,
    pub(crate) paused: Vec<bool>,
    /// `Some(remaining schedule)` when a fault plan is installed.
    pub(crate) faults: Option<Vec<(SimTime, Fault)>>,
    /// `(window_us, channels, cells)` when the timeline is enabled.
    pub(crate) timeline: Option<(u64, usize, BTreeMap<u64, Vec<u64>>)>,
}

impl CommonState {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        (self.node_count as u64).encode(out);
        self.now.encode(out);
        self.started.encode(out);
        let fields = self.stats.fields();
        (fields.len() as u64).encode(out);
        for (name, value) in fields {
            name.to_string().encode(out);
            value.encode(out);
        }
        self.default_link.encode(out);
        (self.links.len() as u64).encode(out);
        for &((src, dst), cfg) in &self.links {
            (src as u64).encode(out);
            (dst as u64).encode(out);
            cfg.encode(out);
        }
        (self.paused.len() as u64).encode(out);
        for &p in &self.paused {
            p.encode(out);
        }
        match &self.faults {
            None => out.push(0),
            Some(schedule) => {
                out.push(1);
                (schedule.len() as u64).encode(out);
                for &(t, fault) in schedule {
                    t.encode(out);
                    fault.encode(out);
                }
            }
        }
        match &self.timeline {
            None => out.push(0),
            Some((window_us, channels, cells)) => {
                out.push(1);
                window_us.encode(out);
                (*channels as u64).encode(out);
                (cells.len() as u64).encode(out);
                for (start, values) in cells {
                    start.encode(out);
                    (values.len() as u64).encode(out);
                    for v in values {
                        v.encode(out);
                    }
                }
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<CommonState, StateError> {
        let node_count = checked_count(r, 1)? as usize;
        let now = SimTime::decode(r)?;
        let started = bool::decode(r)?;
        let field_count = checked_count(r, 12)?;
        let mut fields = Vec::with_capacity(field_count as usize);
        for _ in 0..field_count {
            let name = String::decode(r)?;
            let value = u64::decode(r)?;
            fields.push((name, value));
        }
        let stats = SimStats::from_fields(fields.iter().map(|(n, v)| (n.as_str(), *v)))
            .ok_or(StateError::Corrupt("stats field list does not match this build"))?;
        let default_link = LinkConfig::decode(r)?;
        let link_count = checked_count(r, 17)?;
        let mut links = Vec::with_capacity(link_count as usize);
        for _ in 0..link_count {
            let src = u64::decode(r)? as usize;
            let dst = u64::decode(r)? as usize;
            if src >= node_count || dst >= node_count {
                return Err(StateError::Corrupt("link endpoint out of range"));
            }
            links.push(((src, dst), LinkConfig::decode(r)?));
        }
        let paused_count = checked_count(r, 1)? as usize;
        if paused_count != node_count {
            return Err(StateError::Corrupt("pause flags disagree with node count"));
        }
        let mut paused = Vec::with_capacity(paused_count);
        for _ in 0..paused_count {
            paused.push(bool::decode(r)?);
        }
        let faults = match r.take(1)?[0] {
            0 => None,
            1 => {
                let n = checked_count(r, 9)?;
                let mut schedule = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let t = SimTime::decode(r)?;
                    let fault = Fault::decode(r)?;
                    if fault_nodes(&fault).iter().any(|&id| id >= node_count) {
                        return Err(StateError::Corrupt("fault node out of range"));
                    }
                    schedule.push((t, fault));
                }
                Some(schedule)
            }
            _ => return Err(StateError::Corrupt("fault-plan discriminant")),
        };
        let timeline = match r.take(1)?[0] {
            0 => None,
            1 => {
                let window_us = u64::decode(r)?;
                let channels = u64::decode(r)? as usize;
                if window_us == 0 {
                    return Err(StateError::Corrupt("timeline shape out of range"));
                }
                // The engine indexes its channels by constant, so any
                // other count would panic the first window it records.
                if channels != pvr_obs::timeline::SIM_CHANNELS {
                    return Err(StateError::Corrupt("timeline channel count"));
                }
                let cell_count = checked_count(r, 8)?;
                let mut cells = BTreeMap::new();
                for _ in 0..cell_count {
                    let start = u64::decode(r)?;
                    let width = checked_count(r, 8)? as usize;
                    if width != channels {
                        return Err(StateError::Corrupt("timeline cell width mismatch"));
                    }
                    let mut values = Vec::with_capacity(width);
                    for _ in 0..width {
                        values.push(u64::decode(r)?);
                    }
                    if cells.insert(start, values).is_some() {
                        return Err(StateError::Corrupt("duplicate timeline window"));
                    }
                }
                Some((window_us, channels, cells))
            }
            _ => return Err(StateError::Corrupt("timeline discriminant")),
        };
        Ok(CommonState {
            node_count,
            now,
            started,
            stats,
            default_link,
            links,
            paused,
            faults,
            timeline,
        })
    }
}

/// The node ids a fault touches, for range validation.
fn fault_nodes(fault: &Fault) -> Vec<usize> {
    match *fault {
        Fault::LinkDown { a, b }
        | Fault::LinkUp { a, b }
        | Fault::LinkDegrade { a, b, .. }
        | Fault::SessionReset { a, b } => vec![a, b],
        Fault::NodePause { node } | Fault::NodeResume { node } => vec![node],
    }
}

/// Reads a `u64` count and rejects values whose minimal encoding could
/// not fit in the remaining input (each counted item costs at least
/// `min_item_len` bytes) — a cheap guard against allocating gigabytes
/// for a corrupt length prefix.
pub(crate) fn checked_count(r: &mut Reader<'_>, min_item_len: usize) -> Result<u64, StateError> {
    let n = u64::decode(r)?;
    if n.saturating_mul(min_item_len.max(1) as u64) > r.remaining() as u64 {
        return Err(StateError::Corrupt("count exceeds remaining input"));
    }
    Ok(n)
}

/// Appends a DRBG's exported state.
pub(crate) fn encode_drbg(rng: &HmacDrbg, out: &mut Vec<u8>) {
    out.extend_from_slice(&rng.state_bytes());
}

/// Reads back a DRBG saved by [`encode_drbg`].
pub(crate) fn decode_drbg(r: &mut Reader<'_>) -> Result<HmacDrbg, StateError> {
    let state = r.take_array::<{ HmacDrbg::STATE_LEN }>()?;
    Ok(HmacDrbg::from_state_bytes(&state))
}

/// Appends one queued event.
pub(crate) fn encode_event<P: Payload + Wire>(kind: &EventKind<P>, out: &mut Vec<u8>) {
    match kind {
        EventKind::Deliver { src, dst, msg } => {
            out.push(0);
            (*src as u64).encode(out);
            (*dst as u64).encode(out);
            msg.encode(out);
        }
        EventKind::Timer { node, timer } => {
            out.push(1);
            (*node as u64).encode(out);
            timer.encode(out);
        }
    }
}

/// Reads back one queued event, validating node ids against
/// `node_count` so a corrupt id cannot panic the event loop later.
pub(crate) fn decode_event<P: Payload + Wire>(
    r: &mut Reader<'_>,
    node_count: usize,
) -> Result<EventKind<P>, StateError> {
    match r.take(1)?[0] {
        0 => {
            let src = u64::decode(r)? as usize;
            let dst = u64::decode(r)? as usize;
            if src >= node_count || dst >= node_count {
                return Err(StateError::Corrupt("event node out of range"));
            }
            Ok(EventKind::Deliver { src, dst, msg: P::decode(r)? })
        }
        1 => {
            let node = u64::decode(r)? as usize;
            if node >= node_count {
                return Err(StateError::Corrupt("event node out of range"));
            }
            Ok(EventKind::Timer { node, timer: u64::decode(r)? })
        }
        _ => Err(StateError::Corrupt("event discriminant")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_crypto::encoding::decode_exact;

    #[test]
    fn link_config_round_trips() {
        let cfg = LinkConfig::with_latency(SimDuration::from_millis(7))
            .jittered(SimDuration::from_micros(123))
            .lossy(0.375);
        let bytes = cfg.to_wire();
        assert_eq!(bytes.len(), cfg.encoded_len());
        assert_eq!(decode_exact::<LinkConfig>(&bytes).unwrap(), cfg);
    }

    #[test]
    fn link_config_rejects_bad_probability() {
        // Bypass the builder's own range assert via struct syntax.
        let cfg = LinkConfig { drop_prob: 2.0, ..LinkConfig::default() };
        let bytes = cfg.to_wire();
        assert!(decode_exact::<LinkConfig>(&bytes).is_err());
    }

    #[test]
    fn fault_round_trips() {
        let faults = [
            Fault::LinkDown { a: 1, b: 2 },
            Fault::LinkUp { a: 3, b: 0 },
            Fault::LinkDegrade { a: 1, b: 4, drop_prob: 0.25, jitter: SimDuration::from_micros(9) },
            Fault::SessionReset { a: 5, b: 6 },
            Fault::NodePause { node: 7 },
            Fault::NodeResume { node: 7 },
        ];
        for f in faults {
            assert_eq!(decode_exact::<Fault>(&f.to_wire()).unwrap(), f);
        }
        assert!(decode_exact::<Fault>(&[9]).is_err());
    }

    #[test]
    fn checked_count_guards_absurd_lengths() {
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert!(matches!(checked_count(&mut r, 4), Err(StateError::Corrupt(_))));
    }
}
