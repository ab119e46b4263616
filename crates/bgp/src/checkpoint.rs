//! Crash-consistent checkpoint/restore and copy-on-write RIB history.
//!
//! This is the durability layer ISSUE 10 adds on top of the
//! deterministic engines: a converging network can be checkpointed to
//! one self-contained file at an engine-invariant instant, a crashed
//! run can be restored from the last checkpoint and replayed, and the
//! recovered run is **byte-identical** to an uninterrupted one — same
//! RIB fingerprints, same [`pvr_netsim::SimStats`], same metrics
//! snapshot. Determinism is what makes cheap durability possible: the
//! file only has to carry the dynamic state (clock, calendars, DRBGs,
//! RIBs, counters); everything static regenerates from the embedded
//! [`Topology`] + [`InstantiateOptions`].
//!
//! ## Checkpoint instants
//!
//! A checkpoint is taken between [`converge`](BgpNetwork::converge)
//! slices bounded by [`RunLimits::until`]. A deadline stop drains every
//! event strictly before the deadline on both engines — the same
//! drained-instant condition the PR 9 barrier hook relies on — so the
//! instant is engine-invariant: serial and sharded runs checkpoint
//! identical logical states (modulo the documented per-shard
//! `verify_cache` scope).
//!
//! ## File format (`PVRCKPT1`, version 1)
//!
//! The container reuses `pvr-store`'s framing — `magic ‖ version` then
//! tagged sections, each `tag u8 ‖ len u64 ‖ payload ‖ SHA-256(payload)`
//! (domain-separated), so any flipped bit names the damaged section:
//!
//! | tag | section   | payload                                            |
//! |-----|-----------|----------------------------------------------------|
//! | 1   | `META`    | engine kind, shard count, options, topology, origin table |
//! | 2   | `ENGINE`  | engine `save_state` bytes (clock, calendars, DRBGs) |
//! | 3   | `ROUTERS` | per-AS dynamic router state (RIBs, timers, counters) |
//! | 4   | `CACHE`   | verify-cache verdict memo(s)                        |
//! | 5   | `STORE`   | COW RIB snapshot history (`pvr-store` dump)         |
//!
//! Restore decodes and validates *everything* before constructing the
//! network, and the network is built fresh — a corrupt file yields a
//! typed [`CheckpointError`] and no partially-mutated state. Writes go
//! through a `.tmp` + rename so a crash mid-checkpoint never leaves a
//! torn file at the target path.
//!
//! ## What refuses to checkpoint
//!
//! * Private-verification mode — the GMW verifier is a barrier-hook
//!   closure with transcript state; [`CheckpointError::Refused`].
//! * Routers with active [`crate::router::Malice`] — malice is
//!   installed imperatively and is not reconstructible from the
//!   topology declaration.
//! * Engine trace recording (refused by the engine itself, surfacing
//!   as [`CheckpointError::State`]).
//!
//! ## RIB history and time travel
//!
//! Orthogonally to full checkpoints, [`BgpNetwork::snapshot_rib`]
//! captures the network-wide Loc-RIB into a content-addressed
//! copy-on-write trie ([`pvr_store::PMap`]): snapshot k+1 shares every
//! unchanged subtree with snapshot k, so a history of hundreds of
//! snapshots costs memory proportional to churn, not to RIB size.
//! [`BgpNetwork::route_at`] answers "what did AS x believe about
//! prefix p at time t" against that history, and the attack layer's
//! forensic bisect binary-searches it for the first poisoned instant.

use crate::decision::Candidate;
use crate::topology::{BgpNetwork, InstantiateOptions, OriginTable, Topology};
use crate::types::{Asn, Prefix};
use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_crypto::sha256::Digest;
use pvr_netsim::{Engine, RunLimits, SimDuration, SimTime, StateError, StopReason};
use pvr_store::{
    dump_snapshots, load_snapshots, read_container, require_section, write_header, write_section,
    PMap, StoreError,
};
use std::path::Path;
use std::sync::Arc;

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 8] = *b"PVRCKPT1";
/// Current checkpoint format version.
pub const CKPT_VERSION: u32 = 1;

/// Section tags (see the module docs for the layout).
const SEC_META: u8 = 1;
const SEC_ENGINE: u8 = 2;
const SEC_ROUTERS: u8 = 3;
const SEC_CACHE: u8 = 4;
const SEC_STORE: u8 = 5;

/// META engine-kind byte for the serial engine.
const KIND_SERIAL: u8 = 0;
/// META engine-kind byte for the sharded engine.
const KIND_SHARDED: u8 = 1;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// The network's configuration is not checkpointable (private
    /// verification mode, active malice). The message says which.
    Refused(&'static str),
    /// Filesystem failure writing or reading the checkpoint.
    Io(std::io::Error),
    /// Container-level corruption (bad magic, damaged section, store
    /// dump failure). [`StoreError::SectionHashMismatch`] names the
    /// damaged section by tag.
    Store(StoreError),
    /// The engine refused to save/load its state, or the engine bytes
    /// don't fit this network (node/shard-count mismatch).
    State(StateError),
    /// A payload failed to decode (truncation, bad discriminant).
    Wire(WireError),
    /// A shape violation the wire layer cannot see: router list
    /// mismatch, non-ascending snapshot times, cache-count drift.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Refused(why) => write!(f, "checkpoint refused: {why}"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failure: {e}"),
            CheckpointError::Store(e) => write!(f, "checkpoint container corrupt: {e}"),
            CheckpointError::State(e) => write!(f, "engine state: {e}"),
            CheckpointError::Wire(e) => write!(f, "checkpoint payload malformed: {e}"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}
impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> CheckpointError {
        CheckpointError::Store(e)
    }
}
impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> CheckpointError {
        CheckpointError::State(e)
    }
}
impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> CheckpointError {
        CheckpointError::Wire(e)
    }
}

// ---------------------------------------------------------------------
// COW RIB snapshots.

/// The store key for one Loc-RIB cell: `asn` (4 bytes BE) ‖ prefix
/// wire. Big-endian ASN keeps the trie's nibble paths grouped per AS,
/// which is what makes `for_each_under(asn)` and per-AS diffs cheap.
fn rib_key(asn: Asn, prefix: Prefix) -> Vec<u8> {
    let mut key = Vec::with_capacity(4 + prefix.encoded_len());
    key.extend_from_slice(&asn.0.to_be_bytes());
    prefix.encode(&mut key);
    key
}

/// Captures the network-wide Loc-RIB as a COW snapshot layered on
/// `base`: cells equal to `base`'s are *not* re-inserted (the subtree
/// stays shared), vanished cells are removed. Starting from the prior
/// snapshot is what turns a long history into O(churn) memory.
fn capture_rib(net: &BgpNetwork, base: &PMap) -> PMap {
    let mut current: std::collections::BTreeMap<Vec<u8>, Vec<u8>> =
        std::collections::BTreeMap::new();
    for asn in net.ases() {
        let router = net.router(asn);
        for prefix in router.selected_prefixes() {
            let cand = router.best_route(prefix).expect("selected prefix has a best route");
            current.insert(rib_key(asn, prefix), cand.to_wire());
        }
    }
    let mut snap = base.clone();
    // Remove cells that existed in the base but are gone now.
    let mut stale: Vec<Vec<u8>> = Vec::new();
    base.for_each(|key, _| {
        if !current.contains_key(key) {
            stale.push(key.to_vec());
        }
    });
    for key in stale {
        snap = snap.remove(&key);
    }
    for (key, value) in current {
        if snap.get(&key) != Some(value.as_slice()) {
            snap = snap.insert(&key, &value);
        }
    }
    snap
}

// ---------------------------------------------------------------------
// Checkpoint assembly.

fn meta_bytes(net: &BgpNetwork) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::new();
    buf.push(match net.sim {
        Engine::Serial(_) => KIND_SERIAL,
        Engine::Sharded(_) => KIND_SHARDED,
    });
    (net.sim.shard_count() as u64).encode(&mut buf);
    net.options.encode(&mut buf);
    net.topology.encode(&mut buf);
    // The origin table is installed imperatively, network-wide; embed
    // it so restore keeps rejecting unauthorized origins. Per-router
    // divergence would be silently collapsed, so it refuses instead.
    let first = net.ases().next().and_then(|a| net.router(a).origin_table_ref());
    for asn in net.ases() {
        let table = net.router(asn).origin_table_ref();
        let same = match (first, table) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if !same {
            return Err(CheckpointError::Refused(
                "routers disagree on the origin table; install one shared table",
            ));
        }
    }
    match first {
        None => false.encode(&mut buf),
        Some(table) => {
            true.encode(&mut buf);
            table.as_ref().encode(&mut buf);
        }
    }
    Ok(buf)
}

fn routers_bytes(net: &BgpNetwork) -> Vec<u8> {
    let mut buf = Vec::new();
    (net.ases().count() as u32).encode(&mut buf);
    for asn in net.ases() {
        asn.encode(&mut buf);
        net.router(asn).save_dynamic(&mut buf);
    }
    buf
}

fn caches_bytes(net: &BgpNetwork) -> Vec<u8> {
    let caches = net.verify_caches();
    let mut buf = Vec::new();
    (caches.len() as u32).encode(&mut buf);
    for cache in caches {
        let (entries, calls, hits) = cache.export_state();
        calls.encode(&mut buf);
        hits.encode(&mut buf);
        (entries.len() as u32).encode(&mut buf);
        for (signer, digest, verdict) in entries {
            signer.encode(&mut buf);
            buf.extend_from_slice(&digest);
            verdict.encode(&mut buf);
        }
    }
    buf
}

fn store_bytes(net: &BgpNetwork) -> Vec<u8> {
    let labeled: Vec<(u64, &PMap)> =
        net.rib_history.iter().map(|(t, map)| (t.as_micros(), map)).collect();
    dump_snapshots(&labeled)
}

/// Serializes the whole network into checkpoint-container bytes. The
/// refusal checks run first so a refused call does nothing at all.
fn checkpoint_bytes(net: &mut BgpNetwork) -> Result<Vec<u8>, CheckpointError> {
    if net.private_verifier().is_some() {
        return Err(CheckpointError::Refused(
            "private-verification mode installs a barrier hook with transcript state",
        ));
    }
    for asn in net.ases() {
        if net.router(asn).malice_active() {
            return Err(CheckpointError::Refused(
                "a router has active malice, which is not reconstructible from the topology",
            ));
        }
    }
    // Fold the checkpoint instant into the RIB history so the STORE
    // section always covers "now" and `route_at` works right after
    // restore.
    net.snapshot_rib();
    let engine = net.sim.save_state()?;
    let meta = meta_bytes(net)?;
    let routers = routers_bytes(net);
    let caches = caches_bytes(net);
    let store = store_bytes(net);

    let mut out = Vec::new();
    write_header(&CKPT_MAGIC, CKPT_VERSION, &mut out);
    write_section(SEC_META, &meta, &mut out);
    write_section(SEC_ENGINE, &engine, &mut out);
    write_section(SEC_ROUTERS, &routers, &mut out);
    write_section(SEC_CACHE, &caches, &mut out);
    write_section(SEC_STORE, &store, &mut out);
    Ok(out)
}

/// Writes `bytes` crash-consistently: the payload lands at `<path>.tmp`
/// first and is renamed into place, so a crash mid-write never leaves a
/// torn file where a checkpoint is expected.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------
// Restore.

/// Decoded META section. The engine kind byte is validated against the
/// shard count and then implied by it, so it is not kept.
struct Meta {
    shards: u64,
    options: InstantiateOptions,
    topology: Topology,
    origin_table: Option<OriginTable>,
}

fn decode_meta(payload: &[u8]) -> Result<Meta, CheckpointError> {
    let mut r = Reader::new(payload);
    let engine_kind = r.take(1)?[0];
    if engine_kind != KIND_SERIAL && engine_kind != KIND_SHARDED {
        return Err(CheckpointError::Corrupt("unknown engine kind"));
    }
    let shards = u64::decode(&mut r)?;
    if shards == 0 || shards > 4096 {
        return Err(CheckpointError::Corrupt("implausible shard count"));
    }
    // The serial engine is exactly the one-shard engine: any other
    // pairing was not written by this program.
    if (engine_kind == KIND_SERIAL) != (shards == 1) {
        return Err(CheckpointError::Corrupt("engine kind does not match the shard count"));
    }
    let options = InstantiateOptions::decode(&mut r)?;
    let topology = Topology::decode(&mut r)?;
    let origin_table =
        if bool::decode(&mut r)? { Some(OriginTable::decode(&mut r)?) } else { None };
    if r.remaining() != 0 {
        return Err(CheckpointError::Wire(WireError::TrailingBytes(r.remaining())));
    }
    Ok(Meta { shards, options, topology, origin_table })
}

/// Restores a network from checkpoint bytes, on the engine and shard
/// count META names. Everything is parsed and validated against the
/// freshly instantiated network before any state is applied; on any
/// error the partially-built network is dropped and the caller keeps
/// nothing.
fn restore_bytes(bytes: &[u8]) -> Result<BgpNetwork, CheckpointError> {
    let sections = read_container(bytes, &CKPT_MAGIC, CKPT_VERSION)?;
    let meta = decode_meta(require_section(&sections, SEC_META)?)?;
    if meta.options.private_verification {
        return Err(CheckpointError::Refused(
            "checkpoint claims private-verification mode, which cannot be checkpointed",
        ));
    }
    let engine = require_section(&sections, SEC_ENGINE)?;
    let routers = require_section(&sections, SEC_ROUTERS)?;
    let caches = require_section(&sections, SEC_CACHE)?;
    let store = require_section(&sections, SEC_STORE)?;

    // Decode the store dump up front (pure validation, no network).
    let snapshots = load_snapshots(store)?;
    let mut history: Vec<(SimTime, PMap)> = Vec::with_capacity(snapshots.len());
    for (label, map) in snapshots {
        let t = SimTime(label);
        if let Some((prev, _)) = history.last() {
            if *prev >= t {
                return Err(CheckpointError::Corrupt("RIB snapshot times not ascending"));
            }
        }
        history.push((t, map));
    }

    let mut net = meta.topology.instantiate_sharded(meta.options, meta.shards as usize);
    net.sim.load_state(engine)?;

    // Router states: the list must cover exactly the instantiated ASes,
    // in ascending order.
    let ases: Vec<Asn> = net.ases().collect();
    let mut r = Reader::new(routers);
    let count = u32::decode(&mut r)? as usize;
    if count != ases.len() {
        return Err(CheckpointError::Corrupt("router count does not match the topology"));
    }
    for asn in ases {
        let saved = Asn::decode(&mut r)?;
        if saved != asn {
            return Err(CheckpointError::Corrupt("router list does not match the topology"));
        }
        net.router_mut(asn).load_dynamic(&mut r)?;
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Wire(WireError::TrailingBytes(r.remaining())));
    }

    // Verify caches: count is a property of the engine shape, so it
    // must agree with what instantiation produced.
    let targets = net.verify_caches();
    let mut r = Reader::new(caches);
    let count = u32::decode(&mut r)? as usize;
    if count != targets.len() {
        return Err(CheckpointError::Corrupt("verify-cache count does not match the engine"));
    }
    for cache in targets {
        let calls = u64::decode(&mut r)?;
        let hits = u64::decode(&mut r)?;
        let mut entries = Vec::new();
        for _ in 0..u32::decode(&mut r)? {
            let signer = Asn::decode(&mut r)?;
            let digest = r.take_array::<32>()?;
            entries.push((signer, digest, bool::decode(&mut r)?));
        }
        cache.load_state(entries, calls, hits);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Wire(WireError::TrailingBytes(r.remaining())));
    }

    if let Some(table) = meta.origin_table {
        net.install_origin_table(Arc::new(table));
    }
    net.rib_history = history;
    Ok(net)
}

// ---------------------------------------------------------------------
// Public surface.

impl BgpNetwork {
    /// Captures the network-wide Loc-RIB into the COW snapshot history
    /// at the current sim time and returns the snapshot's content hash
    /// (the RIB fingerprint).
    pub fn snapshot_rib(&mut self) -> Digest {
        let now = self.sim.now();
        // Re-capturing at the same instant replaces the last snapshot
        // (converge slices can land on the same drained time twice).
        let base = match self.rib_history.last() {
            Some((t, map)) if *t == now => {
                let base = map.clone();
                self.rib_history.pop();
                base
            }
            Some((_, map)) => map.clone(),
            None => PMap::new(),
        };
        let snap = capture_rib(self, &base);
        let hash = snap.root_hash();
        self.rib_history.push((now, snap));
        hash
    }

    /// The content hash of the current network-wide Loc-RIB —
    /// byte-identical across shard counts for the same logical state.
    pub fn rib_fingerprint(&self) -> Digest {
        let base = match self.rib_history.last() {
            Some((_, map)) => map.clone(),
            None => PMap::new(),
        };
        capture_rib(self, &base).root_hash()
    }

    /// What `asn` believed about `prefix` at sim time `t`, answered from
    /// the retained snapshot history (the latest snapshot at or before
    /// `t`). `None` when no snapshot covers `t` or the router had no
    /// route installed.
    pub fn route_at(&self, asn: Asn, prefix: Prefix, t: SimTime) -> Option<Candidate> {
        let (_, snap) = self.rib_history.iter().rev().find(|(at, _)| *at <= t)?;
        let bytes = snap.get(&rib_key(asn, prefix))?;
        pvr_crypto::decode_exact::<Candidate>(bytes).ok()
    }

    /// Capture times of the retained RIB snapshots, ascending.
    pub fn snapshot_times(&self) -> Vec<SimTime> {
        self.rib_history.iter().map(|&(t, _)| t).collect()
    }

    /// Writes a self-contained checkpoint of the whole network to `path`
    /// (crash-consistently: `.tmp` + rename) and returns the file size
    /// in bytes. See the module docs for the format and the refusal
    /// conditions.
    pub fn checkpoint(&mut self, path: &Path) -> Result<u64, CheckpointError> {
        let bytes = checkpoint_bytes(self)?;
        write_atomic(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Restores a network from a checkpoint written by
    /// [`checkpoint`](Self::checkpoint), on the engine and shard count
    /// the file names. Fully validating: a corrupt or mismatched file
    /// yields a typed error and no network. The result picks up exactly
    /// where the saved run stopped — replaying it is byte-identical to
    /// never having crashed.
    pub fn restore(path: &Path) -> Result<BgpNetwork, CheckpointError> {
        let bytes = std::fs::read(path)?;
        restore_bytes(&bytes)
    }

    /// Runs to quiescence (or `limits`) capturing a COW RIB snapshot
    /// every `every` of sim time. Slice boundaries are deadline stops,
    /// which every engine drains identically, so the snapshots land at
    /// shard-count-invariant instants.
    pub fn converge_with_snapshots(&mut self, limits: RunLimits, every: SimDuration) -> StopReason {
        self.converge_in_slices(limits, every, |net, _| {
            net.snapshot_rib();
            Ok(())
        })
        .expect("snapshot slices cannot fail")
    }

    /// Runs to quiescence (or `limits`) writing a checkpoint file into
    /// `dir` every `every` of sim time (`ckpt-<t_ms>.pvr`). Returns the
    /// stop reason and the path of the last checkpoint written (every
    /// slice writes one, so there is always a last path).
    pub fn converge_checkpointed(
        &mut self,
        limits: RunLimits,
        every: SimDuration,
        dir: &Path,
    ) -> Result<(StopReason, std::path::PathBuf), CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let mut last = std::path::PathBuf::new();
        let reason = self.converge_in_slices(limits, every, |net, boundary| {
            // Files are named by the slice boundary (a drained instant),
            // not by the clock, which lags it.
            last = dir.join(format!("ckpt-{:08}.pvr", boundary.as_micros() / 1000));
            let bytes = checkpoint_bytes(net)?;
            write_atomic(&last, &bytes)?;
            Ok(())
        })?;
        Ok((reason, last))
    }

    /// Runs to quiescence (or `limits`) in deadline slices `every` of
    /// sim time apart, calling `at_boundary` after each slice with the
    /// slice's deadline.
    fn converge_in_slices(
        &mut self,
        limits: RunLimits,
        every: SimDuration,
        mut at_boundary: impl FnMut(&mut BgpNetwork, SimTime) -> Result<(), CheckpointError>,
    ) -> Result<StopReason, CheckpointError> {
        let every_us = every.as_micros().max(1);
        // The engine clock stays at the last processed event on a
        // deadline stop, so the boundary advances explicitly — never
        // recomputed from `now`, which would re-run an empty slice
        // forever.
        let mut next = SimTime(self.sim.now().as_micros() / every_us * every_us + every_us);
        loop {
            let slice_deadline = match limits.deadline {
                Some(d) if d < next => d,
                _ => next,
            };
            let slice = RunLimits { deadline: Some(slice_deadline), max_events: limits.max_events };
            let reason = self.converge(slice);
            at_boundary(self, slice_deadline)?;
            match reason {
                StopReason::Deadline if limits.deadline != Some(slice_deadline) => {
                    next = SimTime(slice_deadline.as_micros() + every_us);
                }
                other => return Ok(other),
            }
        }
    }
}
