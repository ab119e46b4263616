//! The durability layer's recovery contract: kill a converging run at
//! an arbitrary checkpoint instant, restore from the file, replay — and
//! the recovered run is **byte-identical** to one that never crashed.
//! Asserted over RIB fingerprints, simulator stats, and full metrics
//! snapshots; at shard counts 1/2/4/8; with and without churn schedules
//! and fault plans in the path. Plus the corrupt-checkpoint hardening: truncation, bit
//! flips, and version bumps anywhere in the file must surface as typed
//! errors — never a panic, never a partially-restored network.

use proptest::prelude::*;
use pvr::bgp::{
    internet_like, Asn, BgpNetwork, CheckpointError, DampeningPolicy, InstantiateOptions,
    InternetParams, LocalEvent, Malice, Prefix, Topology, CKPT_MAGIC, CKPT_VERSION,
};
use pvr::crypto::drbg::HmacDrbg;
use pvr::crypto::encoding::Wire;
use pvr::crypto::sha256::sha256;
use pvr::netsim::{
    Fault, FaultPlan, LinkConfig, RunLimits, SimDuration, SimTime, StateError, StopReason,
};
use pvr::store::{framing, read_container, write_header, write_section};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pvr-crash-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}.pvr"))
}

fn small_internet(seed: u64) -> Topology {
    let mut topology = internet_like(
        InternetParams {
            tier1: 3,
            tier2: 5,
            stubs: 12,
            t2_peering_prob: 0.25,
            ..InternetParams::default()
        },
        seed,
    );
    // Churn in the path: a couple of scheduled flaps so the recovered
    // run has pending local events and MRAI state to get right.
    let ases: Vec<Asn> = topology.ases().collect();
    let flapper = ases[ases.len() / 2];
    let prefix = Prefix::parse("203.0.113.0/24").expect("parse");
    topology.originate(flapper, prefix);
    topology.schedule(flapper, SimDuration::from_millis(40), LocalEvent::Withdraw(prefix));
    topology.schedule(flapper, SimDuration::from_millis(90), LocalEvent::Announce(prefix));
    topology
}

fn fault_plan(net_node_of: &dyn Fn(Asn) -> usize, ases: &[Asn], seed: u64) -> FaultPlan {
    let mut rng = HmacDrbg::from_u64_labeled(seed, "crash-recovery faults");
    let mut plan = FaultPlan::new();
    let a = ases[rng.index(ases.len())];
    let b = ases[rng.index(ases.len())];
    if a != b {
        plan.push(
            SimTime::ZERO + SimDuration::from_millis(30 + rng.below(100)),
            Fault::SessionReset { a: net_node_of(a), b: net_node_of(b) },
        );
    }
    plan
}

/// One full kill-and-recover cycle at `shards` shards: baseline run vs.
/// run-until-`kill_at` → checkpoint → drop ("crash") → restore →
/// replay. The recovered run must match its own uninterrupted baseline
/// exactly (RIBs, simulator stats, metrics snapshot) and, above one
/// shard, the one-shard RIB fingerprint too.
fn assert_recovery(
    topology: &Topology,
    options: InstantiateOptions,
    shards: usize,
    kill_at: SimTime,
) {
    let mut baseline = topology.instantiate_sharded(options, shards);
    assert_eq!(baseline.converge(RunLimits::none()), StopReason::Quiescent);

    let path = temp_path(&format!("s{shards}-{}-{}", options.seed, kill_at.as_micros()));
    let mut victim = topology.instantiate_sharded(options, shards);
    victim.converge(RunLimits::until(kill_at));
    victim.checkpoint(&path).expect("checkpoint");
    drop(victim); // the crash

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    assert_eq!(recovered.sim.shard_count(), shards, "restore must keep the shard shape");
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);

    assert_eq!(
        recovered.rib_fingerprint(),
        baseline.rib_fingerprint(),
        "recovered RIBs diverge from the uninterrupted run ({shards} shards, kill at {kill_at:?})"
    );
    assert_eq!(recovered.sim.stats(), baseline.sim.stats(), "SimStats diverge after recovery");
    assert_eq!(
        recovered.metrics_snapshot("plain"),
        baseline.metrics_snapshot("plain"),
        "metrics snapshots diverge after recovery"
    );
    if shards > 1 {
        // Shard-count invariance survives the crash: the recovered RIB
        // equals the one-shard run's.
        let mut serial = topology.instantiate(options);
        assert_eq!(serial.converge(RunLimits::none()), StopReason::Quiescent);
        assert_eq!(recovered.rib_fingerprint(), serial.rib_fingerprint());
    }
}

#[test]
fn serial_kill_and_recover_plain() {
    let topology = small_internet(301);
    let options = InstantiateOptions { seed: 301, ..Default::default() };
    assert_recovery(&topology, options, 1, SimTime(60_000));
}

#[test]
fn serial_kill_and_recover_signed_with_mrai_dampening() {
    // The full dynamic-state surface in one run: attestation chains,
    // verify-cache verdicts, jittered MRAI timers, dampening penalties.
    let topology = small_internet(302);
    let options = InstantiateOptions {
        seed: 302,
        signed: true,
        key_bits: 512,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(DampeningPolicy::default()),
        ..Default::default()
    };
    assert_recovery(&topology, options, 1, SimTime(55_000));
}

#[test]
fn serial_kill_and_recover_with_observability() {
    // Timelines and journals are run state too: a recovered run's
    // trace must cover the whole run, not the post-restore suffix.
    let topology = small_internet(303);
    let options = InstantiateOptions {
        seed: 303,
        timeline_window: Some(SimDuration::from_millis(5)),
        journal_capacity: 64,
        ..Default::default()
    };
    let mut baseline = topology.instantiate(options);
    assert_eq!(baseline.converge(RunLimits::none()), StopReason::Quiescent);

    let path = temp_path("serial-obs");
    let mut victim = topology.instantiate(options);
    victim.converge(RunLimits::until(SimTime(50_000)));
    victim.checkpoint(&path).expect("checkpoint");
    drop(victim);

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(recovered.trace_jsonl(), baseline.trace_jsonl(), "journals diverge");
    assert_eq!(
        recovered.convergence_timeline(),
        baseline.convergence_timeline(),
        "timelines diverge"
    );
}

#[test]
fn sharded_kill_and_recover_across_shard_counts() {
    let topology = small_internet(304);
    let options = InstantiateOptions { seed: 304, ..Default::default() };
    for shards in [1, 2, 4, 8] {
        assert_recovery(&topology, options, shards, SimTime(60_000));
    }
}

#[test]
fn kill_and_recover_with_fault_plan_pending() {
    // Checkpoint lands *before* the scheduled faults fire: the
    // unapplied plan rides in the engine section and fires on replay.
    let topology = small_internet(305);
    let options = InstantiateOptions { seed: 305, ..Default::default() };
    let ases: Vec<Asn> = topology.ases().collect();

    let mut baseline = topology.instantiate(options);
    let plan = fault_plan(&|a| baseline.node_of(a), &ases, 305);
    assert!(!plan.is_empty());
    baseline.install_fault_plan(plan);
    assert_eq!(baseline.converge(RunLimits::none()), StopReason::Quiescent);

    let path = temp_path("serial-faults");
    let mut victim = topology.instantiate(options);
    let plan = fault_plan(&|a| victim.node_of(a), &ases, 305);
    victim.install_fault_plan(plan);
    victim.converge(RunLimits::until(SimTime(20_000)));
    victim.checkpoint(&path).expect("checkpoint");
    drop(victim);

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(recovered.rib_fingerprint(), baseline.rib_fingerprint());
    assert_eq!(recovered.sim.stats(), baseline.sim.stats());
    assert!(recovered.sim.stats().session_resets > 0, "the pending fault must have fired");
}

#[test]
fn time_travel_queries_answer_from_history() {
    let mut topology = Topology::new();
    let (a, b, c) = (Asn(1), Asn(2), Asn(3));
    topology.provider_customer(a, b).provider_customer(b, c);
    let prefix = Prefix::parse("198.51.100.0/24").expect("parse");
    topology.originate(c, prefix);
    topology.schedule(c, SimDuration::from_millis(50), LocalEvent::Withdraw(prefix));

    let options = InstantiateOptions { seed: 7, ..Default::default() };
    let mut net = topology.instantiate(options);
    let reason = net.converge_with_snapshots(RunLimits::none(), SimDuration::from_millis(10));
    assert_eq!(reason, StopReason::Quiescent);

    let times = net.snapshot_times();
    assert!(times.len() >= 2, "expected several snapshots, got {times:?}");
    // While the route was up, A reached the prefix through B...
    let early = net.route_at(a, prefix, SimTime(40_000)).expect("route existed at 40 ms");
    assert_eq!(early.learned_from, Some(b));
    // ...and after the withdraw propagated, history says it vanished.
    let last = *times.last().expect("nonempty");
    assert_eq!(net.route_at(a, prefix, last), None, "route must be gone at quiescence");
}

#[test]
fn checkpoint_refuses_private_verification_and_malice() {
    let topology = small_internet(306);
    let pvr_options = InstantiateOptions {
        seed: 306,
        signed: true,
        key_bits: 512,
        private_verification: true,
        ..Default::default()
    };
    let mut net = topology.instantiate(pvr_options);
    let err = net.checkpoint(&temp_path("refused-pvr")).expect_err("PVR mode must refuse");
    assert!(matches!(err, CheckpointError::Refused(_)), "wrong error: {err:?}");

    let options = InstantiateOptions { seed: 306, ..Default::default() };
    let mut net = topology.instantiate(options);
    let victim = topology.ases().next().expect("nonempty");
    net.router_mut(victim).set_malice(Malice { leak_all: true });
    let err = net.checkpoint(&temp_path("refused-malice")).expect_err("malice must refuse");
    assert!(matches!(err, CheckpointError::Refused(_)), "wrong error: {err:?}");
}

#[test]
fn restore_reinstalls_the_origin_table() {
    let topology = small_internet(307);
    let options = InstantiateOptions { seed: 307, ..Default::default() };
    let mut net = topology.instantiate(options);
    net.install_origin_table(std::sync::Arc::new(topology.origin_table()));
    net.converge(RunLimits::until(SimTime(30_000)));
    let path = temp_path("origin-table");
    net.checkpoint(&path).expect("checkpoint");
    let baseline_fp = {
        assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
        net.rib_fingerprint()
    };
    drop(net);

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    // Spot-check the table is live again, then replay to equality.
    let any = topology.ases().next().expect("nonempty");
    assert_eq!(
        recovered.router(any).stats().origin_failures,
        0,
        "sanity: no rejections in a well-formed run"
    );
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(recovered.rib_fingerprint(), baseline_fp);
}

// ---------------------------------------------------------------------
// Corrupt-checkpoint hardening: no input may panic or half-apply.

/// Runs `net` until `kill_at`, checkpoints it to the temp file `tag`,
/// and returns the file's bytes.
fn checkpoint_at(mut net: BgpNetwork, kill_at: SimTime, tag: &str) -> Vec<u8> {
    let path = temp_path(tag);
    net.converge(RunLimits::until(kill_at));
    net.checkpoint(&path).expect("checkpoint");
    std::fs::read(&path).expect("read checkpoint")
}

/// A small mid-run checkpoint to mutilate.
fn checkpoint_bytes_fixture() -> Vec<u8> {
    let net =
        small_internet(308).instantiate(InstantiateOptions { seed: 308, ..Default::default() });
    checkpoint_at(net, SimTime(40_000), "fixture")
}

fn restore_mutilated(bytes: Vec<u8>, tag: &str) -> Result<BgpNetwork, CheckpointError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).expect("write mutilated");
    BgpNetwork::restore(&path)
}

/// `expect_err` without requiring `Debug` on the network type.
fn must_fail<T>(res: Result<T, CheckpointError>, what: &str) -> CheckpointError {
    match res {
        Ok(_) => panic!("{what}: restore unexpectedly succeeded"),
        Err(e) => e,
    }
}

#[test]
fn truncation_anywhere_is_a_typed_error() {
    let bytes = checkpoint_bytes_fixture();
    // Sweep truncation points across the whole file (step keeps the
    // test fast; includes 0 and the last byte).
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(997).collect();
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = must_fail(
            restore_mutilated(bytes[..cut].to_vec(), &format!("trunc-{cut}")),
            "truncated checkpoint",
        );
        assert!(
            !matches!(err, CheckpointError::Io(_)),
            "truncation at {cut} must be a corruption error, got {err:?}"
        );
    }
}

#[test]
fn bit_flips_anywhere_are_typed_errors() {
    let bytes = checkpoint_bytes_fixture();
    let mut rng = HmacDrbg::from_u64_labeled(308, "bit flip fuzz");
    for i in 0..64 {
        let at = rng.index(bytes.len());
        let bit = 1u8 << rng.below(8);
        let mut bad = bytes.clone();
        bad[at] ^= bit;
        // Every section is hash-trailed, so any flip is either caught
        // by a section hash, the store's node hashes, or a decoder.
        if let Err(err) = restore_mutilated(bad, &format!("flip-{i}")) {
            assert!(!matches!(err, CheckpointError::Io(_)), "flip at {at} gave {err:?}");
        } else {
            // A flip in pure padding space cannot happen: the format
            // has no padding. Reaching here means a corrupted file
            // restored silently.
            panic!("bit flip at byte {at} (mask {bit:#x}) restored successfully");
        }
    }
}

#[test]
fn version_bump_is_rejected() {
    let mut bytes = checkpoint_bytes_fixture();
    // Header: 8 bytes magic ‖ 4 bytes LE version.
    bytes[8] = bytes[8].wrapping_add(1);
    let err = must_fail(restore_mutilated(bytes, "version-bump"), "future version");
    assert!(!matches!(err, CheckpointError::Io(_)), "got {err:?}");
}

/// Section tags and META's engine-kind bytes (see the format table in
/// `pvr_bgp::checkpoint`).
const SEC_META: u8 = 1;
const SEC_ENGINE: u8 = 2;
const SEC_ROUTERS: u8 = 3;
const SEC_CACHE: u8 = 4;
const SEC_STORE: u8 = 5;
const KIND_SERIAL: u8 = 0;
const KIND_SHARDED: u8 = 1;

/// Rewrites section `tag`'s payload with `edit`, re-framing every
/// section with valid digests so that only restore's own consistency
/// checks can object.
fn reframe(bytes: &[u8], tag: u8, mut edit: impl FnMut(&mut Vec<u8>)) -> Vec<u8> {
    let sections = read_container(bytes, &CKPT_MAGIC, CKPT_VERSION).expect("well-formed file");
    let mut out = Vec::new();
    write_header(&CKPT_MAGIC, CKPT_VERSION, &mut out);
    for section in sections {
        let mut payload = section.payload;
        if section.tag == tag {
            edit(&mut payload);
        }
        write_section(section.tag, &payload, &mut out);
    }
    out
}

/// Rewrites META's engine-kind byte and shard count.
fn reframe_meta(bytes: &[u8], kind: u8, shards: u64) -> Vec<u8> {
    reframe(bytes, SEC_META, |payload| {
        let mut count = Vec::new();
        shards.encode(&mut count);
        payload[0] = kind;
        payload[1..1 + count.len()].copy_from_slice(&count);
    })
}

/// A checkpoint of a small plain network at `shards` shards, mid-run.
fn mid_run_checkpoint(seed: u64, shards: usize) -> Vec<u8> {
    let options = InstantiateOptions { seed, ..Default::default() };
    let net = small_internet(seed).instantiate_sharded(options, shards);
    checkpoint_at(net, SimTime(30_000), &format!("mid-run-{seed}-s{shards}"))
}

#[test]
fn engine_kind_must_match_shard_count() {
    let serial = mid_run_checkpoint(309, 1);
    let sharded = mid_run_checkpoint(309, 2);
    // Control: re-framing with the values the file already holds keeps
    // it restorable, so every refusal below is the kind/count check.
    restore_mutilated(reframe_meta(&serial, KIND_SERIAL, 1), "reframed-serial")
        .expect("re-framed serial file restores");
    restore_mutilated(reframe_meta(&sharded, KIND_SHARDED, 2), "reframed-sharded")
        .expect("re-framed sharded file restores");

    let cases = [
        (&serial, KIND_SHARDED, 1, "sharded kind at one shard"),
        (&serial, KIND_SERIAL, 2, "serial kind at two shards"),
        (&sharded, KIND_SERIAL, 2, "serial kind on a sharded file"),
        (&sharded, KIND_SHARDED, 1, "sharded file claiming one shard"),
    ];
    for (i, (bytes, kind, shards, what)) in cases.into_iter().enumerate() {
        let err = must_fail(
            restore_mutilated(reframe_meta(bytes, kind, shards), &format!("kind-{i}")),
            what,
        );
        assert!(
            matches!(err, CheckpointError::Corrupt(msg) if msg.contains("engine kind")),
            "{what}: got {err:?}"
        );
    }
}

#[test]
fn timeline_channel_count_is_checked_on_restore() {
    // The engine records a fixed set of timeline channels and indexes
    // them by constant; an ENGINE section claiming another count must
    // fail restore, not panic the first recorded window.
    let options = InstantiateOptions {
        seed: 313,
        timeline_window: Some(SimDuration::from_millis(5)),
        ..Default::default()
    };
    let bytes = checkpoint_at(small_internet(313).instantiate(options), SimTime(30_000), "tl");
    // The timeline header inside ENGINE: present ‖ window_us ‖ channels.
    let mut header = vec![1];
    5_000u64.encode(&mut header);
    let channels_at = header.len();
    3u64.encode(&mut header);
    for channels in [2u64, 4] {
        let bad = reframe(&bytes, SEC_ENGINE, |payload| {
            let at = payload
                .windows(header.len())
                .position(|w| w == header.as_slice())
                .expect("timeline header in ENGINE");
            let mut count = Vec::new();
            channels.encode(&mut count);
            payload[at + channels_at..at + header.len()].copy_from_slice(&count);
        });
        let err = must_fail(restore_mutilated(bad, &format!("tl-{channels}")), "channel count");
        assert!(
            matches!(err, CheckpointError::State(StateError::Corrupt(msg)) if msg.contains("channel count")),
            "{channels} channels: got {err:?}"
        );
    }
}

#[test]
fn sharded_file_restores_through_one_restore() {
    let topology = small_internet(310);
    let options = InstantiateOptions { seed: 310, ..Default::default() };
    let mut baseline = topology.instantiate_sharded(options, 2);
    assert_eq!(baseline.converge(RunLimits::none()), StopReason::Quiescent);

    let path = temp_path("one-restore-s2");
    let mut victim = topology.instantiate_sharded(options, 2);
    victim.converge(RunLimits::until(SimTime(30_000)));
    victim.checkpoint(&path).expect("checkpoint");
    drop(victim);

    let mut recovered = BgpNetwork::restore(&path).expect("restore");
    assert_eq!(recovered.sim.shard_count(), 2);
    assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(recovered.rib_fingerprint(), baseline.rib_fingerprint());
    assert_eq!(recovered.sim.stats(), baseline.sim.stats());
    assert_eq!(recovered.metrics_snapshot("plain"), baseline.metrics_snapshot("plain"));
}

/// The network whose checkpoint bytes are pinned below: the 56-AS seed
/// topology, signed, with MRAI batching.
fn pinned_network() -> (Topology, InstantiateOptions) {
    let options = InstantiateOptions {
        seed: 56,
        signed: true,
        key_bits: 512,
        mrai: Some(SimDuration::from_millis(5)),
        ..Default::default()
    };
    (internet_like(InternetParams::default(), 56), options)
}

/// Where the pinned network is cut: mid-convergence.
const PINNED_KILL_AT: SimTime = SimTime(35_000);
/// SHA-256 of the pinned checkpoint at one shard, 954 465 bytes.
const PINNED_SHA256_S1: &str = "36e746ed9715a4fb079b252f00fefab4171e564733662bae8189d8ff280d8cd8";
/// SHA-256 of the pinned checkpoint at two shards, 954 465 bytes. Only
/// META differs from the one-shard file (engine kind, shard count).
const PINNED_SHA256_S2: &str = "94a301f98a445fd774dfd49c23faf5cfccff52f70c2b86e272acff92b2383f52";

#[test]
fn checkpoint_bytes_are_pinned() {
    let (topology, options) = pinned_network();
    let one = checkpoint_at(topology.instantiate_sharded(options, 1), PINNED_KILL_AT, "pinned-s1");
    assert_eq!(sha256(&one).to_hex(), PINNED_SHA256_S1, "one-shard checkpoint bytes moved");
    let two = checkpoint_at(topology.instantiate_sharded(options, 2), PINNED_KILL_AT, "pinned-s2");
    assert_eq!(sha256(&two).to_hex(), PINNED_SHA256_S2, "two-shard checkpoint bytes moved");
    // `instantiate` is the one-shard network, byte for byte.
    let plain = checkpoint_at(topology.instantiate(options), PINNED_KILL_AT, "pinned-instantiate");
    assert!(plain == one, "instantiate and instantiate_sharded(_, 1) checkpoint differently");
}

/// `rib_fingerprint()` of the 56-AS seed network, plain, converged.
/// The signed+MRAI network converges to the same Loc-RIB.
const PINNED_RIB_CONVERGED: &str =
    "aecd0241b89da1be8d899b2312f4e34be897693dfa2b5a810bb978e0800ef789";
/// `rib_fingerprint()` of the signed+MRAI network at [`PINNED_KILL_AT`].
const PINNED_RIB_SIGNED_MID: &str =
    "6b4253858f0cd0fb72328a67e1eba0d03f5d95cb421e460f8decc48f4f66178e";

/// The RIB fingerprint is pinned on its own, apart from the checkpoint
/// format, and does not depend on whether a snapshot history exists.
#[test]
fn rib_fingerprints_are_pinned() {
    let (topology, signed) = pinned_network();
    let plain = InstantiateOptions { seed: signed.seed, ..Default::default() };

    let mut net = topology.instantiate(plain);
    assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
    assert_eq!(net.rib_fingerprint().to_hex(), PINNED_RIB_CONVERGED, "plain fingerprint moved");

    let mut net = topology.instantiate(signed);
    net.converge(RunLimits::until(PINNED_KILL_AT));
    assert_eq!(net.rib_fingerprint().to_hex(), PINNED_RIB_SIGNED_MID, "mid-run fingerprint moved");
    assert_eq!(net.converge(RunLimits::none()), StopReason::Quiescent);
    let fresh = net.rib_fingerprint();
    assert_eq!(fresh.to_hex(), PINNED_RIB_CONVERGED, "signed fingerprint moved");
    // With no history the fingerprint hashes every node; after a
    // snapshot it hashes only what differs from it. Same answer.
    assert_eq!(net.snapshot_rib(), fresh, "snapshot_rib disagrees with rib_fingerprint");
    assert_eq!(net.rib_fingerprint(), fresh);

    // A history captured along the way: the fingerprint is layered on
    // the last snapshot, hashes only the cells changed since, and still
    // equals a history-free run's.
    let mut partial = topology.instantiate(signed);
    partial
        .converge_with_snapshots(RunLimits::until(SimTime(20_000)), SimDuration::from_millis(10));
    let at_last_snapshot = partial.rib_fingerprint();
    partial.converge(RunLimits::until(PINNED_KILL_AT));
    assert_ne!(partial.rib_fingerprint(), at_last_snapshot, "no churn after the last snapshot");
    assert_eq!(partial.rib_fingerprint().to_hex(), PINNED_RIB_SIGNED_MID);

    let mut with_history = topology.instantiate(signed);
    let reason =
        with_history.converge_with_snapshots(RunLimits::none(), SimDuration::from_millis(10));
    assert_eq!(reason, StopReason::Quiescent);
    assert!(with_history.snapshot_times().len() > 2, "expected a history");
    assert_eq!(with_history.rib_fingerprint(), fresh);
    assert_eq!(with_history.snapshot_rib(), fresh);
}

#[test]
fn checkpoint_state_sections_match_across_shard_counts() {
    // One network-wide verify cache and one ENGINE layout make every
    // section but META (engine kind, shard count) independent of the
    // shard count — router counters, cache hits and the pending-event
    // calendar included.
    let (topology, options) = pinned_network();
    let files: Vec<Vec<u8>> = [1, 2, 4]
        .into_iter()
        .map(|shards| {
            let net = topology.instantiate_sharded(options, shards);
            checkpoint_at(net, PINNED_KILL_AT, &format!("sections-s{shards}"))
        })
        .collect();
    let sections = |bytes: &[u8], tag: u8| -> Vec<u8> {
        let all = framing::read_container(bytes, &CKPT_MAGIC, CKPT_VERSION).expect("well-formed");
        framing::require_section(&all, tag).expect("section present").to_vec()
    };
    for tag in [SEC_ENGINE, SEC_ROUTERS, SEC_CACHE, SEC_STORE] {
        let one = sections(&files[0], tag);
        for (bytes, shards) in files[1..].iter().zip([2, 4]) {
            assert!(sections(bytes, tag) == one, "section {tag} differs at {shards} shards");
        }
    }
    // One cache with live hits, not an empty section.
    let cache = sections(&files[0], SEC_CACHE);
    assert_eq!(cache[..4], 1u32.to_be_bytes(), "signed mode writes exactly one cache");
    assert!(u64::from_be_bytes(cache[12..20].try_into().unwrap()) > 0, "no cache hits recorded");
}

/// Verdict-byte flag for a cache entry inserted at the checkpoint
/// instant while events were still due there.
const INSERTED_NOW: u8 = 0b10;
/// Offset of the first CACHE entry: count u32, calls u64, hits u64,
/// entry count u32. Each entry is `signer u32 ‖ digest[32] ‖ verdict
/// u8`.
const CACHE_ENTRIES_AT: usize = 24;
const CACHE_ENTRY_LEN: usize = 37;

/// A copy of a checkpoint with every CACHE entry's [`INSERTED_NOW`]
/// flag cleared: the file a checkpoint would be if same-instant inserts
/// were restored visible. Also returns whether any flag was set.
fn strip_inserted_now_flags(bytes: &[u8]) -> (Vec<u8>, bool) {
    let mut flagged = false;
    let stripped = reframe(bytes, SEC_CACHE, |payload| {
        for entry in payload[CACHE_ENTRIES_AT..].chunks_mut(CACHE_ENTRY_LEN) {
            flagged |= entry[CACHE_ENTRY_LEN - 1] & INSERTED_NOW != 0;
            entry[CACHE_ENTRY_LEN - 1] &= !INSERTED_NOW;
        }
    });
    (stripped, flagged)
}

#[test]
fn malformed_cache_sections_are_typed_errors() {
    // One cache in signed mode, none in plain: any other count — such
    // as the two caches a two-shard file once carried — is refused, as
    // are counters that disagree with the routers' and verdict bytes
    // with unknown bits. Each case flips bits at one CACHE offset.
    let signed =
        InstantiateOptions { seed: 312, signed: true, key_bits: 512, ..Default::default() };
    let signed = checkpoint_at(small_internet(312).instantiate(signed), SimTime(30_000), "cache-s");
    let plain = mid_run_checkpoint(312, 1);
    let verdict_at = CACHE_ENTRIES_AT + CACHE_ENTRY_LEN - 1;
    let cases = [
        (&signed, 3, 0b11, "verify-cache count"), // 1 → 2 caches
        (&signed, 3, 0b01, "verify-cache count"), // 1 → 0 caches
        (&plain, 3, 0b01, "verify-cache count"),  // 0 → 1 cache
        (&signed, 11, 0b01, "counters"),          // calls (u64 at 4..12)
        (&signed, verdict_at, 0x80, "verdict byte"),
    ];
    for (i, (bytes, at, mask, expected)) in cases.into_iter().enumerate() {
        let bad = reframe(bytes, SEC_CACHE, |payload| payload[at] ^= mask);
        let err = must_fail(restore_mutilated(bad, &format!("cache-{i}")), expected);
        assert!(
            matches!(err, CheckpointError::Corrupt(msg) if msg.contains(expected)),
            "case {i} ({expected}): got {err:?}"
        );
    }
}

#[test]
fn mid_instant_kill_keeps_same_instant_cache_entries_invisible() {
    // Zero base latency with 2 µs of jitter: a third of all sends land
    // at the sending instant, so a receiver re-checks attestations its
    // sender inserted at that same instant, and an event budget can
    // stop, at any shard count, with events still due at the clock. Entries inserted at that instant
    // must come back invisible until the clock advances, or the replay
    // counts hits the never-crashed run did not.
    let topology = small_internet(311);
    let options = InstantiateOptions {
        seed: 311,
        signed: true,
        key_bits: 512,
        link: LinkConfig {
            latency: SimDuration::ZERO,
            jitter: SimDuration::from_micros(2),
            ..LinkConfig::default()
        },
        ..Default::default()
    };
    let mut serial = topology.instantiate(options);
    assert_eq!(serial.converge(RunLimits::none()), StopReason::Quiescent);
    for shards in [1, 2] {
        let mut baseline = topology.instantiate_sharded(options, shards);
        assert_eq!(baseline.converge(RunLimits::none()), StopReason::Quiescent);
        let hits = baseline.router_totals().verify_cache_hits;
        assert!(hits > 0, "the run must exercise the cache");

        // Stop one event into each instant in turn until the stop is
        // one where the flags matter: restoring the same file with them
        // cleared replays to a different hit count.
        let path = temp_path(&format!("mid-instant-s{shards}"));
        let mut victim = topology.instantiate_sharded(options, shards);
        loop {
            let limit = victim.sim.stats().events + 1;
            let limits = RunLimits { deadline: None, max_events: Some(limit) };
            let stop = victim.converge(limits);
            assert_eq!(stop, StopReason::EventLimit, "{shards} shards: no mid-instant stop found");
            if !victim.sim.pending_at_now() {
                continue;
            }
            victim.checkpoint(&path).expect("checkpoint");
            let (stripped, flagged) =
                strip_inserted_now_flags(&std::fs::read(&path).expect("read checkpoint"));
            victim.converge(RunLimits::until(victim.sim.now()));
            if !flagged {
                continue;
            }
            let mut wrong = restore_mutilated(stripped, &format!("mid-instant-stripped-s{shards}"))
                .expect("a flag-stripped file still restores");
            assert_eq!(wrong.converge(RunLimits::none()), StopReason::Quiescent);
            // Visibility changes hit counts, never verdicts.
            assert_eq!(wrong.rib_fingerprint(), baseline.rib_fingerprint());
            if wrong.router_totals().verify_cache_hits != hits {
                break;
            }
        }
        drop(victim);

        let mut recovered = BgpNetwork::restore(&path).expect("restore");
        assert_eq!(recovered.converge(RunLimits::none()), StopReason::Quiescent);
        assert_eq!(recovered.rib_fingerprint(), baseline.rib_fingerprint());
        assert_eq!(recovered.sim.stats(), baseline.sim.stats());
        for asn in topology.ases() {
            let stats = recovered.router(asn).stats();
            assert_eq!(stats, baseline.router(asn).stats(), "{asn} after recovery");
            assert_eq!(stats, serial.router(asn).stats(), "{asn} at {shards} shards vs serial");
        }
        assert_eq!(recovered.metrics_snapshot("signed"), baseline.metrics_snapshot("signed"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random topologies × random kill instants × random shard counts:
    /// kill-and-recover equality holds everywhere, with dampening and
    /// signing in the path on alternating seeds.
    #[test]
    fn random_kills_recover_identically(
        seed in 0u64..10_000,
        tier2 in 3usize..=6,
        stubs in 4usize..=12,
        kill_ms in 10u64..150,
        shards in 1usize..=8,
    ) {
        let params = InternetParams {
            tier1: 2,
            tier2,
            stubs,
            t2_peering_prob: 0.3,
            ..InternetParams::default()
        };
        let topology = internet_like(params, seed);
        let options = InstantiateOptions {
            seed,
            signed: seed % 3 == 0,
            key_bits: 512,
            dampening: if seed % 2 == 1 { Some(DampeningPolicy::default()) } else { None },
            ..Default::default()
        };
        let kill_at = SimTime(kill_ms * 1000);
        assert_recovery(&topology, options, shards, kill_at);
    }
}
