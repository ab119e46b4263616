//! One batch job of a workload: set up the network, converge it to
//! quiescence, fingerprint the converged RIB and, on
//! `checkpoint-recover`, kill at the middle checkpoint, restore and
//! replay.

use crate::net::Net;
use crate::trace::{cpu_seconds, Tracer};
use crate::{Checks, Config, RunDigest, Workload};
use pvr_bgp::{internet_like, AsPath, Asn, Prefix, RouterStats, SmcBatchStats};
use pvr_netsim::{RunLimits, SimDuration, SimStats, SimTime, StopReason};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `checkpoint-recover` writes a checkpoint every 10 ms of sim time,
/// as e18 does.
pub const CHECKPOINT_EVERY_US: u64 = 10_000;

/// Wall times of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `internet_like` (plus e18's flap on `checkpoint-recover`).
    pub generate_s: f64,
    /// `instantiate`/`instantiate_sharded`, key generation included.
    pub instantiate_s: f64,
    /// Generation, instantiation and installing the origin table.
    pub total_s: f64,
}

/// Generates the workload's topology and instantiates it.
pub fn setup(cfg: &Config, tr: &mut Tracer) -> (Net, SetupTimes) {
    let w = cfg.workload;
    let t = Instant::now();
    let topology = tr.span("topology.generate", |_| {
        let mut topology = internet_like(pvr_bench::e14_params(cfg.ases), cfg.seed);
        if w == Workload::CheckpointRecover {
            // e18's scheduled flap, so the kill point crosses pending
            // local events.
            let ases: Vec<Asn> = topology.ases().collect();
            let flapper = ases[ases.len() / 2];
            let flap_prefix = Prefix::parse("203.0.113.0/24").expect("valid prefix");
            topology.originate(flapper, flap_prefix);
            topology.schedule(
                flapper,
                SimDuration::from_millis(40),
                pvr_bgp::LocalEvent::Withdraw(flap_prefix),
            );
            topology.schedule(
                flapper,
                SimDuration::from_millis(90),
                pvr_bgp::LocalEvent::Announce(flap_prefix),
            );
        }
        topology
    });
    let generate_s = t.elapsed().as_secs_f64();
    let t_inst = Instant::now();
    let options = w.options(cfg.seed);
    let mut net =
        tr.span("topology.instantiate", |_| Net::instantiate(&topology, options, w.shards()));
    let instantiate_s = t_inst.elapsed().as_secs_f64();
    if options.signed {
        tr.span("topology.origin_table", |_| {
            net.install_origin_table(Arc::new(topology.origin_table()))
        });
    }
    (net, SetupTimes { generate_s, instantiate_s, total_s: t.elapsed().as_secs_f64() })
}

/// What the checkpoint layer did in one job.
#[derive(Clone, Debug, Default)]
pub struct CheckpointRun {
    /// Checkpoint files, ascending by boundary.
    pub files: Vec<PathBuf>,
    pub total_bytes: u64,
    /// Engine slices and `checkpoint()` calls, timed apart (traced job
    /// only: the untraced job calls `converge_checkpointed`).
    pub engine_slices_s: f64,
    pub write_s: f64,
    pub restore_s: f64,
    pub replay_s: f64,
    pub replay_events: u64,
}

/// What converging one network cost and produced.
pub struct Converged {
    pub setup: SetupTimes,
    pub setup_cpu_s: f64,
    pub converge_s: f64,
    pub converge_cpu_s: f64,
    /// `checkpoint-recover` only; the files are left in the job's
    /// directory for recovery.
    pub checkpoint: Option<CheckpointRun>,
    pub digest: RunDigest,
    pub sim: SimStats,
    pub routers: RouterStats,
    /// Network-wide (Adj-RIB-In, Loc-RIB) entries at quiescence.
    pub rib: (u64, u64),
    pub smc: Option<SmcBatchStats>,
}

/// Sets up a network and converges it to quiescence, checking that the
/// run stops `Quiescent` and that the honest run rejected nothing. The
/// digest's RIB hash is filled in by [`fingerprint`].
pub fn converge(
    cfg: &Config,
    tr: &mut Tracer,
    dir: &Path,
    checks: &mut Checks,
) -> (Net, Converged) {
    let w = cfg.workload;
    let c = cpu_seconds();
    let (mut net, setup) = tr.span("setup", |tr| setup(cfg, tr));
    let setup_cpu_s = cpu_seconds() - c;

    let t = Instant::now();
    let c = cpu_seconds();
    let (stop, mut checkpoint) = tr.span("converge", |tr| {
        if w != Workload::CheckpointRecover {
            (Some(net.converge(RunLimits::none())), None)
        } else if tr.enabled() {
            converge_sliced(&mut net, tr, dir, checks)
        } else {
            match net.converge_checkpointed(SimDuration::from_micros(CHECKPOINT_EVERY_US), dir) {
                Ok((stop, _)) => (Some(stop), Some(CheckpointRun::default())),
                Err(e) => {
                    checks.record(
                        &format!("converge_checkpointed writes its checkpoints ({e})"),
                        false,
                    );
                    (None, None)
                }
            }
        }
    });
    let converge_s = t.elapsed().as_secs_f64();
    let converge_cpu_s = cpu_seconds() - c;
    checks.record("uninterrupted run stops Quiescent", stop == Some(StopReason::Quiescent));

    let sim = net.sim_stats();
    let routers = net.router_totals();
    let smc = net.smc_stats();
    checks.record(
        "honest run: zero attestation and origin failures",
        routers.attestation_failures == 0 && routers.origin_failures == 0,
    );
    if let Some(s) = &smc {
        checks.record(
            "every SMC verdict passes and is delivered",
            s.verdict_fail == 0
                && s.verdict_pass == s.requests
                && s.verdicts_delivered == s.requests,
        );
    }
    let mut digest = RunDigest {
        events: sim.events,
        bytes_sent: sim.bytes_sent,
        sim_converge_us: net.now_us(),
        rib_sha256: String::new(),
        checkpoint_bytes: 0,
    };
    if let Some(ck) = checkpoint.as_mut() {
        ck.files = checkpoint_files(dir);
        ck.total_bytes =
            ck.files.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
        digest.checkpoint_bytes = ck.total_bytes;
    }
    let rib = net.rib_entries();
    let converged = Converged {
        setup,
        setup_cpu_s,
        converge_s,
        converge_cpu_s,
        checkpoint,
        digest,
        sim,
        routers,
        rib,
        smc,
    };
    (net, converged)
}

/// `rib_fingerprint()` on the converged network: (hex SHA-256, wall
/// seconds, CPU seconds).
pub fn fingerprint(net: &Net, tr: &mut Tracer) -> (String, f64, f64) {
    let t = Instant::now();
    let c = cpu_seconds();
    let sha = tr.span("store.fingerprint", |_| net.rib_fingerprint_hex());
    (sha, t.elapsed().as_secs_f64(), cpu_seconds() - c)
}

/// Everything one job measured and observed.
pub struct JobResult {
    pub converged: Converged,
    /// Set-up to the end of recovery.
    pub wall_s: f64,
    pub fingerprint_s: f64,
    /// Attestation payloads shaped like the converged network's exports
    /// (signer, prefix, path headed by the signer, target); traced
    /// signed jobs only.
    pub payloads: Vec<(Asn, Prefix, AsPath, Asn)>,
}

/// Runs one whole job: converge, fingerprint and, on
/// `checkpoint-recover`, recover. `dir` receives checkpoint files; the
/// caller removes it.
pub fn run_job(cfg: &Config, tr: &mut Tracer, dir: &Path, checks: &mut Checks) -> JobResult {
    let t_job = Instant::now();
    let (net, mut converged) = converge(cfg, tr, dir, checks);
    let (sha, fingerprint_s, _) = fingerprint(&net, tr);
    converged.digest.rib_sha256 = sha;
    let payloads = if tr.enabled() && cfg.workload.options(cfg.seed).signed {
        sample_payloads(&net)
    } else {
        Vec::new()
    };
    // Recovery builds a second network; the first is gone after a crash.
    drop(net);
    if let Some(mut ck) = converged.checkpoint.take() {
        recover(cfg, tr, &mut ck, &converged.digest, &converged.sim, checks);
        converged.checkpoint = Some(ck);
    }
    JobResult { converged, wall_s: t_job.elapsed().as_secs_f64(), fingerprint_s, payloads }
}

/// The traced job drives the 10 ms boundaries itself, with
/// `converge(RunLimits::until(t))` then `checkpoint()`, so engine time
/// and checkpoint time are timed apart. Boundaries and file names match
/// `converge_checkpointed`.
fn converge_sliced(
    net: &mut Net,
    tr: &mut Tracer,
    dir: &Path,
    checks: &mut Checks,
) -> (Option<StopReason>, Option<CheckpointRun>) {
    let mut ck = CheckpointRun::default();
    if let Err(e) = std::fs::create_dir_all(dir) {
        checks.record(&format!("create checkpoint directory ({e})"), false);
        return (None, None);
    }
    let mut next = net.now_us() / CHECKPOINT_EVERY_US * CHECKPOINT_EVERY_US + CHECKPOINT_EVERY_US;
    loop {
        let t = Instant::now();
        let reason = tr.span("engine.slice", |_| net.converge(RunLimits::until(SimTime(next))));
        ck.engine_slices_s += t.elapsed().as_secs_f64();
        let path = dir.join(format!("ckpt-{:08}.pvr", next / 1000));
        let t = Instant::now();
        let written = tr.span("checkpoint.write", |_| net.checkpoint(&path));
        ck.write_s += t.elapsed().as_secs_f64();
        if let Err(e) = written {
            checks.record(&format!("checkpoint() writes {} ({e})", path.display()), false);
            return (None, None);
        }
        if reason != StopReason::Deadline {
            return (Some(reason), Some(ck));
        }
        next += CHECKPOINT_EVERY_US;
    }
}

/// The crash: restore the middle checkpoint, replay to quiescence, and
/// compare with the uninterrupted run.
pub fn recover(
    cfg: &Config,
    tr: &mut Tracer,
    ck: &mut CheckpointRun,
    uninterrupted: &RunDigest,
    uninterrupted_sim: &SimStats,
    checks: &mut Checks,
) {
    let Some(kill_point) = ck.files.get(ck.files.len() / 2).cloned() else {
        checks.record("the run wrote checkpoints", false);
        return;
    };
    let t = Instant::now();
    let restored =
        tr.span("checkpoint.restore", |_| Net::restore(cfg.workload.shards(), &kill_point));
    ck.restore_s = t.elapsed().as_secs_f64();
    let mut net = match restored {
        Ok(net) => net,
        Err(e) => {
            checks.record(&format!("restore {} ({e})", kill_point.display()), false);
            return;
        }
    };
    let events_at_kill = net.sim_stats().events;
    let t = Instant::now();
    let stop = tr.span("checkpoint.replay", |_| net.converge(RunLimits::none()));
    ck.replay_s = t.elapsed().as_secs_f64();
    ck.replay_events = net.sim_stats().events - events_at_kill;
    checks.record("recovered run stops Quiescent", stop == StopReason::Quiescent);
    checks.record(
        "recovered RIB fingerprint and SimStats equal the uninterrupted run's",
        net.rib_fingerprint_hex() == uninterrupted.rib_sha256
            && &net.sim_stats() == uninterrupted_sim,
    );
}

/// Checkpoint files in `dir`, ascending by name (= by boundary).
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.retain(|p| {
        p.extension().is_some_and(|x| x == "pvr")
            && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("ckpt-"))
    });
    files.sort();
    files
}

/// Up to 256 attestation payloads as eight routers spread over the ASN
/// range would export their converged best routes: the path with the
/// signer prepended, addressed to the neighbor it was learned from.
fn sample_payloads(net: &Net) -> Vec<(Asn, Prefix, AsPath, Asn)> {
    let mut routers = Vec::new();
    net.for_each_router(|r| routers.push(r.asn()));
    let step = (routers.len() / 8).max(1);
    let picked: Vec<Asn> = routers.iter().step_by(step).take(8).copied().collect();
    let mut out = Vec::new();
    net.for_each_router(|r| {
        if !picked.contains(&r.asn()) {
            return;
        }
        for prefix in r.selected_prefixes().into_iter().take(32) {
            if let Some(cand) = r.best_route(prefix) {
                let path = cand.route.path.prepend(r.asn());
                out.push((r.asn(), prefix, path, cand.learned_from.unwrap_or(r.asn())));
            }
        }
    });
    out
}
