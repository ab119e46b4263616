//! The PVR workspace benchmark: three batch workloads, each converging
//! one network to quiescence, with end-to-end metrics from an untraced
//! run and per-layer metrics from a traced one. See `README.md` beside
//! this crate for the workloads, the metrics and the layer map.

mod job;
mod micro;
mod net;
mod trace;

mod expected;
pub use expected::{Expected, EXPECTED};

use job::run_job;
use pvr_bgp::InstantiateOptions;
use pvr_netsim::SimDuration;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use trace::{peak_rss_mb, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ConvergePlain,
    ConvergePvr,
    CheckpointRecover,
}

pub const WORKLOADS: [Workload; 3] =
    [Workload::ConvergePlain, Workload::ConvergePvr, Workload::CheckpointRecover];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvergePlain => "converge-plain",
            Workload::ConvergePvr => "converge-pvr",
            Workload::CheckpointRecover => "checkpoint-recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The seed e14 (converge workloads) or e18 uses.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::CheckpointRecover => 18,
            _ => 14,
        }
    }

    /// AS count handed to `pvr_bench::e14_params`.
    pub fn default_ases(self) -> usize {
        match self {
            Workload::ConvergePlain => 2000,
            Workload::ConvergePvr => 500,
            Workload::CheckpointRecover => 300,
        }
    }

    /// Minimum (set-up, converge) samples of the untraced run: as many
    /// as fit its budget on a 2-core machine.
    fn min_converges(self) -> usize {
        match self {
            Workload::ConvergePlain => 3,
            Workload::ConvergePvr => 2,
            Workload::CheckpointRecover => 1,
        }
    }

    /// Engine shards: 1 is the serial engine.
    pub fn shards(self) -> usize {
        match self {
            Workload::ConvergePvr => 2,
            _ => 1,
        }
    }

    pub fn options(self, seed: u64) -> InstantiateOptions {
        let base = InstantiateOptions { seed, key_bits: 512, ..Default::default() };
        match self {
            Workload::ConvergePlain => base,
            Workload::ConvergePvr => InstantiateOptions {
                signed: true,
                private_verification: true,
                smc_lane_cap: 64,
                ..base
            },
            Workload::CheckpointRecover => InstantiateOptions {
                signed: true,
                mrai: Some(SimDuration::from_millis(5)),
                mrai_jitter: Some(SimDuration::from_millis(1)),
                dampening: Some(pvr_bgp::DampeningPolicy::default()),
                ..base
            },
        }
    }
}

/// One invocation of the benchmark.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// The untraced run repeats `rib_fingerprint()`, and then (set-up,
    /// converge) pairs, until each has taken this much wall time.
    pub seconds: f64,
    pub trace: bool,
    pub ases: usize,
    /// Parent of the per-run temporary directory.
    pub work_root: PathBuf,
}

/// Name and unit of every end-to-end metric (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("converge_s", "s"),
    ("fingerprint_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric (`--trace 1`): layer, name, unit.
pub const PER_LAYER: [(&str, &str, &str); 48] = [
    ("topology", "topology.generate_s", "s"),
    ("topology", "topology.instantiate_s", "s"),
    ("crypto", "crypto.keygen_ms", "ms"),
    ("crypto", "crypto.sign_us", "us"),
    ("crypto", "crypto.verify_us", "us"),
    ("crypto", "crypto.signs", "count"),
    ("crypto", "crypto.rsa_verifies", "count"),
    ("crypto", "crypto.sign_share", "ratio"),
    ("crypto", "crypto.verify_share", "ratio"),
    ("sbgp", "sbgp.verify_calls", "count"),
    ("sbgp", "sbgp.verify_cache_hits", "count"),
    ("sbgp", "sbgp.verify_hit_ratio", "ratio"),
    ("router", "router.updates_rx", "count"),
    ("router", "router.best_changes", "count"),
    ("router", "router.short_circuits", "count"),
    ("router", "router.short_circuit_ratio", "ratio"),
    ("router", "router.rib_entries", "count"),
    ("netsim", "netsim.events", "count"),
    ("netsim", "netsim.messages_sent", "count"),
    ("netsim", "netsim.bytes_sent", "bytes"),
    ("netsim", "netsim.timers_fired", "count"),
    ("netsim", "netsim.events_per_s", "1/s"),
    ("netsim", "netsim.busy_ratio", "ratio"),
    ("netsim", "netsim.sim_converge_s", "sim_s"),
    ("smc", "smc.requests", "count"),
    ("smc", "smc.batches", "count"),
    ("smc", "smc.lane_occupancy", "ratio"),
    ("smc", "smc.and_gates", "count"),
    ("smc", "smc.triples", "count"),
    ("smc", "smc.bits_broadcast", "bits"),
    ("smc", "smc.modeled_s", "sim_s"),
    ("smc", "smc.batch_us", "us"),
    ("store", "store.rib_routes", "count"),
    ("store", "store.fingerprint_us_per_route", "us"),
    ("checkpoint", "checkpoint.files", "count"),
    ("checkpoint", "checkpoint.write_s", "s"),
    ("checkpoint", "checkpoint.write_mb_s", "MB/s"),
    ("checkpoint", "checkpoint.engine_slices_s", "s"),
    ("checkpoint", "checkpoint.routers_mb", "MB"),
    ("checkpoint", "checkpoint.cache_mb", "MB"),
    ("checkpoint", "checkpoint.store_mb", "MB"),
    ("checkpoint", "checkpoint.total_mb", "MB"),
    ("checkpoint", "checkpoint.restore_s", "s"),
    ("checkpoint", "checkpoint.replay_events", "count"),
    ("checkpoint", "checkpoint.replay_s", "s"),
    ("checkpoint", "checkpoint.recover_s", "s"),
    ("trace", "trace.overhead_s", "s"),
    ("trace", "trace.untraced_job_s", "s"),
];

/// The end-to-end metric each layer's metrics should move, and where.
pub fn layer_moves(layer: &str) -> &'static str {
    match layer {
        "topology" => "setup_s on all three, mostly via keygen on converge-pvr and checkpoint-recover",
        "crypto" => "converge_s on converge-pvr (largest) and checkpoint-recover; recover_s; none on converge-plain",
        "sbgp" => "converge_s on converge-pvr",
        "router" => "converge_s, peak_rss_mb on converge-plain",
        "netsim" => "converge_s on converge-plain; barrier-idle share of converge_s on converge-pvr",
        "smc" => "sim_converge_s on converge-pvr; host time is negligible",
        "store" => "fingerprint_s on all three, mostly converge-plain",
        "checkpoint" => "converge_s, recover_s, checkpoint_mb on checkpoint-recover; none elsewhere",
        "trace" => "none: traced job wall time minus the mean untraced job's",
        _ => "",
    }
}

/// The deterministic outputs that pin a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunDigest {
    pub events: u64,
    pub bytes_sent: u64,
    pub sim_converge_us: u64,
    /// Hex SHA-256 of the converged Loc-RIB (`rib_fingerprint`).
    pub rib_sha256: String,
    /// Total checkpoint bytes written (`checkpoint-recover` only).
    pub checkpoint_bytes: u64,
}

/// Output checks, each one operation that passes or fails.
#[derive(Clone, Debug, Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    pub fn record(&mut self, what: &str, ok: bool) {
        self.0.push((what.to_string(), ok));
    }

    pub fn attempted(&self) -> usize {
        self.0.len()
    }

    pub fn failed(&self) -> usize {
        self.0.iter().filter(|(_, ok)| !ok).count()
    }
}

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one invocation measured and checked.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Human-readable tables.
    pub report: String,
    /// Spans of the traced run, as JSON lines (empty when untraced).
    pub spans_jsonl: String,
    /// The run's deterministic outputs (the first untraced job's, when
    /// traced).
    pub digest: RunDigest,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed() == 0,
            self.checks.attempted(),
            self.checks.failed(),
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-run temporary directory, removed when dropped: after the
/// run, after a failed check, and while a panic unwinds.
struct RunDir(PathBuf);

impl RunDir {
    fn create(cfg: &Config) -> std::io::Result<RunDir> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let n = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = cfg.work_root.join(format!("{}-{}-{n}", cfg.workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one invocation. `expected` holds the recorded deterministic
/// outputs; a run whose (workload, seed, AS count) has an entry must
/// reproduce it exactly.
pub fn run(cfg: &Config, expected: &[Expected]) -> std::io::Result<Outcome> {
    let run_dir = RunDir::create(cfg)?;
    let mut checks = Checks::default();
    let mut report = String::new();
    let w = cfg.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    writeln!(
        report,
        "perfbench {} seed {}: {} ASes, {} shard(s), trace {}; nproc {nproc}, {}, {}",
        w.name(),
        cfg.seed,
        cfg.ases,
        w.shards(),
        u8::from(cfg.trace),
        cpu_model(),
        env!("PERFBENCH_RUSTC")
    )
    .expect("write to String");

    let (metrics, spans_jsonl, digest) = if cfg.trace {
        traced(cfg, &run_dir.0, &mut checks, &mut report)
    } else {
        untraced(cfg, &run_dir.0, &mut checks, &mut report)
    };
    check_expected(cfg, &digest, expected, &mut checks);

    writeln!(report, "checks: {} attempted, {} failed", checks.attempted(), checks.failed())
        .expect("write to String");
    for (what, ok) in &checks.0 {
        writeln!(report, "  {} {what}", if *ok { "PASS" } else { "FAIL" })
            .expect("write to String");
    }
    drop(run_dir);
    Ok(Outcome { checks, metrics, report, spans_jsonl, digest })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string())
}

fn check_expected(cfg: &Config, got: &RunDigest, expected: &[Expected], checks: &mut Checks) {
    let Some(e) = expected
        .iter()
        .find(|e| e.workload == cfg.workload.name() && e.seed == cfg.seed && e.ases == cfg.ases)
    else {
        return;
    };
    checks.record(&format!("events equal the recorded {}", e.events), got.events == e.events);
    checks.record(
        &format!("bytes_sent equals the recorded {}", e.bytes_sent),
        got.bytes_sent == e.bytes_sent,
    );
    checks.record(
        &format!("sim-time to quiescence equals the recorded {} us", e.sim_converge_us),
        got.sim_converge_us == e.sim_converge_us,
    );
    checks.record(
        &format!("RIB SHA-256 equals the recorded {}", e.rib_sha256),
        got.rib_sha256 == e.rib_sha256,
    );
    if cfg.workload == Workload::CheckpointRecover {
        checks.record(
            &format!("checkpoint bytes equal the recorded {}", e.checkpoint_bytes),
            got.checkpoint_bytes == e.checkpoint_bytes,
        );
    }
}

/// Calls `f` at least `min` times, then again while less than
/// `budget_s` has passed since the first call, at most `max` times.
fn repeat<T>(min: usize, max: usize, budget_s: f64, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed().as_secs_f64() < budget_s) {
        out.push(f(out.len()));
    }
    out
}

/// The untraced run has at least this many set-up samples.
const MIN_SETUPS: usize = 3;
/// Upper bounds on the repeated phases, for fast machines and tiny
/// scales.
const MAX_CONVERGES: usize = 8;
const MAX_FINGERPRINTS: usize = 20;

/// The end-to-end run, in phases that each report medians:
/// 1. one whole job: set-up, converge, `rib_fingerprint()` repeated for
///    `cfg.seconds` and, on `checkpoint-recover`, recovery from the
///    middle checkpoint. `peak_rss_mb` is read at its end, so it is the
///    peak of one job whatever the run does next;
/// 2. more (set-up, converge) pairs until the pairs have taken
///    `cfg.seconds`;
/// 3. set-ups alone until there are [`MIN_SETUPS`] set-up samples.
fn untraced(
    cfg: &Config,
    run_dir: &Path,
    checks: &mut Checks,
    report: &mut String,
) -> (Vec<Metric>, String, RunDigest) {
    let mut tr = Tracer::new(false);
    let w = cfg.workload;
    let dir_of = |k: usize| run_dir.join(format!("job-{k}"));

    let t_pair = Instant::now();
    let (net, mut first) = job::converge(cfg, &mut tr, &dir_of(0), checks);
    let first_pair_s = t_pair.elapsed().as_secs_f64();
    let prints = repeat(1, MAX_FINGERPRINTS, cfg.seconds, |_| job::fingerprint(&net, &mut tr));
    if prints.len() > 1 {
        checks.record(
            &format!("all {} fingerprints of the converged RIB agree", prints.len()),
            prints.iter().all(|p| p.0 == prints[0].0),
        );
    }
    first.digest.rib_sha256 = prints[0].0.clone();
    drop(net);
    let mut recover_cpu = 0.0;
    if let Some(ck) = first.checkpoint.as_mut() {
        let c = trace::cpu_seconds();
        job::recover(cfg, &mut tr, ck, &first.digest, &first.sim, checks);
        recover_cpu = trace::cpu_seconds() - c;
    }
    let _ = std::fs::remove_dir_all(dir_of(0));
    let peak_rss = peak_rss_mb();

    let (mut setup_s, mut setup_cpu) = (vec![first.setup.total_s], vec![first.setup_cpu_s]);
    let (mut converge_s, mut converge_cpu) = (vec![first.converge_s], vec![first.converge_cpu_s]);
    let more = w.min_converges() - 1;
    let budget = cfg.seconds - first_pair_s;
    let digests = repeat(more, MAX_CONVERGES - 1, budget, |k| {
        let (net, c) = job::converge(cfg, &mut tr, &dir_of(k + 1), checks);
        drop(net);
        let _ = std::fs::remove_dir_all(dir_of(k + 1));
        setup_s.push(c.setup.total_s);
        setup_cpu.push(c.setup_cpu_s);
        converge_s.push(c.converge_s);
        converge_cpu.push(c.converge_cpu_s);
        RunDigest { rib_sha256: first.digest.rib_sha256.clone(), ..c.digest }
    });
    if !digests.is_empty() {
        checks.record(
            &format!(
                "{} more converges reproduce the first one's events, bytes and sim-time",
                digests.len()
            ),
            digests.iter().all(|d| *d == first.digest),
        );
    }

    while setup_s.len() < MIN_SETUPS {
        let c = trace::cpu_seconds();
        let (net, times) = job::setup(cfg, &mut tr);
        drop(net);
        setup_cpu.push(trace::cpu_seconds() - c);
        setup_s.push(times.total_s);
    }

    let fingerprint_s = median(prints.iter().map(|p| p.1).collect());
    // CPU of one whole job, from the median of each phase.
    let cpu_s = median(setup_cpu.clone())
        + median(converge_cpu.clone())
        + median(prints.iter().map(|p| p.2).collect())
        + recover_cpu;
    let values =
        [median(setup_s.clone()), median(converge_s.clone()), fingerprint_s, cpu_s, peak_rss];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    writeln!(
        report,
        "end-to-end (medians of {} set-ups, {} converges, {} fingerprints):",
        setup_s.len(),
        converge_s.len(),
        prints.len()
    )
    .expect("write to String");
    for m in &metrics {
        writeln!(report, "  {:<16} {:>14.4} {}", m.name, m.value, m.unit).expect("write to String");
    }
    // Shown, not in the result line: they exist on one workload only,
    // or are deterministic (pinned by the recorded-value checks).
    if let Some(ck) = &first.checkpoint {
        writeln!(report, "  {:<16} {:>14.4} s", "recover_s", ck.restore_s + ck.replay_s)
            .expect("write to String");
        writeln!(report, "  {:<16} {:>14.4} MB", "checkpoint_mb", ck.total_bytes as f64 / 1e6)
            .expect("write to String");
    }
    let d = &first.digest;
    writeln!(report, "  {:<16} {:>14.4} sim_s", "sim_converge_s", d.sim_converge_us as f64 / 1e6)
        .expect("write to String");
    writeln!(
        report,
        "  events {}, bytes_sent {}, sim-time {} us, checkpoint bytes {}, rib sha256 {}",
        d.events, d.bytes_sent, d.sim_converge_us, d.checkpoint_bytes, d.rib_sha256
    )
    .expect("write to String");
    (metrics, String::new(), first.digest)
}

/// Runs `f` in its own directory under the run directory and removes
/// that directory afterwards.
fn job_in_dir<R>(run_dir: &Path, k: usize, f: impl FnOnce(&Path) -> R) -> R {
    let dir = run_dir.join(format!("job-{k}"));
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The traced run: the job with spans at every layer boundary, between
/// two untraced runs of it (the first job in a process pays for fresh
/// memory, so one untraced job before would bias the overhead), then
/// the direct crypto and SMC calls.
fn traced(
    cfg: &Config,
    run_dir: &Path,
    checks: &mut Checks,
    report: &mut String,
) -> (Vec<Metric>, String, RunDigest) {
    let untraced = |k, checks: &mut Checks| {
        job_in_dir(run_dir, k, |dir| run_job(cfg, &mut Tracer::new(false), dir, checks))
    };
    let before = untraced(0, checks);
    let mut tr = Tracer::new(true);
    tr.set_job(1);
    let (j, sections) = job_in_dir(run_dir, 1, |dir| {
        let j = run_job(cfg, &mut tr, dir, checks);
        let sections = j
            .converged
            .checkpoint
            .as_ref()
            .map(|ck| tr.span("checkpoint.inspect", |_| section_sizes(&ck.files)));
        (j, sections)
    });
    let after = untraced(2, checks);
    checks.record(
        "traced job's events, fingerprint and checkpoint bytes equal the untraced jobs'",
        j.converged.digest == before.converged.digest
            && after.converged.digest == before.converged.digest,
    );
    let untraced_s = (before.wall_s + after.wall_s) / 2.0;

    let w = cfg.workload;
    tr.set_job(2);
    let (keygen_ms, sign_us, verify_us) = if j.payloads.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        micro::crypto(&j.payloads, w.options(cfg.seed).key_bits, cfg.seed, &mut tr, checks)
    };
    let smc = j.converged.smc.clone().unwrap_or_default();
    let batch_us = if smc.batches > 0 {
        micro::smc(&smc, w.options(cfg.seed).smc_lane_cap, cfg.seed, &mut tr, checks)
    } else {
        0.0
    };

    let c = &j.converged;
    let r = &c.routers;
    let signed = w.options(cfg.seed).signed;
    // Each signed announcement received carries one attestation freshly
    // signed for its receiver; MRAI-superseded signs never arrive, so
    // this is a lower bound on signs.
    let signs = if signed {
        r.routes_accepted + r.routes_rejected + r.attestation_failures + r.origin_failures
    } else {
        0
    };
    // A cache miss runs exactly one RSA verify.
    let rsa_verifies = r.verify_calls - r.verify_cache_hits;
    let ck = c.checkpoint.clone().unwrap_or_default();
    let (routers_mb, cache_mb, store_mb) = sections.flatten().unwrap_or((0.0, 0.0, 0.0));
    let mb = |b: u64| b as f64 / 1e6;
    let values: [f64; PER_LAYER.len()] = [
        c.setup.generate_s,
        c.setup.instantiate_s,
        keygen_ms,
        sign_us,
        verify_us,
        signs as f64,
        rsa_verifies as f64,
        ratio(signs as f64 * sign_us / 1e6, c.converge_s),
        ratio(rsa_verifies as f64 * verify_us / 1e6, c.converge_s),
        r.verify_calls as f64,
        r.verify_cache_hits as f64,
        ratio(r.verify_cache_hits as f64, r.verify_calls as f64),
        r.updates_rx as f64,
        r.best_changes as f64,
        r.reselect_short_circuits as f64,
        ratio(
            r.reselect_short_circuits as f64,
            (r.reselect_short_circuits + r.best_changes) as f64,
        ),
        (c.rib.0 + c.rib.1) as f64,
        c.sim.events as f64,
        c.sim.sent as f64,
        c.sim.bytes_sent as f64,
        c.sim.timers_fired as f64,
        ratio(c.sim.events as f64, c.converge_s),
        ratio(c.converge_cpu_s, w.shards() as f64 * c.converge_s),
        c.digest.sim_converge_us as f64 / 1e6,
        smc.requests as f64,
        smc.batches as f64,
        ratio(smc.lanes_occupied as f64, smc.lane_slots as f64),
        smc.and_gates as f64,
        smc.triples as f64,
        smc.bits_broadcast as f64,
        smc.modeled_micros as f64 / 1e6,
        batch_us,
        c.rib.1 as f64,
        ratio(j.fingerprint_s * 1e6, c.rib.1 as f64),
        ck.files.len() as f64,
        ck.write_s,
        ratio(mb(ck.total_bytes), ck.write_s),
        ck.engine_slices_s,
        routers_mb,
        cache_mb,
        store_mb,
        mb(ck.total_bytes),
        ck.restore_s,
        ck.replay_events as f64,
        ck.replay_s,
        ck.restore_s + ck.replay_s,
        j.wall_s - untraced_s,
        untraced_s,
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(_, name, unit), value)| Metric { name, unit, value })
        .collect();

    writeln!(report, "per-layer (traced job; shares and signs are estimates, see README):")
        .expect("write to String");
    let mut layer = "";
    for (&(l, _, _), m) in PER_LAYER.iter().zip(&metrics) {
        if l != layer {
            layer = l;
            writeln!(report, "  [{l}] moves: {}", layer_moves(l)).expect("write to String");
        }
        writeln!(report, "    {:<34} {:>18.6} {}", m.name, m.value, m.unit)
            .expect("write to String");
    }
    writeln!(report, "spans (count, total s, self s):").expect("write to String");
    for (name, (count, total, own)) in tr.summary() {
        writeln!(report, "    {name:<24} {count:>6} {total:>12.4} {own:>12.4}")
            .expect("write to String");
    }
    writeln!(
        report,
        "tracing overhead: traced job {:.4} s - mean of the untraced jobs before and after \
         ({:.4} s, {:.4} s) = {:+.4} s",
        j.wall_s,
        before.wall_s,
        after.wall_s,
        j.wall_s - untraced_s
    )
    .expect("write to String");
    (metrics, tr.to_jsonl(), before.converged.digest)
}

/// Summed ROUTERS, CACHE and STORE section sizes in MB over `files`,
/// when every file parses as a `PVRCKPT1` container; `None` otherwise,
/// so a later format change leaves only the total.
fn section_sizes(files: &[PathBuf]) -> Option<(f64, f64, f64)> {
    // Section tags of the `PVRCKPT1` layout (`pvr_bgp::checkpoint`).
    const ROUTERS: u8 = 3;
    const CACHE: u8 = 4;
    const STORE: u8 = 5;
    let mut sizes = [0u64; 3];
    for path in files {
        let bytes = std::fs::read(path).ok()?;
        let sections =
            pvr_store::read_container(&bytes, &pvr_bgp::CKPT_MAGIC, pvr_bgp::CKPT_VERSION).ok()?;
        for s in sections {
            let slot = match s.tag {
                ROUTERS => 0,
                CACHE => 1,
                STORE => 2,
                _ => continue,
            };
            sizes[slot] += s.payload.len() as u64;
        }
    }
    Some((sizes[0] as f64 / 1e6, sizes[1] as f64 / 1e6, sizes[2] as f64 / 1e6))
}
