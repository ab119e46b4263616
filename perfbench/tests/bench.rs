//! The benchmark's own tests, at the 56-AS seed scale.

use pvr_perfbench::{run, Config, Expected, Outcome, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

const TINY_ASES: usize = 56;

/// Tests run in parallel, so each names its own work root.
fn tiny(workload: Workload, trace: bool, work_root: &str) -> Config {
    Config {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        trace,
        ases: TINY_ASES,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(work_root),
    }
}

fn run_ok(cfg: &Config, expected: &[Expected]) -> Outcome {
    run(cfg, expected).expect("run directory")
}

#[test]
fn tiny_scale_emits_every_named_metric_with_its_unit() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let declared: Vec<(&str, &str)> = END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|&(_, name, unit)| (name, unit)))
        .collect();
    for (name, unit) in &declared {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        manifest.matches("\"unit\":").count(),
        declared.len(),
        "BENCHMARK.json declares other metrics"
    );

    for workload in WORKLOADS {
        assert!(manifest.contains(&format!("\"name\": \"{}\"", workload.name())));
        for trace in [false, true] {
            let outcome = run_ok(&tiny(workload, trace, "perfbench-metrics"), &[]);
            let failed: Vec<_> = outcome.checks.0.iter().filter(|(_, ok)| !ok).collect();
            assert!(failed.is_empty(), "{} trace {trace}: {failed:?}", workload.name());
            let emitted: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let wanted: Vec<(&str, &str)> = if trace {
                PER_LAYER.iter().map(|&(_, name, unit)| (name, unit)).collect()
            } else {
                END_TO_END.to_vec()
            };
            assert_eq!(emitted, wanted, "{} trace {trace}", workload.name());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            let line = outcome.result_json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            for (name, unit) in wanted {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from {line}"
                );
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{unit} missing from {line}"
                );
            }
        }
    }
}

#[test]
fn tampered_expected_digest_is_a_failed_operation() {
    let cfg = tiny(Workload::CheckpointRecover, false, "perfbench-tampered");
    let observed = run_ok(&cfg, &[]).digest;
    let recorded = Expected {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        ases: cfg.ases,
        events: observed.events,
        bytes_sent: observed.bytes_sent,
        sim_converge_us: observed.sim_converge_us,
        rib_sha256: Box::leak(observed.rib_sha256.clone().into_boxed_str()),
        checkpoint_bytes: observed.checkpoint_bytes,
    };
    let honest = run_ok(&cfg, std::slice::from_ref(&recorded));
    assert_eq!(honest.checks.failed(), 0, "{:?}", honest.checks);

    let mut tampered_sha = observed.rib_sha256.clone();
    let last = if tampered_sha.ends_with('0') { "1" } else { "0" };
    tampered_sha.replace_range(63.., last);
    let tampered = Expected { rib_sha256: Box::leak(tampered_sha.into_boxed_str()), ..recorded };
    let outcome = run_ok(&cfg, &[tampered]);
    assert_eq!(outcome.checks.attempted(), honest.checks.attempted());
    assert_eq!(outcome.checks.failed(), 1);
    let (what, ok) = outcome.checks.0.iter().find(|(_, ok)| !ok).expect("one failed check");
    assert!(!ok && what.contains("RIB SHA-256"), "{what}");
    assert!(outcome.result_json().starts_with("{\"correct\": false, "));
    // The failed run removed its checkpoints, and its work root with them.
    assert!(!cfg.work_root.exists(), "{} left behind", cfg.work_root.display());
}

#[test]
fn every_workload_has_recorded_outputs_at_its_defaults() {
    for workload in WORKLOADS {
        let found = pvr_perfbench::EXPECTED
            .iter()
            .filter(|e| {
                e.workload == workload.name()
                    && e.seed == workload.default_seed()
                    && e.ases == workload.default_ases()
            })
            .count();
        assert_eq!(found, 1, "{}", workload.name());
    }
}
