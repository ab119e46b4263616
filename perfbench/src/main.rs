//! `pvr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable tables, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The traced run
//! also writes its spans to `.perfbench_out/`.

use pvr_perfbench::{run, Config, Workload, EXPECTED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: pvr-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage("every flag takes a value") };
        let ok = match flag.as_str() {
            "--workload" => Workload::parse(value).map(|w| workload = Some(w)).is_some(),
            "--seed" => value.parse().map(|v| seed = Some(v)).is_ok(),
            "--seconds" => value.parse::<f64>().map(|v| seconds = Some(v)).is_ok(),
            "--trace" => {
                matches!(value.as_str(), "0" | "1").then(|| trace = Some(value == "1")).is_some()
            }
            _ => false,
        };
        if !ok {
            return usage(&format!("bad flag or value: {flag} {value}"));
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let cfg = Config {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        ases: workload.default_ases(),
        work_root: PathBuf::from(".perfbench_tmp"),
    };
    let outcome = match run(&cfg, EXPECTED) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.report);
    if cfg.trace {
        let out = PathBuf::from(".perfbench_out");
        let path = out.join(format!("spans-{}-seed{}.jsonl", workload.name(), cfg.seed));
        match std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, &outcome.spans_jsonl))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
