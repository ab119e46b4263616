//! Process probes (CPU time, peak RSS) and the in-memory span recorder
//! of the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! the benchmark times its own calls into the public functions of each
//! layer. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every architecture the kernel exposes to user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, every thread included
/// (threads that already ended too), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or("", |(_, rest)| rest).split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One closed span: a named interval inside one job, with the span that
/// enclosed it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls its closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    job: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), job: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on belong to job `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Per span name: (count, total seconds, self seconds). Self time is
    /// a span's duration minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end_s - s.start_s;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_s - s.start_s;
            e.2 += s.end_s - s.start_s - child;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"job\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.job, s.name, s.start_s, s.end_s
            )
            .expect("write to String");
        }
        out
    }
}
