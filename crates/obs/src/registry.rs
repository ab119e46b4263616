//! The metrics registry: typed counters, gauges, and fixed-bucket
//! histograms, addressed by `(name, label set)`.
//!
//! Registration interns the series and returns a `Copy` handle
//! ([`CounterId`], [`GaugeId`], [`HistogramId`]) that call sites cache;
//! the hot-path operations ([`MetricsRegistry::inc`],
//! [`MetricsRegistry::observe`]) are a bounds-checked array index and
//! an add — no hashing, no allocation, no locks. Registries are plain
//! values: per-shard code builds its own registry and the coordinator
//! folds the [`Snapshot`]s together afterwards, which keeps the
//! determinism story trivial (sums commute) instead of relying on
//! atomic-ordering arguments.
//!
//! Snapshots are canonical: series sorted by `(name, labels)`, label
//! pairs in registration order. Two registries that saw the same
//! traffic — in any order, folded any way — snapshot to the same bytes.

use crate::histogram::Histogram;

/// A label set: `(key, value)` pairs. Keys are static (label schemas
/// are code, not data); values are runtime strings (`router="64"`,
/// `security_mode="signed"`, `strategy="route-leak"`, `shard="3"`).
pub type LabelSet = Vec<(&'static str, String)>;

/// Handle to a registered counter. Cheap to copy, cache at call sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

struct SeriesMeta {
    name: &'static str,
    labels: LabelSet,
}

/// The registry. See the module docs for the design contract.
#[derive(Default)]
pub struct MetricsRegistry {
    counter_meta: Vec<SeriesMeta>,
    counter_vals: Vec<u64>,
    gauge_meta: Vec<SeriesMeta>,
    gauge_vals: Vec<f64>,
    hist_meta: Vec<SeriesMeta>,
    hist_vals: Vec<Histogram>,
}

fn find(meta: &[SeriesMeta], name: &'static str, labels: &LabelSet) -> Option<usize> {
    meta.iter().position(|m| m.name == name && &m.labels == labels)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Interns (or finds) the counter `name{labels}` and returns its
    /// handle. Registration is linear in the series count — do it once
    /// and cache the id, not per increment.
    pub fn counter(&mut self, name: &'static str, labels: &LabelSet) -> CounterId {
        if let Some(i) = find(&self.counter_meta, name, labels) {
            return CounterId(i);
        }
        self.counter_meta.push(SeriesMeta { name, labels: labels.clone() });
        self.counter_vals.push(0);
        CounterId(self.counter_vals.len() - 1)
    }

    /// Adds `by` to a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counter_vals[id.0] += by;
    }

    /// Interns (or finds) the gauge `name{labels}`.
    pub fn gauge(&mut self, name: &'static str, labels: &LabelSet) -> GaugeId {
        if let Some(i) = find(&self.gauge_meta, name, labels) {
            return GaugeId(i);
        }
        self.gauge_meta.push(SeriesMeta { name, labels: labels.clone() });
        self.gauge_vals.push(0.0);
        GaugeId(self.gauge_vals.len() - 1)
    }

    /// Sets a gauge to `v` (last write wins).
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauge_vals[id.0] = v;
    }

    /// Interns (or finds) the histogram `name{labels}` with the given
    /// inclusive bucket bounds.
    ///
    /// # Panics
    /// If the series already exists with different bounds.
    pub fn histogram(
        &mut self,
        name: &'static str,
        labels: &LabelSet,
        bounds: &[u64],
    ) -> HistogramId {
        if let Some(i) = find(&self.hist_meta, name, labels) {
            assert_eq!(
                self.hist_vals[i].bounds(),
                bounds,
                "histogram {name} re-registered with different bounds"
            );
            return HistogramId(i);
        }
        self.hist_meta.push(SeriesMeta { name, labels: labels.clone() });
        self.hist_vals.push(Histogram::new(bounds));
        HistogramId(self.hist_vals.len() - 1)
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        self.hist_vals[id.0].observe(v);
    }

    /// The canonical snapshot: every series, sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Snapshot {
        let mut series = Vec::with_capacity(
            self.counter_vals.len() + self.gauge_vals.len() + self.hist_vals.len(),
        );
        for (m, &v) in self.counter_meta.iter().zip(&self.counter_vals) {
            series.push(Series::new(m, Value::Counter(v)));
        }
        for (m, &v) in self.gauge_meta.iter().zip(&self.gauge_vals) {
            series.push(Series::new(m, Value::Gauge(v)));
        }
        for (m, h) in self.hist_meta.iter().zip(&self.hist_vals) {
            series.push(Series::new(m, Value::Histogram(h.clone())));
        }
        let mut snap = Snapshot { series };
        snap.canonicalize();
        snap
    }
}

/// One series in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Metric name (`pvr_router_updates_rx_total`, ...).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: Value,
}

impl Series {
    fn new(meta: &SeriesMeta, value: Value) -> Series {
        Series {
            name: meta.name.to_string(),
            labels: meta.labels.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            value,
        }
    }
}

/// A sampled value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Monotonic count; merges by addition.
    Counter(u64),
    /// Point-in-time value; merges by addition (derived ratios are
    /// computed at exposition time from counters, not merged).
    Gauge(f64),
    /// Fixed-bucket histogram; merges bucket-for-bucket.
    Histogram(Histogram),
}

/// A canonical, order-independent view of a registry: series sorted by
/// `(name, labels)`. This is the unit of comparison in determinism
/// tests and the input to the exposition formats.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Snapshot {
    /// The series, in canonical order.
    pub series: Vec<Series>,
}

impl Snapshot {
    fn canonicalize(&mut self) {
        self.series.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }

    /// Folds `other` into `self`: matching `(name, labels)` series
    /// combine (counters and histograms add, gauges add), new series
    /// are inserted. Because every combine rule is commutative and
    /// associative and the result is re-canonicalized, folding
    /// per-shard snapshots in any order yields the same bytes as one
    /// registry holding everything.
    ///
    /// # Panics
    /// If a series appears with two different value types or histogram
    /// shapes.
    pub fn merge(&mut self, other: &Snapshot) {
        for s in &other.series {
            match self.series.iter_mut().find(|m| m.name == s.name && m.labels == s.labels) {
                Some(mine) => match (&mut mine.value, &s.value) {
                    (Value::Counter(a), Value::Counter(b)) => *a += b,
                    (Value::Gauge(a), Value::Gauge(b)) => *a += b,
                    (Value::Histogram(a), Value::Histogram(b)) => a.merge(b),
                    _ => panic!("series {} merged with a different type", s.name),
                },
                None => self.series.push(s.clone()),
            }
        }
        self.canonicalize();
    }

    /// Convenience for tests: the value of the unique counter `name`
    /// (any labels), summed across label sets.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let mut found = None;
        for s in &self.series {
            if s.name == name {
                if let Value::Counter(v) = s.value {
                    *found.get_or_insert(0) += v;
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(mode: &str) -> LabelSet {
        vec![("security_mode", mode.to_string())]
    }

    #[test]
    fn handles_are_stable_and_interned() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("pvr_x_total", &labels("plain"));
        let b = r.counter("pvr_x_total", &labels("plain"));
        let c = r.counter("pvr_x_total", &labels("signed"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        r.inc(a, 2);
        r.inc(b, 3);
        assert_eq!(r.snapshot().counter_value("pvr_x_total"), Some(5));
    }

    #[test]
    fn snapshot_order_is_canonical() {
        // Register in one order...
        let mut r1 = MetricsRegistry::new();
        let x = r1.counter("pvr_b_total", &labels("plain"));
        let y = r1.counter("pvr_a_total", &labels("plain"));
        r1.inc(x, 1);
        r1.inc(y, 2);
        // ...and the reverse order.
        let mut r2 = MetricsRegistry::new();
        let y = r2.counter("pvr_a_total", &labels("plain"));
        let x = r2.counter("pvr_b_total", &labels("plain"));
        r2.inc(y, 2);
        r2.inc(x, 1);
        assert_eq!(r1.snapshot(), r2.snapshot());
    }

    #[test]
    fn merge_folds_shards_into_the_serial_view() {
        // "Serial": one registry sees everything.
        let mut serial = MetricsRegistry::new();
        let id = serial.counter("pvr_events_total", &labels("plain"));
        serial.inc(id, 10);
        let h = serial.histogram("pvr_lat", &labels("plain"), &[10, 100]);
        serial.observe(h, 5);
        serial.observe(h, 50);

        // "Sharded": two registries split the same traffic.
        let mut s0 = MetricsRegistry::new();
        let id = s0.counter("pvr_events_total", &labels("plain"));
        s0.inc(id, 4);
        let h = s0.histogram("pvr_lat", &labels("plain"), &[10, 100]);
        s0.observe(h, 5);
        let mut s1 = MetricsRegistry::new();
        let id = s1.counter("pvr_events_total", &labels("plain"));
        s1.inc(id, 6);
        let h = s1.histogram("pvr_lat", &labels("plain"), &[10, 100]);
        s1.observe(h, 50);

        let mut folded = s0.snapshot();
        folded.merge(&s1.snapshot());
        assert_eq!(folded, serial.snapshot());

        // Fold order does not matter.
        let mut folded_rev = s1.snapshot();
        folded_rev.merge(&s0.snapshot());
        assert_eq!(folded_rev, serial.snapshot());
    }
}
