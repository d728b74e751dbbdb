//! Metrics registry: counters, gauges, log-bucketed histograms.
//!
//! Metrics are **deterministic artifacts**: everything recorded into them
//! on the serving path is either integer-valued (ticks, counts — whose
//! sums are exact in f64 and order-independent) or recorded from the
//! serial control path, so a snapshot is a pure function of the seed and
//! byte-identical across worker-thread counts. Wall-clock measurements
//! belong in [`crate::profile`], not here.
//!
//! A [`MetricsRegistry`] hands out `Arc` handles keyed by name (hold the
//! handle; the hot path is then a single atomic op). Snapshots render to
//! Prometheus-style text exposition plus JSON/CSV through the shared
//! [`crate::emit`] formatters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::emit::{csv_num, json_num, json_str};

/// Largest number of observations a [`Histogram`] keeps as exact samples.
/// At or below this count `percentile` answers exactly (nearest rank over
/// the sorted reservoir); beyond it the reservoir spills and estimates
/// fall back to bucket upper bounds, exact to within one bucket width.
pub const EXACT_SAMPLE_CAP: usize = 1024;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. `q` is a
/// fraction in `(0, 1]`; an empty sample yields NaN.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge (f64 bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Bucketing scheme for a [`Histogram`]: an underflow bucket `[0, lo]`,
/// `buckets` geometric buckets `(lo·g^(i-1), lo·g^i]`, and an overflow
/// bucket above the last boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramConfig {
    /// Upper bound of the underflow bucket (first geometric boundary).
    pub lo: f64,
    /// Geometric growth factor between bucket boundaries (> 1).
    pub growth: f64,
    /// Number of geometric buckets between `lo` and the overflow bucket.
    pub buckets: usize,
}

impl HistogramConfig {
    /// Default scheme for virtual-time latencies in ticks: boundaries
    /// 1, 2, 4, … 2^24 — covers any realistic queue delay at tick
    /// resolution with bucket width = the value's own magnitude.
    pub fn latency_ticks() -> HistogramConfig {
        HistogramConfig {
            lo: 1.0,
            growth: 2.0,
            buckets: 24,
        }
    }

    /// Upper boundary of bucket `i` (`i == 0` is the underflow bucket).
    pub fn upper_bound(&self, i: usize) -> f64 {
        self.lo * self.growth.powi(i as i32)
    }

    /// Index of the bucket containing `v` (0 = underflow,
    /// `buckets + 1` = overflow).
    pub fn bucket_of(&self, v: f64) -> usize {
        // NaN compares Greater with nothing, so it lands in underflow.
        if v.partial_cmp(&self.lo) != Some(std::cmp::Ordering::Greater) {
            return 0;
        }
        for i in 1..=self.buckets {
            if v <= self.upper_bound(i) {
                return i;
            }
        }
        self.buckets + 1
    }
}

/// Log-bucketed histogram with atomic bucket counts and a bounded
/// reservoir of exact samples.
///
/// Up to [`EXACT_SAMPLE_CAP`] finite observations are retained verbatim,
/// so `percentile` is *exact* on short streams (the 192-request serving
/// streams SLO verdicts depend on). Past the cap — or on any non-finite
/// observation — the reservoir spills and estimates fall back to bucket
/// upper bounds, exact to within one bucket width of the nearest-rank
/// percentile (tested against [`percentile`]). Whether the reservoir
/// spills depends only on the total observation count and
/// finiteness, never on thread interleaving, and the retained multiset
/// is order-independent, so percentiles stay deterministic artifacts.
#[derive(Debug)]
pub struct Histogram {
    config: HistogramConfig,
    /// `config.buckets + 2` counts: underflow, geometric, overflow.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Exact samples until `spilled`; cleared on spill.
    samples: Mutex<Vec<f64>>,
    spilled: AtomicBool,
}

impl Histogram {
    /// An empty histogram with the given bucketing scheme.
    pub fn new(config: HistogramConfig) -> Histogram {
        Histogram {
            config,
            counts: (0..config.buckets + 2).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            samples: Mutex::new(Vec::new()),
            spilled: AtomicBool::new(false),
        }
    }

    /// The bucketing scheme.
    pub fn config(&self) -> HistogramConfig {
        self.config
    }

    /// Record one observation. Negative and non-finite values are
    /// clamped into the underflow/overflow buckets.
    pub fn observe(&self, v: f64) {
        let idx = if v.is_nan() {
            0
        } else {
            self.config.bucket_of(v)
        };
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        fold_f64(&self.sum_bits, v, |acc, v| acc + v);
        fold_f64(&self.min_bits, v, f64::min);
        fold_f64(&self.max_bits, v, f64::max);
        self.note_sample(v);
    }

    /// Feed the exact-sample reservoir; spill (and free) it on the first
    /// non-finite observation or when the cap is exceeded. `spilled` is
    /// only ever set under the samples lock, so the double check is safe.
    fn note_sample(&self, v: f64) {
        if self.spilled.load(Ordering::Relaxed) {
            return;
        }
        let mut s = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        if self.spilled.load(Ordering::Relaxed) {
            return;
        }
        if !v.is_finite() || s.len() >= EXACT_SAMPLE_CAP {
            self.spilled.store(true, Ordering::Relaxed);
            s.clear();
            s.shrink_to_fit();
        } else {
            s.push(v);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observations (exact for integer-valued samples).
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_infinite() && self.count() == 0 {
            f64::NAN
        } else {
            v
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_infinite() && self.count() == 0 {
            f64::NAN
        } else {
            v
        }
    }

    /// Snapshot of the raw bucket counts (underflow first).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Nearest-rank percentile for `q` in `(0, 1]`. While the exact
    /// reservoir holds (≤ [`EXACT_SAMPLE_CAP`] finite samples) this is
    /// the rank-`⌈q·n⌉` sample itself, via [`percentile`]. After a spill
    /// it is the upper bound of the bucket holding that rank (the
    /// recorded max for the overflow bucket, so the estimate never
    /// exceeds it).
    ///
    /// NaN on an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if !self.spilled.load(Ordering::Relaxed) {
            let s = self.samples.lock().unwrap_or_else(|e| e.into_inner());
            if !self.spilled.load(Ordering::Relaxed) {
                if s.is_empty() {
                    return f64::NAN;
                }
                let mut sorted = s.clone();
                sorted.sort_by(f64::total_cmp);
                return percentile(&sorted, q);
            }
        }
        let counts = self.bucket_counts();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == counts.len() - 1 {
                    self.max()
                } else {
                    self.config.upper_bound(i).min(self.max())
                };
            }
        }
        self.max()
    }
}

/// CAS-fold `v` into an f64 stored as bits.
fn fold_f64(bits: &AtomicU64, v: f64, f: impl Fn(f64, f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur), v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Instance-based (share by `Arc`) so
/// concurrent runs and tests stay isolated.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name`. Panics if `name` is already a
    /// different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Get or create the histogram `name` with `config` (ignored if the
    /// histogram already exists).
    pub fn histogram(&self, name: &str, config: HistogramConfig) -> Arc<Histogram> {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(config))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entries = map
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapshotValue::Histogram {
                        config: h.config(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                        p50: h.percentile(0.50),
                        p99: h.percentile(0.99),
                        p999: h.percentile(0.999),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// Compose a metric name with `label="value"` pairs,
/// Prometheus-style: `labeled("x_total", &[("member", "1")])` →
/// `x_total{member="1"}`. Label values are escaped (backslash, double
/// quote, newline — the Prometheus text-format rules), so a hostile
/// value cannot break out of its quotes or inject exposition lines.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Backslash-escape `\`, `"`, and newline in a label value (the escape
/// set of the Prometheus text exposition format).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Point-in-time value of one metric.
#[derive(Clone, Debug)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: bucket counts (underflow first) plus summary
    /// statistics and percentile estimates.
    Histogram {
        /// Bucketing scheme.
        config: HistogramConfig,
        /// Per-bucket counts, underflow bucket first.
        counts: Vec<u64>,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation (NaN when empty).
        min: f64,
        /// Largest observation (NaN when empty).
        max: f64,
        /// Median estimate.
        p50: f64,
        /// 99th-percentile estimate.
        p99: f64,
        /// 99.9th-percentile estimate.
        p999: f64,
    },
}

/// A sorted point-in-time snapshot of a registry, with text emitters.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs sorted by name.
    pub entries: Vec<(String, SnapshotValue)>,
}

/// Shortest-round-trip f64 for text exposition; `NaN` for non-finite
/// (Prometheus accepts it, and it keeps the artifact deterministic).
fn prom_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".to_string()
    }
}

/// Split `name{labels}` into (base, labels-with-braces-stripped).
pub(crate) fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}')),
        None => (name, None),
    }
}

/// A raw newline or carriage return in a metric *name* would break the
/// line-oriented exposition; escape it visibly. Label values are already
/// escaped upstream in [`labeled`], so this only fires on hostile base
/// names.
fn prom_name(name: &str) -> String {
    if name.contains(['\n', '\r']) {
        name.replace('\r', "\\r").replace('\n', "\\n")
    } else {
        name.to_string()
    }
}

impl MetricsSnapshot {
    /// Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<String> = None;
        for (name, value) in &self.entries {
            let name = prom_name(name);
            let name = name.as_str();
            let (base, _) = split_labels(name);
            let ty = match value {
                SnapshotValue::Counter(_) => "counter",
                SnapshotValue::Gauge(_) => "gauge",
                SnapshotValue::Histogram { .. } => "histogram",
            };
            if last_typed.as_deref() != Some(base) {
                out.push_str(&format!("# TYPE {base} {ty}\n"));
                last_typed = Some(base.to_string());
            }
            match value {
                SnapshotValue::Counter(v) => out.push_str(&format!("{name} {v}\n")),
                SnapshotValue::Gauge(v) => {
                    out.push_str(&format!("{name} {}\n", prom_num(*v)));
                }
                SnapshotValue::Histogram {
                    config,
                    counts,
                    sum,
                    ..
                } => {
                    let (b, labels) = split_labels(name);
                    let series = |extra: &str| match labels {
                        Some(l) if !l.is_empty() => format!("{b}_bucket{{{l},{extra}}}"),
                        _ => format!("{b}_bucket{{{extra}}}"),
                    };
                    let mut cum = 0u64;
                    for (i, &c) in counts.iter().enumerate() {
                        cum += c;
                        let le = if i == counts.len() - 1 {
                            "+Inf".to_string()
                        } else {
                            prom_num(config.upper_bound(i))
                        };
                        out.push_str(&format!("{} {cum}\n", series(&format!("le=\"{le}\""))));
                    }
                    let suffix = |s: &str| match labels {
                        Some(l) if !l.is_empty() => format!("{b}_{s}{{{l}}}"),
                        _ => format!("{b}_{s}"),
                    };
                    out.push_str(&format!("{} {}\n", suffix("sum"), prom_num(*sum)));
                    out.push_str(&format!("{} {cum}\n", suffix("count")));
                }
            }
        }
        out
    }

    /// JSON object keyed by metric name, in the emitter style of
    /// `serve::report` (hand-rolled, no serde; non-finite → null).
    pub fn json(&self) -> String {
        let mut parts = Vec::new();
        for (name, value) in &self.entries {
            let body = match value {
                SnapshotValue::Counter(v) => format!("{{\"type\":\"counter\",\"value\":{v}}}"),
                SnapshotValue::Gauge(v) => {
                    format!("{{\"type\":\"gauge\",\"value\":{}}}", json_num(*v))
                }
                SnapshotValue::Histogram {
                    counts,
                    sum,
                    min,
                    max,
                    p50,
                    p99,
                    p999,
                    ..
                } => {
                    let rendered: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
                    format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"bucket_counts\":[{}]}}",
                        counts.iter().sum::<u64>(),
                        json_num(*sum),
                        json_num(*min),
                        json_num(*max),
                        json_num(*p50),
                        json_num(*p99),
                        json_num(*p999),
                        rendered.join(",")
                    )
                }
            };
            parts.push(format!("{}:{body}", json_str(name)));
        }
        format!("{{{}}}\n", parts.join(","))
    }

    /// CSV: `# name,type,value,count,sum,min,max,p50,p99,p999` header
    /// comment then one row per metric (histogram rows fill every
    /// column). Names containing commas, quotes, or newlines — labeled
    /// series always do — are RFC 4180-quoted so the rows stay parseable.
    pub fn csv(&self) -> String {
        let mut out = String::from("# name,type,value,count,sum,min,max,p50,p99,p999\n");
        for (name, value) in &self.entries {
            let name = csv_field(name);
            let row = match value {
                SnapshotValue::Counter(v) => {
                    format!("{name},counter,{v},,,,,,,")
                }
                SnapshotValue::Gauge(v) => {
                    format!("{name},gauge,{},,,,,,,", csv_num(*v))
                }
                SnapshotValue::Histogram {
                    counts,
                    sum,
                    min,
                    max,
                    p50,
                    p99,
                    p999,
                    ..
                } => {
                    format!(
                        "{name},histogram,,{},{},{},{},{},{},{}",
                        counts.iter().sum::<u64>(),
                        csv_num(*sum),
                        csv_num(*min),
                        csv_num(*max),
                        csv_num(*p50),
                        csv_num(*p99),
                        csv_num(*p999)
                    )
                }
            };
            out.push_str(&row);
            out.push('\n');
        }
        out
    }
}

/// RFC 4180 quoting for one CSV field: wrap in double quotes (doubling
/// embedded quotes) when the field contains a comma, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("queue_depth");
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        // Handles alias the registry entry.
        assert_eq!(reg.counter("requests_total").get(), 5);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("x");
        reg.counter("x");
    }

    #[test]
    fn histogram_empty_and_single_sample() {
        let h = Histogram::new(HistogramConfig::latency_ticks());
        assert_eq!(h.count(), 0);
        assert!(
            h.percentile(0.5).is_nan(),
            "empty histogram → NaN like percentile()"
        );
        assert!(h.min().is_nan());
        assert!(h.max().is_nan());

        h.observe(7.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 7.0);
        assert_eq!(h.max(), 7.0);
        // Single sample: every percentile lands in its bucket (4, 8];
        // the estimate is capped at the recorded max.
        for q in [0.01, 0.5, 0.99, 1.0] {
            let est = h.percentile(q);
            assert!((4.0..=7.0).contains(&est), "q={q} est={est}");
        }
    }

    #[test]
    fn histogram_percentile_within_one_bucket_width() {
        // Integer "latency tick" samples shaped like a serving run:
        // mostly small queue delays with a heavy tail.
        let samples: Vec<f64> = (0..500)
            .map(|i| {
                let i = i as f64;
                (1.0 + (i * i * 0.017) % 97.0).floor()
            })
            .collect();
        let h = Histogram::new(HistogramConfig::latency_ticks());
        for &s in &samples {
            h.observe(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            // Exact nearest-rank percentile, computed independently.
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = h.percentile(q);
            // One bucket width: the bucket containing the exact value.
            let cfg = h.config();
            let b = cfg.bucket_of(exact);
            let width = if b == 0 {
                cfg.lo
            } else {
                cfg.upper_bound(b) - cfg.upper_bound(b - 1)
            };
            assert!(
                (est - exact).abs() <= width,
                "q={q}: est {est} vs exact {exact}, width {width}"
            );
        }
    }

    #[test]
    fn snapshot_is_sorted_and_renders() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total").add(2);
        reg.gauge("a_depth").set(1.0);
        let h = reg.histogram("m_latency_ticks", HistogramConfig::latency_ticks());
        h.observe(3.0);
        h.observe(90.0);

        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_depth", "m_latency_ticks", "z_total"]);

        let prom = snap.prometheus();
        assert!(prom.contains("# TYPE a_depth gauge"));
        assert!(prom.contains("# TYPE m_latency_ticks histogram"));
        assert!(prom.contains("m_latency_ticks_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("m_latency_ticks_count 2"));
        assert!(prom.contains("z_total 2"));

        let json = snap.json();
        assert!(json.contains("\"z_total\":{\"type\":\"counter\",\"value\":2}"));
        assert!(json.ends_with("}\n"));

        let csv = snap.csv();
        assert!(csv.starts_with("# name,type,value,count,sum,min,max,p50,p99,p999\n"));
        assert!(csv.contains("z_total,counter,2,,,,,,,\n"));
    }

    #[test]
    fn labeled_series_render() {
        assert_eq!(labeled("x_total", &[]), "x_total");
        assert_eq!(
            labeled("x_total", &[("member", "1")]),
            "x_total{member=\"1\"}"
        );
        let reg = MetricsRegistry::new();
        reg.counter(&labeled("served_total", &[("member", "0")]))
            .add(3);
        let h = reg.histogram(
            &labeled("lat_ticks", &[("member", "0")]),
            HistogramConfig::latency_ticks(),
        );
        h.observe(2.0);
        let prom = reg.snapshot().prometheus();
        assert!(prom.contains("served_total{member=\"0\"} 3"));
        assert!(prom.contains("lat_ticks_bucket{member=\"0\",le=\"1\"} 0"));
        assert!(prom.contains("lat_ticks_sum{member=\"0\"} 2"));
        assert!(prom.contains("# TYPE lat_ticks histogram"));
    }

    /// The deterministic sample shape shared by the reservoir tests:
    /// mostly small queue delays with a heavy tail.
    fn tick_samples(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let i = i as f64;
                (1.0 + (i * i * 0.017) % 97.0).floor()
            })
            .collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sample, 0.5), 2.0);
        assert_eq!(percentile(&sample, 0.99), 4.0);
        assert_eq!(percentile(&sample, 0.25), 1.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_is_exact_below_reservoir_cap() {
        let samples = tick_samples(500);
        let h = Histogram::new(HistogramConfig::latency_ticks());
        for &s in &samples {
            h.observe(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            assert_eq!(h.percentile(q), sorted[rank - 1], "q={q} not exact");
        }
    }

    #[test]
    fn percentile_falls_back_to_buckets_past_cap() {
        let samples = tick_samples(2 * EXACT_SAMPLE_CAP);
        let h = Histogram::new(HistogramConfig::latency_ticks());
        for &s in &samples {
            h.observe(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cfg = h.config();
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = h.percentile(q);
            let b = cfg.bucket_of(exact);
            let width = if b == 0 {
                cfg.lo
            } else {
                cfg.upper_bound(b) - cfg.upper_bound(b - 1)
            };
            assert!(
                (est - exact).abs() <= width,
                "q={q}: est {est} vs exact {exact}, width {width}"
            );
        }
    }

    #[test]
    fn non_finite_observation_spills_reservoir() {
        let h = Histogram::new(HistogramConfig::latency_ticks());
        h.observe(3.0);
        h.observe(f64::INFINITY);
        h.observe(5.0);
        // Spilled: rank-2 of {3, 5, +inf} lands in the (4, 8] bucket, so
        // the estimate is the bucket upper bound, not the exact sample.
        assert_eq!(h.percentile(0.5), 8.0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn hostile_label_values_escape_in_all_formats() {
        let hostile = "a\"b\\c\nd";
        let name = labeled("hostile_total", &[("scenario", hostile)]);
        // The composed series name carries no raw newline or bare quote.
        assert_eq!(name, "hostile_total{scenario=\"a\\\"b\\\\c\\nd\"}");

        let reg = MetricsRegistry::new();
        reg.counter(&name).add(1);
        reg.counter("bad\nname_total").add(2);
        let snap = reg.snapshot();

        let prom = snap.prometheus();
        // Two TYPE lines + two sample lines: nothing injected a line.
        assert_eq!(prom.lines().count(), 4, "prom:\n{prom}");
        assert!(prom.contains("scenario=\"a\\\"b\\\\c\\nd\"} 1"));
        assert!(prom.contains("bad\\nname_total 2"));

        let json = snap.json();
        assert_eq!(json.lines().count(), 1, "json stays one line");
        assert!(json.contains(&json_str(&name)));

        let csv = snap.csv();
        let quoted = csv
            .lines()
            .find(|l| l.contains("hostile_total"))
            .expect("hostile row present");
        assert!(quoted.starts_with('"'), "labeled name quoted: {quoted}");
        assert!(quoted.contains("\"\""), "embedded quotes doubled: {quoted}");
        assert!(csv.contains("\"bad\nname_total\""), "newline name quoted");
    }
}
