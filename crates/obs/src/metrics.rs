//! Label-set metrics registry with Prometheus text exposition.
//!
//! Series live in a `BTreeMap` keyed by `(name, sorted labels)`, so a
//! snapshot renders **byte-stably**: the same counter values always
//! produce the same text, whatever order threads recorded them in.
//! That property is what lets the fleet compare a 1-worker and an
//! N-worker run with `==` (the PR 7 determinism invariant, extended
//! to metrics).
//!
//! Every series belongs to one of two sections:
//!
//! * **deterministic** — effort units, ECO counts, cache hit/miss,
//!   anything derived from seeds and algorithms. These must be
//!   byte-identical between serial and pooled runs.
//! * **measured** — wall-clock, busy time, utilization. These are
//!   rendered *after* a marker line ([`MEASURED_MARKER`]) so consumers
//!   can split the exposition and byte-compare only the prefix.
//!
//! Counters and histograms are exact (`u64` buckets keyed by observed
//! value — the workloads observe small integers like taps-per-campaign,
//! so sparse exact buckets beat lossy log buckets); high-water-mark
//! gauges are always measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Marker line separating the deterministic exposition prefix from
/// the measured (wall-clock) suffix in [`MetricsRegistry::render_prometheus`].
pub const MEASURED_MARKER: &str = "# --- measured section (wall-clock; not byte-stable) ---";

/// Which exposition section a series renders in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    /// Derived from seeds/algorithms only; byte-identical across
    /// worker counts.
    Deterministic,
    /// Wall-clock and scheduling artifacts; varies run to run.
    Measured,
}

/// Exact sparse histogram: observed value → observation count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramData {
    counts: BTreeMap<u64, u64>,
    sum: u64,
    count: u64,
}

impl HistogramData {
    /// Per-value observation counts (sorted by value).
    pub fn counts(&self) -> &BTreeMap<u64, u64> {
        &self.counts
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn observe(&mut self, v: u64) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.sum += v;
        self.count += 1;
    }

    fn diff(&self, earlier: &Self) -> Self {
        let mut counts = BTreeMap::new();
        for (&v, &n) in &self.counts {
            let prev = earlier.counts.get(&v).copied().unwrap_or(0);
            if n > prev {
                counts.insert(v, n - prev);
            }
        }
        Self {
            counts,
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }
}

/// One series' current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic `u64` counter.
    Counter(u64),
    /// High-water-mark gauge: updates keep the maximum.
    MaxGauge(u64),
    /// Exact sparse histogram.
    Histogram(HistogramData),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::MaxGauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

/// `(name, sorted labels)` — the `BTreeMap` ordering that makes
/// renders byte-stable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    labels.sort();
    SeriesKey {
        name: name.to_string(),
        labels,
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Series {
    section: Section,
    value: MetricValue,
}

/// Thread-safe metrics registry (one mutex; recording is rare next to
/// the work being measured). `&MetricsRegistry` is `Sync`, so sessions
/// running on map workers can all record into the fleet's registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<SeriesKey, Series>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn upsert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        section: Section,
        f: impl FnOnce(&mut MetricValue),
        init: MetricValue,
    ) {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock().unwrap();
        let series = inner.entry(key).or_insert(Series {
            section,
            value: init,
        });
        assert_eq!(
            series.section, section,
            "metric '{name}' re-registered in a different section"
        );
        f(&mut series.value);
    }

    /// Adds `v` to a deterministic counter (creating it at 0 first).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.upsert(
            name,
            labels,
            Section::Deterministic,
            |m| match m {
                MetricValue::Counter(c) => *c += v,
                other => panic!("metric '{name}' is a {}, not a counter", other.type_name()),
            },
            MetricValue::Counter(0),
        );
    }

    /// Sets a deterministic counter to an absolute value (for scraping
    /// externally-maintained counters like the artifact store's).
    pub fn counter_set(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.upsert(
            name,
            labels,
            Section::Deterministic,
            |m| match m {
                MetricValue::Counter(c) => *c = v,
                other => panic!("metric '{name}' is a {}, not a counter", other.type_name()),
            },
            MetricValue::Counter(0),
        );
    }

    /// Records one observation into a deterministic histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.upsert(
            name,
            labels,
            Section::Deterministic,
            |m| match m {
                MetricValue::Histogram(h) => h.observe(v),
                other => panic!(
                    "metric '{name}' is a {}, not a histogram",
                    other.type_name()
                ),
            },
            MetricValue::Histogram(HistogramData::default()),
        );
    }

    /// Adds `v` to a **measured** counter (wall-clock sums).
    pub fn measured_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.upsert(
            name,
            labels,
            Section::Measured,
            |m| match m {
                MetricValue::Counter(c) => *c += v,
                other => panic!("metric '{name}' is a {}, not a counter", other.type_name()),
            },
            MetricValue::Counter(0),
        );
    }

    /// Raises a **measured** high-water-mark gauge to at least `v`.
    pub fn measured_max(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.upsert(
            name,
            labels,
            Section::Measured,
            |m| match m {
                MetricValue::MaxGauge(g) => *g = (*g).max(v),
                other => panic!(
                    "metric '{name}' is a {}, not a max gauge",
                    other.type_name()
                ),
            },
            MetricValue::MaxGauge(0),
        );
    }

    /// A point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            series: self.inner.lock().unwrap().clone(),
        }
    }

    /// Full Prometheus-style exposition: deterministic section,
    /// [`MEASURED_MARKER`], then the measured section.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Only the deterministic exposition prefix — the part that must
    /// be byte-identical between serial and pooled runs.
    pub fn render_deterministic(&self) -> String {
        self.snapshot().render_deterministic()
    }
}

/// An immutable point-in-time copy of a registry's series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    series: BTreeMap<SeriesKey, Series>,
}

impl MetricsSnapshot {
    /// The value of a `u64`-valued series (counter or max gauge); 0 if
    /// absent.
    pub fn value_u64(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.series.get(&series_key(name, labels)).map(|s| &s.value) {
            Some(MetricValue::Counter(c)) => *c,
            Some(MetricValue::MaxGauge(g)) => *g,
            _ => 0,
        }
    }

    /// Sums every counter series named `name` across all label sets.
    pub fn sum_counters(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, s)| match &s.value {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// The histogram series, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramData> {
        match self.series.get(&series_key(name, labels)).map(|s| &s.value) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Series-wise difference (`self - earlier`): counters and
    /// histograms subtract (saturating), gauges keep `self`'s value.
    /// Used to carve one batch's contribution out of a cumulative
    /// registry.
    pub fn diff(&self, earlier: &Self) -> Self {
        let mut series = BTreeMap::new();
        for (key, s) in &self.series {
            let value = match (&s.value, earlier.series.get(key).map(|e| &e.value)) {
                (MetricValue::Counter(c), Some(MetricValue::Counter(p))) => {
                    MetricValue::Counter(c.saturating_sub(*p))
                }
                (MetricValue::Histogram(h), Some(MetricValue::Histogram(p))) => {
                    MetricValue::Histogram(h.diff(p))
                }
                (v, _) => v.clone(),
            };
            series.insert(
                key.clone(),
                Series {
                    section: s.section,
                    value,
                },
            );
        }
        Self { series }
    }

    /// Full exposition (see [`MetricsRegistry::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        let mut out = self.render_section(Section::Deterministic);
        out.push_str(MEASURED_MARKER);
        out.push('\n');
        out.push_str(&self.render_section(Section::Measured));
        out
    }

    /// Deterministic exposition prefix only.
    pub fn render_deterministic(&self) -> String {
        self.render_section(Section::Deterministic)
    }

    fn render_section(&self, section: Section) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, s) in self.series.iter().filter(|(_, s)| s.section == section) {
            if last_name != Some(key.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", key.name, s.value.type_name());
                last_name = Some(key.name.as_str());
            }
            match &s.value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", key.name, label_block(&key.labels, &[]), c);
                }
                MetricValue::MaxGauge(g) => {
                    let _ = writeln!(out, "{}{} {}", key.name, label_block(&key.labels, &[]), g);
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (&v, &n) in &h.counts {
                        cum += n;
                        let le = v.to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            key.name,
                            label_block(&key.labels, &[("le", &le)]),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        key.name,
                        label_block(&key.labels, &[("le", "+Inf")]),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        label_block(&key.labels, &[]),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        key.name,
                        label_block(&key.labels, &[]),
                        h.count
                    );
                }
            }
        }
        out
    }
}

/// `{k="v",k2="v2"}`, or the empty string for no labels. `extra`
/// pairs (the histogram `le`) render after the series labels.
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_byte_stably_regardless_of_recording_order() {
        let a = MetricsRegistry::new();
        a.counter_add("z_total", &[], 3);
        a.counter_add("a_total", &[("phase", "detect")], 1);
        a.counter_add("a_total", &[("phase", "confirm")], 2);
        let b = MetricsRegistry::new();
        b.counter_add("a_total", &[("phase", "confirm")], 2);
        b.counter_add("z_total", &[], 3);
        b.counter_add("a_total", &[("phase", "detect")], 1);
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        let text = a.render_prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total{phase=\"confirm\"} 2"));
        assert!(text.contains("z_total 3"));
    }

    #[test]
    fn measured_series_render_after_the_marker() {
        let r = MetricsRegistry::new();
        r.counter_add("det_total", &[], 1);
        r.measured_add("wall_us_total", &[], 1234);
        r.measured_max("peak", &[], 7);
        r.measured_max("peak", &[], 3);
        let text = r.render_prometheus();
        let marker_at = text.find(MEASURED_MARKER).expect("marker present");
        let det_at = text.find("det_total").unwrap();
        let wall_at = text.find("wall_us_total").unwrap();
        assert!(det_at < marker_at && marker_at < wall_at);
        assert!(text.contains("peak 7"));
        assert_eq!(r.render_deterministic(), &text[..marker_at]);
    }

    #[test]
    fn histograms_expose_cumulative_buckets() {
        let r = MetricsRegistry::new();
        for v in [2u64, 2, 5, 9] {
            r.observe("taps", &[], v);
        }
        let text = r.render_deterministic();
        assert!(text.contains("# TYPE taps histogram"));
        assert!(text.contains("taps_bucket{le=\"2\"} 2"));
        assert!(text.contains("taps_bucket{le=\"5\"} 3"));
        assert!(text.contains("taps_bucket{le=\"9\"} 4"));
        assert!(text.contains("taps_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("taps_sum 18"));
        assert!(text.contains("taps_count 4"));
    }

    #[test]
    fn snapshot_diff_isolates_a_batch() {
        let r = MetricsRegistry::new();
        r.counter_add("c_total", &[], 5);
        r.observe("h", &[], 1);
        let before = r.snapshot();
        r.counter_add("c_total", &[], 2);
        r.observe("h", &[], 1);
        r.observe("h", &[], 4);
        let delta = r.snapshot().diff(&before);
        assert_eq!(delta.value_u64("c_total", &[]), 2);
        let h = delta.histogram("h", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 5);
        assert_eq!(h.counts().get(&1), Some(&1));
        assert_eq!(h.counts().get(&4), Some(&1));
    }

    #[test]
    fn sum_counters_folds_label_sets() {
        let r = MetricsRegistry::new();
        r.counter_add("x_total", &[("s", "a")], 2);
        r.counter_add("x_total", &[("s", "b")], 3);
        assert_eq!(r.snapshot().sum_counters("x_total"), 5);
        assert_eq!(r.snapshot().value_u64("x_total", &[("s", "b")]), 3);
    }
}
