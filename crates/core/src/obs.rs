//! Unified observability: a metrics registry and a structured trace sink.
//!
//! The paper's whole contribution is *measurement*, and the serving stack
//! deserves the same discipline it applies to ACD sweeps. Before this
//! module, runtime counters lived as ad-hoc struct fields hand-serialized
//! into three divergent JSON shapes; now every counter, gauge and latency
//! histogram registers in one process-local [`MetricsRegistry`] that both
//! the JSON telemetry and the Prometheus text page render from — one
//! substrate, one wire schema.
//!
//! ## Metrics
//!
//! A registry holds *families* (one metric name + help text + kind), each
//! with one or more label-distinguished *series*:
//!
//! ```
//! use sfc_core::obs::MetricsRegistry;
//! let registry = MetricsRegistry::new();
//! let hits = registry.counter("demo_hits_total", "Requests served from cache.");
//! hits.inc();
//! let nfi = registry.counter_labeled(
//!     "demo_phase_us_total",
//!     "Kernel microseconds by phase.",
//!     &[("phase", "nfi")],
//! );
//! nfi.add(1500);
//! let page = registry.render_prometheus();
//! assert!(page.contains("demo_hits_total 1"));
//! assert!(page.contains("demo_phase_us_total{phase=\"nfi\"} 1500"));
//! ```
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of
//! the registered storage, so the registry entry *is* the counter — there is
//! no copy to drift out of sync. Registration is idempotent: asking for an
//! already-registered `(name, labels)` series returns a handle to the same
//! storage. Derived gauges ([`MetricsRegistry::derived_gauge`]) compute
//! their value at render time from a closure, which is how ratios like a
//! cache hit rate stay consistent with the counters they divide.
//!
//! ## Tracing
//!
//! A [`TraceSink`] appends one JSON object per line to a trace file: spans
//! and events with microsecond timestamps monotonic from the sink's
//! creation, each stamped with the `request_id` of the work it belongs to.
//! A sink built with [`TraceSink::disabled`] makes every record a no-op, so
//! instrumentation can stay in place unconditionally. Trace files are
//! wall-clock facts about one run — like the `--timing` envelope, they are
//! never part of a byte-identical artifact.

use crate::timing::LatencyHistogram;
use serde_json::{Map, ToJson, Value};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonically increasing counter. Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A standalone counter not (yet) attached to any registry.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::SeqCst);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::SeqCst);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

/// A gauge: a value that can move in both directions (bytes resident,
/// queue depth, 0/1 flags). Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// A standalone gauge not (yet) attached to any registry.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::SeqCst);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

/// A registered latency histogram (power-of-two µs buckets, see
/// [`LatencyHistogram`]). Cloning shares the underlying storage.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<Mutex<LatencyHistogram>>,
}

impl Histogram {
    /// Record one observed duration.
    pub fn record(&self, elapsed: Duration) {
        self.lock().record(elapsed);
    }

    /// Record one observation of `micros` µs.
    pub fn record_micros(&self, micros: u64) {
        self.lock().record_micros(micros);
    }

    /// A copy of the current histogram state.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LatencyHistogram> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Latency distribution.
    Histogram,
}

impl MetricKind {
    fn prometheus_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum SeriesValue {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// Computed at render time (ratios like hit rate stay consistent with
    /// the counters they divide).
    Derived(Arc<dyn Fn() -> f64 + Send + Sync>),
}

struct Series {
    labels: Vec<(String, String)>,
    value: SeriesValue,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// The sampled value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter or gauge value.
    Uint(u64),
    /// Derived-gauge value.
    Float(f64),
    /// Histogram state (boxed: a histogram is 32 buckets wide, far larger
    /// than the scalar variants).
    Histo(Box<LatencyHistogram>),
}

/// One series of a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// The series' label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// A point-in-time copy of one metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// The family's series, in registration order.
    pub series: Vec<SeriesSnapshot>,
}

impl SeriesSnapshot {
    /// The value of label `key`, if the series carries it.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A process-local registry of named metrics; see the module docs.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("families", &self.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Family>> {
        self.families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Register (or fetch) an unlabeled counter. Counter names should end
    /// in `_total` per the Prometheus convention.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_labeled(name, help, &[])
    }

    /// Register (or fetch) a labeled counter series.
    pub fn counter_labeled(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels, || {
            SeriesValue::Counter(Counter::new())
        }) {
            SeriesValue::Counter(c) => c,
            _ => unreachable!("series kind is checked on registration"),
        }
    }

    /// Register (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, &[], || {
            SeriesValue::Gauge(Gauge::new())
        }) {
            SeriesValue::Gauge(g) => g,
            _ => unreachable!("series kind is checked on registration"),
        }
    }

    /// Register a gauge whose value is computed at render time. Unlike the
    /// handle-returning registrations this one is *not* idempotent-by-need:
    /// registering the same name twice keeps the first closure.
    pub fn derived_gauge(
        &self,
        name: &str,
        help: &str,
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        let f: Arc<dyn Fn() -> f64 + Send + Sync> = Arc::new(f);
        self.series(name, help, MetricKind::Gauge, &[], move || {
            SeriesValue::Derived(Arc::clone(&f))
        });
    }

    /// Register (or fetch) a labeled latency histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels, || {
            SeriesValue::Histogram(Histogram::default())
        }) {
            SeriesValue::Histogram(h) => h,
            _ => unreachable!("series kind is checked on registration"),
        }
    }

    /// Find-or-create one series. Panics on a kind conflict — reusing one
    /// name for two metric kinds is a programming error that must not
    /// silently corrupt the exposition.
    fn series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> SeriesValue,
    ) -> SeriesValue {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.lock();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind, kind,
                    "metric `{name}` registered as {:?} and {kind:?}",
                    f.kind
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
            return clone_value(&existing.value);
        }
        let value = make();
        let handle = clone_value(&value);
        family.series.push(Series { labels, value });
        handle
    }

    /// Point-in-time copy of every family, in registration order.
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        self.lock().iter().map(snapshot_family).collect()
    }

    /// Point-in-time copy of the family named `name`.
    pub fn family_snapshot(&self, name: &str) -> Option<FamilySnapshot> {
        self.lock()
            .iter()
            .find(|f| f.name == name)
            .map(snapshot_family)
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` and `# TYPE` lines per family, one
    /// sample line per series (histograms expand into cumulative `_bucket`
    /// lines plus `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for family in self.snapshot() {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(
                out,
                "# TYPE {} {}",
                family.name,
                family.kind.prometheus_name()
            );
            for series in &family.series {
                let labels = render_labels(&series.labels);
                match &series.value {
                    SampleValue::Uint(v) => {
                        let _ = writeln!(out, "{}{labels} {v}", family.name);
                    }
                    SampleValue::Float(v) => {
                        let _ = writeln!(out, "{}{labels} {v}", family.name);
                    }
                    SampleValue::Histo(h) => {
                        let mut cumulative = 0u64;
                        for (bound, count) in h.nonzero_buckets() {
                            cumulative += count;
                            if bound == u64::MAX {
                                continue; // folded into +Inf below
                            }
                            let le = render_labels_with(&series.labels, "le", &bound.to_string());
                            let _ = writeln!(out, "{}_bucket{le} {cumulative}", family.name);
                        }
                        let inf = render_labels_with(&series.labels, "le", "+Inf");
                        let _ = writeln!(out, "{}_bucket{inf} {}", family.name, h.count());
                        let _ = writeln!(out, "{}_sum{labels} {}", family.name, h.sum_micros());
                        let _ = writeln!(out, "{}_count{labels} {}", family.name, h.count());
                    }
                }
            }
        }
        out
    }
}

fn clone_value(value: &SeriesValue) -> SeriesValue {
    match value {
        SeriesValue::Counter(c) => SeriesValue::Counter(c.clone()),
        SeriesValue::Gauge(g) => SeriesValue::Gauge(g.clone()),
        SeriesValue::Histogram(h) => SeriesValue::Histogram(h.clone()),
        SeriesValue::Derived(f) => SeriesValue::Derived(Arc::clone(f)),
    }
}

fn snapshot_family(family: &Family) -> FamilySnapshot {
    FamilySnapshot {
        name: family.name.clone(),
        help: family.help.clone(),
        kind: family.kind,
        series: family
            .series
            .iter()
            .map(|s| SeriesSnapshot {
                labels: s.labels.clone(),
                value: match &s.value {
                    SeriesValue::Counter(c) => SampleValue::Uint(c.get()),
                    SeriesValue::Gauge(g) => SampleValue::Uint(g.get()),
                    SeriesValue::Histogram(h) => SampleValue::Histo(Box::new(h.snapshot())),
                    SeriesValue::Derived(f) => SampleValue::Float(f()),
                },
            })
            .collect(),
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn render_labels_with(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push((key.to_string(), value.to_string()));
    render_labels(&all)
}

/// A JSONL trace sink: one JSON object per record, timestamps in
/// microseconds monotonic from the sink's creation. See the module docs.
#[derive(Debug)]
pub struct TraceSink {
    inner: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
    epoch: Instant,
}

impl TraceSink {
    /// A sink whose records all vanish (zero-cost instrumentation default).
    pub fn disabled() -> TraceSink {
        TraceSink {
            inner: None,
            epoch: Instant::now(),
        }
    }

    /// Open (create or truncate) a trace file at `path`.
    pub fn to_path(path: &str) -> std::io::Result<TraceSink> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink {
            inner: Some(Mutex::new(std::io::BufWriter::new(file))),
            epoch: Instant::now(),
        })
    }

    /// Whether records actually go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one span: a named unit of work attributed to `request_id`,
    /// with its duration and any extra fields. Writes (and flushes) one
    /// JSON line; a disabled sink does nothing.
    pub fn span(&self, name: &str, request_id: &str, duration: Duration, fields: &[(&str, Value)]) {
        self.write_record("span", name, request_id, Some(duration), fields);
    }

    /// Record one instantaneous event attributed to `request_id`.
    pub fn event(&self, name: &str, request_id: &str, fields: &[(&str, Value)]) {
        self.write_record("event", name, request_id, None, fields);
    }

    fn write_record(
        &self,
        kind: &str,
        name: &str,
        request_id: &str,
        duration: Option<Duration>,
        fields: &[(&str, Value)],
    ) {
        let Some(inner) = &self.inner else { return };
        let mut doc = Map::new();
        doc.insert(
            "ts_us",
            (u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)).to_json(),
        );
        doc.insert("kind", kind.to_json());
        doc.insert("name", name.to_json());
        doc.insert("request_id", request_id.to_json());
        if let Some(d) = duration {
            doc.insert(
                "dur_us",
                (u64::try_from(d.as_micros()).unwrap_or(u64::MAX)).to_json(),
            );
        }
        for (k, v) in fields {
            doc.insert(*k, v.clone());
        }
        let line = match serde_json::to_string(&Value::Object(doc)) {
            Ok(l) => l,
            Err(_) => return,
        };
        let mut out = inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Trace loss is tolerable; trace-induced crashes are not.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_storage_across_clones_and_reregistration() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x_total", "help");
        let b = registry.counter("x_total", "other help is ignored");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labeled_series_are_distinct_within_one_family() {
        let registry = MetricsRegistry::new();
        let nfi = registry.counter_labeled("phase_us_total", "h", &[("phase", "nfi")]);
        let ffi = registry.counter_labeled("phase_us_total", "h", &[("phase", "ffi")]);
        nfi.add(10);
        ffi.add(20);
        let fam = registry.family_snapshot("phase_us_total").unwrap();
        assert_eq!(fam.series.len(), 2);
        assert_eq!(fam.series[0].label("phase"), Some("nfi"));
        assert_eq!(fam.series[0].value, SampleValue::Uint(10));
        assert_eq!(fam.series[1].value, SampleValue::Uint(20));
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("x_total", "h");
        let _ = registry.gauge("x_total", "h");
    }

    #[test]
    fn derived_gauge_renders_the_closure_value() {
        let registry = MetricsRegistry::new();
        let hits = registry.counter("hits_total", "h");
        let runs = registry.counter("runs_total", "h");
        let (h, r) = (hits.clone(), runs.clone());
        registry.derived_gauge("hit_rate", "hits / runs", move || {
            let runs = r.get();
            if runs == 0 {
                0.0
            } else {
                h.get() as f64 / runs as f64
            }
        });
        hits.inc();
        runs.add(2);
        let page = registry.render_prometheus();
        assert!(page.contains("hit_rate 0.5"), "{page}");
    }

    #[test]
    fn prometheus_rendering_has_help_type_and_escaped_labels() {
        let registry = MetricsRegistry::new();
        registry
            .counter_labeled("req_total", "Requests by \"op\".", &[("op", "a\"b")])
            .inc();
        registry.gauge("depth", "Queue depth.").set(7);
        let page = registry.render_prometheus();
        assert!(page.contains("# HELP req_total Requests by \"op\".\n"));
        assert!(page.contains("# TYPE req_total counter\n"));
        assert!(page.contains("req_total{op=\"a\\\"b\"} 1\n"), "{page}");
        assert!(page.contains("# TYPE depth gauge\n"));
        assert!(page.contains("depth 7\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_and_count() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat_us", "Latency.", &[("op", "run")]);
        h.record_micros(3); // [2, 4)
        h.record_micros(3);
        h.record_micros(100); // [64, 128)
        let page = registry.render_prometheus();
        assert!(page.contains("# TYPE lat_us histogram\n"));
        assert!(
            page.contains("lat_us_bucket{op=\"run\",le=\"4\"} 2\n"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_bucket{op=\"run\",le=\"128\"} 3\n"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_bucket{op=\"run\",le=\"+Inf\"} 3\n"),
            "{page}"
        );
        assert!(page.contains("lat_us_sum{op=\"run\"} 106\n"), "{page}");
        assert!(page.contains("lat_us_count{op=\"run\"} 3\n"), "{page}");
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.span("x", "r-1", Duration::from_millis(1), &[]);
        sink.event("y", "r-1", &[]);
    }

    #[test]
    fn sink_writes_one_json_line_per_record() {
        let path = std::env::temp_dir().join(format!("sfc-obs-trace-{}.jsonl", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let sink = TraceSink::to_path(&path_str).unwrap();
        assert!(sink.is_enabled());
        sink.span(
            "cell",
            "r-42",
            Duration::from_micros(1500),
            &[("cell", "uniform/t0".to_json())],
        );
        sink.event("hit", "r-42", &[("tier", "memory".to_json())]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let span: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(span.get("kind"), Some(&"span".to_json()));
        assert_eq!(span.get("name"), Some(&"cell".to_json()));
        assert_eq!(span.get("request_id"), Some(&"r-42".to_json()));
        assert_eq!(span.get("dur_us"), Some(&1500u64.to_json()));
        assert_eq!(span.get("cell"), Some(&"uniform/t0".to_json()));
        assert!(span.get("ts_us").and_then(Value::as_u64).is_some());
        let event: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(event.get("kind"), Some(&"event".to_json()));
        assert!(event.get("dur_us").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_reflects_live_values() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("c_total", "h");
        let before = registry.snapshot();
        c.add(5);
        let after = registry.snapshot();
        assert_eq!(before[0].series[0].value, SampleValue::Uint(0));
        assert_eq!(after[0].series[0].value, SampleValue::Uint(5));
    }
}
