//! In-memory span recorder for the traced run, and the two views derived
//! from its spans.
//!
//! The benchmark wraps each call it makes into a layer in
//! [`Tracer::span`]. A span records its name, parent, run id and start/end
//! on one monotonic clock; spans stay in memory until [`Tracer::take`].
//! Nothing is recorded inside the program under test.
//!
//! - **Self time** ([`self_times`]): a span's duration minus the part of
//!   its interval covered by its children. Children running on other
//!   threads may overlap one another, so the covered part is the union of
//!   their intervals. Summed over a layer this is thread time.
//! - **Wall share** ([`wall_shares`]): every instant of a root span's
//!   interval is split equally among the spans that are open at that
//!   instant and have no open child. A span's share is what remains of its
//!   self time once concurrent work is divided out, so the shares of all
//!   spans under a root add up to the root's duration exactly.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of one recorded span (0 when tracing is disabled).
pub type SpanId = u64;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its tracer; never 0.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Layer name, such as `nfi` or `cache.load`.
    pub name: &'static str,
    /// Shared by every span of one request or one traced compute call.
    pub run: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans from any number of threads. A disabled tracer runs the
/// wrapped closures and records nothing, so one replay serves the traced
/// and the untraced pass.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's id
    /// so the calls it makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            name,
            run,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, in the order they closed.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// The children of each span, by parent id.
fn children_of(spans: &[Span]) -> HashMap<SpanId, Vec<usize>> {
    let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    children
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let children = children_of(spans);
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&i| (spans[i].start_ns, spans[i].end_ns))
                        .collect()
                })
                .unwrap_or_default();
            s.dur_ns() - union_len(&mut kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Length of the union of the intervals of the spans named `name`.
pub fn covered_ns(spans: &[Span], name: &str) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    union_len(&mut iv, 0, u64::MAX)
}

/// Wall share of every span, in nanoseconds, indexed like `spans` (see the
/// module docs). Spans must nest inside their parents' intervals, as spans
/// made by [`Tracer::span`] from inside the parent's closure do.
fn wall_shares(spans: &[Span]) -> Vec<f64> {
    let index: HashMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent: Vec<Option<usize>> = spans
        .iter()
        .map(|s| s.parent.and_then(|p| index.get(&p).copied()))
        .collect();
    // Ends sort before starts at the same instant, so back-to-back spans
    // are never open together.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns, true, i));
        events.push((s.end_ns, false, i));
    }
    events.sort_unstable();

    let mut open_children = vec![0u32; spans.len()];
    let mut open = vec![false; spans.len()];
    let mut leaves: Vec<usize> = Vec::new();
    let mut shares = vec![0.0f64; spans.len()];
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, is_start, i) in events {
        if t > last && !leaves.is_empty() {
            let each = (t - last) as f64 / leaves.len() as f64;
            for &l in &leaves {
                shares[l] += each;
            }
        }
        last = t;
        let p = parent[i].filter(|&p| open[p]);
        if is_start {
            open[i] = true;
            if let Some(p) = p {
                open_children[p] += 1;
                if open_children[p] == 1 {
                    leaves.retain(|&l| l != p);
                }
            }
            leaves.push(i);
        } else {
            open[i] = false;
            leaves.retain(|&l| l != i);
            if let Some(p) = p {
                open_children[p] -= 1;
                if open_children[p] == 0 {
                    leaves.push(p);
                }
            }
        }
    }
    shares
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    /// Spans of this layer.
    pub count: u64,
    /// Summed self time (thread time), in nanoseconds.
    pub self_ns: u64,
    /// Summed wall share, in nanoseconds.
    pub share_ns: f64,
}

/// Self time and wall share summed per span name.
pub fn layer_totals(spans: &[Span]) -> HashMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let shares = wall_shares(spans);
    let mut out: HashMap<&'static str, LayerTotals> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += selfs[i];
        t.share_ns += shares[i];
    }
    out
}

/// Write `spans` as JSON lines (one object per span, times in µs).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"run\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.id,
            parent,
            s.run,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            run: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    /// root [0,100) with a child [10,40) that has its own child [20,30),
    /// and a second child [50,90).
    fn nested() -> Vec<Span> {
        vec![
            span(3, Some(2), "leaf", 20, 30),
            span(2, Some(1), "mid", 10, 40),
            span(4, Some(1), "mid", 50, 90),
            span(1, None, "root", 0, 100),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let s = nested();
        assert_eq!(self_times(&s), vec![10, 20, 40, 30]);
        let totals = layer_totals(&s);
        assert_eq!(totals["mid"].self_ns, 60);
        assert_eq!(totals["mid"].count, 2);
        assert_eq!(totals["root"].self_ns, 30);
    }

    #[test]
    fn overlapping_children_count_once_against_the_parent() {
        // Two "threads" under one root: [10,60) and [30,80) overlap.
        let s = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "cell", 10, 60),
            span(3, Some(1), "cell", 30, 80),
        ];
        assert_eq!(self_times(&s)[0], 30); // 100 - |[10,80)|
        assert_eq!(covered_ns(&s, "cell"), 70);
        // Wall shares split the overlap [30,60) between the two cells and
        // still add up to the root's duration.
        let shares = wall_shares(&s);
        assert_eq!(shares, vec![30.0, 35.0, 35.0]);
        assert_eq!(shares.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn wall_shares_equal_self_times_without_concurrency() {
        let s = nested();
        let shares = wall_shares(&s);
        let selfs: Vec<f64> = self_times(&s).into_iter().map(|v| v as f64).collect();
        assert_eq!(shares, selfs);
    }

    #[test]
    fn disabled_tracer_runs_the_closure_and_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, |id| id + 7), 7);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", None, 5, |outer| {
            t.span("inner", Some(outer), 5, |id| id)
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].id, inner);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
