//! Per-phase timing for sweep cells.
//!
//! Every perf PR needs a measured trajectory, so the sweep runner records
//! how long each *computed* cell took and how that wall time splits across
//! the kernels inside it. Cell closures mark their hot sections with
//! [`phase`]:
//!
//! ```
//! use sfc_core::timing;
//! let total: u64 = timing::phase("nfi", || (0..100u64).sum());
//! assert_eq!(total, 4950);
//! ```
//!
//! Outside a recording cell, [`phase`] is a transparent wrapper (the code
//! above ran no recorder). Inside the runner, each cell attempt starts a
//! thread-local recorder; the phases observed during the attempt are
//! attached to the cell's [`CellTiming`] in the sweep summary. A cell runs
//! entirely on one worker thread, so a thread-local recorder needs no
//! synchronization and adds two thread-local accesses per phase — noise
//! against kernels that scan millions of pairs.
//!
//! Wall times are inherently non-deterministic, so timings live only in the
//! sweep summary (and the opt-in `--timing` envelope of the bench
//! binaries), never in the byte-identical `--json` artifacts, and cells
//! replayed from a journal carry no timing.

use std::cell::RefCell;
use std::time::Instant;

/// Wall-clock timing of one computed sweep cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellTiming {
    /// Total wall milliseconds of the cell's closure (the successful
    /// attempt only).
    pub wall_ms: f64,
    /// Accumulated milliseconds per named kernel phase, in first-use order.
    /// Phases cover only the instrumented sections, so they sum to at most
    /// `wall_ms`.
    pub phases: Vec<(String, f64)>,
}

impl CellTiming {
    /// Milliseconds attributed to `name`, if that phase ran.
    pub fn phase_ms(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, ms)| ms)
    }
}

thread_local! {
    /// Phase accumulator of the cell currently recording on this thread;
    /// `None` outside the runner.
    static RECORDER: RefCell<Option<Vec<(String, f64)>>> = const { RefCell::new(None) };
}

/// Run `f`, attributing its wall time to phase `name` of the recording
/// cell, if any. Repeated phases accumulate; outside a recording cell this
/// is just `f()`.
pub fn phase<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let recording = RECORDER.with(|r| r.borrow().is_some());
    if !recording {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    RECORDER.with(|r| {
        if let Some(phases) = r.borrow_mut().as_mut() {
            match phases.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => *acc += ms,
                None => phases.push((name.to_string(), ms)),
            }
        }
    });
    out
}

/// A fixed-bucket latency histogram with power-of-two microsecond buckets.
///
/// Bucket `i` counts observations in `[2^i, 2^(i+1))` µs (bucket 0 also
/// absorbs sub-microsecond observations, the last bucket absorbs everything
/// above its lower bound). The layout is fixed so two histograms — or the
/// same histogram across daemon restarts — are always mergeable and
/// comparable without bucket-boundary negotiation; `sfc-serve` reports one
/// per request kind in its `stats` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; Self::BUCKETS],
    total: u64,
    sum_micros: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; Self::BUCKETS],
            total: 0,
            sum_micros: 0,
        }
    }
}

impl LatencyHistogram {
    /// Number of buckets: `2^31` µs is ~36 minutes, far beyond any request
    /// this daemon answers, so the top bucket is a pure overflow guard.
    pub const BUCKETS: usize = 32;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `micros` µs.
    pub fn record_micros(&mut self, micros: u64) {
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
    }

    /// Record one observed duration.
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_micros(elapsed.as_micros().try_into().unwrap_or(u64::MAX));
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded observations in µs (saturating), the
    /// `_sum` companion of the Prometheus histogram exposition.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The non-empty buckets as `(exclusive upper bound in µs, count)`
    /// pairs, in ascending bound order. The top bucket's bound is reported
    /// as `u64::MAX` since it absorbs every overflow.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let bound = if i + 1 >= 64 || i == Self::BUCKETS - 1 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                (bound, c)
            })
            .collect()
    }
}

/// Begin recording phases on this thread (runner-internal; called before
/// each cell attempt). Any previous recording on the thread is discarded.
pub(crate) fn start_recording() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Vec::new()));
}

/// Stop recording on this thread and return the phases observed since
/// [`start_recording`].
pub(crate) fn take_recording() -> Vec<(String, f64)> {
    RECORDER.with(|r| r.borrow_mut().take()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_is_transparent_without_a_recorder() {
        assert_eq!(phase("nfi", || 41 + 1), 42);
        // Nothing was recorded.
        assert!(take_recording().is_empty());
    }

    #[test]
    fn recorder_accumulates_repeated_phases_in_first_use_order() {
        start_recording();
        phase("sample", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        phase("nfi", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        phase("sample", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let phases = take_recording();
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["sample", "nfi"]);
        assert!(
            phases[0].1 >= 4.0,
            "accumulated sample time {}",
            phases[0].1
        );
        assert!(phases[1].1 >= 1.0);
        // The recorder is consumed.
        assert!(take_recording().is_empty());
    }

    #[test]
    fn start_recording_discards_stale_phases() {
        start_recording();
        phase("stale", || ());
        start_recording();
        phase("fresh", || ());
        let phases = take_recording();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "fresh");
    }

    #[test]
    fn histogram_buckets_are_powers_of_two_micros() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        h.record_micros(0); // sub-µs lands in bucket 0 ([1, 2))
        h.record_micros(1);
        h.record_micros(3); // [2, 4)
        h.record_micros(4); // [4, 8)
        h.record_micros(7);
        h.record_micros(u64::MAX); // overflow guard bucket
        assert_eq!(h.count(), 6);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(2, 2), (4, 1), (8, 2), (u64::MAX, 1)]
        );
    }

    #[test]
    fn histogram_records_durations() {
        let mut h = LatencyHistogram::new();
        h.record(std::time::Duration::from_micros(100)); // [64, 128)
        assert_eq!(h.nonzero_buckets(), vec![(128, 1)]);
    }

    #[test]
    fn cell_timing_lookup() {
        let t = CellTiming {
            wall_ms: 10.0,
            phases: vec![("nfi".into(), 6.0), ("ffi".into(), 3.0)],
        };
        assert_eq!(t.phase_ms("nfi"), Some(6.0));
        assert_eq!(t.phase_ms("sample"), None);
    }
}
