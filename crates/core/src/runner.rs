//! Fault-tolerant, parallel sweep execution.
//!
//! A regeneration sweep is decomposed into named *cells* — one
//! `(configuration, trial)` unit each. Cells are submitted in batches
//! ([`SweepRunner::run_cells`]) and executed on a pool of worker threads
//! (`--jobs`); each cell runs under [`std::panic::catch_unwind`] with
//! bounded deterministic retries of panics (a typed [`SfcError`] the cell
//! returns fails it on the first attempt), is journaled as it completes (see
//! [`crate::journal`]), and is replayed from the journal on restart so
//! interrupted sweeps resume instead of recomputing. A wall-clock
//! `time_budget` stops *scheduling* new cells once exhausted (cells in
//! flight finish), and a deterministic chaos hook injects panics into
//! selected cells for fault-injection tests.
//!
//! ## Determinism
//!
//! Thread count never changes output bytes. Cells are pure functions of
//! their name and the sweep configuration, journal writes are serialized
//! through a single writer, and results are assembled in *submission*
//! order, so the artifact produced under `--jobs 8` is byte-identical to
//! the one produced under `--jobs 1` — and a journal written at one thread
//! count replays correctly at any other (replay is by cell name, not byte
//! offset).
//!
//! Cells that return a typed error, or still panic after the retries,
//! become structured [`SfcError::CellFailed`] values in the
//! [`SweepSummary`] — the sweep keeps going and reports them at the end,
//! rather than aborting a multi-hour run on the last configuration. Journal *write* failures are not silently
//! swallowed: the summary records a `journal_degraded` flag on the first
//! failed write, and once [`MAX_JOURNAL_WRITE_FAILURES`] consecutive writes
//! fail the journal is declared dead and every subsequent cell returns a
//! hard [`SfcError::JournalIo`] instead of computing results whose coverage
//! the journal would falsely claim on resume.

use crate::error::SfcError;
use crate::journal::{CellOutcome, Journal};
use crate::timing::{self, CellTiming};
use serde_json::Value;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default number of attempts per cell (1 initial + 2 retries).
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Consecutive journal write failures tolerated before the journal is
/// declared dead and the sweep starts failing cells hard.
pub const MAX_JOURNAL_WRITE_FAILURES: u32 = 3;

/// Deterministic fault injection: cells whose name contains one of the
/// patterns panic before their closure runs.
#[derive(Debug, Clone, Default)]
pub struct ChaosInjector {
    /// Substring patterns of cell names to sabotage.
    pub patterns: Vec<String>,
    /// `false`: panic only on the first attempt (the retry succeeds).
    /// `true`: panic on every attempt (the cell becomes a structured
    /// failure).
    pub persistent: bool,
}

impl ChaosInjector {
    /// New injector over comma-separated substring patterns.
    pub fn new(patterns: &[String], persistent: bool) -> Self {
        ChaosInjector {
            patterns: patterns.to_vec(),
            persistent,
        }
    }

    fn should_panic(&self, cell: &str, attempt: u32) -> bool {
        (self.persistent || attempt == 0)
            && self
                .patterns
                .iter()
                .any(|p| !p.is_empty() && cell.contains(p))
    }
}

/// Configuration of a [`SweepRunner`].
#[derive(Debug, Default)]
pub struct RunnerOptions {
    /// Journal file to append to / resume from (`--journal`).
    pub journal: Option<std::path::PathBuf>,
    /// Attempts per cell before recording a failure; 0 is treated as 1.
    pub max_attempts: u32,
    /// Wall-clock budget; once exceeded, no new cells start
    /// (`--time-budget`).
    pub time_budget: Option<Duration>,
    /// Fault injection for tests (`--chaos`).
    pub chaos: Option<ChaosInjector>,
    /// Worker threads for batch-submitted cells (`--jobs`); 0 means "all
    /// cores" ([`std::thread::available_parallelism`]). Results are
    /// byte-identical for every value.
    pub jobs: usize,
    /// Journal fault injection for tests (`--chaos-journal`): after this
    /// many successful record writes, every further write fails.
    pub journal_fail_after: Option<u64>,
}

impl RunnerOptions {
    /// Options with the default retry bound and everything else off.
    pub fn new() -> Self {
        RunnerOptions {
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            ..Default::default()
        }
    }
}

/// How one cell was resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// Computed in this run (possibly after retries).
    Computed(Vec<f64>),
    /// Replayed from the journal without recomputation.
    Replayed(Vec<f64>),
    /// Returned a typed error or panicked on every attempt
    /// ([`SfcError::CellFailed`]), or refused because the journal died
    /// ([`SfcError::JournalIo`]); the sweep continues without it.
    Failed(SfcError),
    /// Not started: the time budget was exhausted.
    Skipped,
}

impl CellResult {
    /// The cell's values, if it completed (now or in a previous run).
    pub fn values(&self) -> Option<&[f64]> {
        match self {
            CellResult::Computed(v) | CellResult::Replayed(v) => Some(v),
            _ => None,
        }
    }
}

/// One named unit of sweep work, for batch submission via
/// [`SweepRunner::run_cells`]. The closure must be callable repeatedly
/// (retries) from any worker thread, and must be a pure function of the
/// sweep configuration so that results are identical regardless of which
/// thread computes them.
pub struct BatchCell<'s> {
    name: String,
    work: Box<dyn Fn() -> Result<Vec<f64>, SfcError> + Send + Sync + 's>,
}

impl<'s> BatchCell<'s> {
    /// Package one named infallible cell.
    pub fn new<F: Fn() -> Vec<f64> + Send + Sync + 's>(name: impl Into<String>, work: F) -> Self {
        Self::try_new(name, move || Ok(work()))
    }

    /// Package one named fallible cell. An `Err` is deterministic — the
    /// same inputs give the same error — so it fails the cell on its first
    /// attempt; only panics are retried.
    pub fn try_new<F>(name: impl Into<String>, work: F) -> Self
    where
        F: Fn() -> Result<Vec<f64>, SfcError> + Send + Sync + 's,
    {
        BatchCell {
            name: name.into(),
            work: Box::new(work),
        }
    }

    /// The cell's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for BatchCell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchCell")
            .field("name", &self.name)
            .finish()
    }
}

/// One failed cell, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCell {
    /// Cell name.
    pub cell: String,
    /// The cell's typed error, the captured panic message of its final
    /// attempt, or the journal error that refused it.
    pub error: String,
    /// Attempts made (0 when the cell never ran).
    pub attempts: u32,
}

/// End-of-sweep accounting.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Cells computed in this run.
    pub computed: usize,
    /// Cells replayed from the journal.
    pub replayed: usize,
    /// Cells that failed (this run or a journaled one), or were refused
    /// because the journal died.
    pub failed: Vec<FailedCell>,
    /// Cells never started because the time budget ran out.
    pub skipped: Vec<String>,
    /// True when at least one journal write failed: the journal on disk
    /// under-reports this run's coverage, so a resume would recompute (and
    /// for failure records, re-retry) cells this run already resolved.
    pub journal_degraded: bool,
    /// Wall time and kernel-phase breakdown of every cell *computed* in
    /// this run (successful attempt only), in submission order. Replayed,
    /// failed and skipped cells have no entry. Excluded from equality —
    /// wall times are non-deterministic, while the rest of the summary must
    /// be byte-identical at any thread count.
    pub timings: Vec<(String, CellTiming)>,
}

impl PartialEq for SweepSummary {
    fn eq(&self, other: &Self) -> bool {
        self.computed == other.computed
            && self.replayed == other.replayed
            && self.failed == other.failed
            && self.skipped == other.skipped
            && self.journal_degraded == other.journal_degraded
    }
}

impl SweepSummary {
    /// True when every scheduled cell completed and the journal (if any)
    /// recorded all of them.
    pub fn complete(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty() && !self.journal_degraded
    }

    /// Names of all cells missing from the results (failed or skipped).
    pub fn missing(&self) -> Vec<String> {
        let mut out: Vec<String> = self.failed.iter().map(|f| f.cell.clone()).collect();
        out.extend(self.skipped.iter().cloned());
        out
    }
}

/// Serialized journal writer shared by the worker pool: a single point
/// through which every record write goes, tracking write health.
#[derive(Debug)]
struct JournalState {
    journal: Journal,
    /// Consecutive failed writes; reset on every success.
    consecutive_failures: u32,
    /// Set on the first failed write, never cleared.
    degraded: bool,
    /// Set once `consecutive_failures` reaches the bound: the error every
    /// subsequent cell is refused with.
    dead: Option<SfcError>,
}

impl JournalState {
    /// Append one outcome; on failure, update the degradation state.
    fn record(&mut self, cell: &str, outcome: CellOutcome) {
        match self.journal.record(cell, outcome) {
            Ok(()) => self.consecutive_failures = 0,
            Err(e) => {
                self.degraded = true;
                self.consecutive_failures += 1;
                eprintln!("warning: journal write failed for cell `{cell}`: {e}");
                if self.consecutive_failures >= MAX_JOURNAL_WRITE_FAILURES && self.dead.is_none() {
                    eprintln!(
                        "error: {} consecutive journal writes failed; refusing further cells",
                        self.consecutive_failures
                    );
                    self.dead = Some(e);
                }
            }
        }
    }
}

/// Shared per-batch execution context for the worker pool.
struct BatchCtx<'a, 'env> {
    cells: &'a [BatchCell<'env>],
    /// Indices of cells not resolved by replay, in submission order.
    queue: Mutex<VecDeque<usize>>,
    /// One slot per submitted cell, filled as workers finish.
    results: Mutex<Vec<Option<CellResult>>>,
    /// Timing of each computed cell, same indexing as `results`.
    timings: Mutex<Vec<Option<CellTiming>>>,
    journal: &'a Mutex<Option<JournalState>>,
    chaos: &'a Option<ChaosInjector>,
    max_attempts: u32,
    time_budget: Option<Duration>,
    started: Instant,
}

impl BatchCtx<'_, '_> {
    fn out_of_time(&self) -> bool {
        self.time_budget
            .is_some_and(|budget| self.started.elapsed() >= budget)
    }

    /// The journal's hard error, if writes have persistently failed.
    fn journal_dead(&self) -> Option<SfcError> {
        let guard = self.journal.lock().expect("journal lock");
        guard.as_ref().and_then(|s| s.dead.clone())
    }

    fn record(&self, cell: &str, outcome: CellOutcome) {
        let mut guard = self.journal.lock().expect("journal lock");
        if let Some(state) = guard.as_mut() {
            state.record(cell, outcome);
        }
    }

    /// Claim-and-run loop executed by every worker thread (and inline by
    /// the calling thread when one worker suffices).
    fn worker_loop(&self) {
        loop {
            let i = match self.queue.lock().expect("queue lock").pop_front() {
                Some(i) => i,
                None => break,
            };
            let (result, timing) = self.run_one(&self.cells[i]);
            self.results.lock().expect("results lock")[i] = Some(result);
            if timing.is_some() {
                self.timings.lock().expect("timings lock")[i] = timing;
            }
        }
    }

    /// Execute one cell: journal-health gate, budget gate, then the bounded
    /// retry loop under `catch_unwind`. A computed cell also returns the
    /// wall time and phase breakdown of its successful attempt.
    fn run_one(&self, cell: &BatchCell<'_>) -> (CellResult, Option<CellTiming>) {
        if let Some(err) = self.journal_dead() {
            return (CellResult::Failed(err), None);
        }
        if self.out_of_time() {
            return (CellResult::Skipped, None);
        }
        let mut last_error = String::new();
        let mut attempts = 0;
        for attempt in 0..self.max_attempts {
            attempts = attempt + 1;
            let chaos_hit = self
                .chaos
                .as_ref()
                .is_some_and(|c| c.should_panic(&cell.name, attempt));
            // A cell runs entirely on this thread, so a thread-local phase
            // recorder observes exactly this attempt (and discards any
            // half-recorded phases of a panicked previous one).
            timing::start_recording();
            let attempt_started = Instant::now();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if chaos_hit {
                    panic!("chaos injection");
                }
                (cell.work)()
            }));
            match result {
                Ok(Ok(values)) => {
                    let cell_timing = CellTiming {
                        wall_ms: attempt_started.elapsed().as_secs_f64() * 1e3,
                        phases: timing::take_recording(),
                    };
                    self.record(&cell.name, CellOutcome::Ok(values.clone()));
                    return (CellResult::Computed(values), Some(cell_timing));
                }
                Ok(Err(e)) => {
                    last_error = e.to_string();
                    break;
                }
                Err(payload) => last_error = panic_message(payload.as_ref()),
            }
        }
        let _ = timing::take_recording();
        self.record(
            &cell.name,
            CellOutcome::Failed {
                error: last_error.clone(),
                attempts,
            },
        );
        (
            CellResult::Failed(SfcError::CellFailed {
                cell: cell.name.clone(),
                error: last_error,
                attempts,
            }),
            None,
        )
    }
}

/// Executes sweep cells on a worker pool with journaling, retries, chaos
/// and a time budget.
#[derive(Debug)]
pub struct SweepRunner {
    journal: Mutex<Option<JournalState>>,
    max_attempts: u32,
    time_budget: Option<Duration>,
    chaos: Option<ChaosInjector>,
    jobs: usize,
    started: Instant,
    summary: SweepSummary,
}

impl SweepRunner {
    /// Create a runner for the sweep `name` under the given configuration
    /// `fingerprint`. When `options.journal` is set, the journal is opened
    /// (resuming any completed cells); a journal written under a different
    /// name/fingerprint is rejected.
    pub fn new(name: &str, fingerprint: &Value, options: RunnerOptions) -> Result<Self, SfcError> {
        let journal = match &options.journal {
            Some(path) => {
                let mut journal = Journal::open(Path::new(path), name, fingerprint)?;
                if let Some(n) = options.journal_fail_after {
                    journal.inject_write_failures_after(n);
                }
                Some(JournalState {
                    journal,
                    consecutive_failures: 0,
                    degraded: false,
                    dead: None,
                })
            }
            None => None,
        };
        let jobs = match options.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Ok(SweepRunner {
            journal: Mutex::new(journal),
            max_attempts: options.max_attempts.max(1),
            time_budget: options.time_budget,
            chaos: options.chaos,
            jobs,
            started: Instant::now(),
            summary: SweepSummary::default(),
        })
    }

    /// A runner with no journal, no budget and no chaos — plain bounded
    /// retry on the default worker pool. Useful for tests and ad-hoc
    /// sweeps.
    pub fn ephemeral() -> Self {
        SweepRunner::new("ephemeral", &Value::Null, RunnerOptions::new())
            .expect("no journal to fail on")
    }

    /// Number of cells already present in the journal (0 without one).
    pub fn journaled(&self) -> usize {
        let guard = self.journal.lock().expect("journal lock");
        guard.as_ref().map_or(0, |s| s.journal.len())
    }

    /// Worker threads cells are scheduled on.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// True once the wall-clock budget is spent: no further cell will run.
    pub fn out_of_time(&self) -> bool {
        self.time_budget
            .is_some_and(|budget| self.started.elapsed() >= budget)
    }

    /// Run (or replay) a batch of independent cells on the worker pool.
    ///
    /// Cells execute concurrently (up to the configured `jobs`), but the
    /// returned results — and the summary accounting — are in *submission*
    /// order, and every cell's values are independent of scheduling, so a
    /// sweep's artifact is byte-identical at any thread count. Journaled
    /// cells are replayed without being scheduled; a spent time budget
    /// skips cells not yet claimed (cells in flight finish); a dead journal
    /// fails remaining cells hard with [`SfcError::JournalIo`].
    pub fn run_cells(&mut self, cells: Vec<BatchCell<'_>>) -> Vec<CellResult> {
        let n = cells.len();
        let mut slots: Vec<Option<CellResult>> = vec![None; n];
        let mut pending: VecDeque<usize> = VecDeque::new();
        {
            let guard = self.journal.lock().expect("journal lock");
            for (i, cell) in cells.iter().enumerate() {
                let replay = guard
                    .as_ref()
                    .and_then(|s| s.journal.lookup(&cell.name))
                    .cloned();
                match replay {
                    Some(CellOutcome::Ok(values)) => {
                        slots[i] = Some(CellResult::Replayed(values));
                    }
                    Some(CellOutcome::Failed { error, attempts }) => {
                        slots[i] = Some(CellResult::Failed(SfcError::CellFailed {
                            cell: cell.name.clone(),
                            error,
                            attempts,
                        }));
                    }
                    None => pending.push_back(i),
                }
            }
        }

        let mut cell_timings: Vec<Option<CellTiming>> = vec![None; n];
        if !pending.is_empty() {
            let workers = self.jobs.min(pending.len()).max(1);
            let ctx = BatchCtx {
                cells: &cells,
                queue: Mutex::new(pending),
                results: Mutex::new(slots),
                timings: Mutex::new(cell_timings),
                journal: &self.journal,
                chaos: &self.chaos,
                max_attempts: self.max_attempts,
                time_budget: self.time_budget,
                started: self.started,
            };
            if workers == 1 {
                ctx.worker_loop();
            } else {
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        let ctx = &ctx;
                        s.spawn(move || ctx.worker_loop());
                    }
                });
            }
            slots = ctx.results.into_inner().expect("results lock");
            cell_timings = ctx.timings.into_inner().expect("timings lock");
        }

        // Summary accounting in submission order, so partial-sweep reports
        // and the JSON envelope are deterministic at any thread count (cell
        // timings follow the same order, though their values never are).
        let mut out = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            let result = slot.expect("every submitted cell resolves");
            match &result {
                CellResult::Computed(_) => {
                    self.summary.computed += 1;
                    if let Some(timing) = cell_timings[i].take() {
                        self.summary.timings.push((cells[i].name.clone(), timing));
                    }
                }
                CellResult::Replayed(_) => self.summary.replayed += 1,
                CellResult::Failed(SfcError::CellFailed {
                    cell,
                    error,
                    attempts,
                }) => self.summary.failed.push(FailedCell {
                    cell: cell.clone(),
                    error: error.clone(),
                    attempts: *attempts,
                }),
                CellResult::Failed(other) => self.summary.failed.push(FailedCell {
                    cell: cells[i].name.clone(),
                    error: other.to_string(),
                    attempts: 0,
                }),
                CellResult::Skipped => self.summary.skipped.push(cells[i].name.clone()),
            }
            out.push(result);
        }
        let guard = self.journal.lock().expect("journal lock");
        if guard.as_ref().is_some_and(|s| s.degraded) {
            self.summary.journal_degraded = true;
        }
        drop(guard);
        out
    }

    /// Run (or replay) one named cell — a single-cell [`run_cells`]
    /// batch, kept for small ad-hoc sweeps and tests.
    ///
    /// The closure must be callable repeatedly (retries) and is executed
    /// under [`catch_unwind`](std::panic::catch_unwind); a panic is retried
    /// up to the configured bound, then recorded as a structured failure.
    /// Fallible cells go through [`run_cells`] with [`BatchCell::try_new`].
    /// The caller decides how to assemble returned values — a [`Skipped`]
    /// or [`Failed`](CellResult::Failed) cell simply contributes no samples.
    ///
    /// [`run_cells`]: SweepRunner::run_cells
    /// [`Skipped`]: CellResult::Skipped
    pub fn run_cell<F: Fn() -> Vec<f64> + Send + Sync>(&mut self, cell: &str, f: F) -> CellResult {
        self.run_cells(vec![BatchCell::new(cell, f)])
            .pop()
            .expect("one cell in, one result out")
    }

    /// Finish the sweep, returning the accounting.
    pub fn finish(self) -> SweepSummary {
        self.summary
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sfc_runner_{}_{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn plain_cells_compute() {
        let mut r = SweepRunner::ephemeral();
        let out = r.run_cell("a", || vec![1.0, 2.0]);
        assert_eq!(out, CellResult::Computed(vec![1.0, 2.0]));
        let summary = r.finish();
        assert_eq!(summary.computed, 1);
        assert!(summary.complete());
    }

    #[test]
    fn panicking_cell_is_retried_then_recorded() {
        let calls = AtomicU32::new(0);
        let mut r = SweepRunner::ephemeral();
        // Fails twice, succeeds on the bounded third attempt.
        let out = r.run_cell("flaky", || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            vec![9.0]
        });
        assert_eq!(out, CellResult::Computed(vec![9.0]));
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        // Fails on every attempt: structured failure, sweep continues.
        let out = r.run_cell("doomed", || panic!("hard failure"));
        match out {
            CellResult::Failed(SfcError::CellFailed {
                cell,
                error,
                attempts,
            }) => {
                assert_eq!(cell, "doomed");
                assert_eq!(error, "hard failure");
                assert_eq!(attempts, DEFAULT_MAX_ATTEMPTS);
            }
            other => panic!("unexpected {other:?}"),
        }
        let after = r.run_cell("after", || vec![1.0]);
        assert_eq!(after, CellResult::Computed(vec![1.0]));
        let summary = r.finish();
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.missing(), vec!["doomed".to_string()]);
    }

    #[test]
    fn typed_error_fails_on_the_first_attempt() {
        let calls = AtomicU32::new(0);
        let mut r = SweepRunner::ephemeral();
        let out = r.run_cells(vec![BatchCell::try_new("zero", || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(SfcError::ZeroRadius)
        })]);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "a typed error is not retried"
        );
        match &out[0] {
            CellResult::Failed(SfcError::CellFailed {
                error, attempts, ..
            }) => {
                assert_eq!(error, &SfcError::ZeroRadius.to_string());
                assert_eq!(*attempts, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let summary = r.finish();
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.failed[0].attempts, 1);
    }

    #[test]
    fn panicking_fallible_cell_takes_every_attempt() {
        let calls = AtomicU32::new(0);
        let mut r = SweepRunner::ephemeral();
        let _ = r.run_cells(vec![BatchCell::try_new("bug", || {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("a bug, not a typed error")
        })]);
        assert_eq!(calls.load(Ordering::SeqCst), DEFAULT_MAX_ATTEMPTS);
        assert_eq!(r.finish().failed[0].attempts, DEFAULT_MAX_ATTEMPTS);
    }

    #[test]
    fn journaled_typed_error_replays_without_rerun() {
        let path = temp_path("typed_failure");
        std::fs::remove_file(&path).ok();
        let journaled = || {
            let mut opts = RunnerOptions::new();
            opts.journal = Some(path.clone());
            SweepRunner::new("sweep", &Value::Null, opts).unwrap()
        };
        let mut r = journaled();
        let _ = r.run_cells(vec![BatchCell::try_new("zero", || {
            Err(SfcError::ZeroRadius)
        })]);
        drop(r);

        let calls = AtomicU32::new(0);
        let mut r = journaled();
        let out = r.run_cells(vec![BatchCell::try_new("zero", || {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(vec![1.0])
        })]);
        assert_eq!(calls.load(Ordering::SeqCst), 0, "replayed, not recomputed");
        assert!(matches!(
            &out[0],
            CellResult::Failed(SfcError::CellFailed { attempts: 1, .. })
        ));
        let summary = r.finish();
        assert_eq!(summary.computed, 0);
        assert_eq!(summary.failed[0].error, SfcError::ZeroRadius.to_string());
        assert_eq!(summary.failed[0].attempts, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_once_retries_to_success() {
        let mut opts = RunnerOptions::new();
        opts.chaos = Some(ChaosInjector::new(&["t1".into()], false));
        let mut r = SweepRunner::new("chaos", &Value::Null, opts).unwrap();
        assert_eq!(
            r.run_cell("x/t0", || vec![1.0]),
            CellResult::Computed(vec![1.0])
        );
        // Sabotaged on attempt 0, clean on attempt 1.
        assert_eq!(
            r.run_cell("x/t1", || vec![2.0]),
            CellResult::Computed(vec![2.0])
        );
        assert!(r.finish().complete());
    }

    #[test]
    fn persistent_chaos_becomes_structured_failure() {
        let mut opts = RunnerOptions::new();
        opts.chaos = Some(ChaosInjector::new(&["t1".into()], true));
        let mut r = SweepRunner::new("chaos", &Value::Null, opts).unwrap();
        assert!(matches!(
            r.run_cell("x/t1", || vec![2.0]),
            CellResult::Failed(_)
        ));
        assert_eq!(
            r.run_cell("x/t2", || vec![3.0]),
            CellResult::Computed(vec![3.0])
        );
        let summary = r.finish();
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.failed[0].error, "chaos injection");
    }

    #[test]
    fn zero_time_budget_skips_everything() {
        let mut opts = RunnerOptions::new();
        opts.time_budget = Some(Duration::ZERO);
        let mut r = SweepRunner::new("budget", &Value::Null, opts).unwrap();
        assert_eq!(r.run_cell("a", || vec![1.0]), CellResult::Skipped);
        assert_eq!(r.run_cell("b", || vec![2.0]), CellResult::Skipped);
        let summary = r.finish();
        assert_eq!(summary.computed, 0);
        assert_eq!(summary.skipped, vec!["a".to_string(), "b".to_string()]);
        assert!(!summary.complete());
    }

    #[test]
    fn journaled_cells_replay_bit_identically() {
        let path = temp_path("replay");
        std::fs::remove_file(&path).ok();
        let fingerprint = json!({ "seed": 7 });
        let values = vec![1.0 / 3.0, -0.0, 6.02e23];

        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        let mut r = SweepRunner::new("sweep", &fingerprint, opts).unwrap();
        assert!(matches!(
            r.run_cell("c", || values.clone()),
            CellResult::Computed(_)
        ));
        drop(r);

        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        let mut r = SweepRunner::new("sweep", &fingerprint, opts).unwrap();
        assert_eq!(r.journaled(), 1);
        match r.run_cell("c", || panic!("must not recompute")) {
            CellResult::Replayed(back) => {
                for (a, b) in values.iter().zip(&back) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.finish().replayed, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journaled_failure_replays_without_rerun() {
        let path = temp_path("failure");
        std::fs::remove_file(&path).ok();
        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        let mut r = SweepRunner::new("sweep", &Value::Null, opts).unwrap();
        let _ = r.run_cell("bad", || panic!("deterministic bug"));
        drop(r);

        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        let mut r = SweepRunner::new("sweep", &Value::Null, opts).unwrap();
        let out = r.run_cell("bad", || panic!("must not rerun"));
        match out {
            CellResult::Failed(SfcError::CellFailed { error, .. }) => {
                assert_eq!(error, "deterministic bug");
            }
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_results_keep_submission_order() {
        for jobs in [1usize, 8] {
            let mut opts = RunnerOptions::new();
            opts.jobs = jobs;
            let mut r = SweepRunner::new("batch", &Value::Null, opts).unwrap();
            let cells: Vec<BatchCell> = (0..20)
                .map(|i| BatchCell::new(format!("cell{i}"), move || vec![i as f64 * 1.5]))
                .collect();
            let results = r.run_cells(cells);
            assert_eq!(results.len(), 20);
            for (i, result) in results.iter().enumerate() {
                assert_eq!(
                    result,
                    &CellResult::Computed(vec![i as f64 * 1.5]),
                    "cell {i}"
                );
            }
            let summary = r.finish();
            assert_eq!(summary.computed, 20);
            assert!(summary.complete());
        }
    }

    #[test]
    fn batch_failures_and_chaos_match_serial_accounting() {
        let run = |jobs: usize| -> SweepSummary {
            let mut opts = RunnerOptions::new();
            opts.jobs = jobs;
            opts.chaos = Some(ChaosInjector::new(&["odd".into()], true));
            let mut r = SweepRunner::new("batch", &Value::Null, opts).unwrap();
            let cells: Vec<BatchCell> = (0..12)
                .map(|i| {
                    let tag = if i % 2 == 1 { "odd" } else { "even" };
                    BatchCell::new(format!("{tag}/c{i}"), move || vec![i as f64])
                })
                .collect();
            let _ = r.run_cells(cells);
            r.finish()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial, parallel);
        assert_eq!(serial.computed, 6);
        assert_eq!(serial.failed.len(), 6);
        // Failure list is in submission order regardless of thread count.
        assert_eq!(serial.failed[0].cell, "odd/c1");
        assert_eq!(serial.failed[5].cell, "odd/c11");
    }

    #[test]
    fn parallel_journal_replays_under_any_thread_count() {
        let path = temp_path("parallel_replay");
        std::fs::remove_file(&path).ok();
        let cells = |r: &mut SweepRunner| {
            let batch: Vec<BatchCell> = (0..16)
                .map(|i| BatchCell::new(format!("c{i}"), move || vec![i as f64 / 3.0]))
                .collect();
            r.run_cells(batch)
        };

        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        opts.jobs = 8;
        let mut r = SweepRunner::new("par", &Value::Null, opts).unwrap();
        let first = cells(&mut r);
        drop(r);

        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        opts.jobs = 1;
        let mut r = SweepRunner::new("par", &Value::Null, opts).unwrap();
        assert_eq!(r.journaled(), 16);
        let second = cells(&mut r);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.values().unwrap(), b.values().unwrap());
        }
        assert_eq!(r.finish().replayed, 16);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_write_failure_sets_degraded_flag() {
        let path = temp_path("degraded");
        std::fs::remove_file(&path).ok();
        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        // First record lands; the second fails but is below the death
        // bound, so the cell still returns its values.
        opts.journal_fail_after = Some(1);
        let mut r = SweepRunner::new("degraded", &Value::Null, opts).unwrap();
        assert!(matches!(
            r.run_cell("a", || vec![1.0]),
            CellResult::Computed(_)
        ));
        assert!(matches!(
            r.run_cell("b", || vec![2.0]),
            CellResult::Computed(_)
        ));
        let summary = r.finish();
        assert!(summary.journal_degraded);
        assert!(!summary.complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persistent_journal_failure_is_a_hard_error() {
        let path = temp_path("dead");
        std::fs::remove_file(&path).ok();
        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        opts.journal_fail_after = Some(0); // every write fails
        let mut r = SweepRunner::new("dead", &Value::Null, opts).unwrap();
        // The first MAX_JOURNAL_WRITE_FAILURES cells still compute (their
        // values are valid in this run) while the writer degrades...
        for i in 0..MAX_JOURNAL_WRITE_FAILURES {
            let name = format!("warm{i}");
            assert!(
                matches!(r.run_cell(&name, || vec![1.0]), CellResult::Computed(_)),
                "cell {i} should compute while the journal degrades"
            );
        }
        // ...after which the journal is dead and cells are refused hard.
        match r.run_cell("refused", || vec![1.0]) {
            CellResult::Failed(SfcError::JournalIo { reason, .. }) => {
                assert!(reason.contains("injected"), "reason: {reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let summary = r.finish();
        assert!(summary.journal_degraded);
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.failed[0].cell, "refused");
        assert_eq!(summary.failed[0].attempts, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn computed_cells_carry_timings_in_submission_order() {
        let mut opts = RunnerOptions::new();
        opts.jobs = 4;
        let mut r = SweepRunner::new("timed", &Value::Null, opts).unwrap();
        let cells: Vec<BatchCell> = (0..6)
            .map(|i| {
                BatchCell::new(format!("cell{i}"), move || {
                    crate::timing::phase("nfi", || {
                        std::thread::sleep(Duration::from_millis(1));
                    });
                    vec![i as f64]
                })
            })
            .collect();
        let _ = r.run_cells(cells);
        let summary = r.finish();
        assert_eq!(summary.timings.len(), 6);
        for (i, (name, timing)) in summary.timings.iter().enumerate() {
            assert_eq!(name, &format!("cell{i}"));
            assert!(timing.wall_ms >= 1.0, "{name}: wall {}", timing.wall_ms);
            let nfi = timing.phase_ms("nfi").expect("nfi phase recorded");
            assert!(nfi > 0.0 && nfi <= timing.wall_ms + 1e-6);
        }
    }

    #[test]
    fn replayed_and_failed_cells_have_no_timing() {
        let path = temp_path("timing_replay");
        std::fs::remove_file(&path).ok();
        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        let mut r = SweepRunner::new("timed", &Value::Null, opts).unwrap();
        assert!(matches!(
            r.run_cell("ok", || vec![1.0]),
            CellResult::Computed(_)
        ));
        let _ = r.run_cell("bad", || panic!("boom"));
        assert_eq!(r.finish().timings.len(), 1);

        let mut opts = RunnerOptions::new();
        opts.journal = Some(path.clone());
        let mut r = SweepRunner::new("timed", &Value::Null, opts).unwrap();
        assert!(matches!(
            r.run_cell("ok", || vec![1.0]),
            CellResult::Replayed(_)
        ));
        let summary = r.finish();
        assert_eq!(summary.replayed, 1);
        assert!(summary.timings.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_equality_ignores_timings() {
        let mut a = SweepSummary {
            computed: 2,
            ..Default::default()
        };
        let b = SweepSummary {
            computed: 2,
            ..Default::default()
        };
        a.timings.push(("c".into(), CellTiming::default()));
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        let mut opts = RunnerOptions::new();
        opts.jobs = 0;
        let r = SweepRunner::new("auto", &Value::Null, opts).unwrap();
        assert!(r.jobs() >= 1);
        let mut opts = RunnerOptions::new();
        opts.jobs = 3;
        let r = SweepRunner::new("three", &Value::Null, opts).unwrap();
        assert_eq!(r.jobs(), 3);
    }
}
