//! Glue between [`SweepArgs`] and the fault-tolerant [`SweepRunner`] —
//! and the one `main` all seven regeneration binaries share.
//!
//! Every binary is a thin shell around [`run_artifact`]: parse flags, build
//! the canonical [`ExperimentSpec`], consult the optional `--cache`
//! directory, and only on a miss construct a runner and compute. The
//! journaling, retry, time-budget and chaos flags behave identically across
//! binaries, and the sweep accounting goes to **stderr** — stdout and the
//! JSON artifact stay byte-identical between a fresh run, a resumed one,
//! and a cache replay.

use crate::args::SweepArgs;
use crate::artifact::{compute, ArtifactOutput, ComputeOpts};
use serde_json::{json, ToJson, Value};
use sfc_core::runner::{ChaosInjector, RunnerOptions, SweepRunner, SweepSummary};
use sfc_core::{ArtifactKind, CachedArtifact, ExperimentSpec, ResultCache, TraceSink};
use std::path::PathBuf;
use std::time::Duration;

/// The shared error-kind taxonomy of the serving path (`sfc-serve`, its
/// client, and anything else that answers requests with typed failures).
/// Every `ok: false` response names one of these kinds so callers can
/// decide mechanically whether to retry.
pub mod error_kind {
    /// Malformed or invalid request — retrying the same bytes cannot help.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The computation panicked; the daemon contained it and keeps serving.
    /// Deterministic chaos aside, a re-request computes cleanly.
    pub const COMPUTE_PANIC: &str = "compute_panic";
    /// The request's deadline expired before an answer was ready.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// Admission control refused the request; the response carries a
    /// `retry_after_ms` hint.
    pub const OVERLOADED: &str = "overloaded";
    /// The daemon is draining (SIGTERM or `shutdown`): it answers what it
    /// already accepted but takes no new work.
    pub const DRAINING: &str = "draining";
    /// The connection died or timed out mid-exchange (client-synthesized —
    /// the daemon never got to answer, or its answer was cut off).
    pub const TRANSPORT: &str = "transport";
    /// The background warm queue is full; the `warm` items past capacity
    /// were refused. The queue drains in the background, so a later retry
    /// usually lands.
    pub const WARM_QUEUE_FULL: &str = "warm_queue_full";

    /// Whether a request that failed with `kind` is worth retrying against
    /// the same daemon: overload clears, a panic-poisoned slot recomputes,
    /// a warm queue drains, and a dropped connection may be transient — but
    /// a bad request stays bad, a deadline re-expires, and a draining
    /// daemon is going away.
    pub fn is_retryable(kind: &str) -> bool {
        matches!(
            kind,
            OVERLOADED | COMPUTE_PANIC | TRANSPORT | WARM_QUEUE_FULL
        )
    }
}

/// The configuration fingerprint stored in a journal header: a journal can
/// only resume a sweep with the same scale, trials and seed. Chaos, budget,
/// jobs and timing flags are deliberately excluded — interrupting a run
/// with a different budget or thread count (or sabotaging it in a test)
/// must not orphan the journal, and `--timing` does not change any
/// computed value.
pub fn fingerprint(args: &SweepArgs) -> Value {
    json!({
        "scale": args.scale,
        "trials": args.trials,
        "seed": args.seed,
    })
}

/// Build the sweep runner the flags describe. Exits with a message when the
/// journal cannot be opened (unwritable path, or written by a different
/// sweep/configuration).
pub fn runner(sweep: &str, args: &SweepArgs) -> SweepRunner {
    // One shared rayon pool for the whole process, sized off `--jobs` (0 =
    // all cores). Without this the kernels' internal `par_iter` would size
    // its own pool off the core count and oversubscribe the `--jobs` cell
    // workers. `build_global` succeeds once per process; later calls (tests
    // build many runners) mean the pool is already sized, which is fine —
    // results are bit-identical at every thread count either way.
    rayon::ThreadPoolBuilder::new()
        .num_threads(args.jobs.unwrap_or(0) as usize)
        .build_global()
        .ok();
    let mut opts = RunnerOptions::new();
    opts.journal = args.journal.as_ref().map(PathBuf::from);
    opts.time_budget = args.time_budget.map(Duration::from_secs);
    if !args.chaos.is_empty() {
        opts.chaos = Some(ChaosInjector::new(&args.chaos, args.chaos_persistent));
    }
    opts.jobs = args.jobs.unwrap_or(0) as usize; // 0 = all cores
    opts.journal_fail_after = args.chaos_journal;
    match SweepRunner::new(sweep, &fingerprint(args), opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Write the per-cell timing envelope to `--timing PATH` when set. Called
/// after `SweepRunner::finish`; a run without the flag writes nothing.
pub fn write_timing(artifact: &str, args: &SweepArgs, summary: &SweepSummary) {
    if let Some(path) = &args.timing {
        let doc = crate::results::timing_json(artifact, args, summary);
        crate::results::write_json(path, &doc).expect("write timing envelope");
    }
}

/// Write the sweep's trace to `--trace PATH` when set: one `cell` span per
/// computed cell (wall time plus the cell name), one `phase` span per
/// [`CellTiming`](sfc_core::CellTiming) phase inside it, and a final
/// `sweep_done` event with the run accounting. Every record is stamped
/// with one per-run request id (`<artifact>-<pid>`), so traces from
/// concurrent runs appending to a shared file stay separable. Like
/// `--timing`, a pure side channel: the artifact bytes are identical with
/// tracing on or off.
pub fn write_trace(artifact: &str, args: &SweepArgs, summary: &SweepSummary) {
    let Some(path) = &args.trace else { return };
    let sink = TraceSink::to_path(path).expect("open trace file");
    let rid = format!("{artifact}-{:x}", std::process::id());
    for (cell, timing) in &summary.timings {
        for (phase, ms) in &timing.phases {
            sink.span(
                "phase",
                &rid,
                Duration::from_secs_f64(ms / 1e3),
                &[
                    ("cell", cell.as_str().to_json()),
                    ("phase", phase.as_str().to_json()),
                ],
            );
        }
        sink.span(
            "cell",
            &rid,
            Duration::from_secs_f64(timing.wall_ms / 1e3),
            &[("cell", cell.as_str().to_json())],
        );
    }
    sink.event(
        "sweep_done",
        &rid,
        &[
            ("artifact", artifact.to_json()),
            ("computed", (summary.computed as u64).to_json()),
            ("replayed", (summary.replayed as u64).to_json()),
            ("failed", (summary.failed.len() as u64).to_json()),
        ],
    );
}

/// Report the sweep accounting on stderr: computed/replayed counts, every
/// failed cell with its error, and the cells a spent time budget left
/// uncomputed (so a follow-up run with `--journal` knows what remains).
pub fn report(sweep: &str, summary: &SweepSummary) {
    eprintln!(
        "# sweep {sweep}: {} cell(s) computed, {} replayed from journal",
        summary.computed, summary.replayed
    );
    for f in &summary.failed {
        eprintln!(
            "# sweep {sweep}: cell {} FAILED after {} attempt(s): {}",
            f.cell, f.attempts, f.error
        );
    }
    if !summary.skipped.is_empty() {
        eprintln!(
            "# sweep {sweep}: time budget exhausted; {} cell(s) not started:",
            summary.skipped.len()
        );
        for cell in &summary.skipped {
            eprintln!("#   missing {cell}");
        }
        eprintln!("# rerun with the same --journal to compute them");
    }
    if summary.journal_degraded {
        eprintln!(
            "# sweep {sweep}: JOURNAL DEGRADED — one or more journal writes \
             failed; the journal under-reports this run's coverage and a \
             resume will recompute the unrecorded cells"
        );
    }
}

/// The shared `main` of every regeneration binary: parse flags, resolve
/// the canonical spec, replay from `--cache` when the artifact is already
/// there (zero cells computed, bytes identical), otherwise run the sweep,
/// emit the artifact, and populate the cache if the run was complete and
/// un-sabotaged.
pub fn run_artifact(kind: ArtifactKind) {
    let args = SweepArgs::from_env();
    run_artifact_with(kind, &args);
}

/// [`run_artifact`] with the flags supplied by the caller (testable entry).
pub fn run_artifact_with(kind: ArtifactKind, args: &SweepArgs) {
    let spec = args.spec(kind);
    if args.emit_specs {
        // One canonical spec line and nothing else: the exact cache/daemon
        // identity this invocation would compute, suitable verbatim as an
        // `sfc-serve` `warm`/`batch` item (see EXPERIMENTS.md).
        println!("{}", spec.canonical_string());
        return;
    }
    // The CLI gets the same two-tier cache as the daemon: an in-memory LRU
    // (bounded by `--cache-mem-mb`) over the verified disk tier, so a
    // process that loads the same key repeatedly pays the file reads and
    // sha256 pass once.
    let mem_budget = args.cache_mem_mb.saturating_mul(1024 * 1024);
    let cache =
        args.cache.as_ref().map(
            |dir| match ResultCache::with_memory_budget(dir, mem_budget) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot open cache `{dir}`: {e}");
                    std::process::exit(2);
                }
            },
        );

    if let Some(cache) = &cache {
        if let Some(hit) = cache.load(&spec) {
            replay(kind, args, &hit);
            return;
        }
    }

    let banner = args.banner(kind.title());
    println!("{banner}");
    let mut runner = runner(kind.sweep_name(), args);
    let out = compute(&spec, &ComputeOpts::default(), &mut runner);
    let summary = runner.finish();
    report(kind.sweep_name(), &summary);
    write_timing(kind.name(), args, &summary);
    write_trace(kind.name(), args, &summary);
    let doc = crate::results::envelope(kind.name(), &spec, &summary, out.data.clone());
    let json_text = serde_json::to_string_pretty(&doc).expect("serialize artifact");
    if let Some(path) = &args.json {
        std::fs::write(path, &json_text).expect("write JSON");
    }
    print!(
        "{}",
        if args.markdown {
            &out.body_markdown
        } else {
            &out.body_plain
        }
    );

    if let Some(cache) = &cache {
        store_if_complete(
            cache, kind, args, &spec, &banner, &out, &json_text, &summary,
        );
    }
}

/// Print a cached artifact byte-for-byte: stored stdout (banner included),
/// stored JSON bytes to `--json`, an empty timing envelope, and a stderr
/// note carrying the zero-computation accounting.
fn replay(kind: ArtifactKind, args: &SweepArgs, hit: &CachedArtifact) {
    print!(
        "{}",
        if args.markdown {
            &hit.stdout_markdown
        } else {
            &hit.stdout_plain
        }
    );
    if let Some(path) = &args.json {
        std::fs::write(path, &hit.artifact_json).expect("write JSON");
    }
    write_timing(kind.name(), args, &SweepSummary::default());
    write_trace(kind.name(), args, &SweepSummary::default());
    eprintln!(
        "# cache {}: hit — 0 cell(s) computed, artifact replayed from cache",
        kind.name()
    );
}

/// Populate the cache after a fresh run — but only a trustworthy one: every
/// cell computed (or replayed), no fault injection, no time budget. A
/// partial or sabotaged artifact must never become the canonical answer.
#[allow(clippy::too_many_arguments)]
fn store_if_complete(
    cache: &ResultCache,
    kind: ArtifactKind,
    args: &SweepArgs,
    spec: &ExperimentSpec,
    banner: &str,
    out: &ArtifactOutput,
    json_text: &str,
    summary: &SweepSummary,
) {
    let sabotaged =
        !args.chaos.is_empty() || args.chaos_journal.is_some() || args.time_budget.is_some();
    if !summary.complete() || sabotaged {
        eprintln!(
            "# cache {}: not stored (incomplete or fault-injected run)",
            kind.name()
        );
        return;
    }
    let artifact = CachedArtifact {
        stdout_plain: format!(
            "{banner}
{}",
            out.body_plain
        ),
        stdout_markdown: format!(
            "{banner}
{}",
            out.body_markdown
        ),
        artifact_json: json_text.to_string(),
    };
    match cache.store(spec, &artifact) {
        Ok(()) => eprintln!("# cache {}: stored {}", kind.name(), ResultCache::key(spec)),
        Err(e) => eprintln!("# cache {}: store failed: {e}", kind.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_flags_build_an_injector() {
        let mut args = SweepArgs {
            chaos: vec!["t0".into()],
            ..SweepArgs::default()
        };
        args.chaos_persistent = true;
        let mut r = runner("test", &args);
        assert!(matches!(
            r.run_cell("x/t0", || vec![1.0]),
            sfc_core::runner::CellResult::Failed(_)
        ));
        assert!(matches!(
            r.run_cell("x/t9", || vec![1.0]),
            sfc_core::runner::CellResult::Computed(_)
        ));
    }

    #[test]
    fn retryable_taxonomy_is_closed_over_the_kinds() {
        use super::error_kind::*;
        assert!(is_retryable(OVERLOADED));
        assert!(is_retryable(COMPUTE_PANIC));
        assert!(is_retryable(TRANSPORT));
        assert!(is_retryable(WARM_QUEUE_FULL));
        assert!(!is_retryable(BAD_REQUEST));
        assert!(!is_retryable(DEADLINE_EXCEEDED));
        assert!(!is_retryable(DRAINING));
        assert!(!is_retryable("anything_else"));
    }

    #[test]
    fn write_trace_emits_cell_and_phase_spans_under_one_request_id() {
        let path =
            std::env::temp_dir().join(format!("sfc-bench-trace-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let args = SweepArgs {
            trace: Some(path.to_string_lossy().into_owned()),
            ..SweepArgs::default()
        };
        let summary = SweepSummary {
            computed: 1,
            timings: vec![(
                "uniform/t0".to_string(),
                sfc_core::CellTiming {
                    wall_ms: 12.5,
                    phases: vec![("sample".to_string(), 2.0), ("nfi".to_string(), 9.0)],
                },
            )],
            ..SweepSummary::default()
        };
        write_trace("table1", &args, &summary);

        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        // Two phase spans, one cell span, one sweep_done event.
        assert_eq!(records.len(), 4);
        let rids: Vec<&str> = records
            .iter()
            .map(|r| r.get("request_id").and_then(Value::as_str).unwrap())
            .collect();
        assert!(rids
            .iter()
            .all(|r| *r == rids[0] && r.starts_with("table1-")));
        let names: Vec<&str> = records
            .iter()
            .map(|r| r.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, ["phase", "phase", "cell", "sweep_done"]);
        assert_eq!(records[0].get("phase"), Some(&"sample".to_json()));
        assert_eq!(records[0].get("dur_us"), Some(&2_000u64.to_json()));
        assert_eq!(records[2].get("cell"), Some(&"uniform/t0".to_json()));
        assert_eq!(records[2].get("dur_us"), Some(&12_500u64.to_json()));
        assert_eq!(records[3].get("kind"), Some(&"event".to_json()));
        assert_eq!(records[3].get("computed"), Some(&1u64.to_json()));
        let _ = std::fs::remove_file(&path);

        // Without the flag, nothing is written.
        write_trace("table1", &SweepArgs::default(), &summary);
        assert!(!path.exists());
    }

    #[test]
    fn fingerprint_tracks_config_not_chaos() {
        let a = SweepArgs::default();
        let b = SweepArgs {
            chaos: vec!["anything".into()],
            time_budget: Some(5),
            jobs: Some(8),
            ..SweepArgs::default()
        };
        // A journal written at one thread count must resume at any other.
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = SweepArgs {
            seed: 1,
            ..SweepArgs::default()
        };
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }
}
