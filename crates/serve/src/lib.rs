//! # sfc-serve
//!
//! A long-running daemon answering experiment requests from the
//! content-addressed result cache ([`sfc_core::ResultCache`]).
//!
//! Every artifact the workspace regenerates is a pure function of its
//! canonical [`ExperimentSpec`] and the kernel version, so a daemon can
//! memoize whole experiments: the first request for a spec computes it
//! (minutes of sweep cells), every repeat is answered from the cache with
//! byte-identical payloads, and identical requests that arrive *while* the
//! computation is still running are deduplicated into that single
//! computation instead of racing a second one.
//!
//! ## Protocol
//!
//! JSON-lines over a unix socket (`--socket PATH`) or over stdin/stdout
//! (`--pipe`, for CI and scripting). One request object per line, one
//! response object per line; in pipe mode responses may be emitted out of
//! request order, so correlate them with the echoed `id` field.
//!
//! ```json
//! {"id": 1, "op": "run", "artifact": "table1", "scale": 5, "trials": 1,
//!  "seed": 20130701, "format": "plain"}
//! {"id": 2, "op": "stats"}
//! {"id": 3, "op": "health"}
//! {"id": 4, "op": "shutdown"}
//! {"id": 5, "op": "batch", "defaults": {"artifact": "table1", "trials": 1},
//!  "items": [{"scale": 5}, {"scale": 6, "format": "json"}]}
//! {"id": 6, "op": "warm", "items": [{"artifact": "fig7", "scale": 5, "trials": 1}]}
//! {"id": 8, "op": "metrics"}
//! ```
//!
//! ## Observability
//!
//! Every response line carries a `request_id`: the client's own (echoed
//! verbatim when the request object names one) or a daemon-generated
//! identifier, with `batch` item lines tagged `<request_id>.<index>`. The
//! same identifier is stamped on every trace record the request produced,
//! so one grep of the trace file (`--trace PATH`, JSONL, one span or event
//! per line with monotonic `ts_us` timestamps) reconstructs a request's
//! timeline.
//!
//! All counters live in one [`MetricsRegistry`]; the `metrics` op renders
//! it as a Prometheus text-exposition page (in the `metrics` field of the
//! response), and the `stats`/`health` bodies are views of the same
//! registry shaped as the versioned structs in [`response`].
//!
//! A `run` response carries the requested payload stream (`format` is
//! `plain`, `markdown` or `json`) plus provenance: the cache `key`, whether
//! the answer was a cache `hit`, and whether the request was `deduped` into
//! an in-flight computation. A `run`-shaped object (standalone, or a
//! `batch`/`warm` item) may either use the shorthand above — `artifact`
//! plus optional `scale`/`trials`/`seed`, axes filled by
//! [`ExperimentSpec::for_artifact`] — or spell out a full canonical spec
//! (any axis key present), so `sfc-bench --emit-specs` output is directly
//! usable as items.
//!
//! A `batch` request fans its items (each the shallow merge of the
//! request-level `defaults` object and the item's own fields) over a
//! bounded internal pool and streams back **one response line per item**
//! in completion order, each tagged with the item's submission `index` and
//! otherwise identical to the equivalent standalone `run` response,
//! terminated by a `batch_done` summary line. A `warm` request enqueues
//! its items for the background warmer threads
//! ([`Server::start_warmers`]) and answers immediately; warmed artifacts
//! fill both cache tiers but are never sent anywhere.
//!
//! A `stats` response reports request counters,
//! the cache hit rate, the in-flight dedup count and the accumulated
//! per-phase kernel timings of everything this daemon computed. A `health`
//! response reports liveness (uptime, drain state, in-flight and active
//! request counts, quarantined cache entries, warm-queue depth).
//!
//! ## Fault isolation and overload behavior
//!
//! Degraded service fails *typed and loud*, never silently and never by
//! hanging. Every failure response is `ok: false` with an `error_kind` from
//! the shared taxonomy in [`sfc_bench::harness::error_kind`]:
//!
//! * a panicking computation is contained with `catch_unwind`; the leader
//!   *and* every follower deduplicated into it receive
//!   `error_kind: "compute_panic"` and the daemon keeps serving — an
//!   immediate re-request computes cleanly;
//! * a configured deadline ([`ServerOptions::deadline`]) bounds each
//!   request; expiry returns `error_kind: "deadline_exceeded"` and a
//!   computation that finishes after its requester's deadline is discarded,
//!   never cached;
//! * admission control ([`ServerOptions::max_inflight`]) refuses work
//!   beyond the bound with `error_kind: "overloaded"` and a
//!   `retry_after_ms` hint instead of queueing unboundedly;
//! * a draining daemon (SIGTERM or the `shutdown` op) answers everything it
//!   already accepted and refuses new work with `error_kind: "draining"`.
//!
//! ## Request lifecycle
//!
//! One private `Inflight` type admits every `run`, `batch` item and warmer
//! computation as a key's leader, a follower, or a typed refusal. Transports
//! count requests with [`ActiveRequest`] tokens; drains and warmers block
//! in [`Server::wait_idle`] rather than polling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inflight;
pub mod response;

pub use inflight::ActiveRequest;
use inflight::{Admission, Inflight, Refusal, RunOutcome};
use response::{HealthResponse, LatencyEntry, StatsResponse, SCHEMA_VERSION};
use serde_json::{Map, ToJson, Value};
use sfc_bench::artifact::{compute, ComputeOpts};
use sfc_bench::harness::error_kind;
use sfc_bench::SweepArgs;
use sfc_core::cache::DEFAULT_MEM_SHARDS;
use sfc_core::obs::SampleValue;
use sfc_core::runner::{SweepRunner, SweepSummary};
use sfc_core::{
    ArtifactKind, CacheCounters, CachedArtifact, Counter, ExperimentSpec, Gauge, MetricsRegistry,
    ResultCache, SfcError, TierHit, TraceSink,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering from poisoning: a panic elsewhere (already
/// contained by `catch_unwind`) must not brick the daemon's counters or
/// in-flight table. All guarded state is simple bookkeeping that is valid
/// at every instruction boundary, so the recovered guard is safe to use.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Compute the full artifact for `spec` exactly as its binary would: same
/// banner, same body bytes, same JSON envelope. Returns the three cached
/// byte streams plus the sweep summary (for completeness and timings).
pub fn compute_artifact(spec: &ExperimentSpec) -> (CachedArtifact, SweepSummary) {
    let args = SweepArgs {
        scale: spec.scale,
        trials: spec.trials,
        seed: spec.seed,
        ..SweepArgs::default()
    };
    let banner = args.banner(spec.artifact.title());
    let mut runner = SweepRunner::ephemeral();
    let out = compute(spec, &ComputeOpts::default(), &mut runner);
    let summary = runner.finish();
    let doc = sfc_bench::results::envelope(spec.artifact.name(), spec, &summary, out.data);
    let artifact_json = serde_json::to_string_pretty(&doc).expect("serialize artifact");
    let artifact = CachedArtifact {
        stdout_plain: format!("{banner}\n{}", out.body_plain),
        stdout_markdown: format!("{banner}\n{}", out.body_markdown),
        artifact_json,
    };
    (artifact, summary)
}

/// Which byte stream of a cached artifact a `run` request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The plain-text stdout stream, banner included.
    Plain,
    /// The Markdown stdout stream, banner included.
    Markdown,
    /// The machine-readable JSON envelope (the `--json` payload).
    Json,
}

impl Format {
    fn parse(s: &str) -> Result<Format, String> {
        match s {
            "plain" => Ok(Format::Plain),
            "markdown" => Ok(Format::Markdown),
            "json" => Ok(Format::Json),
            other => Err(format!(
                "unknown format `{other}` (expected plain, markdown or json)"
            )),
        }
    }

    fn select(self, artifact: &CachedArtifact) -> &str {
        match self {
            Format::Plain => &artifact.stdout_plain,
            Format::Markdown => &artifact.stdout_markdown,
            Format::Json => &artifact.artifact_json,
        }
    }
}

/// One sub-request of a `batch` op: a resolved spec plus the payload
/// stream its response line should carry.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The resolved canonical spec.
    pub spec: Box<ExperimentSpec>,
    /// Which payload stream to return.
    pub format: Format,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run (or replay) the experiment a spec describes.
    Run {
        /// The resolved canonical spec (boxed: the spec dwarfs the other
        /// variants).
        spec: Box<ExperimentSpec>,
        /// Which payload stream to return.
        format: Format,
    },
    /// Run several specs as one request, streaming one response line per
    /// item (tagged with its submission `index`, in completion order)
    /// before a final `batch_done` summary line.
    Batch {
        /// The items, in submission order.
        items: Vec<BatchItem>,
    },
    /// Enqueue specs for the background warmer threads. Warming populates
    /// the cache tiers; it returns no payloads, so item `format` fields
    /// are ignored.
    Warm {
        /// The specs to warm, in submission order.
        specs: Vec<ExperimentSpec>,
    },
    /// Report daemon counters.
    Stats,
    /// Report daemon liveness (uptime, drain state, in-flight counts).
    Health,
    /// Render every registered metric as a Prometheus text-exposition
    /// page.
    Metrics,
    /// Stop accepting requests, answer what is in flight, and exit.
    Shutdown,
}

/// Parse the spec and format of one run-shaped object: a standalone `run`
/// request, or one `batch`/`warm` item merged over its request-level
/// defaults. Two spellings are accepted: the shorthand (`artifact` plus
/// optional `scale`/`trials`/`seed`, axes filled by
/// [`ExperimentSpec::for_artifact`] exactly as the binaries' flags would)
/// and a full canonical spec (any axis key present routes through
/// [`ExperimentSpec::from_json`]), so `sfc-bench --emit-specs` output is
/// usable verbatim.
fn parse_run_fields(obj: &Map) -> Result<(Box<ExperimentSpec>, Format), String> {
    let format = match obj.get("format") {
        None => Format::Plain,
        Some(v) => Format::parse(v.as_str().ok_or("`format` must be a string")?)?,
    };
    let spec = if ExperimentSpec::json_names_axes(obj) {
        ExperimentSpec::from_json(&Value::Object(obj.clone()))?
    } else {
        let name = obj
            .get("artifact")
            .and_then(Value::as_str)
            .ok_or("missing `artifact` field")?;
        let kind = ArtifactKind::parse(name).ok_or_else(|| format!("unknown artifact `{name}`"))?;
        let defaults = SweepArgs::default();
        let num = |key: &str, default: u64| -> Result<u64, String> {
            match obj.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
            }
        };
        let scale = num("scale", defaults.scale as u64)? as u32;
        let trials = num("trials", defaults.trials)?;
        let seed = num("seed", defaults.seed)?;
        ExperimentSpec::for_artifact(kind, scale, trials, seed)
    };
    spec.validate().map_err(|e| format!("invalid spec: {e}"))?;
    Ok((Box::new(spec), format))
}

/// Shallow-merge one `batch`/`warm` item's fields over the request-level
/// `defaults` object. Item keys win; neither input is mutated.
fn merge_over(defaults: &Map, item: &Map) -> Map {
    let mut merged = defaults.clone();
    for (k, v) in item.iter() {
        merged.insert(k.clone(), v.clone());
    }
    merged
}

/// Parse the `defaults` + `items` shape shared by `batch` and `warm`:
/// every item is the merge of the optional request-level `defaults` object
/// and its own fields. One malformed item fails the whole request — a
/// partial batch would silently drop work.
fn parse_items(op: &str, obj: &Map) -> Result<Vec<(Box<ExperimentSpec>, Format)>, String> {
    let empty = Map::new();
    let defaults = match obj.get("defaults") {
        None => &empty,
        Some(v) => v
            .as_object()
            .ok_or_else(|| format!("{op}: `defaults` must be an object"))?,
    };
    let items = obj
        .get("items")
        .ok_or_else(|| format!("{op}: missing `items` array"))?
        .as_array()
        .ok_or_else(|| format!("{op}: `items` must be an array"))?;
    if items.is_empty() {
        return Err(format!("{op}: `items` must not be empty"));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let overrides = item
                .as_object()
                .ok_or_else(|| format!("{op}: item {i} must be an object"))?;
            parse_run_fields(&merge_over(defaults, overrides))
                .map_err(|e| format!("{op}: item {i}: {e}"))
        })
        .collect()
}

/// A request line that failed to parse or validate, carrying the
/// correlation fields read before the failure so the error answer still
/// names the client's request.
#[derive(Debug)]
pub struct ParseError {
    /// The client's `id`; null when the line is not a JSON object or
    /// names none.
    pub id: Value,
    /// The client's `request_id`, when the object names one as a string.
    pub request_id: Option<String>,
    /// What is wrong with the request.
    pub message: String,
}

impl Request {
    /// Parse one JSON request line. `scale`/`trials`/`seed` default to the
    /// binaries' flag defaults, so a request describes the same experiment
    /// the equivalent command line would. The middle tuple element is the
    /// client-supplied `request_id`, if the request object names one — the
    /// daemon echoes it instead of generating its own. A failure keeps the
    /// `id` and `request_id` it read, so the error answer echoes them too.
    pub fn parse(line: &str) -> Result<(Value, Option<String>, Request), ParseError> {
        let anonymous = |message: String| ParseError {
            id: Value::Null,
            request_id: None,
            message,
        };
        let doc: Value =
            serde_json::from_str(line).map_err(|e| anonymous(format!("bad JSON: {e}")))?;
        let obj = doc
            .as_object()
            .ok_or_else(|| anonymous("request must be a JSON object".into()))?;
        let id = obj.get("id").cloned().unwrap_or(Value::Null);
        let request_id = match obj.get("request_id").map(Value::as_str) {
            None => None,
            Some(Some(rid)) => Some(rid.to_string()),
            Some(None) => {
                return Err(ParseError {
                    id,
                    request_id: None,
                    message: "`request_id` must be a string".into(),
                })
            }
        };
        match Self::parse_op(obj) {
            Ok(req) => Ok((id, request_id, req)),
            Err(message) => Err(ParseError {
                id,
                request_id,
                message,
            }),
        }
    }

    /// The op-specific part of [`Request::parse`].
    fn parse_op(obj: &Map) -> Result<Request, String> {
        let op = obj
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing `op` field")?;
        Ok(match op {
            "stats" => Request::Stats,
            "health" => Request::Health,
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            "run" => {
                let (spec, format) = parse_run_fields(obj).map_err(|e| format!("run: {e}"))?;
                Request::Run { spec, format }
            }
            "batch" => Request::Batch {
                items: parse_items("batch", obj)?
                    .into_iter()
                    .map(|(spec, format)| BatchItem { spec, format })
                    .collect(),
            },
            "warm" => Request::Warm {
                specs: parse_items("warm", obj)?
                    .into_iter()
                    .map(|(spec, _format)| *spec)
                    .collect(),
            },
            other => return Err(format!("unknown op `{other}`")),
        })
    }
}

/// The daemon's answer to one request line.
#[derive(Debug, Clone)]
pub struct Response {
    /// The JSON response document to write back as one line.
    pub doc: Value,
    /// Whether the connection/daemon should stop after this response.
    pub shutdown: bool,
}

/// Accumulated kernel-phase time of every cell this daemon computed, in
/// microseconds, one series per phase name.
const PHASE_US: &str = "sfc_serve_phase_us_total";
const PHASE_US_HELP: &str = "Accumulated kernel-phase time of computed cells, in microseconds.";

/// Per-op request latency histograms (power-of-two µs buckets), one
/// series per label: `run_mem_hit` / `run_disk_hit` / `run_compute` /
/// `run_dedup` / `run_refused` plus `batch` / `warm` / `warm_refused` /
/// `stats` / `health` / `metrics` / `shutdown` / `bad_request`, and the
/// warmer-internal `warm_hit` / `warm_dedup` / `warm_compute`.
const OP_LATENCY_US: &str = "sfc_serve_op_latency_us";
const OP_LATENCY_US_HELP: &str = "Per-op request latency, in microseconds.";

/// The daemon's counter handles, registered once in the shared
/// [`MetricsRegistry`] at server construction. The handles *are* the
/// registry's storage (see [`sfc_core::obs`]), so the `stats` body, the
/// Prometheus page and the derived hit rate all read the same atomics —
/// there is no second copy to fall out of sync.
#[derive(Debug)]
struct ServeMetrics {
    requests: Counter,
    runs: Counter,
    hits: Counter,
    computations: Counter,
    deduped: Counter,
    errors: Counter,
    panics: Counter,
    deadline_exceeded: Counter,
    overloaded: Counter,
    drain_refused: Counter,
    warm_queued: Counter,
    warm_computed: Counter,
    warm_dropped: Counter,
    mem_bytes: Gauge,
    mem_entries: Gauge,
    inflight: Gauge,
    active_requests: Gauge,
    warm_queue_depth: Gauge,
    draining: Gauge,
    uptime_ms: Gauge,
}

impl ServeMetrics {
    fn registered(registry: &MetricsRegistry) -> ServeMetrics {
        let m = ServeMetrics {
            requests: registry.counter(
                "sfc_serve_requests_total",
                "Request lines handled, including malformed ones.",
            ),
            runs: registry.counter(
                "sfc_serve_runs_total",
                "Run requests admitted and served (the hit-rate denominator).",
            ),
            hits: registry.counter(
                "sfc_serve_hits_total",
                "Run requests answered from a cache tier.",
            ),
            computations: registry.counter(
                "sfc_serve_computations_total",
                "Leader computations that ran (complete or not).",
            ),
            deduped: registry.counter(
                "sfc_serve_deduped_total",
                "Run requests deduplicated into an in-flight computation.",
            ),
            errors: registry.counter(
                "sfc_serve_errors_total",
                "Failed computations (panicked or incomplete sweep).",
            ),
            panics: registry.counter(
                "sfc_serve_panics_total",
                "Computations that panicked and were contained.",
            ),
            deadline_exceeded: registry.counter(
                "sfc_serve_deadline_exceeded_total",
                "Requests whose deadline expired before an answer was ready.",
            ),
            overloaded: registry.counter(
                "sfc_serve_overloaded_total",
                "Requests refused by admission control.",
            ),
            drain_refused: registry.counter(
                "sfc_serve_drain_refused_total",
                "Requests refused because the daemon was draining.",
            ),
            warm_queued: registry.counter(
                "sfc_serve_warm_queued_total",
                "Warm items accepted into the background queue.",
            ),
            warm_computed: registry.counter(
                "sfc_serve_warm_computed_total",
                "Warm items whose computation completed.",
            ),
            warm_dropped: registry.counter(
                "sfc_serve_warm_dropped_total",
                "Warm items refused at enqueue or dropped by a drain.",
            ),
            mem_bytes: registry.gauge(
                "sfc_serve_mem_bytes",
                "Bytes held by the in-memory cache tier.",
            ),
            mem_entries: registry.gauge(
                "sfc_serve_mem_entries",
                "Entries held by the in-memory cache tier.",
            ),
            inflight: registry.gauge("sfc_serve_inflight", "Computations currently in flight."),
            active_requests: registry.gauge(
                "sfc_serve_active_requests",
                "Requests currently being handled.",
            ),
            warm_queue_depth: registry.gauge(
                "sfc_serve_warm_queue_depth",
                "Warm items waiting in the background queue.",
            ),
            draining: registry.gauge("sfc_serve_draining", "1 while draining, else 0."),
            uptime_ms: registry.gauge(
                "sfc_serve_uptime_ms",
                "Milliseconds since the daemon started.",
            ),
        };
        // `hit_rate` is never stored: it is derived from the two counters
        // at render time, so it cannot drift from them.
        let (hits, runs) = (m.hits.clone(), m.runs.clone());
        registry.derived_gauge(
            "sfc_serve_hit_rate",
            "Cache hits per admitted run (hits_total / runs_total).",
            move || hit_rate(hits.get(), runs.get()),
        );
        m
    }
}

/// `hits / runs`, defined as 0.0 before the first admitted run.
fn hit_rate(hits: u64, runs: u64) -> f64 {
    if runs == 0 {
        0.0
    } else {
        hits as f64 / runs as f64
    }
}

/// Fault-tolerance and overload configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Test-only delay inserted before each computation, widening the
    /// in-flight window so CI can assert dedup deterministically
    /// (`--chaos-compute-ms`).
    pub chaos_compute_ms: u64,
    /// Deterministic fault injection: every K-th computation panics before
    /// doing any work (`--chaos-panic K`). The panic is contained and
    /// reported as `error_kind: "compute_panic"`.
    pub chaos_panic: Option<u64>,
    /// Per-request deadline (`--deadline-ms`): followers stop waiting and a
    /// leader's late result is discarded (never cached) once expired.
    pub deadline: Option<Duration>,
    /// Admission control (`--max-inflight N`): a request that would start
    /// computation number N+1 is refused with `error_kind: "overloaded"`
    /// and a `retry_after_ms` hint. Duplicates of an in-flight computation
    /// always dedup into it (they add no work).
    pub max_inflight: Option<usize>,
    /// Byte budget of the in-memory cache tier (`--cache-mem-mb`, in
    /// bytes). 0 disables the tier: every hit re-reads and re-verifies
    /// from disk.
    pub cache_mem_bytes: u64,
    /// Worker threads one `batch` request fans its items over
    /// (`--batch-workers`; 0 = all cores). Each batch gets its own scoped
    /// pool, additionally bounded by the batch's item count.
    pub batch_workers: usize,
    /// Capacity of the background warm queue (`--warm-queue`). `warm`
    /// items past it are refused with `error_kind: "warm_queue_full"`.
    pub warm_queue_cap: usize,
    /// Structured trace output (`--trace PATH`): one JSONL span or event
    /// record per line, each stamped with the `request_id` of the request
    /// that produced it. `None` disables tracing at zero cost.
    pub trace_path: Option<String>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            chaos_compute_ms: 0,
            chaos_panic: None,
            deadline: None,
            max_inflight: None,
            cache_mem_bytes: 0,
            batch_workers: 0,
            // A drained queue costs nothing, so the default is generous
            // enough for every artifact's full sweep grid.
            warm_queue_cap: 256,
            trace_path: None,
        }
    }
}

/// The daemon core: a result cache, the in-flight lifecycle and the
/// counters. Transport-independent — the socket and pipe front ends both
/// feed request lines to [`Server::handle_line`] from as many threads as
/// they like.
pub struct Server {
    cache: ResultCache,
    registry: Arc<MetricsRegistry>,
    m: ServeMetrics,
    trace: TraceSink,
    /// Admission, dedup, drain state and idleness of every computation and
    /// active request.
    lifecycle: Arc<Inflight>,
    /// Background warm backlog, drained by [`Server::start_warmers`]
    /// threads when no interactive work is active.
    warm_queue: Mutex<VecDeque<ExperimentSpec>>,
    /// Wakes idle warmer threads when warm work arrives (or a drain
    /// starts).
    warm_ready: Condvar,
    opts: ServerOptions,
    /// Computations started (for `--chaos-panic` determinism).
    computations_started: AtomicU64,
    /// Source of generated request identifiers.
    rid_counter: AtomicU64,
    /// Distinguishes this server's generated request identifiers from
    /// other servers' (and other processes').
    rid_prefix: String,
    started: Instant,
}

/// Distinguishes servers within one process in [`Server::next_request_id`]
/// prefixes.
static SERVER_SEQ: AtomicU64 = AtomicU64::new(0);

impl Server {
    /// Open (or create) the cache directory and build a server around it.
    /// With a non-zero [`ServerOptions::cache_mem_bytes`] the cache gets
    /// an in-memory LRU tier in front of the disk entries. With
    /// [`ServerOptions::trace_path`] set, the trace file is created (or
    /// truncated) here.
    pub fn new(cache_dir: &str, opts: ServerOptions) -> std::io::Result<Server> {
        let registry = Arc::new(MetricsRegistry::new());
        let cache_counters = CacheCounters::registered(&registry, "sfc_serve");
        let m = ServeMetrics::registered(&registry);
        let trace = match &opts.trace_path {
            Some(path) => TraceSink::to_path(path)?,
            None => TraceSink::disabled(),
        };
        Ok(Server {
            cache: ResultCache::with_observability(
                cache_dir,
                opts.cache_mem_bytes,
                DEFAULT_MEM_SHARDS,
                cache_counters,
            )?,
            registry,
            m,
            trace,
            lifecycle: Arc::new(Inflight::new(opts.max_inflight)),
            warm_queue: Mutex::new(VecDeque::new()),
            warm_ready: Condvar::new(),
            opts,
            computations_started: AtomicU64::new(0),
            rid_counter: AtomicU64::new(0),
            rid_prefix: format!(
                "r{:x}-{:x}",
                std::process::id(),
                SERVER_SEQ.fetch_add(1, Ordering::SeqCst)
            ),
            started: Instant::now(),
        })
    }

    /// A fresh daemon-generated request identifier, unique within this
    /// process.
    fn next_request_id(&self) -> String {
        format!(
            "{}-{}",
            self.rid_prefix,
            self.rid_counter.fetch_add(1, Ordering::SeqCst) + 1
        )
    }

    /// Stop accepting new `run` work. Idempotent. In-flight computations
    /// finish and are answered; `stats` and `health` keep working so drain
    /// progress is observable. The warm backlog is discarded — warm work
    /// is advisory and must never delay a drain — and counted as
    /// `warm_dropped`.
    pub fn begin_drain(&self) {
        self.lifecycle.begin_drain();
        let dropped = lock_recover(&self.warm_queue).drain(..).count() as u64;
        if dropped > 0 {
            self.m.warm_dropped.add(dropped);
        }
        self.warm_ready.notify_all();
    }

    /// Whether [`Server::begin_drain`] has been called.
    pub fn draining(&self) -> bool {
        self.lifecycle.draining()
    }

    /// Requests currently being handled (tracked via
    /// [`Server::track_active`]).
    pub fn active_requests(&self) -> u64 {
        self.lifecycle.active_requests()
    }

    /// Computations currently in flight.
    pub fn inflight_len(&self) -> usize {
        self.lifecycle.len()
    }

    /// Block until no computation is in flight and no request is active,
    /// or until `deadline` (`None` waits indefinitely). Returns whether
    /// the daemon went idle. Drains and warmers wait here; nothing polls.
    pub fn wait_idle(&self, deadline: Option<Instant>) -> bool {
        self.lifecycle.wait_idle(deadline)
    }

    /// Warm items waiting in the background queue.
    pub fn warm_queue_len(&self) -> usize {
        lock_recover(&self.warm_queue).len()
    }

    /// Count one request as being handled until the returned token drops.
    /// The token is `'static`, so a transport can take it before handing
    /// the request to another thread.
    pub fn track_active(&self) -> ActiveRequest {
        self.lifecycle.track_active()
    }

    /// One JSON line of the current counters, for the final stats flush a
    /// draining daemon writes to stderr.
    pub fn stats_line(&self) -> String {
        serde_json::to_string(&Value::Object(self.stats_body())).expect("serialize stats")
    }

    /// Handle one request line, returning the response line to write back.
    /// Never panics on malformed input — errors become `ok: false`
    /// responses with a typed `error_kind`. Every line's wall time lands
    /// in the per-op latency histograms the `stats` op reports.
    ///
    /// A `batch` request's per-item lines are dropped on the floor here;
    /// use [`Server::handle_line_with`] when the transport can stream
    /// them.
    pub fn handle_line(&self, line: &str) -> Response {
        self.handle_line_with(line, &mut |_| {})
    }

    /// [`Server::handle_line`], streaming intermediate response lines
    /// through `emit` before the final response is returned: a `batch`
    /// request emits one document per item (in completion order) and
    /// returns the `batch_done` summary. Every other op never calls
    /// `emit`. Transports must write each emitted document as its own
    /// JSON line, in emission order, before the returned response.
    pub fn handle_line_with(&self, line: &str, emit: &mut dyn FnMut(&Value)) -> Response {
        let started = Instant::now();
        self.m.requests.inc();
        let (mut resp, op, rid) = self.dispatch(line, emit);
        let ok = resp.doc.get("ok") == Some(&Value::Bool(true));
        if let Value::Object(doc) = &mut resp.doc {
            doc.insert("request_id", rid.as_str().to_json());
        }
        self.record_latency(op, started.elapsed());
        self.trace
            .span(op, &rid, started.elapsed(), &[("ok", Value::Bool(ok))]);
        resp
    }

    /// Record one observation in the per-op latency histogram family.
    fn record_latency(&self, op: &str, elapsed: Duration) {
        self.registry
            .histogram(OP_LATENCY_US, OP_LATENCY_US_HELP, &[("op", op)])
            .record(elapsed);
    }

    /// Parse and answer one line, naming the latency-histogram label its
    /// wall time belongs to and the `request_id` stamped on the response
    /// and its trace records.
    fn dispatch(
        &self,
        line: &str,
        emit: &mut dyn FnMut(&Value),
    ) -> (Response, &'static str, String) {
        let (id, client_rid, req) = match Request::parse(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                return (
                    typed_error(e.id, error_kind::BAD_REQUEST, &e.message, None),
                    "bad_request",
                    e.request_id.unwrap_or_else(|| self.next_request_id()),
                )
            }
        };
        let rid = client_rid.unwrap_or_else(|| self.next_request_id());
        let (resp, op) = match req {
            Request::Run { spec, format } => self.run(id, &spec, format, &rid),
            Request::Batch { items } => self.run_batch(id, items, emit, &rid),
            Request::Warm { specs } => self.warm(id, specs),
            Request::Stats => (self.report_stats(id), "stats"),
            Request::Health => (self.report_health(id), "health"),
            Request::Metrics => (self.report_metrics(id), "metrics"),
            Request::Shutdown => {
                self.begin_drain();
                let mut doc = Map::new();
                doc.insert("id", id);
                doc.insert("ok", Value::Bool(true));
                doc.insert("shutting_down", Value::Bool(true));
                (
                    Response {
                        doc: Value::Object(doc),
                        shutdown: true,
                    },
                    "shutdown",
                )
            }
        };
        (resp, op, rid)
    }

    /// Answer a `run` request: memory-tier hit, verified disk hit, dedup
    /// into an in-flight computation, or compute (and populate both cache
    /// tiers) ourselves. The second tuple element is the latency label of
    /// the path taken.
    ///
    /// `runs` (the `hit_rate` denominator) counts only requests the daemon
    /// actually *served* — drain and overload refusals increment their own
    /// counters and nothing else, so a burst of refused traffic cannot
    /// deflate the hit rate.
    fn run(
        &self,
        id: Value,
        spec: &ExperimentSpec,
        format: Format,
        rid: &str,
    ) -> (Response, &'static str) {
        // One atomic load keeps a draining daemon off the cache-hit path;
        // `admit` below checks again for requests that race the drain.
        if self.draining() {
            return (self.refusal(id, Refusal::Draining), "run_refused");
        }
        let deadline = self.opts.deadline.map(|d| Instant::now() + d);
        let key = ResultCache::key(spec);

        if let Some((hit, tier)) = self.cache.load_tiered(spec) {
            self.m.runs.inc();
            self.m.hits.inc();
            let label = match tier {
                TierHit::Memory => "run_mem_hit",
                TierHit::Disk => "run_disk_hit",
            };
            return (
                run_response(id, spec, &key, format, &hit, true, false, true),
                label,
            );
        }

        // Admitted (as leader or follower): this request will be served,
        // so it joins the hit-rate denominator.
        let (outcome, deduped, label) = match self.lifecycle.admit(&key) {
            Admission::Refused(why) => return (self.refusal(id, why), "run_refused"),
            Admission::Follow(slot) => {
                self.m.runs.inc();
                self.m.deduped.inc();
                let Some(outcome) = slot.wait_deadline(deadline) else {
                    self.m.deadline_exceeded.inc();
                    let resp = typed_error(
                        id,
                        error_kind::DEADLINE_EXCEEDED,
                        "deadline expired while waiting for the in-flight computation",
                        None,
                    );
                    return (resp, "run_dedup");
                };
                (outcome, true, "run_dedup")
            }
            Admission::Lead(lead) => {
                self.m.runs.inc();
                let outcome = self.compute_as_leader(spec, deadline, rid);
                lead.finish(&outcome);
                (outcome, false, "run_compute")
            }
        };
        let resp = match outcome {
            RunOutcome::Ok { artifact, complete } => {
                run_response(id, spec, &key, format, &artifact, false, deduped, complete)
            }
            RunOutcome::Failed { kind, message } => typed_error(id, kind, &message, None),
        };
        (resp, label)
    }

    /// The typed answer to a request [`Inflight::admit`] refused, counted
    /// in its own stat and never in `runs`.
    fn refusal(&self, id: Value, why: Refusal) -> Response {
        match why {
            Refusal::Draining => {
                self.m.drain_refused.inc();
                typed_error(
                    id,
                    error_kind::DRAINING,
                    "daemon is draining; not accepting new work",
                    None,
                )
            }
            Refusal::Overloaded { max } => {
                self.m.overloaded.inc();
                typed_error(
                    id,
                    error_kind::OVERLOADED,
                    &format!("{max} computation(s) already in flight (--max-inflight)"),
                    Some(self.retry_after_ms()),
                )
            }
        }
    }

    /// Answer a `batch` request: fan the items over a bounded scoped pool
    /// and stream each item's response line (tagged with its submission
    /// `index`) through `emit` in completion order, then return the
    /// `batch_done` summary. Every item goes through the same
    /// [`Server::run`] path as a standalone `run` — same cache tiers, same
    /// in-flight dedup slots, same per-item deadline, same counters — so
    /// its `payload` is byte-identical to the standalone response and two
    /// batches (or a batch racing single runs) dedup against each other.
    /// Each item line carries `request_id` `<rid>.<index>` — the batch's
    /// identifier suffixed with the item's submission index — and a trace
    /// span under that child identifier.
    fn run_batch(
        &self,
        id: Value,
        items: Vec<BatchItem>,
        emit: &mut dyn FnMut(&Value),
        rid: &str,
    ) -> (Response, &'static str) {
        let workers = match self.opts.batch_workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(items.len())
        .max(1);
        let total = items.len();
        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Response, &'static str, Duration)>();
        let mut ok_items = 0u64;
        let mut failed_items = 0u64;
        let mut hits = 0u64;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let items = &items;
                let id = &id;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= total {
                        return;
                    }
                    let item = &items[i];
                    let started = Instant::now();
                    let child_rid = format!("{rid}.{i}");
                    let (resp, label) = self.run(id.clone(), &item.spec, item.format, &child_rid);
                    if tx.send((i, resp, label, started.elapsed())).is_err() {
                        return;
                    }
                });
            }
            drop(tx);
            // Stream each finished item as its own line the moment it
            // completes; a slow item never blocks a fast sibling's line.
            for (i, resp, label, elapsed) in rx {
                self.record_latency(label, elapsed);
                let ok = resp.doc.get("ok") == Some(&Value::Bool(true));
                if ok {
                    ok_items += 1;
                } else {
                    failed_items += 1;
                }
                if resp.doc.get("hit") == Some(&Value::Bool(true)) {
                    hits += 1;
                }
                let mut doc = match resp.doc {
                    Value::Object(m) => m,
                    other => {
                        // `run` always answers an object; keep the line
                        // well-formed even if that ever changes.
                        let mut m = Map::new();
                        m.insert("value", other);
                        m
                    }
                };
                doc.insert("index", (i as u64).to_json());
                let child_rid = format!("{rid}.{i}");
                doc.insert("request_id", child_rid.as_str().to_json());
                self.trace
                    .span(label, &child_rid, elapsed, &[("ok", Value::Bool(ok))]);
                emit(&Value::Object(doc));
            }
        });
        let mut doc = Map::new();
        doc.insert("id", id);
        doc.insert("ok", Value::Bool(true));
        doc.insert("batch_done", Value::Bool(true));
        doc.insert("items", (total as u64).to_json());
        doc.insert("ok_items", ok_items.to_json());
        doc.insert("failed_items", failed_items.to_json());
        doc.insert("hits", hits.to_json());
        (
            Response {
                doc: Value::Object(doc),
                shutdown: false,
            },
            "batch",
        )
    }

    /// Answer a `warm` request: enqueue each spec for the background
    /// warmer threads, up to [`ServerOptions::warm_queue_cap`]. Items past
    /// capacity are refused with `error_kind: "warm_queue_full"`
    /// (retryable: the queue drains in the background) and counted as
    /// `warm_dropped`; a draining daemon refuses the whole request.
    fn warm(&self, id: Value, specs: Vec<ExperimentSpec>) -> (Response, &'static str) {
        if self.draining() {
            self.m.drain_refused.inc();
            return (
                typed_error(
                    id,
                    error_kind::DRAINING,
                    "daemon is draining; not accepting warm work",
                    None,
                ),
                "warm_refused",
            );
        }
        let cap = self.opts.warm_queue_cap;
        let (queued, refused) = {
            let mut queue = lock_recover(&self.warm_queue);
            let mut queued = 0u64;
            let mut refused = 0u64;
            for spec in specs {
                if queue.len() >= cap {
                    refused += 1;
                } else {
                    queue.push_back(spec);
                    queued += 1;
                }
            }
            (queued, refused)
        };
        if queued > 0 {
            self.warm_ready.notify_all();
        }
        self.m.warm_queued.add(queued);
        self.m.warm_dropped.add(refused);
        if refused > 0 {
            let mut resp = typed_error(
                id,
                error_kind::WARM_QUEUE_FULL,
                &format!("warm queue full ({cap} slot(s)); {refused} item(s) refused"),
                Some(self.retry_after_ms()),
            );
            if let Value::Object(doc) = &mut resp.doc {
                doc.insert("queued", queued.to_json());
                doc.insert("refused", refused.to_json());
            }
            (resp, "warm_refused")
        } else {
            let mut doc = Map::new();
            doc.insert("id", id);
            doc.insert("ok", Value::Bool(true));
            doc.insert("queued", queued.to_json());
            (
                Response {
                    doc: Value::Object(doc),
                    shutdown: false,
                },
                "warm",
            )
        }
    }

    /// Spawn `n` detached warmer threads draining the warm queue for the
    /// life of the process. Warmers are strictly lower priority than
    /// interactive work: each waits until no request is being handled and
    /// nothing is in flight ([`Server::wait_idle`]) before it pops an item,
    /// dedups against the in-flight computations and both cache tiers, and
    /// the whole backlog is discarded when a drain starts.
    pub fn start_warmers(self: &Arc<Self>, n: usize) {
        for _ in 0..n {
            let server = Arc::clone(self);
            std::thread::spawn(move || server.warm_loop());
        }
    }

    /// One warmer thread: wait for work, wait for idleness, pop, warm,
    /// repeat — until the daemon drains.
    fn warm_loop(&self) {
        loop {
            let queue = self
                .warm_ready
                .wait_while(lock_recover(&self.warm_queue), |q| {
                    q.is_empty() && !self.draining()
                })
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if self.draining() {
                return;
            }
            drop(queue);
            self.wait_idle(None);
            // Another warmer may have taken the item, or a drain discarded
            // (and counted) the backlog while this one waited.
            let spec = lock_recover(&self.warm_queue).pop_front();
            if let Some(spec) = spec {
                self.warm_one(&spec);
            }
        }
    }

    /// Warm one spec: skip when either cache tier already holds it
    /// (`warm_hit` — the probe itself promotes a disk entry into the
    /// memory tier) or an identical computation is in flight
    /// (`warm_dedup`); otherwise lead the computation exactly like a `run`,
    /// so interactive requests arriving mid-warm dedup into the warmer's
    /// computation. An item the lifecycle refuses (a drain started, or
    /// `--max-inflight` is reached) is dropped and counted as
    /// `warm_dropped`. Failures are contained by the leader path and only
    /// ever visible in the stats — warming answers nobody.
    fn warm_one(&self, spec: &ExperimentSpec) {
        let started = Instant::now();
        // Background computations answer no request line, so they get
        // their own generated request identifiers for the trace.
        let rid = self.next_request_id();
        let label = if self.cache.load_tiered(spec).is_some() {
            "warm_hit"
        } else {
            match self.lifecycle.admit(&ResultCache::key(spec)) {
                Admission::Refused(_) => {
                    self.m.warm_dropped.inc();
                    return;
                }
                Admission::Follow(_) => "warm_dedup",
                Admission::Lead(lead) => {
                    let outcome = self.compute_as_leader(spec, None, &rid);
                    lead.finish(&outcome);
                    if matches!(outcome, RunOutcome::Ok { .. }) {
                        self.m.warm_computed.inc();
                    }
                    "warm_compute"
                }
            }
        };
        self.record_latency(label, started.elapsed());
        self.trace.span(label, &rid, started.elapsed(), &[]);
    }

    /// Run one leader computation under `catch_unwind`, so a panicking
    /// kernel produces a typed outcome for the slot instead of killing this
    /// thread and stranding every follower on the condvar.
    fn compute_as_leader(
        &self,
        spec: &ExperimentSpec,
        deadline: Option<Instant>,
        rid: &str,
    ) -> RunOutcome {
        let n = self.computations_started.fetch_add(1, Ordering::SeqCst) + 1;
        let chaos_panic = self
            .opts
            .chaos_panic
            .is_some_and(|k| k > 0 && n.is_multiple_of(k));
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if self.opts.chaos_compute_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.opts.chaos_compute_ms));
            }
            if chaos_panic {
                panic!("chaos-panic injection (computation {n})");
            }
            compute_artifact(spec)
        }));
        match result {
            Ok((artifact, summary)) => {
                let complete = summary.complete();
                self.m.computations.inc();
                if !complete {
                    self.m.errors.inc();
                }
                self.absorb_phases(&summary);
                self.trace.span(
                    "compute",
                    rid,
                    started.elapsed(),
                    &[
                        ("artifact", spec.artifact.name().to_json()),
                        ("complete", Value::Bool(complete)),
                    ],
                );
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    // The computation outlived the request that asked for
                    // it. Per the purity contract a deadline-expired
                    // request leaves no cache entry, so the late result is
                    // discarded rather than stored.
                    self.m.deadline_exceeded.inc();
                    self.trace.event("late_result_discarded", rid, &[]);
                    return RunOutcome::Failed {
                        kind: error_kind::DEADLINE_EXCEEDED,
                        message:
                            "computation finished after the request deadline; result discarded"
                                .to_string(),
                    };
                }
                if complete {
                    if let Err(e) = self.cache.store(spec, &artifact) {
                        eprintln!(
                            "# serve: cache store failed for {}: {e}",
                            ResultCache::key(spec)
                        );
                    }
                }
                RunOutcome::Ok {
                    artifact: Arc::new(artifact),
                    complete,
                }
            }
            Err(payload) => {
                let error = SfcError::ComputePanicked {
                    message: panic_message(payload.as_ref()),
                };
                self.m.panics.inc();
                self.m.errors.inc();
                self.trace.span(
                    "compute",
                    rid,
                    started.elapsed(),
                    &[
                        ("artifact", spec.artifact.name().to_json()),
                        ("panicked", Value::Bool(true)),
                    ],
                );
                RunOutcome::Failed {
                    kind: error_kind::COMPUTE_PANIC,
                    message: error.to_string(),
                }
            }
        }
    }

    /// Fold one sweep's per-cell phase timings into the labeled
    /// [`PHASE_US`] counter family.
    fn absorb_phases(&self, summary: &SweepSummary) {
        for (_cell, timing) in &summary.timings {
            for (name, ms) in &timing.phases {
                let us = (ms * 1000.0).round() as u64;
                self.registry
                    .counter_labeled(PHASE_US, PHASE_US_HELP, &[("phase", name)])
                    .add(us);
            }
        }
    }

    /// The `retry_after_ms` hint attached to `overloaded` and
    /// `warm_queue_full` refusals, scaled with current load.
    fn retry_after_ms(&self) -> u64 {
        retry_after_hint(self.opts.chaos_compute_ms, self.inflight_len() as u64)
    }

    /// The one-line `overloaded` refusal the socket front end writes to a
    /// connection its bounded accept queue cannot take — same shape (and
    /// `retry_after_ms` hint) as a `--max-inflight` refusal, and counted
    /// in the same `overloaded` stat.
    pub fn overloaded_refusal_line(&self) -> String {
        self.m.overloaded.inc();
        let resp = typed_error(
            Value::Null,
            error_kind::OVERLOADED,
            "accept queue full; all workers busy",
            Some(self.retry_after_ms()),
        );
        serde_json::to_string(&resp.doc).expect("serialize refusal")
    }

    /// The typed `stats` body, read straight from the registry handles —
    /// the same atomics the Prometheus page renders.
    pub fn stats_response(&self) -> StatsResponse {
        let mem = self.cache.mem_stats();
        let m = &self.m;
        let mut phases_ms = Vec::new();
        if let Some(fam) = self.registry.family_snapshot(PHASE_US) {
            for series in &fam.series {
                if let (Some(name), SampleValue::Uint(us)) = (series.label("phase"), &series.value)
                {
                    phases_ms.push((name.to_string(), *us as f64 / 1000.0));
                }
            }
        }
        let mut latency_us = Vec::new();
        if let Some(fam) = self.registry.family_snapshot(OP_LATENCY_US) {
            for series in &fam.series {
                if let (Some(op), SampleValue::Histo(hist)) = (series.label("op"), &series.value) {
                    let le_us = hist
                        .nonzero_buckets()
                        .into_iter()
                        .map(|(bound, count)| {
                            let label = if bound == u64::MAX {
                                "inf".to_string()
                            } else {
                                bound.to_string()
                            };
                            (label, count)
                        })
                        .collect();
                    latency_us.push(LatencyEntry {
                        op: op.to_string(),
                        count: hist.count(),
                        le_us,
                    });
                }
            }
        }
        StatsResponse {
            schema_version: SCHEMA_VERSION,
            requests: m.requests.get(),
            runs: m.runs.get(),
            hits: m.hits.get(),
            computations: m.computations.get(),
            deduped: m.deduped.get(),
            errors: m.errors.get(),
            panics: m.panics.get(),
            deadline_exceeded: m.deadline_exceeded.get(),
            overloaded: m.overloaded.get(),
            drain_refused: m.drain_refused.get(),
            warm_queued: m.warm_queued.get(),
            warm_computed: m.warm_computed.get(),
            warm_dropped: m.warm_dropped.get(),
            quarantined: self.cache.quarantined(),
            mem_hits: mem.mem_hits,
            disk_hits: mem.disk_hits,
            mem_evictions: mem.mem_evictions,
            mem_bytes: mem.mem_bytes,
            mem_entries: mem.mem_entries,
            hit_rate: hit_rate(m.hits.get(), m.runs.get()),
            inflight: self.inflight_len() as u64,
            draining: self.draining(),
            phases_ms,
            latency_us,
        }
    }

    /// The counters shared by the `stats` op and the final drain flush.
    fn stats_body(&self) -> Map {
        self.stats_response().to_map()
    }

    /// Answer a `stats` request from the counters.
    fn report_stats(&self, id: Value) -> Response {
        let mut doc = Map::new();
        doc.insert("id", id);
        doc.insert("ok", Value::Bool(true));
        doc.insert("stats", self.stats_response().to_json());
        Response {
            doc: Value::Object(doc),
            shutdown: false,
        }
    }

    /// The typed `health` body: liveness, drain state and load.
    pub fn health_response(&self) -> HealthResponse {
        let mem = self.cache.mem_stats();
        HealthResponse {
            schema_version: SCHEMA_VERSION,
            draining: self.draining(),
            inflight: self.inflight_len() as u64,
            active_requests: self.active_requests(),
            uptime_ms: (self.started.elapsed().as_secs_f64() * 1e3) as u64,
            quarantined: self.cache.quarantined(),
            warm_queue_depth: self.warm_queue_len() as u64,
            warm_queued: self.m.warm_queued.get(),
            warm_computed: self.m.warm_computed.get(),
            warm_dropped: self.m.warm_dropped.get(),
            mem_hits: mem.mem_hits,
            disk_hits: mem.disk_hits,
            mem_evictions: mem.mem_evictions,
            mem_bytes: mem.mem_bytes,
            deadline_ms: self.opts.deadline.map(|d| d.as_millis() as u64),
            max_inflight: self.opts.max_inflight.map(|n| n as u64),
        }
    }

    /// Answer a `health` request.
    fn report_health(&self, id: Value) -> Response {
        let mut doc = Map::new();
        doc.insert("id", id);
        doc.insert("ok", Value::Bool(true));
        doc.insert("health", self.health_response().to_json());
        Response {
            doc: Value::Object(doc),
            shutdown: false,
        }
    }

    /// Refresh the point-in-time gauges, then render every registered
    /// metric as a Prometheus text-exposition page (version 0.0.4).
    pub fn metrics_text(&self) -> String {
        let mem = self.cache.mem_stats();
        self.m.mem_bytes.set(mem.mem_bytes);
        self.m.mem_entries.set(mem.mem_entries);
        self.m.inflight.set(self.inflight_len() as u64);
        self.m.active_requests.set(self.active_requests());
        self.m.warm_queue_depth.set(self.warm_queue_len() as u64);
        self.m.draining.set(u64::from(self.draining()));
        self.m
            .uptime_ms
            .set((self.started.elapsed().as_secs_f64() * 1e3) as u64);
        self.registry.render_prometheus()
    }

    /// Answer a `metrics` request: the Prometheus page as one string
    /// field (the JSON-lines protocol frames it; an HTTP scraper bridge
    /// only has to unwrap `metrics` and serve it with the advertised
    /// `content_type`).
    fn report_metrics(&self, id: Value) -> Response {
        let mut doc = Map::new();
        doc.insert("id", id);
        doc.insert("ok", Value::Bool(true));
        doc.insert("content_type", "text/plain; version=0.0.4".to_json());
        doc.insert("metrics", self.metrics_text().to_json());
        Response {
            doc: Value::Object(doc),
            shutdown: false,
        }
    }
}

/// Rate limiter for repeated error log lines, keyed by an error-kind
/// string: the first occurrence of a kind logs immediately, repeats inside
/// the window are suppressed (and counted), and the first occurrence after
/// the window logs again carrying the suppressed count. A persistent
/// accept-loop error thus costs one stderr line per window instead of
/// ~100/s.
pub struct LogLimiter {
    window: Duration,
    /// `(kind, last logged, suppressed since then)`, first-use order — the
    /// distinct-kind population is tiny (I/O error kinds).
    seen: Vec<(String, Instant, u64)>,
}

impl LogLimiter {
    /// A limiter allowing one line per error kind per `window`.
    pub fn new(window: Duration) -> LogLimiter {
        LogLimiter {
            window,
            seen: Vec::new(),
        }
    }

    /// Report one occurrence of `kind` at `now`. `Some(n)` means the
    /// caller should log it, where `n` is how many occurrences of the same
    /// kind were suppressed since the last logged line; `None` means stay
    /// quiet.
    pub fn should_log(&mut self, kind: &str, now: Instant) -> Option<u64> {
        match self.seen.iter_mut().find(|(k, _, _)| k == kind) {
            None => {
                self.seen.push((kind.to_string(), now, 0));
                Some(0)
            }
            Some((_, last, suppressed)) => {
                if now.duration_since(*last) >= self.window {
                    let n = *suppressed;
                    *last = now;
                    *suppressed = 0;
                    Some(n)
                } else {
                    *suppressed += 1;
                    None
                }
            }
        }
    }
}

/// The one-line refusal a draining daemon writes to connections it will not
/// serve (used by the socket front end for connections accepted mid-drain).
pub fn drain_refusal_line() -> String {
    let resp = typed_error(
        Value::Null,
        error_kind::DRAINING,
        "daemon is draining; connection refused",
        None,
    );
    serde_json::to_string(&resp.doc).expect("serialize refusal")
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

/// Build a `run` response document.
#[allow(clippy::too_many_arguments)]
fn run_response(
    id: Value,
    spec: &ExperimentSpec,
    key: &str,
    format: Format,
    artifact: &CachedArtifact,
    hit: bool,
    deduped: bool,
    complete: bool,
) -> Response {
    let mut doc = Map::new();
    doc.insert("id", id);
    doc.insert("ok", Value::Bool(true));
    doc.insert("artifact", (spec.artifact.name()).to_json());
    doc.insert("key", (key).to_json());
    doc.insert("hit", Value::Bool(hit));
    doc.insert("deduped", Value::Bool(deduped));
    doc.insert("complete", Value::Bool(complete));
    doc.insert("payload", (format.select(artifact)).to_json());
    Response {
        doc: Value::Object(doc),
        shutdown: false,
    }
}

/// The retry hint for a refusal issued when the daemon already has
/// `depth` computations in flight. A loaded daemon pushes refused clients
/// further out instead of re-synchronizing the whole herd onto a constant
/// 250 ms beat: the hint grows linearly with depth from a base of one
/// expected computation time (the chaos delay when one is set, 250 ms
/// floor otherwise), capped at 10 s so an extreme backlog still retries
/// within a human-scale pause. Clients add their own jitter on top.
fn retry_after_hint(chaos_compute_ms: u64, depth: u64) -> u64 {
    let base = chaos_compute_ms.max(250);
    base.saturating_mul(depth + 1).min(base.max(10_000))
}

/// Build an `ok: false` response document carrying a typed `error_kind`
/// (and, for `overloaded`, the `retry_after_ms` hint).
fn typed_error(id: Value, kind: &str, message: &str, retry_after_ms: Option<u64>) -> Response {
    let mut doc = Map::new();
    doc.insert("id", id);
    doc.insert("ok", Value::Bool(false));
    doc.insert("error_kind", (kind).to_json());
    doc.insert("error", (message).to_json());
    if let Some(ms) = retry_after_ms {
        doc.insert("retry_after_ms", (ms).to_json());
    }
    Response {
        doc: Value::Object(doc),
        shutdown: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("sfc-serve-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    fn server(name: &str, opts: ServerOptions) -> Server {
        Server::new(&tmpdir(name), opts).unwrap()
    }

    fn run_line(scale: u32) -> String {
        run_line_seeded(scale, 3)
    }

    /// table1 at scale 9: a 2x2 grid with one particle — trivial cells.
    /// Distinct seeds make distinct cache keys, so one test can exercise
    /// several independent computations cheaply.
    fn run_line_seeded(scale: u32, seed: u64) -> String {
        format!(
            r#"{{"id": 7, "op": "run", "artifact": "table1", "scale": {scale}, "trials": 1, "seed": {seed}, "format": "plain"}}"#
        )
    }

    fn kind_of(resp: &Response) -> &str {
        resp.doc
            .get("error_kind")
            .and_then(Value::as_str)
            .unwrap_or("")
    }

    #[test]
    fn malformed_lines_are_typed_bad_requests_not_panics() {
        let server = server("malformed", ServerOptions::default());
        for line in [
            "not json",
            "[1, 2]",
            r#"{"op": "dance"}"#,
            r#"{"op": "run"}"#,
            r#"{"op": "run", "artifact": "nope"}"#,
            r#"{"op": "run", "artifact": "fig5", "scale": "big"}"#,
            r#"{"op": "run", "artifact": "fig5", "format": "yaml"}"#,
        ] {
            let resp = server.handle_line(line);
            assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(false)), "{line}");
            assert_eq!(kind_of(&resp), "bad_request", "{line}");
            assert!(!resp.shutdown);
        }
    }

    #[test]
    fn specs_the_drivers_cannot_run_are_invalid_not_computed() {
        // `--emit-specs` output with one axis edited: curve lists the
        // renderer would mislabel, an axis the driver indexes removed, a
        // topology the driver does not sweep, and input sizes the sampler
        // cannot place.
        let server = server("unrunnable", ServerOptions::default());
        let edited = |artifact: ArtifactKind, key: &str, value: Option<Value>| {
            let spec = ExperimentSpec::for_artifact(artifact, 5, 2, 3).canonical_json();
            let Value::Object(mut obj) = spec else {
                unreachable!()
            };
            match value {
                Some(v) => obj.insert(key, v),
                None => drop(obj.remove(key)),
            }
            obj.insert("op", "run".to_json());
            obj.insert("format", "json".to_json());
            serde_json::to_string(&Value::Object(obj)).unwrap()
        };
        let list = |names: &[&str]| Some(Value::Array(names.iter().map(|n| n.to_json()).collect()));
        let counts = |ns: &[u64]| Some(ns.to_vec().to_json());
        for line in [
            edited(
                ArtifactKind::Table1,
                "particle_curves",
                list(&["hilbert", "z"]),
            ),
            edited(
                ArtifactKind::Figure7,
                "particle_curves",
                list(&["z", "hilbert"]),
            ),
            edited(
                ArtifactKind::Table1,
                "processor_curves",
                list(&["hilbert", "z"]),
            ),
            edited(ArtifactKind::Table1, "processors", None),
            edited(ArtifactKind::Parametric, "topologies", list(&["Mesh"])),
            edited(ArtifactKind::Extensions, "topologies", list(&["Mesh"])),
            edited(ArtifactKind::Parametric, "particle_counts", counts(&[0])),
            edited(ArtifactKind::Parametric, "particle_counts", counts(&[5000])),
        ] {
            let resp = server.handle_line(&line);
            assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(false)), "{line}");
            assert_eq!(kind_of(&resp), "bad_request", "{line}");
            let error = resp.doc.get("error").and_then(Value::as_str).unwrap();
            assert!(error.contains("invalid spec"), "{line}: {error}");
        }
        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("computations"), Some(&(0u64).to_json()));
    }

    #[test]
    fn sweep_spec_with_a_3d_topology_is_a_bad_request_not_a_panic() {
        // The 2-D sweeps cannot build a 3-D machine; validation says so
        // before any computation starts, so a retrying client stops at once.
        let server = server("topology3d", ServerOptions::default());
        let spec = ExperimentSpec::for_artifact(ArtifactKind::Table1, 5, 1, 7).canonical_json();
        let Value::Object(mut obj) = spec else {
            unreachable!()
        };
        obj.insert("topologies", Value::Array(vec!["Mesh3d".to_json()]));
        obj.insert("op", "run".to_json());
        let resp = server.handle_line(&serde_json::to_string(&Value::Object(obj)).unwrap());
        assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(kind_of(&resp), "bad_request");
        let error = resp.doc.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("Mesh3D is a 3-D network"), "{error}");
        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("panics"), Some(&(0u64).to_json()));
        assert_eq!(body.get("computations"), Some(&(0u64).to_json()));
    }

    #[test]
    fn repeat_run_is_a_cache_hit_with_identical_payload() {
        let server = server("repeat", ServerOptions::default());
        let first = server.handle_line(&run_line(9));
        assert_eq!(first.doc.get("hit"), Some(&Value::Bool(false)));
        assert_eq!(first.doc.get("complete"), Some(&Value::Bool(true)));
        let second = server.handle_line(&run_line(9));
        assert_eq!(second.doc.get("hit"), Some(&Value::Bool(true)));
        assert_eq!(second.doc.get("id"), Some(&(7u64).to_json()));
        assert_eq!(first.doc.get("payload"), second.doc.get("payload"));
        assert_eq!(first.doc.get("key"), second.doc.get("key"));

        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("runs"), Some(&(2u64).to_json()));
        assert_eq!(body.get("hits"), Some(&(1u64).to_json()));
        assert_eq!(body.get("computations"), Some(&(1u64).to_json()));
        assert_eq!(body.get("deduped"), Some(&(0u64).to_json()));
        assert_eq!(body.get("panics"), Some(&(0u64).to_json()));
    }

    #[test]
    fn concurrent_identical_runs_compute_once() {
        let server = Arc::new(server(
            "dedup",
            ServerOptions {
                chaos_compute_ms: 150,
                ..ServerOptions::default()
            },
        ));
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.handle_line(&run_line(9)))
            })
            .collect();
        let responses: Vec<Response> = threads.into_iter().map(|t| t.join().unwrap()).collect();

        let payloads: Vec<_> = responses
            .iter()
            .map(|r| r.doc.get("payload").unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(payloads.windows(2).all(|w| w[0] == w[1]));

        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        // Exactly one computation; the other two either deduped into it or
        // (if scheduled after it finished) hit the cache.
        assert_eq!(body.get("computations"), Some(&(1u64).to_json()));
        let deduped = body.get("deduped").unwrap().as_u64().unwrap();
        let hits = body.get("hits").unwrap().as_u64().unwrap();
        assert_eq!(deduped + hits, 2);
        assert_eq!(body.get("inflight"), Some(&(0u64).to_json()));
    }

    #[test]
    fn shutdown_op_flags_the_connection_and_starts_drain() {
        let server = server("shutdown", ServerOptions::default());
        let resp = server.handle_line(r#"{"id": "bye", "op": "shutdown"}"#);
        assert!(resp.shutdown);
        assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(resp.doc.get("id"), Some(&("bye").to_json()));
        assert!(server.draining(), "shutdown must start the drain");
    }

    #[test]
    fn json_format_returns_the_envelope() {
        let server = server("json", ServerOptions::default());
        let line = r#"{"op": "run", "artifact": "table1", "scale": 9, "trials": 1, "seed": 3, "format": "json"}"#;
        let resp = server.handle_line(line);
        let payload = resp.doc.get("payload").unwrap().as_str().unwrap();
        let doc: Value = serde_json::from_str(payload).unwrap();
        assert_eq!(doc.get("artifact"), Some(&("table1").to_json()));
        assert!(doc.get("data").is_some());
    }

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        let shared = Arc::new(Mutex::new(41u64));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(shared.lock().is_err(), "the lock must actually be poisoned");
        let mut guard = lock_recover(&shared);
        *guard += 1;
        assert_eq!(*guard, 42);
    }

    #[test]
    fn panicking_computation_is_contained_and_typed() {
        let cache_dir = tmpdir("panic");
        let server = Server::new(
            &cache_dir,
            ServerOptions {
                chaos_panic: Some(1), // every computation panics
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let resp = server.handle_line(&run_line_seeded(9, 11));
        assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(kind_of(&resp), "compute_panic");
        assert!(resp
            .doc
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("panicked"));

        // The daemon keeps serving and the failure left no state behind:
        // no cache entry, no in-flight slot, no quarantine debris.
        assert_eq!(server.inflight_len(), 0);
        let entries: Vec<_> = std::fs::read_dir(&cache_dir).unwrap().collect();
        assert!(
            entries.is_empty(),
            "a panicked run must leave no cache state"
        );
        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("panics"), Some(&(1u64).to_json()));
        assert_eq!(body.get("computations"), Some(&(0u64).to_json()));
    }

    #[test]
    fn followers_of_a_panicked_leader_get_typed_errors_then_a_rerequest_recovers() {
        let cache_dir = tmpdir("panic-followers");
        let server = Arc::new(
            Server::new(
                &cache_dir,
                ServerOptions {
                    // Computation 2 panics (after the 200 ms window that
                    // lets followers pile onto the slot); computations 1
                    // and 3 compute cleanly.
                    chaos_panic: Some(2),
                    chaos_compute_ms: 200,
                    ..ServerOptions::default()
                },
            )
            .unwrap(),
        );
        // Computation 1: clean (seed 21).
        let warm = server.handle_line(&run_line_seeded(9, 21));
        assert_eq!(warm.doc.get("ok"), Some(&Value::Bool(true)));

        // Computation 2 (seed 22) panics; three concurrent identical
        // requests — one leader, the rest followers on the condvar slot —
        // must ALL get typed compute_panic errors, none may hang.
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.handle_line(&run_line_seeded(9, 22)))
            })
            .collect();
        for t in threads {
            let resp = t.join().expect("no hung or crashed request thread");
            assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(false)));
            assert_eq!(kind_of(&resp), "compute_panic");
        }
        assert_eq!(
            server.inflight_len(),
            0,
            "the panicked slot must be cleared"
        );

        // An immediate re-request of the same spec computes cleanly
        // (computation 3) and matches a chaos-free server byte for byte.
        let recovered = server.handle_line(&run_line_seeded(9, 22));
        assert_eq!(recovered.doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(recovered.doc.get("complete"), Some(&Value::Bool(true)));
        let clean = server_clean_payload(22);
        assert_eq!(
            recovered.doc.get("payload").and_then(Value::as_str),
            Some(clean.as_str()),
            "post-panic artifact must be byte-identical to the non-chaos path"
        );
    }

    fn server_clean_payload(seed: u64) -> String {
        let server = server(&format!("clean-{seed}"), ServerOptions::default());
        let resp = server.handle_line(&run_line_seeded(9, seed));
        assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(true)));
        resp.doc
            .get("payload")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn follower_deadline_expires_while_leader_computes_and_late_publish_is_discarded() {
        let cache_dir = tmpdir("deadline");
        let server = Arc::new(
            Server::new(
                &cache_dir,
                ServerOptions {
                    chaos_compute_ms: 400,
                    deadline: Some(Duration::from_millis(100)),
                    ..ServerOptions::default()
                },
            )
            .unwrap(),
        );
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.handle_line(&run_line_seeded(9, 31)))
            })
            .collect();
        let started = Instant::now();
        for t in threads {
            let resp = t.join().expect("no hung request thread");
            assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(false)));
            assert_eq!(kind_of(&resp), "deadline_exceeded");
        }
        // Both threads answered: the follower at ~100 ms, the leader when
        // its (late, discarded) computation finished — and the publish to a
        // slot with no remaining waiters did not panic.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(server.inflight_len(), 0);

        // Purity: a deadline-expired request leaves no cache entry and no
        // quarantine debris.
        let entries: Vec<_> = std::fs::read_dir(&cache_dir).unwrap().collect();
        assert!(
            entries.is_empty(),
            "a deadline-expired run must not populate the cache"
        );
        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("deadline_exceeded"), Some(&(2u64).to_json()));
        assert_eq!(body.get("quarantined"), Some(&(0u64).to_json()));
    }

    #[test]
    fn max_inflight_overload_is_typed_with_a_retry_hint() {
        let server = Arc::new(server(
            "overload",
            ServerOptions {
                chaos_compute_ms: 400,
                max_inflight: Some(1),
                ..ServerOptions::default()
            },
        ));
        let barrier = Arc::new(std::sync::Barrier::new(3));
        // Three concurrent *distinct* specs: exactly one is admitted, the
        // other two are refused with overloaded + retry_after_ms.
        let threads: Vec<_> = (0..3)
            .map(|i| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    server.handle_line(&run_line_seeded(9, 41 + i))
                })
            })
            .collect();
        let responses: Vec<Response> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let ok = responses
            .iter()
            .filter(|r| r.doc.get("ok") == Some(&Value::Bool(true)))
            .count();
        let overloaded: Vec<_> = responses
            .iter()
            .filter(|r| kind_of(r) == "overloaded")
            .collect();
        assert_eq!(
            ok, 1,
            "exactly one distinct spec may compute: {responses:?}"
        );
        assert_eq!(overloaded.len(), 2);
        for r in overloaded {
            let hint = r.doc.get("retry_after_ms").and_then(Value::as_u64);
            assert!(hint.is_some_and(|ms| ms >= 250), "retry hint: {:?}", r.doc);
        }
        let stats = server.handle_line(r#"{"op": "stats"}"#);
        assert_eq!(
            stats.doc.get("stats").unwrap().get("overloaded"),
            Some(&(2u64).to_json())
        );
    }

    #[test]
    fn draining_server_refuses_runs_but_answers_stats_and_health() {
        let server = server("drain", ServerOptions::default());
        server.begin_drain();
        server.begin_drain(); // idempotent

        let run = server.handle_line(&run_line(9));
        assert_eq!(run.doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(kind_of(&run), "draining");

        let stats = server.handle_line(r#"{"op": "stats"}"#);
        assert_eq!(stats.doc.get("ok"), Some(&Value::Bool(true)));
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("drain_refused"), Some(&(1u64).to_json()));
        assert_eq!(body.get("draining"), Some(&Value::Bool(true)));

        let health = server.handle_line(r#"{"op": "health"}"#);
        assert_eq!(health.doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            health.doc.get("health").unwrap().get("draining"),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn health_reports_load_and_configuration() {
        let server = server(
            "health",
            ServerOptions {
                deadline: Some(Duration::from_millis(1500)),
                max_inflight: Some(4),
                ..ServerOptions::default()
            },
        );
        let _active = server.track_active();
        let resp = server.handle_line(r#"{"id": 1, "op": "health"}"#);
        let body = resp.doc.get("health").unwrap();
        assert_eq!(body.get("draining"), Some(&Value::Bool(false)));
        assert_eq!(body.get("inflight"), Some(&(0u64).to_json()));
        assert_eq!(body.get("active_requests"), Some(&(1u64).to_json()));
        assert_eq!(body.get("deadline_ms"), Some(&(1500u64).to_json()));
        assert_eq!(body.get("max_inflight"), Some(&(4u64).to_json()));
        assert_eq!(body.get("quarantined"), Some(&(0u64).to_json()));
        assert!(body.get("uptime_ms").and_then(Value::as_u64).is_some());
    }

    #[test]
    fn drain_refusal_line_is_one_typed_json_line() {
        let line = drain_refusal_line();
        assert!(!line.contains('\n'));
        let doc: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("error_kind").and_then(Value::as_str),
            Some("draining")
        );
    }

    #[test]
    fn memory_tier_serves_repeats_and_reports_tier_counters() {
        let server = server(
            "mem-tier",
            ServerOptions {
                cache_mem_bytes: 64 << 20,
                ..ServerOptions::default()
            },
        );
        let first = server.handle_line(&run_line(9));
        assert_eq!(first.doc.get("hit"), Some(&Value::Bool(false)));
        // Repeats are memory hits: the store seeded the tier, so no disk
        // read (and no sha256 pass) happens again.
        let second = server.handle_line(&run_line(9));
        let third = server.handle_line(&run_line(9));
        assert_eq!(second.doc.get("hit"), Some(&Value::Bool(true)));
        assert_eq!(first.doc.get("payload"), second.doc.get("payload"));
        assert_eq!(first.doc.get("payload"), third.doc.get("payload"));

        // An op's latency is recorded when its response is complete, so the
        // first stats body cannot contain the `stats` histogram yet — ask
        // twice and assert on the second.
        server.handle_line(r#"{"op": "stats"}"#);
        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("mem_hits"), Some(&(2u64).to_json()));
        assert_eq!(body.get("disk_hits"), Some(&(0u64).to_json()));
        assert_eq!(body.get("mem_evictions"), Some(&(0u64).to_json()));
        assert!(body.get("mem_bytes").unwrap().as_u64().unwrap() > 0);
        assert_eq!(body.get("mem_entries"), Some(&(1u64).to_json()));

        // The latency histograms saw every path this test exercised.
        let latency = body.get("latency_us").unwrap();
        for op in ["run_compute", "run_mem_hit", "stats"] {
            let hist = latency
                .get(op)
                .unwrap_or_else(|| panic!("latency histogram for {op}"));
            assert!(hist.get("count").unwrap().as_u64().unwrap() > 0, "{op}");
            let buckets = hist.get("le_us").unwrap().as_object().unwrap();
            assert!(!buckets.is_empty(), "{op} buckets must be non-empty");
        }
    }

    #[test]
    fn cold_memory_warm_disk_restart_replays_byte_identically() {
        let dir = tmpdir("mem-restart");
        let opts = || ServerOptions {
            cache_mem_bytes: 64 << 20,
            ..ServerOptions::default()
        };
        let first = Server::new(&dir, opts()).unwrap();
        let computed = first.handle_line(&run_line(9));
        assert_eq!(computed.doc.get("hit"), Some(&Value::Bool(false)));

        // A second daemon over the same cache dir: its memory tier is
        // cold, so the first hit verifies from disk (and promotes), the
        // next comes from memory — all byte-identical, zero recomputation.
        let second = Server::new(&dir, opts()).unwrap();
        let from_disk = second.handle_line(&run_line(9));
        let from_mem = second.handle_line(&run_line(9));
        assert_eq!(from_disk.doc.get("hit"), Some(&Value::Bool(true)));
        assert_eq!(from_mem.doc.get("hit"), Some(&Value::Bool(true)));
        assert_eq!(computed.doc.get("payload"), from_disk.doc.get("payload"));
        assert_eq!(computed.doc.get("payload"), from_mem.doc.get("payload"));

        let stats = second.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("computations"), Some(&(0u64).to_json()));
        assert_eq!(body.get("disk_hits"), Some(&(1u64).to_json()));
        assert_eq!(body.get("mem_hits"), Some(&(1u64).to_json()));
    }

    #[test]
    fn overloaded_refusal_line_carries_the_retry_hint_and_counts() {
        let server = server("queue-refusal", ServerOptions::default());
        let line = server.overloaded_refusal_line();
        assert!(!line.contains('\n'));
        let doc: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("error_kind").and_then(Value::as_str),
            Some("overloaded")
        );
        assert!(doc.get("retry_after_ms").and_then(Value::as_u64).unwrap() >= 250);
        let stats = server.handle_line(r#"{"op": "stats"}"#);
        assert_eq!(
            stats.doc.get("stats").unwrap().get("overloaded"),
            Some(&(1u64).to_json())
        );
    }

    #[test]
    fn log_limiter_allows_one_line_per_kind_per_window() {
        let mut limiter = LogLimiter::new(Duration::from_secs(5));
        let t0 = Instant::now();
        // First occurrence of each kind logs immediately.
        assert_eq!(limiter.should_log("ConnectionAborted", t0), Some(0));
        assert_eq!(limiter.should_log("PermissionDenied", t0), Some(0));
        // Repeats inside the window are suppressed and counted.
        for _ in 0..7 {
            assert_eq!(
                limiter.should_log("ConnectionAborted", t0 + Duration::from_secs(1)),
                None
            );
        }
        // Other kinds are unaffected by that suppression window.
        assert_eq!(
            limiter.should_log("PermissionDenied", t0 + Duration::from_secs(6)),
            Some(0)
        );
        // After the window the kind logs again, reporting what was eaten.
        assert_eq!(
            limiter.should_log("ConnectionAborted", t0 + Duration::from_secs(6)),
            Some(7)
        );
        // And the counter restarts.
        assert_eq!(
            limiter.should_log("ConnectionAborted", t0 + Duration::from_secs(7)),
            None
        );
        assert_eq!(
            limiter.should_log("ConnectionAborted", t0 + Duration::from_secs(12)),
            Some(1)
        );
    }

    #[test]
    fn active_request_tracking_is_raii() {
        let server = server("active", ServerOptions::default());
        assert_eq!(server.active_requests(), 0);
        {
            let _a = server.track_active();
            let _b = server.track_active();
            assert_eq!(server.active_requests(), 2);
        }
        assert_eq!(server.active_requests(), 0);
    }

    /// Handle one line, collecting the streamed (batch item) documents.
    fn handle_collect(server: &Server, line: &str) -> (Response, Vec<Value>) {
        let mut emitted = Vec::new();
        let resp = server.handle_line_with(line, &mut |doc| emitted.push(doc.clone()));
        (resp, emitted)
    }

    /// A `batch` line over table1-scale-9 cells distinguished by seed,
    /// exercising the shared-defaults + per-item-override merge.
    fn batch_line(seeds: &[u64]) -> String {
        let items: Vec<String> = seeds
            .iter()
            .map(|s| format!(r#"{{"seed": {s}}}"#))
            .collect();
        format!(
            r#"{{"id": "b", "op": "batch", "defaults": {{"artifact": "table1", "scale": 9, "trials": 1, "format": "plain"}}, "items": [{}]}}"#,
            items.join(", ")
        )
    }

    fn warm_line(seeds: &[u64]) -> String {
        let items: Vec<String> = seeds
            .iter()
            .map(|s| format!(r#"{{"artifact": "table1", "scale": 9, "trials": 1, "seed": {s}}}"#))
            .collect();
        format!(
            r#"{{"id": "w", "op": "warm", "items": [{}]}}"#,
            items.join(", ")
        )
    }

    #[test]
    fn batch_items_match_standalone_runs_byte_identically() {
        let server = server("batch-ident", ServerOptions::default());
        // Seed 21 is cached before the batch: the batch sees a mixed
        // hit/miss population, the acceptance shape from the issue.
        let standalone_21 = server.handle_line(&run_line_seeded(9, 21));
        let (done, items) = handle_collect(&server, &batch_line(&[21, 22, 23]));

        assert_eq!(done.doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(done.doc.get("batch_done"), Some(&Value::Bool(true)));
        assert_eq!(done.doc.get("items"), Some(&(3u64).to_json()));
        assert_eq!(done.doc.get("ok_items"), Some(&(3u64).to_json()));
        assert_eq!(done.doc.get("failed_items"), Some(&(0u64).to_json()));
        assert_eq!(done.doc.get("hits"), Some(&(1u64).to_json()));
        assert!(!done.shutdown);

        // Every index is present exactly once (completion order may vary).
        let mut indexes: Vec<u64> = items
            .iter()
            .map(|doc| doc.get("index").and_then(Value::as_u64).unwrap())
            .collect();
        indexes.sort_unstable();
        assert_eq!(indexes, vec![0, 1, 2]);

        for doc in &items {
            let index = doc.get("index").and_then(Value::as_u64).unwrap();
            let seed = [21u64, 22, 23][index as usize];
            // The equivalent standalone run: for seed 21 it already ran
            // above; for the others it replays the cache the batch filled.
            let standalone = if seed == 21 {
                standalone_21.doc.clone()
            } else {
                server.handle_line(&run_line_seeded(9, seed)).doc
            };
            assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "seed {seed}");
            assert_eq!(
                doc.get("payload"),
                standalone.get("payload"),
                "batch item payload must be byte-identical to a standalone run (seed {seed})"
            );
            assert_eq!(doc.get("key"), standalone.get("key"), "seed {seed}");
            // The batch id, not the item seed, correlates the lines.
            assert_eq!(doc.get("id"), Some(&("b").to_json()));
        }
        // Seed 21 was a hit inside the batch (it was pre-cached).
        let hit_21 = items
            .iter()
            .find(|d| d.get("index") == Some(&(0u64).to_json()))
            .unwrap();
        assert_eq!(hit_21.get("hit"), Some(&Value::Bool(true)));
    }

    #[test]
    fn batch_sibling_items_survive_a_chaos_panic() {
        // One batch worker makes the chaos counter deterministic: the
        // items compute in submission order, so computation #2 — seed 32 —
        // is the one that panics.
        let server = server(
            "batch-panic",
            ServerOptions {
                chaos_panic: Some(2),
                batch_workers: 1,
                ..ServerOptions::default()
            },
        );
        let (done, items) = handle_collect(&server, &batch_line(&[31, 32, 33]));
        assert_eq!(done.doc.get("ok_items"), Some(&(2u64).to_json()));
        assert_eq!(done.doc.get("failed_items"), Some(&(1u64).to_json()));

        let by_index = |i: u64| {
            items
                .iter()
                .find(|d| d.get("index") == Some(&i.to_json()))
                .unwrap()
        };
        assert_eq!(by_index(1).get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            by_index(1).get("error_kind").and_then(Value::as_str),
            Some(error_kind::COMPUTE_PANIC)
        );
        // The siblings are not poisoned: their payloads equal a clean
        // server's (computation is deterministic across instances).
        let clean = Server::new(&tmpdir("batch-panic-clean"), ServerOptions::default()).unwrap();
        for (i, seed) in [(0u64, 31u64), (2, 33)] {
            let doc = by_index(i);
            assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "seed {seed}");
            let standalone = clean.handle_line(&run_line_seeded(9, seed)).doc;
            assert_eq!(doc.get("payload"), standalone.get("payload"), "seed {seed}");
        }
    }

    #[test]
    fn batch_and_warm_parse_errors_are_bad_requests() {
        let server = server("batch-parse", ServerOptions::default());
        for line in [
            r#"{"op": "batch"}"#,
            r#"{"op": "batch", "items": []}"#,
            r#"{"op": "batch", "items": "nope"}"#,
            r#"{"op": "batch", "items": [{"artifact": "nope"}]}"#,
            r#"{"op": "batch", "defaults": [], "items": [{"artifact": "table1"}]}"#,
            r#"{"op": "warm", "items": [{"artifact": "table1", "scale": "big"}]}"#,
        ] {
            let resp = server.handle_line(line);
            assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(false)), "{line}");
            assert_eq!(kind_of(&resp), error_kind::BAD_REQUEST, "{line}");
        }
    }

    #[test]
    fn warm_queue_overflow_is_typed_and_counted() {
        // No warmers running: the queue only fills. Capacity 2, 4 items.
        let server = server(
            "warm-overflow",
            ServerOptions {
                warm_queue_cap: 2,
                ..ServerOptions::default()
            },
        );
        let resp = server.handle_line(&warm_line(&[61, 62, 63, 64]));
        assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(kind_of(&resp), error_kind::WARM_QUEUE_FULL);
        assert_eq!(resp.doc.get("queued"), Some(&(2u64).to_json()));
        assert_eq!(resp.doc.get("refused"), Some(&(2u64).to_json()));
        assert!(
            resp.doc
                .get("retry_after_ms")
                .and_then(Value::as_u64)
                .unwrap()
                >= 250
        );
        assert_eq!(server.warm_queue_len(), 2);

        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("warm_queued"), Some(&(2u64).to_json()));
        assert_eq!(body.get("warm_dropped"), Some(&(2u64).to_json()));
        assert_eq!(body.get("warm_computed"), Some(&(0u64).to_json()));
    }

    #[test]
    fn warm_queue_is_discarded_on_drain() {
        let server = server("warm-drain", ServerOptions::default());
        let resp = server.handle_line(&warm_line(&[71, 72]));
        assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(resp.doc.get("queued"), Some(&(2u64).to_json()));
        assert_eq!(server.warm_queue_len(), 2);

        server.begin_drain();
        assert_eq!(server.warm_queue_len(), 0, "drain discards the backlog");
        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        assert_eq!(body.get("warm_dropped"), Some(&(2u64).to_json()));

        // And a draining daemon refuses new warm work outright.
        let refused = server.handle_line(&warm_line(&[73]));
        assert_eq!(kind_of(&refused), error_kind::DRAINING);
    }

    #[test]
    fn warmer_computes_in_the_background_and_makes_runs_hit() {
        let server = Arc::new(server("warm-e2e", ServerOptions::default()));
        server.start_warmers(1);
        let resp = server.handle_line(&warm_line(&[81]));
        assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(true)));

        let warm_computed = |server: &Server| {
            let stats = server.handle_line(r#"{"op": "stats"}"#);
            stats
                .doc
                .get("stats")
                .and_then(|b| b.get("warm_computed"))
                .and_then(Value::as_u64)
                .unwrap()
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while warm_computed(&server) < 1 {
            assert!(Instant::now() < deadline, "warmer never computed the spec");
            std::thread::sleep(Duration::from_millis(10));
        }

        // The first interactive run of the warmed spec is already a hit.
        let run = server.handle_line(&run_line_seeded(9, 81));
        assert_eq!(run.doc.get("hit"), Some(&Value::Bool(true)));

        // Warming an already-cached spec is a no-op for the counter: the
        // warmer resolves it as a warm_hit instead of recomputing.
        server.handle_line(&warm_line(&[81]));
        let warm_hits = |server: &Server| {
            let stats = server.handle_line(r#"{"op": "stats"}"#);
            stats
                .doc
                .get("stats")
                .and_then(|b| b.get("latency_us"))
                .and_then(|l| l.get("warm_hit"))
                .and_then(|e| e.get("count"))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while warm_hits(&server) < 1 {
            assert!(Instant::now() < deadline, "re-warm never resolved as a hit");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            warm_computed(&server),
            1,
            "a cached spec must not recompute"
        );
        server.begin_drain(); // stop the warmer thread
    }

    /// Seeded random interleavings of runs, batches and warms over a few
    /// keys, under chaos panics, a deadline every computation outlives,
    /// `max_inflight` and a drain that may start midway: every call
    /// returns, the served-run counters add up, expired computations leave
    /// nothing cached, and the daemon ends idle with nothing in flight.
    #[test]
    fn random_request_interleavings_keep_the_lifecycle_consistent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        // Three request threads, one warmer and up to three one-worker
        // batch pools: at most 8 threads with the test's own.
        const CLIENTS: u64 = 3;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let deadline = rng.gen_bool(0.5);
            let dir = tmpdir(&format!("interleave-{seed}"));
            let server = Arc::new(
                Server::new(
                    &dir,
                    ServerOptions {
                        chaos_compute_ms: 20,
                        chaos_panic: rng.gen_bool(0.5).then_some(3),
                        deadline: deadline.then_some(Duration::from_millis(10)),
                        max_inflight: rng.gen_bool(0.5).then_some(2),
                        batch_workers: 1,
                        ..ServerOptions::default()
                    },
                )
                .unwrap(),
            );
            server.start_warmers(1);
            let warmed = Arc::new(Mutex::new(HashSet::new()));
            let (tx, rx) = std::sync::mpsc::channel();
            for t in 0..CLIENTS {
                let (server, warmed, tx) = (Arc::clone(&server), Arc::clone(&warmed), tx.clone());
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed * 10 + t);
                    for _ in 0..6 {
                        let s = 100 + rng.gen_range(0..4u64);
                        let line = match rng.gen_range(0..8) {
                            0 => batch_line(&[s, 100 + rng.gen_range(0..4u64)]),
                            1 => {
                                let spec =
                                    ExperimentSpec::for_artifact(ArtifactKind::Table1, 9, 1, s);
                                lock_recover(&warmed).insert(ResultCache::key(&spec));
                                warm_line(&[s])
                            }
                            2 if rng.gen_bool(0.3) => {
                                server.begin_drain();
                                continue;
                            }
                            _ => run_line_seeded(9, s),
                        };
                        server.handle_line(&line);
                    }
                    tx.send(()).unwrap();
                });
            }
            for _ in 0..CLIENTS {
                rx.recv_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|_| panic!("a request never returned (seed {seed})"));
            }
            server.begin_drain();
            assert!(server.wait_idle(Some(Instant::now() + Duration::from_secs(10))));
            assert_eq!(server.inflight_len(), 0, "seed {seed}");

            let stats = server.stats_response();
            let run_computes = stats
                .latency_us
                .iter()
                .find(|e| e.op == "run_compute")
                .map_or(0, |e| e.count);
            assert_eq!(
                stats.runs,
                stats.hits + stats.deduped + run_computes,
                "seed {seed}: refusals stay out of `runs`, every admitted run is counted once"
            );
            if deadline {
                // Every run outlives its deadline; only warmers, which
                // have none, may have stored an entry.
                let warmed = lock_recover(&warmed);
                for entry in std::fs::read_dir(&dir).unwrap() {
                    let name = entry.unwrap().file_name().to_string_lossy().into_owned();
                    assert!(
                        name.starts_with('.') || warmed.contains(&name),
                        "seed {seed}: `{name}` was cached after its deadline expired"
                    );
                }
            }
        }
    }

    #[test]
    fn refusals_do_not_deflate_hit_rate() {
        let server = server("hit-rate", ServerOptions::default());
        server.handle_line(&run_line_seeded(9, 51)); // miss
        server.handle_line(&run_line_seeded(9, 51)); // hit
        let body = |server: &Server| {
            let stats = server.handle_line(r#"{"op": "stats"}"#);
            match stats.doc.get("stats").unwrap() {
                Value::Object(m) => m.clone(),
                _ => unreachable!(),
            }
        };
        let before = body(&server);
        assert_eq!(before.get("runs"), Some(&(2u64).to_json()));
        assert_eq!(before.get("hits"), Some(&(1u64).to_json()));
        assert_eq!(before.get("hit_rate"), Some(&(0.5f64).to_json()));

        // An accept-queue overload refusal and a drain refusal: neither is
        // a served run, so neither may move the hit-rate denominator.
        let _ = server.overloaded_refusal_line();
        server.begin_drain();
        let refused = server.handle_line(&run_line_seeded(9, 52));
        assert_eq!(kind_of(&refused), error_kind::DRAINING);

        let after = body(&server);
        assert_eq!(after.get("runs"), Some(&(2u64).to_json()));
        assert_eq!(after.get("hits"), Some(&(1u64).to_json()));
        assert_eq!(after.get("hit_rate"), Some(&(0.5f64).to_json()));
        assert_eq!(after.get("overloaded"), Some(&(1u64).to_json()));
        assert_eq!(after.get("drain_refused"), Some(&(1u64).to_json()));
    }

    #[test]
    fn retry_hint_scales_with_depth_monotonically() {
        for chaos_ms in [0u64, 400, 20_000] {
            let mut prev = 0;
            for depth in 0..100 {
                let hint = retry_after_hint(chaos_ms, depth);
                assert!(
                    hint >= prev,
                    "hint must be monotone in depth (chaos {chaos_ms}, depth {depth})"
                );
                assert!(hint >= 250, "the 250 ms floor holds everywhere");
                prev = hint;
            }
        }
        // An idle daemon keeps the old constant hint...
        assert_eq!(retry_after_hint(0, 0), 250);
        // ...a loaded one pushes clients out proportionally...
        assert_eq!(retry_after_hint(0, 3), 1_000);
        assert_eq!(retry_after_hint(400, 1), 800);
        // ...capped so an extreme backlog still retries within 10 s...
        assert_eq!(retry_after_hint(0, 1_000), 10_000);
        // ...unless one computation alone takes longer than the cap.
        assert_eq!(retry_after_hint(20_000, 3), 20_000);
    }

    /// Split a Prometheus exposition page into (name, labels, value)
    /// sample triples, asserting every non-comment line is well-formed.
    fn parse_exposition(page: &str) -> Vec<(String, String, String)> {
        let mut samples = Vec::new();
        for line in page.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
                panic!("sample line has no value: {line:?}");
            });
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => {
                    let labels = rest.strip_suffix('}').unwrap_or_else(|| {
                        panic!("unterminated label set: {line:?}");
                    });
                    for pair in labels.split("\",") {
                        let (key, val) = pair
                            .split_once("=\"")
                            .unwrap_or_else(|| panic!("malformed label `{pair}`: {line:?}"));
                        assert!(
                            !key.is_empty() && key.chars().all(|c| c.is_alphanumeric() || c == '_'),
                            "bad label key in {line:?}"
                        );
                        let _ = val;
                    }
                    (name, labels)
                }
                None => (series, ""),
            };
            assert!(
                name.chars().all(|c| c.is_alphanumeric() || c == '_'),
                "bad metric name in {line:?}"
            );
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable value in {line:?}"
            );
            samples.push((name.to_string(), labels.to_string(), value.to_string()));
        }
        samples
    }

    #[test]
    fn metrics_op_renders_every_registered_counter_once() {
        let server = server(
            "metrics-op",
            ServerOptions {
                cache_mem_bytes: 64 << 20,
                ..ServerOptions::default()
            },
        );
        server.handle_line(&run_line_seeded(9, 61)); // miss -> computation
        server.handle_line(&run_line_seeded(9, 61)); // memory-tier hit

        let resp = server.handle_line(r#"{"id": 9, "op": "metrics"}"#);
        assert_eq!(resp.doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            resp.doc.get("content_type"),
            Some(&"text/plain; version=0.0.4".to_json())
        );
        let page = resp.doc.get("metrics").and_then(Value::as_str).unwrap();
        let samples = parse_exposition(page);
        let value_of = |name: &str| -> f64 {
            let hits: Vec<_> = samples.iter().filter(|(n, _, _)| n == name).collect();
            assert_eq!(hits.len(), 1, "expected exactly one `{name}` sample");
            hits[0].2.parse().unwrap()
        };

        // Every former bespoke counter is a single registry-backed sample.
        // (The metrics request itself is the third request counted.)
        for (name, want) in [
            ("sfc_serve_requests_total", 3.0),
            ("sfc_serve_runs_total", 2.0),
            ("sfc_serve_hits_total", 1.0),
            ("sfc_serve_computations_total", 1.0),
            ("sfc_serve_mem_hits_total", 1.0),
            ("sfc_serve_disk_hits_total", 0.0),
            ("sfc_serve_deduped_total", 0.0),
            ("sfc_serve_errors_total", 0.0),
            ("sfc_serve_panics_total", 0.0),
            ("sfc_serve_deadline_exceeded_total", 0.0),
            ("sfc_serve_overloaded_total", 0.0),
            ("sfc_serve_drain_refused_total", 0.0),
            ("sfc_serve_warm_queued_total", 0.0),
            ("sfc_serve_warm_computed_total", 0.0),
            ("sfc_serve_warm_dropped_total", 0.0),
            ("sfc_serve_quarantined_total", 0.0),
            ("sfc_serve_mem_evictions_total", 0.0),
            // hit_rate is derived from the registry counters at render
            // time, never stored (satellite: no double bookkeeping).
            ("sfc_serve_hit_rate", 0.5),
        ] {
            assert_eq!(value_of(name), want, "{name}");
        }
        // The per-op latency histogram and phase counters carry labels.
        assert!(samples
            .iter()
            .any(|(n, l, _)| n == "sfc_serve_op_latency_us_count" && l.contains("op=\"")));
        assert!(samples
            .iter()
            .any(|(n, l, _)| n == "sfc_serve_phase_us_total" && l.contains("phase=\"")));
        // Exactly one HELP/TYPE header pair per family.
        for name in ["sfc_serve_runs_total", "sfc_serve_op_latency_us"] {
            let help = format!("# HELP {name} ");
            assert_eq!(
                page.lines().filter(|l| l.starts_with(&help)).count(),
                1,
                "{name} HELP"
            );
        }
    }

    #[test]
    fn request_id_round_trips_from_response_into_the_trace() {
        let dir = tmpdir("trace-rid");
        let trace_path = format!("{dir}-trace.jsonl");
        let _ = std::fs::remove_file(&trace_path);
        let server = Server::new(
            &dir,
            ServerOptions {
                trace_path: Some(trace_path.clone()),
                ..ServerOptions::default()
            },
        )
        .unwrap();

        let resp = server.handle_line(&run_line_seeded(9, 71));
        let rid = resp
            .doc
            .get("request_id")
            .and_then(Value::as_str)
            .expect("every response line carries a request_id")
            .to_string();
        assert!(!rid.is_empty());

        let text = std::fs::read_to_string(&trace_path).unwrap();
        let records: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("trace lines are JSON"))
            .collect();
        assert!(!records.is_empty());
        for rec in &records {
            assert!(rec.get("ts_us").and_then(Value::as_u64).is_some());
            assert!(rec.get("kind").and_then(Value::as_str).is_some());
            assert!(rec.get("name").and_then(Value::as_str).is_some());
            assert!(rec.get("request_id").and_then(Value::as_str).is_some());
        }
        let spans_for_rid: Vec<&Value> = records
            .iter()
            .filter(|r| r.get("request_id") == Some(&rid.as_str().to_json()))
            .collect();
        let names: Vec<&str> = spans_for_rid
            .iter()
            .filter_map(|r| r.get("name").and_then(Value::as_str))
            .collect();
        assert!(
            names.contains(&"compute") && names.contains(&"run_compute"),
            "the response request_id must appear on its compute and op spans, got {names:?}"
        );
        // Timestamps are monotone within the file.
        let stamps: Vec<u64> = records
            .iter()
            .map(|r| r.get("ts_us").and_then(Value::as_u64).unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn client_request_ids_are_echoed_and_batch_items_indexed() {
        let server = server("client-rid", ServerOptions::default());
        let line = r#"{"id": 1, "op": "run", "artifact": "table1", "scale": 9, "trials": 1, "seed": 81, "format": "plain", "request_id": "my-rid"}"#;
        let resp = server.handle_line(line);
        assert_eq!(resp.doc.get("request_id"), Some(&"my-rid".to_json()));

        let batch = r#"{"id": 2, "op": "batch", "request_id": "b-1", "defaults": {"artifact": "table1", "scale": 9, "trials": 1, "format": "plain"}, "items": [{"seed": 82}, {"seed": 83}]}"#;
        let (done, items) = handle_collect(&server, batch);
        assert_eq!(done.doc.get("request_id"), Some(&"b-1".to_json()));
        let mut item_rids: Vec<String> = items
            .iter()
            .map(|doc| {
                doc.get("request_id")
                    .and_then(Value::as_str)
                    .expect("every batch item line carries a request_id")
                    .to_string()
            })
            .collect();
        item_rids.sort();
        assert_eq!(item_rids, ["b-1.0", "b-1.1"]);

        // A request without a client id still gets a daemon-generated one.
        let anon = server.handle_line(r#"{"op": "stats"}"#);
        let rid = anon.doc.get("request_id").and_then(Value::as_str).unwrap();
        assert!(!rid.is_empty());

        // A non-string request_id is refused, not silently replaced, and
        // the refusal keeps the id it sits next to.
        let bad = server.handle_line(r#"{"id": 6, "op": "stats", "request_id": 7}"#);
        assert_eq!(kind_of(&bad), "bad_request");
        assert_eq!(bad.doc.get("id"), Some(&6u64.to_json()));

        // A spec that fails validation, or an unknown op, still echoes the
        // client's id and request_id; bad JSON names no request.
        for (line, id, rid) in [
            (
                r#"{"id": 5, "op": "run", "artifact": "table1", "scale": 4, "trials": 1, "processors": [48], "request_id": "abc"}"#,
                5u64.to_json(),
                Some("abc"),
            ),
            (r#"{"id": "x", "op": "frobnicate"}"#, "x".to_json(), None),
            (r#"{"id": 7, "op": "#, Value::Null, None),
        ] {
            let resp = server.handle_line(line);
            assert_eq!(kind_of(&resp), "bad_request", "{line}");
            assert_eq!(resp.doc.get("id"), Some(&id), "{line}");
            let echoed = resp.doc.get("request_id").and_then(Value::as_str).unwrap();
            if let Some(rid) = rid {
                assert_eq!(echoed, rid, "{line}");
            }
        }
    }

    #[test]
    fn stats_and_health_bodies_parse_as_the_versioned_structs() {
        let server = server("versioned", ServerOptions::default());
        server.handle_line(&run_line_seeded(9, 91));
        server.handle_line(&run_line_seeded(9, 91));

        let stats = server.handle_line(r#"{"op": "stats"}"#);
        let body = stats.doc.get("stats").unwrap();
        let parsed = StatsResponse::from_json(body).unwrap();
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.runs, 2);
        assert_eq!(parsed.hits, 1);
        assert_eq!(parsed.hit_rate, 0.5);
        // Round-trip is byte-identical: the daemon and the typed structs
        // agree on the wire form exactly.
        assert_eq!(
            serde_json::to_string(&parsed.to_json()).unwrap(),
            serde_json::to_string(body).unwrap()
        );

        let health = server.handle_line(r#"{"op": "health"}"#);
        let body = health.doc.get("health").unwrap();
        let parsed = HealthResponse::from_json(body).unwrap();
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert!(!parsed.draining);
        assert_eq!(
            serde_json::to_string(&parsed.to_json()).unwrap(),
            serde_json::to_string(body).unwrap()
        );
    }

    #[test]
    fn artifacts_are_byte_identical_with_tracing_on_and_off() {
        let dir_traced = tmpdir("traced");
        let trace_path = format!("{dir_traced}-trace.jsonl");
        let traced = Server::new(
            &dir_traced,
            ServerOptions {
                trace_path: Some(trace_path.clone()),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let plain = server("untraced", ServerOptions::default());
        let line = run_line_seeded(9, 95);
        let a = traced.handle_line(&line);
        let b = plain.handle_line(&line);
        assert_eq!(a.doc.get("payload"), b.doc.get("payload"));
        assert_eq!(a.doc.get("key"), b.doc.get("key"));
        assert!(std::fs::metadata(&trace_path).unwrap().len() > 0);
    }
}
