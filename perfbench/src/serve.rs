//! The `serve_mixed` workload: `nproc` closed-loop clients calling
//! `sfc_serve::Server::handle_line` on `run` lines over a catalogue of
//! small specs, with the repeats skewed so the answers mix memory-tier
//! hits, verified disk hits and LRU churn, and one never-seen spec per
//! round that computes, publishes and deduplicates.

use crate::metrics::{Metrics, Outcome};
use crate::stats::{median, percentile, tail};
use crate::sweep;
use crate::trace::{Span, Tracer};
use serde_json::{ToJson, Value};
use sfc_core::runner::SweepSummary;
use sfc_core::{ArtifactKind, CachedArtifact, ExperimentSpec, ResultCache, TierHit};
use sfc_serve::{compute_artifact, Server, ServerOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Artifacts of the catalogue.
const KINDS: [ArtifactKind; 4] = [
    ArtifactKind::Table1,
    ArtifactKind::Figure6,
    ArtifactKind::Figure7,
    ArtifactKind::Parametric,
];
/// Scales of the catalogue.
const SCALES: [u32; 2] = [5, 6];
/// Seeds per (artifact, scale): 4 × 2 × 24 = 192 catalogue specs.
const SEEDS: u64 = 24;
/// Requests per client per round; the first of each round is the miss.
const ROUND: usize = 2000;
/// Latency samples each client can record without reallocating. The
/// buffers are written once up front, so resident memory does not depend
/// on how many requests a run completes.
const SAMPLE_CAP: usize = 1 << 21;
/// Payload formats, drawn uniformly.
const FORMATS: [&str; 3] = ["plain", "markdown", "json"];
/// Zipf exponent of the repeat popularity.
const ZIPF_S: f64 = 1.0;
/// Untimed rounds that bring the memory tier to its steady state.
const WARM_ROUNDS: u64 = 4;
/// Rounds of the traced replay.
const TRACE_ROUNDS: u64 = 24;

/// splitmix64 of `a` combined with `b`.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x6a09_e667_f3bc_c909);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The catalogue of specs the set-up computes and caches.
fn catalogue_specs(seed: u64) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for (k, &kind) in KINDS.iter().enumerate() {
        for &scale in &SCALES {
            for j in 0..SEEDS {
                let spec_seed =
                    mix(seed, (k as u64) << 32 | u64::from(scale) << 16 | j) % 1_000_000_007;
                specs.push(ExperimentSpec::for_artifact(kind, scale, 1, spec_seed));
            }
        }
    }
    specs
}

/// The never-seen spec of round `round`: a scale-5 Table I under a seed
/// drawn from a domain the catalogue never uses.
fn miss_spec(seed: u64, round: u64) -> ExperimentSpec {
    let spec_seed = 1_000_000_007 + mix(seed ^ 0x6d15_5e5d, round) % 1_000_000_007;
    ExperimentSpec::for_artifact(ArtifactKind::Table1, 5, 1, spec_seed)
}

/// The `run` request line for `spec` in format `fmt`.
fn run_line(spec: &ExperimentSpec, fmt: usize) -> String {
    format!(
        r#"{{"id":0,"op":"run","artifact":"{}","scale":{},"trials":{},"seed":{},"format":"{}"}}"#,
        spec.artifact.name(),
        spec.scale,
        spec.trials,
        spec.seed,
        FORMATS[fmt]
    )
}

fn payload(a: &CachedArtifact, fmt: usize) -> &str {
    match fmt {
        0 => &a.stdout_plain,
        1 => &a.stdout_markdown,
        _ => &a.artifact_json,
    }
}

/// The bytes the memory tier charges for one entry (the cache's own
/// accounting: three payload streams, the key, 64 B of bookkeeping).
fn entry_bytes(spec: &ExperimentSpec, a: &CachedArtifact) -> u64 {
    (a.stdout_plain.len()
        + a.stdout_markdown.len()
        + a.artifact_json.len()
        + ResultCache::key(spec).len()
        + 64) as u64
}

/// One client's seeded stream of repeat requests: `(catalogue index,
/// format)`, Zipf-skewed over a popularity order that interleaves the
/// catalogue's artifacts and scales, so every seed's hot set holds the same
/// mix of payload sizes.
struct Stream {
    state: u64,
    cdf: Vec<f64>,
}

impl Stream {
    /// Client `client`'s stream over `n` catalogue entries.
    fn new(seed: u64, client: u64, n: usize) -> Stream {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Stream {
            state: mix(seed, 0x5eed_0000 + client),
            cdf,
        }
    }

    /// Catalogue index of popularity rank `rank`: ranks cycle through the
    /// artifacts first, then the scales, then the seeds (the catalogue is
    /// laid out artifact-major, then scale, then seed).
    fn index_of_rank(rank: usize) -> usize {
        let (kinds, scales, seeds) = (KINDS.len(), SCALES.len(), SEEDS as usize);
        let (kind, scale, j) = (rank % kinds, rank / kinds % scales, rank / (kinds * scales));
        debug_assert!(j < seeds);
        (kind * scales + scale) * seeds + j
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state, 0)
    }

    /// The next repeat request.
    fn next_request(&mut self) -> (usize, usize) {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        let fmt = (self.next_u64() % FORMATS.len() as u64) as usize;
        (Self::index_of_rank(rank), fmt)
    }
}

/// The catalogue with its reference artifacts and pre-rendered lines.
struct Catalogue {
    specs: Vec<ExperimentSpec>,
    refs: Vec<CachedArtifact>,
    lines: Vec<[String; 3]>,
    /// Memory-tier budget: half the catalogue's bytes.
    budget: u64,
}

/// Set-up: compute every catalogue spec's reference artifact and publish
/// it into a fresh cache directory at `dir`.
fn set_up(seed: u64, dir: &Path, out: &mut Outcome) -> Catalogue {
    let specs = catalogue_specs(seed);
    let refs: Vec<CachedArtifact> = specs
        .iter()
        .map(|s| {
            let (a, summary) = compute_artifact(s);
            out.check(summary.complete(), "catalogue spec computes completely");
            a
        })
        .collect();
    publish(dir, &specs, &refs);
    let lines = specs
        .iter()
        .map(|s| std::array::from_fn(|f| run_line(s, f)))
        .collect();
    let total: u64 = specs
        .iter()
        .zip(&refs)
        .map(|(s, a)| entry_bytes(s, a))
        .sum();
    Catalogue {
        specs,
        refs,
        lines,
        budget: total / 2,
    }
}

/// A fresh cache directory holding every catalogue entry, as the daemon
/// would have stored it.
fn publish(dir: &Path, specs: &[ExperimentSpec], refs: &[CachedArtifact]) {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::new(dir).expect("create cache directory");
    for (s, a) in specs.iter().zip(refs) {
        cache.store(s, a).expect("store catalogue entry");
    }
}

fn server(dir: &Path, budget: u64) -> Server {
    let opts = ServerOptions {
        cache_mem_bytes: budget,
        ..ServerOptions::default()
    };
    Server::new(&dir.to_string_lossy(), opts).expect("open server cache")
}

fn payload_of(resp: &sfc_serve::Response) -> Option<&str> {
    (resp.doc.get("ok") == Some(&Value::Bool(true)))
        .then(|| resp.doc.get("payload").and_then(Value::as_str))
        .flatten()
}

/// One client's record of the timed loop.
#[derive(Default)]
struct ClientLog {
    /// Latency of every timed request.
    lat_ns: Vec<u64>,
    /// Latency of every timed miss request.
    miss_ns: Vec<u64>,
    requests: u64,
    failed: u64,
    /// `(round, sha256 of the payload, or None when not ok)` per miss.
    misses: Vec<(u64, Option<String>)>,
}

/// The timed closed loop. Every client runs the same rounds: a barrier,
/// the round's miss (the same line for every client, so all but one
/// deduplicate into the leader's computation), then `ROUND - 1` repeats.
/// Returns each client's log and the wall seconds of every timed round.
fn closed_loop(
    server: &Server,
    cat: &Catalogue,
    seed: u64,
    clients: usize,
    seconds: f64,
) -> (Vec<ClientLog>, Vec<f64>) {
    let barrier = Barrier::new(clients);
    let go = AtomicBool::new(true);
    // When each timed round started; the last entry ends the last round.
    let stamps: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let (barrier, go, stamps) = (&barrier, &go, &stamps);
                s.spawn(move || {
                    let mut log = ClientLog {
                        lat_ns: vec![u64::MAX; SAMPLE_CAP],
                        ..ClientLog::default()
                    };
                    log.lat_ns.clear();
                    let mut stream = Stream::new(seed, c, cat.specs.len());
                    for round in 0.. {
                        if barrier.wait().is_leader() {
                            let mut stamps = stamps.lock().expect("round stamps lock");
                            if round >= WARM_ROUNDS {
                                stamps.push(Instant::now());
                            }
                            let more =
                                stamps.len() < 2 || stamps[0].elapsed().as_secs_f64() < seconds;
                            go.store(more, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !go.load(Ordering::SeqCst) {
                            break;
                        }
                        let timed = round >= WARM_ROUNDS;
                        let spec = miss_spec(seed, round);
                        let line = run_line(&spec, (round % 3) as usize);
                        let t = Instant::now();
                        let resp = server.handle_line(&line);
                        let ns = t.elapsed().as_nanos() as u64;
                        let hash =
                            payload_of(&resp).map(|p| sfc_core::sha256::sha256_hex(p.as_bytes()));
                        if timed {
                            log.lat_ns.push(ns);
                            log.miss_ns.push(ns);
                            log.requests += 1;
                        }
                        log.misses.push((round, hash));
                        for _ in 1..ROUND {
                            let (i, f) = stream.next_request();
                            let t = Instant::now();
                            let resp = server.handle_line(&cat.lines[i][f]);
                            let ns = t.elapsed().as_nanos() as u64;
                            if timed {
                                log.lat_ns.push(ns);
                                log.requests += 1;
                                if payload_of(&resp) != Some(payload(&cat.refs[i], f)) {
                                    log.failed += 1;
                                }
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let stamps = stamps.into_inner().expect("round stamps lock");
    let round_s = stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    (logs, round_s)
}

/// Timed run: end-to-end metrics.
pub fn run_timed(seed: u64, seconds: f64, work: &Path, repeats: usize) -> Outcome {
    let mut out = Outcome::default();
    let dir = work.join("cache");
    let mut setups = Vec::new();
    let mut cat = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let c = set_up(seed, &dir, &mut out);
        let s = server(&dir, c.budget);
        setups.push(t.elapsed().as_secs_f64());
        cat = Some((c, s));
    }
    let (cat, server) = cat.expect("at least one set-up");
    let clients = crate::host::nproc();
    let (logs, round_s) = closed_loop(&server, &cat, seed, clients, seconds);

    // Every miss payload must match a fresh computation of its spec.
    let mut rounds: BTreeMap<u64, Vec<&Option<String>>> = BTreeMap::new();
    for log in &logs {
        for (round, hash) in &log.misses {
            rounds.entry(*round).or_default().push(hash);
        }
    }
    let mut miss_failures = 0;
    for (round, hashes) in &rounds {
        let (a, _) = compute_artifact(&miss_spec(seed, *round));
        let want = sfc_core::sha256::sha256_hex(payload(&a, (*round % 3) as usize).as_bytes());
        let bad = hashes
            .iter()
            .filter(|h| h.as_deref() != Some(want.as_str()))
            .count() as u64;
        if *round >= WARM_ROUNDS {
            miss_failures += bad;
        } else {
            out.check(bad == 0, "warm-up miss payload matches its reference");
        }
    }
    let requests: u64 = logs.iter().map(|l| l.requests).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum::<u64>() + miss_failures;
    out.attempted += requests;
    out.failed += failed;
    if failed > 0 {
        eprintln!("# FAILED: {failed} of {requests} responses were not ok or differed from their reference");
    }

    // A miss request computes a never-seen spec and publishes it (or waits
    // for the client that does): the served cost of one compute call.
    let miss_s: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.miss_ns)
        .map(|&ns| ns as f64 / 1e9)
        .collect();
    // Merge into the first client's pre-written buffer: no allocation.
    let mut logs = logs.into_iter();
    let mut lat = logs.next().expect("one client at least").lat_ns;
    logs.for_each(|l| lat.extend_from_slice(&l.lat_ns));
    lat.sort_unstable();
    let (label, tail_ns) = tail(&lat);
    let m = &mut out.metrics;
    m.set("sweep_s", median(&miss_s));
    // Throughput of the median round: every client completes ROUND
    // requests per round, so a burst of host noise moves few rounds.
    let round_rates: Vec<f64> = round_s
        .iter()
        .map(|s| (clients * ROUND) as f64 / s)
        .collect();
    m.set("req_per_s", median(&round_rates));
    m.set("latency_p50_us", percentile(&lat, 50.0) as f64 / 1e3);
    m.set("latency_tail_us", tail_ns as f64 / 1e3);
    m.set("setup_s", median(&setups));
    out.notes
        .insert("latency_tail_percentile", Value::String(label));
    out.notes
        .insert("latency_samples", (lat.len() as u64).to_json());
    out.notes.insert("rounds", (round_s.len() as u64).to_json());
    out.notes.insert("clients", (clients as u64).to_json());
    out
}

/// One request of the deterministic traced stream.
#[derive(Clone, Copy)]
enum Req {
    Miss(u64),
    Hit(usize, usize),
}

/// Client 0's stream for `rounds` rounds.
fn traced_stream(seed: u64, n: usize, rounds: u64) -> Vec<Req> {
    let mut stream = Stream::new(seed, 0, n);
    let mut reqs = Vec::new();
    for round in 0..rounds {
        reqs.push(Req::Miss(round));
        reqs.extend((1..ROUND).map(|_| {
            let (i, f) = stream.next_request();
            Req::Hit(i, f)
        }));
    }
    reqs
}

/// Tier counts and per-tier span durations of one server pass.
struct ServerPass {
    counts: BTreeMap<&'static str, u64>,
    by_tier: BTreeMap<&'static str, Vec<f64>>,
    wall_s: f64,
    spans: Vec<Span>,
}

/// Replay the stream through a fresh server over a fresh copy of the
/// catalogue's cache. Each miss is sent by this thread and, once it is in
/// flight, once more by a second client, which deduplicates into it.
fn server_pass(
    cat: &Catalogue,
    reqs: &[Req],
    seed: u64,
    dir: &Path,
    miss_refs: &BTreeMap<u64, CachedArtifact>,
    t: &Tracer,
    out: &mut Outcome,
) -> ServerPass {
    publish(dir, &cat.specs, &cat.refs);
    let server = server(dir, cat.budget);
    let before = server.stats_response();
    let mut tiers: Vec<(u64, &'static str)> = Vec::new();
    let mut failed = 0u64;
    let started = Instant::now();
    for (n, req) in reqs.iter().enumerate() {
        let run = n as u64 + 1;
        match *req {
            Req::Hit(i, f) => {
                let s0 = server.stats_response();
                let (resp, id) = t.span("serve.run", None, run, |id| {
                    (server.handle_line(&cat.lines[i][f]), id)
                });
                let s1 = server.stats_response();
                let tier = if s1.mem_hits > s0.mem_hits {
                    "mem"
                } else if s1.disk_hits > s0.disk_hits {
                    "disk"
                } else {
                    "other"
                };
                tiers.push((id, tier));
                failed += u64::from(payload_of(&resp) != Some(payload(&cat.refs[i], f)));
            }
            Req::Miss(round) => {
                let line = run_line(&miss_spec(seed, round), (round % 3) as usize);
                let want = payload(&miss_refs[&round], (round % 3) as usize);
                let leader_done = AtomicBool::new(false);
                let (lead, follow) = std::thread::scope(|s| {
                    let follower = s.spawn(|| {
                        while server.inflight_len() == 0 && !leader_done.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        server.handle_line(&line)
                    });
                    let (resp, id) =
                        t.span("serve.run", None, run, |id| (server.handle_line(&line), id));
                    leader_done.store(true, Ordering::SeqCst);
                    tiers.push((id, "compute"));
                    (resp, follower.join().expect("follower thread"))
                });
                failed += u64::from(payload_of(&lead) != Some(want));
                failed += u64::from(payload_of(&follow) != Some(want));
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.attempted += reqs.len() as u64;
    out.failed += failed;
    let after = server.stats_response();
    let counts = BTreeMap::from([
        ("computations", after.computations - before.computations),
        ("dedups", after.deduped - before.deduped),
        ("mem_hits", after.mem_hits - before.mem_hits),
        ("disk_hits", after.disk_hits - before.disk_hits),
        ("mem_evictions", after.mem_evictions - before.mem_evictions),
    ]);
    let spans = t.take();
    let dur: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.dur_ns() as f64)).collect();
    let mut by_tier: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (id, tier) in tiers {
        if let Some(&d) = dur.get(&id) {
            by_tier.entry(tier).or_default().push(d);
        }
    }
    ServerPass {
        counts,
        by_tier,
        wall_s,
        spans,
    }
}

/// Traced run: per-layer metrics. The cache layer is replayed directly
/// through `ResultCache`, the serve layer through `Server::handle_line`
/// (twice, untraced then traced, which must agree on every count), and
/// every miss's cells through the kernel replay of [`sweep::replay`].
pub fn run_traced(seed: u64, work: &Path) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let cat = set_up(seed, &work.join("cache"), &mut out);
    let reqs = traced_stream(seed, cat.specs.len(), TRACE_ROUNDS);
    let jobs = crate::host::nproc();

    // Cache layer, plus each miss's kernels and its reference artifact.
    let t = Tracer::new(true);
    let kernels = Tracer::new(true);
    let dir = work.join("cache-layer");
    publish(&dir, &cat.specs, &cat.refs);
    let cache = ResultCache::with_memory_budget(&dir, cat.budget).expect("open cache");
    let mut loads: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut stores = Vec::new();
    let mut miss_refs = BTreeMap::new();
    let mut kernel_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut summaries: Vec<SweepSummary> = Vec::new();
    for (n, req) in reqs.iter().enumerate() {
        let run = n as u64 + 1;
        let missed;
        let spec = match *req {
            Req::Hit(i, _) => &cat.specs[i],
            Req::Miss(round) => {
                missed = miss_spec(seed, round);
                &missed
            }
        };
        let t0 = Instant::now();
        let hit = t.span("cache.load", None, run, |_| cache.load_tiered(spec));
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        let tier = match &hit {
            Some((_, TierHit::Memory)) => "mem",
            Some((_, TierHit::Disk)) => "disk",
            None => "miss",
        };
        loads.entry(tier).or_default().push(us);
        if let Req::Miss(round) = *req {
            let replayed = sweep::replay(spec, &kernels, run, jobs);
            let (a, summary) = compute_artifact(spec);
            let envelope: Value =
                serde_json::from_str(&a.artifact_json).expect("artifact json parses");
            out.check(
                summary.complete() && envelope["data"] == replayed.data,
                "miss replay reproduces the served artifact's values",
            );
            for (k, v) in replayed.counts {
                *kernel_counts.entry(k).or_default() += v;
            }
            summaries.push(replayed.summary);
            let t0 = Instant::now();
            let stored = t.span("cache.store", None, run, |_| cache.store(spec, &a));
            stores.push(t0.elapsed().as_secs_f64() * 1e3);
            out.check(stored.is_ok(), "cache store succeeds");
            miss_refs.insert(round, a);
        } else if let (Req::Hit(i, _), Some((a, _))) = (req, &hit) {
            out.check(**a == cat.refs[*i], "cache hit returns the stored artifact");
        }
    }
    let cache_spans = t.take();
    let kernel_spans = kernels.take();
    let mem = cache.mem_stats();

    // Serve layer: the same stream, untraced then traced.
    let plain = server_pass(
        &cat,
        &reqs,
        seed,
        &work.join("serve-a"),
        &miss_refs,
        &Tracer::new(false),
        &mut out,
    );
    let traced_t = Tracer::new(true);
    let traced = server_pass(
        &cat,
        &reqs,
        seed,
        &work.join("serve-b"),
        &miss_refs,
        &traced_t,
        &mut out,
    );
    out.check(
        plain.counts == traced.counts,
        "two passes of one seed give identical serve counts",
    );
    eprintln!("# serve counts: {:?}", traced.counts);

    let m = &mut out.metrics;
    sweep::kernel_layers(&kernel_spans, &kernel_counts, &summaries, m);
    let med = |v: Option<&Vec<f64>>| v.map_or(f64::NAN, |v| median(v));
    let cache_mem_us = med(loads.get("mem"));
    m.set("cache.mem_hit_us", cache_mem_us);
    m.set("cache.disk_hit_us", med(loads.get("disk")));
    m.set("cache.store_ms", median(&stores));
    let count = |k: &str| loads.get(k).map_or(0, Vec::len) as f64;
    m.set("cache.mem_hits", count("mem"));
    m.set("cache.disk_hits", count("disk"));
    m.set("cache.misses", count("miss"));
    m.set("cache.mem_evictions", mem.mem_evictions as f64);
    m.set(
        "cache.hit_ratio",
        (count("mem") + count("disk")) / reqs.len() as f64,
    );
    let serve_mem_us = med(traced.by_tier.get("mem")) / 1e3;
    m.set("serve.mem_hit_us", serve_mem_us);
    m.set("serve.disk_hit_us", med(traced.by_tier.get("disk")) / 1e3);
    m.set("serve.compute_ms", med(traced.by_tier.get("compute")) / 1e6);
    m.set("serve.overhead_us", serve_mem_us - cache_mem_us);
    m.set("serve.computations", traced.counts["computations"] as f64);
    m.set("serve.dedups", traced.counts["dedups"] as f64);
    m.set("trace.overhead_ratio", traced.wall_s / plain.wall_s);
    out.check(
        sweep::decomposition(&kernel_spans),
        "layer shares add up to the traced compute wall",
    );
    let mut spans = cache_spans;
    spans.extend(kernel_spans);
    spans.extend(traced.spans);
    (out, spans)
}

/// For a sweep's traced run: time the cache and serve layers on the
/// sweep's own artifact, as a user meets them. The CLI's `--cache` path
/// looks the spec up (a miss), stores the fresh artifact, and later
/// invocations load it from disk, then from memory. A cold `sfc-serve`
/// computes the spec once; repeats hit memory; a restarted daemon hits
/// disk.
pub fn probe_sweep_tiers(
    spec: &ExperimentSpec,
    artifact: &CachedArtifact,
    work: &Path,
    m: &mut Metrics,
    out: &mut Outcome,
) -> Vec<Span> {
    const REPS: u64 = 9;
    let t = Tracer::new(true);
    let budget = 1 << 28;
    let dir = work.join("probe-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let load = |c: &ResultCache, run: u64| {
        let t0 = Instant::now();
        let hit = t.span("cache.load", None, run, |_| c.load_tiered(spec));
        (hit, t0.elapsed().as_nanos() as f64 / 1e3)
    };
    let cache = ResultCache::with_memory_budget(&dir, budget).expect("open cache");
    out.check(load(&cache, 1).0.is_none(), "a fresh cache misses");
    let t0 = Instant::now();
    let stored = t.span("cache.store", None, 1, |_| cache.store(spec, artifact));
    let store_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.check(stored.is_ok(), "cache store succeeds");
    let (mut mem_us, mut disk_us) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let fresh = ResultCache::with_memory_budget(&dir, budget).expect("open cache");
        for (want, into) in [
            (TierHit::Disk, &mut disk_us),
            (TierHit::Memory, &mut mem_us),
        ] {
            let (hit, us) = load(&fresh, 2 + rep);
            out.check(
                matches!(&hit, Some((a, tier)) if *tier == want && **a == *artifact),
                "cache loads hit disk, then memory, with the stored bytes",
            );
            into.push(us);
        }
    }
    let cache_mem_us = median(&mem_us);
    m.set("cache.mem_hit_us", cache_mem_us);
    m.set("cache.disk_hit_us", median(&disk_us));
    m.set("cache.store_ms", store_ms);
    m.set("cache.mem_hits", REPS as f64);
    m.set("cache.disk_hits", REPS as f64);
    m.set("cache.misses", 1.0);
    m.set("cache.mem_evictions", 0.0);
    m.set("cache.hit_ratio", (2 * REPS) as f64 / (2 * REPS + 1) as f64);

    let dir = work.join("probe-serve");
    let _ = std::fs::remove_dir_all(&dir);
    let line = run_line(spec, 2);
    let mut serve = |srv: &Server, run: u64| -> Duration {
        let t0 = Instant::now();
        let resp = t.span("serve.run", None, run, |_| srv.handle_line(&line));
        let d = t0.elapsed();
        out.check(
            payload_of(&resp) == Some(artifact.artifact_json.as_str()),
            "served payload matches the artifact",
        );
        d
    };
    let cold = server(&dir, budget);
    let compute_ms = serve(&cold, 100).as_secs_f64() * 1e3;
    let mem: Vec<f64> = (0..REPS)
        .map(|r| serve(&cold, 101 + r).as_nanos() as f64 / 1e3)
        .collect();
    let disk: Vec<f64> = (0..REPS)
        .map(|r| serve(&server(&dir, budget), 200 + r).as_nanos() as f64 / 1e3)
        .collect();
    let stats = cold.stats_response();
    let serve_mem_us = median(&mem);
    m.set("serve.mem_hit_us", serve_mem_us);
    m.set("serve.disk_hit_us", median(&disk));
    m.set("serve.compute_ms", compute_ms);
    m.set("serve.overhead_us", serve_mem_us - cache_mem_us);
    m.set("serve.computations", stats.computations as f64);
    m.set("serve.dedups", stats.deduped as f64);
    t.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_a_pure_function_of_the_seed() {
        let n = catalogue_specs(1).len();
        let take = |seed, client| {
            let mut s = Stream::new(seed, client, n);
            (0..2000).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(7, 1));
        assert_ne!(take(7, 0), take(8, 0));
        assert_eq!(catalogue_specs(7), catalogue_specs(7));
        assert_eq!(miss_spec(7, 3), miss_spec(7, 3));
        assert_eq!(traced_stream(7, n, 2).len(), 2 * ROUND);
    }

    #[test]
    fn popularity_ranks_cover_the_catalogue_once() {
        let n = catalogue_specs(1).len();
        let mut seen: Vec<usize> = (0..n).map(Stream::index_of_rank).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        // The eight hottest ranks are one spec of every artifact and scale.
        let specs = catalogue_specs(1);
        let hot: std::collections::BTreeSet<(ArtifactKind, u32)> = (0..8)
            .map(|r| {
                let s = &specs[Stream::index_of_rank(r)];
                (s.artifact, s.scale)
            })
            .collect();
        assert_eq!(hot.len(), 8);
    }

    #[test]
    fn misses_never_collide_with_the_catalogue() {
        let keys: std::collections::BTreeSet<String> =
            catalogue_specs(3).iter().map(ResultCache::key).collect();
        assert!((0..1000).all(|r| !keys.contains(&ResultCache::key(&miss_spec(3, r)))));
    }
}
