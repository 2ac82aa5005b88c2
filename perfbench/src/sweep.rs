//! The sweep workloads: Table I/II (`sweep_tables`) and Figure 6
//! (`sweep_topologies`) through `sfc_bench::artifact::compute`, plus a
//! traced replay of the same cells with a span around every layer call.

use crate::metrics::{Metrics, Outcome};
use crate::stats::{median, percentile, tail};
use crate::trace::{self, Span, SpanId, Tracer};
use serde_json::{ToJson, Value};
use sfc_bench::artifact::{compute, ArtifactOutput, ComputeOpts};
use sfc_bench::figures::{render_topology, TopologySweep};
use sfc_bench::tables::{render_grid, CurvePairGrid, Interaction};
use sfc_bench::SweepArgs;
use sfc_core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_core::nfi::nfi_acd;
use sfc_core::runner::{BatchCell, RunnerOptions, SweepRunner, SweepSummary};
use sfc_core::{ArtifactKind, Assignment, CachedArtifact, ExperimentSpec, Machine, Stats};
use sfc_curves::point::Norm;
use sfc_curves::{morton, Point2};
use sfc_quadtree::{interaction_list, Cell};
use sfc_topology::TopologyKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Scale of both sweeps (paper sizes / 4^2).
const SWEEP_SCALE: u32 = 2;

/// Compute calls a timed run makes at least, however long they take: with
/// five Figure 6 calls (20 cells) the tail rule always reaches p50.
const MIN_COMPUTES: usize = 5;

/// The workload's spec: one trial at [`SWEEP_SCALE`].
fn spec(kind: ArtifactKind, seed: u64) -> ExperimentSpec {
    ExperimentSpec::for_artifact(kind, SWEEP_SCALE, 1, seed)
}

/// A journal-free runner on `jobs` worker threads.
fn runner(jobs: usize) -> SweepRunner {
    let mut opts = RunnerOptions::new();
    opts.jobs = jobs;
    SweepRunner::new("perfbench", &Value::Null, opts)
        .expect("a runner without a journal cannot fail")
}

/// One compute call as the CLI makes it: compute, envelope, serialize.
struct Computed {
    /// The rendered artifact.
    pub out: ArtifactOutput,
    /// The runner's accounting, including per-cell wall times.
    pub summary: SweepSummary,
    /// The serialized JSON envelope.
    pub json: String,
}

/// Compute `spec`'s artifact on a runner of `jobs` workers.
fn compute_artifact(spec: &ExperimentSpec, jobs: usize) -> Computed {
    let mut runner = runner(jobs);
    let out = compute(spec, &ComputeOpts::default(), &mut runner);
    let summary = runner.finish();
    let doc = sfc_bench::results::envelope(spec.artifact.name(), spec, &summary, out.data.clone());
    let json = serde_json::to_string_pretty(&doc).expect("serialize artifact");
    Computed { out, summary, json }
}

impl Computed {
    /// The three byte streams `sfc-serve` and the CLI cache store for this
    /// artifact.
    fn cached(&self, spec: &ExperimentSpec) -> CachedArtifact {
        let args = SweepArgs {
            scale: spec.scale,
            trials: spec.trials,
            seed: spec.seed,
            ..SweepArgs::default()
        };
        let banner = args.banner(spec.artifact.title());
        CachedArtifact {
            stdout_plain: format!("{banner}\n{}", self.out.body_plain),
            stdout_markdown: format!("{banner}\n{}", self.out.body_markdown),
            artifact_json: self.json.clone(),
        }
    }
}

/// sha256 over both text bodies and the serialized `data` section.
fn digest(out: &ArtifactOutput) -> String {
    let data = serde_json::to_string(&out.data).expect("serialize data");
    let mut bytes =
        Vec::with_capacity(out.body_plain.len() + out.body_markdown.len() + data.len() + 2);
    bytes.extend_from_slice(out.body_plain.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(out.body_markdown.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(data.as_bytes());
    sfc_core::sha256::sha256_hex(&bytes)
}

fn lower(a: &Value, b: &Value) -> bool {
    matches!((a["acd"]["mean"].as_f64(), b["acd"]["mean"].as_f64()), (Some(a), Some(b)) if a < b)
}

/// The paper's headline claim, on the artifact's `data` section: the
/// Hilbert/Hilbert pair communicates less than the Row-major/Row-major pair
/// in both the near and the far field (every distribution of Table I/II;
/// the mesh and torus of Figure 6, where the processor curve applies).
fn hilbert_beats_row_major(kind: ArtifactKind, data: &Value) -> bool {
    let (h, r) = (0, 3); // CurveKind::PAPER order: Hilbert, Z, Gray, Row-major
    let blocks = ["nfi", "ffi"];
    match kind {
        ArtifactKind::Table1 | ArtifactKind::Table2 => data.as_array().is_some_and(|grids| {
            !grids.is_empty()
                && grids.iter().all(|g| {
                    blocks
                        .iter()
                        .all(|b| lower(&g[*b][h]["cells"][h], &g[*b][r]["cells"][r]))
                })
        }),
        ArtifactKind::Figure6 => blocks.iter().all(|b| {
            data[*b].as_array().is_some_and(|rows| {
                rows.iter()
                    .filter(|row| matches!(row["topology"].as_str(), Some("Mesh" | "Torus")))
                    .all(|row| lower(&row["series"][h], &row["series"][r]))
            })
        }),
        _ => false,
    }
}

/// Whether a compute call's output is correct: every cell completed, the
/// digest equals the reference, and the headline claim holds.
fn verify(kind: ArtifactKind, c: &Computed, reference_digest: &str) -> bool {
    c.summary.complete()
        && digest(&c.out) == reference_digest
        && hilbert_beats_row_major(kind, &c.out.data)
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// Counts made at the layer boundaries of a replay. Every one is a pure
/// function of the spec, so two replays of one seed agree exactly.
#[derive(Default)]
struct Counts {
    particles: AtomicU64,
    machine_builds: AtomicU64,
    oracle_bytes: AtomicU64,
    oracle_pairs: AtomicU64,
    dense_builds: AtomicU64,
    fallbacks: AtomicU64,
    dense_bytes: AtomicU64,
    tree_entries: AtomicU64,
    nfi_calls: AtomicU64,
    nfi_comms: AtomicU64,
    ffi_calls: AtomicU64,
    ffi_interp: AtomicU64,
    ffi_anterp: AtomicU64,
    ffi_ilist: AtomicU64,
    cell_invocations: AtomicU64,
}

fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// One trial's particle set, shared by the trial's cells as in the sweep
/// drivers, with the kernel calls made against it.
#[derive(Default)]
struct TrialSet {
    particles: OnceLock<Vec<Point2>>,
    nfi_calls: AtomicU64,
    ffi_calls: AtomicU64,
}

/// The replay's context: where spans go and what they are counted in.
struct Replay<'a> {
    t: &'a Tracer,
    run: u64,
    counts: Counts,
}

impl Replay<'_> {
    fn particles<'s>(
        &self,
        cell: SpanId,
        set: &'s TrialSet,
        sample: impl FnOnce() -> Vec<Point2>,
    ) -> &'s [Point2] {
        self.t.span("particles", Some(cell), self.run, |_| {
            set.particles.get_or_init(|| {
                let p = sample();
                add(&self.counts.particles, p.len() as u64);
                p
            })
        })
    }

    fn assignment(
        &self,
        cell: SpanId,
        particles: &[Point2],
        spec: &ExperimentSpec,
        curve: sfc_curves::CurveKind,
    ) -> Assignment {
        let asg = self.t.span("assignment", Some(cell), self.run, |_| {
            Assignment::with_dense_grid(particles, spec.grid_order, curve, spec.processors[0], true)
        });
        if asg.has_dense_grid() {
            add(&self.counts.dense_builds, 1);
        } else {
            add(&self.counts.fallbacks, 1);
        }
        add(&self.counts.dense_bytes, asg.dense_grid_bytes() as u64);
        asg
    }

    fn tree(&self, cell: SpanId, asg: &Assignment) -> OwnerTree {
        let tree = self
            .t
            .span("ffi.tree", Some(cell), self.run, |_| OwnerTree::build(asg));
        let entries: usize = (0..tree.num_levels() as u32)
            .map(|l| tree.level_len(l))
            .sum();
        add(&self.counts.tree_entries, entries as u64);
        tree
    }

    fn machine(
        &self,
        parent: SpanId,
        topo: TopologyKind,
        procs: u64,
        curve: sfc_curves::CurveKind,
    ) -> Machine {
        let m = self.t.span("machine", Some(parent), self.run, |_| {
            Machine::new(topo, procs, curve)
        });
        add(&self.counts.machine_builds, 1);
        if m.has_oracle() {
            add(&self.counts.oracle_pairs, procs * procs);
            add(&self.counts.oracle_bytes, procs * procs * 2);
        }
        m
    }

    fn nfi(
        &self,
        cell: SpanId,
        asg: &Assignment,
        m: &Machine,
        spec: &ExperimentSpec,
        set: &TrialSet,
    ) -> f64 {
        let r = self.t.span("nfi", Some(cell), self.run, |_| {
            nfi_acd(asg, m, spec.radii[0], spec.norm)
        });
        let r = r.unwrap_or_else(|e| panic!("nfi_acd: {e}"));
        add(&self.counts.nfi_calls, 1);
        add(&self.counts.nfi_comms, r.num_comms);
        add(&set.nfi_calls, 1);
        r.acd()
    }

    fn ffi(
        &self,
        cell: SpanId,
        asg: &Assignment,
        m: &Machine,
        tree: &OwnerTree,
        set: &TrialSet,
    ) -> f64 {
        let r = self.t.span("ffi", Some(cell), self.run, |_| {
            ffi_acd_with_tree(asg, m, tree)
        });
        let r = r.unwrap_or_else(|e| panic!("ffi_acd: {e}"));
        add(&self.counts.ffi_calls, 1);
        add(&self.counts.ffi_interp, r.interp_comms);
        add(&self.counts.ffi_anterp, r.anterp_comms);
        add(&self.counts.ffi_ilist, r.ilist_comms);
        add(&set.ffi_calls, 1);
        r.acd()
    }
}

/// What one replay produced.
pub struct ReplayOut {
    /// The `data` section rebuilt from the replayed kernel values.
    pub data: Value,
    /// The replay runner's accounting.
    pub summary: SweepSummary,
    /// Layer-boundary counts, including the computed-bytes terms.
    pub counts: BTreeMap<&'static str, u64>,
}

/// Replay `spec`'s sweep cell by cell, in the order `tables.rs` /
/// `figures.rs` call the layers, with a span around every call (a no-op
/// when `t` is disabled). Supports Table I/II and Figure 6.
pub fn replay(spec: &ExperimentSpec, t: &Tracer, run: u64, jobs: usize) -> ReplayOut {
    let ctx = Replay {
        t,
        run,
        counts: Counts::default(),
    };
    let mut runner = runner(jobs);
    let sets: Vec<Vec<TrialSet>> = spec
        .distributions
        .iter()
        .map(|_| (0..spec.trials).map(|_| TrialSet::default()).collect())
        .collect();
    let data = t.span("compute", None, run, |root| match spec.artifact {
        ArtifactKind::Table1 | ArtifactKind::Table2 => {
            replay_tables(spec, &ctx, root, &sets, &mut runner)
        }
        ArtifactKind::Figure6 => replay_topologies(spec, &ctx, root, &sets[0], &mut runner),
        other => panic!("no replay for artifact {other}"),
    });
    let summary = runner.finish();
    let c = &ctx.counts;
    let (mut scanned, mut ilist_entries, mut candidates) = (0u64, 0u64, 0u64);
    for set in sets.iter().flatten() {
        if let Some(p) = set.particles.get() {
            scanned += get(&set.nfi_calls)
                * nfi_cells_scanned(p, spec.grid_order, spec.radii[0], spec.norm);
            let (e, cand) = ffi_geometry(p, spec.grid_order);
            ilist_entries += get(&set.ffi_calls) * e;
            candidates += get(&set.ffi_calls) * cand;
        }
    }
    let counts = BTreeMap::from([
        ("particles", get(&c.particles)),
        ("machine_builds", get(&c.machine_builds)),
        ("oracle_bytes", get(&c.oracle_bytes)),
        ("oracle_pairs", get(&c.oracle_pairs)),
        ("dense_builds", get(&c.dense_builds)),
        ("fallbacks", get(&c.fallbacks)),
        ("dense_bytes", get(&c.dense_bytes)),
        ("tree_entries", get(&c.tree_entries)),
        ("nfi_calls", get(&c.nfi_calls)),
        ("nfi_comms", get(&c.nfi_comms)),
        ("nfi_cells_scanned", scanned),
        ("ffi_calls", get(&c.ffi_calls)),
        ("ffi_interp", get(&c.ffi_interp)),
        ("ffi_anterp", get(&c.ffi_anterp)),
        ("ffi_ilist", get(&c.ffi_ilist)),
        ("ffi_ilist_entries", ilist_entries),
        ("ffi_candidates", candidates),
        ("cell_invocations", get(&c.cell_invocations)),
    ]);
    ReplayOut {
        data,
        summary,
        counts,
    }
}

/// Collect per-(row, column) samples into the drivers' `Option<Stats>`.
fn stats_of(samples: &[f64]) -> Option<Stats> {
    Stats::try_from_samples(samples).ok()
}

fn replay_tables(
    spec: &ExperimentSpec,
    ctx: &Replay<'_>,
    root: SpanId,
    sets: &[Vec<TrialSet>],
    runner: &mut SweepRunner,
) -> Value {
    let mut grids = Vec::new();
    for (&dist, trial_sets) in spec.distributions.iter().zip(sets) {
        let workload = spec.workload(dist);
        // As in `tables.rs`: the four processor-order machines are built
        // once per distribution, serially, before any cell starts.
        let machines: Vec<Machine> = spec
            .effective_processor_curves()
            .iter()
            .map(|&c| ctx.machine(root, spec.topologies[0], spec.processors[0], c))
            .collect();
        let mut cells = Vec::new();
        for (t, set) in trial_sets.iter().enumerate() {
            for &curve in &spec.particle_curves {
                let name = format!("{}/t{t}/{}", dist.kind, curve.short_name());
                let (workload, machines) = (&workload, &machines);
                cells.push(BatchCell::new(name, move || {
                    add(&ctx.counts.cell_invocations, 1);
                    ctx.t.span("cell", Some(root), ctx.run, |cell| {
                        let particles = ctx.particles(cell, set, || workload.particles(t as u64));
                        let asg = ctx.assignment(cell, particles, spec, curve);
                        let tree = ctx.tree(cell, &asg);
                        let mut values: Vec<f64> = machines
                            .iter()
                            .map(|m| ctx.nfi(cell, &asg, m, spec, set))
                            .collect();
                        values.extend(machines.iter().map(|m| ctx.ffi(cell, &asg, m, &tree, set)));
                        values
                    })
                }));
            }
        }
        let mut nfi = vec![vec![Vec::new(); 4]; 4];
        let mut ffi = vec![vec![Vec::new(); 4]; 4];
        for (i, result) in runner.run_cells(cells).iter().enumerate() {
            if let Some(v) = result.values() {
                for ri in 0..4 {
                    nfi[ri][i % 4].push(v[ri]);
                    ffi[ri][i % 4].push(v[4 + ri]);
                }
            }
        }
        let grid = |s: &Vec<Vec<Vec<f64>>>| {
            std::array::from_fn(|r| std::array::from_fn(|p| stats_of(&s[r][p])))
        };
        grids.push(CurvePairGrid {
            distribution: dist.kind,
            nfi: grid(&nfi),
            ffi: grid(&ffi),
        });
    }
    ctx.t.span("artifact", Some(root), ctx.run, |_| {
        let rendered: Vec<String> = grids
            .iter()
            .map(|g| render_grid(g, Interaction::NearField))
            .flat_map(|t| [t.render(), t.render_markdown()])
            .collect();
        let data = sfc_bench::results::grid_data(&grids);
        serialize_envelope(spec, &data, &rendered);
        data
    })
}

fn replay_topologies(
    spec: &ExperimentSpec,
    ctx: &Replay<'_>,
    root: SpanId,
    sets: &[TrialSet],
    runner: &mut SweepRunner,
) -> Value {
    let workload = spec.workload(spec.distributions[0]);
    let nt = spec.topologies.len();
    let mut cells = Vec::new();
    for (t, set) in sets.iter().enumerate() {
        for &curve in &spec.particle_curves {
            let workload = &workload;
            cells.push(BatchCell::new(
                format!("t{t}/{}", curve.short_name()),
                move || {
                    add(&ctx.counts.cell_invocations, 1);
                    ctx.t.span("cell", Some(root), ctx.run, |cell| {
                        let particles = ctx.particles(cell, set, || workload.particles(t as u64));
                        let asg = ctx.assignment(cell, particles, spec, curve);
                        let tree = ctx.tree(cell, &asg);
                        // As in `figures.rs`: one machine per topology, built
                        // inside the cell.
                        let mut values = Vec::with_capacity(2 * nt);
                        for &topo in &spec.topologies {
                            let m = ctx.machine(cell, topo, spec.processors[0], curve);
                            values.push(ctx.nfi(cell, &asg, &m, spec, set));
                            values.push(ctx.ffi(cell, &asg, &m, &tree, set));
                        }
                        values
                    })
                },
            ));
        }
    }
    let mut nfi = vec![vec![Vec::new(); 4]; nt];
    let mut ffi = vec![vec![Vec::new(); 4]; nt];
    for (i, result) in runner.run_cells(cells).iter().enumerate() {
        if let Some(v) = result.values() {
            for ti in 0..nt {
                nfi[ti][i % 4].push(v[2 * ti]);
                ffi[ti][i % 4].push(v[2 * ti + 1]);
            }
        }
    }
    let collect = |d: Vec<Vec<Vec<f64>>>| {
        d.iter()
            .map(|row| row.iter().map(|s| stats_of(s)).collect())
            .collect()
    };
    let sweep = TopologySweep {
        topologies: spec.topologies.clone(),
        nfi: collect(nfi),
        ffi: collect(ffi),
    };
    ctx.t.span("artifact", Some(root), ctx.run, |_| {
        let rendered: Vec<String> = [true, false]
            .iter()
            .map(|&nf| render_topology(&sweep, nf))
            .flat_map(|t| [t.render(), t.render_markdown()])
            .collect();
        let data = sfc_bench::results::topology_data(&sweep);
        serialize_envelope(spec, &data, &rendered);
        data
    })
}

/// Envelope and serialize, as the CLI does after `compute`.
fn serialize_envelope(spec: &ExperimentSpec, data: &Value, rendered: &[String]) {
    let doc = sfc_bench::results::envelope(
        spec.artifact.name(),
        spec,
        &SweepSummary::default(),
        data.clone(),
    );
    let json = serde_json::to_string_pretty(&doc).expect("serialize artifact");
    std::hint::black_box((json, rendered));
}

/// Rank-table slots one `nfi_acd` call scans over `particles`: the
/// radius-`r` neighbourhood of each particle clipped to the grid, minus
/// the particle's own cell.
fn nfi_cells_scanned(particles: &[Point2], order: u32, radius: u32, norm: Norm) -> u64 {
    let side = 1i64 << order;
    let r = radius as i64;
    let mut total = 0u64;
    for p in particles {
        let (x, y) = (p.x as i64, p.y as i64);
        for dy in -r..=r {
            if !(0..side).contains(&(y + dy)) {
                continue;
            }
            let w = match norm {
                Norm::Chebyshev => r,
                Norm::Manhattan => r - dy.abs(),
            };
            let (lo, hi) = ((x - w).max(0), (x + w).min(side - 1));
            if lo <= hi {
                total += (hi - lo + 1) as u64 - u64::from(dy == 0);
            }
        }
    }
    total
}

/// For one particle set: the occupied cells an `ffi_acd_with_tree` call
/// walks for interaction lists (levels `2..=k`), and the interaction-list
/// candidates it probes for them.
fn ffi_geometry(particles: &[Point2], order: u32) -> (u64, u64) {
    let mut codes: Vec<u64> = particles.iter().map(|p| morton::encode(p.x, p.y)).collect();
    codes.sort_unstable();
    codes.dedup();
    let (mut entries, mut candidates) = (0u64, 0u64);
    for level in (2..=order).rev() {
        entries += codes.len() as u64;
        candidates += codes
            .iter()
            .map(|&c| interaction_list(Cell::from_code(level, c)).len() as u64)
            .sum::<u64>();
        codes.iter_mut().for_each(|c| *c >>= 2);
        codes.dedup();
    }
    (entries, candidates)
}

/// Per-layer metrics of the kernel layers from one or more replays: the
/// replays' spans, summed counts and runner summaries.
pub fn kernel_layers(
    spans: &[Span],
    counts: &BTreeMap<&'static str, u64>,
    summaries: &[SweepSummary],
    m: &mut Metrics,
) {
    let totals = trace::layer_totals(spans);
    let self_ms = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64 / 1e6;
    let share_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.share_ns) / 1e6;
    let n = |key: &str| counts.get(key).copied().unwrap_or(0) as f64;
    let per_us = |count: f64, layer: &str| count / (self_ms(layer) * 1e3);

    m.set("particles.sample_ms", self_ms("particles"));
    m.set("particles.count", n("particles"));
    m.set("assignment.build_ms", self_ms("assignment"));
    m.set("assignment.dense_builds", n("dense_builds"));
    m.set("assignment.dense_bytes", n("dense_bytes"));
    m.set("assignment.fallbacks", n("fallbacks"));
    m.set("ffi.tree_build_ms", self_ms("ffi.tree"));
    m.set("ffi.tree_entries", n("tree_entries"));

    // Oracle build, computed: per rank pair one u64 scratch-row write by
    // `fill_distance_row`, one u64 scratch gather, one u64 `node_of_rank`
    // read and one u16 table write = 26 B; one distance evaluation.
    let oracle_bytes = 26.0 * n("oracle_pairs");
    m.set("machine.build_ms", self_ms("machine"));
    m.set("machine.builds", n("machine_builds"));
    m.set("machine.oracle_bytes", n("oracle_bytes"));
    m.set("machine.bytes_computed", oracle_bytes);
    m.set("machine.ops_per_byte", n("oracle_pairs") / oracle_bytes);

    // NFI, computed: 4 B per rank-table slot scanned + 2 B oracle load per
    // comm; one accumulate per comm.
    let nfi_bytes = 4.0 * n("nfi_cells_scanned") + 2.0 * n("nfi_comms");
    m.set("nfi.ms", self_ms("nfi"));
    m.set("nfi.calls", n("nfi_calls"));
    m.set("nfi.comms", n("nfi_comms"));
    m.set("nfi.comms_per_us", per_us(n("nfi_comms"), "nfi"));
    m.set("nfi.bytes_computed", nfi_bytes);
    m.set("nfi.ops_per_byte", n("nfi_comms") / nfi_bytes);

    // FFI, computed: per interpolation message a 16 B level entry, a 12 B
    // parent-map probe and a 2 B oracle load; per interaction-list cell a
    // 16 B entry, 12 B per candidate probed and 2 B per comm.
    let ffi_comms = n("ffi_interp") + n("ffi_anterp") + n("ffi_ilist");
    let ffi_bytes = 30.0 * n("ffi_interp")
        + 16.0 * n("ffi_ilist_entries")
        + 12.0 * n("ffi_candidates")
        + 2.0 * n("ffi_ilist");
    m.set("ffi.ms", self_ms("ffi"));
    m.set("ffi.calls", n("ffi_calls"));
    m.set("ffi.interp_comms", n("ffi_interp"));
    m.set("ffi.anterp_comms", n("ffi_anterp"));
    m.set("ffi.ilist_comms", n("ffi_ilist"));
    m.set("ffi.comms_per_us", per_us(ffi_comms, "ffi"));
    m.set("ffi.bytes_computed", ffi_bytes);
    m.set("ffi.ops_per_byte", ffi_comms / ffi_bytes);

    let mut cell_ms: Vec<f64> = summaries
        .iter()
        .flat_map(|s| s.timings.iter().map(|(_, t)| t.wall_ms))
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    let computed: usize = summaries.iter().map(|s| s.computed).sum();
    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "compute")
        .map(Span::dur_ns)
        .sum();
    m.set("runner.cells", computed as f64);
    m.set(
        "runner.cell_p50_ms",
        crate::stats::percentile(&cell_ms, 50.0),
    );
    m.set("runner.cell_max_ms", cell_ms.last().copied().unwrap_or(0.0));
    m.set("runner.in_cell_unattributed_ms", self_ms("cell"));
    m.set(
        "runner.outside_cells_ms",
        (wall_ns - trace::covered_ns(spans, "cell")) as f64 / 1e6,
    );
    m.set("runner.retries", n("cell_invocations") - computed as f64);
    m.set("artifact.serialize_ms", self_ms("artifact"));
    m.set("trace.compute_wall_ms", wall_ns as f64 / 1e6);
    m.set(
        "trace.unattributed_ms",
        share_ms("compute") + share_ms("cell"),
    );
}

/// Print how the traced compute wall time splits over the layers, and
/// check that the wall shares plus the unattributed time add up to it.
pub fn decomposition(spans: &[Span]) -> bool {
    let totals = trace::layer_totals(spans);
    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "compute")
        .map(Span::dur_ns)
        .sum();
    let mut names: Vec<_> = totals.keys().copied().collect();
    names.sort();
    eprintln!("# traced compute wall split by layer (self = thread time, share = wall time):");
    let mut attributed = 0.0;
    for name in &names {
        let t = totals[name];
        eprintln!(
            "#   {name:<12} spans {:>5}  self {:>10.3} ms  share {:>10.3} ms",
            t.count,
            t.self_ns as f64 / 1e6,
            t.share_ns / 1e6
        );
        if !matches!(*name, "compute" | "cell") {
            attributed += t.share_ns;
        }
    }
    let unattributed = totals.get("compute").map_or(0.0, |t| t.share_ns)
        + totals.get("cell").map_or(0.0, |t| t.share_ns);
    let sum = attributed + unattributed;
    eprintln!(
        "#   layer shares {:.3} ms + unattributed {:.3} ms = {:.3} ms; compute wall {:.3} ms",
        attributed / 1e6,
        unattributed / 1e6,
        sum / 1e6,
        wall_ns as f64 / 1e6
    );
    (sum - wall_ns as f64).abs() <= 1e-6 * wall_ns as f64 + 1.0
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Set-up: the workload's reference artifact, computed on one worker.
/// Returns its digest; counts a failure if the reference itself is
/// incomplete or breaks the headline claim.
fn set_up(spec: &ExperimentSpec, out: &mut Outcome) -> String {
    let c = compute_artifact(spec, 1);
    out.check(
        c.summary.complete() && hilbert_beats_row_major(spec.artifact, &c.out.data),
        "reference artifact is complete and Hilbert/Hilbert beats Row-major/Row-major",
    );
    digest(&c.out)
}

/// Timed run: `compute` calls on `nproc` workers for `seconds`.
pub fn run_timed(kind: ArtifactKind, seed: u64, seconds: f64, repeats: usize) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(kind, seed);
    let mut setups = Vec::new();
    let mut reference: Option<String> = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let d = set_up(&spec, &mut out);
        setups.push(t.elapsed().as_secs_f64());
        let same = reference.as_ref().is_none_or(|r| *r == d);
        out.check(same, "set-ups agree on the reference digest");
        reference.get_or_insert(d);
    }
    let reference = reference.expect("at least one set-up");
    let jobs = crate::host::nproc();
    let (mut times, mut cells_per_s, mut cell_us) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while times.len() < MIN_COMPUTES || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let c = compute_artifact(&spec, jobs);
        let secs = t.elapsed().as_secs_f64();
        times.push(secs);
        cells_per_s.push(c.summary.computed as f64 / secs);
        out.check(
            verify(kind, &c, &reference),
            "artifact matches the reference digest",
        );
        cell_us.extend(c.summary.timings.iter().map(|(_, t)| t.wall_ms * 1e3));
    }
    cell_us.sort_by(f64::total_cmp);
    let (label, tail_us) = tail(&cell_us);
    let m = &mut out.metrics;
    m.set("sweep_s", median(&times));
    m.set("req_per_s", median(&cells_per_s));
    m.set("latency_p50_us", percentile(&cell_us, 50.0));
    m.set("latency_tail_us", tail_us);
    m.set("setup_s", median(&setups));
    out.notes.insert("computes", (times.len() as u64).to_json());
    out.notes
        .insert("latency_tail_percentile", Value::String(label));
    out.notes
        .insert("latency_samples", (cell_us.len() as u64).to_json());
    out
}

/// Traced run: one untraced `compute`, then the replay twice (untraced,
/// traced), which must reproduce its values and agree on every count.
pub fn run_traced(kind: ArtifactKind, seed: u64, work: &Path) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let spec = spec(kind, seed);
    let reference = set_up(&spec, &mut out);
    let jobs = crate::host::nproc();
    let t = Instant::now();
    let c = compute_artifact(&spec, jobs);
    let untraced_s = t.elapsed().as_secs_f64();
    out.check(
        verify(kind, &c, &reference),
        "artifact matches the reference digest",
    );

    let plain = replay(&spec, &Tracer::new(false), 1, jobs);
    let tracer = Tracer::new(true);
    let traced = replay(&spec, &tracer, 2, jobs);
    let mut spans = tracer.take();
    out.check(
        plain.data == c.out.data,
        "untraced replay reproduces the artifact's values",
    );
    out.check(
        traced.data == c.out.data,
        "traced replay reproduces the artifact's values",
    );
    out.check(
        plain.counts == traced.counts,
        "two replays of one seed give identical counts",
    );
    out.check(
        decomposition(&spans),
        "layer shares add up to the traced compute wall",
    );
    eprintln!("# replay counts: {:?}", traced.counts);

    let mut m = Metrics::default();
    kernel_layers(&spans, &traced.counts, &[traced.summary], &mut m);
    let traced_s = m
        .get("trace.compute_wall_ms")
        .expect("set by kernel_layers")
        / 1e3;
    m.set("trace.overhead_ratio", traced_s / untraced_s);
    let probe = crate::serve::probe_sweep_tiers(&spec, &c.cached(&spec), work, &mut m, &mut out);
    spans.extend(probe);
    out.metrics = m;
    (out, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_scanned_clip_at_the_grid_edge() {
        // One particle in the corner of a 4x4 grid, radius 1: a 2x2 block
        // minus itself.
        assert_eq!(
            nfi_cells_scanned(&[Point2::new(0, 0)], 2, 1, Norm::Chebyshev),
            3
        );
        // In the interior: the full 3x3 block minus itself.
        assert_eq!(
            nfi_cells_scanned(&[Point2::new(1, 1)], 2, 1, Norm::Chebyshev),
            8
        );
        assert_eq!(
            nfi_cells_scanned(&[Point2::new(1, 1)], 2, 1, Norm::Manhattan),
            4
        );
    }

    #[test]
    fn perturbed_artifact_fails_verification() {
        let spec = ExperimentSpec::table1(5, 1, 11);
        let c = compute_artifact(&spec, 1);
        let reference = digest(&c.out);
        assert!(verify(spec.artifact, &c, &reference));
        // One mean off by one ulp is enough to fail the digest.
        let mut bad = compute_artifact(&spec, 1);
        let text = serde_json::to_string(&bad.out.data).unwrap();
        let mean = bad.out.data[0]["nfi"][1]["cells"][2]["acd"]["mean"]
            .as_f64()
            .unwrap();
        let nudged = f64::from_bits(mean.to_bits() + 1);
        let text = text.replacen(&format!("{mean}"), &format!("{nudged}"), 1);
        bad.out.data = serde_json::from_str(&text).unwrap();
        assert!(!verify(spec.artifact, &bad, &reference));
    }

    #[test]
    fn replay_reproduces_the_artifact_and_its_counts() {
        for kind in [ArtifactKind::Table1, ArtifactKind::Figure6] {
            let spec = ExperimentSpec::for_artifact(kind, 5, 1, 3);
            let c = compute_artifact(&spec, 2);
            let plain = replay(&spec, &Tracer::new(false), 1, 2);
            let tracer = Tracer::new(true);
            let traced = replay(&spec, &tracer, 2, 2);
            assert_eq!(plain.data, c.out.data, "{kind}");
            assert_eq!(traced.data, c.out.data, "{kind}");
            assert_eq!(plain.counts, traced.counts, "{kind}");
            assert!(plain.counts["nfi_comms"] > 0 && plain.counts["ffi_ilist"] > 0);
            assert!(decomposition(&tracer.take()), "{kind}");
        }
    }
}
