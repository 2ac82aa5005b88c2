//! The canonical, hashable description of one experiment sweep.
//!
//! Every artifact the bench binaries regenerate — Tables I/II, Figures 5–7,
//! the Section VI-C parametric studies and the Section VIII extension
//! studies — is fully determined by a handful of axes: which curves, which
//! topologies, which input distributions, at what resolution and particle
//! count, over how many trials, from which seed. [`ExperimentSpec`] is one
//! serializable description of those axes that
//!
//! - every binary **parses its flags into** (the flag struct is now a
//!   constructor of specs),
//! - every sweep driver **reads its loops from** (the loops are views of the
//!   spec's axes), and
//! - the result cache and `sfc-serve` daemon **key artifacts by**, via a
//!   canonical JSON form hashed with SHA-256.
//!
//! ## Canonical form
//!
//! [`ExperimentSpec::canonical_json`] always emits every field, in one fixed
//! key order, with `-0.0` normalized to `0.0` — so the serialization of a
//! spec is a *function of its value*, never of how it was produced.
//! [`ExperimentSpec::from_json`] accepts fields in any order and fills
//! omitted fields with their defaults, so any JSON describing the same spec
//! re-canonicalizes to the same bytes and therefore the same
//! [`ExperimentSpec::canonical_hash`].

use crate::error::SfcError;
use crate::sha256::sha256_hex;
use serde_json::{json, Map, Value};
use sfc_curves::point::Norm;
use sfc_curves::CurveKind;
use sfc_particles::{Distribution, DistributionKind, Workload};
use sfc_topology::TopologyKind;

/// Which paper artifact a spec regenerates.
///
/// The artifact tag fixes the *interpretation* of the spec's axes (Table I
/// and Table II share every axis but render different interaction models;
/// the extension studies attach fixed 3-D side experiments) and names the
/// artifact in the JSON envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// Table I: near-field ACD over the 4×4 curve-pair grid.
    Table1,
    /// Table II: far-field ACD over the 4×4 curve-pair grid.
    Table2,
    /// Figure 5: ANNS vs spatial resolution.
    Figure5,
    /// Figure 6: ACD by network topology.
    Figure6,
    /// Figure 7: ACD vs processor count.
    Figure7,
    /// Section VI-C parametric studies (radius, input size, distribution).
    Parametric,
    /// Section VIII extension studies (congestion, 3-D, clustering, Moore).
    Extensions,
}

impl ArtifactKind {
    /// All artifacts, in the paper's order.
    pub const ALL: [ArtifactKind; 7] = [
        ArtifactKind::Table1,
        ArtifactKind::Table2,
        ArtifactKind::Figure5,
        ArtifactKind::Figure6,
        ArtifactKind::Figure7,
        ArtifactKind::Parametric,
        ArtifactKind::Extensions,
    ];

    /// Stable identifier used in serialized specs, cache metadata and the
    /// JSON envelope's `artifact` field.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Table1 => "table1",
            ArtifactKind::Table2 => "table2",
            ArtifactKind::Figure5 => "figure5",
            ArtifactKind::Figure6 => "figure6",
            ArtifactKind::Figure7 => "figure7",
            ArtifactKind::Parametric => "parametric",
            ArtifactKind::Extensions => "extensions",
        }
    }

    /// Parse the identifier (case-insensitive; accepts the binary names).
    pub fn parse(s: &str) -> Option<ArtifactKind> {
        match s.to_ascii_lowercase().as_str() {
            "table1" => Some(ArtifactKind::Table1),
            "table2" => Some(ArtifactKind::Table2),
            "figure5" | "fig5" => Some(ArtifactKind::Figure5),
            "figure6" | "fig6" => Some(ArtifactKind::Figure6),
            "figure7" | "fig7" => Some(ArtifactKind::Figure7),
            "parametric" => Some(ArtifactKind::Parametric),
            "extensions" => Some(ArtifactKind::Extensions),
            _ => None,
        }
    }

    /// Name of the sweep this artifact's cells belong to — the journal
    /// identity. Table I and II share the `tables` sweep: each cell computes
    /// both interaction models, so one journal serves both artifacts.
    pub fn sweep_name(self) -> &'static str {
        match self {
            ArtifactKind::Table1 | ArtifactKind::Table2 => "tables",
            ArtifactKind::Figure5 => "figure5",
            ArtifactKind::Figure6 => "figure6",
            ArtifactKind::Figure7 => "figure7",
            ArtifactKind::Parametric => "parametric",
            ArtifactKind::Extensions => "extensions",
        }
    }

    /// Human title used in the stdout banner line.
    pub fn title(self) -> &'static str {
        match self {
            ArtifactKind::Table1 => "Table I — NFI ACD, particle/processor SFC combinations",
            ArtifactKind::Table2 => "Table II — FFI ACD, particle/processor SFC combinations",
            ArtifactKind::Figure5 => "Figure 5 — ANNS vs spatial resolution",
            ArtifactKind::Figure6 => "Figure 6 — ACD by network topology",
            ArtifactKind::Figure7 => "Figure 7 — ACD vs processor count (torus)",
            ArtifactKind::Parametric => "Section VI-C — parametric studies",
            ArtifactKind::Extensions => "Extension studies (paper Section VIII future work)",
        }
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One canonical, serializable, hashable description of a sweep: the full
/// cross-product of curves × topologies × distributions × resolutions ×
/// radii × trials an artifact is assembled from.
///
/// Axes an artifact does not sweep are empty (lists) or zero (scalars); the
/// [`ArtifactKind`] determines which axes are read. All values are stored
/// post-`--scale`: a spec records the *actual* grid order, particle count
/// and processor counts measured, so two invocations describing the same
/// computation hash identically regardless of how their flags spelled it.
/// `scale` itself is retained because the rendered artifact's banner and
/// config envelope report it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Which artifact these axes regenerate.
    pub artifact: ArtifactKind,
    /// Scale-down exponent the sizes were derived with (reported in the
    /// artifact's config envelope; the explicit sizes below are what is
    /// actually computed).
    pub scale: u32,
    /// Independent trials to average.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Grid order of the workload (side `2^k`); 0 when the artifact samples
    /// no particles (Figure 5).
    pub grid_order: u32,
    /// Particle count of the workload; 0 when no particles are sampled.
    pub particles: u64,
    /// Particle-order curves, in column order.
    pub particle_curves: Vec<CurveKind>,
    /// Processor-order curves; empty means "tied to the particle curve"
    /// (the figure experiments use the same SFC for both orderings).
    pub processor_curves: Vec<CurveKind>,
    /// Topologies measured.
    pub topologies: Vec<TopologyKind>,
    /// Input distributions measured (kind + shape parameter).
    pub distributions: Vec<Distribution>,
    /// Grid orders of the ANNS resolution sweep (Figure 5 only).
    pub orders: Vec<u32>,
    /// Processor counts measured.
    pub processors: Vec<u64>,
    /// Particle counts of the input-size sweep (parametric only).
    pub particle_counts: Vec<u64>,
    /// Neighborhood radii measured.
    pub radii: Vec<u32>,
    /// Neighborhood norm.
    pub norm: Norm,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            artifact: ArtifactKind::Table1,
            scale: 0,
            trials: 0,
            seed: 0,
            grid_order: 0,
            particles: 0,
            particle_curves: Vec::new(),
            processor_curves: Vec::new(),
            topologies: Vec::new(),
            distributions: Vec::new(),
            orders: Vec::new(),
            processors: Vec::new(),
            particle_counts: Vec::new(),
            radii: Vec::new(),
            norm: Norm::Chebyshev,
        }
    }
}

/// The scaled Table I/II processor count: 65,536 at paper size, shrunk with
/// the workload, floored at 4 (the smallest power-of-four machine).
fn scaled_procs(scale: u32) -> u64 {
    (65_536u64 >> (2 * scale)).max(4)
}

impl ExperimentSpec {
    /// The JSON keys naming sweep axes — everything beyond
    /// `artifact`/`scale`/`trials`/`seed`. A request object carrying any of
    /// these spells out a full spec and must go through
    /// [`ExperimentSpec::from_json`]; one carrying none of them is the
    /// shorthand whose axes come from [`ExperimentSpec::for_artifact`].
    pub const AXIS_KEYS: [&'static str; 11] = [
        "grid_order",
        "particles",
        "particle_curves",
        "processor_curves",
        "topologies",
        "distributions",
        "orders",
        "processors",
        "particle_counts",
        "radii",
        "norm",
    ];

    /// Whether `obj` names any axis field (see
    /// [`ExperimentSpec::AXIS_KEYS`]), i.e. spells out a full spec rather
    /// than the artifact/scale/trials/seed shorthand.
    pub fn json_names_axes(obj: &Map) -> bool {
        Self::AXIS_KEYS.iter().any(|k| obj.get(k).is_some())
    }

    /// Build the spec for `artifact` at the given scale/trials/seed — the
    /// single entry point the binaries and the daemon construct specs
    /// through.
    pub fn for_artifact(artifact: ArtifactKind, scale: u32, trials: u64, seed: u64) -> Self {
        match artifact {
            ArtifactKind::Table1 => Self::table1(scale, trials, seed),
            ArtifactKind::Table2 => Self::table2(scale, trials, seed),
            ArtifactKind::Figure5 => Self::figure5(scale, trials, seed),
            ArtifactKind::Figure6 => Self::figure6(scale, trials, seed),
            ArtifactKind::Figure7 => Self::figure7(scale, trials, seed),
            ArtifactKind::Parametric => Self::parametric(scale, trials, seed),
            ArtifactKind::Extensions => Self::extensions(scale, trials, seed),
        }
    }

    /// Table I: the 4×4 particle/processor curve grid under each of the
    /// paper's three distributions, radius-1 Chebyshev near field, torus.
    pub fn table1(scale: u32, trials: u64, seed: u64) -> Self {
        let workload = Workload::tables_1_2(DistributionKind::Uniform, seed).scaled_down(scale);
        ExperimentSpec {
            artifact: ArtifactKind::Table1,
            scale,
            trials,
            seed,
            grid_order: workload.grid_order,
            particles: workload.n as u64,
            particle_curves: CurveKind::PAPER.to_vec(),
            processor_curves: CurveKind::PAPER.to_vec(),
            topologies: vec![TopologyKind::Torus],
            distributions: DistributionKind::ALL
                .iter()
                .map(|k| k.default_params())
                .collect(),
            processors: vec![scaled_procs(scale)],
            radii: vec![1],
            norm: Norm::Chebyshev,
            ..ExperimentSpec::default()
        }
    }

    /// Table II: identical axes to [`ExperimentSpec::table1`] (each sweep
    /// cell computes both interaction models); renders the far field.
    pub fn table2(scale: u32, trials: u64, seed: u64) -> Self {
        ExperimentSpec {
            artifact: ArtifactKind::Table2,
            ..Self::table1(scale, trials, seed)
        }
    }

    /// Figure 5: average nearest-neighbor stretch at radii 1 and 6 as the
    /// resolution grows 2×2 → 512×512. Exhaustive over grid cells — no
    /// sampling, so no workload axes; trials/seed are carried only for the
    /// artifact's config envelope.
    pub fn figure5(scale: u32, trials: u64, seed: u64) -> Self {
        ExperimentSpec {
            artifact: ArtifactKind::Figure5,
            scale,
            trials,
            seed,
            particle_curves: CurveKind::PAPER.to_vec(),
            orders: (1..=9).collect(),
            radii: vec![1, 6],
            norm: Norm::Manhattan,
            ..ExperimentSpec::default()
        }
    }

    /// Figure 6: 1,000,000 uniform particles on a 4096×4096 resolution
    /// (scaled), radius-4 near field, the same SFC for both orderings,
    /// across all six topologies.
    pub fn figure6(scale: u32, trials: u64, seed: u64) -> Self {
        let workload = Workload::figure6(seed).scaled_down(scale);
        ExperimentSpec {
            artifact: ArtifactKind::Figure6,
            scale,
            trials,
            seed,
            grid_order: workload.grid_order,
            particles: workload.n as u64,
            particle_curves: CurveKind::PAPER.to_vec(),
            topologies: TopologyKind::PAPER.to_vec(),
            distributions: vec![Distribution::uniform()],
            processors: vec![scaled_procs(scale)],
            radii: vec![4],
            norm: Norm::Chebyshev,
            ..ExperimentSpec::default()
        }
    }

    /// Figure 7: the Figure 6 workload on a torus with the processor count
    /// swept over powers of four up to the scaled 65,536.
    pub fn figure7(scale: u32, trials: u64, seed: u64) -> Self {
        let workload = Workload::figure7(seed).scaled_down(scale);
        // Paper range: 256 .. 65,536 processors, shifted down with the
        // workload; at most five points, stopping at 16.
        let max_procs = (65_536u64 >> (2 * scale)).max(16);
        let mut processors = Vec::new();
        let mut p = max_procs;
        for _ in 0..5 {
            processors.push(p);
            if p <= 16 {
                break;
            }
            p >>= 2;
        }
        processors.reverse();
        ExperimentSpec {
            artifact: ArtifactKind::Figure7,
            scale,
            trials,
            seed,
            grid_order: workload.grid_order,
            particles: workload.n as u64,
            particle_curves: CurveKind::PAPER.to_vec(),
            topologies: vec![TopologyKind::Torus],
            distributions: vec![Distribution::uniform()],
            processors,
            radii: vec![1],
            norm: Norm::Chebyshev,
            ..ExperimentSpec::default()
        }
    }

    /// Section VI-C parametric studies: NFI ACD vs radius, ACD vs input
    /// size, and ACD per distribution, all on the scaled Table I torus with
    /// tied curves.
    pub fn parametric(scale: u32, trials: u64, seed: u64) -> Self {
        let workload = Workload::tables_1_2(DistributionKind::Uniform, seed).scaled_down(scale);
        // Input sizes around the (scaled) Table I workload: ×¼, ×½, ×1, ×2,
        // floored so the smallest scale still has a meaningful sweep, and
        // capped at what the sampler can place on the grid (which merges
        // the largest sizes on the smallest grids).
        let base_n = (250_000u64 >> (2 * scale)).max(64);
        let mut particle_counts: Vec<u64> = [base_n / 4, base_n / 2, base_n, base_n * 2]
            .map(|n| n.min(workload.capacity()))
            .to_vec();
        particle_counts.dedup();
        ExperimentSpec {
            artifact: ArtifactKind::Parametric,
            scale,
            trials,
            seed,
            grid_order: workload.grid_order,
            particles: workload.n as u64,
            particle_curves: CurveKind::PAPER.to_vec(),
            topologies: vec![TopologyKind::Torus],
            distributions: DistributionKind::ALL
                .iter()
                .map(|k| k.default_params())
                .collect(),
            processors: vec![scaled_procs(scale)],
            particle_counts,
            radii: vec![1, 2, 4, 6, 8],
            norm: Norm::Chebyshev,
            ..ExperimentSpec::default()
        }
    }

    /// Section VIII extension studies. The 2-D axes (congestion and
    /// closed-curve studies) run at `max(scale, 2)` — routing every
    /// near-field message is heavy. The fixed 3-D / clustering side
    /// experiments are part of the artifact family itself and are covered by
    /// the cache's kernel-version key rather than spec axes.
    pub fn extensions(scale: u32, trials: u64, seed: u64) -> Self {
        let eff = scale.max(2);
        let workload = Workload::tables_1_2(DistributionKind::Uniform, seed).scaled_down(eff);
        ExperimentSpec {
            artifact: ArtifactKind::Extensions,
            scale,
            trials,
            seed,
            grid_order: workload.grid_order,
            particles: workload.n as u64,
            particle_curves: CurveKind::PAPER.to_vec(),
            topologies: vec![TopologyKind::Torus],
            distributions: vec![Distribution::uniform()],
            processors: vec![scaled_procs(eff)],
            radii: vec![1],
            norm: Norm::Chebyshev,
            ..ExperimentSpec::default()
        }
    }

    /// The workload this spec samples particles from, under `dist`.
    pub fn workload(&self, dist: Distribution) -> Workload {
        Workload::new(self.grid_order, self.particles as usize, dist, self.seed)
    }

    /// The processor-order curves actually used: the explicit list, or the
    /// particle curves when the orderings are tied.
    pub fn effective_processor_curves(&self) -> &[CurveKind] {
        if self.processor_curves.is_empty() {
            &self.particle_curves
        } else {
            &self.processor_curves
        }
    }

    /// Check the spec before any work happens: the axes the artifact's
    /// driver indexes and its renderer labels, topologies of the 2-D model
    /// only, power-of-four processor counts, nonzero radii, and a samplable
    /// workload whose grid is wider than the first radius.
    pub fn validate(&self) -> Result<(), SfcError> {
        if self.trials == 0 {
            return Err(SfcError::NoTrials);
        }
        self.check_axes()?;
        let cube = |t: &&TopologyKind| matches!(t, TopologyKind::Mesh3d | TopologyKind::Torus3d);
        if let Some(&topology) = self.topologies.iter().find(cube) {
            return Err(SfcError::Topology3d { topology });
        }
        for &p in &self.processors {
            if !p.is_power_of_two() || !p.trailing_zeros().is_multiple_of(2) {
                return Err(SfcError::NonPowerOfFourProcessors { num_processors: p });
            }
        }
        if self.radii.contains(&0) {
            return Err(SfcError::ZeroRadius);
        }
        // Every distribution samples the same grid and particle count, so
        // one workload check covers them all; a spec that samples nothing
        // (Figure 5) has none to check.
        if let Some(&dist) = self.distributions.first() {
            let workload = self.workload(dist);
            workload.validate()?;
            let radius = self.radii.first().copied().unwrap_or(1);
            if u64::from(radius) >= workload.side() {
                return Err(SfcError::RadiusExceedsGrid {
                    radius,
                    side: workload.side(),
                });
            }
        }
        for &n in &self.particle_counts {
            Workload {
                n: n as usize,
                ..self.workload(Distribution::uniform())
            }
            .validate()?;
        }
        for &order in &self.orders {
            if order == 0 || order > crate::anns::MAX_STRETCH_ORDER {
                return Err(SfcError::OrderTooLarge {
                    order,
                    max_order: crate::anns::MAX_STRETCH_ORDER,
                });
            }
        }
        Ok(())
    }

    /// Reject axes the artifact's driver cannot run or its renderer cannot
    /// label: an empty axis the driver reads its first entry from, a
    /// topology list other than the torus for the studies that always
    /// measure one, a particle curve list other than the paper's four
    /// columns in order (the extensions label each row by its curve, so any
    /// list renders), and a processor curve list other than those columns
    /// for Tables I/II or other than empty (tied to the particle order)
    /// elsewhere.
    fn check_axes(&self) -> Result<(), SfcError> {
        use ArtifactKind::*;
        let artifact = self.artifact.name();
        let indexed: &[(&'static str, usize)] = match self.artifact {
            Table1 | Table2 => &[
                ("topologies", self.topologies.len()),
                ("processors", self.processors.len()),
                ("radii", self.radii.len()),
            ],
            Figure5 => &[],
            Figure7 => &[
                ("distributions", self.distributions.len()),
                ("topologies", self.topologies.len()),
                ("radii", self.radii.len()),
            ],
            Figure6 | Parametric | Extensions => &[
                ("distributions", self.distributions.len()),
                ("processors", self.processors.len()),
                ("radii", self.radii.len()),
            ],
        };
        if let Some(&(axis, _)) = indexed.iter().find(|(_, len)| *len == 0) {
            return Err(SfcError::EmptyAxis { artifact, axis });
        }
        if matches!(self.artifact, Parametric | Extensions)
            && self.topologies != [TopologyKind::Torus]
        {
            return Err(SfcError::UnsweptAxis {
                artifact,
                axis: "topologies",
                expected: "[Torus]",
            });
        }
        const PAPER_COLUMNS: &str = "[Hilbert, Z, Gray, RowMajor]";
        let unlabelled = |axis, expected| SfcError::UnlabelledCurves {
            artifact,
            axis,
            expected,
        };
        if self.artifact != Extensions && self.particle_curves != CurveKind::PAPER {
            return Err(unlabelled("particle_curves", PAPER_COLUMNS));
        }
        match self.artifact {
            Table1 | Table2 if self.effective_processor_curves() != CurveKind::PAPER => {
                Err(unlabelled("processor_curves", PAPER_COLUMNS))
            }
            Table1 | Table2 => Ok(()),
            _ if !self.processor_curves.is_empty() => Err(unlabelled(
                "processor_curves",
                "empty (the processor order is tied to the particle order)",
            )),
            _ => Ok(()),
        }
    }

    /// The canonical JSON form: every field present, fixed key order,
    /// `-0.0` normalized to `0.0`. Hash input for
    /// [`ExperimentSpec::canonical_hash`].
    pub fn canonical_json(&self) -> Value {
        let dists: Vec<Value> = self
            .distributions
            .iter()
            .map(|d| {
                // Normalize the sign of a zero shape so the canonical bytes
                // are a function of the numeric value.
                let shape = if d.shape == 0.0 { 0.0 } else { d.shape };
                json!({ "kind": d.kind.name(), "shape": shape })
            })
            .collect();
        json!({
            "artifact": self.artifact.name(),
            "scale": self.scale,
            "trials": self.trials,
            "seed": self.seed,
            "grid_order": self.grid_order,
            "particles": self.particles,
            "particle_curves": self.particle_curves.iter().map(|c| c.short_name()).collect::<Vec<_>>(),
            "processor_curves": self.processor_curves.iter().map(|c| c.short_name()).collect::<Vec<_>>(),
            "topologies": self.topologies.iter().map(|t| t.name()).collect::<Vec<_>>(),
            "distributions": dists,
            "orders": self.orders,
            "processors": self.processors,
            "particle_counts": self.particle_counts,
            "radii": self.radii,
            "norm": self.norm.name(),
        })
    }

    /// The canonical serialization: compact JSON of
    /// [`ExperimentSpec::canonical_json`].
    pub fn canonical_string(&self) -> String {
        serde_json::to_string(&self.canonical_json()).expect("canonical spec serializes")
    }

    /// SHA-256 of the canonical serialization — the spec's content address.
    /// Stable across field order, default omission and `-0.0` in the inputs
    /// it was parsed from (see [`ExperimentSpec::from_json`]).
    pub fn canonical_hash(&self) -> String {
        sha256_hex(self.canonical_string().as_bytes())
    }

    /// Parse a spec from JSON text. See [`ExperimentSpec::from_json`].
    pub fn from_json_str(text: &str) -> Result<ExperimentSpec, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        Self::from_json(&value)
    }

    /// Parse a spec from a JSON object. Fields may appear in any order;
    /// omitted fields take their [`Default`] values (so a minimal request
    /// like `{"artifact": "figure5", "orders": [1,2,3], ...}` is valid), and
    /// re-canonicalizing yields identical bytes and hash.
    pub fn from_json(value: &Value) -> Result<ExperimentSpec, String> {
        let obj = value
            .as_object()
            .ok_or_else(|| "spec must be a JSON object".to_string())?;
        let mut spec = ExperimentSpec {
            artifact: parse_artifact(obj)?,
            ..ExperimentSpec::default()
        };
        if let Some(v) = obj.get("scale") {
            spec.scale = as_u64(v, "scale")? as u32;
        }
        if let Some(v) = obj.get("trials") {
            spec.trials = as_u64(v, "trials")?;
        }
        if let Some(v) = obj.get("seed") {
            spec.seed = as_u64(v, "seed")?;
        }
        if let Some(v) = obj.get("grid_order") {
            spec.grid_order = as_u64(v, "grid_order")? as u32;
        }
        if let Some(v) = obj.get("particles") {
            spec.particles = as_u64(v, "particles")?;
        }
        if let Some(v) = obj.get("particle_curves") {
            spec.particle_curves = parse_list(v, "particle_curves", |s| {
                CurveKind::parse(s).ok_or_else(|| format!("unknown curve `{s}`"))
            })?;
        }
        if let Some(v) = obj.get("processor_curves") {
            spec.processor_curves = parse_list(v, "processor_curves", |s| {
                CurveKind::parse(s).ok_or_else(|| format!("unknown curve `{s}`"))
            })?;
        }
        if let Some(v) = obj.get("topologies") {
            spec.topologies = parse_list(v, "topologies", |s| {
                TopologyKind::parse(s).ok_or_else(|| format!("unknown topology `{s}`"))
            })?;
        }
        if let Some(v) = obj.get("distributions") {
            spec.distributions = parse_distributions(v)?;
        }
        if let Some(v) = obj.get("orders") {
            spec.orders = parse_num_list(v, "orders")?
                .into_iter()
                .map(|n| n as u32)
                .collect();
        }
        if let Some(v) = obj.get("processors") {
            spec.processors = parse_num_list(v, "processors")?;
        }
        if let Some(v) = obj.get("particle_counts") {
            spec.particle_counts = parse_num_list(v, "particle_counts")?;
        }
        if let Some(v) = obj.get("radii") {
            spec.radii = parse_num_list(v, "radii")?
                .into_iter()
                .map(|n| n as u32)
                .collect();
        }
        if let Some(v) = obj.get("norm") {
            let s = v
                .as_str()
                .ok_or_else(|| "norm must be a string".to_string())?;
            spec.norm = Norm::parse(s).ok_or_else(|| format!("unknown norm `{s}`"))?;
        }
        Ok(spec)
    }
}

fn parse_artifact(obj: &Map) -> Result<ArtifactKind, String> {
    let v = obj
        .get("artifact")
        .ok_or_else(|| "spec is missing required field `artifact`".to_string())?;
    let s = v
        .as_str()
        .ok_or_else(|| "artifact must be a string".to_string())?;
    ArtifactKind::parse(s).ok_or_else(|| format!("unknown artifact `{s}`"))
}

fn as_u64(v: &Value, field: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{field} must be a non-negative integer"))
}

fn parse_list<T>(
    v: &Value,
    field: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.as_array()
        .ok_or_else(|| format!("{field} must be an array of strings"))?
        .iter()
        .map(|e| {
            let s = e
                .as_str()
                .ok_or_else(|| format!("{field} entries must be strings"))?;
            parse(s)
        })
        .collect()
}

fn parse_num_list(v: &Value, field: &str) -> Result<Vec<u64>, String> {
    v.as_array()
        .ok_or_else(|| format!("{field} must be an array of integers"))?
        .iter()
        .map(|e| as_u64(e, field))
        .collect()
}

fn parse_distributions(v: &Value) -> Result<Vec<Distribution>, String> {
    v.as_array()
        .ok_or_else(|| "distributions must be an array".to_string())?
        .iter()
        .map(|e| {
            // Accept both the canonical {"kind", "shape"} object and a bare
            // kind string (which takes the paper's default shape).
            if let Some(s) = e.as_str() {
                let kind = DistributionKind::parse(s)
                    .ok_or_else(|| format!("unknown distribution `{s}`"))?;
                return Ok(kind.default_params());
            }
            let obj = e
                .as_object()
                .ok_or_else(|| "distribution entries must be objects or strings".to_string())?;
            let kind_str = obj
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| "distribution entries need a string `kind`".to_string())?;
            let kind = DistributionKind::parse(kind_str)
                .ok_or_else(|| format!("unknown distribution `{kind_str}`"))?;
            let shape = match obj.get("shape") {
                Some(s) => s
                    .as_f64()
                    .ok_or_else(|| "distribution shape must be a number".to_string())?,
                None => kind.default_params().shape,
            };
            Ok(Distribution { kind, shape })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_particles::WorkloadError;

    #[test]
    fn constructors_match_legacy_scaling_math() {
        let spec = ExperimentSpec::table1(4, 2, 99);
        assert_eq!(spec.grid_order, 6); // 1024 >> 4 = 64 per side
        assert_eq!(spec.particles, 250_000 >> 8);
        assert_eq!(spec.processors, vec![256]);
        assert_eq!(spec.distributions.len(), 3);
        assert_eq!(spec.radii, vec![1]);

        let fig7 = ExperimentSpec::figure7(5, 1, 3);
        assert_eq!(fig7.processors, vec![16, 64]);
        let fig7_full = ExperimentSpec::figure7(0, 1, 3);
        assert_eq!(fig7_full.processors, vec![256, 1024, 4096, 16_384, 65_536]);

        let ext = ExperimentSpec::extensions(0, 1, 3);
        assert_eq!(ext.grid_order, 8); // clamped to scale 2
        assert_eq!(ext.processors, vec![4096]);
        let ext5 = ExperimentSpec::extensions(5, 1, 3);
        assert_eq!(ext5.grid_order, 5);
    }

    #[test]
    fn canonical_json_has_fixed_key_order() {
        let spec = ExperimentSpec::table1(4, 1, 7);
        let canon = spec.canonical_json();
        let keys: Vec<&str> = canon
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            vec![
                "artifact",
                "scale",
                "trials",
                "seed",
                "grid_order",
                "particles",
                "particle_curves",
                "processor_curves",
                "topologies",
                "distributions",
                "orders",
                "processors",
                "particle_counts",
                "radii",
                "norm",
            ]
        );
    }

    #[test]
    fn round_trip_preserves_value_and_hash() {
        for artifact in ArtifactKind::ALL {
            let spec = ExperimentSpec::for_artifact(artifact, 4, 2, 42);
            let back = ExperimentSpec::from_json_str(&spec.canonical_string()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.canonical_hash(), spec.canonical_hash());
        }
    }

    #[test]
    fn field_order_does_not_change_the_hash() {
        let spec = ExperimentSpec::figure6(4, 2, 42);
        // Rebuild the JSON with keys in reverse insertion order.
        let canon = spec.canonical_json();
        let obj = canon.as_object().unwrap();
        let entries: Vec<(String, Value)> =
            obj.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let mut reversed = Map::new();
        for (k, v) in entries.into_iter().rev() {
            reversed.insert(k, v);
        }
        let back = ExperimentSpec::from_json(&Value::Object(reversed)).unwrap();
        assert_eq!(back.canonical_hash(), spec.canonical_hash());
    }

    #[test]
    fn negative_zero_shape_hashes_like_positive_zero() {
        let mut a = ExperimentSpec::figure6(4, 1, 1);
        a.distributions = vec![Distribution::uniform()]; // shape 0.0
        let mut b = a.clone();
        b.distributions[0].shape = -0.0;
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        // And the canonical bytes themselves are sign-free.
        assert!(!b.canonical_string().contains("-0"));
    }

    #[test]
    fn omitted_default_fields_hash_identically() {
        let full = ExperimentSpec::figure5(2, 3, 5);
        let minimal = serde_json::json!({
            "artifact": "figure5",
            "scale": 2,
            "trials": 3,
            "seed": 5,
            "particle_curves": vec!["Hilbert", "Z", "Gray", "RowMajor"],
            "orders": (1u64..=9).collect::<Vec<_>>(),
            "radii": vec![1u64, 6],
            "norm": "manhattan",
        });
        let parsed = ExperimentSpec::from_json(&minimal).unwrap();
        assert_eq!(parsed, full);
        assert_eq!(parsed.canonical_hash(), full.canonical_hash());
    }

    #[test]
    fn distinct_specs_hash_differently() {
        let a = ExperimentSpec::table1(4, 1, 7);
        let mut hashes = std::collections::HashSet::new();
        assert!(hashes.insert(a.canonical_hash()));
        assert!(hashes.insert(ExperimentSpec::table2(4, 1, 7).canonical_hash()));
        assert!(hashes.insert(ExperimentSpec::table1(5, 1, 7).canonical_hash()));
        assert!(hashes.insert(ExperimentSpec::table1(4, 2, 7).canonical_hash()));
        assert!(hashes.insert(ExperimentSpec::table1(4, 1, 8).canonical_hash()));
    }

    #[test]
    fn validate_checks_the_workload_and_radii() {
        let good = ExperimentSpec::table1(4, 1, 7);
        let side = 1u64 << good.grid_order;

        let mut bad = good.clone();
        bad.grid_order = 40;
        assert!(matches!(bad.validate(), Err(SfcError::Workload(_))));

        let mut bad = good.clone();
        bad.particles = side * side; // beyond the grid's capacity
        assert!(matches!(bad.validate(), Err(SfcError::Workload(_))));

        let mut bad = good.clone();
        bad.radii = vec![side as u32];
        assert_eq!(
            bad.validate(),
            Err(SfcError::RadiusExceedsGrid {
                radius: side as u32,
                side
            })
        );

        // A zero radius fails anywhere in the list, not only in first place.
        let mut bad = ExperimentSpec::parametric(5, 1, 7);
        assert_eq!(bad.validate(), Ok(()));
        bad.radii = vec![1, 2, 0];
        assert_eq!(bad.validate(), Err(SfcError::ZeroRadius));
        bad.radii = vec![0];
        assert_eq!(bad.validate(), Err(SfcError::ZeroRadius));
    }

    #[test]
    fn validate_flags_bad_axes() {
        assert_eq!(
            ExperimentSpec::table1(4, 1, 7).validate(),
            Ok(()),
            "stock spec must validate"
        );
        let mut bad = ExperimentSpec::table1(4, 0, 7);
        assert_eq!(bad.validate(), Err(SfcError::NoTrials));
        bad.trials = 1;
        bad.processors = vec![48];
        assert!(matches!(
            bad.validate(),
            Err(SfcError::NonPowerOfFourProcessors { num_processors: 48 })
        ));
        let mut bad_order = ExperimentSpec::figure5(0, 1, 7);
        bad_order.orders.push(40);
        assert!(matches!(
            bad_order.validate(),
            Err(SfcError::OrderTooLarge { order: 40, .. })
        ));

        // Every stock spec validates, at every scale.
        for artifact in ArtifactKind::ALL {
            for scale in 0..=9 {
                let spec = ExperimentSpec::for_artifact(artifact, scale, 1, 7);
                assert_eq!(spec.validate(), Ok(()), "{artifact} at scale {scale}");
            }
        }

        // A 3-D network anywhere in a sweep's topologies is a typed error,
        // not a panic in the machine build.
        for artifact in [
            ArtifactKind::Table1,
            ArtifactKind::Table2,
            ArtifactKind::Figure6,
            ArtifactKind::Figure7,
        ] {
            for topology in [TopologyKind::Mesh3d, TopologyKind::Torus3d] {
                let mut spec = ExperimentSpec::for_artifact(artifact, 5, 1, 7);
                spec.topologies.push(topology);
                assert_eq!(
                    spec.validate(),
                    Err(SfcError::Topology3d { topology }),
                    "{artifact} with {topology}"
                );
            }
        }

        // An empty axis a driver indexes is a typed error per artifact.
        for (artifact, axis) in [
            (ArtifactKind::Table1, "processors"),
            (ArtifactKind::Table2, "topologies"),
            (ArtifactKind::Table1, "radii"),
            (ArtifactKind::Figure6, "distributions"),
            (ArtifactKind::Figure6, "processors"),
            (ArtifactKind::Figure7, "topologies"),
            (ArtifactKind::Figure7, "radii"),
            (ArtifactKind::Parametric, "processors"),
            (ArtifactKind::Extensions, "distributions"),
        ] {
            let mut spec = ExperimentSpec::for_artifact(artifact, 4, 1, 7);
            match axis {
                "distributions" => spec.distributions.clear(),
                "topologies" => spec.topologies.clear(),
                "processors" => spec.processors.clear(),
                _ => spec.radii.clear(),
            }
            assert_eq!(
                spec.validate(),
                Err(SfcError::EmptyAxis {
                    artifact: artifact.name(),
                    axis
                }),
                "{artifact} without {axis}"
            );
        }

        // Curve lists the renderers cannot label.
        let two = vec![CurveKind::Hilbert, CurveKind::ZCurve];
        let swapped = vec![
            CurveKind::ZCurve,
            CurveKind::Hilbert,
            CurveKind::Gray,
            CurveKind::RowMajor,
        ];
        let unlabelled = |artifact: ArtifactKind, f: &dyn Fn(&mut ExperimentSpec)| {
            let mut spec = ExperimentSpec::for_artifact(artifact, 4, 1, 7);
            f(&mut spec);
            match spec.validate() {
                Err(SfcError::UnlabelledCurves { axis, .. }) => axis,
                other => panic!("{artifact}: unexpected {other:?}"),
            }
        };
        assert_eq!(
            unlabelled(ArtifactKind::Table1, &|s| s.particle_curves = two.clone()),
            "particle_curves"
        );
        assert_eq!(
            unlabelled(ArtifactKind::Table2, &|s| s.processor_curves = two.clone()),
            "processor_curves"
        );
        assert_eq!(
            unlabelled(ArtifactKind::Figure7, &|s| s.particle_curves =
                swapped.clone()),
            "particle_curves"
        );
        assert_eq!(
            unlabelled(ArtifactKind::Figure6, &|s| s.processor_curves = two.clone()),
            "processor_curves"
        );
        assert_eq!(
            unlabelled(ArtifactKind::Figure5, &|s| s.particle_curves = two.clone()),
            "particle_curves"
        );
        // The extensions label every row by its curve, so any list renders.
        let mut ext = ExperimentSpec::extensions(4, 1, 7);
        ext.particle_curves = two.clone();
        assert_eq!(ext.validate(), Ok(()));

        // The Section VI-C and extension studies always measure the torus.
        for artifact in [ArtifactKind::Parametric, ArtifactKind::Extensions] {
            for topologies in [
                vec![TopologyKind::Mesh],
                vec![TopologyKind::Torus, TopologyKind::Mesh],
            ] {
                let mut spec = ExperimentSpec::for_artifact(artifact, 4, 1, 7);
                spec.topologies = topologies;
                assert_eq!(
                    spec.validate(),
                    Err(SfcError::UnsweptAxis {
                        artifact: artifact.name(),
                        axis: "topologies",
                        expected: "[Torus]",
                    }),
                    "{artifact}"
                );
            }
        }

        // Input sizes must be samplable on the spec's grid.
        let mut sizes = ExperimentSpec::parametric(6, 1, 7); // 16x16 grid
        sizes.particle_counts = vec![16, 0];
        assert_eq!(
            sizes.validate(),
            Err(SfcError::Workload(WorkloadError::NoParticles))
        );
        sizes.particle_counts = vec![230, 231];
        assert_eq!(
            sizes.validate(),
            Err(SfcError::Workload(WorkloadError::TooManyParticles {
                n: 231,
                limit: 230,
                side: 16
            }))
        );
    }

    #[test]
    fn stock_input_sizes_fit_their_grid() {
        // Up to scale 6 the four sizes fit; past it the largest are capped
        // at the grid's capacity and merged.
        assert_eq!(
            ExperimentSpec::parametric(6, 1, 7).particle_counts,
            [16, 32, 64, 128]
        );
        assert_eq!(
            ExperimentSpec::parametric(7, 1, 7).particle_counts,
            [16, 32, 57]
        );
        assert_eq!(ExperimentSpec::parametric(8, 1, 7).particle_counts, [14]);
        assert_eq!(ExperimentSpec::parametric(9, 1, 7).particle_counts, [3]);
    }

    #[test]
    fn from_json_rejects_malformed_specs() {
        assert!(ExperimentSpec::from_json_str("not json").is_err());
        assert!(ExperimentSpec::from_json_str("[]").is_err());
        assert!(ExperimentSpec::from_json_str("{}").is_err());
        assert!(ExperimentSpec::from_json_str(r#"{"artifact": "table9"}"#).is_err());
        assert!(ExperimentSpec::from_json_str(r#"{"artifact": "table1", "scale": -1}"#).is_err());
        assert!(ExperimentSpec::from_json_str(
            r#"{"artifact": "table1", "particle_curves": ["klein"]}"#
        )
        .is_err());
    }

    #[test]
    fn bare_distribution_strings_take_default_shapes() {
        let spec = ExperimentSpec::from_json(&serde_json::json!({
            "artifact": "table1",
            "distributions": vec!["uniform", "normal", "exponential"],
        }))
        .unwrap();
        assert_eq!(
            spec.distributions,
            DistributionKind::ALL
                .iter()
                .map(|k| k.default_params())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn axis_keys_distinguish_full_specs_from_shorthand() {
        // Every canonical spec names axes; the shorthand never does.
        for artifact in ArtifactKind::ALL {
            let spec = ExperimentSpec::for_artifact(artifact, 4, 1, 7);
            let canon = spec.canonical_json();
            assert!(
                ExperimentSpec::json_names_axes(canon.as_object().unwrap()),
                "{artifact}: canonical form must name axes"
            );
        }
        let shorthand = serde_json::json!({
            "id": 1, "op": "run", "artifact": "table1",
            "scale": 4, "trials": 1, "seed": 7, "format": "plain",
        });
        assert!(!ExperimentSpec::json_names_axes(
            shorthand.as_object().unwrap()
        ));
        // AXIS_KEYS stays in sync with the canonical key list: it is the
        // canonical order minus the four identity fields.
        let spec = ExperimentSpec::table1(4, 1, 7);
        let canon = spec.canonical_json();
        let canonical_keys: Vec<&str> = canon
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !matches!(*k, "artifact" | "scale" | "trials" | "seed"))
            .collect();
        assert_eq!(canonical_keys, ExperimentSpec::AXIS_KEYS.to_vec());
    }

    #[test]
    fn artifact_kind_parse_round_trips() {
        for kind in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ArtifactKind::parse("fig6"), Some(ArtifactKind::Figure6));
        assert_eq!(ArtifactKind::parse("nope"), None);
    }
}
