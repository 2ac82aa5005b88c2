//! One compute path for every artifact: a canonical [`ExperimentSpec`] in,
//! a rendered [`ArtifactOutput`] out.
//!
//! This is the seam the binaries, the result cache and the `sfc-serve`
//! daemon all share: [`compute`] dispatches on [`ArtifactKind`] to the
//! sweep drivers, and returns the full text body (plain and Markdown) plus
//! the JSON `data` section — everything about the artifact that must be
//! byte-identical between a fresh run, a resumed run, and a cache replay.
//! How the sweep executes (threads, journaling, chaos) lives in the
//! [`SweepRunner`] the caller passes in, never here.

use crate::figures::{
    render_anns, render_processors, render_topology, run_anns_sweep, run_distribution_comparison,
    run_input_size_sweep, run_processor_sweep, run_radius_sweep, run_topology_sweep,
};
use crate::tables::{render_grid, run_tables, Interaction};
use serde_json::Value;
use sfc_core::report::Table;
use sfc_core::runner::SweepRunner;
use sfc_core::{ArtifactKind, ExperimentSpec};

/// The vestige of the ablation options [`compute`] used to take. It has no
/// fields: the only ablation left, the sparse rank table, is a library
/// seam of `Assignment`. It stays until ROADMAP item 2 removes the
/// argument with the callers that pass it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputeOpts {}

/// The rendered artifact: everything below the banner line.
#[derive(Debug, Clone)]
pub struct ArtifactOutput {
    /// Aligned-text body, exactly as the binary prints it after the banner.
    pub body_plain: String,
    /// Markdown body (identical to `body_plain` for artifacts that render
    /// no Markdown variant).
    pub body_markdown: String,
    /// The `data` section of the JSON envelope.
    pub data: Value,
}

/// Footnote of the Table I/II renders.
const TABLES_NOTE: &str =
    "(* lowest in row — paper's boldface; † lowest in column — paper's italics)";

/// Footnote of the Figure 6 render.
const FIG6_NOTE: &str = "(The paper plots mesh/torus/quadtree/hypercube only; bus, ring and the \
     row-major NFI entries are off its scale.)";

/// Footnote of the extensions render.
const EXTENSIONS_NOTE: &str = "Note how the Hilbert curve wins the clustering metric and the ACD\n\
     metrics but loses the ANNS — the apparent contradiction the paper\n\
     resolves by arguing metrics must model the target application.";

/// Accumulates the two text bodies a run prints: each table rendered in
/// both formats, in order, with the binaries' historical `\n` separators.
struct Body {
    plain: String,
    markdown: String,
}

impl Body {
    fn new() -> Self {
        Body {
            plain: String::new(),
            markdown: String::new(),
        }
    }

    fn push_table(&mut self, table: &Table) {
        self.plain.push('\n');
        self.plain.push_str(&table.render());
        self.markdown.push('\n');
        self.markdown.push_str(&table.render_markdown());
    }

    /// Push a table that has no Markdown variant (extensions).
    fn push_table_plain(&mut self, table: &Table) {
        let text = table.render();
        self.plain.push('\n');
        self.plain.push_str(&text);
        self.markdown.push('\n');
        self.markdown.push_str(&text);
    }

    fn push_note(&mut self, note: &str) {
        let line = format!("\n{note}\n");
        self.plain.push_str(&line);
        self.markdown.push_str(&line);
    }

    fn into_output(self, data: Value) -> ArtifactOutput {
        ArtifactOutput {
            body_plain: self.plain,
            body_markdown: self.markdown,
            data,
        }
    }
}

/// Run the sweep `spec` describes through `runner` and render its artifact.
pub fn compute(
    spec: &ExperimentSpec,
    _opts: &ComputeOpts,
    runner: &mut SweepRunner,
) -> ArtifactOutput {
    let mut body = Body::new();
    match spec.artifact {
        ArtifactKind::Table1 | ArtifactKind::Table2 => {
            let which = if spec.artifact == ArtifactKind::Table1 {
                Interaction::NearField
            } else {
                Interaction::FarField
            };
            let grids = run_tables(spec, runner);
            for grid in &grids {
                body.push_table(&render_grid(grid, which));
            }
            body.push_note(TABLES_NOTE);
            body.into_output(crate::results::grid_data(&grids))
        }
        ArtifactKind::Figure5 => {
            let sweeps: Vec<_> = spec
                .radii
                .iter()
                .map(|&radius| run_anns_sweep(radius, &spec.orders, runner))
                .collect();
            for sweep in &sweeps {
                body.push_table(&render_anns(sweep));
            }
            body.into_output(crate::results::anns_data(&sweeps))
        }
        ArtifactKind::Figure6 => {
            let sweep = run_topology_sweep(spec, runner);
            for near_field in [true, false] {
                body.push_table(&render_topology(&sweep, near_field));
            }
            body.push_note(FIG6_NOTE);
            body.into_output(crate::results::topology_data(&sweep))
        }
        ArtifactKind::Figure7 => {
            let sweep = run_processor_sweep(spec, runner);
            for near_field in [true, false] {
                body.push_table(&render_processors(&sweep, near_field));
            }
            body.into_output(crate::results::processors_data(&sweep))
        }
        ArtifactKind::Parametric => {
            let tables = [
                run_radius_sweep(spec, runner),
                run_input_size_sweep(spec, runner),
                run_distribution_comparison(spec, runner),
            ];
            for table in &tables {
                body.push_table(table);
            }
            body.into_output(crate::results::tables_data(&tables))
        }
        ArtifactKind::Extensions => {
            let tables = crate::extensions::run_extensions(spec, runner);
            for table in &tables {
                body.push_table_plain(table);
            }
            body.push_note(EXTENSIONS_NOTE);
            body.into_output(crate::results::tables_data(&tables))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::runner::RunnerOptions;

    fn spec(artifact: ArtifactKind) -> ExperimentSpec {
        let mut s = ExperimentSpec::for_artifact(artifact, 5, 1, 3);
        if artifact == ArtifactKind::Figure5 {
            // The full 512x512 ANNS sweep is too slow for a unit test.
            s.orders = (1..=4).collect();
        }
        if artifact == ArtifactKind::Parametric {
            s.radii = vec![1, 2];
            s.particle_counts = vec![100, 200];
        }
        s
    }

    #[test]
    fn every_artifact_computes_and_renders() {
        for artifact in [
            ArtifactKind::Table1,
            ArtifactKind::Figure5,
            ArtifactKind::Figure7,
            ArtifactKind::Parametric,
        ] {
            let out = compute(
                &spec(artifact),
                &ComputeOpts::default(),
                &mut SweepRunner::ephemeral(),
            );
            assert!(!out.body_plain.is_empty(), "{artifact}: empty body");
            assert!(out.body_plain.starts_with('\n'));
            assert!(out.body_plain.ends_with('\n'));
            assert!(out.data.as_array().is_some() || out.data.as_object().is_some());
        }
    }

    #[test]
    fn tables_render_the_requested_interaction() {
        let t1 = compute(
            &spec(ArtifactKind::Table1),
            &ComputeOpts::default(),
            &mut SweepRunner::ephemeral(),
        );
        let t2 = compute(
            &spec(ArtifactKind::Table2),
            &ComputeOpts::default(),
            &mut SweepRunner::ephemeral(),
        );
        assert!(t1.body_plain.contains("Table I (NFI)"));
        assert!(t2.body_plain.contains("Table II (FFI)"));
        // Same sweep, same data section: only the render differs.
        assert_eq!(t1.data, t2.data);
    }

    #[test]
    fn markdown_body_differs_only_in_format() {
        let out = compute(
            &spec(ArtifactKind::Figure5),
            &ComputeOpts::default(),
            &mut SweepRunner::ephemeral(),
        );
        assert_ne!(out.body_plain, out.body_markdown);
        assert!(out.body_markdown.contains('|'));
    }

    #[test]
    fn artifacts_are_byte_identical_at_every_job_count() {
        for artifact in [
            ArtifactKind::Table1,
            ArtifactKind::Figure6,
            ArtifactKind::Figure7,
        ] {
            let [one, four] = [1, 4].map(|jobs| {
                let options = RunnerOptions {
                    jobs,
                    ..RunnerOptions::new()
                };
                let mut runner =
                    SweepRunner::new("jobs", &Value::Null, options).expect("no journal to fail on");
                let out = compute(&spec(artifact), &ComputeOpts::default(), &mut runner);
                assert!(runner.finish().complete(), "{artifact} jobs={jobs}");
                out
            });
            assert_eq!(one.body_plain, four.body_plain, "{artifact}");
            assert_eq!(one.body_markdown, four.body_markdown, "{artifact}");
            assert_eq!(one.data, four.data, "{artifact}");
        }
    }
}
