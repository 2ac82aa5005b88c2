//! # sfc-bench
//!
//! The regeneration harness: one binary per table/figure of the paper, plus
//! the `grid_ablation` bench. This library holds the shared pieces — a tiny
//! flag parser and the experiment drivers — so the binaries stay thin and
//! the integration tests can exercise the exact code paths the binaries
//! run.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Figure 5(a)/(b) — ANNS vs resolution | `fig5` |
//! | Table I — NFI ACD, 16 curve pairs × 3 distributions | `table1` |
//! | Table II — FFI ACD, 16 curve pairs × 3 distributions | `table2` |
//! | Figure 6 — topology comparison | `fig6` |
//! | Figure 7 — ACD vs processor count | `fig7` |
//! | Section VI-C parametric studies | `parametric` |
//! | Section VIII extension studies | `extensions` |
//!
//! All binaries accept `--scale S` (shrink the workload by `4^S` while
//! preserving density; the default regenerates at reduced scale 2 so a full
//! run completes in minutes — pass `--scale 0` for the paper's exact sizes),
//! `--trials T` and `--seed X`, plus the fault-tolerance flags `--journal
//! PATH` (append completed sweep cells to a JSONL journal and resume from
//! it), `--time-budget SECS` (stop scheduling new cells once spent) and
//! `--chaos LIST` (deterministic fault injection for tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod artifact;
mod cell;
pub mod extensions;
pub mod figures;
pub mod harness;
pub mod results;
pub mod tables;

pub use args::{Args, SweepArgs};
