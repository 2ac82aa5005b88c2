//! The repository's benchmark: end-to-end metrics of three workloads with
//! tracing off, and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_tables --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `sweep_tables`, `sweep_topologies`, `serve_mixed` (see
//! `perfbench/README.md`). Run from the repository root: scratch files go
//! under `.bench_work/` there. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod metrics;
mod serve;
mod stats;
mod sweep;
mod trace;

use metrics::{END_TO_END, PER_LAYER};
use serde_json::{ToJson, Value};
use sfc_core::ArtifactKind;
use std::path::PathBuf;

/// Set-ups per timed run; the median is reported as `setup_s`.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <sweep_tables|sweep_topologies|serve_mixed> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let kind = match args.workload.as_str() {
        "sweep_tables" => Some(ArtifactKind::Table1),
        "sweep_topologies" => Some(ArtifactKind::Figure6),
        "serve_mixed" => None,
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    let jiffies = host::cpu_jiffies();
    let calibration = host::calibration_ms();
    let facts = host::facts(&args.workload, args.seed, &calibration);
    println!(
        "{}",
        serde_json::to_string(&serde_json::json!({ "host": facts })).expect("host json")
    );

    let (mut outcome, catalogue) = if args.trace {
        let (mut o, spans) = match kind {
            Some(k) => sweep::run_traced(k, args.seed, &work),
            None => serve::run_traced(args.seed, &work),
        };
        o.metrics.set(
            "host.calibration_ms",
            calibration.iter().copied().fold(0.0, f64::max),
        );
        let path = root
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => eprintln!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => o.check(false, &format!("write trace {}: {e}", path.display())),
        }
        (o, &PER_LAYER[..])
    } else {
        let o = match kind {
            Some(k) => sweep::run_timed(k, args.seed, args.seconds, SETUP_REPEATS),
            None => serve::run_timed(args.seed, args.seconds, &work, SETUP_REPEATS),
        };
        (o, &END_TO_END[..])
    };
    let _ = std::fs::remove_dir_all(&work);
    if !args.trace {
        let ok = outcome.ok_ratio();
        outcome.metrics.set("ok_ratio", ok);
        outcome.metrics.set("peak_rss_mb", host::peak_rss_mb());
    }
    outcome
        .notes
        .insert("workload", Value::String(args.workload.clone()));
    outcome
        .notes
        .insert("steal_pct", host::steal_pct_since(jiffies).to_json());
    println!(
        "{}",
        serde_json::to_string(&Value::Object(std::mem::take(&mut outcome.notes)))
            .expect("notes json")
    );
    println!("{}", metrics::result_line(&outcome, catalogue));
}
