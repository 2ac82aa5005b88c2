//! Minimal command-line flag parsing for the regeneration binaries.
//!
//! Hand-rolled on purpose: the binaries take a handful of flags, which does
//! not justify an argument-parsing dependency.
//!
//! All seven binaries share this one parser: the *what to compute* flags
//! (`--scale`, `--trials`, `--seed`) resolve to a canonical
//! [`ExperimentSpec`] via [`SweepArgs::spec`], while the remaining flags
//! describe *how to run it* (threads, journaling, fault injection, output
//! paths, result cache) and deliberately stay out of the spec — they never
//! change a computed byte.

use sfc_core::{ArtifactKind, ExperimentSpec};

/// Historical name of [`SweepArgs`], kept so existing imports keep working.
pub type Args = SweepArgs;

/// Parsed command-line options shared by all regeneration binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// Scale-down exponent: workloads shrink by `4^scale` (0 = paper size).
    pub scale: u32,
    /// Number of independent trials to average.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Emit Markdown tables instead of aligned text.
    pub markdown: bool,
    /// Also write the artifact as a JSON document to this path.
    pub json: Option<String>,
    /// JSONL journal to append completed sweep cells to / resume from.
    pub journal: Option<String>,
    /// Wall-clock budget in seconds; once spent, remaining cells are skipped.
    pub time_budget: Option<u64>,
    /// Fault injection: cells whose name contains one of these substrings
    /// panic on their first attempt (testing only).
    pub chaos: Vec<String>,
    /// Make `--chaos` panic on every attempt instead of only the first.
    pub chaos_persistent: bool,
    /// Worker threads for sweep cells; `None` = all cores. Output bytes are
    /// identical at every value.
    pub jobs: Option<u64>,
    /// Journal fault injection: after this many record writes, every
    /// further write fails (testing only).
    pub chaos_journal: Option<u64>,
    /// Write the per-cell timing envelope (wall-clock and phase breakdown
    /// for every cell computed this run) as JSON to this path. Kept
    /// separate from `--json`: timings are wall-clock facts about one run,
    /// while the artifact must stay byte-identical across runs.
    pub timing: Option<String>,
    /// Write one JSONL trace record per computed sweep cell (a span per
    /// cell plus one per timed phase, stamped with a shared per-run
    /// request id) to this path. Like `--timing`, a side channel: the
    /// artifact bytes are identical with tracing on or off.
    pub trace: Option<String>,
    /// Content-addressed result cache directory: a repeat of an already
    /// cached spec replays the stored artifact byte-for-byte with zero
    /// sweep cells computed; a fresh complete run populates it.
    pub cache: Option<String>,
    /// Byte budget (MiB) of the in-memory tier in front of the `--cache`
    /// disk tier; 0 disables the tier. Within one process, repeats of a
    /// loaded key skip file reads and sha256 verification entirely.
    pub cache_mem_mb: u64,
    /// Print the canonical spec this invocation would compute (one JSON
    /// line, directly usable as an `sfc-serve` `warm`/`batch` item) and
    /// exit without computing anything.
    pub emit_specs: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            scale: 2,
            trials: 3,
            seed: 20130701, // ICPP 2013, for flavor; any constant works.
            markdown: false,
            json: None,
            journal: None,
            time_budget: None,
            chaos: Vec::new(),
            chaos_persistent: false,
            jobs: None,
            chaos_journal: None,
            timing: None,
            trace: None,
            cache: None,
            cache_mem_mb: 64,
            emit_specs: false,
        }
    }
}

impl SweepArgs {
    /// Parse from an iterator of arguments (excluding the program name).
    /// Returns an error message on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<SweepArgs, String> {
        let mut out = SweepArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => out.scale = next_num(&mut it, "--scale")? as u32,
                "--trials" => {
                    out.trials = next_num(&mut it, "--trials")?;
                    if out.trials == 0 {
                        return Err("--trials must be at least 1".into());
                    }
                }
                "--seed" => out.seed = next_num(&mut it, "--seed")?,
                "--markdown" => out.markdown = true,
                "--json" => {
                    out.json = Some(it.next().ok_or_else(|| "--json needs a path".to_string())?)
                }
                "--journal" => {
                    out.journal = Some(
                        it.next()
                            .ok_or_else(|| "--journal needs a path".to_string())?,
                    )
                }
                "--time-budget" => out.time_budget = Some(next_num(&mut it, "--time-budget")?),
                "--chaos" => {
                    let list = it
                        .next()
                        .ok_or_else(|| "--chaos needs a pattern list".to_string())?;
                    out.chaos
                        .extend(list.split(',').filter(|p| !p.is_empty()).map(String::from));
                }
                "--chaos-persistent" => out.chaos_persistent = true,
                "--jobs" => {
                    let n = next_num(&mut it, "--jobs")?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    out.jobs = Some(n);
                }
                "--chaos-journal" => {
                    out.chaos_journal = Some(next_num(&mut it, "--chaos-journal")?)
                }
                "--timing" => {
                    out.timing = Some(
                        it.next()
                            .ok_or_else(|| "--timing needs a path".to_string())?,
                    )
                }
                "--trace" => {
                    out.trace = Some(
                        it.next()
                            .ok_or_else(|| "--trace needs a path".to_string())?,
                    )
                }
                "--cache" => {
                    out.cache = Some(
                        it.next()
                            .ok_or_else(|| "--cache needs a directory".to_string())?,
                    )
                }
                "--cache-mem-mb" => out.cache_mem_mb = next_num(&mut it, "--cache-mem-mb")?,
                "--emit-specs" => out.emit_specs = true,
                "--help" | "-h" => return Err(usage()),
                other => return Err(format!("unknown flag `{other}`\n{}", usage())),
            }
        }
        Ok(out)
    }

    /// Parse from the process environment, exiting with a message on error.
    pub fn from_env() -> SweepArgs {
        match SweepArgs::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The canonical spec of the computation these flags describe for
    /// `artifact` — the cache/daemon identity of the run. Only
    /// `--scale`/`--trials`/`--seed` feed it; every other flag is a runner
    /// option that cannot change a computed byte.
    pub fn spec(&self, artifact: ArtifactKind) -> ExperimentSpec {
        ExperimentSpec::for_artifact(artifact, self.scale, self.trials, self.seed)
    }

    /// Render a one-line description of the effective configuration.
    pub fn banner(&self, what: &str) -> String {
        format!(
            "# {what} | scale={} (paper sizes / 4^{}), trials={}, seed={}",
            self.scale, self.scale, self.trials, self.seed
        )
    }
}

fn next_num<I: Iterator<Item = String>>(it: &mut I, flag: &str) -> Result<u64, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>()
        .map_err(|_| format!("{flag}: `{v}` is not a non-negative integer"))
}

fn usage() -> String {
    "usage: <bin> [--scale S] [--trials T] [--seed X] [--jobs N] [--markdown] [--json PATH] [--timing PATH] [--trace PATH] [--emit-specs]\n\
     \u{20}          [--cache DIR] [--cache-mem-mb N] [--journal PATH] [--time-budget SECS] [--chaos LIST] [--chaos-persistent] [--chaos-journal N]\n\
     --scale S            shrink the paper workload by 4^S (default 2; 0 = full size)\n\
     --trials T           independent trials to average (default 3)\n\
     --seed X             base RNG seed (default 20130701)\n\
     --jobs N             worker threads for sweep cells (default: all cores);\n\
     \u{20}                    output bytes are identical for every N\n\
     --markdown           print Markdown tables\n\
     --json PATH          also write the artifact as JSON\n\
     --timing PATH        write the per-cell timing envelope (wall-clock and\n\
     \u{20}                    sample/assign/nfi/ffi phase breakdown) as JSON\n\
     --trace PATH         write one JSONL span per computed cell and phase,\n\
     \u{20}                    stamped with a shared per-run request id\n\
     --cache DIR          content-addressed result cache: replay an already\n\
     \u{20}                    cached run byte-for-byte, else populate it\n\
     --cache-mem-mb N     in-memory tier byte budget over --cache, in MiB\n\
     \u{20}                    (default 64; 0 = disk only)\n\
     --emit-specs         print the canonical spec this invocation would\n\
     \u{20}                    compute (one JSON line, an sfc-serve warm/batch\n\
     \u{20}                    item) and exit without computing\n\
     --journal PATH       append completed sweep cells to a JSONL journal and\n\
     \u{20}                    resume from it on restart\n\
     --time-budget SECS   stop scheduling new cells after SECS seconds; partial\n\
     \u{20}                    results are flushed and missing cells reported\n\
     --chaos LIST         comma-separated cell-name substrings to fault-inject\n\
     \u{20}                    (panic on first attempt; testing only)\n\
     --chaos-persistent   make --chaos panic on every attempt\n\
     --chaos-journal N    fail every journal write after the first N\n\
     \u{20}                    (testing only)"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, SweepArgs::default());
        assert_eq!(a.scale, 2);
        assert_eq!(a.trials, 3);
        assert!(!a.markdown);
        assert_eq!(a.journal, None);
        assert_eq!(a.time_budget, None);
        assert!(a.chaos.is_empty());
        assert_eq!(a.jobs, None);
        assert_eq!(a.chaos_journal, None);
        assert_eq!(a.timing, None);
        assert_eq!(a.trace, None);
        assert_eq!(a.cache, None);
        assert_eq!(a.cache_mem_mb, 64);
        assert!(!a.emit_specs);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--scale",
            "0",
            "--trials",
            "5",
            "--seed",
            "42",
            "--markdown",
            "--json",
            "/tmp/x.json",
            "--journal",
            "/tmp/x.jsonl",
            "--time-budget",
            "90",
            "--chaos",
            "uniform/t0,t1",
            "--chaos-persistent",
            "--jobs",
            "4",
            "--chaos-journal",
            "2",
            "--timing",
            "/tmp/x.timing.json",
            "--trace",
            "/tmp/x.trace.jsonl",
            "--cache",
            "/tmp/cache",
            "--cache-mem-mb",
            "16",
            "--emit-specs",
        ])
        .unwrap();
        assert_eq!(a.scale, 0);
        assert_eq!(a.trials, 5);
        assert_eq!(a.seed, 42);
        assert!(a.markdown);
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
        assert_eq!(a.journal.as_deref(), Some("/tmp/x.jsonl"));
        assert_eq!(a.time_budget, Some(90));
        assert_eq!(a.chaos, vec!["uniform/t0".to_string(), "t1".to_string()]);
        assert!(a.chaos_persistent);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.chaos_journal, Some(2));
        assert_eq!(a.timing.as_deref(), Some("/tmp/x.timing.json"));
        assert_eq!(a.trace.as_deref(), Some("/tmp/x.trace.jsonl"));
        assert_eq!(a.cache.as_deref(), Some("/tmp/cache"));
        assert_eq!(a.cache_mem_mb, 16);
        assert!(a.emit_specs);
    }

    #[test]
    fn emit_specs_prints_the_canonical_spec() {
        let a = parse(&[
            "--scale",
            "4",
            "--trials",
            "1",
            "--seed",
            "7",
            "--emit-specs",
        ])
        .unwrap();
        // The emitted line is exactly the spec's canonical string — the
        // same identity the cache and daemon key the run by.
        let spec = a.spec(ArtifactKind::Figure7);
        assert_eq!(
            spec.canonical_string(),
            ExperimentSpec::figure7(4, 1, 7).canonical_string()
        );
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "x"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--journal"]).is_err());
        assert!(parse(&["--time-budget", "soon"]).is_err());
        assert!(parse(&["--chaos"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--chaos-journal", "many"]).is_err());
        assert!(parse(&["--timing"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--cache"]).is_err());
        assert!(parse(&["--cache-mem-mb", "lots"]).is_err());
        // The fast-path ablations are a library seam (`ComputeOpts`), not
        // CLI flags.
        assert!(parse(&["--no-oracle"])
            .unwrap_err()
            .starts_with("unknown flag"));
        assert!(parse(&["--no-dense-grid"])
            .unwrap_err()
            .starts_with("unknown flag"));
    }

    #[test]
    fn spec_reflects_the_what_flags_only() {
        let a = parse(&["--scale", "4", "--trials", "2", "--seed", "99"]).unwrap();
        let b = parse(&[
            "--scale",
            "4",
            "--trials",
            "2",
            "--seed",
            "99",
            "--jobs",
            "3",
            "--markdown",
            "--cache",
            "/tmp/c",
        ])
        .unwrap();
        let spec = a.spec(ArtifactKind::Table1);
        assert_eq!(spec, ExperimentSpec::table1(4, 2, 99));
        // Runner options never reach the spec (or its hash).
        assert_eq!(
            spec.canonical_hash(),
            b.spec(ArtifactKind::Table1).canonical_hash()
        );
        assert_ne!(
            spec.canonical_hash(),
            b.spec(ArtifactKind::Figure7).canonical_hash()
        );
    }

    #[test]
    fn help_returns_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.contains("usage:"));
    }

    #[test]
    fn usage_synopsis_lists_every_flag() {
        // The synopsis (first two lines) must stay in sync with the flag
        // list: every `--flag` documented below appears above, and vice
        // versa.
        let text = usage();
        let mut lines = text.lines();
        let synopsis = format!("{} {}", lines.next().unwrap(), lines.next().unwrap());
        let documented: Vec<&str> = text
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().next())
            .filter(|w| w.starts_with("--"))
            .collect();
        assert!(!documented.is_empty());
        for flag in documented {
            assert!(
                synopsis.contains(flag),
                "usage synopsis is missing `{flag}`"
            );
        }
    }
}
