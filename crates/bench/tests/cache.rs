//! End-to-end tests of `--cache`: a repeat invocation must recompute
//! nothing and reproduce the first invocation's artifacts byte for byte.

use std::path::PathBuf;
use std::process::Command;

fn run_table1(cache: &str, json: &str, extra: &[&str]) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table1"));
    // Scale 9: a 2x2 grid with one particle — the cheapest complete run.
    cmd.args([
        "--scale", "9", "--trials", "1", "--cache", cache, "--json", json,
    ]);
    cmd.args(extra);
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfc-cache-e2e-{name}-{}", std::process::id()))
}

#[test]
fn repeat_run_replays_bytes_and_computes_zero_cells() {
    let cache = tmp("dir");
    let _ = std::fs::remove_dir_all(&cache);
    let cache_str = cache.to_str().unwrap().to_string();
    let j1 = tmp("first.json");
    let j2 = tmp("second.json");

    let (out1, err1, ok1) = run_table1(&cache_str, j1.to_str().unwrap(), &[]);
    assert!(ok1, "{err1}");
    assert!(err1.contains("12 cell(s) computed"), "{err1}");
    assert!(err1.contains("stored"), "{err1}");

    let (out2, err2, ok2) = run_table1(&cache_str, j2.to_str().unwrap(), &[]);
    assert!(ok2, "{err2}");
    assert!(
        err2.contains("0 cell(s) computed, artifact replayed from cache"),
        "{err2}"
    );
    assert!(
        !err2.contains("sweep"),
        "a cache hit must not run a sweep: {err2}"
    );
    assert_eq!(out1, out2, "replayed stdout must be byte-identical");
    let json1 = std::fs::read(&j1).unwrap();
    let json2 = std::fs::read(&j2).unwrap();
    assert_eq!(json1, json2, "replayed JSON must be byte-identical");

    // The markdown stream replays from the same entry.
    let j3 = tmp("third.json");
    let (out3, err3, ok3) = run_table1(&cache_str, j3.to_str().unwrap(), &["--markdown"]);
    assert!(ok3);
    assert!(err3.contains("replayed from cache"), "{err3}");
    assert_ne!(out3, out2);
    assert!(out3.contains('|'));

    std::fs::remove_dir_all(&cache).ok();
    for p in [j1, j2, j3] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn sabotaged_runs_are_never_cached() {
    let cache = tmp("chaos");
    let _ = std::fs::remove_dir_all(&cache);
    let cache_str = cache.to_str().unwrap().to_string();
    let j = tmp("chaos.json");

    // Persistent chaos fails cells: the artifact is partial, so the run
    // must not populate the cache.
    let (_, err, ok) = run_table1(
        &cache_str,
        j.to_str().unwrap(),
        &["--chaos", "/Hilbert", "--chaos-persistent"],
    );
    assert!(ok, "{err}");
    assert!(err.contains("not stored"), "{err}");

    // The next (healthy) run misses and computes.
    let (_, err2, ok2) = run_table1(&cache_str, j.to_str().unwrap(), &[]);
    assert!(ok2);
    assert!(err2.contains("12 cell(s) computed"), "{err2}");
    assert!(err2.contains("stored"), "{err2}");

    std::fs::remove_dir_all(&cache).ok();
    std::fs::remove_file(j).ok();
}
