//! End-to-end interrupt/resume tests: a journaled regeneration interrupted
//! partway — by fault injection or by journal truncation — must, once
//! resumed, write a JSON artifact byte-identical to an uninterrupted run's.

use std::path::PathBuf;
use std::process::Command;

const TINY: &[&str] = &["--scale", "5", "--trials", "2", "--seed", "11"];

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfc_resume_{}_{name}", std::process::id()))
}

/// Run the `table1` binary with the tiny config plus `extra`; returns
/// (stdout, stderr, success).
fn run_table1(extra: &[&str]) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table1"));
    cmd.args(TINY).args(extra);
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Uninterrupted no-journal artifact — the reference everything must match.
fn baseline(tag: &str) -> Vec<u8> {
    let json = tmp(&format!("{tag}_baseline.json"));
    let (_, _, ok) = run_table1(&["--json", json.to_str().unwrap()]);
    assert!(ok);
    let bytes = std::fs::read(&json).unwrap();
    std::fs::remove_file(&json).ok();
    bytes
}

#[test]
fn fresh_journaled_run_matches_plain_run() {
    let journal = tmp("fresh.jsonl");
    let json = tmp("fresh.json");
    std::fs::remove_file(&journal).ok();

    let (stdout_plain, _, ok) = run_table1(&[]);
    assert!(ok);
    let (stdout_journaled, stderr, ok) = run_table1(&[
        "--journal",
        journal.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(ok);
    // stdout identical; the journal accounting goes to stderr only.
    assert_eq!(stdout_plain, stdout_journaled);
    assert!(stderr.contains("24 cell(s) computed"), "stderr: {stderr}");
    assert_eq!(std::fs::read(&json).unwrap(), baseline("fresh"));
    // 3 distributions x 2 trials x 4 curves cells + 1 header line.
    let lines = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines, 25);

    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&json).ok();
}

fn resume_after_truncation(tag: &str, truncate: impl Fn(&[u8]) -> usize) {
    let journal = tmp(&format!("{tag}.jsonl"));
    let json = tmp(&format!("{tag}.json"));
    std::fs::remove_file(&journal).ok();

    // Complete run to populate the journal, then "crash" it partway.
    let (_, _, ok) = run_table1(&["--journal", journal.to_str().unwrap()]);
    assert!(ok);
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..truncate(&bytes)]).unwrap();

    // Resume: replays the surviving cells, recomputes the rest.
    let (_, stderr, ok) = run_table1(&[
        "--journal",
        journal.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stderr.contains("replayed from journal"), "stderr: {stderr}");
    assert_eq!(
        std::fs::read(&json).unwrap(),
        baseline(tag),
        "resumed artifact differs from uninterrupted run"
    );

    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&json).ok();
}

#[test]
fn resume_after_truncation_at_cell_boundary() {
    // Keep the header and the first 7 complete cell records.
    resume_after_truncation("boundary", |bytes| {
        let mut newlines = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                newlines += 1;
                if newlines == 8 {
                    return i + 1;
                }
            }
        }
        unreachable!("journal has at least 8 lines")
    });
}

#[test]
fn resume_after_truncation_mid_line() {
    // Cut a partially-written record in half: the torn tail must be
    // dropped, not parsed.
    resume_after_truncation("midline", |bytes| bytes.len() - 40);
}

#[test]
fn transient_fault_is_retried_and_invisible_in_the_artifact() {
    let json = tmp("chaos_once.json");
    // Sabotage the first attempt of every Normal-distribution cell; the
    // bounded retry recomputes them.
    let (_, stderr, ok) = run_table1(&["--chaos", "Normal/", "--json", json.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(std::fs::read(&json).unwrap(), baseline("chaos_once"));
    std::fs::remove_file(&json).ok();
}

#[test]
fn persistent_fault_becomes_structured_error_without_aborting() {
    let json = tmp("chaos_hard.json");
    let (stdout, stderr, ok) = run_table1(&[
        "--chaos",
        "Normal/t0/Hilbert",
        "--chaos-persistent",
        "--json",
        json.to_str().unwrap(),
    ]);
    // The sweep completes and reports the failure as data, not a crash.
    assert!(ok, "stderr: {stderr}");
    assert!(
        stderr.contains("FAILED after 3 attempt(s)"),
        "stderr: {stderr}"
    );
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let failed = v["cells"]["failed"].as_array().unwrap();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0]["cell"], "Normal/t0/Hilbert");
    assert_eq!(failed[0]["error"], "chaos injection");
    assert_eq!(failed[0]["attempts"], 3);
    // The other 23 cells still produced data: trial 1 covers the Hilbert
    // column, so every grid entry is present (with fewer samples where the
    // failed cell would have contributed).
    let hilbert_acd = &v["data"][1]["nfi"][0]["cells"][0]["acd"];
    assert_eq!(hilbert_acd["trials"], 1);
    assert!(stdout.contains("Table I"));
    std::fs::remove_file(&json).ok();
}

#[test]
fn exhausted_time_budget_skips_then_resumes_to_identical_artifact() {
    let journal = tmp("budget.jsonl");
    let json = tmp("budget.json");
    std::fs::remove_file(&journal).ok();

    // A zero budget starts no cells: everything is reported missing.
    let (_, stderr, ok) = run_table1(&[
        "--journal",
        journal.to_str().unwrap(),
        "--time-budget",
        "0",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stderr.contains("time budget exhausted"), "stderr: {stderr}");
    assert!(
        stderr.contains("missing Uniform/t0/Hilbert"),
        "stderr: {stderr}"
    );
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(v["cells"]["skipped"].as_array().unwrap().len(), 24);
    assert!(v["data"][0]["nfi"][0]["cells"][0]["acd"].is_null());

    // Resuming without the budget computes everything; the artifact matches
    // an uninterrupted run byte for byte.
    let (_, _, ok) = run_table1(&[
        "--journal",
        journal.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(ok);
    assert_eq!(std::fs::read(&json).unwrap(), baseline("budget"));

    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&json).ok();
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let json1 = tmp("jobs1.json");
    let json8 = tmp("jobs8.json");

    let (stdout1, _, ok) = run_table1(&["--jobs", "1", "--json", json1.to_str().unwrap()]);
    assert!(ok);
    let (stdout8, _, ok) = run_table1(&["--jobs", "8", "--json", json8.to_str().unwrap()]);
    assert!(ok);

    assert_eq!(
        stdout1, stdout8,
        "stdout differs between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        std::fs::read(&json1).unwrap(),
        std::fs::read(&json8).unwrap(),
        "JSON artifact differs between --jobs 1 and --jobs 8"
    );

    std::fs::remove_file(&json1).ok();
    std::fs::remove_file(&json8).ok();
}

#[test]
fn parallel_run_under_chaos_matches_serial() {
    // Retries and failure accounting must stay deterministic on a pool:
    // transient faults retried on worker threads leave no trace, and the
    // artifact still matches the serial run byte for byte.
    let json1 = tmp("chaos_jobs1.json");
    let json8 = tmp("chaos_jobs8.json");

    let chaos = &["--chaos", "Normal/"];
    let (_, _, ok) = run_table1(
        &[
            chaos,
            &["--jobs", "1", "--json", json1.to_str().unwrap()][..],
        ]
        .concat(),
    );
    assert!(ok);
    let (_, _, ok) = run_table1(
        &[
            chaos,
            &["--jobs", "8", "--json", json8.to_str().unwrap()][..],
        ]
        .concat(),
    );
    assert!(ok);

    let bytes1 = std::fs::read(&json1).unwrap();
    assert_eq!(bytes1, std::fs::read(&json8).unwrap());
    assert_eq!(bytes1, baseline("chaos_jobs"));

    std::fs::remove_file(&json1).ok();
    std::fs::remove_file(&json8).ok();
}

#[test]
fn parallel_journal_resumes_serially_after_truncation() {
    let journal = tmp("xjobs.jsonl");
    let json = tmp("xjobs.json");
    std::fs::remove_file(&journal).ok();

    // Journal a full run on 8 workers, then tear the tail mid-line.
    let (_, _, ok) = run_table1(&["--jobs", "8", "--journal", journal.to_str().unwrap()]);
    assert!(ok);
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 40]).unwrap();

    // Resume on 1 worker: replays the surviving cells, recomputes the torn
    // ones, and the artifact matches an uninterrupted run byte for byte.
    let (_, stderr, ok) = run_table1(&[
        "--jobs",
        "1",
        "--journal",
        journal.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stderr.contains("replayed from journal"), "stderr: {stderr}");
    assert_eq!(std::fs::read(&json).unwrap(), baseline("xjobs"));

    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&json).ok();
}

#[test]
fn degraded_journal_is_reported_not_swallowed() {
    let journal = tmp("degraded.jsonl");
    let json = tmp("degraded.json");
    std::fs::remove_file(&journal).ok();

    // Fail every journal write after the first 20 (of 24 cells). The first
    // three failures degrade the journal; the fourth cell finds it dead and
    // becomes a structured failure instead of silently losing its record.
    let (_, stderr, ok) = run_table1(&[
        "--jobs",
        "1",
        "--journal",
        journal.to_str().unwrap(),
        "--chaos-journal",
        "20",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("JOURNAL DEGRADED"), "stderr: {stderr}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(v["cells"]["journal_degraded"], true);
    let failed = v["cells"]["failed"].as_array().unwrap();
    assert_eq!(failed.len(), 1, "failed: {failed:?}");
    assert!(
        failed[0]["error"].as_str().unwrap().contains("journal"),
        "failed: {failed:?}"
    );

    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&json).ok();
}

#[test]
fn journal_from_other_config_is_rejected() {
    let journal = tmp("mismatch.jsonl");
    std::fs::remove_file(&journal).ok();
    let (_, _, ok) = run_table1(&["--journal", journal.to_str().unwrap()]);
    assert!(ok);

    // Different seed, same journal: refuse rather than mix results.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table1"));
    cmd.args(["--scale", "5", "--trials", "2", "--seed", "12"]);
    cmd.args(["--journal", journal.to_str().unwrap()]);
    let out = cmd.output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("journal"), "stderr: {stderr}");

    std::fs::remove_file(&journal).ok();
}
