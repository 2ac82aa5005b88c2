//! End-to-end tests of the regeneration binaries: run the actual
//! executables at tiny scale and check their output and JSON artifacts.

use std::process::Command;

fn run(bin: &str, extra: &[&str]) -> (String, String, bool) {
    let exe = match bin {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        "fig6" => env!("CARGO_BIN_EXE_fig6"),
        "fig7" => env!("CARGO_BIN_EXE_fig7"),
        "parametric" => env!("CARGO_BIN_EXE_parametric"),
        other => panic!("unknown binary {other}"),
    };
    let mut cmd = Command::new(exe);
    cmd.args(extra);
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

const TINY: &[&str] = &["--scale", "5", "--trials", "1"];

#[test]
fn table1_prints_all_three_distributions() {
    let (stdout, _, ok) = run("table1", TINY);
    assert!(ok);
    for needle in [
        "Uniform",
        "Normal",
        "Exponential",
        "Hilbert Curve",
        "Row Major",
    ] {
        assert!(stdout.contains(needle), "missing {needle}\n{stdout}");
    }
    // 3 blocks x 4 rows of data.
    assert_eq!(stdout.matches("Table I (NFI)").count(), 3);
}

#[test]
fn table2_reports_ffi() {
    let (stdout, _, ok) = run("table2", TINY);
    assert!(ok);
    assert_eq!(stdout.matches("Table II (FFI)").count(), 3);
}

#[test]
fn fig6_lists_all_six_topologies() {
    let (stdout, _, ok) = run("fig6", TINY);
    assert!(ok);
    for topo in ["Bus", "Ring", "Mesh", "Torus", "Quadtree", "Hypercube"] {
        assert!(stdout.contains(topo), "missing {topo}");
    }
}

#[test]
fn fig7_sweeps_processors() {
    let (stdout, _, ok) = run("fig7", TINY);
    assert!(ok);
    assert!(stdout.contains("Processors"));
    assert!(stdout.contains("Near-Field") && stdout.contains("Far-Field"));
}

#[test]
fn json_flag_writes_valid_artifact() {
    let path = std::env::temp_dir().join("sfc_cli_test_table1.json");
    let path_str = path.to_str().unwrap();
    let mut args = TINY.to_vec();
    args.extend(["--json", path_str]);
    let (_, _, ok) = run("table1", &args);
    assert!(ok);
    let text = std::fs::read_to_string(&path).expect("JSON written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(v["artifact"], "table1");
    assert_eq!(v["config"]["scale"], 5);
    assert_eq!(v["data"].as_array().unwrap().len(), 3);
    std::fs::remove_file(path).ok();
}

#[test]
fn markdown_flag_switches_format() {
    let mut args = TINY.to_vec();
    args.push("--markdown");
    let (stdout, _, ok) = run("parametric", &args);
    assert!(ok);
    assert!(stdout.contains("| --- |"), "no markdown tables:\n{stdout}");
}

#[test]
fn bad_flag_exits_with_usage() {
    let (_, stderr, ok) = run("table1", &["--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn timing_flag_writes_phase_envelope_and_leaves_artifact_alone() {
    let dir = std::env::temp_dir();
    let artifact = dir.join("sfc_cli_timed_artifact.json");
    let plain = dir.join("sfc_cli_plain_artifact.json");
    let timing = dir.join("sfc_cli_timing.json");
    let mut args_plain = TINY.to_vec();
    args_plain.extend(["--json", plain.to_str().unwrap()]);
    let (_, _, ok) = run("table1", &args_plain);
    assert!(ok);
    let mut args_timed = TINY.to_vec();
    args_timed.extend([
        "--json",
        artifact.to_str().unwrap(),
        "--timing",
        timing.to_str().unwrap(),
    ]);
    let (_, _, ok) = run("table1", &args_timed);
    assert!(ok);
    // `--timing` must not perturb the deterministic artifact.
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&artifact).unwrap()
    );
    let text = std::fs::read_to_string(&timing).expect("timing envelope written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(v["artifact"], "table1-timing");
    assert!(v["grid_index"]["dense_builds"].as_u64().unwrap() >= 12);
    assert_eq!(v["grid_index"]["cellmap_fallbacks"].as_u64().unwrap(), 0);
    let cells = v["cells"].as_array().unwrap();
    assert_eq!(cells.len(), 12); // 3 distributions x 1 trial x 4 curves
    for cell in cells {
        assert!(cell["wall_ms"].as_f64().unwrap() > 0.0);
        let phases: Vec<&str> = cell["phases"]
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p["phase"].as_str().unwrap())
            .collect();
        assert_eq!(phases, ["sample", "assign", "index", "nfi", "ffi"]);
        assert!(cell["phases"]
            .as_array()
            .unwrap()
            .iter()
            .any(|p| p["ms"].as_f64().unwrap() > 0.0));
    }
    std::fs::remove_file(plain).ok();
    std::fs::remove_file(artifact).ok();
    std::fs::remove_file(timing).ok();
}
