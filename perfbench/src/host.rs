//! Host facts recorded with every result, the CPU calibration loop, and
//! peak resident memory.

use serde_json::{json, Value};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Worker threads the benchmark may use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall milliseconds of a fixed CPU-bound loop (2^25 rounds of a 64-bit
/// mix), run at once on each of the `nproc` threads the workloads use.
/// The work never changes, so a reading far above this host's usual value
/// means something else was using a CPU when the run started.
pub fn calibration_ms() -> Vec<f64> {
    let lane = || {
        let started = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for i in 0..(1u64 << 25) {
            x ^= x >> 31;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i);
        }
        black_box(x);
        started.elapsed().as_secs_f64() * 1e3
    };
    std::thread::scope(|s| {
        let lanes: Vec<_> = (0..nproc()).map(|_| s.spawn(lane)).collect();
        lanes
            .into_iter()
            .map(|l| l.join().expect("calibration thread"))
            .collect()
    })
}

/// `(all, steal)` jiffies of the host's CPUs so far (`/proc/stat`). On a
/// virtual machine, steal is time the hypervisor ran something else.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((fields.iter().sum(), fields.get(7).copied().unwrap_or(0)))
}

/// Share of CPU time stolen by the hypervisor since `start`, in percent.
pub fn steal_pct_since(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

/// The host record printed before each result.
pub fn facts(workload: &str, seed: u64, calibration_ms: &[f64]) -> Value {
    json!({
        "workload": workload,
        "seed": seed,
        "nproc": nproc() as u64,
        "cpu_model": cpu_model(),
        "rustc": first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "commit": commit(),
        "calibration_ms": calibration_ms,
    })
}
