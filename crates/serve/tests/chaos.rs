//! End-to-end chaos tests of the `sfc-serve` binary: panic containment
//! (typed errors for leader and followers, clean recovery, byte-identical
//! artifacts), deadline purity (no cache entry from an expired request),
//! and client retries through panics and dropped connections.
//!
//! Every daemon is armed with a hard test-side watchdog: a hung daemon is
//! killed and the test fails instead of blocking the suite.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfc-serve-chaos-{name}-{}", std::process::id()))
}

/// The cheapest complete experiment: table1 on a 2x2 grid with one
/// particle. Distinct seeds make distinct cache keys.
fn run_request(id: u64, seed: u64) -> String {
    format!(
        r#"{{"id": {id}, "op": "run", "artifact": "table1", "scale": 9, "trials": 1, "seed": {seed}, "format": "plain"}}"#
    )
}

/// Move the child into a watchdog thread: the returned handle joins to its
/// exit status, and a daemon that outlives `limit` is killed (failing the
/// test and unblocking any reader waiting on its stdout).
fn spawn_watchdog(mut child: Child, limit: Duration) -> JoinHandle<ExitStatus> {
    std::thread::spawn(move || {
        let start = Instant::now();
        loop {
            if let Some(status) = child.try_wait().expect("poll daemon") {
                return status;
            }
            if start.elapsed() > limit {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon exceeded the hard test-side timeout");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    })
}

/// Cache-state triple: (entry dirs, `.tmp-*` staging debris, quarantine
/// slots). A missing cache directory counts as all-empty.
fn cache_state(cache: &Path) -> (usize, usize, usize) {
    let mut entries = 0;
    let mut tmp_debris = 0;
    let mut quarantined = 0;
    let Ok(dir) = std::fs::read_dir(cache) else {
        return (0, 0, 0);
    };
    for e in dir {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        if name.starts_with(".tmp-") {
            tmp_debris += 1;
        } else if name == ".quarantine" {
            quarantined += std::fs::read_dir(cache.join(&name)).unwrap().count();
        } else {
            entries += 1;
        }
    }
    (entries, tmp_debris, quarantined)
}

fn spawn_pipe_daemon(cache: &Path, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
        .args(["--pipe", "--cache", cache.to_str().unwrap()])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts")
}

/// Compute `seed`'s payload on a chaos-free daemon with a fresh cache — the
/// reference bytes chaos runs must reproduce exactly.
fn clean_payload(name: &str, seed: u64) -> String {
    let cache = tmp(name);
    let _ = std::fs::remove_dir_all(&cache);
    let mut child = spawn_pipe_daemon(&cache, &[]);
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{}", run_request(1, seed)).unwrap();
    drop(stdin);
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let reply: Value = serde_json::from_str(&lines.next().expect("a response").unwrap()).unwrap();
    assert_eq!(reply["ok"], true);
    let status = spawn_watchdog(child, Duration::from_secs(30))
        .join()
        .expect("watchdog");
    assert!(status.success());
    let payload = reply["payload"].as_str().unwrap().to_string();
    std::fs::remove_dir_all(&cache).ok();
    payload
}

#[test]
fn chaos_panic_gives_typed_errors_leaves_no_debris_and_recovers() {
    let cache = tmp("panic");
    let _ = std::fs::remove_dir_all(&cache);
    // Computation 2 panics; the 300 ms pre-compute window lets the second
    // identical request dedup into the doomed leader before it dies.
    let mut child = spawn_pipe_daemon(&cache, &["--chaos-panic", "2", "--chaos-compute-ms", "300"]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let watchdog = spawn_watchdog(child, Duration::from_secs(60));
    let mut read = || -> Value {
        let reply = lines.next().expect("a response line").unwrap();
        serde_json::from_str(&reply).expect("valid response JSON")
    };

    // Computation 1 (seed 31): clean.
    writeln!(stdin, "{}", run_request(1, 31)).unwrap();
    let warm = read();
    assert_eq!(warm["ok"], true, "{warm}");

    // Computation 2 (seed 32) panics. Leader and dedup follower must BOTH
    // get typed compute_panic errors — no hang (the watchdog enforces it).
    writeln!(stdin, "{}", run_request(2, 32)).unwrap();
    writeln!(stdin, "{}", run_request(3, 32)).unwrap();
    let (a, b) = (read(), read());
    for resp in [&a, &b] {
        assert_eq!(resp["ok"], false, "{resp}");
        assert_eq!(resp["error_kind"], "compute_panic", "{resp}");
        assert!(
            resp["error"].as_str().unwrap().contains("panicked"),
            "{resp}"
        );
    }
    let mut ids: Vec<u64> = [&a, &b].iter().map(|r| r["id"].as_u64().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![2, 3], "both requests answered exactly once");

    // The panicked computation left no state: only seed 31's entry, no
    // staging debris, no quarantine slots.
    assert_eq!(cache_state(&cache), (1, 0, 0));

    // An immediate re-request of the panicked spec (computation 3) computes
    // cleanly and matches the chaos-free path byte for byte.
    writeln!(stdin, "{}", run_request(4, 32)).unwrap();
    let recovered = read();
    assert_eq!(recovered["ok"], true, "{recovered}");
    assert_eq!(recovered["complete"], true);
    assert_eq!(
        recovered["payload"].as_str().unwrap(),
        clean_payload("panic-ref", 32),
        "post-panic artifact must be byte-identical to a clean run"
    );

    writeln!(stdin, r#"{{"id": 5, "op": "stats"}}"#).unwrap();
    let stats = read();
    assert_eq!(stats["stats"]["panics"], 1);
    assert_eq!(stats["stats"]["computations"], 2);

    drop(stdin);
    let status = watchdog.join().expect("daemon did not hang");
    assert!(status.success(), "daemon must exit cleanly after EOF");
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn deadline_expired_request_is_typed_and_leaves_no_cache_entry() {
    let cache = tmp("deadline");
    let _ = std::fs::remove_dir_all(&cache);
    // The 500 ms compute window dwarfs the 100 ms deadline, so the request
    // must come back deadline_exceeded and its late result be discarded.
    let mut child = spawn_pipe_daemon(
        &cache,
        &["--deadline-ms", "100", "--chaos-compute-ms", "500"],
    );
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let watchdog = spawn_watchdog(child, Duration::from_secs(60));

    writeln!(stdin, "{}", run_request(1, 33)).unwrap();
    let reply: Value = serde_json::from_str(&lines.next().expect("a response").unwrap()).unwrap();
    assert_eq!(reply["ok"], false, "{reply}");
    assert_eq!(reply["error_kind"], "deadline_exceeded", "{reply}");

    // Purity: an expired request leaves no cache entry, no staging debris,
    // no quarantine slots.
    assert_eq!(cache_state(&cache), (0, 0, 0));

    drop(stdin);
    assert!(watchdog.join().expect("no hang").success());
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn client_retries_through_chaos_panics() {
    let cache = tmp("retry-cache");
    let socket = tmp("retry.sock");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&socket);
    let socket_str = socket.to_str().unwrap().to_string();
    let daemon = Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
        .args(["--socket", &socket_str, "--cache", cache.to_str().unwrap()])
        .args(["--chaos-panic", "2"])
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let watchdog = spawn_watchdog(daemon, Duration::from_secs(60));
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(socket.exists(), "daemon never bound its socket");

    // Seed 41 is computation 1 (clean); seed 42 is computation 2 (panics),
    // and the client's retry recomputes it as computation 3.
    let out = Command::new(env!("CARGO_BIN_EXE_sfc-serve-client"))
        .args([
            "--socket",
            &socket_str,
            "--retries",
            "3",
            "--timeout-ms",
            "30000",
        ])
        .arg(run_request(1, 41))
        .arg(run_request(2, 42))
        .output()
        .expect("client runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let responses: Vec<Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid response"))
        .collect();
    assert_eq!(responses.len(), 2, "one final line per request");
    for resp in &responses {
        assert_eq!(resp["ok"], true, "retries must end in success: {resp}");
    }
    assert!(
        stderr.contains("compute_panic"),
        "the retried panic should be visible on stderr: {stderr}"
    );

    let bye = Command::new(env!("CARGO_BIN_EXE_sfc-serve-client"))
        .args(["--socket", &socket_str, "--retries", "3"])
        .arg(r#"{"id": 9, "op": "shutdown"}"#)
        .output()
        .expect("client runs");
    assert!(bye.status.success());
    assert!(watchdog.join().expect("no hang").success());
    assert!(!socket.exists(), "drain must remove the socket file");
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn client_reconnects_through_chaos_disconnects() {
    let cache = tmp("disconnect-cache");
    let socket = tmp("disconnect.sock");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&socket);
    let socket_str = socket.to_str().unwrap().to_string();
    let daemon = Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
        .args(["--socket", &socket_str, "--cache", cache.to_str().unwrap()])
        .args(["--chaos-disconnect", "2"])
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let pid = daemon.id().to_string();
    let watchdog = spawn_watchdog(daemon, Duration::from_secs(60));
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(socket.exists(), "daemon never bound its socket");

    // Response 2 (seed 52's first answer) is cut off mid-write; the client
    // must synthesize a transport error internally, reconnect, and re-ask —
    // the retry is answered from the cache the first (discarded) answer
    // already populated.
    let out = Command::new(env!("CARGO_BIN_EXE_sfc-serve-client"))
        .args([
            "--socket",
            &socket_str,
            "--retries",
            "3",
            "--timeout-ms",
            "30000",
        ])
        .arg(run_request(1, 51))
        .arg(run_request(2, 52))
        .output()
        .expect("client runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let responses: Vec<Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid response"))
        .collect();
    assert_eq!(responses.len(), 2);
    for resp in &responses {
        assert_eq!(resp["ok"], true, "{resp}");
    }
    assert!(
        stderr.contains("mid-response") || stderr.contains("closed the connection"),
        "the dropped response should be visible on stderr: {stderr}"
    );

    // Tear down with SIGTERM rather than the `shutdown` op: the chaos would
    // cut an even-numbered shutdown response too, and the retry could race
    // the drain removing the socket.
    let killed = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(killed.success());
    assert!(watchdog.join().expect("no hang").success());
    std::fs::remove_dir_all(&cache).ok();
    std::fs::remove_file(&socket).ok();
}
