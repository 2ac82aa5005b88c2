//! End-to-end tests of the `sfc-serve` binary: pipe mode (request/replay/
//! dedup/stats/shutdown over stdin/stdout) and socket mode via the client
//! binary.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfc-serve-e2e-{name}-{}", std::process::id()))
}

/// The cheapest complete experiment: table1 on a 2x2 grid with one particle.
fn run_request(id: u64) -> String {
    format!(
        r#"{{"id": {id}, "op": "run", "artifact": "table1", "scale": 9, "trials": 1, "seed": 3, "format": "plain"}}"#
    )
}

fn spawn_pipe_daemon(cache: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
        .args(["--pipe", "--cache", cache])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts")
}

#[test]
fn pipe_mode_serves_repeats_from_cache_and_shuts_down() {
    let cache = tmp("repeat");
    let _ = std::fs::remove_dir_all(&cache);
    let mut child = spawn_pipe_daemon(cache.to_str().unwrap(), &[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut ask = |line: &str| -> Value {
        writeln!(stdin, "{line}").unwrap();
        let reply = lines.next().expect("a response line").unwrap();
        serde_json::from_str(&reply).expect("valid response JSON")
    };

    let first = ask(&run_request(1));
    assert_eq!(first["ok"], true);
    assert_eq!(first["hit"], false);
    assert_eq!(first["complete"], true);

    let second = ask(&run_request(2));
    assert_eq!(second["id"], 2);
    assert_eq!(second["hit"], true);
    assert_eq!(
        first["payload"], second["payload"],
        "cache replay must be byte-identical"
    );

    let stats = ask(r#"{"id": 3, "op": "stats"}"#);
    assert_eq!(stats["stats"]["runs"], 2);
    assert_eq!(stats["stats"]["hits"], 1);
    assert_eq!(stats["stats"]["computations"], 1);

    let bye = ask(r#"{"id": 4, "op": "shutdown"}"#);
    assert_eq!(bye["shutting_down"], true);
    drop(stdin);
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn pipe_mode_dedups_concurrent_identical_requests() {
    let cache = tmp("dedup");
    let _ = std::fs::remove_dir_all(&cache);
    // 600 ms of pre-compute chaos holds the in-flight slot open long enough
    // that the second request reliably lands inside the window.
    let mut child = spawn_pipe_daemon(cache.to_str().unwrap(), &["--chaos-compute-ms", "600"]);
    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "{}", run_request(1)).unwrap();
        writeln!(stdin, "{}", run_request(2)).unwrap();
        // stdin drops here: EOF after both requests are in flight.
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let responses: Vec<Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid response JSON"))
        .collect();
    assert_eq!(responses.len(), 2);

    let deduped: Vec<bool> = responses
        .iter()
        .map(|r| r["deduped"].as_bool().unwrap())
        .collect();
    assert_eq!(
        deduped.iter().filter(|&&d| d).count(),
        1,
        "exactly one of two concurrent identical requests must dedup: {responses:?}"
    );
    assert_eq!(
        responses[0]["payload"], responses[1]["payload"],
        "deduped response must carry the identical payload"
    );
    assert_eq!(responses[0]["key"], responses[1]["key"]);
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn pipe_mode_answers_garbage_without_dying() {
    let cache = tmp("garbage");
    let _ = std::fs::remove_dir_all(&cache);
    let mut child = spawn_pipe_daemon(cache.to_str().unwrap(), &[]);
    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "this is not json").unwrap();
        writeln!(stdin, r#"{{"id": 9, "op": "stats"}}"#).unwrap();
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let responses: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().any(|r| r["ok"] == false));
    assert!(responses
        .iter()
        .any(|r| r["id"] == 9 && r["stats"]["requests"].as_u64().is_some()));
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn socket_mode_serves_the_client_binary() {
    let cache = tmp("socket-cache");
    let socket = tmp("daemon.sock");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&socket);
    let socket_str = socket.to_str().unwrap().to_string();
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
        .args(["--socket", &socket_str, "--cache", cache.to_str().unwrap()])
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    // Wait for the socket to appear.
    for _ in 0..100 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(socket.exists(), "daemon never bound its socket");

    let client = |requests: &[&str]| -> Vec<Value> {
        let out = Command::new(env!("CARGO_BIN_EXE_sfc-serve-client"))
            .args(["--socket", &socket_str])
            .args(requests)
            .output()
            .expect("client runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid response"))
            .collect()
    };

    let first = client(&[&run_request(1)]);
    assert_eq!(first[0]["hit"], false);
    // A second connection sees the cache, not a fresh computation.
    let second = client(&[&run_request(2), r#"{"id": 3, "op": "stats"}"#]);
    assert_eq!(second[0]["hit"], true);
    assert_eq!(first[0]["payload"], second[0]["payload"]);
    assert_eq!(second[1]["stats"]["computations"], 1);

    let bye = client(&[r#"{"id": 4, "op": "shutdown"}"#]);
    assert_eq!(bye[0]["shutting_down"], true);
    assert!(daemon.wait().unwrap().success());
    std::fs::remove_dir_all(&cache).ok();
    std::fs::remove_file(&socket).ok();
}

/// Wait up to `limit` for `child` to exit; a daemon still running then is
/// killed and reported as `None`.
fn exit_within(child: &mut Child, limit: std::time::Duration) -> Option<std::process::ExitStatus> {
    let start = std::time::Instant::now();
    while start.elapsed() < limit {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

#[test]
fn pipe_mode_drains_on_sigterm_and_shutdown_while_stdin_stays_open() {
    for trigger in ["sigterm", "shutdown"] {
        let cache = tmp(&format!("drain-{trigger}"));
        let stderr_path = tmp(&format!("drain-{trigger}.err"));
        let _ = std::fs::remove_dir_all(&cache);
        let mut child = Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
            .args(["--pipe", "--cache", cache.to_str().unwrap()])
            .args(["--chaos-compute-ms", "400"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(std::fs::File::create(&stderr_path).unwrap()))
            .spawn()
            .expect("daemon starts");
        // `stdin` stays open until the end of the test: only the signal or
        // the `shutdown` op may stop the daemon.
        let mut stdin = child.stdin.take().unwrap();
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        writeln!(stdin, r#"{{"id": 0, "op": "stats"}}"#).unwrap();
        lines.next().expect("the daemon answers").unwrap();

        // A request in flight when the drain starts is still answered.
        writeln!(stdin, "{}", run_request(1)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100));
        if trigger == "sigterm" {
            let killed = Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .unwrap();
            assert!(killed.success());
        } else {
            writeln!(stdin, r#"{{"id": 2, "op": "shutdown"}}"#).unwrap();
        }
        let expected = if trigger == "sigterm" { 1 } else { 2 };
        let mut replies: Vec<Value> = lines
            .by_ref()
            .take(expected)
            .map(|l| serde_json::from_str(&l.unwrap()).expect("valid response JSON"))
            .collect();
        replies.sort_by_key(|r| r["id"].as_u64());
        let run = &replies[0];
        assert_eq!(run["id"], 1, "{trigger}: {replies:?}");
        assert_eq!(run["ok"], true, "{trigger}: {run}");
        assert_eq!(run["complete"], true, "{trigger}: {run}");

        let status = exit_within(&mut child, std::time::Duration::from_secs(5));
        assert!(
            status.is_some_and(|s| s.success()),
            "{trigger} must drain to exit 0 with stdin still open, got {status:?}"
        );
        let stderr = std::fs::read_to_string(&stderr_path).unwrap();
        assert!(stderr.contains("final stats"), "{trigger}: {stderr}");
        drop(stdin);
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&stderr_path).ok();
    }
}

/// Every request line runs on its own thread; a finished thread must give
/// its stack back instead of keeping it mapped until stdin closes.
#[cfg(target_os = "linux")]
#[test]
fn pipe_mode_releases_finished_request_threads() {
    let cache = tmp("maps");
    let _ = std::fs::remove_dir_all(&cache);
    let mut child = spawn_pipe_daemon(cache.to_str().unwrap(), &[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let maps_path = format!("/proc/{}/maps", child.id());
    let mappings = || std::fs::read_to_string(&maps_path).unwrap().lines().count();
    let mut stats = || {
        writeln!(stdin, r#"{{"op": "stats"}}"#).unwrap();
        lines.next().expect("a response line").unwrap();
    };
    stats();
    let before = mappings();
    // One line at a time, so at most a couple of request threads are ever
    // alive together: kept thread handles show up as two mappings per line.
    for _ in 0..100 {
        stats();
    }
    let start = std::time::Instant::now();
    let mut after = mappings();
    while after > before + 40 && start.elapsed() < std::time::Duration::from_secs(3) {
        std::thread::sleep(std::time::Duration::from_millis(20));
        after = mappings();
    }
    assert!(
        after <= before + 40,
        "100 answered lines grew the daemon from {before} to {after} mappings"
    );
    drop(stdin);
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&cache).ok();
}
