//! End-to-end drain test: SIGTERM with a request in flight answers the
//! accepted request, refuses new connections with a typed error, flushes a
//! final stats line, removes the socket, and exits 0 with no partial cache
//! entries left behind.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfc-serve-drain-{name}-{}", std::process::id()))
}

#[test]
fn sigterm_drains_gracefully_under_load() {
    let cache = tmp("cache");
    let socket = tmp("daemon.sock");
    let stderr_path = tmp("stderr.log");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&socket);
    let socket_str = socket.to_str().unwrap().to_string();
    // The 800 ms compute window keeps the in-flight request alive long
    // enough to SIGTERM mid-computation and probe the drain behavior.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
        .args(["--socket", &socket_str, "--cache", cache.to_str().unwrap()])
        .args(["--chaos-compute-ms", "800"])
        .stderr(Stdio::from(std::fs::File::create(&stderr_path).unwrap()))
        .spawn()
        .expect("daemon starts");
    let pid = daemon.id().to_string();
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(socket.exists(), "daemon never bound its socket");

    // Put one request in flight and leave its response unread for now.
    let inflight = UnixStream::connect(&socket).expect("connect");
    inflight
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = inflight.try_clone().unwrap();
    writeln!(
        writer,
        r#"{{"id": 1, "op": "run", "artifact": "table1", "scale": 9, "trials": 1, "seed": 61, "format": "plain"}}"#
    )
    .unwrap();
    writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // SIGTERM mid-computation.
    let killed = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(killed.success(), "kill -TERM failed");
    std::thread::sleep(Duration::from_millis(150));

    // A connection arriving during the drain gets one typed refusal line.
    let late = UnixStream::connect(&socket).expect("drain keeps the listener alive");
    late.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut refusal = String::new();
    BufReader::new(late).read_line(&mut refusal).unwrap();
    let refusal: Value = serde_json::from_str(&refusal).expect("typed refusal line");
    assert_eq!(refusal["ok"], false, "{refusal}");
    assert_eq!(refusal["error_kind"], "draining", "{refusal}");

    // The accepted request is still answered in full.
    let mut response = String::new();
    BufReader::new(inflight).read_line(&mut response).unwrap();
    let response: Value = serde_json::from_str(&response).expect("complete response");
    assert_eq!(response["ok"], true, "{response}");
    assert_eq!(response["complete"], true);
    assert!(!response["payload"].as_str().unwrap().is_empty());

    // Clean exit: status 0, socket removed, final stats flushed to stderr.
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > Duration::from_secs(30) {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("daemon did not finish draining within the hard timeout");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "drain must exit 0, got {status}");
    assert!(!socket.exists(), "drain must remove the socket file");
    let stderr = std::fs::read_to_string(&stderr_path).unwrap();
    assert!(
        stderr.contains("final stats"),
        "drain must flush a final stats line: {stderr}"
    );
    assert!(stderr.contains("\"computations\":"), "{stderr}");

    // The answered request's artifact is cached completely: one entry, no
    // staging debris, no quarantine.
    let names: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), 1, "exactly one complete entry: {names:?}");
    assert!(!names[0].starts_with('.'), "no partial entries: {names:?}");
    assert!(
        cache.join(&names[0]).join("artifact.json").exists(),
        "the entry must be fully published"
    );

    std::fs::remove_dir_all(&cache).ok();
    std::fs::remove_file(&stderr_path).ok();
}
