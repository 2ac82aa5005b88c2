//! End-to-end socket tests for the worker pool and the two-tier cache:
//! warm hits come from the memory tier byte-identically, a daemon restart
//! (cold memory, warm disk) replays the same bytes at zero computations,
//! and accept-queue overflow answers a typed `overloaded` refusal with a
//! `retry_after_ms` hint instead of growing a thread per connection.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfc-serve-pool-{name}-{}", std::process::id()))
}

fn spawn_daemon(socket: &Path, extra: &[&str]) -> Child {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
        .args(["--socket", socket.to_str().unwrap()])
        .args(extra)
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    for _ in 0..200 {
        if socket.exists() {
            return daemon;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = daemon.kill();
    let _ = daemon.wait();
    panic!("daemon never bound its socket");
}

fn sigterm_and_wait(mut daemon: Child, socket: &Path) {
    let _ = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status();
    let start = std::time::Instant::now();
    loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            assert!(
                status.success(),
                "daemon must drain to exit 0, got {status}"
            );
            break;
        }
        if start.elapsed() > Duration::from_secs(30) {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("daemon did not exit after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = std::fs::remove_file(socket);
}

/// One request/response exchange on an open connection.
fn ask(writer: &mut UnixStream, reader: &mut BufReader<UnixStream>, line: &str) -> Value {
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    serde_json::from_str(&response).expect("one JSON response line")
}

fn connect(socket: &Path) -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

const RUN: &str = r#"{"id": 1, "op": "run", "artifact": "table1", "scale": 9, "trials": 1, "seed": 67, "format": "plain"}"#;

#[test]
fn warm_hits_come_from_memory_and_survive_a_restart_byte_identically() {
    let cache = tmp("warm-cache");
    let socket = tmp("warm.sock");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&socket);
    let cache_str = cache.to_str().unwrap().to_string();

    let daemon = spawn_daemon(
        &socket,
        &[
            "--cache",
            &cache_str,
            "--workers",
            "2",
            "--cache-mem-mb",
            "64",
        ],
    );
    let (mut w, mut r) = connect(&socket);
    let cold = ask(&mut w, &mut r, RUN);
    assert_eq!(cold["ok"], true, "{cold}");
    assert_eq!(cold["hit"], false);
    let payload = cold["payload"].as_str().unwrap().to_string();
    assert!(!payload.is_empty());

    // Repeats are memory hits: same bytes, no disk tier involvement.
    for _ in 0..2 {
        let warm = ask(&mut w, &mut r, RUN);
        assert_eq!(warm["hit"], true, "{warm}");
        assert_eq!(warm["payload"].as_str().unwrap(), payload);
    }
    let stats = ask(&mut w, &mut r, r#"{"op": "stats"}"#);
    let body = &stats["stats"];
    assert_eq!(body["computations"], 1u64, "{body}");
    assert_eq!(body["mem_hits"], 2u64, "{body}");
    assert_eq!(body["disk_hits"], 0u64, "{body}");
    assert!(body["mem_bytes"].as_u64().unwrap() > 0, "{body}");
    // The per-op histograms saw both serve paths.
    for op in ["run_compute", "run_mem_hit"] {
        assert!(
            body["latency_us"][op]["count"].as_u64().unwrap() > 0,
            "latency histogram for {op}: {body}"
        );
    }
    drop((w, r));
    sigterm_and_wait(daemon, &socket);

    // A fresh daemon over the same cache dir: memory is cold, disk is warm.
    // The first repeat verifies from disk (and promotes), the second comes
    // from memory — all byte-identical, zero recomputation.
    let daemon = spawn_daemon(
        &socket,
        &[
            "--cache",
            &cache_str,
            "--workers",
            "2",
            "--cache-mem-mb",
            "64",
        ],
    );
    let (mut w, mut r) = connect(&socket);
    let from_disk = ask(&mut w, &mut r, RUN);
    let from_mem = ask(&mut w, &mut r, RUN);
    assert_eq!(from_disk["hit"], true, "{from_disk}");
    assert_eq!(from_disk["payload"].as_str().unwrap(), payload);
    assert_eq!(from_mem["hit"], true, "{from_mem}");
    assert_eq!(from_mem["payload"].as_str().unwrap(), payload);
    let stats = ask(&mut w, &mut r, r#"{"op": "stats"}"#);
    let body = &stats["stats"];
    assert_eq!(body["computations"], 0u64, "{body}");
    assert_eq!(body["disk_hits"], 1u64, "{body}");
    assert_eq!(body["mem_hits"], 1u64, "{body}");
    drop((w, r));
    sigterm_and_wait(daemon, &socket);

    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn accept_queue_overflow_answers_a_typed_overloaded_refusal() {
    let cache = tmp("overflow-cache");
    let socket = tmp("overflow.sock");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&socket);

    // One worker and a slow computation: the single worker is pinned to the
    // first connection, the bounded queue (2 * workers slots) absorbs two
    // more, and every further connection must be refused at accept.
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--cache",
            cache.to_str().unwrap(),
            "--workers",
            "1",
            "--chaos-compute-ms",
            "3000",
        ],
    );

    let (mut busy_w, mut busy_r) = connect(&socket);
    writeln!(busy_w, "{RUN}").unwrap();
    busy_w.flush().unwrap();
    // Give the worker a moment to pull the busy connection off the queue.
    std::thread::sleep(Duration::from_millis(300));

    // Fill the queue, then keep connecting until a refusal arrives (the
    // exact refusal point depends on how fast accepts raced the fill).
    let mut parked = Vec::new();
    let mut refusal = None;
    for _ in 0..8 {
        let (stream, mut reader) = connect(&socket);
        // An overflow connection gets one line without sending anything.
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                refusal = Some(serde_json::from_str::<Value>(&line).expect("typed refusal"));
                break;
            }
            _ => parked.push((stream, reader)), // queued, not refused: keep it open
        }
    }
    let refusal = refusal.expect("some connection past the queue capacity must be refused");
    assert_eq!(refusal["ok"], false, "{refusal}");
    assert_eq!(refusal["error_kind"], "overloaded", "{refusal}");
    assert!(
        refusal["retry_after_ms"].as_u64().unwrap() >= 250,
        "{refusal}"
    );

    // The busy connection still gets its full answer: refusing overflow
    // never corrupts accepted work.
    let mut response = String::new();
    busy_r.read_line(&mut response).unwrap();
    let response: Value = serde_json::from_str(&response).expect("complete response");
    assert_eq!(response["ok"], true, "{response}");

    drop(parked);
    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_file(&socket);
    std::fs::remove_dir_all(&cache).ok();
}
