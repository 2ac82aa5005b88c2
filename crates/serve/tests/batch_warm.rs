//! End-to-end tests for the batch pipeline and the background cache
//! warmer, through real transports and the real client binary: a warm
//! file (full canonical specs, the `--emit-specs` format) is computed in
//! the background, after which a `--batch-file` replay of the same grid is
//! all hits with payloads byte-identical to standalone runs; and pipe
//! mode streams batch item lines ahead of the `batch_done` summary.

use serde_json::Value;
use sfc_core::spec::ExperimentSpec;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfc-serve-bw-{name}-{}", std::process::id()))
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
    let start = Instant::now();
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

/// Run the real client binary and return its stdout lines.
fn client(socket: &Path, args: &[&str]) -> Vec<Value> {
    let out = Command::new(env!("CARGO_BIN_EXE_sfc-serve-client"))
        .args(["--socket", socket.to_str().unwrap()])
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("client runs");
    assert!(
        out.status.success(),
        "client exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("JSON line"))
        .collect()
}

/// The trivial table1 grid at scale 9, varied by seed — the same cells the
/// unit tests use, written as *full canonical specs*, which is exactly
/// what `sfc-bench --emit-specs` emits for warming.
fn spec_file(path: &Path, seeds: &[u64]) {
    let lines: Vec<String> = seeds
        .iter()
        .map(|s| ExperimentSpec::table1(9, 1, *s).canonical_string())
        .collect();
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
}

#[test]
fn warm_file_then_batch_file_replays_the_grid_without_computing() {
    let cache = tmp("warm-cache");
    let socket = tmp("warm.sock");
    let specs = tmp("warm.specs");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&socket);
    spec_file(&specs, &[91, 92, 93]);

    // Explicit --workers: on a single-core box the default pool is one
    // worker, and this test holds a stats connection open while the batch
    // client connects — with one worker the batch would starve in the
    // accept queue behind the held connection.
    let daemon = spawn_daemon(
        &socket,
        &[
            "--cache",
            cache.to_str().unwrap(),
            "--warm-workers",
            "1",
            "--workers",
            "2",
        ],
    );

    // Enqueue the grid for background warming through the real client.
    let warm = client(&socket, &["--warm-file", specs.to_str().unwrap()]);
    assert_eq!(warm.len(), 1, "one response line for the warm request");
    assert_eq!(warm[0]["ok"], true, "{}", warm[0]);
    assert_eq!(warm[0]["queued"], 3u64, "{}", warm[0]);

    // The warmers compute the backlog in the background.
    {
        let (mut w, mut r) = connect(&socket);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = ask(&mut w, &mut r, r#"{"op": "stats"}"#);
            if stats["stats"]["warm_computed"].as_u64() == Some(3) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "warmers never finished: {}",
                stats["stats"]
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // Close the polling connection before the batch client runs so it
        // cannot pin a worker while the batch connection waits.
    }

    // Replaying the same grid as a batch is pure cache: every item a hit,
    // payloads byte-identical to a standalone run, nothing recomputed.
    let lines = client(&socket, &["--batch-file", specs.to_str().unwrap()]);
    let (mut w, mut r) = connect(&socket);
    assert_eq!(lines.len(), 4, "3 item lines + batch_done: {lines:?}");
    let done = lines.last().unwrap();
    assert_eq!(done["batch_done"], true, "{done}");
    assert_eq!(done["ok"], true, "{done}");
    assert_eq!(done["items"], 3u64, "{done}");
    assert_eq!(done["ok_items"], 3u64, "{done}");
    assert_eq!(
        done["hits"], 3u64,
        "every warmed item must be a hit: {done}"
    );
    for item in &lines[..3] {
        assert_eq!(item["ok"], true, "{item}");
        assert_eq!(item["hit"], true, "{item}");
        let index = item["index"].as_u64().expect("item lines carry an index") as usize;
        let standalone = ask(
            &mut w,
            &mut r,
            &format!(
                r#"{{"id": 1, "op": "run", "artifact": "table1", "scale": 9, "trials": 1, "seed": {}}}"#,
                [91u64, 92, 93][index]
            ),
        );
        assert_eq!(
            item["payload"], standalone["payload"],
            "batch item {index} must be byte-identical to its standalone run"
        );
    }

    let stats = ask(&mut w, &mut r, r#"{"op": "stats"}"#);
    let body = &stats["stats"];
    assert_eq!(
        body["computations"], 3u64,
        "only the warmers computed — the batch replayed: {body}"
    );
    assert_eq!(body["warm_queued"], 3u64, "{body}");
    assert_eq!(body["warm_dropped"], 0u64, "{body}");
    let health = ask(&mut w, &mut r, r#"{"op": "health"}"#);
    assert_eq!(health["health"]["warm_queue_depth"], 0u64, "{health}");

    drop((w, r));
    sigterm_and_wait(daemon, &socket);
    std::fs::remove_dir_all(&cache).ok();
    let _ = std::fs::remove_file(&specs);
}

#[test]
fn pipe_mode_streams_batch_item_lines_before_the_summary() {
    let cache = tmp("pipe-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sfc-serve"))
        .args(["--pipe", "--cache", cache.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("pipe daemon starts");
    let mut stdin = daemon.stdin.take().unwrap();
    writeln!(
        stdin,
        r#"{{"id": "p", "op": "batch", "defaults": {{"artifact": "table1", "scale": 9, "trials": 1}}, "items": [{{"seed": 95}}, {{"seed": 96}}]}}"#
    )
    .unwrap();
    drop(stdin); // EOF ends the daemon after it answers

    let out = daemon.wait_with_output().expect("daemon exits at EOF");
    assert!(out.status.success());
    let lines: Vec<Value> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("JSON line"))
        .collect();
    assert_eq!(lines.len(), 3, "2 item lines then batch_done: {lines:?}");
    let mut indexes: Vec<u64> = lines[..2]
        .iter()
        .map(|l| l["index"].as_u64().expect("item line has an index"))
        .collect();
    indexes.sort_unstable();
    assert_eq!(indexes, vec![0, 1]);
    for item in &lines[..2] {
        assert_eq!(item["ok"], true, "{item}");
        assert_eq!(item["id"], "p", "{item}");
    }
    let done = &lines[2];
    assert_eq!(done["batch_done"], true, "last line is the summary: {done}");
    assert_eq!(done["ok_items"], 2u64, "{done}");

    std::fs::remove_dir_all(&cache).ok();
}
