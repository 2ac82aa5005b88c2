//! Client for an `sfc-serve --socket` daemon: send one request per trailing
//! argument (or per stdin line when no arguments are given) and print each
//! final response line to stdout.
//!
//! ```text
//! sfc-serve-client --socket /tmp/sfc.sock '{"op":"stats"}'
//! sfc-serve-client --socket /tmp/sfc.sock --retries 3 --timeout-ms 5000 \
//!     '{"id":1,"op":"run","artifact":"table1","scale":5,"trials":1}'
//! ```
//!
//! The client never hangs: reads and writes are bounded by `--timeout-ms`
//! (default 30000; 0 disables), and a connection that dies mid-response
//! (EOF before the newline) becomes a typed `error_kind: "transport"`
//! failure instead of a blocked `read_line`.
//!
//! With `--retries N`, failures whose `error_kind` is retryable per
//! `sfc_bench::harness::error_kind::is_retryable` (`overloaded`,
//! `compute_panic`, `transport`) are retried on a fresh connection with
//! exponential backoff and decorrelated jitter; when the daemon's refusal
//! carries a `retry_after_ms` hint the client sleeps the *larger* of the
//! hint and its own jitter. Non-retryable failures (`bad_request`,
//! `deadline_exceeded`, `draining`) are printed as-is.
//!
//! Exactly one line is printed per request: the daemon's final response, or
//! a synthesized `{"ok":false,"error_kind":"transport",...}` object when
//! the daemon never answered. Exit status: 0 when every request got a
//! daemon response (even `ok: false` ones), 1 when any request ended in a
//! synthesized transport failure, 2 on usage errors.
//!
//! `--batch-file PATH` wraps the file's JSON-object lines (shorthand run
//! fields or full canonical specs — the same shapes a `run` accepts) into
//! one `batch` request and prints every per-item line as it streams back,
//! then the `batch_done` summary. Batches are never retried: items already
//! served before a fault would be recomputed by a blind resend, so a
//! transport fault mid-stream synthesizes one transport line and exits 1,
//! leaving the retry decision to the caller. `--warm-file PATH` wraps the
//! same line format into one `warm` request, which flows through the
//! normal (retryable — `warm_queue_full` backs off and retries) path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{Map, ToJson, Value};
use sfc_bench::harness::error_kind;
use sfc_serve::response::{HealthResponse, StatsResponse, SCHEMA_VERSION};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

const DEFAULT_TIMEOUT_MS: u64 = 30_000;
const BACKOFF_BASE_MS: u64 = 25;
const BACKOFF_CAP_MS: u64 = 2_000;

fn usage() -> String {
    "usage: sfc-serve-client --socket PATH [options] [REQUEST_JSON...]\n\
     \n\
     --socket PATH     daemon socket path (required)\n\
     --timeout-ms N    read/write timeout per attempt (default 30000; 0 = none)\n\
     --retries N       retry retryable failures up to N times (default 0)\n\
     --batch-file P    send P's JSON-object lines as one `batch` request and\n\
                       stream the per-item responses (never retried)\n\
     --warm-file P     send P's JSON-object lines as one `warm` request\n\
     \n\
     With no trailing request arguments (and neither file flag), requests\n\
     are read from stdin, one JSON object per line.\n"
        .to_string()
}

struct Flags {
    socket: String,
    timeout: Option<Duration>,
    retries: u64,
    batch_request: Option<String>,
    requests: Vec<String>,
}

/// Parse a warm/batch spec file: one JSON object per non-empty line —
/// either shorthand run fields (`{"artifact":"table1","scale":4}`) or a
/// full canonical spec as emitted by `sfc-bench --emit-specs`.
fn items_from_file(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut items = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc: Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: not a JSON object: {e}", i + 1))?;
        if !matches!(doc, Value::Object(_)) {
            return Err(format!("{path}:{}: each line must be a JSON object", i + 1));
        }
        items.push(doc);
    }
    if items.is_empty() {
        return Err(format!("`{path}` contains no spec lines"));
    }
    Ok(items)
}

/// Wrap a spec file into one `{"op": <op>, "items": [...]}` request line.
fn file_request(op: &str, path: &str) -> Result<String, String> {
    let items = items_from_file(path)?;
    let mut doc = Map::new();
    doc.insert("id", (format!("{op}-file")).to_json());
    doc.insert("op", (op).to_json());
    doc.insert("items", Value::Array(items));
    Ok(serde_json::to_string(&Value::Object(doc)).expect("serialize file request"))
}

fn parse_flags() -> Result<Flags, String> {
    let mut socket = None;
    let mut timeout_ms = DEFAULT_TIMEOUT_MS;
    let mut retries = 0;
    let mut batch_file = None;
    let mut warm_file = None;
    let mut requests = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(it.next().ok_or("--socket needs a path")?),
            "--batch-file" => batch_file = Some(it.next().ok_or("--batch-file needs a path")?),
            "--warm-file" => warm_file = Some(it.next().ok_or("--warm-file needs a path")?),
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                timeout_ms = v
                    .parse()
                    .map_err(|_| format!("--timeout-ms: `{v}` is not a number"))?;
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                retries = v
                    .parse()
                    .map_err(|_| format!("--retries: `{v}` is not a number"))?;
            }
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            _ => requests.push(arg),
        }
    }
    let socket = socket.ok_or_else(|| format!("--socket PATH is required\n{}", usage()))?;
    if (batch_file.is_some() || warm_file.is_some()) && !requests.is_empty() {
        return Err("--batch-file/--warm-file cannot be combined with trailing requests".into());
    }
    if batch_file.is_some() && warm_file.is_some() {
        return Err("--batch-file and --warm-file are mutually exclusive".into());
    }
    let batch_request = match &batch_file {
        Some(path) => Some(file_request("batch", path)?),
        None => None,
    };
    if let Some(path) = &warm_file {
        requests.push(file_request("warm", path)?);
    }
    if requests.is_empty() && batch_request.is_none() {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read requests from stdin: {e}"))?;
        requests = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect();
    }
    Ok(Flags {
        socket,
        timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        retries,
        batch_request,
        requests,
    })
}

/// A connection with bounded reads and writes. Reconnecting is the caller's
/// job (a failed exchange drops the whole connection).
struct Connection {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Connection {
    fn open(path: &str, timeout: Option<Duration>) -> Result<Connection, String> {
        let stream =
            UnixStream::connect(path).map_err(|e| format!("cannot connect to `{path}`: {e}"))?;
        stream
            .set_read_timeout(timeout)
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        stream
            .set_write_timeout(timeout)
            .map_err(|e| format!("cannot set write timeout: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone socket: {e}"))?,
        );
        Ok(Connection {
            writer: stream,
            reader,
        })
    }

    /// Send one request line and read one response line. Any transport
    /// fault — timeout, EOF before a newline, I/O error — is an `Err` with
    /// a human-readable reason; the connection must then be discarded.
    fn exchange(&mut self, request: &str) -> Result<String, String> {
        self.send(request)?;
        self.read_response_line()
    }

    fn send(&mut self, request: &str) -> Result<(), String> {
        writeln!(self.writer, "{request}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write failed: {e}"))
    }

    /// Read one complete response line, mapping every transport fault to a
    /// human-readable reason.
    fn read_response_line(&mut self) -> Result<String, String> {
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err("timed out waiting for the response".to_string())
            }
            Err(e) => Err(format!("read failed: {e}")),
            Ok(0) => Err("daemon closed the connection before responding".to_string()),
            Ok(_) if !response.ends_with('\n') => {
                Err("connection dropped mid-response".to_string())
            }
            Ok(_) => Ok(response.trim_end().to_string()),
        }
    }
}

/// Decorrelated-jitter backoff (classic AWS recipe): each delay is drawn
/// from `[base, prev * 3]`, capped. Spreads concurrent retries apart
/// instead of letting them stampede in lockstep.
struct Backoff {
    rng: StdRng,
    prev_ms: u64,
}

impl Backoff {
    fn new(seed: u64) -> Backoff {
        Backoff {
            rng: StdRng::seed_from_u64(seed),
            prev_ms: BACKOFF_BASE_MS,
        }
    }

    fn next_delay(&mut self) -> Duration {
        let high = (self.prev_ms.saturating_mul(3)).clamp(BACKOFF_BASE_MS + 1, BACKOFF_CAP_MS);
        self.prev_ms = self.rng.gen_range(BACKOFF_BASE_MS..=high);
        Duration::from_millis(self.prev_ms)
    }
}

/// The `error_kind` of an `ok: false` response line plus the daemon's
/// `retry_after_ms` hint when it sent one (`overloaded` refusals do).
fn response_failure(line: &str) -> Option<(String, Option<u64>)> {
    let doc: Value = serde_json::from_str(line).ok()?;
    if doc.get("ok") == Some(&Value::Bool(false)) {
        let kind = doc
            .get("error_kind")
            .and_then(Value::as_str)
            .map(str::to_string)?;
        let hint = doc.get("retry_after_ms").and_then(Value::as_u64);
        Some((kind, hint))
    } else {
        None
    }
}

/// The delay before the next attempt: the larger of the daemon's
/// `retry_after_ms` hint and our own decorrelated jitter. The hint is the
/// daemon saying "don't come back sooner than this"; the jitter keeps
/// concurrent clients from stampeding back in lockstep the instant the
/// hint expires — ignoring either reintroduces the problem the other
/// solves.
fn retry_delay(hint_ms: Option<u64>, jitter: Duration) -> Duration {
    match hint_ms {
        Some(ms) => jitter.max(Duration::from_millis(ms)),
        None => jitter,
    }
}

/// Cross-check any `stats`/`health` body in a response line against the
/// versioned wire structs the daemon serializes ([`sfc_serve::response`]).
/// Returns a warning when the daemon speaks a different `schema_version`
/// than this client was built for, or when the body no longer parses as
/// the struct at all (renamed or missing fields). The response line is
/// printed verbatim either way — the warning goes to stderr so scripted
/// consumers of stdout are unaffected.
fn schema_drift_warning(line: &str) -> Option<String> {
    let doc: Value = serde_json::from_str(line).ok()?;
    if let Some(body) = doc.get("stats") {
        return match StatsResponse::from_json(body) {
            Ok(stats) if stats.schema_version != SCHEMA_VERSION => Some(format!(
                "daemon stats are schema v{}, this client expects v{SCHEMA_VERSION}",
                stats.schema_version
            )),
            Ok(_) => None,
            Err(e) => Some(format!(
                "stats body does not match schema v{SCHEMA_VERSION}: {e}"
            )),
        };
    }
    let body = doc.get("health")?;
    match HealthResponse::from_json(body) {
        Ok(health) if health.schema_version != SCHEMA_VERSION => Some(format!(
            "daemon health is schema v{}, this client expects v{SCHEMA_VERSION}",
            health.schema_version
        )),
        Ok(_) => None,
        Err(e) => Some(format!(
            "health body does not match schema v{SCHEMA_VERSION}: {e}"
        )),
    }
}

/// Synthesize the one-line transport failure printed when the daemon never
/// produced a (complete) response, echoing the request's `id` when it has
/// one so callers can still correlate.
fn transport_error_line(request: &str, reason: &str, attempts: u64) -> String {
    let id = serde_json::from_str::<Value>(request)
        .ok()
        .and_then(|doc| doc.get("id").cloned())
        .unwrap_or(Value::Null);
    let mut doc = Map::new();
    doc.insert("id", id);
    doc.insert("ok", Value::Bool(false));
    doc.insert("error_kind", error_kind::TRANSPORT.to_json());
    doc.insert("error", (reason).to_json());
    doc.insert("attempts", (attempts).to_json());
    serde_json::to_string(&Value::Object(doc)).expect("serialize transport error")
}

/// Run one request to completion: at most `1 + retries` attempts, retrying
/// only retryable kinds, reconnecting after transport faults. Returns the
/// line to print and whether the daemon ever answered.
fn run_request(
    conn: &mut Option<Connection>,
    flags: &Flags,
    backoff: &mut Backoff,
    request: &str,
) -> (String, bool) {
    let attempts = 1 + flags.retries;
    let mut last_transport_reason = String::new();
    let mut retry_hint_ms: Option<u64> = None;
    for attempt in 1..=attempts {
        if attempt > 1 {
            let delay = retry_delay(retry_hint_ms.take(), backoff.next_delay());
            eprintln!(
                "# client: attempt {attempt}/{attempts} after {}ms backoff",
                delay.as_millis()
            );
            std::thread::sleep(delay);
        }
        if conn.is_none() {
            match Connection::open(&flags.socket, flags.timeout) {
                Ok(c) => *conn = Some(c),
                Err(reason) => {
                    eprintln!("# client: {reason}");
                    last_transport_reason = reason;
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connection just ensured");
        match c.exchange(request) {
            Ok(line) => match response_failure(&line) {
                Some((kind, hint)) if error_kind::is_retryable(&kind) && attempt < attempts => {
                    match hint {
                        Some(ms) => eprintln!(
                            "# client: daemon answered `{kind}` (retry_after_ms {ms}); retrying"
                        ),
                        None => eprintln!("# client: daemon answered `{kind}`; retrying"),
                    }
                    retry_hint_ms = hint;
                }
                _ => return (line, true),
            },
            Err(reason) => {
                eprintln!("# client: {reason}");
                *conn = None; // a failed exchange poisons the connection
                last_transport_reason = reason;
            }
        }
    }
    // Out of attempts. If the last attempt got a retryable *daemon* answer
    // we already returned it above (attempt == attempts falls through the
    // `_` arm), so reaching here means the final attempt was a transport
    // fault or a failed (re)connect.
    (
        transport_error_line(request, &last_transport_reason, attempts),
        false,
    )
}

/// Run one `batch` request, printing every streamed line (per-item
/// responses in completion order, then the `batch_done` summary) as it
/// arrives. Returns whether the stream completed. The stream ends at the
/// `batch_done` line, or at a whole-batch refusal — an `ok: false` line
/// with no `index` field (a refused *item* carries its index and the
/// stream continues).
fn run_batch_stream(flags: &Flags, request: &str) -> bool {
    let mut conn = match Connection::open(&flags.socket, flags.timeout) {
        Ok(c) => c,
        Err(reason) => {
            eprintln!("# client: {reason}");
            println!("{}", transport_error_line(request, &reason, 1));
            return false;
        }
    };
    if let Err(reason) = conn.send(request) {
        eprintln!("# client: {reason}");
        println!("{}", transport_error_line(request, &reason, 1));
        return false;
    }
    loop {
        let line = match conn.read_response_line() {
            Ok(l) => l,
            Err(reason) => {
                eprintln!("# client: {reason}");
                println!("{}", transport_error_line(request, &reason, 1));
                return false;
            }
        };
        println!("{line}");
        let doc: Option<Value> = serde_json::from_str(&line).ok();
        let finished = doc.as_ref().is_some_and(|d| {
            d.get("batch_done") == Some(&Value::Bool(true))
                || (d.get("ok") == Some(&Value::Bool(false)) && d.get("index").is_none())
        });
        if finished {
            return true;
        }
    }
}

fn main() {
    let flags = match parse_flags() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(request) = &flags.batch_request {
        if !run_batch_stream(&flags, request) {
            eprintln!("error: the batch stream did not complete");
            std::process::exit(1);
        }
        return;
    }
    // Seed the jitter off the pid: deterministic per process, decorrelated
    // across the concurrent clients a smoke test fires.
    let mut backoff = Backoff::new(u64::from(std::process::id()) ^ 0x5fc5_e12e);
    let mut conn: Option<Connection> = None;
    let mut transport_failures = 0u64;
    for request in &flags.requests {
        let (line, answered) = run_request(&mut conn, &flags, &mut backoff, request);
        println!("{line}");
        if let Some(warning) = schema_drift_warning(&line) {
            eprintln!("# client: {warning}");
        }
        if !answered {
            transport_failures += 1;
        }
    }
    if transport_failures > 0 {
        eprintln!("error: {transport_failures} request(s) got no daemon response");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_takes_the_daemon_hint_when_it_exceeds_the_jitter() {
        let jitter = Duration::from_millis(40);
        assert_eq!(
            retry_delay(Some(500), jitter),
            Duration::from_millis(500),
            "a hint above the jitter wins"
        );
    }

    #[test]
    fn retry_delay_keeps_the_jitter_when_the_hint_is_smaller_or_absent() {
        let jitter = Duration::from_millis(700);
        assert_eq!(
            retry_delay(Some(250), jitter),
            jitter,
            "a short hint never shrinks the jitter (that would stampede)"
        );
        assert_eq!(retry_delay(None, jitter), jitter);
    }

    #[test]
    fn response_failure_extracts_kind_and_retry_hint() {
        let line = r#"{"id":1,"ok":false,"error_kind":"overloaded","retry_after_ms":250}"#;
        assert_eq!(
            response_failure(line),
            Some(("overloaded".to_string(), Some(250)))
        );
        let no_hint = r#"{"id":2,"ok":false,"error_kind":"compute_panic"}"#;
        assert_eq!(
            response_failure(no_hint),
            Some(("compute_panic".to_string(), None))
        );
        assert_eq!(response_failure(r#"{"id":3,"ok":true}"#), None);
        assert_eq!(response_failure("not json"), None);
    }

    #[test]
    fn schema_drift_is_flagged_but_matching_bodies_pass_silently() {
        // A current-version body round-tripped through the struct passes.
        let stats = StatsResponse {
            schema_version: SCHEMA_VERSION,
            ..StatsResponse::default()
        };
        let mut doc = Map::new();
        doc.insert("id", Value::Null);
        doc.insert("ok", Value::Bool(true));
        doc.insert("stats", stats.to_json());
        let line = serde_json::to_string(&Value::Object(doc)).unwrap();
        assert_eq!(schema_drift_warning(&line), None);

        // A future daemon bumping the version draws a warning naming both
        // versions.
        let future = StatsResponse {
            schema_version: SCHEMA_VERSION + 1,
            ..StatsResponse::default()
        };
        let mut doc = Map::new();
        doc.insert("stats", future.to_json());
        let line = serde_json::to_string(&Value::Object(doc)).unwrap();
        let warning = schema_drift_warning(&line).expect("version bump warns");
        assert!(
            warning.contains(&format!("v{}", SCHEMA_VERSION + 1)),
            "{warning}"
        );

        // A body that no longer parses (renamed field) warns too.
        let mut body = Map::new();
        body.insert("schema_version", SCHEMA_VERSION.to_json());
        let mut doc = Map::new();
        doc.insert("health", Value::Object(body));
        let line = serde_json::to_string(&Value::Object(doc)).unwrap();
        let warning = schema_drift_warning(&line).expect("missing fields warn");
        assert!(warning.contains("health body"), "{warning}");

        // Lines without a stats/health body are not the client's business.
        assert_eq!(schema_drift_warning(r#"{"id":1,"ok":true}"#), None);
        assert_eq!(schema_drift_warning("not json"), None);
    }
}
