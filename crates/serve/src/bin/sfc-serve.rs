//! The `sfc-serve` daemon: answer experiment requests from the
//! content-addressed result cache.
//!
//! Two transports share one [`Server`] core:
//!
//! * `--socket PATH` — listen on a unix socket. Connections are served by
//!   a **fixed pool of `--workers` threads** (default: all cores) fed from
//!   a bounded accept queue; when every worker is busy and the queue is
//!   full, the overflow connection gets one typed `overloaded` +
//!   `retry_after_ms` line instead of unbounded thread growth. The accept
//!   loop blocks in `poll(2)` with a short timeout — a hot cache hit is no
//!   longer floor-bounded by an accept-loop sleep, while SIGTERM and
//!   `shutdown` are still noticed promptly.
//! * `--pipe` — JSON-lines over stdin/stdout (CI and scripting). Each
//!   request is handled on its own detached thread and responses are
//!   written as they complete, so two identical requests sent back-to-back
//!   exercise the same in-flight dedup path as two socket clients.
//!   Correlate responses by `id`. The reader polls stdin like the accept
//!   loop polls the socket, so SIGTERM and `shutdown` are noticed without
//!   waiting for another line.
//!
//! ## Lifecycle
//!
//! SIGTERM/SIGINT and the `shutdown` op both trigger a graceful drain, in
//! either transport: the daemon stops accepting new work (connections
//! accepted mid-drain get one typed `error_kind: "draining"` refusal
//! line), waits on the server's idle condvar until every request it
//! already accepted is answered — bounded by twice `--deadline-ms` when
//! set, 30 s otherwise — flushes a final stats line to stderr, removes the
//! socket file and exits 0. EOF on stdin in pipe mode waits, unbounded,
//! for the answers to every line read, then flushes the stats line and
//! exits 0.
//!
//! ## Chaos hooks (test-only, deterministic)
//!
//! * `--chaos-compute-ms N` sleeps N ms before every computation, widening
//!   the in-flight window so dedup can be asserted deterministically.
//! * `--chaos-panic K` panics every K-th computation (contained; leader and
//!   followers get `error_kind: "compute_panic"`).
//! * `--chaos-disconnect K` drops every K-th connection-level response
//!   mid-write (socket mode), so client transport-retry paths can be
//!   exercised.

use serde_json::to_string;
use sfc_serve::{drain_refusal_line, LogLimiter, Server, ServerOptions};
use std::io::{BufRead, BufReader, Write};
use std::os::fd::{AsFd, AsRawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// SIGTERM/SIGINT latch. The handler only stores to an atomic — the accept
/// loop polls it and runs the actual drain outside signal context.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Install the latch for SIGTERM and SIGINT. Uses libc `signal(2)`
    /// directly (declared here) to avoid a dependency; the handler is
    /// async-signal-safe (one atomic store).
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn term_requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// Minimal `poll(2)` binding for the accept loop and the pipe reader.
/// Declared here (like `signal(2)` above) to avoid a libc dependency; the
/// daemon is unix-only already by virtue of `UnixListener`.
mod readiness {
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    /// Set in `revents` when the descriptor is not open: `poll(2)` returns
    /// *immediately* with this bit instead of blocking, which is exactly
    /// the case that must not be treated as a quiet timeout.
    const POLLNVAL: i16 = 0x020;
    /// `poll(2)` interrupted by a signal — a normal wakeup, not an error:
    /// the caller re-checks its SIGTERM latch and comes back around.
    const EINTR: i32 = 4;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Outcome of one readiness wait. The caller must distinguish a quiet
    /// timeout (just poll again) from a poll failure: failures return
    /// immediately, so treating them as "not readable" spins the accept
    /// loop at 100% CPU with no log line.
    #[derive(Debug)]
    pub enum Readiness {
        /// The descriptor is (probably) readable — try the accept.
        Readable,
        /// Nothing arrived within the timeout.
        TimedOut,
        /// A signal interrupted the wait before the timeout.
        Interrupted,
        /// `poll(2)` itself failed, or the descriptor is invalid.
        Failed(std::io::Error),
    }

    /// Block until `fd` is readable, `timeout` elapses, a signal arrives,
    /// or the poll fails.
    pub fn wait_readable(fd: i32, timeout: Duration) -> Readiness {
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let n = unsafe { poll(&mut pfd, 1, timeout_ms) };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            return if err.raw_os_error() == Some(EINTR) {
                Readiness::Interrupted
            } else {
                Readiness::Failed(err)
            };
        }
        if n == 0 {
            return Readiness::TimedOut;
        }
        if (pfd.revents & POLLNVAL) != 0 {
            return Readiness::Failed(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "poll: invalid listener descriptor (POLLNVAL)",
            ));
        }
        Readiness::Readable
    }
}

/// Default byte budget of the in-memory cache tier, in MiB.
const DEFAULT_CACHE_MEM_MB: u64 = 64;

struct Flags {
    cache: String,
    socket: Option<String>,
    pipe: bool,
    workers: usize,
    batch_workers: usize,
    warm_workers: usize,
    warm_queue: usize,
    cache_mem_mb: u64,
    chaos_compute_ms: u64,
    chaos_panic: Option<u64>,
    chaos_disconnect: Option<u64>,
    deadline_ms: Option<u64>,
    max_inflight: Option<usize>,
    trace: Option<String>,
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage() -> String {
    "usage: sfc-serve [--cache DIR] (--pipe | --socket PATH) [options]\n\
     \n\
     --cache DIR            content-addressed result cache directory (default: cache)\n\
     --cache-mem-mb N       in-memory cache tier byte budget in MiB (default 64; 0 disables)\n\
     --pipe                 serve JSON-lines requests on stdin/stdout\n\
     --socket PATH          listen on a unix socket at PATH\n\
     --workers N            connection worker threads, socket mode (default: all cores);\n\
                            overflow past the bounded accept queue answers `overloaded`\n\
     --batch-workers N      compute threads fanning out one `batch` request (default: all cores)\n\
     --warm-workers N       background cache-warmer threads (default 1; 0 disables `warm`)\n\
     --warm-queue N         bounded warm-queue capacity (default 256; overflow answers\n\
                            `warm_queue_full`)\n\
     --deadline-ms N        bound each request to N ms (expiry: error_kind deadline_exceeded)\n\
     --max-inflight N       refuse work beyond N concurrent computations (error_kind overloaded)\n\
     --trace PATH           write one JSONL span/event record per line to PATH, each stamped\n\
                            with the request_id echoed on the response it belongs to\n\
     --chaos-compute-ms N   sleep N ms before each computation (test hook)\n\
     --chaos-panic K        panic every K-th computation (test hook; contained)\n\
     --chaos-disconnect K   drop every K-th response mid-write, socket mode (test hook)\n"
        .to_string()
}

fn parse_flags() -> Result<Flags, String> {
    let mut flags = Flags {
        cache: "cache".to_string(),
        socket: None,
        pipe: false,
        workers: default_workers(),
        batch_workers: 0,
        warm_workers: 1,
        warm_queue: 256,
        cache_mem_mb: DEFAULT_CACHE_MEM_MB,
        chaos_compute_ms: 0,
        chaos_panic: None,
        chaos_disconnect: None,
        deadline_ms: None,
        max_inflight: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{name} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{name}: `{v}` is not a number"))
        };
        match arg.as_str() {
            "--cache" => {
                flags.cache = it.next().ok_or("--cache needs a directory")?;
            }
            "--socket" => {
                flags.socket = Some(it.next().ok_or("--socket needs a path")?);
            }
            "--pipe" => flags.pipe = true,
            "--workers" => {
                let n = num("--workers")? as usize;
                if n == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                flags.workers = n;
            }
            "--batch-workers" => {
                let n = num("--batch-workers")? as usize;
                if n == 0 {
                    return Err("--batch-workers must be at least 1".to_string());
                }
                flags.batch_workers = n;
            }
            "--warm-workers" => flags.warm_workers = num("--warm-workers")? as usize,
            "--warm-queue" => {
                let n = num("--warm-queue")? as usize;
                if n == 0 {
                    return Err("--warm-queue must be at least 1".to_string());
                }
                flags.warm_queue = n;
            }
            "--cache-mem-mb" => flags.cache_mem_mb = num("--cache-mem-mb")?,
            "--chaos-compute-ms" => flags.chaos_compute_ms = num("--chaos-compute-ms")?,
            "--chaos-panic" => flags.chaos_panic = Some(num("--chaos-panic")?),
            "--chaos-disconnect" => flags.chaos_disconnect = Some(num("--chaos-disconnect")?),
            "--deadline-ms" => flags.deadline_ms = Some(num("--deadline-ms")?),
            "--max-inflight" => flags.max_inflight = Some(num("--max-inflight")? as usize),
            "--trace" => {
                flags.trace = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if flags.pipe == flags.socket.is_some() {
        return Err(format!(
            "exactly one of --pipe or --socket is required\n{}",
            usage()
        ));
    }
    if flags.chaos_panic == Some(0) {
        return Err("--chaos-panic: K must be at least 1".to_string());
    }
    if flags.chaos_disconnect == Some(0) {
        return Err("--chaos-disconnect: K must be at least 1".to_string());
    }
    Ok(flags)
}

/// How long a drain may take: every in-flight request is itself bounded by
/// the deadline when one is set, so wait a little longer than that; an
/// unbounded daemon gets a generous fixed cap.
fn drain_bound(flags: &Flags) -> Duration {
    match flags.deadline_ms {
        Some(ms) => Duration::from_millis(ms.saturating_mul(2).max(1_000)),
        None => Duration::from_secs(30),
    }
}

/// Refuse new work, wait until every accepted request has been answered
/// and no computation is in flight (or the bound expires), then flush the
/// final stats line.
fn drain(server: &Server, bound: Duration) {
    server.begin_drain();
    eprintln!(
        "# sfc-serve: draining ({} in flight)",
        server.inflight_len()
    );
    server.wait_idle(Some(Instant::now() + bound));
    eprintln!("# sfc-serve: final stats {}", server.stats_line());
}

/// Pipe mode: one detached thread per request line, responses interleaved
/// on stdout as they complete (each as a single line, correlated by `id`).
/// The reader polls stdin whenever its buffer is empty, so SIGTERM and the
/// `shutdown` op stop it without waiting for another line; EOF stops it
/// too. Each line's active-request token is taken here, before its thread
/// starts, so the drain that follows waits for every line read.
fn serve_pipe(server: Arc<Server>, bound: Duration) {
    signals::install();
    let Ok(stdin) = std::io::stdin().as_fd().try_clone_to_owned() else {
        eprintln!("error: pipe mode needs an open stdin");
        std::process::exit(2);
    };
    let fd = stdin.as_raw_fd();
    let mut reader = BufReader::new(std::fs::File::from(stdin));
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let at_eof = loop {
        if signals::term_requested() || server.draining() {
            break false;
        }
        // A failed poll falls through to the read, which reports it.
        if reader.buffer().is_empty() {
            if let readiness::Readiness::TimedOut | readiness::Readiness::Interrupted =
                readiness::wait_readable(fd, ACCEPT_POLL)
            {
                continue;
            }
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break true,
            Ok(_) if line.trim().is_empty() => continue,
            Ok(_) => {}
        }
        let active = server.track_active();
        let server = Arc::clone(&server);
        let stdout = Arc::clone(&stdout);
        std::thread::spawn(move || {
            let _active = active;
            // Batch item lines stream through `emit` as they complete;
            // the stdout mutex keeps each line atomic against other
            // request threads.
            let mut write_line = |doc: &serde_json::Value| {
                let text = to_string(doc).expect("serialize response");
                let mut out = stdout
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                writeln!(out, "{text}").expect("write response");
                out.flush().expect("flush response");
            };
            let resp =
                server.handle_line_with(line.trim_end_matches(['\n', '\r']), &mut write_line);
            write_line(&resp.doc);
        });
    };
    if at_eof {
        // Input that ended asks only for its answers: wait for every one,
        // without the drain flag that would refuse lines already read.
        server.wait_idle(None);
        eprintln!("# sfc-serve: final stats {}", server.stats_line());
    } else {
        drain(&server, bound);
    }
}

/// How long the accept loop blocks in `poll(2)` before re-checking the
/// SIGTERM latch and drain flag. A waiting connection wakes the loop
/// immediately — this is only the signal-latency bound, not a hit-latency
/// floor.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// One log line per distinct accept-error kind per this window; the rest
/// are counted and summarized (a persistent error like EMFILE used to
/// write ~100 identical lines a second).
const ACCEPT_LOG_WINDOW: Duration = Duration::from_secs(5);

/// Socket mode: a poll-based accept loop (so SIGTERM and `shutdown` are
/// noticed promptly without a sleep floor on hot accepts) feeding a
/// bounded queue of connections served by a fixed pool of `workers`
/// threads. Queue overflow answers one typed `overloaded` line with a
/// `retry_after_ms` hint, exactly like `--max-inflight`. Drain answers
/// what was accepted, refuses the rest, removes the socket file, and
/// exits 0.
fn serve_socket(
    server: Arc<Server>,
    path: &str,
    workers: usize,
    chaos_disconnect: Option<u64>,
    bound: Duration,
) {
    signals::install();
    // A previous daemon's socket file would make bind fail; the unix
    // convention is to remove it first (a live daemon still holds the
    // listening socket, so this only clears stale files).
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind `{path}`: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("error: cannot make `{path}` non-blocking: {e}");
        std::process::exit(2);
    }
    eprintln!("# sfc-serve: listening on {path} ({workers} worker(s))");
    let responses_written = Arc::new(AtomicU64::new(0));

    // The fixed worker pool: a bounded queue of accepted connections, one
    // slot of headroom per worker. Workers pull connections and serve them
    // to completion; the pool size — not the connection count — bounds the
    // daemon's thread count.
    let (queue, receiver) = sync_channel::<UnixStream>(workers * 2);
    let receiver: Arc<Mutex<Receiver<UnixStream>>> = Arc::new(Mutex::new(receiver));
    for _ in 0..workers {
        let server = Arc::clone(&server);
        let receiver = Arc::clone(&receiver);
        let counter = Arc::clone(&responses_written);
        std::thread::spawn(move || loop {
            // Hold the lock only for the recv itself: the next idle worker
            // can pull a connection while this one is still serving.
            let next = {
                let guard = receiver
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                guard.recv()
            };
            match next {
                Ok(stream) => {
                    serve_connection(
                        Arc::clone(&server),
                        stream,
                        chaos_disconnect,
                        Arc::clone(&counter),
                    );
                }
                Err(_) => return, // queue closed: daemon is exiting
            }
        });
    }

    let mut limiter = LogLimiter::new(ACCEPT_LOG_WINDOW);
    let fd = listener.as_raw_fd();
    loop {
        if signals::term_requested() || server.draining() {
            break;
        }
        let wait_started = Instant::now();
        match readiness::wait_readable(fd, ACCEPT_POLL) {
            readiness::Readiness::Readable => {}
            // A quiet timeout or signal wakeup: re-check the latch above.
            readiness::Readiness::TimedOut | readiness::Readiness::Interrupted => continue,
            readiness::Readiness::Failed(e) => {
                if let Some(suppressed) =
                    limiter.should_log(&format!("poll:{:?}", e.kind()), Instant::now())
                {
                    if suppressed > 0 {
                        eprintln!(
                            "# sfc-serve: poll failed: {e} ({suppressed} similar suppressed in the last {}s)",
                            ACCEPT_LOG_WINDOW.as_secs()
                        );
                    } else {
                        eprintln!("# sfc-serve: poll failed: {e}");
                    }
                }
                // Failures return immediately; sleep out the rest of the
                // poll interval so a persistent error (EBADF, POLLNVAL)
                // cannot busy-spin the loop.
                std::thread::sleep(ACCEPT_POLL.saturating_sub(wait_started.elapsed()));
                continue;
            }
        }
        match listener.accept() {
            Ok((stream, _addr)) => match queue.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(mut rejected)) => {
                    // Every worker is busy and the queue is full: refuse
                    // typed instead of queueing unboundedly, mirroring
                    // `--max-inflight`.
                    let _ = writeln!(rejected, "{}", server.overloaded_refusal_line());
                    let _ = rejected.flush();
                }
                Err(TrySendError::Disconnected(_)) => break,
            },
            // Raced another wakeup (or poll was spurious): just go around.
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => {
                if let Some(suppressed) =
                    limiter.should_log(&format!("{:?}", e.kind()), Instant::now())
                {
                    if suppressed > 0 {
                        eprintln!(
                            "# sfc-serve: accept failed: {e} ({suppressed} similar suppressed in the last {}s)",
                            ACCEPT_LOG_WINDOW.as_secs()
                        );
                    } else {
                        eprintln!("# sfc-serve: accept failed: {e}");
                    }
                }
                // Persistent errors (EMFILE and friends) must not spin the
                // loop; transient ones barely notice the pause.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // Close the queue: idle workers exit; busy ones finish their current
    // connection (whose remaining requests the draining server answers
    // with typed refusals).
    drop(queue);
    // Drain: answer accepted work while refusing late connections with one
    // typed line each, then clean up the socket and exit 0.
    let drained = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !drained.load(Ordering::SeqCst) {
                if let readiness::Readiness::Readable = readiness::wait_readable(fd, ACCEPT_POLL) {
                    if let Ok((mut stream, _)) = listener.accept() {
                        let _ = writeln!(stream, "{}", drain_refusal_line());
                        let _ = stream.flush();
                    }
                }
            }
        });
        drain(&server, bound);
        drained.store(true, Ordering::SeqCst);
    });
    let _ = std::fs::remove_file(path);
}

/// Serve one socket connection. With `--chaos-disconnect K`, every K-th
/// response (counted across all connections) is cut off mid-write and the
/// connection dropped — deterministic fault injection for client retries.
fn serve_connection(
    server: Arc<Server>,
    stream: UnixStream,
    chaos_disconnect: Option<u64>,
    responses_written: Arc<AtomicU64>,
) {
    let reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let active = server.track_active();
        // Batch item lines stream back as they complete. A client that
        // hangs up mid-batch is noticed here; the final response (and the
        // chaos-disconnect counter, which counts only final responses) is
        // skipped for it.
        let mut emit_failed = false;
        let resp = {
            let mut emit = |doc: &serde_json::Value| {
                if emit_failed {
                    return;
                }
                let text = to_string(doc).expect("serialize item response");
                emit_failed = writeln!(writer, "{text}")
                    .and_then(|()| writer.flush())
                    .is_err();
            };
            server.handle_line_with(&line, &mut emit)
        };
        if emit_failed {
            drop(active);
            return;
        }
        let text = to_string(&resp.doc).expect("serialize response");
        let n = responses_written.fetch_add(1, Ordering::SeqCst) + 1;
        if chaos_disconnect.is_some_and(|k| n.is_multiple_of(k)) {
            // Write half the response, then hang up: the client sees a
            // line that never terminates (a typed transport error on its
            // side), never a corrupted-but-plausible payload.
            let cut = text.len() / 2;
            let _ = writer.write_all(&text.as_bytes()[..cut]);
            let _ = writer.flush();
            let _ = writer.shutdown(std::net::Shutdown::Both);
            drop(active);
            return;
        }
        let write_failed = writeln!(writer, "{text}")
            .and_then(|()| writer.flush())
            .is_err();
        drop(active);
        if write_failed {
            return;
        }
        if resp.shutdown {
            // The drain is already flagged on the server; the accept loop
            // notices and runs the drain. This connection is done.
            return;
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
    let opts = ServerOptions {
        chaos_compute_ms: flags.chaos_compute_ms,
        chaos_panic: flags.chaos_panic,
        deadline: flags.deadline_ms.map(Duration::from_millis),
        max_inflight: flags.max_inflight,
        cache_mem_bytes: flags.cache_mem_mb.saturating_mul(1024 * 1024),
        batch_workers: flags.batch_workers,
        warm_queue_cap: flags.warm_queue,
        trace_path: flags.trace.clone(),
    };
    let server = match Server::new(&flags.cache, opts) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!(
                "error: cannot open cache `{}` (or the trace file): {e}",
                flags.cache
            );
            std::process::exit(2);
        }
    };
    server.start_warmers(flags.warm_workers);
    let bound = drain_bound(&flags);
    if flags.pipe {
        serve_pipe(server, bound);
    } else if let Some(path) = &flags.socket {
        serve_socket(server, path, flags.workers, flags.chaos_disconnect, bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_socket_with_pending_bytes_is_readable() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"x").unwrap();
        a.flush().unwrap();
        match readiness::wait_readable(b.as_raw_fd(), Duration::from_millis(500)) {
            readiness::Readiness::Readable => {}
            other => panic!("expected Readable, got {other:?}"),
        }
    }

    #[test]
    fn a_quiet_socket_times_out() {
        let (_a, b) = UnixStream::pair().unwrap();
        let started = Instant::now();
        match readiness::wait_readable(b.as_raw_fd(), Duration::from_millis(25)) {
            readiness::Readiness::TimedOut => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(
            started.elapsed() >= Duration::from_millis(20),
            "a timeout must actually block for (about) the timeout"
        );
    }

    #[test]
    fn an_invalid_descriptor_fails_instead_of_timing_out() {
        // A descriptor number nothing in this process has open: poll(2)
        // reports POLLNVAL *immediately*. Before the fix this surfaced as
        // "not readable" and the accept loop spun at 100% CPU; now it is a
        // distinguishable failure the loop logs and sleeps on.
        let started = Instant::now();
        match readiness::wait_readable(999_999, Duration::from_millis(500)) {
            readiness::Readiness::Failed(e) => {
                assert!(e.to_string().contains("POLLNVAL"), "unexpected error: {e}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "POLLNVAL returns immediately — that immediacy is why it must not \
             be conflated with a quiet timeout"
        );
    }
}
