//! The one in-flight lifecycle: [`Inflight`] alone owns the dedup slots,
//! the drain flag, the active-request count and `--max-inflight`
//! admission. `run`, `batch` items and warmers enter through
//! [`Inflight::admit`]; the leader's [`Lead`] guard publishes before it
//! unregisters; drains and warmers block in [`Inflight::wait_idle`].

use crate::lock_recover;
use sfc_bench::harness::error_kind;
use sfc_core::CachedArtifact;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Wait on `cond` while `pending` holds, until `deadline` (`None`: no
/// bound). The caller re-checks its condition on the returned guard.
fn wait_while<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Option<Instant>,
    pending: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    match deadline {
        None => cond
            .wait_while(guard, pending)
            .unwrap_or_else(PoisonError::into_inner),
        Some(d) => {
            let timeout = d.saturating_duration_since(Instant::now());
            cond.wait_timeout_while(guard, timeout, pending)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }
    }
}

/// One in-flight computation: followers block on the condvar until the
/// leader publishes the result — or their deadline expires.
pub(crate) struct Slot {
    result: Mutex<Option<RunOutcome>>,
    ready: Condvar,
}

impl Slot {
    /// Publish the leader's outcome and wake every follower. Publishing to
    /// a slot whose followers have all timed out is a no-op, never a panic.
    fn publish(&self, outcome: RunOutcome) {
        *lock_recover(&self.result) = Some(outcome);
        self.ready.notify_all();
    }

    /// Wait for the leader's outcome, bounded by `deadline`; `None` means
    /// the deadline expired first.
    pub(crate) fn wait_deadline(&self, deadline: Option<Instant>) -> Option<RunOutcome> {
        wait_while(&self.ready, lock_recover(&self.result), deadline, |r| {
            r.is_none()
        })
        .clone()
    }
}

/// What one leader computation produced: an artifact to serve (and possibly
/// cache), or a typed failure that leader and followers all report.
#[derive(Clone)]
pub(crate) enum RunOutcome {
    /// The artifact the run produced plus whether the sweep completed (an
    /// incomplete artifact is served but never cached).
    Ok {
        artifact: Arc<CachedArtifact>,
        complete: bool,
    },
    /// The computation failed (panicked, or outlived its deadline); nothing
    /// was cached.
    Failed { kind: &'static str, message: String },
}

/// Why [`Inflight::admit`] refused: draining, or `max` computations are
/// already in flight.
pub(crate) enum Refusal {
    Draining,
    Overloaded { max: usize },
}

/// How [`Inflight::admit`] let a request for a key in.
pub(crate) enum Admission<'a> {
    /// Compute the key and hand the outcome to [`Lead::finish`].
    Lead(Lead<'a>),
    /// The key is being computed: wait on its slot.
    Follow(Arc<Slot>),
    Refused(Refusal),
}

pub(crate) struct Inflight {
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    /// Notified when the last slot unregisters or the last active request
    /// ends, with `slots` locked or just released.
    idle: Condvar,
    /// Threads in [`Inflight::wait_idle`]: an [`ActiveRequest`] that ends
    /// the last request takes the `slots` lock only when someone waits.
    idle_waiters: AtomicUsize,
    draining: AtomicBool,
    active: AtomicU64,
    max_inflight: Option<usize>,
}

impl Inflight {
    pub(crate) fn new(max_inflight: Option<usize>) -> Inflight {
        Inflight {
            slots: Mutex::new(HashMap::new()),
            idle: Condvar::new(),
            idle_waiters: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            active: AtomicU64::new(0),
            max_inflight,
        }
    }

    /// A draining daemon refuses everything; otherwise a duplicate of an
    /// in-flight computation follows it (it adds no work), and a new
    /// computation past `max_inflight` is refused.
    pub(crate) fn admit(&self, key: &str) -> Admission<'_> {
        let mut slots = lock_recover(&self.slots);
        if self.draining() {
            return Admission::Refused(Refusal::Draining);
        }
        if let Some(slot) = slots.get(key) {
            return Admission::Follow(Arc::clone(slot));
        }
        if let Some(max) = self.max_inflight.filter(|&max| slots.len() >= max) {
            return Admission::Refused(Refusal::Overloaded { max });
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        slots.insert(key.to_string(), Arc::clone(&slot));
        let key = key.to_string();
        Admission::Lead(Lead {
            inflight: self,
            key,
            slot,
        })
    }

    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn len(&self) -> usize {
        lock_recover(&self.slots).len()
    }

    pub(crate) fn active_requests(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }

    pub(crate) fn track_active(self: &Arc<Self>) -> ActiveRequest {
        self.active.fetch_add(1, Ordering::SeqCst);
        ActiveRequest(Arc::clone(self))
    }

    /// Block until nothing is in flight and no request is active, or until
    /// `deadline` (`None`: no bound). Returns whether the daemon is idle.
    pub(crate) fn wait_idle(&self, deadline: Option<Instant>) -> bool {
        // Announced before `active` is read (both SeqCst): a token ending
        // the last request either sees this waiter and notifies, or ended
        // it before the read sees zero.
        self.idle_waiters.fetch_add(1, Ordering::SeqCst);
        let busy = |slots: &mut HashMap<String, Arc<Slot>>| {
            !slots.is_empty() || self.active.load(Ordering::SeqCst) > 0
        };
        let idle = !busy(&mut wait_while(
            &self.idle,
            lock_recover(&self.slots),
            deadline,
            busy,
        ));
        self.idle_waiters.fetch_sub(1, Ordering::SeqCst);
        idle
    }
}

/// The leader's claim on a key. Dropping it — after [`Lead::finish`], or
/// while its leader unwinds, when it publishes a `compute_panic` itself —
/// unregisters the key, so followers never outlive their outcome.
pub(crate) struct Lead<'a> {
    inflight: &'a Inflight,
    key: String,
    slot: Arc<Slot>,
}

impl Lead<'_> {
    /// Publish `outcome`, then unregister the key: a request landing in
    /// between reads the outcome, one landing after leads afresh (so a
    /// request right after a panic recomputes cleanly).
    pub(crate) fn finish(self, outcome: &RunOutcome) {
        self.slot.publish(outcome.clone());
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        if lock_recover(&self.slot.result).is_none() {
            self.slot.publish(RunOutcome::Failed {
                kind: error_kind::COMPUTE_PANIC,
                message: "the computation's leader exited without an outcome".to_string(),
            });
        }
        let mut slots = lock_recover(&self.inflight.slots);
        slots.remove(&self.key);
        if slots.is_empty() {
            self.inflight.idle.notify_all();
        }
    }
}

/// An RAII token counting one request being handled, response write
/// included, so a drain knows when every accepted request is answered. It
/// owns its handle, so a reader can take it before spawning the answerer.
pub struct ActiveRequest(Arc<Inflight>);

impl Drop for ActiveRequest {
    fn drop(&mut self) {
        let inflight = &self.0;
        if inflight.active.fetch_sub(1, Ordering::SeqCst) == 1
            && inflight.idle_waiters.load(Ordering::SeqCst) > 0
        {
            // The lock orders this notify after a waiter that read the old
            // count has gone to sleep on the condvar.
            drop(lock_recover(&inflight.slots));
            inflight.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::mpsc;
    use std::time::Duration;

    fn ok_outcome() -> RunOutcome {
        RunOutcome::Ok {
            artifact: Arc::new(CachedArtifact {
                stdout_plain: String::new(),
                stdout_markdown: String::new(),
                artifact_json: String::new(),
            }),
            complete: true,
        }
    }

    #[test]
    fn a_lead_dropped_without_finishing_fails_its_followers_and_unregisters() {
        let inflight = Inflight::new(None);
        let Admission::Lead(lead) = inflight.admit("k") else {
            panic!("the first request leads")
        };
        let Admission::Follow(slot) = inflight.admit("k") else {
            panic!("a duplicate follows")
        };
        drop(lead);
        assert_eq!(inflight.len(), 0);
        match slot.wait_deadline(Some(Instant::now())) {
            Some(RunOutcome::Failed { kind, .. }) => assert_eq!(kind, error_kind::COMPUTE_PANIC),
            _ => panic!("followers of a vanished leader get a typed failure"),
        }
        assert!(matches!(inflight.admit("k"), Admission::Lead(_)));
    }

    #[test]
    fn wait_idle_times_out_while_a_token_is_held_and_wakes_when_it_drops() {
        let inflight = Arc::new(Inflight::new(None));
        let token = inflight.track_active();
        assert!(!inflight.wait_idle(Some(Instant::now() + Duration::from_millis(20))));
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || tx.send(inflight.wait_idle(None)).unwrap())
        };
        drop(token);
        let idle = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(idle, Ok(true), "dropping the last token wakes the waiter");
        waiter.join().unwrap();
    }

    /// Seeded random interleavings of leaders, followers, deadlines,
    /// `max_inflight` refusals, active tokens and a drain over a few keys:
    /// at most one leader per key at a time, every admitted call returns,
    /// and the lifecycle is idle and empty afterwards.
    #[test]
    fn random_interleavings_keep_one_leader_per_key_and_end_idle() {
        const THREADS: usize = 6;
        const KEYS: usize = 3;
        for seed in 0..8u64 {
            let max_inflight = if seed % 2 == 0 { None } else { Some(2) };
            let inflight = Arc::new(Inflight::new(max_inflight));
            let leaders: Arc<Vec<AtomicUsize>> =
                Arc::new((0..KEYS).map(|_| AtomicUsize::new(0)).collect());
            let (tx, rx) = mpsc::channel();
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (inflight, leaders, tx) =
                        (Arc::clone(&inflight), Arc::clone(&leaders), tx.clone());
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed * 100 + t as u64);
                        for _ in 0..20 {
                            let _token = inflight.track_active();
                            if rng.gen_range(0..40) == 0 {
                                inflight.begin_drain();
                            }
                            let k = rng.gen_range(0..KEYS);
                            match inflight.admit(&k.to_string()) {
                                Admission::Lead(lead) => {
                                    let now = leaders[k].fetch_add(1, Ordering::SeqCst) + 1;
                                    assert_eq!(now, 1, "two leaders for key {k} (seed {seed})");
                                    std::thread::sleep(Duration::from_micros(
                                        rng.gen_range(0..2000),
                                    ));
                                    leaders[k].fetch_sub(1, Ordering::SeqCst);
                                    // Some leaders unwind without an outcome.
                                    if rng.gen_bool(0.8) {
                                        lead.finish(&ok_outcome());
                                    }
                                }
                                Admission::Follow(slot) => {
                                    let deadline = rng.gen_bool(0.5).then(|| {
                                        Instant::now()
                                            + Duration::from_micros(rng.gen_range(0..1000))
                                    });
                                    let _ = slot.wait_deadline(deadline);
                                }
                                Admission::Refused(Refusal::Overloaded { max }) => {
                                    assert_eq!(Some(max), max_inflight);
                                }
                                Admission::Refused(Refusal::Draining) => {
                                    assert!(inflight.draining());
                                }
                            }
                        }
                        tx.send(()).unwrap();
                    })
                })
                .collect();
            for _ in 0..THREADS {
                rx.recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("an admitted call never returned (seed {seed})"));
            }
            for t in threads {
                t.join().unwrap();
            }
            inflight.begin_drain();
            assert!(inflight.wait_idle(Some(Instant::now() + Duration::from_secs(5))));
            assert_eq!(inflight.len(), 0);
            assert_eq!(inflight.active_requests(), 0);
        }
    }
}
