//! Content-addressed cache of rendered experiment artifacts.
//!
//! Regenerating a paper artifact is expensive (minutes of sweep cells) but
//! perfectly deterministic: the workspace guarantees byte-identical output
//! for a given [`ExperimentSpec`] at every `--jobs` value. That makes the
//! artifact a pure function of the spec and the kernel implementation — so
//! it can be cached by content address and served back without recomputing
//! a single sweep cell.
//!
//! ## Keying
//!
//! A cache entry's directory name is
//! `sha256(canonical_spec_json + "\n" + KERNEL_VERSION)`. Including
//! [`KERNEL_VERSION`] in the hashed material means a change to any metric
//! kernel or renderer is published by bumping one constant: every old entry
//! silently misses (the key changes), no scanning or invalidation pass
//! required. Old directories are inert garbage, safe to delete at leisure.
//!
//! ## Layout
//!
//! ```text
//! <root>/<key>/
//!   meta.json     # kernel_version + spec_hash + artifact, for humans/tools
//!   spec.json     # the canonical spec serialization
//!   stdout.txt    # full plain-mode stdout, banner included
//!   stdout.md     # full markdown-mode stdout, banner included
//!   artifact.json # the machine-readable envelope (--json payload)
//! ```
//!
//! Writes go to a temporary sibling directory first and are published with a
//! single atomic `rename`, so readers never observe a half-written entry and
//! concurrent writers of the same spec race harmlessly (determinism makes
//! their payloads byte-identical).
//!
//! ## Self-healing
//!
//! A corrupt entry (unparseable or mismatched `meta.json`, a missing payload
//! file, a truncated `artifact.json`, a payload whose checksum disagrees
//! with `meta.json`) is not merely treated as a miss: [`ResultCache::load`]
//! **quarantines** it by moving the whole directory to
//! `<root>/.quarantine/<key>-<n>/`. Without that move the broken directory
//! would shadow every future [`ResultCache::store`] (which yields to an
//! existing entry), forcing the artifact to be recomputed on every request
//! forever. After quarantine the next store publishes a fresh entry and
//! subsequent loads hit. Quarantined directories are kept (not deleted) so
//! the corruption can be inspected; [`ResultCache::quarantined`] counts the
//! entries this handle has quarantined.
//!
//! ## The memory tier
//!
//! The disk tier re-reads and re-sha256-verifies three payload files on
//! *every* hit — correct, but the opposite of the locality the workspace
//! preaches. A cache opened with [`ResultCache::with_memory_budget`] keeps
//! a **byte-budgeted, sharded in-memory LRU tier** in front of the disk:
//!
//! * entries enter the tier when [`store`](ResultCache::store) publishes
//!   them and when a disk load verifies them (**promotion**), so every
//!   artifact in memory has passed the checksum gate exactly once;
//! * a [`load`](ResultCache::load) consults memory first — a memory hit
//!   returns the very same [`Arc<CachedArtifact>`] with **zero file I/O and
//!   zero re-hashing**;
//! * the tier is sharded by key (one mutex per shard) so concurrent daemon
//!   workers do not serialize on one lock, and each shard evicts its
//!   least-recently-used entries once its slice of the byte budget
//!   overflows — evicted keys fall back to the (still verified) disk tier
//!   with identical bytes;
//! * [`quarantine`](ResultCache::load)-ing a key also evicts it from the
//!   memory tier, so a corrupt key never survives in either tier.
//!
//! [`ResultCache::mem_stats`] snapshots the tier counters
//! (`mem_hits`/`disk_hits`/`mem_evictions`/`mem_bytes`/`mem_entries`),
//! which `sfc-serve` surfaces through its `stats` and `health` ops.

use crate::obs::{Counter, MetricsRegistry};
use crate::spec::ExperimentSpec;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version tag of the metric kernels and artifact renderers, hashed into
/// every cache key.
///
/// Bump this whenever a change alters any artifact byte stream — a metric
/// kernel fix, a rendering tweak, an envelope field. Stale entries then miss
/// automatically because their keys no longer match.
pub const KERNEL_VERSION: &str = "2013-icpp-sfc/1";

/// The cached byte streams of one rendered artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedArtifact {
    /// Full plain-mode stdout, banner line included.
    pub stdout_plain: String,
    /// Full markdown-mode stdout, banner line included.
    pub stdout_markdown: String,
    /// The pretty-printed machine-readable envelope (the `--json` payload).
    pub artifact_json: String,
}

/// Which tier answered a [`ResultCache::load_tiered`] hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierHit {
    /// Served from the in-memory LRU tier: zero file I/O, zero hashing.
    Memory,
    /// Read and checksum-verified from disk (and promoted to memory when a
    /// tier is configured).
    Disk,
}

/// Snapshot of the memory-tier counters (all zero when the cache was opened
/// without a memory tier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTierStats {
    /// Loads answered from memory.
    pub mem_hits: u64,
    /// Loads answered from (verified) disk.
    pub disk_hits: u64,
    /// Entries evicted by the LRU byte budget.
    pub mem_evictions: u64,
    /// Payload bytes currently resident in the tier.
    pub mem_bytes: u64,
    /// Entries currently resident in the tier.
    pub mem_entries: u64,
}

/// The cache's cumulative counters, as shareable [`Counter`] handles.
///
/// By default a cache owns standalone counters; a daemon that wants its
/// Prometheus page to read the *same* storage the cache increments builds
/// the set from its registry with [`CacheCounters::registered`] and passes
/// it to [`ResultCache::with_observability`]. The counter handle **is** the
/// registry series, so there is no render-time copy to drift out of sync —
/// tier counts are bookkept in exactly one place.
#[derive(Debug, Clone, Default)]
pub struct CacheCounters {
    /// Loads answered from the memory tier.
    pub mem_hits: Counter,
    /// Loads answered from (verified) disk.
    pub disk_hits: Counter,
    /// Entries evicted by the LRU byte budget.
    pub mem_evictions: Counter,
    /// Corrupt entries moved to quarantine.
    pub quarantined: Counter,
}

impl CacheCounters {
    /// Register the cache counter set in `registry` under `prefix`
    /// (`<prefix>_mem_hits_total`, `<prefix>_disk_hits_total`,
    /// `<prefix>_mem_evictions_total`, `<prefix>_quarantined_total`).
    pub fn registered(registry: &MetricsRegistry, prefix: &str) -> CacheCounters {
        CacheCounters {
            mem_hits: registry.counter(
                &format!("{prefix}_mem_hits_total"),
                "Cache loads answered from the in-memory LRU tier.",
            ),
            disk_hits: registry.counter(
                &format!("{prefix}_disk_hits_total"),
                "Cache loads answered from checksum-verified disk.",
            ),
            mem_evictions: registry.counter(
                &format!("{prefix}_mem_evictions_total"),
                "Memory-tier entries evicted by the LRU byte budget.",
            ),
            quarantined: registry.counter(
                &format!("{prefix}_quarantined_total"),
                "Corrupt cache entries moved to quarantine.",
            ),
        }
    }
}

/// One resident artifact plus its LRU bookkeeping.
struct MemEntry {
    artifact: Arc<CachedArtifact>,
    bytes: u64,
    last_used: u64,
}

/// One lock's worth of the memory tier.
#[derive(Default)]
struct Shard {
    entries: HashMap<String, MemEntry>,
    bytes: u64,
}

/// The sharded in-memory LRU tier. Shared (via `Arc`) by every clone of a
/// [`ResultCache`] so daemon worker threads see one coherent tier.
struct MemTier {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / shard count).
    shard_budget: u64,
    /// Monotonic LRU clock; ticked on every touch.
    clock: AtomicU64,
    bytes: AtomicU64,
    entries: AtomicU64,
    evictions: Counter,
}

impl std::fmt::Debug for MemTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTier")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .field("bytes", &self.bytes.load(Ordering::SeqCst))
            .finish()
    }
}

impl MemTier {
    fn new(budget_bytes: u64, shards: usize, evictions: Counter) -> MemTier {
        let shards = shards.max(1);
        MemTier {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / shards as u64,
            clock: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            evictions,
        }
    }

    /// Lock the shard a key lives in. Keys are sha256 hex, so the first
    /// byte is already uniformly distributed — no extra hashing needed.
    fn shard(&self, key: &str) -> std::sync::MutexGuard<'_, Shard> {
        let b = key.as_bytes().first().copied().unwrap_or(0) as usize;
        self.shards[b % self.shards.len()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, key: &str) -> Option<Arc<CachedArtifact>> {
        let mut shard = self.shard(key);
        let entry = shard.entries.get_mut(key)?;
        entry.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.artifact))
    }

    /// Insert (or refresh) `key`, evicting least-recently-used entries
    /// until the shard fits its budget again. An artifact too large to
    /// ever fit a shard's budget is not cached at all — evicting the
    /// whole shard for it would only thrash.
    fn insert(&self, key: &str, artifact: Arc<CachedArtifact>) {
        let bytes = entry_bytes(key, &artifact);
        if bytes > self.shard_budget {
            return;
        }
        let mut shard = self.shard(key);
        if let Some(existing) = shard.entries.get_mut(key) {
            // Determinism guarantees byte-identity, so refreshing the LRU
            // stamp is all a re-insert needs to do.
            existing.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
            return;
        }
        while shard.bytes + bytes > self.shard_budget {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(evicted) = shard.entries.remove(&k) {
                        shard.bytes -= evicted.bytes;
                        self.bytes.fetch_sub(evicted.bytes, Ordering::SeqCst);
                        self.entries.fetch_sub(1, Ordering::SeqCst);
                        self.evictions.inc();
                    }
                }
                None => break,
            }
        }
        shard.bytes += bytes;
        self.bytes.fetch_add(bytes, Ordering::SeqCst);
        self.entries.fetch_add(1, Ordering::SeqCst);
        shard.entries.insert(
            key.to_string(),
            MemEntry {
                artifact,
                bytes,
                last_used: self.clock.fetch_add(1, Ordering::Relaxed),
            },
        );
    }

    /// Drop `key` from the tier (quarantine path). Not counted as an
    /// eviction — evictions measure budget pressure, not corruption.
    fn remove(&self, key: &str) {
        let mut shard = self.shard(key);
        if let Some(entry) = shard.entries.remove(key) {
            shard.bytes -= entry.bytes;
            self.bytes.fetch_sub(entry.bytes, Ordering::SeqCst);
            self.entries.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Resident cost of one entry: the three payload streams plus the key and
/// a small fixed overhead for the map slot and `Arc` bookkeeping.
fn entry_bytes(key: &str, artifact: &CachedArtifact) -> u64 {
    (artifact.stdout_plain.len()
        + artifact.stdout_markdown.len()
        + artifact.artifact_json.len()
        + key.len()
        + 64) as u64
}

/// Default shard count of the memory tier: enough to keep a daemon's
/// worker pool from serializing on one lock, few enough that tiny budgets
/// still hold a useful number of entries per shard.
pub const DEFAULT_MEM_SHARDS: usize = 8;

/// A directory of content-addressed artifact entries, optionally fronted
/// by a sharded in-memory LRU tier (see the module docs).
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
    /// The cumulative counters (quarantines, tier hits, evictions). The
    /// handles are shared across clones — and, when the cache was built
    /// with [`ResultCache::with_observability`], with a metrics registry —
    /// so a daemon's stats see every increment regardless of which worker
    /// thread (or which view of the counters) made it.
    counters: CacheCounters,
    /// The optional memory tier, shared across clones.
    mem: Option<Arc<MemTier>>,
}

impl ResultCache {
    /// Open (and create, if needed) a cache rooted at `root`, without a
    /// memory tier: every load reads and verifies from disk.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<ResultCache> {
        Self::with_observability(root, 0, DEFAULT_MEM_SHARDS, CacheCounters::default())
    }

    /// Open a cache whose loads are fronted by an in-memory LRU tier
    /// bounded to `budget_bytes` payload bytes (sharded
    /// [`DEFAULT_MEM_SHARDS`] ways). A budget of 0 disables the tier.
    pub fn with_memory_budget(
        root: impl Into<PathBuf>,
        budget_bytes: u64,
    ) -> io::Result<ResultCache> {
        Self::with_memory_tier(root, budget_bytes, DEFAULT_MEM_SHARDS)
    }

    /// [`ResultCache::with_memory_budget`] with an explicit shard count
    /// (tests pin it to 1 for deterministic LRU order; servers tune it to
    /// their worker count).
    pub fn with_memory_tier(
        root: impl Into<PathBuf>,
        budget_bytes: u64,
        shards: usize,
    ) -> io::Result<ResultCache> {
        Self::with_observability(root, budget_bytes, shards, CacheCounters::default())
    }

    /// [`ResultCache::with_memory_tier`] incrementing caller-supplied
    /// [`CacheCounters`] — typically handles registered in a
    /// [`MetricsRegistry`], making the registry the single bookkeeper of
    /// the tier counters.
    pub fn with_observability(
        root: impl Into<PathBuf>,
        budget_bytes: u64,
        shards: usize,
        counters: CacheCounters,
    ) -> io::Result<ResultCache> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mem = (budget_bytes > 0).then(|| {
            Arc::new(MemTier::new(
                budget_bytes,
                shards,
                counters.mem_evictions.clone(),
            ))
        });
        Ok(ResultCache {
            root,
            counters,
            mem,
        })
    }

    /// Snapshot the tier counters.
    pub fn mem_stats(&self) -> MemTierStats {
        MemTierStats {
            mem_hits: self.counters.mem_hits.get(),
            disk_hits: self.counters.disk_hits.get(),
            mem_evictions: self.counters.mem_evictions.get(),
            mem_bytes: self
                .mem
                .as_ref()
                .map_or(0, |m| m.bytes.load(Ordering::SeqCst)),
            mem_entries: self
                .mem
                .as_ref()
                .map_or(0, |m| m.entries.load(Ordering::SeqCst)),
        }
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The content address of `spec` under the current [`KERNEL_VERSION`].
    pub fn key(spec: &ExperimentSpec) -> String {
        let material = format!("{}\n{}", spec.canonical_string(), KERNEL_VERSION);
        crate::sha256::sha256_hex(material.as_bytes())
    }

    /// Directory a `spec`'s entry lives in (whether or not it exists yet).
    pub fn entry_dir(&self, spec: &ExperimentSpec) -> PathBuf {
        self.root.join(Self::key(spec))
    }

    /// Load the cached artifact for `spec`, or `None` on a miss.
    ///
    /// A *corrupt* entry — unparseable or mismatched `meta.json`, a missing
    /// payload file, an `artifact.json` that no longer parses (truncation),
    /// or a payload whose checksum disagrees with `meta.json` — is
    /// quarantined to `<root>/.quarantine/<key>-<n>/` and reported as a
    /// miss, so the next [`store`](ResultCache::store) can publish a clean
    /// replacement instead of being shadowed forever.
    pub fn load(&self, spec: &ExperimentSpec) -> Option<CachedArtifact> {
        self.load_tiered(spec).map(|(a, _)| (*a).clone())
    }

    /// Load with tier provenance: memory first (zero file I/O, zero
    /// hashing), then verified disk, promoting a disk hit into the memory
    /// tier so its next load is a memory hit.
    pub fn load_tiered(&self, spec: &ExperimentSpec) -> Option<(Arc<CachedArtifact>, TierHit)> {
        let key = Self::key(spec);
        if let Some(mem) = &self.mem {
            if let Some(artifact) = mem.get(&key) {
                self.counters.mem_hits.inc();
                return Some((artifact, TierHit::Memory));
            }
        }
        let dir = self.entry_dir(spec);
        if !dir.exists() {
            return None;
        }
        match self.load_entry(&dir, spec) {
            Ok(artifact) => {
                self.counters.disk_hits.inc();
                let artifact = Arc::new(artifact);
                if let Some(mem) = &self.mem {
                    mem.insert(&key, Arc::clone(&artifact));
                }
                Some((artifact, TierHit::Disk))
            }
            Err(reason) => {
                self.quarantine(&dir, &key, &reason);
                None
            }
        }
    }

    /// Read and validate one entry directory, describing what is wrong with
    /// it on failure.
    fn load_entry(&self, dir: &Path, spec: &ExperimentSpec) -> Result<CachedArtifact, String> {
        let meta_text = fs::read_to_string(dir.join("meta.json"))
            .map_err(|e| format!("meta.json unreadable: {e}"))?;
        let meta: Value =
            serde_json::from_str(&meta_text).map_err(|e| format!("meta.json unparseable: {e}"))?;
        if meta.get("kernel_version").and_then(Value::as_str) != Some(KERNEL_VERSION) {
            return Err("meta.json kernel_version mismatch".to_string());
        }
        if meta.get("spec_hash").and_then(Value::as_str) != Some(spec.canonical_hash()).as_deref() {
            return Err("meta.json spec_hash mismatch".to_string());
        }
        let read = |name: &str| -> Result<String, String> {
            let text = fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{name} unreadable: {e}"))?;
            // Entries written since checksums were introduced carry the
            // payload hashes in meta.json; verify when present (older
            // entries without them stay loadable).
            if let Some(expected) = meta
                .get("payload_sha256")
                .and_then(|c| c.get(name))
                .and_then(Value::as_str)
            {
                let actual = crate::sha256::sha256_hex(text.as_bytes());
                if actual != expected {
                    return Err(format!("{name} checksum mismatch (truncated or edited)"));
                }
            }
            Ok(text)
        };
        let artifact_json = read("artifact.json")?;
        // Even without a checksum, the envelope must at least still be
        // valid JSON — a truncated file is not.
        serde_json::from_str::<Value>(&artifact_json)
            .map_err(|e| format!("artifact.json unparseable (truncated?): {e}"))?;
        Ok(CachedArtifact {
            stdout_plain: read("stdout.txt")?,
            stdout_markdown: read("stdout.md")?,
            artifact_json,
        })
    }

    /// Move a corrupt entry out of the way, into
    /// `<root>/.quarantine/<key>-<n>/` (first free `n`). Best-effort: a
    /// concurrent quarantine of the same entry may win the rename, which is
    /// fine — the goal is only that the entry no longer shadows stores.
    /// The key is also evicted from the memory tier, so a quarantined key
    /// is gone from *both* tiers at once.
    fn quarantine(&self, dir: &Path, key: &str, reason: &str) {
        if let Some(mem) = &self.mem {
            mem.remove(key);
        }
        let qroot = self.root.join(".quarantine");
        if let Err(e) = fs::create_dir_all(&qroot) {
            eprintln!("# cache: cannot create quarantine dir: {e}");
            let _ = fs::remove_dir_all(dir);
            self.counters.quarantined.inc();
            return;
        }
        for n in 0u32.. {
            let target = qroot.join(format!("{key}-{n}"));
            if target.exists() {
                continue;
            }
            match fs::rename(dir, &target) {
                Ok(()) => {
                    eprintln!(
                        "# cache: quarantined corrupt entry {key} -> {}: {reason}",
                        target.display()
                    );
                    self.counters.quarantined.inc();
                    return;
                }
                Err(_) if !dir.exists() => {
                    // Another handle quarantined (or deleted) it first.
                    return;
                }
                Err(_) if target.exists() => {
                    // Lost the race for this slot number; try the next.
                    continue;
                }
                Err(e) => {
                    eprintln!("# cache: cannot quarantine {key} ({reason}); removing instead: {e}");
                    let _ = fs::remove_dir_all(dir);
                    self.counters.quarantined.inc();
                    return;
                }
            }
        }
    }

    /// Entries this handle (and its clones) have quarantined.
    pub fn quarantined(&self) -> u64 {
        self.counters.quarantined.get()
    }

    /// Persist `artifact` as the entry for `spec`.
    ///
    /// The entry is staged in a temporary directory and published with one
    /// atomic rename. If another writer published the same key first, this
    /// store quietly yields to it — determinism guarantees the bytes match.
    pub fn store(&self, spec: &ExperimentSpec, artifact: &CachedArtifact) -> io::Result<()> {
        let dir = self.entry_dir(spec);
        if dir.exists() {
            return Ok(());
        }
        let key = Self::key(spec);
        let tmp = self.root.join(format!(".tmp-{key}-{}", std::process::id()));
        fs::create_dir_all(&tmp)?;
        let checksums = json!({
            "stdout.txt": crate::sha256::sha256_hex(artifact.stdout_plain.as_bytes()),
            "stdout.md": crate::sha256::sha256_hex(artifact.stdout_markdown.as_bytes()),
            "artifact.json": crate::sha256::sha256_hex(artifact.artifact_json.as_bytes()),
        });
        let meta = json!({
            "kernel_version": KERNEL_VERSION,
            "spec_hash": spec.canonical_hash(),
            "artifact": spec.artifact.name(),
            "cache_key": key,
            "payload_sha256": checksums,
        });
        fs::write(
            tmp.join("meta.json"),
            serde_json::to_string_pretty(&meta).expect("meta serializes"),
        )?;
        fs::write(tmp.join("spec.json"), spec.canonical_string())?;
        fs::write(tmp.join("stdout.txt"), &artifact.stdout_plain)?;
        fs::write(tmp.join("stdout.md"), &artifact.stdout_markdown)?;
        fs::write(tmp.join("artifact.json"), &artifact.artifact_json)?;
        match fs::rename(&tmp, &dir) {
            Ok(()) => {
                // Only the writer that actually published seeds the memory
                // tier: a store that yielded to an existing entry must not
                // let its (unverified-against-disk) bytes shadow it.
                if let Some(mem) = &self.mem {
                    mem.insert(&key, Arc::new(artifact.clone()));
                }
                Ok(())
            }
            Err(e) => {
                // Lost a publish race (or the target appeared concurrently):
                // the existing entry is byte-identical, keep it.
                let _ = fs::remove_dir_all(&tmp);
                if dir.exists() {
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sfc-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_artifact() -> CachedArtifact {
        CachedArtifact {
            stdout_plain: "# banner\ntable body\n".to_string(),
            stdout_markdown: "# banner\n| table |\n".to_string(),
            artifact_json: "{\n  \"artifact\": \"table1\"\n}".to_string(),
        }
    }

    #[test]
    fn store_then_load_round_trips_bytes() {
        let root = temp_root("round-trip");
        let cache = ResultCache::new(&root).unwrap();
        let spec = ExperimentSpec::table1(5, 1, 7);
        assert_eq!(cache.load(&spec), None, "fresh cache must miss");
        let artifact = sample_artifact();
        cache.store(&spec, &artifact).unwrap();
        assert_eq!(cache.load(&spec), Some(artifact));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_depends_on_spec_and_kernel_version() {
        let a = ResultCache::key(&ExperimentSpec::table1(5, 1, 7));
        let b = ResultCache::key(&ExperimentSpec::table1(5, 1, 8));
        assert_ne!(a, b, "different specs must have different keys");
        assert_eq!(a.len(), 64);
        // The kernel version is part of the hashed material, so the key is
        // NOT the bare spec hash: bumping KERNEL_VERSION invalidates.
        assert_ne!(a, ExperimentSpec::table1(5, 1, 7).canonical_hash());
    }

    #[test]
    fn corrupt_meta_is_a_miss_and_quarantines() {
        let root = temp_root("corrupt");
        let cache = ResultCache::new(&root).unwrap();
        let spec = ExperimentSpec::figure6(5, 1, 7);
        cache.store(&spec, &sample_artifact()).unwrap();
        let meta_path = cache.entry_dir(&spec).join("meta.json");
        fs::write(
            &meta_path,
            r#"{"kernel_version": "something-else/0", "spec_hash": "beef"}"#,
        )
        .unwrap();
        assert_eq!(cache.load(&spec), None);
        assert_eq!(cache.quarantined(), 1);
        let key = ResultCache::key(&spec);
        let qdir = root.join(".quarantine").join(format!("{key}-0"));
        assert!(qdir.is_dir(), "corrupt entry must move to quarantine");
        assert!(!cache.entry_dir(&spec).exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_artifact_is_quarantined_and_recomputed_once() {
        let root = temp_root("truncated");
        let cache = ResultCache::new(&root).unwrap();
        let spec = ExperimentSpec::table1(5, 1, 7);
        let artifact = sample_artifact();
        cache.store(&spec, &artifact).unwrap();

        // Truncate the envelope mid-document, as a crashed writer (or a
        // full disk) would leave it.
        let path = cache.entry_dir(&spec).join("artifact.json");
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();

        // First load detects the corruption: miss + quarantine, so the
        // caller recomputes...
        assert_eq!(cache.load(&spec), None);
        assert_eq!(cache.quarantined(), 1);
        // ...and the re-store is NOT shadowed by the broken directory.
        cache.store(&spec, &artifact).unwrap();
        // The repaired entry hits from now on: recomputed once, not forever.
        assert_eq!(cache.load(&spec), Some(artifact));
        assert_eq!(
            cache.quarantined(),
            1,
            "a repaired entry must not re-quarantine"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checksum_mismatch_is_quarantined() {
        let root = temp_root("checksum");
        let cache = ResultCache::new(&root).unwrap();
        let spec = ExperimentSpec::table1(6, 1, 7);
        cache.store(&spec, &sample_artifact()).unwrap();
        // Tamper with a payload that still *reads* fine — only the
        // checksum catches it.
        let path = cache.entry_dir(&spec).join("stdout.txt");
        fs::write(&path, "# banner\nDIFFERENT body\n").unwrap();
        assert_eq!(cache.load(&spec), None);
        assert_eq!(cache.quarantined(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn legacy_entry_without_checksums_still_loads() {
        let root = temp_root("legacy");
        let cache = ResultCache::new(&root).unwrap();
        let spec = ExperimentSpec::table1(7, 1, 7);
        let artifact = sample_artifact();
        cache.store(&spec, &artifact).unwrap();
        // Strip the checksum block, as an entry written before this field
        // existed would look.
        let meta_path = cache.entry_dir(&spec).join("meta.json");
        let meta: Value = serde_json::from_str(&fs::read_to_string(&meta_path).unwrap()).unwrap();
        let legacy = json!({
            "kernel_version": meta.get("kernel_version").unwrap().clone(),
            "spec_hash": meta.get("spec_hash").unwrap().clone(),
        });
        fs::write(&meta_path, serde_json::to_string_pretty(&legacy).unwrap()).unwrap();
        assert_eq!(cache.load(&spec), Some(artifact));
        assert_eq!(cache.quarantined(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn repeated_corruption_fills_successive_quarantine_slots() {
        let root = temp_root("slots");
        let cache = ResultCache::new(&root).unwrap();
        let spec = ExperimentSpec::figure7(6, 1, 7);
        let key = ResultCache::key(&spec);
        for n in 0..2u32 {
            cache.store(&spec, &sample_artifact()).unwrap();
            fs::write(cache.entry_dir(&spec).join("artifact.json"), "{trunc").unwrap();
            assert_eq!(cache.load(&spec), None);
            let qdir = root.join(".quarantine").join(format!("{key}-{n}"));
            assert!(qdir.is_dir(), "quarantine slot {n} must exist");
        }
        assert_eq!(cache.quarantined(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_payload_file_is_quarantined() {
        let root = temp_root("missing-file");
        let cache = ResultCache::new(&root).unwrap();
        let spec = ExperimentSpec::figure6(6, 1, 7);
        cache.store(&spec, &sample_artifact()).unwrap();
        fs::remove_file(cache.entry_dir(&spec).join("stdout.md")).unwrap();
        assert_eq!(cache.load(&spec), None);
        assert_eq!(cache.quarantined(), 1);
        // After quarantine the entry can be rebuilt.
        cache.store(&spec, &sample_artifact()).unwrap();
        assert_eq!(cache.load(&spec), Some(sample_artifact()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn second_store_keeps_the_existing_entry() {
        let root = temp_root("second-store");
        let cache = ResultCache::new(&root).unwrap();
        let spec = ExperimentSpec::figure7(5, 1, 7);
        let first = sample_artifact();
        cache.store(&spec, &first).unwrap();
        let mut second = sample_artifact();
        second.stdout_plain.push_str("tampered\n");
        cache.store(&spec, &second).unwrap();
        assert_eq!(
            cache.load(&spec),
            Some(first),
            "an existing entry must never be overwritten"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn memory_tier_serves_repeats_with_zero_file_io() {
        let root = temp_root("mem-hit");
        let cache = ResultCache::with_memory_budget(&root, 1 << 20).unwrap();
        let spec = ExperimentSpec::table1(5, 1, 7);
        let artifact = sample_artifact();
        cache.store(&spec, &artifact).unwrap();

        // The store seeded the tier; deleting the disk entry proves the
        // following hits touch no file at all.
        fs::remove_dir_all(cache.entry_dir(&spec)).unwrap();
        let (hit, tier) = cache.load_tiered(&spec).unwrap();
        assert_eq!(tier, TierHit::Memory);
        assert_eq!(*hit, artifact);
        assert_eq!(cache.load(&spec), Some(artifact));

        let stats = cache.mem_stats();
        assert_eq!(stats.mem_hits, 2);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.mem_entries, 1);
        assert!(stats.mem_bytes > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_hit_promotes_into_the_memory_tier() {
        let root = temp_root("promote");
        let spec = ExperimentSpec::table1(5, 1, 7);
        let artifact = sample_artifact();
        // Written by a handle with no tier (a CLI run, say)...
        ResultCache::new(&root)
            .unwrap()
            .store(&spec, &artifact)
            .unwrap();

        // ...then read through a tiered handle: first load verifies from
        // disk and promotes, the second is pure memory. All three paths —
        // the freshly stored artifact, the disk hit, and the memory hit —
        // are byte-identical.
        let cache = ResultCache::with_memory_budget(&root, 1 << 20).unwrap();
        let (from_disk, t1) = cache.load_tiered(&spec).unwrap();
        let (from_mem, t2) = cache.load_tiered(&spec).unwrap();
        assert_eq!(t1, TierHit::Disk);
        assert_eq!(t2, TierHit::Memory);
        assert_eq!(*from_disk, artifact);
        assert_eq!(*from_mem, artifact);

        let stats = cache.mem_stats();
        assert_eq!(
            (stats.disk_hits, stats.mem_hits, stats.mem_entries),
            (1, 1, 1)
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget_and_falls_back_to_disk() {
        let root = temp_root("evict");
        // One shard for a deterministic LRU order; the budget holds about
        // two sample entries.
        let budget = 2 * entry_bytes("k".repeat(64).as_str(), &sample_artifact()) + 16;
        let cache = ResultCache::with_memory_tier(&root, budget, 1).unwrap();
        let specs: Vec<ExperimentSpec> = (0..4)
            .map(|s| ExperimentSpec::table1(5, 1, 100 + s))
            .collect();
        for spec in &specs {
            cache.store(spec, &sample_artifact()).unwrap();
        }
        let stats = cache.mem_stats();
        assert!(
            stats.mem_evictions >= 2,
            "evictions: {}",
            stats.mem_evictions
        );
        assert!(stats.mem_bytes <= budget, "{} > {budget}", stats.mem_bytes);
        assert_eq!(stats.mem_entries, 2);

        // The oldest key was evicted from memory but still hits the disk
        // tier with identical bytes — and is promoted back in.
        let (hit, tier) = cache.load_tiered(&specs[0]).unwrap();
        assert_eq!(tier, TierHit::Disk);
        assert_eq!(*hit, sample_artifact());
        let (_, tier) = cache.load_tiered(&specs[0]).unwrap();
        assert_eq!(tier, TierHit::Memory);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn oversized_artifact_skips_the_memory_tier() {
        let root = temp_root("oversize");
        let cache = ResultCache::with_memory_tier(&root, 32, 1).unwrap();
        let spec = ExperimentSpec::table1(5, 1, 7);
        cache.store(&spec, &sample_artifact()).unwrap();
        assert_eq!(cache.mem_stats().mem_entries, 0);
        assert_eq!(
            cache.mem_stats().mem_evictions,
            0,
            "no thrash for a lost cause"
        );
        // Still served, from disk, byte-identically.
        let (hit, tier) = cache.load_tiered(&spec).unwrap();
        assert_eq!(tier, TierHit::Disk);
        assert_eq!(*hit, sample_artifact());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_evicts_the_key_from_the_memory_tier_too() {
        let root = temp_root("mem-quarantine");
        let cache = ResultCache::with_memory_budget(&root, 1 << 20).unwrap();
        let spec = ExperimentSpec::table1(5, 1, 7);
        cache.store(&spec, &sample_artifact()).unwrap();
        assert_eq!(cache.mem_stats().mem_entries, 1);

        // Corrupt the disk entry and force the quarantine path (in normal
        // operation a memory hit would shadow the corruption until the key
        // is evicted; the invariant is that *whenever* quarantine fires,
        // the key leaves both tiers).
        let dir = cache.entry_dir(&spec);
        fs::write(dir.join("artifact.json"), "{trunc").unwrap();
        cache.quarantine(&dir, &ResultCache::key(&spec), "test corruption");

        assert_eq!(cache.quarantined(), 1);
        assert_eq!(
            cache.mem_stats().mem_entries,
            0,
            "key must leave the memory tier"
        );
        assert_eq!(cache.load(&spec), None, "no tier may still answer the key");

        // And the repaired key serves from both tiers again.
        cache.store(&spec, &sample_artifact()).unwrap();
        assert_eq!(cache.load(&spec), Some(sample_artifact()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn clones_share_one_memory_tier() {
        let root = temp_root("mem-clone");
        let cache = ResultCache::with_memory_budget(&root, 1 << 20).unwrap();
        let clone = cache.clone();
        clone
            .store(&ExperimentSpec::table1(5, 1, 7), &sample_artifact())
            .unwrap();
        let (_, tier) = cache.load_tiered(&ExperimentSpec::table1(5, 1, 7)).unwrap();
        assert_eq!(
            tier,
            TierHit::Memory,
            "clone's store must seed the shared tier"
        );
        assert_eq!(cache.mem_stats().mem_hits, 1);
        assert_eq!(clone.mem_stats().mem_hits, 1, "counters are shared too");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_budget_disables_the_tier() {
        let root = temp_root("mem-zero");
        let cache = ResultCache::with_memory_budget(&root, 0).unwrap();
        let spec = ExperimentSpec::table1(5, 1, 7);
        cache.store(&spec, &sample_artifact()).unwrap();
        let (_, tier) = cache.load_tiered(&spec).unwrap();
        assert_eq!(tier, TierHit::Disk);
        let stats = cache.mem_stats();
        assert_eq!(
            (stats.mem_hits, stats.disk_hits, stats.mem_bytes),
            (0, 1, 0)
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn registered_counters_are_the_registry_series() {
        let root = temp_root("registered-counters");
        let registry = MetricsRegistry::new();
        let counters = CacheCounters::registered(&registry, "sfc_serve");
        let cache = ResultCache::with_observability(&root, 1 << 20, 1, counters).unwrap();
        let spec = ExperimentSpec::table1(5, 1, 7);
        cache.store(&spec, &sample_artifact()).unwrap();
        let _ = cache.load(&spec); // memory hit
                                   // The registry sees the increment with no copy step: the cache's
                                   // counter handle IS the registered series.
        let page = registry.render_prometheus();
        assert!(page.contains("sfc_serve_mem_hits_total 1"), "{page}");
        assert!(page.contains("sfc_serve_disk_hits_total 0"), "{page}");
        assert_eq!(cache.mem_stats().mem_hits, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn distinct_specs_occupy_distinct_entries() {
        let root = temp_root("distinct");
        let cache = ResultCache::new(&root).unwrap();
        let t1 = ExperimentSpec::table1(5, 2, 7);
        let t2 = ExperimentSpec::table2(5, 2, 7);
        let mut art2 = sample_artifact();
        art2.artifact_json = "{\n  \"artifact\": \"table2\"\n}".to_string();
        cache.store(&t1, &sample_artifact()).unwrap();
        cache.store(&t2, &art2).unwrap();
        assert_eq!(cache.load(&t1), Some(sample_artifact()));
        assert_eq!(cache.load(&t2), Some(art2));
        let _ = fs::remove_dir_all(&root);
    }
}
