//! Versioned wire shapes of the daemon's `stats` and `health` bodies.
//!
//! The daemon, its final drain flush and `sfc-serve-client` all speak
//! these structs instead of hand-assembling (or hand-picking apart) JSON
//! maps, so the three copies of each shape can never drift. The wire
//! format is frozen by round-trip tests: field names and order match what
//! the daemon has always emitted, with one addition — a leading
//! `schema_version` stamp ([`SCHEMA_VERSION`]) consumers can check before
//! trusting the rest of the object.

use serde_json::{Map, ToJson, Value};

/// Version stamp carried by every `stats` and `health` body. Bump it when
/// a field is removed or changes meaning; adding fields is compatible and
/// does not bump.
pub const SCHEMA_VERSION: u64 = 1;

/// One op's latency histogram as reported under `latency_us`: the total
/// observation count plus the non-empty power-of-two-µs buckets, keyed by
/// their inclusive upper bound (`"inf"` for the unbounded top bucket).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyEntry {
    /// The latency label (`run_compute`, `run_mem_hit`, `stats`, ...).
    pub op: String,
    /// Total observations.
    pub count: u64,
    /// `(upper bound label, count)` pairs in ascending bound order.
    pub le_us: Vec<(String, u64)>,
}

/// The body of a `stats` response (and of the final drain flush line).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsResponse {
    /// Wire-format version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Request lines handled, including malformed ones.
    pub requests: u64,
    /// Run requests admitted and served (the hit-rate denominator).
    pub runs: u64,
    /// Run requests answered from a cache tier.
    pub hits: u64,
    /// Leader computations that ran (complete or not).
    pub computations: u64,
    /// Run requests deduplicated into an in-flight computation.
    pub deduped: u64,
    /// Failed computations (panicked or incomplete sweep).
    pub errors: u64,
    /// Computations that panicked and were contained.
    pub panics: u64,
    /// Requests whose deadline expired before an answer was ready.
    pub deadline_exceeded: u64,
    /// Requests refused by `max_inflight` admission control.
    pub overloaded: u64,
    /// Requests refused because the daemon was draining.
    pub drain_refused: u64,
    /// Warm items accepted into the background queue.
    pub warm_queued: u64,
    /// Warm items whose computation completed.
    pub warm_computed: u64,
    /// Warm items refused at enqueue or dropped by a drain.
    pub warm_dropped: u64,
    /// Cache entries quarantined after failing verification.
    pub quarantined: u64,
    /// Memory-tier cache hits.
    pub mem_hits: u64,
    /// Disk-tier cache hits.
    pub disk_hits: u64,
    /// Memory-tier evictions.
    pub mem_evictions: u64,
    /// Bytes held by the memory tier.
    pub mem_bytes: u64,
    /// Entries held by the memory tier.
    pub mem_entries: u64,
    /// `hits / runs` (0.0 before the first admitted run).
    pub hit_rate: f64,
    /// Computations currently in flight.
    pub inflight: u64,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Accumulated kernel-phase milliseconds, in first-use order.
    pub phases_ms: Vec<(String, f64)>,
    /// Per-op latency histograms, in first-use order.
    pub latency_us: Vec<LatencyEntry>,
}

/// The body of a `health` response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthResponse {
    /// Wire-format version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Computations currently in flight.
    pub inflight: u64,
    /// Requests currently being handled.
    pub active_requests: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Cache entries quarantined after failing verification.
    pub quarantined: u64,
    /// Warm items waiting in the background queue.
    pub warm_queue_depth: u64,
    /// Warm items accepted into the background queue.
    pub warm_queued: u64,
    /// Warm items whose computation completed.
    pub warm_computed: u64,
    /// Warm items refused at enqueue or dropped by a drain.
    pub warm_dropped: u64,
    /// Memory-tier cache hits.
    pub mem_hits: u64,
    /// Disk-tier cache hits.
    pub disk_hits: u64,
    /// Memory-tier evictions.
    pub mem_evictions: u64,
    /// Bytes held by the memory tier.
    pub mem_bytes: u64,
    /// The configured per-request deadline, if any.
    pub deadline_ms: Option<u64>,
    /// The configured admission-control bound, if any.
    pub max_inflight: Option<u64>,
}

fn require<'a>(obj: &'a Map, key: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn get_u64(obj: &Map, key: &str) -> Result<u64, String> {
    require(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

fn get_f64(obj: &Map, key: &str) -> Result<f64, String> {
    require(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))
}

fn get_bool(obj: &Map, key: &str) -> Result<bool, String> {
    require(obj, key)?
        .as_bool()
        .ok_or_else(|| format!("`{key}` must be a boolean"))
}

fn get_opt_u64(obj: &Map, key: &str) -> Result<Option<u64>, String> {
    match require(obj, key)? {
        Value::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer or null")),
    }
}

fn get_object<'a>(obj: &'a Map, key: &str) -> Result<&'a Map, String> {
    require(obj, key)?
        .as_object()
        .ok_or_else(|| format!("`{key}` must be an object"))
}

/// Check and read the leading `schema_version` stamp. Unknown *newer*
/// versions still parse (fields are only ever added within a version), so
/// the caller decides whether a mismatch is a warning or an error.
fn get_version(obj: &Map) -> Result<u64, String> {
    get_u64(obj, "schema_version")
}

impl StatsResponse {
    /// The wire form: field names and order exactly as the daemon emits.
    pub fn to_map(&self) -> Map {
        let mut phases = Map::new();
        for (name, ms) in &self.phases_ms {
            phases.insert(name.clone(), (*ms).to_json());
        }
        let mut latency = Map::new();
        for entry in &self.latency_us {
            let mut buckets = Map::new();
            for (bound, count) in &entry.le_us {
                buckets.insert(bound.clone(), (*count).to_json());
            }
            let mut e = Map::new();
            e.insert("count", entry.count.to_json());
            e.insert("le_us", Value::Object(buckets));
            latency.insert(entry.op.clone(), Value::Object(e));
        }
        let mut body = Map::new();
        body.insert("schema_version", self.schema_version.to_json());
        body.insert("requests", self.requests.to_json());
        body.insert("runs", self.runs.to_json());
        body.insert("hits", self.hits.to_json());
        body.insert("computations", self.computations.to_json());
        body.insert("deduped", self.deduped.to_json());
        body.insert("errors", self.errors.to_json());
        body.insert("panics", self.panics.to_json());
        body.insert("deadline_exceeded", self.deadline_exceeded.to_json());
        body.insert("overloaded", self.overloaded.to_json());
        body.insert("drain_refused", self.drain_refused.to_json());
        body.insert("warm_queued", self.warm_queued.to_json());
        body.insert("warm_computed", self.warm_computed.to_json());
        body.insert("warm_dropped", self.warm_dropped.to_json());
        body.insert("quarantined", self.quarantined.to_json());
        body.insert("mem_hits", self.mem_hits.to_json());
        body.insert("disk_hits", self.disk_hits.to_json());
        body.insert("mem_evictions", self.mem_evictions.to_json());
        body.insert("mem_bytes", self.mem_bytes.to_json());
        body.insert("mem_entries", self.mem_entries.to_json());
        body.insert("hit_rate", self.hit_rate.to_json());
        body.insert("inflight", self.inflight.to_json());
        body.insert("draining", Value::Bool(self.draining));
        body.insert("phases_ms", Value::Object(phases));
        body.insert("latency_us", Value::Object(latency));
        body
    }

    /// [`StatsResponse::to_map`] as a [`Value`].
    pub fn to_json(&self) -> Value {
        Value::Object(self.to_map())
    }

    /// Parse a `stats` body. Field presence and types are checked; extra
    /// fields (from a newer same-version daemon) are ignored.
    pub fn from_json(doc: &Value) -> Result<StatsResponse, String> {
        let obj = doc.as_object().ok_or("stats body must be an object")?;
        let mut phases_ms = Vec::new();
        for (name, v) in get_object(obj, "phases_ms")?.iter() {
            let ms = v
                .as_f64()
                .ok_or_else(|| format!("phase `{name}` must be a number"))?;
            phases_ms.push((name.clone(), ms));
        }
        let mut latency_us = Vec::new();
        for (op, v) in get_object(obj, "latency_us")?.iter() {
            let entry = v
                .as_object()
                .ok_or_else(|| format!("latency entry `{op}` must be an object"))?;
            let mut le_us = Vec::new();
            for (bound, count) in get_object(entry, "le_us")?.iter() {
                let count = count
                    .as_u64()
                    .ok_or_else(|| format!("bucket `{op}`/`{bound}` must be an integer"))?;
                le_us.push((bound.clone(), count));
            }
            latency_us.push(LatencyEntry {
                op: op.clone(),
                count: get_u64(entry, "count")?,
                le_us,
            });
        }
        Ok(StatsResponse {
            schema_version: get_version(obj)?,
            requests: get_u64(obj, "requests")?,
            runs: get_u64(obj, "runs")?,
            hits: get_u64(obj, "hits")?,
            computations: get_u64(obj, "computations")?,
            deduped: get_u64(obj, "deduped")?,
            errors: get_u64(obj, "errors")?,
            panics: get_u64(obj, "panics")?,
            deadline_exceeded: get_u64(obj, "deadline_exceeded")?,
            overloaded: get_u64(obj, "overloaded")?,
            drain_refused: get_u64(obj, "drain_refused")?,
            warm_queued: get_u64(obj, "warm_queued")?,
            warm_computed: get_u64(obj, "warm_computed")?,
            warm_dropped: get_u64(obj, "warm_dropped")?,
            quarantined: get_u64(obj, "quarantined")?,
            mem_hits: get_u64(obj, "mem_hits")?,
            disk_hits: get_u64(obj, "disk_hits")?,
            mem_evictions: get_u64(obj, "mem_evictions")?,
            mem_bytes: get_u64(obj, "mem_bytes")?,
            mem_entries: get_u64(obj, "mem_entries")?,
            hit_rate: get_f64(obj, "hit_rate")?,
            inflight: get_u64(obj, "inflight")?,
            draining: get_bool(obj, "draining")?,
            phases_ms,
            latency_us,
        })
    }
}

impl HealthResponse {
    /// The wire form: field names and order exactly as the daemon emits.
    pub fn to_map(&self) -> Map {
        let opt = |v: Option<u64>| match v {
            Some(n) => n.to_json(),
            None => Value::Null,
        };
        let mut body = Map::new();
        body.insert("schema_version", self.schema_version.to_json());
        body.insert("draining", Value::Bool(self.draining));
        body.insert("inflight", self.inflight.to_json());
        body.insert("active_requests", self.active_requests.to_json());
        body.insert("uptime_ms", self.uptime_ms.to_json());
        body.insert("quarantined", self.quarantined.to_json());
        body.insert("warm_queue_depth", self.warm_queue_depth.to_json());
        body.insert("warm_queued", self.warm_queued.to_json());
        body.insert("warm_computed", self.warm_computed.to_json());
        body.insert("warm_dropped", self.warm_dropped.to_json());
        body.insert("mem_hits", self.mem_hits.to_json());
        body.insert("disk_hits", self.disk_hits.to_json());
        body.insert("mem_evictions", self.mem_evictions.to_json());
        body.insert("mem_bytes", self.mem_bytes.to_json());
        body.insert("deadline_ms", opt(self.deadline_ms));
        body.insert("max_inflight", opt(self.max_inflight));
        body
    }

    /// [`HealthResponse::to_map`] as a [`Value`].
    pub fn to_json(&self) -> Value {
        Value::Object(self.to_map())
    }

    /// Parse a `health` body. Field presence and types are checked; extra
    /// fields (from a newer same-version daemon) are ignored.
    pub fn from_json(doc: &Value) -> Result<HealthResponse, String> {
        let obj = doc.as_object().ok_or("health body must be an object")?;
        Ok(HealthResponse {
            schema_version: get_version(obj)?,
            draining: get_bool(obj, "draining")?,
            inflight: get_u64(obj, "inflight")?,
            active_requests: get_u64(obj, "active_requests")?,
            uptime_ms: get_u64(obj, "uptime_ms")?,
            quarantined: get_u64(obj, "quarantined")?,
            warm_queue_depth: get_u64(obj, "warm_queue_depth")?,
            warm_queued: get_u64(obj, "warm_queued")?,
            warm_computed: get_u64(obj, "warm_computed")?,
            warm_dropped: get_u64(obj, "warm_dropped")?,
            mem_hits: get_u64(obj, "mem_hits")?,
            disk_hits: get_u64(obj, "disk_hits")?,
            mem_evictions: get_u64(obj, "mem_evictions")?,
            mem_bytes: get_u64(obj, "mem_bytes")?,
            deadline_ms: get_opt_u64(obj, "deadline_ms")?,
            max_inflight: get_opt_u64(obj, "max_inflight")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> StatsResponse {
        StatsResponse {
            schema_version: SCHEMA_VERSION,
            requests: 12,
            runs: 4,
            hits: 2,
            computations: 2,
            deduped: 1,
            errors: 0,
            panics: 0,
            deadline_exceeded: 0,
            overloaded: 3,
            drain_refused: 1,
            warm_queued: 5,
            warm_computed: 4,
            warm_dropped: 1,
            quarantined: 0,
            mem_hits: 2,
            disk_hits: 1,
            mem_evictions: 0,
            mem_bytes: 4096,
            mem_entries: 1,
            hit_rate: 0.5,
            inflight: 0,
            draining: false,
            phases_ms: vec![("nfi".to_string(), 1.25), ("ffi".to_string(), 0.5)],
            latency_us: vec![LatencyEntry {
                op: "run_compute".to_string(),
                count: 3,
                le_us: vec![("1024".to_string(), 2), ("inf".to_string(), 1)],
            }],
        }
    }

    fn sample_health(limits: bool) -> HealthResponse {
        HealthResponse {
            schema_version: SCHEMA_VERSION,
            draining: true,
            inflight: 1,
            active_requests: 2,
            uptime_ms: 1234,
            quarantined: 0,
            warm_queue_depth: 3,
            warm_queued: 5,
            warm_computed: 2,
            warm_dropped: 0,
            mem_hits: 7,
            disk_hits: 1,
            mem_evictions: 0,
            mem_bytes: 8192,
            deadline_ms: limits.then_some(1500),
            max_inflight: limits.then_some(4),
        }
    }

    #[test]
    fn stats_round_trips_through_the_wire_form_byte_identically() {
        let stats = sample_stats();
        let wire = serde_json::to_string(&stats.to_json()).unwrap();
        let parsed = StatsResponse::from_json(&serde_json::from_str(&wire).unwrap()).unwrap();
        assert_eq!(parsed, stats);
        // Re-serializing the parse reproduces the original bytes: names,
        // order and number formatting are all stable.
        assert_eq!(serde_json::to_string(&parsed.to_json()).unwrap(), wire);
    }

    #[test]
    fn health_round_trips_with_and_without_configured_limits() {
        for limits in [false, true] {
            let health = sample_health(limits);
            let wire = serde_json::to_string(&health.to_json()).unwrap();
            let parsed = HealthResponse::from_json(&serde_json::from_str(&wire).unwrap()).unwrap();
            assert_eq!(parsed, health);
            assert_eq!(serde_json::to_string(&parsed.to_json()).unwrap(), wire);
        }
    }

    #[test]
    fn missing_and_mistyped_fields_are_named_in_the_error() {
        let mut obj = sample_stats().to_map();
        obj.remove("runs");
        let err = StatsResponse::from_json(&Value::Object(obj)).unwrap_err();
        assert!(err.contains("runs"), "{err}");

        let mut obj = sample_health(true).to_map();
        obj.insert("uptime_ms", "soon".to_json());
        let err = HealthResponse::from_json(&Value::Object(obj)).unwrap_err();
        assert!(err.contains("uptime_ms"), "{err}");
    }

    #[test]
    fn wire_field_names_are_the_historical_ones() {
        // The pre-versioning daemon emitted exactly these keys in exactly
        // this order; `schema_version` is the only addition (leading).
        let stats_map = sample_stats().to_map();
        let stats_keys: Vec<&str> = stats_map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            stats_keys,
            [
                "schema_version",
                "requests",
                "runs",
                "hits",
                "computations",
                "deduped",
                "errors",
                "panics",
                "deadline_exceeded",
                "overloaded",
                "drain_refused",
                "warm_queued",
                "warm_computed",
                "warm_dropped",
                "quarantined",
                "mem_hits",
                "disk_hits",
                "mem_evictions",
                "mem_bytes",
                "mem_entries",
                "hit_rate",
                "inflight",
                "draining",
                "phases_ms",
                "latency_us"
            ]
        );
        let health_map = sample_health(true).to_map();
        let health_keys: Vec<&str> = health_map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            health_keys,
            [
                "schema_version",
                "draining",
                "inflight",
                "active_requests",
                "uptime_ms",
                "quarantined",
                "warm_queue_depth",
                "warm_queued",
                "warm_computed",
                "warm_dropped",
                "mem_hits",
                "disk_hits",
                "mem_evictions",
                "mem_bytes",
                "deadline_ms",
                "max_inflight"
            ]
        );
    }
}
