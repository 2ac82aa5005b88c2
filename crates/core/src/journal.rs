//! Append-only JSONL journal of completed sweep cells.
//!
//! A long regeneration sweep decomposes into named cells (one
//! `(configuration, trial)` unit each). As each cell completes, one line is
//! appended here and flushed, so a crash or an exhausted `--time-budget`
//! loses at most the cell in flight. On restart the journal is replayed and
//! only the missing cells are recomputed.
//!
//! Format: line 1 is a header binding the journal to a sweep name and a
//! configuration fingerprint; every further line is one cell record:
//!
//! ```text
//! {"sweep":"tables","fingerprint":{"scale":5,"trials":1,"seed":20130701}}
//! {"cell":"Uniform/t0/Hilbert","status":"ok","values":[1.5,2.25]}
//! {"cell":"Uniform/t0/Z","status":"failed","error":"...","attempts":3}
//! ```
//!
//! Values are `f64`s serialized in shortest-round-trip form, so a value
//! replayed from the journal is *bit-identical* to the one originally
//! computed — resumed runs produce byte-identical artifacts.
//!
//! A truncated final line (the process died mid-write) is detected and
//! dropped; the file is truncated back to the last complete record before
//! appending resumes.

use crate::error::SfcError;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Result of one journaled cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell completed and produced these values.
    Ok(Vec<f64>),
    /// The cell returned a typed error or panicked on every attempt; the
    /// error is recorded so the sweep can report it instead of aborting.
    Failed {
        /// Captured panic message of the final attempt.
        error: String,
        /// Number of attempts made.
        attempts: u32,
    },
}

/// An open cell journal: the replayed map of completed cells plus an append
/// handle positioned after the last complete record.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    completed: BTreeMap<String, CellOutcome>,
    /// Fault injection for tests: once this many records have been written
    /// through this handle, every further write fails. `None` disables.
    fail_after: Option<u64>,
    records_written: u64,
}

impl Journal {
    /// Open (or create) the journal at `path` for the given sweep.
    ///
    /// If the file already holds records, the header must match `sweep` and
    /// `fingerprint` exactly — resuming under different parameters would
    /// silently mix incompatible results, so it is a
    /// [`SfcError::JournalMismatch`] instead. A truncated final line is
    /// dropped (and the file truncated back to the last complete record).
    pub fn open(path: &Path, sweep: &str, fingerprint: &Value) -> Result<Journal, SfcError> {
        let io_err = |e: std::io::Error| SfcError::JournalIo {
            path: path.display().to_string(),
            reason: e.to_string(),
        };
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        let mut text = String::new();
        file.read_to_string(&mut text).map_err(io_err)?;

        let mut completed = BTreeMap::new();
        let header = json!({ "sweep": sweep, "fingerprint": fingerprint });
        if text.is_empty() {
            let mut line = serde_json::to_string(&header).expect("header serializes");
            line.push('\n');
            file.write_all(line.as_bytes()).map_err(io_err)?;
            file.flush().map_err(io_err)?;
        } else {
            // Replay. Anything from the first unparsable line onward is a
            // torn tail write: drop it and truncate so appends stay valid.
            let mut valid_bytes = 0usize;
            for (i, line) in text.split_inclusive('\n').enumerate() {
                let complete = line.ends_with('\n');
                let parsed = serde_json::from_str::<Value>(line.trim_end());
                let record = match (complete, parsed) {
                    (true, Ok(v)) => v,
                    _ => break,
                };
                if i == 0 {
                    if record != header {
                        return Err(SfcError::JournalMismatch {
                            path: path.display().to_string(),
                            reason: format!("header {record} does not match expected {header}"),
                        });
                    }
                } else if let Some(outcome) = parse_record(&record) {
                    let cell = record["cell"].as_str().unwrap_or_default().to_string();
                    completed.insert(cell, outcome);
                } else {
                    break;
                }
                valid_bytes += line.len();
            }
            if valid_bytes == 0 {
                // Even the header was torn; start the journal over.
                let mut line = serde_json::to_string(&header).expect("header serializes");
                line.push('\n');
                file.set_len(0).map_err(io_err)?;
                file.write_all(line.as_bytes()).map_err(io_err)?;
                file.flush().map_err(io_err)?;
            } else if valid_bytes < text.len() {
                file.set_len(valid_bytes as u64).map_err(io_err)?;
                file.seek(SeekFrom::End(0)).map_err(io_err)?;
            }
        }
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            completed,
            fail_after: None,
            records_written: 0,
        })
    }

    /// Arrange for every [`record`](Journal::record) call after the first
    /// `n` to fail with [`SfcError::JournalIo`]. Deterministic stand-in for
    /// a disk filling up mid-sweep, used by fault-injection tests
    /// (`--chaos-journal`).
    pub fn inject_write_failures_after(&mut self, n: u64) {
        self.fail_after = Some(n);
    }

    /// The outcome of a cell recorded in (or appended to) this journal.
    pub fn lookup(&self, cell: &str) -> Option<&CellOutcome> {
        self.completed.get(cell)
    }

    /// Number of cells replayed from disk or recorded since opening.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// True when no cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Append one completed cell and flush, so the record survives a crash
    /// immediately after.
    pub fn record(&mut self, cell: &str, outcome: CellOutcome) -> Result<(), SfcError> {
        let io_err = |e: std::io::Error| SfcError::JournalIo {
            path: self.path.display().to_string(),
            reason: e.to_string(),
        };
        if self.fail_after.is_some_and(|n| self.records_written >= n) {
            return Err(SfcError::JournalIo {
                path: self.path.display().to_string(),
                reason: "injected write failure".to_string(),
            });
        }
        let record = match &outcome {
            CellOutcome::Ok(values) => json!({
                "cell": cell,
                "status": "ok",
                "values": json!(values.as_slice()),
            }),
            CellOutcome::Failed { error, attempts } => json!({
                "cell": cell,
                "status": "failed",
                "error": error.as_str(),
                "attempts": *attempts,
            }),
        };
        let mut line = serde_json::to_string(&record).expect("record serializes");
        line.push('\n');
        self.file.write_all(line.as_bytes()).map_err(io_err)?;
        self.file.flush().map_err(io_err)?;
        self.completed.insert(cell.to_string(), outcome);
        self.records_written += 1;
        Ok(())
    }
}

fn parse_record(v: &Value) -> Option<CellOutcome> {
    v.as_object()?;
    v["cell"].as_str()?;
    match v["status"].as_str()? {
        "ok" => {
            let values = v["values"]
                .as_array()?
                .iter()
                .map(|x| x.as_f64())
                .collect::<Option<Vec<f64>>>()?;
            Some(CellOutcome::Ok(values))
        }
        "failed" => Some(CellOutcome::Failed {
            error: v["error"].as_str()?.to_string(),
            attempts: v["attempts"].as_u64()? as u32,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sfc_journal_{}_{tag}.jsonl", std::process::id()))
    }

    fn fingerprint() -> Value {
        json!({ "scale": 5, "trials": 2, "seed": 7 })
    }

    #[test]
    fn records_survive_reopen() {
        let path = temp_path("reopen");
        std::fs::remove_file(&path).ok();
        {
            let mut j = Journal::open(&path, "demo", &fingerprint()).unwrap();
            j.record("a/t0", CellOutcome::Ok(vec![1.5, 0.1, -0.0]))
                .unwrap();
            j.record(
                "a/t1",
                CellOutcome::Failed {
                    error: "index out of bounds".into(),
                    attempts: 3,
                },
            )
            .unwrap();
        }
        let j = Journal::open(&path, "demo", &fingerprint()).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(
            j.lookup("a/t0"),
            Some(&CellOutcome::Ok(vec![1.5, 0.1, -0.0]))
        );
        match j.lookup("a/t1").unwrap() {
            CellOutcome::Failed { error, attempts } => {
                assert_eq!(error, "index out of bounds");
                assert_eq!(*attempts, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replayed_floats_are_bit_identical() {
        let path = temp_path("bits");
        std::fs::remove_file(&path).ok();
        let values = vec![1.0 / 3.0, f64::MIN_POSITIVE, 123_456_789.123_456_78, -0.0];
        {
            let mut j = Journal::open(&path, "demo", &fingerprint()).unwrap();
            j.record("c", CellOutcome::Ok(values.clone())).unwrap();
        }
        let j = Journal::open(&path, "demo", &fingerprint()).unwrap();
        let CellOutcome::Ok(back) = j.lookup("c").unwrap() else {
            panic!("expected ok outcome");
        };
        for (a, b) in values.iter().zip(back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_last_line_is_dropped() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut j = Journal::open(&path, "demo", &fingerprint()).unwrap();
            j.record("a", CellOutcome::Ok(vec![1.0])).unwrap();
            j.record("b", CellOutcome::Ok(vec![2.0])).unwrap();
        }
        // Tear the final record mid-line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();

        let mut j = Journal::open(&path, "demo", &fingerprint()).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.lookup("a").is_some());
        assert!(j.lookup("b").is_none());
        // The file was truncated back to a record boundary: appending again
        // yields a well-formed journal.
        j.record("b", CellOutcome::Ok(vec![2.5])).unwrap();
        drop(j);
        let j = Journal::open(&path, "demo", &fingerprint()).unwrap();
        assert_eq!(j.lookup("b"), Some(&CellOutcome::Ok(vec![2.5])));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_fingerprint_rejected() {
        let path = temp_path("mismatch");
        std::fs::remove_file(&path).ok();
        drop(Journal::open(&path, "demo", &fingerprint()).unwrap());
        let other = json!({ "scale": 4, "trials": 2, "seed": 7 });
        match Journal::open(&path, "demo", &other) {
            Err(SfcError::JournalMismatch { .. }) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
        match Journal::open(&path, "different-sweep", &fingerprint()) {
            Err(SfcError::JournalMismatch { .. }) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_write_failures_fire_after_threshold() {
        let path = temp_path("inject");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path, "demo", &fingerprint()).unwrap();
        j.inject_write_failures_after(1);
        j.record("a", CellOutcome::Ok(vec![1.0])).unwrap();
        match j.record("b", CellOutcome::Ok(vec![2.0])) {
            Err(SfcError::JournalIo { reason, .. }) => {
                assert_eq!(reason, "injected write failure");
            }
            other => panic!("expected injected failure, got {other:?}"),
        }
        // The failed record never reached disk or the replay map.
        assert!(j.lookup("b").is_none());
        drop(j);
        let j = Journal::open(&path, "demo", &fingerprint()).unwrap();
        assert_eq!(j.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_restarts_journal() {
        let path = temp_path("torn_header");
        std::fs::remove_file(&path).ok();
        std::fs::write(&path, "{\"sweep\":\"demo\",\"finge").unwrap();
        let mut j = Journal::open(&path, "demo", &fingerprint()).unwrap();
        assert!(j.is_empty());
        j.record("a", CellOutcome::Ok(vec![3.0])).unwrap();
        drop(j);
        let j = Journal::open(&path, "demo", &fingerprint()).unwrap();
        assert_eq!(j.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
