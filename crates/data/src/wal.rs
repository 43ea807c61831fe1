//! Write-ahead log and snapshot manifests for durable explain sessions.
//!
//! The MVCC session in `crp-core` publishes one immutable snapshot per
//! applied update batch. Durability composes on top of that boundary:
//! a batch is appended here — and fsynced — *before* it is handed to
//! the engine, and the `commit <epoch>` marker that closes the record
//! names the epoch the batch produced. A killed session recovers by
//! loading the newest snapshot named in the [`Manifest`] and replaying
//! every *complete* WAL batch past its epoch; a tail torn mid-record
//! (the crash case) is discarded, so recovery always lands on the last
//! complete epoch — exactly the guarantee readers already have in
//! memory (no torn epochs).
//!
//! ## Log format
//!
//! Update lines reuse the replay-[`workload`](crate::workload) record
//! grammar (`insert <id> x,y[;x,y…]` / `replace …` / `delete <id>`),
//! so a WAL is itself a valid replay workload. Two extensions:
//!
//! ```text
//! insert 57 4200,1800@0.25 ; 3900,2100@0.75   # non-uniform sample probs
//! commit 58                                    # batch boundary → epoch 58
//! ```
//!
//! Snapshot files are plain `insert` lines (uniform objects round-trip
//! through the stock grammar) and are published with the full
//! tmp-file + fsync + rename + directory-fsync dance, manifest last, so
//! a crash mid-checkpoint leaves the previous checkpoint intact.
//!
//! Every disk operation routes through the [`crate::vfs`] seam: the
//! `*_with` variants take any [`Vfs`] (the crash-consistency simulator,
//! the fault injector), while the original names run on [`RealVfs`].
//! Idempotent ops (open/read/rename/dir-sync) retry transient faults
//! with bounded backoff; writes and fsyncs never retry — a re-issued
//! partial write would corrupt the log mid-stream, and recovery cannot
//! resync past a torn middle.

use crate::io::CsvError;
use crate::vfs::{retry, RealVfs, RetryPolicy, Vfs, VfsFile};
use crp_geom::Point;
use crp_uncertain::{Epoch, ObjectId, UncertainDataset, UncertainObject, Update};
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The manifest file name inside a session directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// The write-ahead log file name inside a session directory.
pub const WAL_FILE: &str = "wal.log";

// ---------------------------------------------------------------- encode

/// Serializes an object in WAL/workload grammar: `<id> x,y[;x,y…]`,
/// with `@prob` suffixes only when the sample probabilities are not
/// uniform (so uniform objects stay parseable by the stock
/// [`workload`](crate::workload) loader).
pub fn format_object(object: &UncertainObject) -> String {
    let uniform_prob = 1.0 / object.sample_count() as f64;
    let uniform = object.samples().iter().all(|s| s.prob() == uniform_prob);
    let mut out = String::new();
    let _ = write!(out, "{}", object.id().0);
    for (i, sample) in object.samples().iter().enumerate() {
        out.push(if i == 0 { ' ' } else { ';' });
        for (d, c) in sample.point().coords().iter().enumerate() {
            if d > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        if !uniform {
            let _ = write!(out, "@{}", sample.prob());
        }
    }
    out
}

/// Serializes one update as a WAL line (no trailing newline).
pub fn format_update(update: &Update<UncertainObject>) -> String {
    match update {
        Update::Insert(o) => format!("insert {}", format_object(o)),
        Update::Replace(o) => format!("replace {}", format_object(o)),
        Update::Delete(id) => format!("delete {}", id.0),
    }
}

// ---------------------------------------------------------------- decode

fn parse_id(tok: &str, line: usize) -> Result<ObjectId, CsvError> {
    tok.trim()
        .parse::<u32>()
        .map(ObjectId)
        .map_err(|e| CsvError::Malformed {
            line,
            reason: format!("bad object id {tok:?}: {e}"),
        })
}

/// `<id> x,y[@p][;x,y[@p]…]` — the workload object grammar plus the
/// optional `@prob` suffix. Either every sample carries a probability
/// or none does.
fn parse_object(rest: &str, line: usize) -> Result<UncertainObject, CsvError> {
    let (id_tok, samples_tok) =
        rest.split_once(char::is_whitespace)
            .ok_or_else(|| CsvError::Malformed {
                line,
                reason: "expected `<id> x,y[@p][;x,y[@p]…]`".into(),
            })?;
    let id = parse_id(id_tok, line)?;
    let mut points = Vec::new();
    let mut probs = Vec::new();
    for sample in samples_tok.split(';') {
        let sample = sample.trim();
        let (coords_tok, prob_tok) = match sample.split_once('@') {
            Some((c, p)) => (c, Some(p)),
            None => (sample, None),
        };
        let coords: Vec<f64> = coords_tok
            .split(',')
            .map(|c| {
                c.trim().parse::<f64>().map_err(|e| CsvError::Malformed {
                    line,
                    reason: format!("bad coordinate {c:?}: {e}"),
                })
            })
            .collect::<Result<_, _>>()?;
        if coords.is_empty() || coords_tok.trim().is_empty() {
            return Err(CsvError::Malformed {
                line,
                reason: "empty sample".into(),
            });
        }
        if let Some(p) = prob_tok {
            let p = p.trim().parse::<f64>().map_err(|e| CsvError::Malformed {
                line,
                reason: format!("bad probability {p:?}: {e}"),
            })?;
            probs.push(p);
        }
        points.push(Point::new(coords));
    }
    let object = if probs.is_empty() {
        UncertainObject::with_equal_probs(id, points)
    } else if probs.len() == points.len() {
        UncertainObject::new(id, points.into_iter().zip(probs))
    } else {
        return Err(CsvError::Malformed {
            line,
            reason: "either every sample carries @prob or none does".into(),
        });
    };
    object.map_err(|e| CsvError::Malformed {
        line,
        reason: e.to_string(),
    })
}

/// One parsed WAL line: an update, or the commit marker closing a batch.
enum WalLine {
    Update(Update<UncertainObject>),
    Commit(Epoch),
}

fn parse_wal_line(content: &str, line: usize) -> Result<WalLine, CsvError> {
    let (verb, rest) = match content.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (content, ""),
    };
    match verb {
        "insert" => Ok(WalLine::Update(Update::Insert(parse_object(rest, line)?))),
        "replace" => Ok(WalLine::Update(Update::Replace(parse_object(rest, line)?))),
        "delete" => Ok(WalLine::Update(Update::Delete(parse_id(rest, line)?))),
        "commit" => rest
            .parse::<u64>()
            .map(|e| WalLine::Commit(Epoch(e)))
            .map_err(|e| CsvError::Malformed {
                line,
                reason: format!("bad commit epoch {rest:?}: {e}"),
            }),
        other => Err(CsvError::Malformed {
            line,
            reason: format!("unknown WAL op {other:?} (use insert|delete|replace|commit)"),
        }),
    }
}

// --------------------------------------------------------------- recover

/// One committed batch recovered from the log: the updates, and the
/// epoch their `commit` marker recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct WalBatch {
    /// The batch's updates, in append order.
    pub updates: Vec<Update<UncertainObject>>,
    /// The epoch the batch produced (from its `commit` line).
    pub epoch: Epoch,
}

/// What [`recover_wal_text`] salvaged from a log.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Every complete (committed) batch, in log order.
    pub batches: Vec<WalBatch>,
    /// True when a torn or uncommitted tail was discarded — the
    /// expected state after a crash mid-append.
    pub truncated: bool,
    /// Non-empty lines discarded with the tail.
    pub dropped_lines: usize,
    /// Bytes of log text scanned.
    pub bytes: u64,
}

impl WalRecovery {
    /// The last committed epoch, `None` for an empty/torn-only log.
    pub fn last_epoch(&self) -> Option<Epoch> {
        self.batches.last().map(|b| b.epoch)
    }
}

/// Scans WAL text up to the last complete `commit` marker. Unlike the
/// strict workload parser this *tolerates* a malformed or uncommitted
/// tail — that is the crash it exists to absorb — but only as a tail:
/// everything from the first bad line on is dropped and counted, never
/// resynced past.
pub fn recover_wal_text(text: &str) -> WalRecovery {
    let mut recovery = WalRecovery {
        bytes: text.len() as u64,
        ..WalRecovery::default()
    };
    let lines: Vec<&str> = text.lines().collect();
    let mut pending: Vec<Update<UncertainObject>> = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        // The appender terminates every record with a newline, so a
        // final line missing one is a torn write even when its prefix
        // happens to parse (`commit 12` cut to `commit 1` must not
        // resurface as a phantom epoch-1 marker).
        let torn_write = idx + 1 == lines.len() && !text.ends_with('\n');
        let parsed = if torn_write {
            Err(CsvError::Malformed {
                line: idx + 1,
                reason: "record not newline-terminated".into(),
            })
        } else {
            parse_wal_line(content, idx + 1)
        };
        match parsed {
            Ok(WalLine::Update(u)) => pending.push(u),
            Ok(WalLine::Commit(epoch)) => recovery.batches.push(WalBatch {
                updates: std::mem::take(&mut pending),
                epoch,
            }),
            Err(_) => {
                recovery.truncated = true;
                recovery.dropped_lines = pending.len()
                    + lines[idx..]
                        .iter()
                        .filter(|r| !r.split('#').next().unwrap_or("").trim().is_empty())
                        .count();
                return recovery;
            }
        }
    }
    if !pending.is_empty() {
        recovery.truncated = true;
        recovery.dropped_lines = pending.len();
    }
    recovery
}

/// [`recover_wal_text`] from a file through an injectable [`Vfs`]; a
/// missing file recovers to the empty log (a fresh session directory
/// has no WAL yet). The read is idempotent, so transient faults are
/// retried with backoff.
pub fn recover_wal_with(vfs: &dyn Vfs, path: &Path) -> Result<WalRecovery, CsvError> {
    if !vfs.exists(path) {
        return Ok(WalRecovery::default());
    }
    let text = retry(&RetryPolicy::default(), || vfs.read_to_string(path))
        .map_err(|e| CsvError::Io(e.to_string()))?;
    Ok(recover_wal_text(&text))
}

// ---------------------------------------------------------------- append

/// Append-side handle: batches go to disk (flushed and fsynced) before
/// the engine sees them.
pub struct WriteAheadLog {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    bytes: u64,
}

impl fmt::Debug for WriteAheadLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteAheadLog")
            .field("path", &self.path)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl WriteAheadLog {
    /// Opens (or creates) the log for appending; existing committed
    /// content is preserved.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, CsvError> {
        Self::open_with(&RealVfs, path.into())
    }

    /// [`WriteAheadLog::open`] through an injectable [`Vfs`]. A
    /// brand-new log file is followed by a parent-directory fsync:
    /// without it the file's directory entry is volatile, and a crash
    /// could silently drop the *entire* log — fsynced batches included.
    pub fn open_with(vfs: &dyn Vfs, path: impl Into<PathBuf>) -> Result<Self, CsvError> {
        let path = path.into();
        let io_err = |e: std::io::Error| CsvError::Io(e.to_string());
        let policy = RetryPolicy::default();
        let fresh = !vfs.exists(&path);
        let file = retry(&policy, || vfs.open_append(&path)).map_err(io_err)?;
        if fresh {
            if let Some(parent) = path.parent() {
                retry(&policy, || vfs.sync_dir(parent)).map_err(io_err)?;
            }
        }
        let bytes = vfs.file_len(&path).map_err(io_err)?;
        Ok(Self { file, path, bytes })
    }

    /// Appends one batch record — every update line plus the closing
    /// `commit <epoch>` marker — in a single write, then fsyncs. Only
    /// after this returns may the batch be applied to the engine.
    pub fn append_batch(
        &mut self,
        updates: &[Update<UncertainObject>],
        epoch: Epoch,
    ) -> Result<(), CsvError> {
        let mut record = String::new();
        for update in updates {
            record.push_str(&format_update(update));
            record.push('\n');
        }
        let _ = writeln!(record, "commit {}", epoch.0);
        self.file
            .write_all(record.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| CsvError::Io(e.to_string()))?;
        self.bytes += record.len() as u64;
        Ok(())
    }

    /// Bytes in the log (existing content plus this handle's appends).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// -------------------------------------------------------------- snapshot

/// The durable-session manifest: which snapshot file is current and the
/// epoch it was taken at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Epoch of the snapshot.
    pub epoch: Epoch,
    /// Snapshot file name, relative to the session directory.
    pub snapshot: String,
}

/// Checkpoints a dataset through an injectable [`Vfs`]: writes
/// `snapshot-<epoch>.crp` (insert lines) and then the
/// [`MANIFEST_FILE`], each via tmp-file + fsync + rename +
/// parent-directory fsync so a crash mid-checkpoint never clobbers the
/// previous one. Returns the manifest it published.
pub fn write_snapshot_with(
    vfs: &dyn Vfs,
    dir: &Path,
    ds: &UncertainDataset,
) -> Result<Manifest, CsvError> {
    let epoch = ds.epoch();
    let name = format!("snapshot-{:010}.crp", epoch.0);

    let mut body = format!("# dataset checkpoint at epoch {}\n", epoch.0);
    for object in ds.objects() {
        body.push_str("insert ");
        body.push_str(&format_object(object));
        body.push('\n');
    }
    atomic_write(vfs, &dir.join(&name), &body)?;

    let manifest = Manifest {
        epoch,
        snapshot: name,
    };
    atomic_write(
        vfs,
        &dir.join(MANIFEST_FILE),
        &format!(
            "epoch {}\nsnapshot {}\n",
            manifest.epoch.0, manifest.snapshot
        ),
    )?;
    Ok(manifest)
}

/// tmp + write + fsync + rename + **parent-directory fsync**. The last
/// step is the classic omission: without it the rename lives only in
/// the directory's volatile state, and a crash right after this
/// function returns can resurface the *old* file — or, for a file that
/// never existed before (a fresh session's seed checkpoint), no file at
/// all, making the directory look empty and silently re-seeding.
fn atomic_write(vfs: &dyn Vfs, path: &Path, body: &str) -> Result<(), CsvError> {
    let tmp = path.with_extension("tmp");
    let io_err = |e: std::io::Error| CsvError::Io(e.to_string());
    let policy = RetryPolicy::default();
    let mut file = retry(&policy, || vfs.create(&tmp)).map_err(io_err)?;
    // Write + fsync are never retried: a re-issued write after a
    // partial one would corrupt the tmp file undetectably.
    file.write_all(body.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(io_err)?;
    drop(file);
    retry(&policy, || vfs.rename(&tmp, path)).map_err(io_err)?;
    if let Some(parent) = path.parent() {
        retry(&policy, || vfs.sync_dir(parent)).map_err(io_err)?;
    }
    Ok(())
}

/// Reads the manifest through an injectable [`Vfs`], `None` when the
/// directory has no checkpoint yet.
pub fn read_manifest_with(vfs: &dyn Vfs, dir: &Path) -> Result<Option<Manifest>, CsvError> {
    let path = dir.join(MANIFEST_FILE);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    let text = retry(&RetryPolicy::default(), || vfs.read_to_string(&path))
        .map_err(|e| CsvError::Io(e.to_string()))?;
    let mut epoch = None;
    let mut snapshot = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.trim();
        if content.is_empty() {
            continue;
        }
        match content.split_once(char::is_whitespace) {
            Some(("epoch", rest)) => {
                epoch = Some(Epoch(rest.trim().parse::<u64>().map_err(|e| {
                    CsvError::Malformed {
                        line,
                        reason: format!("bad manifest epoch: {e}"),
                    }
                })?))
            }
            Some(("snapshot", rest)) => snapshot = Some(rest.trim().to_string()),
            _ => {
                return Err(CsvError::Malformed {
                    line,
                    reason: format!("unknown manifest line {content:?}"),
                })
            }
        }
    }
    match (epoch, snapshot) {
        (Some(epoch), Some(snapshot)) => Ok(Some(Manifest { epoch, snapshot })),
        _ => Err(CsvError::Malformed {
            line: 1,
            reason: "manifest needs both `epoch` and `snapshot` lines".into(),
        }),
    }
}

/// Loads the checkpoint a manifest names through an injectable
/// [`Vfs`] and restores its epoch, so the recovered dataset continues
/// the WAL's numbering. Snapshot files are written atomically, so
/// parsing is strict — a malformed snapshot is corruption, not a crash
/// artefact.
pub fn load_snapshot_with(
    vfs: &dyn Vfs,
    dir: &Path,
    manifest: &Manifest,
) -> Result<UncertainDataset, CsvError> {
    let path = dir.join(&manifest.snapshot);
    let text = retry(&RetryPolicy::default(), || vfs.read_to_string(&path))
        .map_err(|e| CsvError::Io(e.to_string()))?;
    let mut objects = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        match parse_wal_line(content, line)? {
            WalLine::Update(Update::Insert(o)) => objects.push(o),
            _ => {
                return Err(CsvError::Malformed {
                    line,
                    reason: "snapshot files hold only insert lines".into(),
                })
            }
        }
    }
    let mut ds = UncertainDataset::from_objects(objects).map_err(|e| CsvError::Malformed {
        line: 0,
        reason: e.to_string(),
    })?;
    ds.restore_epoch(manifest.epoch);
    Ok(ds)
}

/// Recovers a full session directory: newest checkpoint (if any) plus
/// every committed WAL batch *past* the checkpoint's epoch, replayed in
/// order. Returns the dataset positioned at the last complete epoch and
/// the recovery report for the log.
pub fn recover_session(dir: impl AsRef<Path>) -> Result<(UncertainDataset, WalRecovery), CsvError> {
    recover_session_with(&RealVfs, dir.as_ref())
}

/// [`recover_session`] through an injectable [`Vfs`].
pub fn recover_session_with(
    vfs: &dyn Vfs,
    dir: &Path,
) -> Result<(UncertainDataset, WalRecovery), CsvError> {
    let mut ds = match read_manifest_with(vfs, dir)? {
        Some(manifest) => load_snapshot_with(vfs, dir, &manifest)?,
        None => UncertainDataset::new(),
    };
    let base = ds.epoch();
    let recovery = recover_wal_with(vfs, &dir.join(WAL_FILE))?;
    for batch in &recovery.batches {
        if batch.epoch.0 <= base.0 {
            continue; // already absorbed by the checkpoint
        }
        for update in &batch.updates {
            ds.apply(update.clone()).map_err(|e| CsvError::Malformed {
                line: 0,
                reason: format!("WAL replay diverged from committed state: {e}"),
            })?;
        }
        if ds.epoch() != batch.epoch {
            return Err(CsvError::Malformed {
                line: 0,
                reason: format!(
                    "WAL commit marker {} does not match replayed epoch {}",
                    batch.epoch.0,
                    ds.epoch().0
                ),
            });
        }
    }
    Ok((ds, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u32, pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::with_equal_probs(
            ObjectId(id),
            pts.iter().map(|&(x, y)| Point::from([x, y])),
        )
        .unwrap()
    }

    #[test]
    fn updates_round_trip_through_the_line_format() {
        let weighted = UncertainObject::new(
            ObjectId(7),
            vec![
                (Point::from([1.25, 2.0]), 0.25),
                (Point::from([3.0, 4.5]), 0.75),
            ],
        )
        .unwrap();
        for update in [
            Update::Insert(obj(3, &[(10.0, 20.0), (11.0, 21.0)])),
            Update::Replace(weighted),
            Update::Delete(ObjectId(13)),
        ] {
            let line = format_update(&update);
            match parse_wal_line(&line, 1).unwrap() {
                WalLine::Update(parsed) => assert_eq!(parsed, update, "{line}"),
                WalLine::Commit(_) => panic!("unexpected commit for {line}"),
            }
        }
        // Uniform objects stay parseable by the stock workload grammar.
        let line = format_update(&Update::Insert(obj(3, &[(1.0, 2.0), (3.0, 4.0)])));
        assert!(crate::workload::parse_workload(&line).is_ok(), "{line}");
    }

    #[test]
    fn recovery_keeps_committed_batches_and_drops_torn_tail() {
        let text = "insert 1 1,2\ninsert 2 3,4\ncommit 2\ndelete 1\ncommit 3\ninsert 9 5,"; // torn
        let rec = recover_wal_text(text);
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.last_epoch(), Some(Epoch(3)));
        assert_eq!(rec.batches[0].updates.len(), 2);
        assert_eq!(rec.batches[1].updates, vec![Update::Delete(ObjectId(1))]);
        assert!(rec.truncated);
        assert_eq!(rec.dropped_lines, 1);

        // Complete lines without a commit marker are equally uncommitted.
        let rec = recover_wal_text("insert 1 1,2\ncommit 1\ndelete 1\n");
        assert_eq!(rec.last_epoch(), Some(Epoch(1)));
        assert!(rec.truncated);
        assert_eq!(rec.dropped_lines, 1);

        let rec = recover_wal_text("");
        assert!(rec.batches.is_empty() && !rec.truncated);
    }

    #[test]
    fn session_recovers_checkpoint_plus_wal_tail() {
        let dir = std::env::temp_dir().join(format!(
            "crp-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // Epochs 1..=2 via checkpoint…
        let mut ds = UncertainDataset::new();
        ds.push(obj(1, &[(1.0, 2.0)])).unwrap();
        ds.push(obj(2, &[(3.0, 4.0), (5.0, 6.0)])).unwrap();
        let manifest = write_snapshot_with(&RealVfs, &dir, &ds).unwrap();
        assert_eq!(manifest.epoch, Epoch(2));
        assert_eq!(
            read_manifest_with(&RealVfs, &dir).unwrap().unwrap(),
            manifest
        );

        // …epochs 3..=4 via WAL, plus a torn tail.
        let wal_path = dir.join(WAL_FILE);
        let mut wal = WriteAheadLog::open(&wal_path).unwrap();
        let batch = vec![
            Update::Insert(obj(9, &[(7.0, 8.0)])),
            Update::Delete(ObjectId(1)),
        ];
        wal.append_batch(&batch, Epoch(4)).unwrap();
        ds.apply(batch[0].clone()).unwrap();
        ds.apply(batch[1].clone()).unwrap();
        let committed_bytes = wal.bytes();
        std::fs::write(
            &wal_path,
            String::from_utf8(std::fs::read(&wal_path).unwrap()).unwrap() + "insert 10 9,",
        )
        .unwrap();

        let (recovered, report) = recover_session(&dir).unwrap();
        assert_eq!(recovered.epoch(), Epoch(4));
        assert_eq!(recovered.len(), ds.len());
        assert!(report.truncated);
        assert!(report.bytes > committed_bytes);
        assert!(recovered.get(ObjectId(9)).is_some());
        assert!(recovered.get(ObjectId(1)).is_none());

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
