//! Durable MVCC explain sessions: the [`MvccEngine`] epoch machinery
//! composed with the `crp-data` write-ahead log and snapshot
//! checkpoints, so a killed session restarts from the last *complete*
//! epoch.
//!
//! ## Protocol
//!
//! [`DurableSession::apply_batch`] is strictly ordered:
//!
//! 1. **validate** — [`UncertainDataset::check_batch`] replays the
//!    batch's id, duplicate and dimension rules against the published
//!    dataset's ids plus an overlay of the ids the batch touches — no
//!    clone, O(batch). A batch that would fail mid-way is rejected
//!    here, before a single byte hits disk (the in-memory engine only
//!    publishes at batch boundaries, so the log must too),
//! 2. **log** — the batch and its `commit <epoch>` marker are appended
//!    and fsynced ([`WriteAheadLog::append_batch`]); the commit epoch is
//!    the one the check computed (one epoch per update),
//! 3. **apply** — only then does [`MvccEngine::apply_batch`] run and
//!    publish the new snapshot to readers. Its own whole-or-nothing
//!    check is the same [`UncertainDataset::check_batch`], so there is
//!    one validator.
//!
//! A crash between 2 and 3 is absorbed on restart: recovery replays the
//! committed batch the engine never saw. A crash *during* 2 leaves a
//! torn tail that [`recover_session_with`] drops — the WAL grammar's
//! newline-terminated records make the last complete `commit` marker
//! unambiguous (property-tested against truncation at every byte).
//!
//! [`DurableSession::open`] seeds a fresh directory by checkpointing
//! the seed dataset immediately — updates alone cannot reconstruct a
//! generated dataset — and recovers an existing one via
//! [`recover_session_with`] (checkpoint + committed WAL tail), ignoring
//! the
//! seed. The WAL grammar is discrete-only, so durable sessions are too;
//! continuous-pdf sessions stay in-memory.

use crp_core::{CrpError, Epoch, MvccCounters, MvccEngine, SnapshotEngine};
use crp_data::io::CsvError;
use crp_data::vfs::{RealVfs, Vfs};
use crp_data::wal::{
    recover_session_with, write_snapshot_with, Manifest, WalRecovery, WriteAheadLog, MANIFEST_FILE,
    WAL_FILE,
};
use crp_uncertain::{UncertainDataset, UncertainObject, Update};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a durable session could not open or apply a batch.
#[derive(Debug)]
pub enum SessionError {
    /// Session-directory I/O or WAL/manifest/snapshot parsing failed.
    Storage(CsvError),
    /// Engine construction or batch validation rejected the input; the
    /// batch was not logged and nothing was published.
    Engine(CrpError),
    /// The engine factory produced a continuous-pdf session, which the
    /// discrete-only WAL grammar cannot make durable.
    PdfSession,
    /// A fatal storage fault poisoned the writer: the session is
    /// read-only — readers keep serving pinned epoch snapshots, but no
    /// further batch or checkpoint is accepted (see
    /// [`DurableSession::is_degraded`]). Carries the original fault.
    Degraded(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Storage(e) => write!(f, "session storage: {e}"),
            SessionError::Engine(e) => write!(f, "session engine: {e}"),
            SessionError::PdfSession => {
                write!(f, "durable sessions are discrete-only (WAL grammar)")
            }
            SessionError::Degraded(reason) => {
                write!(f, "session degraded to read-only: {reason}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CsvError> for SessionError {
    fn from(e: CsvError) -> Self {
        SessionError::Storage(e)
    }
}

impl From<CrpError> for SessionError {
    fn from(e: CrpError) -> Self {
        SessionError::Engine(e)
    }
}

/// An [`MvccEngine`] whose update stream survives the process: batches
/// are write-ahead logged before they are applied, and
/// [`DurableSession::checkpoint`] bounds replay work on restart. See
/// the [module docs](self) for the commit protocol.
pub struct DurableSession<E: SnapshotEngine> {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    wal: WriteAheadLog,
    mvcc: MvccEngine<E>,
    recovery: WalRecovery,
    /// `Some(reason)` once a fatal storage fault poisoned the writer:
    /// the session serves reads only from then on.
    degraded: Option<String>,
}

impl<E: SnapshotEngine> DurableSession<E> {
    /// Opens the session directory. A directory holding a checkpoint
    /// manifest or a WAL recovers to its last complete epoch (the seed
    /// is ignored); a fresh directory starts from `seed` and
    /// checkpoints it immediately so restarts never depend on the seed
    /// being regenerable. `make_engine` builds the session engine over
    /// whichever dataset won.
    pub fn open(
        dir: impl Into<PathBuf>,
        seed: UncertainDataset,
        make_engine: impl FnOnce(UncertainDataset) -> Result<E, CrpError>,
    ) -> Result<Self, SessionError> {
        Self::open_with_vfs(dir, seed, make_engine, Arc::new(RealVfs))
    }

    /// [`DurableSession::open`] over an explicit filesystem seam — the
    /// crash-torture harness opens sessions over a `MemVfs`, the CLI's
    /// `--inject` over a `FaultVfs`. Every byte the session reads or
    /// writes (WAL appends, checkpoint tmp+rename, recovery) goes
    /// through `vfs`.
    pub fn open_with_vfs(
        dir: impl Into<PathBuf>,
        seed: UncertainDataset,
        make_engine: impl FnOnce(UncertainDataset) -> Result<E, CrpError>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self, SessionError> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)
            .map_err(|e| CsvError::Io(e.to_string()))?;
        let has_state = vfs.exists(&dir.join(MANIFEST_FILE)) || vfs.exists(&dir.join(WAL_FILE));
        let (dataset, recovery) = if has_state {
            recover_session_with(vfs.as_ref(), &dir)?
        } else {
            write_snapshot_with(vfs.as_ref(), &dir, &seed)?;
            (seed, WalRecovery::default())
        };
        let engine = make_engine(dataset)?;
        if engine.discrete_dataset().is_none() {
            return Err(SessionError::PdfSession);
        }
        let wal = WriteAheadLog::open_with(vfs.as_ref(), dir.join(WAL_FILE))?;
        Ok(Self {
            dir,
            vfs,
            wal,
            mvcc: MvccEngine::new(engine),
            recovery,
            degraded: None,
        })
    }

    /// `Err(Degraded)` once the writer is poisoned; write entry points
    /// call this first so they fail fast and uniformly.
    fn ensure_healthy(&self) -> Result<(), SessionError> {
        match &self.degraded {
            Some(reason) => Err(SessionError::Degraded(reason.clone())),
            None => Ok(()),
        }
    }

    /// Marks the session read-only and returns the error that caused
    /// it. Storage faults that reach this point are fatal: either the
    /// retry policy already exhausted a transient fault, or the WAL
    /// stream may hold a partial record that must never be extended
    /// (appending past a torn write would bury it mid-stream, where
    /// recovery's torn-tail rule can no longer drop it).
    fn degrade(&mut self, error: SessionError) -> SessionError {
        self.degraded = Some(error.to_string());
        error
    }

    /// Validates, logs (fsync) and applies one update batch, publishing
    /// the post-batch epoch to readers. A batch that fails validation
    /// is rejected wholesale — no WAL bytes, no published epoch — so
    /// the log only ever holds batches that replay cleanly.
    ///
    /// A storage fault during the log step (or any failure after it)
    /// **degrades** the session to read-only: the writer is poisoned
    /// without publishing, readers keep serving the last complete
    /// epoch, and every later write returns
    /// [`SessionError::Degraded`]. Validation failures do *not*
    /// degrade — nothing touched disk.
    pub fn apply_batch(
        &mut self,
        updates: Vec<Update<UncertainObject>>,
    ) -> Result<Epoch, SessionError> {
        self.ensure_healthy()?;
        let commit = self
            .mvcc
            .pin()
            .engine()
            .discrete_dataset()
            .expect("durable sessions are discrete (checked at open)")
            .check_batch(&updates)
            .map_err(|e| {
                SessionError::Engine(CrpError::InvalidUpdate {
                    reason: e.to_string(),
                })
            })?;
        if let Err(e) = self.wal.append_batch(&updates, commit) {
            return Err(self.degrade(SessionError::Storage(e)));
        }
        // The batch is committed on disk; an in-memory failure now
        // (validated updates cannot fail, but a poisoned writer can
        // surface here) leaves log and engine out of step — degrade
        // rather than guess.
        let applied = match self.mvcc.apply_batch(updates) {
            Ok(epoch) => epoch,
            Err(e) => return Err(self.degrade(SessionError::Engine(e))),
        };
        assert_eq!(
            applied, commit,
            "validated batch must land on its logged commit epoch"
        );
        Ok(applied)
    }

    /// Checkpoints the current state (tmp-file + fsync + rename +
    /// directory fsync, manifest last); restart replays only WAL
    /// batches past this epoch. A failed checkpoint does *not* degrade
    /// the session: the previous manifest is still intact on disk and
    /// the WAL still covers everything since.
    pub fn checkpoint(&self) -> Result<Manifest, SessionError> {
        self.ensure_healthy()?;
        let manifest = self.mvcc.with_writer(|writer| {
            write_snapshot_with(
                self.vfs.as_ref(),
                &self.dir,
                writer
                    .discrete_dataset()
                    .expect("durable sessions are discrete (checked at open)"),
            )
        })??;
        Ok(manifest)
    }

    /// Whether a fatal storage fault has poisoned the writer: the
    /// session still answers reads from pinned snapshots but refuses
    /// batches and checkpoints.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// The fault that degraded the session, if any.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// The MVCC surface: [`MvccEngine::pin`] for readers,
    /// [`MvccEngine::counters`] for lifecycle stats.
    pub fn mvcc(&self) -> &MvccEngine<E> {
        &self.mvcc
    }

    /// Convenience: the currently published epoch.
    pub fn epoch(&self) -> Epoch {
        self.mvcc.pin().epoch()
    }

    /// Convenience: the MVCC lifecycle counters.
    pub fn counters(&self) -> MvccCounters {
        self.mvcc.counters()
    }

    /// Bytes in the write-ahead log (recovered content plus this
    /// session's appends).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// What recovery salvaged when this session opened: committed
    /// batches replayed, and whether a torn tail was dropped.
    pub fn recovery(&self) -> &WalRecovery {
        &self.recovery
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Pins the published snapshot — shorthand for `mvcc().pin()`.
    pub fn pin(&self) -> Arc<crp_core::EpochSnapshot<E>> {
        self.mvcc.pin()
    }
}
