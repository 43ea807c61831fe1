//! Epoch-snapshot MVCC over an explain session: any number of reader
//! threads run the full filter → refine → FMCS pipeline against a
//! **pinned, immutable epoch snapshot** while a single writer applies
//! the next update batch and publishes it atomically.
//!
//! ## Architecture
//!
//! * The **writer** owns the authoritative mutable engine behind a
//!   mutex. [`MvccEngine::apply_batch`] applies a whole batch,
//!   re-freezes the packed R-tree image once for the batch, then
//!   [forks](super::ExplainEngine::fork) an immutable snapshot of the
//!   post-batch state and publishes it. The fork shares the dataset's
//!   objects, the R-tree nodes and the fresh packed image with the
//!   writer through `Arc`s, so a publish copies handles rather than
//!   data (plus the one image rebuild), and the writer's next batch
//!   copies only the object slots and root-to-leaf tree paths it
//!   touches.
//! * **Publication** is `ArcSwap`-style: the current snapshot lives in
//!   an `RwLock<Arc<_>>` whose lock scope is a pointer clone (readers)
//!   or a pointer store (writer) — readers never block behind a batch,
//!   and the writer never waits for in-flight explains to drain.
//! * A bounded **epoch ring** retains recent snapshots so sessions can
//!   pin a specific epoch ([`MvccEngine::pin_at`]); when the ring
//!   overflows, the oldest snapshot is retired — its memory is freed
//!   when the last reader still holding its `Arc` drops it.
//!
//! Readers can never observe a torn epoch: a snapshot is forked only
//! after its whole batch applied, so every published epoch is a batch
//! boundary. Explains against a pinned snapshot are bit-identical
//! (outcome *and* `stats.query`) to a fresh serial engine replayed to
//! that epoch — incremental R*-tree patching is deterministic, so the
//! forked trees equal the replayed trees node for node; the concurrency
//! stress suite pins this across workloads and reader counts.
//!
//! Durability (write-ahead logging of update batches + snapshot
//! manifests) composes on top: see `crp_data::wal` and the `crp` CLI's
//! session assembly, which log a batch before handing it to
//! [`MvccEngine::apply_batch`].

use super::session::ExplainSession;
use super::ExplainEngine;
use crate::error::CrpError;
use crp_uncertain::{Epoch, PdfObject, UncertainDataset, UncertainObject, Update};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// What the MVCC session needs from an engine: single-writer update
/// application plus an immutable snapshot fork for readers. Implemented
/// by [`ExplainEngine`]; test and benchmark adapters wrap it.
pub trait SnapshotEngine: ExplainSession + Send + Sync {
    /// Forks an immutable reader snapshot of the current state.
    fn fork_snapshot(&self) -> Self
    where
        Self: Sized;

    /// Rebuilds whatever read-side images the updates since the last
    /// call invalidated — run once per published batch, before the
    /// fork, so readers find them warm.
    fn refreeze(&mut self);

    /// Applies one discrete-sample update.
    fn apply_update(&mut self, update: Update<UncertainObject>) -> Result<Epoch, CrpError>;

    /// Applies one continuous-pdf update.
    fn apply_pdf_update(&mut self, update: Update<PdfObject>) -> Result<Epoch, CrpError>;

    /// The discrete dataset this session serves, `None` for a
    /// continuous-pdf session. Durable sessions use this to validate a
    /// batch against the published state before logging it (the WAL
    /// grammar is discrete-only).
    fn discrete_dataset(&self) -> Option<&UncertainDataset>;
}

impl SnapshotEngine for ExplainEngine {
    fn fork_snapshot(&self) -> Self {
        self.fork()
    }

    fn refreeze(&mut self) {
        ExplainEngine::refreeze(self)
    }

    fn apply_update(&mut self, update: Update<UncertainObject>) -> Result<Epoch, CrpError> {
        self.apply(update)
    }

    fn apply_pdf_update(&mut self, update: Update<PdfObject>) -> Result<Epoch, CrpError> {
        self.apply_pdf(update)
    }

    fn discrete_dataset(&self) -> Option<&UncertainDataset> {
        if self.pdf_dataset().is_some() {
            None
        } else {
            Some(self.dataset())
        }
    }
}

/// One published epoch: an immutable engine fork pinned to the dataset
/// version it was taken at. Readers explain through
/// [`EpochSnapshot::engine`] (an [`ExplainSession`]); the snapshot
/// stays alive — and bit-stable — for as long as any reader holds its
/// `Arc`, regardless of how far the writer has advanced.
pub struct EpochSnapshot<E> {
    epoch: Epoch,
    engine: E,
}

impl<E> EpochSnapshot<E> {
    /// The dataset version this snapshot serves.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The immutable engine fork — explain through its
    /// [`ExplainSession`] surface.
    pub fn engine(&self) -> &E {
        &self.engine
    }
}

/// Lifecycle counters of an MVCC session (see
/// [`MvccEngine::counters`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MvccCounters {
    /// Snapshots published so far, including the construction snapshot.
    pub published: u64,
    /// Snapshots evicted from the epoch ring (no longer pinnable by
    /// epoch; freed once their last reader drops them).
    pub retired: u64,
    /// Snapshots currently held by the ring.
    pub live: usize,
    /// The currently published epoch.
    pub epoch: Epoch,
}

/// The concurrent session: one writer, many lock-free readers over
/// epoch snapshots. See the [module docs](self).
pub struct MvccEngine<E> {
    /// The authoritative mutable engine — single writer by construction.
    writer: Mutex<E>,
    /// The currently published snapshot; lock scope is a pointer
    /// clone/store, never a computation.
    published: RwLock<Arc<EpochSnapshot<E>>>,
    /// Recent snapshots, newest last, bounded by `ring_capacity`.
    ring: Mutex<VecDeque<Arc<EpochSnapshot<E>>>>,
    ring_capacity: usize,
    published_count: AtomicU64,
    retired: AtomicU64,
}

impl<E: SnapshotEngine> MvccEngine<E> {
    /// Wraps an engine into an MVCC session, publishing its current
    /// state as the first snapshot. Default epoch-ring capacity is 8.
    pub fn new(engine: E) -> Self {
        Self::with_ring_capacity(engine, 8)
    }

    /// [`MvccEngine::new`] with an explicit epoch-ring capacity
    /// (clamped to ≥ 1 — the published snapshot always stays pinnable).
    pub fn with_ring_capacity(mut engine: E, capacity: usize) -> Self {
        engine.refreeze();
        let snapshot = Arc::new(EpochSnapshot {
            epoch: engine.epoch(),
            engine: engine.fork_snapshot(),
        });
        let mut ring = VecDeque::new();
        ring.push_back(Arc::clone(&snapshot));
        Self {
            writer: Mutex::new(engine),
            published: RwLock::new(snapshot),
            ring: Mutex::new(ring),
            ring_capacity: capacity.max(1),
            published_count: AtomicU64::new(1),
            retired: AtomicU64::new(0),
        }
    }

    /// Pins the currently published snapshot: a reader holding the
    /// returned `Arc` keeps explaining against that epoch no matter how
    /// many batches the writer publishes meanwhile.
    ///
    /// Poison-tolerant: the lock's critical sections are pure pointer
    /// clones/stores, so a thread that panicked while holding one left
    /// the pointer intact — readers keep serving the last complete
    /// epoch even after a writer panic poisoned the session
    /// (see [`MvccEngine::is_poisoned`]).
    pub fn pin(&self) -> Arc<EpochSnapshot<E>> {
        Arc::clone(
            &self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Pins a specific epoch from the ring, `None` when it was never
    /// published at a batch boundary or has already been retired.
    /// Poison-tolerant like [`MvccEngine::pin`].
    pub fn pin_at(&self, epoch: Epoch) -> Option<Arc<EpochSnapshot<E>>> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|s| s.epoch == epoch)
            .cloned()
    }

    /// Whether a panicked batch has poisoned the writer. Readers are
    /// unaffected either way; write entry points return
    /// [`CrpError::WriterPoisoned`] instead of publishing from a state
    /// that may hold a half-applied batch.
    pub fn is_poisoned(&self) -> bool {
        self.writer.is_poisoned()
    }

    /// The writer mutex as a typed error instead of a panic: a
    /// poisoned guard means some earlier batch panicked mid-apply, so
    /// the authoritative engine may hold a torn prefix — nothing from
    /// it may be published again.
    fn writer_guard(&self) -> Result<MutexGuard<'_, E>, CrpError> {
        self.writer.lock().map_err(|_| CrpError::WriterPoisoned)
    }

    /// Applies one discrete update batch and publishes the post-batch
    /// epoch atomically. Readers keep serving the previous snapshot
    /// until the new one is fully built; they never see a partially
    /// applied batch. On a mid-batch error nothing is published (the
    /// writer state may have absorbed the batch's valid prefix; callers
    /// that need all-or-nothing batches should validate first — the WAL
    /// layer does, by replaying only committed batches). Returns
    /// [`CrpError::WriterPoisoned`] once a previous batch panicked.
    pub fn apply_batch(
        &self,
        updates: impl IntoIterator<Item = Update<UncertainObject>>,
    ) -> Result<Epoch, CrpError> {
        let mut writer = self.writer_guard()?;
        for update in updates {
            writer.apply_update(update)?;
        }
        Ok(self.publish(&mut writer))
    }

    /// [`MvccEngine::apply_batch`] for continuous-pdf sessions.
    pub fn apply_pdf_batch(
        &self,
        updates: impl IntoIterator<Item = Update<PdfObject>>,
    ) -> Result<Epoch, CrpError> {
        let mut writer = self.writer_guard()?;
        for update in updates {
            writer.apply_pdf_update(update)?;
        }
        Ok(self.publish(&mut writer))
    }

    /// Refreezes, forks and publishes the writer's current state. Both
    /// run while readers still serve the old snapshot; only the pointer
    /// swap takes the publication write lock.
    fn publish(&self, writer: &mut E) -> Epoch {
        writer.refreeze();
        let snapshot = Arc::new(EpochSnapshot {
            epoch: writer.epoch(),
            engine: writer.fork_snapshot(),
        });
        {
            let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
            ring.push_back(Arc::clone(&snapshot));
            while ring.len() > self.ring_capacity {
                ring.pop_front();
                self.retired.fetch_add(1, Ordering::Relaxed);
            }
        }
        let epoch = snapshot.epoch;
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = snapshot;
        self.published_count.fetch_add(1, Ordering::Relaxed);
        epoch
    }

    /// Current lifecycle counters.
    pub fn counters(&self) -> MvccCounters {
        MvccCounters {
            published: self.published_count.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            live: self
                .ring
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            epoch: self.pin().epoch(),
        }
    }

    /// Runs `f` against the authoritative writer engine — for session
    /// assembly tasks (replaying a recovered WAL tail, draining
    /// accumulated I/O) that must not race the update stream. Readers
    /// are unaffected: they hold snapshots. Returns
    /// [`CrpError::WriterPoisoned`] once a previous batch panicked.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut E) -> R) -> Result<R, CrpError> {
        let mut guard = self.writer_guard()?;
        Ok(f(&mut guard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crp_geom::Point;
    use crp_rtree::NodeId;
    use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    fn fixture() -> UncertainDataset {
        UncertainDataset::from_objects(vec![
            UncertainObject::certain(ObjectId(0), pt(10.0, 10.0)),
            UncertainObject::certain(ObjectId(1), pt(7.0, 7.0)),
            UncertainObject::with_equal_probs(ObjectId(2), vec![pt(8.0, 9.0), pt(30.0, 30.0)])
                .unwrap(),
            UncertainObject::certain(ObjectId(3), pt(40.0, 40.0)),
        ])
        .unwrap()
    }

    #[test]
    fn pinned_snapshots_survive_writer_batches() {
        let engine = ExplainEngine::new(fixture(), EngineConfig::with_alpha(0.75)).unwrap();
        let mvcc = MvccEngine::new(engine);
        let q = pt(5.0, 5.0);

        let pinned = mvcc.pin();
        assert_eq!(pinned.epoch(), Epoch(4), "construction pushed four objects");
        let before = pinned.engine().explain(&q, ObjectId(0)).unwrap();

        // A batch lands: object 9 becomes a new dominator.
        let e = mvcc
            .apply_batch(vec![Update::Insert(UncertainObject::certain(
                ObjectId(9),
                pt(6.5, 6.5),
            ))])
            .unwrap();
        assert_eq!(e, Epoch(5));

        // The old pin still answers at its epoch — bit-identical to its
        // pre-batch result — while a fresh pin sees the new object.
        let replay = pinned.engine().explain(&q, ObjectId(0)).unwrap();
        assert_eq!(replay, before);
        assert!(replay.cause(ObjectId(9)).is_none());
        let fresh = mvcc.pin();
        assert_eq!(fresh.epoch(), Epoch(5));
        assert!(fresh
            .engine()
            .explain(&q, ObjectId(0))
            .unwrap()
            .cause(ObjectId(9))
            .is_some());

        // Both epochs stay pinnable through the ring.
        assert_eq!(mvcc.pin_at(Epoch(4)).unwrap().epoch(), Epoch(4));
        assert_eq!(mvcc.pin_at(Epoch(5)).unwrap().epoch(), Epoch(5));
        assert!(mvcc.pin_at(Epoch(99)).is_none());
        let counters = mvcc.counters();
        assert_eq!(counters.published, 2);
        assert_eq!(counters.live, 2);
        assert_eq!(counters.retired, 0);
        assert_eq!(counters.epoch, Epoch(5));
    }

    #[test]
    fn ring_overflow_retires_oldest_epochs() {
        let engine = ExplainEngine::new(fixture(), EngineConfig::with_alpha(0.75)).unwrap();
        let mvcc = MvccEngine::with_ring_capacity(engine, 2);
        // Pin the construction snapshot, then push it out of the ring.
        let oldest = mvcc.pin();
        for i in 0..3u32 {
            mvcc.apply_batch(vec![Update::Insert(UncertainObject::certain(
                ObjectId(10 + i),
                pt(50.0 + i as f64, 50.0),
            ))])
            .unwrap();
        }
        let counters = mvcc.counters();
        assert_eq!(counters.published, 4);
        assert_eq!(counters.live, 2);
        assert_eq!(counters.retired, 2);
        // The retired epoch is no longer pinnable from the ring…
        assert!(mvcc.pin_at(Epoch(4)).is_none());
        // …but the reader that pinned it earlier still owns it.
        assert_eq!(oldest.epoch(), Epoch(4));
        assert_eq!(oldest.engine().dataset().len(), 4);
    }

    #[test]
    fn readers_keep_serving_after_a_writer_panic_poisons_the_session() {
        let engine = ExplainEngine::new(fixture(), EngineConfig::with_alpha(0.75)).unwrap();
        let mvcc = MvccEngine::new(engine);
        let q = pt(5.0, 5.0);
        let pinned = mvcc.pin();
        let before = pinned.engine().explain(&q, ObjectId(0)).unwrap();

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), CrpError> =
                mvcc.with_writer(|_| panic!("simulated writer crash mid-batch"));
        }));
        assert!(panicked.is_err());
        assert!(mvcc.is_poisoned());

        // Write entry points fail typed, not by panicking the caller.
        assert_eq!(
            mvcc.apply_batch(vec![Update::Insert(UncertainObject::certain(
                ObjectId(9),
                pt(6.5, 6.5),
            ))])
            .unwrap_err(),
            CrpError::WriterPoisoned
        );
        assert_eq!(
            mvcc.with_writer(|_| ()).unwrap_err(),
            CrpError::WriterPoisoned
        );

        // Readers are untouched: old pins replay bit-identically, fresh
        // pins still resolve, the ring still serves epochs, counters
        // still read.
        assert_eq!(pinned.engine().explain(&q, ObjectId(0)).unwrap(), before);
        let fresh = mvcc.pin();
        assert_eq!(fresh.epoch(), Epoch(4));
        assert_eq!(fresh.engine().explain(&q, ObjectId(0)).unwrap(), before);
        assert_eq!(mvcc.pin_at(Epoch(4)).unwrap().epoch(), Epoch(4));
        assert_eq!(mvcc.counters().published, 1);
    }

    #[test]
    fn mid_batch_error_publishes_nothing() {
        let engine = ExplainEngine::new(fixture(), EngineConfig::with_alpha(0.75)).unwrap();
        let mvcc = MvccEngine::new(engine);
        let err = mvcc
            .apply_batch(vec![
                Update::Insert(UncertainObject::certain(ObjectId(9), pt(6.5, 6.5))),
                Update::Delete(ObjectId(42)), // unknown id: the batch fails here
            ])
            .unwrap_err();
        assert_eq!(err, CrpError::UnknownObject(ObjectId(42)));
        // Readers still serve the last complete epoch.
        assert_eq!(mvcc.pin().epoch(), Epoch(4));
        assert_eq!(mvcc.counters().published, 1);
    }

    #[test]
    fn a_batch_is_refrozen_once_at_publish() {
        let engine = ExplainEngine::new(fixture(), EngineConfig::with_alpha(0.75)).unwrap();
        let q = pt(5.0, 5.0);
        // Build the object tree (its first image is part of the build).
        engine.explain(&q, ObjectId(0)).unwrap();
        let mvcc = MvccEngine::new(engine);
        let refreezes = || mvcc.with_writer(|w| w.accumulated_io().refreezes).unwrap();
        assert_eq!(refreezes(), 0);

        let e = mvcc
            .apply_batch(vec![
                Update::Insert(UncertainObject::certain(ObjectId(10), pt(6.0, 6.5))),
                Update::Insert(UncertainObject::certain(ObjectId(11), pt(50.0, 50.0))),
                Update::Replace(UncertainObject::certain(ObjectId(1), pt(7.5, 7.0))),
                Update::Delete(ObjectId(11)),
                Update::Replace(UncertainObject::certain(ObjectId(3), pt(45.0, 40.0))),
            ])
            .unwrap();
        assert_eq!(e, Epoch(9));
        assert_eq!(refreezes(), 1, "five updates, one published batch");

        // The published fork holds the very image the writer built at
        // publish, so its readers rebuild nothing.
        let published = mvcc.pin();
        let writer_image = mvcc
            .with_writer(|w| w.object_tree().frozen_image())
            .unwrap();
        assert!(Arc::ptr_eq(
            &published.engine().object_tree().frozen_image(),
            &writer_image
        ));
        published.engine().explain(&q, ObjectId(0)).unwrap();
        assert_eq!(published.engine().accumulated_io().refreezes, 0);
        assert_eq!(refreezes(), 1);
    }

    /// Nodes reachable from `tree`'s root, and the ids on the path to
    /// the leaf holding `id`.
    fn nodes_and_path(
        tree: &crp_rtree::RTree<ObjectId>,
        id: ObjectId,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        fn walk(
            tree: &crp_rtree::RTree<ObjectId>,
            node: NodeId,
            id: ObjectId,
            all: &mut Vec<NodeId>,
            path: &mut Vec<NodeId>,
        ) -> bool {
            all.push(node);
            let (mut children, mut holds) = (Vec::new(), false);
            tree.visit_children(node, |_, child, data| {
                children.extend(child);
                holds |= data == Some(&id);
            });
            let mut on_path = holds;
            for child in children {
                on_path |= walk(tree, child, id, all, path);
            }
            if on_path {
                path.push(node);
            }
            on_path
        }
        let (mut all, mut path) = (Vec::new(), Vec::new());
        walk(tree, tree.root_node_id(), id, &mut all, &mut path);
        (all, path)
    }

    #[test]
    fn forks_share_every_untouched_object_and_node() {
        let ds = UncertainDataset::from_points(
            (0..300).map(|i| pt((i % 20) as f64 * 3.0 + 10.0, (i / 20) as f64 * 3.0 + 10.0)),
        )
        .unwrap();
        let config = EngineConfig {
            rtree: Some(crp_rtree::RTreeParams::with_fanout(8)),
            ..EngineConfig::with_alpha(0.75)
        };
        let mut engine = ExplainEngine::new(ds, config).unwrap();
        engine.explain(&pt(5.0, 5.0), ObjectId(0)).unwrap();

        // Replace: every object but the touched one stays shared.
        let fork = engine.fork();
        let touched = ObjectId(17);
        engine
            .apply(Update::Replace(UncertainObject::certain(
                touched,
                pt(11.0, 11.0),
            )))
            .unwrap();
        for (mine, theirs) in engine
            .dataset()
            .objects()
            .iter()
            .zip(fork.dataset().objects())
        {
            assert_eq!(
                Arc::ptr_eq(mine, theirs),
                mine.id() != touched,
                "{}",
                mine.id()
            );
        }
        let tree = engine.object_tree();
        assert!(tree.height() >= 3);
        // A victim whose leaf stays above the minimum fill when it
        // leaves, so deleting it writes exactly its root-to-leaf path.
        let victim = (0..300u32)
            .map(ObjectId)
            .find(|&id| {
                let (_, path) = nodes_and_path(tree, id);
                let mut entries = 0;
                tree.visit_children(path[0], |_, _, _| entries += 1);
                entries > tree.params().min_entries
            })
            .expect("STR fills most leaves to capacity");

        // Delete: the objects left are all shared, and of the tree only
        // the path to the victim's leaf was copied.
        let fork = engine.fork();
        engine.apply(Update::Delete(victim)).unwrap();
        for mine in engine.dataset().objects() {
            let theirs = &fork.dataset().objects()[fork.dataset().index_of(mine.id()).unwrap()];
            assert!(Arc::ptr_eq(mine, theirs));
        }
        let (_, path) = nodes_and_path(fork.object_tree(), victim);
        let (nodes, _) = nodes_and_path(engine.object_tree(), victim);
        assert_eq!(path.len(), engine.object_tree().height());
        for node in nodes {
            assert_eq!(
                engine.object_tree().shares_node(fork.object_tree(), node),
                !path.contains(&node),
                "{node:?}"
            );
        }
    }
}
