//! Thread-safe node-access and maintenance accounting.
//!
//! Queries themselves stay single-threaded and keep taking a plain
//! `&mut QueryStats` (no atomics on the hot traversal path). When many
//! queries run concurrently — the `ExplainEngine`'s rayon batch mode —
//! each worker accumulates into its own [`QueryStats`] and folds the
//! result into a shared [`AtomicQueryStats`], so a long-lived engine can
//! report total I/O (and, for mutable sessions, update-path counters)
//! across a parallel batch without locks.

use crate::query::QueryStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters, safe to fold into from many threads. Mirrors every
/// field of [`QueryStats`]: node accesses, the incremental-maintenance
/// counters (inserts / removes / reinserts / refreezes) and the refine
/// stage's evaluator taps (fast / slow).
#[derive(Debug, Default)]
pub struct AtomicQueryStats {
    node_accesses: AtomicU64,
    leaf_accesses: AtomicU64,
    inserts: AtomicU64,
    removes: AtomicU64,
    reinserts: AtomicU64,
    refreezes: AtomicU64,
    eval_fast: AtomicU64,
    eval_slow: AtomicU64,
}

impl AtomicQueryStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one query's counters in (relaxed; only totals matter).
    pub fn absorb(&self, stats: QueryStats) {
        self.node_accesses
            .fetch_add(stats.node_accesses, Ordering::Relaxed);
        self.leaf_accesses
            .fetch_add(stats.leaf_accesses, Ordering::Relaxed);
        self.inserts.fetch_add(stats.inserts, Ordering::Relaxed);
        self.removes.fetch_add(stats.removes, Ordering::Relaxed);
        self.reinserts.fetch_add(stats.reinserts, Ordering::Relaxed);
        self.refreezes.fetch_add(stats.refreezes, Ordering::Relaxed);
        self.eval_fast.fetch_add(stats.eval_fast, Ordering::Relaxed);
        self.eval_slow.fetch_add(stats.eval_slow, Ordering::Relaxed);
    }

    /// [`AtomicQueryStats::absorb`] by reference — folds another
    /// accumulator's snapshot into this one without consuming it.
    pub fn merge(&self, other: &QueryStats) {
        self.absorb(*other);
    }

    /// Current totals as a plain [`QueryStats`].
    pub fn snapshot(&self) -> QueryStats {
        QueryStats {
            node_accesses: self.node_accesses.load(Ordering::Relaxed),
            leaf_accesses: self.leaf_accesses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            reinserts: self.reinserts.load(Ordering::Relaxed),
            refreezes: self.refreezes.load(Ordering::Relaxed),
            eval_fast: self.eval_fast.load(Ordering::Relaxed),
            eval_slow: self.eval_slow.load(Ordering::Relaxed),
        }
    }

    /// Resets the counters to zero, returning the totals accumulated so
    /// far.
    pub fn take(&self) -> QueryStats {
        QueryStats {
            node_accesses: self.node_accesses.swap(0, Ordering::Relaxed),
            leaf_accesses: self.leaf_accesses.swap(0, Ordering::Relaxed),
            inserts: self.inserts.swap(0, Ordering::Relaxed),
            removes: self.removes.swap(0, Ordering::Relaxed),
            reinserts: self.reinserts.swap(0, Ordering::Relaxed),
            refreezes: self.refreezes.swap(0, Ordering::Relaxed),
            eval_fast: self.eval_fast.swap(0, Ordering::Relaxed),
            eval_slow: self.eval_slow.swap(0, Ordering::Relaxed),
        }
    }
}

impl Clone for AtomicQueryStats {
    fn clone(&self) -> Self {
        self.snapshot().into()
    }
}

impl From<QueryStats> for AtomicQueryStats {
    fn from(stats: QueryStats) -> Self {
        let atomic = Self::new();
        atomic.absorb(stats);
        atomic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_snapshot_take_roundtrip() {
        let shared = AtomicQueryStats::new();
        shared.absorb(QueryStats {
            node_accesses: 3,
            leaf_accesses: 1,
            inserts: 2,
            eval_slow: 1,
            ..Default::default()
        });
        shared.absorb(QueryStats {
            node_accesses: 4,
            leaf_accesses: 2,
            removes: 1,
            reinserts: 5,
            eval_fast: 2,
            refreezes: 3,
            ..Default::default()
        });
        assert_eq!(
            shared.snapshot(),
            QueryStats {
                node_accesses: 7,
                leaf_accesses: 3,
                inserts: 2,
                removes: 1,
                reinserts: 5,
                refreezes: 3,
                eval_fast: 2,
                eval_slow: 1,
            }
        );
        let taken = shared.take();
        assert_eq!(taken.node_accesses, 7);
        assert_eq!(taken.reinserts, 5);
        assert_eq!(shared.snapshot(), QueryStats::default());
    }

    #[test]
    fn concurrent_absorbs_sum_exactly() {
        let shared = AtomicQueryStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        shared.absorb(QueryStats {
                            node_accesses: 2,
                            leaf_accesses: 1,
                            eval_fast: 1,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.node_accesses, 16_000);
        assert_eq!(snap.leaf_accesses, 8_000);
        assert_eq!(snap.eval_fast, 8_000);
    }

    #[test]
    fn merge_and_sum_roll_shard_counters_up() {
        // Three "shards", each with its own accumulator.
        let shards = [
            AtomicQueryStats::new(),
            AtomicQueryStats::new(),
            AtomicQueryStats::new(),
        ];
        for (i, shard) in shards.iter().enumerate() {
            shard.merge(&QueryStats {
                node_accesses: (i + 1) as u64,
                leaf_accesses: i as u64,
                inserts: 1,
                ..Default::default()
            });
        }
        // Sum of shard snapshots = engine-level total.
        let total: QueryStats = shards.iter().map(|s| s.snapshot()).sum();
        assert_eq!(
            total,
            QueryStats {
                node_accesses: 6,
                leaf_accesses: 3,
                inserts: 3,
                ..Default::default()
            }
        );
        // The same rollup through an engine-level accumulator.
        let engine = AtomicQueryStats::new();
        for shard in &shards {
            engine.merge(&shard.snapshot());
        }
        assert_eq!(engine.snapshot(), total);
        // Add / AddAssign agree with Sum.
        let mut acc = QueryStats::default();
        for shard in &shards {
            acc += shard.snapshot();
        }
        assert_eq!(acc, total);
    }

    #[test]
    fn clone_and_from() {
        let shared: AtomicQueryStats = QueryStats {
            node_accesses: 5,
            leaf_accesses: 4,
            refreezes: 2,
            ..Default::default()
        }
        .into();
        let cloned = shared.clone();
        assert_eq!(cloned.snapshot(), shared.snapshot());
    }
}
