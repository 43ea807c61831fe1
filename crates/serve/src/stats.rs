//! Serving counters: windows closed, cross-client dedup, shed count,
//! and a log₂-bucketed latency histogram for p50/p99 — everything the
//! wire `stats` verb reports. All atomics; readers never block the
//! serving path.

use crp_core::PlanCounters;
use crp_uncertain::Epoch;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ latency buckets: bucket `i` holds requests whose
/// enqueue→reply latency was in `[2^(i-1), 2^i)` microseconds (bucket
/// 0 holds sub-microsecond replies). 2^39 µs ≈ 6 days — wide enough.
const BUCKETS: usize = 40;

/// Lock-free serving counters shared by the connection threads, the
/// collector, and the `stats` verb.
#[derive(Debug)]
pub struct ServeStats {
    windows: AtomicU64,
    requests: AtomicU64,
    tasks: AtomicU64,
    stage1_shared: AtomicU64,
    shed: AtomicU64,
    updates: AtomicU64,
    update_batches: AtomicU64,
    latency: [AtomicU64; BUCKETS],
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self {
            windows: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            stage1_shared: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            update_batches: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one executed window over `requests` wire requests.
    pub fn record_window(&self, requests: u64, counters: &PlanCounters) {
        self.windows.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(requests, Ordering::Relaxed);
        self.tasks
            .fetch_add(counters.tasks as u64, Ordering::Relaxed);
        self.stage1_shared
            .fetch_add(counters.stage1_shared_tasks as u64, Ordering::Relaxed);
    }

    /// Record one shed (Busy) response.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one group-committed write batch that merged `requests`
    /// update requests into a single backend apply/publish.
    pub fn record_update_batch(&self, requests: u64) {
        self.updates.fetch_add(requests, Ordering::Relaxed);
        self.update_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Update requests acked so far.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Group-committed write batches applied so far (each one backend
    /// publish, shared by every rider of the batch).
    pub fn update_batches(&self) -> u64 {
        self.update_batches.load(Ordering::Relaxed)
    }

    /// Record one request's enqueue→reply latency.
    pub fn record_latency_us(&self, us: u64) {
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Windows closed so far.
    pub fn windows(&self) -> u64 {
        self.windows.load(Ordering::Relaxed)
    }

    /// Explain requests served through windows so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Percentage of tasks that rode another task's stage-1 work (the
    /// same `(an, q)` unit's rows) — the cross-client dedup of a
    /// planner window.
    pub fn dedup_pct(&self) -> u64 {
        (100 * self.stage1_shared.load(Ordering::Relaxed))
            .checked_div(self.tasks.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Upper bound (µs) of the histogram bucket where the cumulative
    /// count crosses `q` (0 < q ≤ 100). Bucketed, so accurate to 2×.
    pub fn quantile_us(&self, q: u64) -> u64 {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total * q).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// The `stats` verb payload: every counter as a `key=value` pair.
    pub fn fields(&self, epoch: Epoch, pending: usize) -> Vec<(String, String)> {
        let pairs: Vec<(&str, u64)> = vec![
            ("epoch", epoch.0),
            ("windows", self.windows()),
            ("requests", self.requests()),
            ("tasks", self.tasks.load(Ordering::Relaxed)),
            ("stage1_shared", self.stage1_shared.load(Ordering::Relaxed)),
            ("dedup_pct", self.dedup_pct()),
            ("shed", self.shed()),
            ("updates", self.updates()),
            ("update_batches", self.update_batches()),
            ("p50_us", self.quantile_us(50)),
            ("p99_us", self.quantile_us(99)),
            ("pending", pending as u64),
        ];
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_come_from_the_histogram() {
        let stats = ServeStats::new();
        assert_eq!(stats.quantile_us(50), 0, "empty histogram");
        for _ in 0..99 {
            stats.record_latency_us(100); // bucket 7 → upper bound 128
        }
        stats.record_latency_us(1_000_000); // bucket 20 → 2^20
        assert_eq!(stats.quantile_us(50), 128);
        assert_eq!(stats.quantile_us(99), 128);
        assert_eq!(stats.quantile_us(100), 1 << 20);
    }

    #[test]
    fn dedup_pct_counts_shared_and_derived_tasks() {
        let stats = ServeStats::new();
        assert_eq!(stats.dedup_pct(), 0);
        let counters = PlanCounters {
            tasks: 16,
            stage1_shared_tasks: 8,
            ..PlanCounters::default()
        };
        stats.record_window(16, &counters);
        assert_eq!(stats.dedup_pct(), 50);
        assert_eq!(stats.windows(), 1);
        assert_eq!(stats.requests(), 16);
        let fields = stats.fields(Epoch(3), 2);
        assert!(fields.contains(&("epoch".into(), "3".into())));
        assert!(fields.contains(&("dedup_pct".into(), "50".into())));
        assert!(fields.contains(&("pending".into(), "2".into())));
    }
}
