//! Concurrent-session throughput sweep: N reader threads explaining
//! against pinned [`MvccEngine`] epoch snapshots while a single writer
//! applies a fixed stream of ≤ 1 % mutation batches, versus the
//! mutex-serialized alternative (one `Mutex<ExplainEngine>` shared by
//! the same readers and writer). Both sides serve explains for the
//! duration of the same update stream; the metric is explains/sec
//! while the stream is live. Writes the series to
//! `bench_out/BENCH_mvcc.json`.
//!
//! Also reported and asserted in-sweep:
//!
//! * reader/writer **bit-identity**: sampled reader outcomes equal a
//!   fresh serial engine replayed to the reader's pinned epoch,
//! * **no torn epochs**: every pinned epoch is a batch boundary the
//!   writer published,
//! * quick-mode acceptance: ≥ 2.5× explains/sec at 4 reader threads
//!   over the mutex-serialized baseline.
//!
//! ```text
//! cargo run -p crp-bench --release --bin mvcc_sweep -- --quick
//! ```

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir};
use crp_bench::report::fnum;
use crp_core::{
    CpConfig, CrpError, CrpOutcome, EngineConfig, Epoch, ExplainEngine, ExplainSession, MvccEngine,
    Update,
};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_geom::Point;
use crp_uncertain::{ObjectId, UncertainObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const ALPHA: f64 = 0.6;

/// Gap between batches: zero — a saturated writer applying batches
/// back-to-back, so the baseline timeline is one long apply holding
/// the session lock. This is exactly the serialization the epoch
/// snapshots remove: baseline readers serve only in the lock-handoff
/// crumbs; MVCC readers never notice the writer at all.
const BATCH_GAP: Duration = Duration::ZERO;

/// Same session configuration as the update sweep: the subset budget +
/// the default probability bound keep adversarial non-answers from hijacking the
/// measurement.
fn sweep_config() -> EngineConfig {
    EngineConfig {
        alpha: ALPHA,
        cp: CpConfig::with_budget(2_000_000),
        ..EngineConfig::default()
    }
}

fn random_object(rng: &mut StdRng, id: ObjectId, dim: usize, domain: f64) -> UncertainObject {
    let center: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..domain)).collect();
    let radius: f64 = rng.random_range(0.5..5.0);
    let samples = rng.random_range(2..=4);
    let points: Vec<Point> = (0..samples)
        .map(|_| {
            Point::new(
                center
                    .iter()
                    .map(|c| c + rng.random_range(-radius..radius))
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    UncertainObject::with_equal_probs(id, points).expect("non-empty samples")
}

/// One ~45/45/10 insert/delete/replace batch against the live id set.
/// The probe targets are protected so every reader explain stays valid
/// at every epoch (and the identity references line up).
fn make_batch(
    rng: &mut StdRng,
    live: &mut Vec<ObjectId>,
    next_id: &mut u32,
    size: usize,
    dim: usize,
    domain: f64,
    protected: &[ObjectId],
) -> Vec<Update<UncertainObject>> {
    let mut batch = Vec::with_capacity(size);
    for _ in 0..size {
        let roll = rng.random_range(0.0..1.0f64);
        let victim = |rng: &mut StdRng, live: &Vec<ObjectId>| {
            (0..8)
                .map(|_| rng.random_range(0..live.len()))
                .find(|&i| !protected.contains(&live[i]))
        };
        if roll < 0.45 || live.is_empty() {
            let id = ObjectId(*next_id);
            *next_id += 1;
            live.push(id);
            batch.push(Update::Insert(random_object(rng, id, dim, domain)));
        } else if let Some(i) = victim(rng, live) {
            if roll < 0.9 {
                batch.push(Update::Delete(live.swap_remove(i)));
            } else {
                batch.push(Update::Replace(random_object(rng, live[i], dim, domain)));
            }
        } else {
            let id = ObjectId(*next_id);
            *next_id += 1;
            live.push(id);
            batch.push(Update::Insert(random_object(rng, id, dim, domain)));
        }
    }
    batch
}

/// A reader's sampled observation for the identity check.
struct Sampled {
    epoch: Epoch,
    an: ObjectId,
    outcome: Result<CrpOutcome, CrpError>,
}

struct SideReport {
    explains: usize,
    secs: f64,
    batches_applied: usize,
}

impl SideReport {
    fn rate(&self) -> f64 {
        self.explains as f64 / self.secs.max(1e-9)
    }
}

/// The deterministic batch stream both sides consume: same seed, same
/// live-id evolution, so the baseline applies the very batches the
/// MVCC side does.
fn batch_stream(
    ds_ids: &[ObjectId],
    batches: usize,
    batch_size: usize,
    dim: usize,
    domain: f64,
    protected: &[ObjectId],
) -> Vec<Vec<Update<UncertainObject>>> {
    let mut rng = StdRng::seed_from_u64(0x5EED_11FE);
    let mut live = ds_ids.to_vec();
    let mut next_id = live.iter().map(|id| id.0).max().unwrap_or(0) + 1;
    (0..batches)
        .map(|_| {
            make_batch(
                &mut rng,
                &mut live,
                &mut next_id,
                batch_size,
                dim,
                domain,
                protected,
            )
        })
        .collect()
}

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 50_000 });
    let readers: usize = arg_value("--readers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let batches: usize = arg_value("--batches")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 10 } else { 16 });
    let batch_size = (cardinality / 100).max(1); // the ≤ 1 % regime

    let cfg = UncertainConfig {
        cardinality,
        dim: 3,
        radius_range: (0.0, 5.0),
        seed: 0x11FE_0, // the live-dataset workload seed
        ..UncertainConfig::default()
    };
    eprintln!("[mvcc_sweep] generating lUrU ({cardinality} objects)…");
    let ds = uncertain_dataset(&cfg);
    let dim = ds.dim().expect("non-empty dataset");
    let domain = cfg.domain;
    let q = centroid_query(&ds);

    // Probe targets: the 4 cheapest candidate sets among the first 16
    // ids (stage-1 traversals only), so the sweep measures session
    // concurrency, not adversarial refinement.
    let scout = ExplainEngine::new(ds.clone(), sweep_config()).expect("valid config");
    let mut by_cost: Vec<(usize, ObjectId)> = ds
        .iter()
        .take(16)
        .map(|o| {
            let n = scout
                .candidate_ids(&q, o.id())
                .map(|c| c.len())
                .unwrap_or(usize::MAX);
            (n, o.id())
        })
        .collect();
    by_cost.sort_unstable();
    let probes: Vec<ObjectId> = by_cost.iter().take(4).map(|&(_, an)| an).collect();
    drop(scout);

    let stream = batch_stream(
        &ds.iter().map(|o| o.id()).collect::<Vec<_>>(),
        batches,
        batch_size,
        dim,
        domain,
        &probes,
    );

    // Serial-replay reference, shared by both sides' identity checks:
    // fresh engine, warmed tree, first `depth` batches applied serially.
    let make_replayed = |depth: usize| {
        let mut engine = ExplainEngine::new(ds.clone(), sweep_config()).expect("valid config");
        engine.object_tree();
        for batch in &stream[..depth] {
            for update in batch {
                engine.apply(update.clone()).expect("valid update");
            }
        }
        engine
    };

    // ---------------- MVCC: lock-free readers over pinned epochs -----
    eprintln!("[mvcc_sweep] MVCC side: {readers} readers over {batches} batches…");
    let writer_engine = ExplainEngine::new(ds.clone(), sweep_config()).expect("valid config");
    writer_engine.object_tree(); // warm: the stream patches, never rebuilds
    let mvcc = MvccEngine::new(writer_engine);
    let base_epoch = mvcc.pin().epoch();

    let done = AtomicBool::new(false);
    let (mvcc_report, samples, boundaries) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let mvcc = &mvcc;
                let (q, probes, done) = (&q, &probes, &done);
                scope.spawn(move || {
                    let t = Instant::now();
                    let mut explains = 0usize;
                    let mut first: Vec<Sampled> = Vec::new();
                    let mut last: Vec<Sampled> = Vec::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let snapshot = mvcc.pin();
                        last.clear();
                        for &an in probes.iter() {
                            let outcome = snapshot.engine().explain_one(q, an);
                            explains += 1;
                            last.push(Sampled {
                                epoch: snapshot.epoch(),
                                an,
                                outcome,
                            });
                        }
                        if first.is_empty() {
                            first = std::mem::take(&mut last);
                        }
                        if finished {
                            break;
                        }
                    }
                    first.extend(last);
                    (explains, t.elapsed().as_secs_f64(), first)
                })
            })
            .collect();

        // The writer: the fixed batch stream, one publication per batch,
        // recording the epoch each batch produced (the boundaries
        // readers are allowed to observe).
        let mut boundaries: HashMap<Epoch, usize> = HashMap::from([(base_epoch, 0)]);
        for (k, batch) in stream.iter().enumerate() {
            let epoch = mvcc.apply_batch(batch.clone()).expect("valid batch");
            boundaries.insert(epoch, k + 1);
            if !BATCH_GAP.is_zero() {
                std::thread::sleep(BATCH_GAP);
            }
        }
        done.store(true, Ordering::Release);

        let mut explains = 0usize;
        let mut secs: f64 = 0.0;
        let mut samples: Vec<Sampled> = Vec::new();
        for handle in handles {
            let (e, s, mut sampled) = handle.join().expect("reader thread");
            explains += e;
            secs = secs.max(s);
            samples.append(&mut sampled);
        }
        (
            SideReport {
                explains,
                secs,
                batches_applied: stream.len(),
            },
            samples,
            boundaries,
        )
    });
    let counters = mvcc.counters();

    // Identity + torn-epoch verification against serial replay.
    let mut references: HashMap<Epoch, ExplainEngine> = HashMap::new();
    let mut identity_checked = 0usize;
    let mut identical = true;
    for sample in &samples {
        let Some(&depth) = boundaries.get(&sample.epoch) else {
            panic!(
                "torn epoch: reader pinned {:?}, which is not a published batch boundary",
                sample.epoch
            );
        };
        let reference = references
            .entry(sample.epoch)
            .or_insert_with(|| make_replayed(depth));
        if sample.outcome != reference.explain_one(&q, sample.an) {
            identical = false;
            eprintln!(
                "[mvcc_sweep] DIVERGENCE at epoch {:?}, an = {}",
                sample.epoch, sample.an
            );
        }
        identity_checked += 1;
    }

    // ---------------- baseline: mutex-serialized session -------------
    eprintln!("[mvcc_sweep] baseline side: Mutex-serialized session…");
    let baseline_engine = ExplainEngine::new(ds.clone(), sweep_config()).expect("valid config");
    baseline_engine.object_tree();
    let baseline = Mutex::new(baseline_engine);

    let done = AtomicBool::new(false);
    let baseline_report = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let baseline = &baseline;
                let (q, probes, done) = (&q, &probes, &done);
                scope.spawn(move || {
                    let t = Instant::now();
                    let mut explains = 0usize;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        for &an in probes.iter() {
                            let engine = baseline.lock().expect("baseline lock");
                            let _ = engine.explain_one(q, an);
                            explains += 1;
                        }
                        if finished {
                            break;
                        }
                    }
                    (explains, t.elapsed().as_secs_f64())
                })
            })
            .collect();

        // The writer: the SAME batch stream, applied under the shared
        // session lock — readers stall for the whole apply.
        for batch in &stream {
            let mut engine = baseline.lock().expect("baseline lock");
            for update in batch {
                engine.apply(update.clone()).expect("valid batch");
            }
            drop(engine);
            if !BATCH_GAP.is_zero() {
                std::thread::sleep(BATCH_GAP);
            }
        }
        done.store(true, Ordering::Release);

        let mut explains = 0usize;
        let mut secs: f64 = 0.0;
        for handle in handles {
            let (e, s) = handle.join().expect("reader thread");
            explains += e;
            secs = secs.max(s);
        }
        SideReport {
            explains,
            secs,
            batches_applied: stream.len(),
        }
    });

    // ---------------- report -----------------------------------------
    let speedup = mvcc_report.rate() / baseline_report.rate().max(1e-9);
    println!(
        "\nMVCC sweep — lUrU |P| = {cardinality}, d = 3, α = {ALPHA}, {readers} readers × \
         {} probes over {batches} batches, ≤1 % each ({batch_size} updates), {} ms gap",
        probes.len(),
        BATCH_GAP.as_millis()
    );
    println!(
        "{:<22} {:>10} {:>9} {:>14} {:>9}",
        "session", "explains", "secs", "explains/sec", "batches"
    );
    for (label, r) in [
        ("mvcc (epoch pins)", &mvcc_report),
        ("mutex-serialized", &baseline_report),
    ] {
        println!(
            "{:<22} {:>10} {:>9} {:>14} {:>9}",
            label,
            r.explains,
            fnum(r.secs),
            fnum(r.rate()),
            r.batches_applied
        );
    }
    println!(
        "speedup {speedup:.2}× | epochs: {} published, {} retired, {} live in ring, tip {:?} | \
         identity: {identity_checked} sampled outcomes vs serial replay, identical = {identical}",
        counters.published, counters.retired, counters.live, counters.epoch
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"family\": \"lUrU\", \"cardinality\": {cardinality}, \"dim\": 3, \
         \"alpha\": {ALPHA}, \"readers\": {readers}, \"batches\": {batches}, \"probes\": {}, \
         \"batch_size\": {batch_size}, \"mutation_fraction\": {:.4}, \"batch_gap_ms\": {}}},",
        probes.len(),
        batch_size as f64 / cardinality as f64,
        BATCH_GAP.as_millis()
    );
    for (key, r) in [("mvcc", &mvcc_report), ("baseline_mutex", &baseline_report)] {
        let _ = writeln!(
            json,
            "  \"{key}\": {{\"explains\": {}, \"secs\": {:.4}, \"explains_per_sec\": {:.2}, \
             \"batches_applied\": {}}},",
            r.explains,
            r.secs,
            r.rate(),
            r.batches_applied
        );
    }
    let _ = writeln!(
        json,
        "  \"epochs\": {{\"published\": {}, \"retired\": {}, \"live\": {}, \"tip\": {}}},",
        counters.published, counters.retired, counters.live, counters.epoch.0
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"metric\": \"explains/sec at {readers} reader threads vs \
         mutex-serialized session under a concurrent 1% update stream\", \"speedup\": \
         {speedup:.3}, \"threshold\": 2.5, \"met\": {}, \"identity_checked\": \
         {identity_checked}, \"identical\": {identical}}}",
        speedup >= 2.5 && identical
    );
    let _ = writeln!(json, "}}");

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("bench_out directory");
    let path = dir.join("BENCH_mvcc.json");
    std::fs::write(&path, &json).expect("BENCH_mvcc.json written");
    println!("\nwrote {}", path.display());

    assert!(
        identical,
        "reader outcomes diverged from serial replay at pinned epochs"
    );
    if quick && speedup < 2.5 {
        eprintln!(
            "[mvcc_sweep] WARNING: {readers}-reader MVCC throughput only {speedup:.2}× the \
             mutex-serialized baseline (threshold 2.5×)"
        );
        std::process::exit(2);
    }
    println!(
        "epoch-snapshot MVCC sustains {speedup:.2}× the mutex-serialized explain throughput \
         under a concurrent ≤1 % update stream"
    );
}
