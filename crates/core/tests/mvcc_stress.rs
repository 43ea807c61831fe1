//! Concurrency stress for the epoch-snapshot MVCC session: N reader
//! threads explain against pinned snapshots while a writer thread
//! continuously applies ~1% update batches. Every reader-observed
//! outcome must be **bit-identical** — `CrpOutcome` including
//! `stats.query` — to a fresh serial engine replayed to the reader's
//! pinned epoch (incremental R*-tree patching is deterministic, so the
//! forked trees equal the replayed trees node for node). Readers must
//! also never observe a torn epoch: every pinned epoch is a batch
//! boundary. Discrete workloads (one- and two-sample objects under an
//! insert-heavy mix; two- to four-sample objects under a delete-heavy
//! one) and a continuous-pdf workload are covered.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crp_core::{
    CrpError, CrpOutcome, EngineConfig, Epoch, ExplainEngine, ExplainRequest, ExplainSession,
    MvccEngine, Update,
};
use crp_geom::{HyperRect, Point};
use crp_uncertain::{ObjectId, PdfDataset, PdfObject, UncertainDataset, UncertainObject};

const READERS: usize = 4;
const IDS_PER_PIN: usize = 6;

/// Deterministic split-mix generator so the whole update stream (and
/// therefore the serial replay reference) is a pure function of a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn grid(&mut self) -> f64 {
        (self.next() % 13) as f64
    }
}

fn grid_point(rng: &mut Rng) -> Point {
    Point::from([rng.grid(), rng.grid()])
}

fn discrete_object(id: u32, rng: &mut Rng) -> UncertainObject {
    let samples = 1 + rng.below(2);
    UncertainObject::with_equal_probs(ObjectId(id), (0..samples).map(|_| grid_point(rng))).unwrap()
}

fn multi_sample_object(id: u32, rng: &mut Rng) -> UncertainObject {
    let samples = 2 + rng.below(3);
    UncertainObject::with_equal_probs(ObjectId(id), (0..samples).map(|_| grid_point(rng))).unwrap()
}

fn pdf_object(id: u32, rng: &mut Rng) -> PdfObject {
    let lo = grid_point(rng);
    let hi = Point::new(
        lo.coords()
            .iter()
            .map(|c| c + 1.0 + rng.below(2) as f64)
            .collect::<Vec<_>>(),
    );
    PdfObject::uniform(ObjectId(id), HyperRect::new(lo, hi))
}

/// An update mix: of every `out_of` draws, `inserts` insert, the next
/// `deletes` delete and the rest replace.
struct Mix {
    out_of: usize,
    inserts: usize,
    deletes: usize,
}

/// 40 % inserts, 30 % deletes, 30 % replaces.
const INSERT_HEAVY: Mix = Mix {
    out_of: 10,
    inserts: 4,
    deletes: 3,
};

/// 45 % inserts, 45 % deletes, 10 % replaces.
const DELETE_HEAVY: Mix = Mix {
    out_of: 20,
    inserts: 9,
    deletes: 9,
};

/// Pre-generates the whole batched update stream against a simulated
/// live-id set: ~1% of the population per batch (floored at 2), mixing
/// inserts, deletes and replaces.
fn make_batches<T, F: FnMut(u32, &mut Rng) -> T>(
    n: usize,
    batches: usize,
    mix: &Mix,
    rng: &mut Rng,
    mut fresh: F,
) -> (Vec<u32>, Vec<Vec<Update<T>>>) {
    let base_ids: Vec<u32> = (0..n as u32).collect();
    let mut live = base_ids.clone();
    let mut next_id = n as u32;
    let batch_len = (n / 100).max(2);
    let stream = (0..batches)
        .map(|_| {
            (0..batch_len)
                .map(|_| match rng.below(mix.out_of) {
                    roll if roll < mix.inserts => {
                        let id = next_id;
                        next_id += 1;
                        live.push(id);
                        Update::Insert(fresh(id, rng))
                    }
                    roll if roll < mix.inserts + mix.deletes => {
                        let id = live.remove(rng.below(live.len()));
                        Update::Delete(ObjectId(id))
                    }
                    _ => {
                        let id = live[rng.below(live.len())];
                        Update::Replace(fresh(id, rng))
                    }
                })
                .collect()
        })
        .collect();
    (base_ids, stream)
}

/// One reader-recorded observation: the pinned epoch and the outcomes
/// it served.
type Observation = (Epoch, Vec<(ObjectId, Result<CrpOutcome, CrpError>)>);

/// Drives the full stress protocol for one workload:
/// `make_engine(k)` must deterministically build the engine replayed
/// through the first `k` batches (the serial reference); `k = 0` seeds
/// the MVCC writer.
fn run_stress<U, A, M>(batches: &[Vec<U>], q: &Point, apply: A, make_engine: M, label: &str)
where
    U: Clone + Send + Sync,
    A: Fn(&MvccEngine<ExplainEngine>, Vec<U>) -> Result<Epoch, CrpError>,
    M: Fn(usize) -> ExplainEngine,
{
    let mvcc = MvccEngine::new(make_engine(0));
    let base_epoch = mvcc.pin().epoch();

    // Epoch → replay depth. Filled by the writer below; pre-seeded with
    // the construction epoch.
    let mut boundary: HashMap<Epoch, usize> = HashMap::from([(base_epoch, 0)]);

    let done = AtomicBool::new(false);
    let observations: Vec<Vec<Observation>> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let done = &done;
                let mvcc = &mvcc;
                scope.spawn(move || {
                    let mut seen: Vec<Observation> = Vec::new();
                    let mut round = 0;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let snapshot = mvcc.pin();
                        let ids: Vec<ObjectId> = live_ids(snapshot.engine());
                        let outcomes = (0..IDS_PER_PIN)
                            .map(|i| {
                                let an = ids[(reader * 3 + round + i * 5) % ids.len()];
                                (an, capped(snapshot.engine(), q, an))
                            })
                            .collect();
                        seen.push((snapshot.epoch(), outcomes));
                        round += 1;
                        if finished {
                            return seen;
                        }
                        std::thread::sleep(Duration::from_micros(300));
                    }
                })
            })
            .collect();

        // The writer: one batch at a time, publishing at each boundary.
        for (k, batch) in batches.iter().enumerate() {
            let epoch = apply(&mvcc, batch.clone()).expect("valid batch");
            boundary.insert(epoch, k + 1);
            std::thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    // Verification: every pinned epoch is a published batch boundary
    // (no torn epochs), and every outcome is bit-identical to a fresh
    // serial engine replayed to that boundary.
    let mut references: HashMap<Epoch, ExplainEngine> = HashMap::new();
    let mut checked = 0usize;
    for (epoch, outcomes) in observations.into_iter().flatten() {
        let depth = *boundary
            .get(&epoch)
            .unwrap_or_else(|| panic!("{label}: torn epoch {epoch:?} observed by a reader"));
        let reference = references
            .entry(epoch)
            .or_insert_with(|| make_engine(depth));
        for (an, outcome) in outcomes {
            assert_eq!(
                outcome,
                capped(reference, q, an),
                "{label}: reader outcome diverged from serial replay at epoch {epoch:?}, an = {an}"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= READERS * IDS_PER_PIN,
        "{label}: too few observations ({checked})"
    );
}

/// Session config shared by the MVCC writer and every serial-replay
/// reference.
fn stress_config() -> EngineConfig {
    EngineConfig::with_alpha(0.6)
}

/// One explain under a check cap, which bounds adversarial
/// non-answers whose exact minimal-contingency search would be
/// astronomically large. A capped one-task plan stops with the same
/// typed progress every time, so only its wall clock (`elapsed_ms`,
/// cleared here) is left out of the bit-identity contract.
fn capped(session: &dyn ExplainSession, q: &Point, an: ObjectId) -> Result<CrpOutcome, CrpError> {
    let request = ExplainRequest::explain(q, an).with_check_budget(20_000);
    session.run(&[request]).into_single().map_err(|e| match e {
        CrpError::Partial(mut p) => {
            p.elapsed_ms = 0;
            CrpError::Partial(p)
        }
        e => e,
    })
}

/// Builds a discrete engine warmed with one explain (so the update
/// stream exercises incremental tree patching + refreeze), then
/// serially replayed through the first `depth` batches.
fn discrete_engine(
    base: &UncertainDataset,
    batches: &[Vec<Update<UncertainObject>>],
    depth: usize,
    q: &Point,
) -> ExplainEngine {
    let mut engine = ExplainEngine::new(base.clone(), stress_config()).expect("valid config");
    let _ = engine.explain_one(q, base.object_at(0).id());
    for batch in &batches[..depth] {
        for update in batch {
            engine.apply(update.clone()).expect("valid update");
        }
    }
    engine
}

fn pdf_engine(
    base: &PdfDataset,
    batches: &[Vec<Update<PdfObject>>],
    depth: usize,
    q: &Point,
) -> ExplainEngine {
    let mut engine =
        ExplainEngine::for_pdf(base.clone(), 3, stress_config()).expect("valid config");
    let _ = engine.explain_one(q, base.objects()[0].id());
    for batch in &batches[..depth] {
        for update in batch {
            engine.apply_pdf(update.clone()).expect("valid update");
        }
    }
    engine
}

/// Live ids at this engine's epoch, for either workload.
fn live_ids(engine: &ExplainEngine) -> Vec<ObjectId> {
    match engine.pdf_dataset() {
        Some((pdf, _)) => pdf.objects().iter().map(|o| o.id()).collect(),
        None => engine.dataset().iter().map(|o| o.id()).collect(),
    }
}

#[test]
fn concurrent_readers_stay_bit_identical_to_serial_replay_discrete() {
    let mut rng = Rng(0x5EED_0001);
    let base =
        UncertainDataset::from_objects((0..48u32).map(|id| discrete_object(id, &mut rng))).unwrap();
    let (_, batches) = make_batches(base.len(), 6, &INSERT_HEAVY, &mut rng, discrete_object);
    let q = Point::from([4.0, 4.0]);
    run_stress(
        &batches,
        &q,
        |mvcc, batch| mvcc.apply_batch(batch),
        |depth| discrete_engine(&base, &batches, depth, &q),
        "discrete",
    );
}

/// Multi-sample objects (two to four samples) under a delete-heavy
/// 45/45/10 insert/delete/replace mix.
#[test]
fn concurrent_readers_stay_bit_identical_to_serial_replay_multi_sample() {
    let mut rng = Rng(0x5EED_0004);
    let base =
        UncertainDataset::from_objects((0..64u32).map(|id| multi_sample_object(id, &mut rng)))
            .unwrap();
    let (_, batches) = make_batches(base.len(), 6, &DELETE_HEAVY, &mut rng, multi_sample_object);
    let q = Point::from([4.0, 4.0]);
    run_stress(
        &batches,
        &q,
        |mvcc, batch| mvcc.apply_batch(batch),
        |depth| discrete_engine(&base, &batches, depth, &q),
        "multi-sample",
    );
}

#[test]
fn concurrent_readers_stay_bit_identical_to_serial_replay_pdf() {
    let mut rng = Rng(0x5EED_0002);
    let base = PdfDataset::from_objects((0..16u32).map(|id| pdf_object(id, &mut rng))).unwrap();
    let (_, batches) = make_batches(base.len(), 4, &INSERT_HEAVY, &mut rng, pdf_object);
    let q = Point::from([4.0, 4.0]);
    run_stress(
        &batches,
        &q,
        |mvcc, batch| mvcc.apply_pdf_batch(batch),
        |depth| pdf_engine(&base, &batches, depth, &q),
        "pdf",
    );
}

/// Deletes and replaces at the paper's scale (100k lUrU objects,
/// d = 3): the bulk-loaded object tree condenses underfull path nodes
/// whose child on the deletion path survives. Every update must apply,
/// the tree must stay structurally sound, and the mutated engine must
/// filter exactly like one built fresh on the final dataset. Sized for
/// release builds: run with `cargo test --release -p crp-core --test
/// mvcc_stress -- --ignored`.
#[test]
#[ignore = "paper-scale; run in release mode"]
fn paper_scale_deletes_and_replaces_apply() {
    let ds = crp_data::uncertain_dataset(&crp_data::UncertainConfig {
        cardinality: 100_000,
        dim: 3,
        seed: 13,
        ..crp_data::UncertainConfig::default()
    });
    let mut engine = ExplainEngine::new(ds, EngineConfig::with_alpha(0.6)).expect("valid config");
    let probe = Point::from([5_000.0, 5_000.0, 5_000.0]);
    let _ = engine.candidate_ids(&probe, ObjectId(0));

    let mut rng = Rng(0x5EED_0003);
    let mut live: Vec<ObjectId> = engine.dataset().iter().map(|o| o.id()).collect();
    const UPDATES: usize = 240;
    for step in 0..UPDATES {
        let pos = rng.below(live.len());
        let id = live[pos];
        let update = if step % 2 == 0 {
            live.swap_remove(pos);
            Update::Delete(id)
        } else {
            let old = engine.dataset().get(id).expect("live id").mbr();
            let shifted: Vec<f64> = old.lo().coords().iter().map(|c| c + 1.0).collect();
            Update::Replace(UncertainObject::certain(id, Point::new(shifted)))
        };
        engine
            .apply(update)
            .unwrap_or_else(|e| panic!("update {step} on {id}: {e}"));
    }
    let tree = engine.object_tree();
    tree.check_invariants();
    assert_eq!(tree.len(), engine.dataset().len());
    assert_eq!(engine.dataset().len(), 100_000 - UPDATES / 2);

    let fresh = ExplainEngine::new(engine.dataset().clone(), EngineConfig::with_alpha(0.6))
        .expect("valid config");
    for &an in live.iter().take(20) {
        let lo = engine
            .dataset()
            .get(an)
            .expect("live id")
            .mbr()
            .lo()
            .clone();
        let q = Point::new(
            lo.coords()
                .iter()
                .map(|c| c - 1_000.0)
                .collect::<Vec<f64>>(),
        );
        assert_eq!(
            engine.candidate_ids(&q, an).unwrap(),
            fresh.candidate_ids(&q, an).unwrap(),
            "stage 1 of {an} after the updates"
        );
    }
}
