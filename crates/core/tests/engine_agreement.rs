//! Property tests of the `ExplainEngine`: the session object must agree
//! **exactly** with the definition-level oracles on small random
//! datasets, through every planner shape — a single explain, a serial
//! batch, a rayon-parallel batch and multi-query workloads. The batch
//! paths must additionally be bit-identical to each other (the
//! engine's ordering contract), and the combinatorics primitives FMCS
//! leans on must behave at their boundary sizes.

use crp_core::{
    binomial, collect_candidates, for_each_combination, oracle_cp, oracle_cr, CrpError, CrpOutcome,
    EngineConfig, ExplainEngine, ExplainRequest, ExplainSession, ExplainStrategy,
};
use crp_geom::{HyperRect, Point};
use crp_uncertain::{ObjectId, PdfDataset, PdfObject, UncertainDataset, UncertainObject};
use proptest::prelude::*;

/// Small uncertain dataset strategy: 2–7 objects, 1–3 samples each, on a
/// coarse integer grid (to generate plenty of dominance ties).
fn uncertain_dataset(dim: usize) -> impl Strategy<Value = UncertainDataset> {
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec(0.0..12.0f64, dim)
                .prop_map(|v| Point::new(v.into_iter().map(|c| c.round()).collect::<Vec<_>>())),
            1..=3,
        ),
        2..=7,
    )
    .prop_map(|objs| {
        UncertainDataset::from_objects(
            objs.into_iter().enumerate().map(|(i, pts)| {
                UncertainObject::with_equal_probs(ObjectId(i as u32), pts).unwrap()
            }),
        )
        .unwrap()
    })
}

fn certain_dataset(dim: usize) -> impl Strategy<Value = UncertainDataset> {
    prop::collection::vec(
        prop::collection::vec(0.0..12.0f64, dim)
            .prop_map(|v| Point::new(v.into_iter().map(|c| c.round()).collect::<Vec<_>>())),
        2..=10,
    )
    .prop_map(|pts| UncertainDataset::from_points(pts).unwrap())
}

fn query(dim: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(0.0..12.0f64, dim)
        .prop_map(|v| Point::new(v.into_iter().map(|c| c.round()).collect::<Vec<_>>()))
}

/// Signature for oracle comparisons: (id, |Γ_min|, counterfactual).
fn signature(out: &CrpOutcome) -> Vec<(ObjectId, usize, bool)> {
    out.causes
        .iter()
        .map(|c| (c.id, c.min_contingency.len(), c.counterfactual))
        .collect()
}

fn oracle_signature(oracle: &[(ObjectId, crp_core::OracleCause)]) -> Vec<(ObjectId, usize, bool)> {
    oracle
        .iter()
        .map(|(id, c)| (*id, c.min_gamma.len(), c.min_gamma.is_empty()))
        .collect()
}

/// One explain as a single-task plan under an explicit strategy and α.
fn solo(
    session: &dyn ExplainSession,
    strategy: ExplainStrategy,
    q: &Point,
    alpha: f64,
    an: ObjectId,
) -> Result<CrpOutcome, CrpError> {
    session
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(strategy)
            .with_alpha(alpha)])
        .into_single()
}

/// One batch plan under an explicit strategy and α; `serial` forces
/// the serial path.
fn batch(
    session: &dyn ExplainSession,
    strategy: ExplainStrategy,
    q: &Point,
    alpha: f64,
    ans: &[ObjectId],
    serial: bool,
) -> Vec<Result<CrpOutcome, CrpError>> {
    let request = ExplainRequest::batch(q, ans)
        .with_strategy(strategy)
        .with_alpha(alpha);
    let request = if serial { request.serial() } else { request };
    session.run(&[request]).results
}

fn engine_vs_oracle(
    engine: &ExplainEngine,
    strategy: ExplainStrategy,
    q: &Point,
    alpha: f64,
) -> Result<(), TestCaseError> {
    let ids: Vec<ObjectId> = engine.dataset().iter().map(|o| o.id()).collect();
    // Parallel and serial batches must be bit-identical (the engine's
    // ordering contract), and each element must equal the per-call path.
    let parallel = batch(engine, strategy, q, alpha, &ids, false);
    let serial = batch(engine, strategy, q, alpha, &ids, true);
    prop_assert_eq!(&parallel, &serial, "parallel batch diverged from serial");
    for (&an, got) in ids.iter().zip(&parallel) {
        let single = solo(engine, strategy, q, alpha, an);
        prop_assert_eq!(got, &single, "batch element diverged from a single explain");
        let expected = match strategy {
            ExplainStrategy::Cr => oracle_cr(engine.dataset(), q, an),
            _ => oracle_cp(engine.dataset(), q, an, alpha),
        };
        match (got, expected) {
            (Ok(out), Ok(oracle)) => {
                prop_assert_eq!(signature(out), oracle_signature(&oracle), "an = {}", an);
            }
            (Err(CrpError::NotANonAnswer { .. }), Err(CrpError::NotANonAnswer { .. })) => {}
            (g, e) => prop_assert!(false, "divergence for an = {}: {:?} vs {:?}", an, g, e),
        }
    }
    Ok(())
}

/// Small pdf dataset strategy: 2–6 uniform-box objects on a coarse
/// grid.
fn pdf_dataset(dim: usize) -> impl Strategy<Value = PdfDataset> {
    prop::collection::vec(
        (
            prop::collection::vec(0.0..12.0f64, dim),
            prop::collection::vec(0.5..3.0f64, dim),
        ),
        2..=6,
    )
    .prop_map(|boxes| {
        PdfDataset::from_objects(boxes.into_iter().enumerate().map(|(i, (lo, ext))| {
            let lo: Vec<f64> = lo.into_iter().map(|c| c.round()).collect();
            let hi: Vec<f64> = lo
                .iter()
                .zip(&ext)
                .map(|(l, e)| l + e.round().max(1.0))
                .collect();
            PdfObject::uniform(
                ObjectId(i as u32),
                HyperRect::new(Point::new(lo), Point::new(hi)),
            )
        }))
        .unwrap()
    })
}

/// Asserts one outcome equals a reference: bit-identical causes and
/// error cases, and equal search counters. Node accesses are left out:
/// they legitimately differ between an incrementally patched tree and
/// a freshly bulk-loaded one.
fn assert_outcomes_match(
    reference: &Result<CrpOutcome, CrpError>,
    got: Result<CrpOutcome, CrpError>,
    context: &str,
) -> Result<(), TestCaseError> {
    match (reference, got) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.causes, &b.causes, "causes diverged: {}", context);
            prop_assert_eq!(a.stats.candidates, b.stats.candidates, "{}", context);
            prop_assert_eq!(a.stats.forced, b.stats.forced, "{}", context);
            prop_assert_eq!(
                a.stats.subsets_examined,
                b.stats.subsets_examined,
                "{}",
                context
            );
            prop_assert_eq!(
                a.stats.prsq_evaluations,
                b.stats.prsq_evaluations,
                "{}",
                context
            );
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, &b, "errors diverged: {}", context),
        (a, b) => prop_assert!(false, "divergence ({}): {:?} vs {:?}", context, a, b),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_cp_serial_and_parallel_agree_with_oracle(
        ds in uncertain_dataset(2),
        q in query(2),
        alpha in prop::sample::select(vec![0.25, 0.5, 0.75, 1.0]),
    ) {
        let engine = ExplainEngine::new(ds, EngineConfig::with_alpha(alpha)).expect("valid engine config");
        engine_vs_oracle(&engine, ExplainStrategy::Cp, &q, alpha)?;
    }

    #[test]
    fn engine_cr_serial_and_parallel_agree_with_oracle(
        ds in certain_dataset(2),
        q in query(2),
    ) {
        let engine = ExplainEngine::new(ds, EngineConfig::default()).expect("valid engine config");
        engine_vs_oracle(&engine, ExplainStrategy::Cr, &q, 0.5)?;
    }

    #[test]
    fn engine_oracle_strategies_match_free_oracles(
        ds in certain_dataset(2),
        q in query(2),
    ) {
        // The oracle strategies are the same brute force behind the
        // engine dispatch; OracleCr and Cr must coincide on certain data.
        let engine = ExplainEngine::new(ds, EngineConfig::default()).expect("valid engine config");
        for an in engine.dataset().iter().map(|o| o.id()).collect::<Vec<_>>() {
            let via_engine = solo(&engine, ExplainStrategy::OracleCr, &q, 0.5, an);
            let direct = oracle_cr(engine.dataset(), &q, an);
            match (via_engine, direct) {
                (Ok(out), Ok(oracle)) => {
                    prop_assert_eq!(signature(&out), oracle_signature(&oracle));
                    let cr = solo(&engine, ExplainStrategy::Cr, &q, 0.5, an).unwrap();
                    prop_assert_eq!(signature(&cr), signature(&out));
                }
                (Err(CrpError::NotANonAnswer { .. }), Err(CrpError::NotANonAnswer { .. })) => {}
                (g, e) => prop_assert!(false, "divergence: {:?} vs {:?}", g, e),
            }
        }
    }

    #[test]
    fn naive_strategies_agree_with_lemma_strategies(
        ds in certain_dataset(2),
        q in query(2),
    ) {
        let engine = ExplainEngine::new(ds, EngineConfig::default()).expect("valid engine config");
        for an in engine.dataset().iter().map(|o| o.id()).collect::<Vec<_>>() {
            let cr = solo(&engine, ExplainStrategy::Cr, &q, 0.5, an);
            let nv = solo(&engine,
                ExplainStrategy::NaiveII { max_subsets: Some(5_000_000) },
                &q,
                0.5,
                an,
            );
            match (cr, nv) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(signature(&x), signature(&y));
                    // Identical filter -> identical I/O.
                    prop_assert_eq!(
                        x.stats.query.node_accesses,
                        y.stats.query.node_accesses
                    );
                }
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                (x, y) => prop_assert!(false, "divergence: {:?} vs {:?}", x, y),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Live datasets: mutable engines vs a fresh engine on the final data.
// ---------------------------------------------------------------------

use crp_core::Update;
use crp_uncertain::UncertainError;

/// One step of a live-session workload: a dataset mutation or an
/// explain request interleaved between mutations (which exercises
/// explains over a tree patched in place and a lazily rebuilt packed
/// image).
#[derive(Clone, Debug)]
enum LiveOp {
    /// Insert a fresh object with these samples.
    Insert(Vec<Point>),
    /// Delete the object selected by this index (mod live count).
    Delete(usize),
    /// Replace the object selected by this index with these samples.
    Replace(usize, Vec<Point>),
    /// Explain the object selected by this index right now.
    Explain(usize),
}

fn live_points(dim: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(0.0..12.0f64, dim)
            .prop_map(|v| Point::new(v.into_iter().map(|c| c.round()).collect::<Vec<_>>())),
        1..=3,
    )
}

fn live_op(dim: usize) -> impl Strategy<Value = LiveOp> {
    prop_oneof![
        3 => live_points(dim).prop_map(LiveOp::Insert),
        2 => any::<prop::sample::Index>().prop_map(|i| LiveOp::Delete(i.index(1 << 16))),
        2 => (any::<prop::sample::Index>(), live_points(dim))
            .prop_map(|(i, pts)| LiveOp::Replace(i.index(1 << 16), pts)),
        2 => any::<prop::sample::Index>().prop_map(|i| LiveOp::Explain(i.index(1 << 16))),
    ]
}

proptest! {
    // Each case replays the op sequence against a mutable engine,
    // comparing everything to fresh engines mid-stream and at the end.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mutable_discrete_engines_match_fresh_after_updates(
        ds in uncertain_dataset(2),
        q in query(2),
        ops in prop::collection::vec(live_op(2), 1..14),
        alpha in prop::sample::select(vec![0.3, 0.6, 1.0]),
    ) {
        let config = EngineConfig::with_alpha(alpha);
        let mut single = ExplainEngine::new(ds.clone(), config).expect("valid config");
        let mut next_id = ds.iter().map(|o| o.id().0).max().unwrap_or(0) + 1;
        for op in ops {
            let live: Vec<ObjectId> = single.dataset().iter().map(|o| o.id()).collect();
            let update = match op {
                LiveOp::Insert(points) => {
                    let obj = UncertainObject::with_equal_probs(ObjectId(next_id), points)
                        .expect("non-empty samples");
                    next_id += 1;
                    Some(Update::Insert(obj))
                }
                LiveOp::Delete(sel) if !live.is_empty() => {
                    Some(Update::Delete(live[sel % live.len()]))
                }
                LiveOp::Replace(sel, points) if !live.is_empty() => {
                    let id = live[sel % live.len()];
                    Some(Update::Replace(
                        UncertainObject::with_equal_probs(id, points).expect("non-empty samples"),
                    ))
                }
                LiveOp::Explain(sel) if !live.is_empty() => {
                    // Mid-stream explain between mutations; answers
                    // must match a fresh engine built on the current
                    // dataset.
                    let an = live[sel % live.len()];
                    let fresh = ExplainEngine::new(
                        UncertainDataset::from_objects(single.dataset().iter().cloned())
                            .expect("live dataset stays valid"),
                        config,
                    )
                    .expect("valid config");
                    let reference = solo(&fresh, ExplainStrategy::Cp, &q, alpha, an);
                    assert_outcomes_match(
                        &reference,
                        solo(&single, ExplainStrategy::Cp, &q, alpha, an),
                        "mutable engine, mid-stream",
                    )?;
                    None
                }
                _ => None,
            };
            if let Some(update) = update {
                let epoch_before = single.epoch();
                let epoch = single.apply(update.clone()).expect("valid update");
                prop_assert!(epoch > epoch_before, "epoch must advance");
            }
        }

        // Final: every engine answers every (object, α, sweep-α) like a
        // fresh engine built on the final dataset.
        let final_ds = UncertainDataset::from_objects(single.dataset().iter().cloned())
            .expect("live dataset stays valid");
        let fresh = ExplainEngine::new(final_ds, config).expect("valid config");
        let ids: Vec<ObjectId> = fresh.dataset().iter().map(|o| o.id()).collect();
        let sweep_alpha = (alpha * 0.5).max(0.25);
        for &a in &[alpha, sweep_alpha] {
            let reference = batch(&fresh, ExplainStrategy::Cp, &q, a, &ids, true);
            let got = batch(&single, ExplainStrategy::Cp, &q, a, &ids, false);
            for ((&an, reference), got) in ids.iter().zip(&reference).zip(got) {
                assert_outcomes_match(
                    reference,
                    got,
                    &format!("mutable engine, final, an = {an}, α = {a}"),
                )?;
            }
        }
        // A second pass over the same questions must stay identical.
        let reference = batch(&fresh, ExplainStrategy::Cp, &q, alpha, &ids, true);
        let repeat = batch(&single, ExplainStrategy::Cp, &q, alpha, &ids, true);
        for ((&an, reference), got) in ids.iter().zip(&reference).zip(repeat) {
            assert_outcomes_match(reference, got, &format!("repeat, an = {an}"))?;
        }
    }

    #[test]
    fn mutable_certain_engine_matches_fresh_with_point_updates(
        ds in certain_dataset(2),
        q in query(2),
        ops in prop::collection::vec(live_op(2), 1..10),
    ) {
        // Auto strategy: resolves to CR while the dataset stays
        // certain and flips to CP the moment a multi-sample object
        // arrives — exactly the certainty transition that drops the
        // point tree.
        let config = EngineConfig::default();
        let mut single = ExplainEngine::new(ds.clone(), config).expect("valid config");
        let mut next_id = ds.iter().map(|o| o.id().0).max().unwrap_or(0) + 1;
        for op in ops {
            let live: Vec<ObjectId> = single.dataset().iter().map(|o| o.id()).collect();
            match op {
                LiveOp::Insert(points) => {
                    let obj = UncertainObject::with_equal_probs(ObjectId(next_id), points)
                        .expect("non-empty samples");
                    next_id += 1;
                    single.apply(Update::Insert(obj)).expect("valid update");
                }
                LiveOp::Delete(sel) if !live.is_empty() => {
                    single
                        .apply(Update::Delete(live[sel % live.len()]))
                        .expect("valid update");
                }
                LiveOp::Replace(sel, points) if !live.is_empty() => {
                    let id = live[sel % live.len()];
                    single
                        .apply(Update::Replace(
                            UncertainObject::with_equal_probs(id, points)
                                .expect("non-empty samples"),
                        ))
                        .expect("valid update");
                }
                LiveOp::Explain(sel) if !live.is_empty() => {
                    let an = live[sel % live.len()];
                    let fresh = ExplainEngine::new(
                        UncertainDataset::from_objects(single.dataset().iter().cloned())
                            .expect("live dataset stays valid"),
                        config,
                    )
                    .expect("valid config");
                    let reference = fresh.explain(&q, an);
                    assert_outcomes_match(&reference, single.explain(&q, an), "auto mid-stream")?;
                }
                _ => {}
            }
        }
        let fresh = ExplainEngine::new(
            UncertainDataset::from_objects(single.dataset().iter().cloned())
                .expect("live dataset stays valid"),
            config,
        )
        .expect("valid config");
        for an in fresh.dataset().iter().map(|o| o.id()).collect::<Vec<_>>() {
            let reference = fresh.explain(&q, an);
            assert_outcomes_match(&reference, single.explain(&q, an), "auto final")?;
            // Twice: a repeat must not drift.
            assert_outcomes_match(&reference, single.explain(&q, an), "auto final repeat")?;
        }
    }

    #[test]
    fn mutable_pdf_engines_match_fresh_after_updates(
        ds in pdf_dataset(2),
        q in query(2),
        ops in prop::collection::vec(live_op(2), 1..10),
        alpha in prop::sample::select(vec![0.3, 0.6]),
    ) {
        let resolution = 3;
        let config = EngineConfig::with_alpha(alpha);
        let mut single =
            ExplainEngine::for_pdf(ds.clone(), resolution, config).expect("valid config");
        let mut next_id = ds.iter().map(|o| o.id().0).max().unwrap_or(0) + 1;
        let as_box = |points: &[Point]| {
            // Reuse the sample generator as box corners: lo = floor of
            // the first point, extent ≥ 1 on each axis.
            let lo = points[0].clone();
            let hi = Point::new(
                lo.coords()
                    .iter()
                    .map(|c| c + 1.0 + points.len() as f64)
                    .collect::<Vec<_>>(),
            );
            HyperRect::new(lo, hi)
        };
        for op in ops {
            let live: Vec<ObjectId> = single.pdf_dataset().unwrap().0.iter().map(|o| o.id()).collect();
            let update = match op {
                LiveOp::Insert(points) => {
                    let obj = PdfObject::uniform(ObjectId(next_id), as_box(&points));
                    next_id += 1;
                    Some(Update::Insert(obj))
                }
                LiveOp::Delete(sel) if !live.is_empty() => {
                    Some(Update::Delete(live[sel % live.len()]))
                }
                LiveOp::Replace(sel, points) if !live.is_empty() => {
                    let id = live[sel % live.len()];
                    Some(Update::Replace(PdfObject::uniform(id, as_box(&points))))
                }
                LiveOp::Explain(sel) if !live.is_empty() => {
                    let an = live[sel % live.len()];
                    let fresh = ExplainEngine::for_pdf(
                        PdfDataset::from_objects(
                            single.pdf_dataset().unwrap().0.iter().cloned(),
                        )
                        .expect("live dataset stays valid"),
                        resolution,
                        config,
                    )
                    .expect("valid config");
                    let reference = fresh.explain(&q, an);
                    assert_outcomes_match(&reference, single.explain(&q, an), "pdf mid-stream")?;
                    None
                }
                _ => None,
            };
            if let Some(update) = update {
                single.apply_pdf(update).expect("valid update");
            }
        }
        let final_ds =
            PdfDataset::from_objects(single.pdf_dataset().unwrap().0.iter().cloned())
                .expect("live dataset stays valid");
        let fresh =
            ExplainEngine::for_pdf(final_ds, resolution, config).expect("valid config");
        let ids: Vec<ObjectId> = fresh.pdf_dataset().unwrap().0.iter().map(|o| o.id()).collect();
        for &an in &ids {
            let reference = fresh.explain(&q, an);
            assert_outcomes_match(&reference, single.explain(&q, an), "pdf final")?;
            // Repeat.
            assert_outcomes_match(&reference, single.explain(&q, an), "pdf final repeat")?;
        }
    }

    #[test]
    fn mutable_dataset_rejects_invalid_updates(
        ds in uncertain_dataset(2),
    ) {
        let mut engine = ExplainEngine::new(ds.clone(), EngineConfig::default())
            .expect("valid config");
        let existing = ds.object_at(0).id();
        // Duplicate insert.
        let err = engine
            .apply(Update::Insert(UncertainObject::certain(
                existing,
                Point::from([1.0, 1.0]),
            )))
            .unwrap_err();
        prop_assert!(matches!(err, CrpError::InvalidUpdate { .. }));
        // Unknown delete / replace.
        let missing = ObjectId(u32::MAX);
        prop_assert_eq!(
            engine.apply(Update::Delete(missing)).unwrap_err(),
            CrpError::UnknownObject(missing)
        );
        let err = engine
            .apply(Update::Replace(UncertainObject::certain(
                missing,
                Point::from([1.0, 1.0]),
            )))
            .unwrap_err();
        prop_assert!(matches!(err, CrpError::InvalidUpdate { .. }));
        // Dimension mismatch.
        let err = engine
            .apply(Update::Insert(UncertainObject::certain(
                ObjectId(u32::MAX - 1),
                Point::from([1.0, 1.0, 1.0]),
            )))
            .unwrap_err();
        prop_assert!(matches!(err, CrpError::InvalidUpdate { .. }));
        // The underlying dataset apply surfaces the same classes.
        let mut raw = ds.clone();
        prop_assert_eq!(
            raw.apply(Update::Delete(missing)).unwrap_err(),
            UncertainError::UnknownId(missing.0)
        );
    }
}

// ---------------------------------------------------------------------
// Combinatorics boundary behaviour FMCS relies on.
// ---------------------------------------------------------------------

/// FMCS enumerates `C(n, k)` for `n` up to the free-candidate cap; the
/// saturating `binomial` must stay exact at every size the search can
/// reach and saturate (not wrap) beyond u128.
/// Interpolates `q` toward `target` by factor `t ∈ [0, 1]` — a nearby
/// query of a what-if grid.
fn interp(q: &Point, target: &Point, t: f64) -> Point {
    Point::new(
        q.coords()
            .iter()
            .zip(target.coords())
            .map(|(a, b)| a + t * (b - a))
            .collect::<Vec<_>>(),
    )
}

proptest! {
    // Each case executes a planned multi-query workload, comparing
    // every task against a single-task plan on a fresh session.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance pin of the plan layer: planned execution —
    /// α-sweeps sharing stage-1 rows across a grid of nearby queries —
    /// is bit-identical (causes *and* `subsets_examined`/
    /// `prsq_evaluations`) to per-call explains.
    #[test]
    fn planned_discrete_execution_matches_per_call(
        ds in uncertain_dataset(2),
        q in query(2),
        t in prop::sample::select(vec![0.1, 0.35, 0.7]),
    ) {
        let ids: Vec<ObjectId> = ds.iter().map(|o| o.id()).collect();
        // A nearby query interpolated toward the first object's first
        // sample.
        let q2 = interp(&q, ds.object_at(0).samples()[0].point(), t);
        let alphas = vec![0.35, 0.8];
        let request = ExplainRequest::query_sweep(vec![q.clone(), q2.clone()], &ids)
            .with_strategy(ExplainStrategy::Cp)
            .with_alphas(alphas.clone());
        let config = EngineConfig::with_alpha(0.5);
        let reference = ExplainEngine::new(ds.clone(), config).expect("valid config");
        let mut expected = Vec::new();
        for qq in [&q, &q2] {
            for &an in &ids {
                for &alpha in &alphas {
                    expected.push(solo(&reference, ExplainStrategy::Cp, qq, alpha, an));
                }
            }
        }

        let engine = ExplainEngine::new(ds.clone(), config).expect("valid config");
        let report = engine.run(std::slice::from_ref(&request));
        prop_assert_eq!(report.results.len(), expected.len());
        let distinct_q = if q2.coords() == q.coords() { 1 } else { 2 };
        prop_assert_eq!(report.counters.stage1_units, distinct_q * ids.len());
        prop_assert_eq!(
            report.counters.stage1_shared_tasks,
            report.counters.tasks - distinct_q * ids.len()
        );
        for (i, (want, got)) in expected.iter().zip(&report.results).enumerate() {
            assert_outcomes_match(want, got.clone(), &format!("planned, task {i}"))?;
        }
    }

    /// The same pin on the continuous-pdf pipeline.
    #[test]
    fn planned_pdf_execution_matches_per_call(
        ds in pdf_dataset(2),
        q in query(2),
        t in prop::sample::select(vec![0.2, 0.6]),
    ) {
        let resolution = 3;
        let ids: Vec<ObjectId> = ds.iter().map(|o| o.id()).collect();
        let q2 = interp(&q, &ds.objects()[0].region().center(), t);
        let alphas = vec![0.3, 0.7];
        let request = ExplainRequest::query_sweep(vec![q.clone(), q2.clone()], &ids)
            .with_strategy(ExplainStrategy::Cp)
            .with_alphas(alphas.clone());
        let config = EngineConfig::with_alpha(0.5);
        let reference = ExplainEngine::for_pdf(ds.clone(), resolution, config).expect("valid config");
        let mut expected = Vec::new();
        for qq in [&q, &q2] {
            for &an in &ids {
                for &alpha in &alphas {
                    expected.push(solo(&reference, ExplainStrategy::Cp, qq, alpha, an));
                }
            }
        }

        let engine = ExplainEngine::for_pdf(ds.clone(), resolution, config).expect("valid config");
        let report = engine.run(std::slice::from_ref(&request));
        for (i, (want, got)) in expected.iter().zip(&report.results).enumerate() {
            assert_outcomes_match(want, got.clone(), &format!("pdf planned, task {i}"))?;
        }
    }

    /// Mid-plan invalidation: a plan executed before an update must
    /// not leak stale rows into a plan executed after it — post-update
    /// planned results equal a fresh session on the final dataset.
    #[test]
    fn planned_execution_survives_apply_invalidation(
        ds in uncertain_dataset(2),
        q in query(2),
        points in live_points(2),
        alpha in prop::sample::select(vec![0.5, 0.8]),
    ) {
        let ids: Vec<ObjectId> = ds.iter().map(|o| o.id()).collect();
        let request = ExplainRequest::batch(&q, &ids)
            .with_strategy(ExplainStrategy::Cp)
            .with_alpha(alpha);
        let config = EngineConfig::with_alpha(alpha);
        let next_id = ObjectId(ds.iter().map(|o| o.id().0).max().unwrap_or(0) + 1);
        let obj = UncertainObject::with_equal_probs(next_id, points).expect("non-empty samples");

        // Fresh reference over the post-update dataset.
        let mut updated = ds.clone();
        updated.push(obj.clone()).expect("fresh id");
        let reference = ExplainEngine::new(updated.clone(), config).expect("valid config");
        let expected: Vec<_> = ids
            .iter()
            .map(|&an| solo(&reference, ExplainStrategy::Cp, &q, alpha, an))
            .collect();

        // Plan (warming the packed image), mutate, re-plan.
        let mut engine = ExplainEngine::new(ds, config).expect("valid config");
        let _ = engine.run(std::slice::from_ref(&request));
        engine.apply(Update::Insert(obj)).expect("fresh id");
        let report = engine.run(std::slice::from_ref(&request));
        for (i, (want, got)) in expected.iter().zip(&report.results).enumerate() {
            assert_outcomes_match(want, got.clone(), &format!("post-apply planned, an {i}"))?;
        }
    }
}

/// A deterministic nearby-query grid over one non-answer: every
/// `(an, q)` unit pays its own stage-1 traversal, and each planned
/// result equals its solo explain field for field — I/O counters
/// included, whatever else shares the plan.
#[test]
fn planned_query_sweep_matches_solo_explains() {
    let ds = UncertainDataset::from_objects(vec![
        UncertainObject::certain(ObjectId(0), Point::from([10.0, 10.0])),
        UncertainObject::certain(ObjectId(1), Point::from([7.0, 7.0])),
        UncertainObject::with_equal_probs(
            ObjectId(2),
            vec![Point::from([8.0, 9.0]), Point::from([6.0, 6.5])],
        )
        .unwrap(),
        UncertainObject::certain(ObjectId(3), Point::from([40.0, 40.0])),
    ])
    .unwrap();
    let q = Point::from([5.0, 5.0]);
    let target = Point::from([10.0, 10.0]); // the an's only sample
    let engine = |config| ExplainEngine::new(ds.clone(), config).expect("valid config");
    assert_query_sweep_matches_solo(engine, &q, &target);
}

/// [`planned_query_sweep_matches_solo_explains`] on the continuous-pdf
/// pipeline.
#[test]
fn planned_pdf_query_sweep_matches_solo_explains() {
    let pt = |x: f64, y: f64| Point::from([x, y]);
    let ds = PdfDataset::from_objects(vec![
        PdfObject::uniform(ObjectId(0), HyperRect::new(pt(9.5, 9.5), pt(10.5, 10.5))),
        PdfObject::uniform(ObjectId(1), HyperRect::new(pt(6.9, 6.9), pt(7.1, 7.1))),
        PdfObject::uniform(ObjectId(2), HyperRect::new(pt(6.0, 6.5), pt(8.0, 9.0))),
        PdfObject::uniform(ObjectId(3), HyperRect::new(pt(40.0, 40.0), pt(41.0, 41.0))),
    ])
    .unwrap();
    let q = pt(5.0, 5.0);
    let target = pt(10.0, 10.0); // the an's region centre
    let engine = |config| ExplainEngine::for_pdf(ds.clone(), 3, config).expect("valid config");
    assert_query_sweep_matches_solo(engine, &q, &target);
}

/// Plans a three-query sweep of object 0 from `q` toward `target` and
/// checks it against solo explains on a second session.
fn assert_query_sweep_matches_solo(
    engine: impl Fn(EngineConfig) -> ExplainEngine,
    q: &Point,
    target: &Point,
) {
    let an = ObjectId(0);
    let grid = vec![q.clone(), interp(q, target, 0.1), interp(q, target, 0.25)];
    let config = EngineConfig::with_alpha(0.75);

    let reference = engine(config);
    let expected: Vec<_> = grid
        .iter()
        .map(|qq| solo(&reference, ExplainStrategy::Cp, qq, 0.75, an))
        .collect();

    let report = engine(config).run(&[ExplainRequest::query_sweep(grid, &[an])
        .with_strategy(ExplainStrategy::Cp)
        .with_alpha(0.75)]);
    assert_eq!(report.counters.stage1_units, 3);
    assert_eq!(
        report.counters.stage1_traversals, 3,
        "every unit traverses: {:?}",
        report.counters
    );
    for (i, (want, got)) in expected.iter().zip(&report.results).enumerate() {
        let got = got.as_ref().expect("non-answer");
        assert!(got.stats.query.node_accesses > 0, "query {i}");
        assert_eq!(want.as_ref().expect("non-answer"), got, "query {i}");
    }
}

#[test]
fn binomial_is_exact_at_fmcs_boundary_sizes() {
    // Pascal's rule over the whole range FMCS can touch (tractability
    // caps keep the free candidate count ≤ ~40; check well past it).
    for n in 0..=64usize {
        assert_eq!(binomial(n, 0), 1);
        assert_eq!(binomial(n, n), 1);
        for k in 1..=n {
            assert_eq!(
                binomial(n, k),
                binomial(n - 1, k - 1) + binomial(n - 1, k),
                "Pascal fails at C({n}, {k})"
            );
        }
    }
    // Symmetry and known values at the widest row used in practice.
    assert_eq!(binomial(40, 20), 137_846_528_820);
    assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
    // Saturation instead of overflow: C(200,100) > u128::MAX.
    assert_eq!(binomial(200, 100), u128::MAX);
    assert_eq!(binomial(1_000, 500), u128::MAX);
    // Degenerate inputs.
    assert_eq!(binomial(0, 0), 1);
    assert_eq!(binomial(3, 7), 0);
}

/// The lexicographic enumerator at its boundaries: k = 0, k = n, k > n,
/// n = 0, and early exit at the first/last combination.
#[test]
fn for_each_combination_boundary_sizes() {
    // k = 0 yields exactly the empty combination, even for n = 0.
    for n in [0usize, 1, 5, 31] {
        let mut seen = 0;
        let stopped = for_each_combination(n, 0, |c| {
            assert!(c.is_empty());
            seen += 1;
            false
        });
        assert!(!stopped);
        assert_eq!(seen, 1, "n = {n}");
    }
    // k > n yields nothing.
    let mut called = false;
    assert!(!for_each_combination(4, 5, |_| {
        called = true;
        false
    }));
    assert!(!called);
    // k = n yields the identity combination only.
    let mut combos = Vec::new();
    for_each_combination(6, 6, |c| {
        combos.push(c.to_vec());
        false
    });
    assert_eq!(combos, vec![(0..6).collect::<Vec<_>>()]);
    // Counts match binomial over a boundary-heavy grid, and every
    // combination is strictly increasing (sorted, no duplicates).
    for n in 0..=12usize {
        for k in 0..=n {
            let mut count: u128 = 0;
            for_each_combination(n, k, |c| {
                assert!(c.windows(2).all(|w| w[0] < w[1]));
                count += 1;
                false
            });
            assert_eq!(count, binomial(n, k), "C({n}, {k})");
        }
    }
    // Early exit on the very first combination.
    let mut seen = 0;
    assert!(for_each_combination(8, 3, |_| {
        seen += 1;
        true
    }));
    assert_eq!(seen, 1);
    // Early exit on the very last combination.
    let total = binomial(8, 3);
    let mut seen = 0u128;
    assert!(for_each_combination(8, 3, |_| {
        seen += 1;
        seen == total
    }));
    assert_eq!(seen, total);
}

// ---------------------------------------------------------------------
// Packed stage-1 read path: the engine's filter descends the frozen SoA
// image; `collect_candidates` over the pointer `RTree` is the reference.
// Candidates AND the stage-1 node accesses must be identical on every
// workload — only the tree representation differs, so nothing is
// allowed to move.
// ---------------------------------------------------------------------

use crp_rtree::{QueryStats, RTreeParams, WindowQuery};

/// The engine's stage-1 candidates of `an` and the node accesses that
/// one filter run charged to the session.
fn engine_stage1(engine: &ExplainEngine, q: &Point, an: ObjectId) -> (Vec<ObjectId>, u64) {
    engine.reset_io();
    let ids = engine.candidate_ids(q, an).expect("valid non-answer id");
    (ids, engine.reset_io().node_accesses)
}

/// The pointer-tree reference for discrete data: `collect_candidates`
/// over `tree`, mapped to sorted ids.
fn pointer_stage1(
    ds: &UncertainDataset,
    tree: &crp_rtree::RTree<ObjectId>,
    q: &Point,
    an: ObjectId,
) -> (Vec<ObjectId>, u64) {
    let an_pos = ds.index_of(an).expect("live id");
    let mut stats = crp_core::RunStats::default();
    let mut ids: Vec<ObjectId> = collect_candidates(ds, tree, q, an_pos, &mut stats)
        .into_iter()
        .map(|pos| ds.object_at(pos).id())
        .collect();
    ids.sort_unstable();
    (ids, stats.query.node_accesses)
}

/// Asserts the packed stage 1 matches the pointer reference for every
/// object of the engine's dataset, over the engine's own pointer tree.
fn assert_stage1_matches_pointer(engine: &ExplainEngine, q: &Point) -> Result<(), TestCaseError> {
    let ds = engine.dataset();
    for an in ds.iter().map(|o| o.id()) {
        prop_assert_eq!(
            engine_stage1(engine, q, an),
            pointer_stage1(ds, engine.object_tree(), q, an),
            "packed vs pointer stage 1 diverged: an = {}",
            an
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_filter_is_bit_identical_on_discrete(
        ds in uncertain_dataset(2),
        q in query(2),
    ) {
        // The reference tree is bulk-loaded independently of the engine
        // with the same (default) shape, so it has the same nodes.
        let engine = ExplainEngine::new(ds.clone(), EngineConfig::default())
            .expect("valid engine config");
        let tree = crp_skyline::build_object_rtree(&ds, RTreeParams::paper_default(2));
        for an in ds.iter().map(|o| o.id()) {
            prop_assert_eq!(
                engine_stage1(&engine, &q, an),
                pointer_stage1(&ds, &tree, &q, an),
                "packed vs pointer stage 1 diverged: an = {}",
                an
            );
        }
    }

    #[test]
    fn packed_filter_is_bit_identical_on_discrete_3d(
        ds in uncertain_dataset(3),
        q in query(3),
    ) {
        // Odd dimension: the SIMD kernel's 4-lane chunks straddle slot
        // boundaries differently than dim 2 — parity must still hold.
        let engine = ExplainEngine::new(ds, EngineConfig::default()).expect("valid engine config");
        assert_stage1_matches_pointer(&engine, &q)?;
    }

    #[test]
    fn packed_filter_is_bit_identical_on_pdf(
        ds in pdf_dataset(2),
        q in query(2),
    ) {
        // The pdf filter (Section 3.2): one dominance window per
        // sub-quadrant of an's region, centred at the region's farthest
        // corner from q, walked over the pointer region tree.
        let engine = ExplainEngine::for_pdf(ds.clone(), 3, EngineConfig::default())
            .expect("valid engine config");
        let tree = crp_core::build_pdf_rtree(&ds, RTreeParams::paper_default(2));
        for obj in ds.iter() {
            let an = obj.id();
            let windows: Vec<HyperRect> = crp_geom::quadrant_corners(&q, obj.region())
                .into_iter()
                .map(|(_, sub)| crp_geom::dominance_rect(&sub.farthest_corner(&q), &q))
                .collect();
            let mut query = QueryStats::default();
            let mut ids = Vec::new();
            tree.visit_windows(&windows, &mut query, &mut |&id| {
                if id != an {
                    ids.push(id);
                }
                true
            });
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(
                engine_stage1(&engine, &q, an),
                (ids, query.node_accesses),
                "pdf packed vs pointer stage 1 diverged: an = {}",
                an
            );
        }
    }

    #[test]
    fn packed_filter_survives_apply_refreeze(
        ds in uncertain_dataset(2),
        q in query(2),
        points in live_points(2),
    ) {
        // Mutations patch the pointer tree and refreeze the packed
        // image. Warm the image, apply an insert-then-delete, and the
        // refrozen image must still match the patched pointer tree.
        let next_id = ObjectId(ds.iter().map(|o| o.id().0).max().unwrap_or(0) + 1);
        let obj = UncertainObject::with_equal_probs(next_id, points).expect("non-empty samples");
        let victim = ds.iter().map(|o| o.id()).next().expect("non-empty dataset");

        let mut engine = ExplainEngine::new(ds, EngineConfig::with_alpha(0.5))
            .expect("valid engine config");
        let _ = solo(&engine, ExplainStrategy::Cp, &q, 0.5, victim);
        engine.apply(Update::Insert(obj)).expect("fresh id");
        engine.apply(Update::Delete(victim)).expect("live id");
        assert_stage1_matches_pointer(&engine, &q)?;
    }

    #[test]
    fn batch_plan_is_bit_identical_to_solo_plans(
        ds in uncertain_dataset(2),
        q in query(2),
        alpha in prop::sample::select(vec![0.5, 0.8]),
    ) {
        // A multi-an batch plan against one single-an plan per
        // non-answer: results — per-query node accesses included —
        // must match.
        let ids: Vec<ObjectId> = ds.iter().map(|o| o.id()).collect();
        let plan = |ans: &[ObjectId]| {
            ExplainRequest::batch(&q, ans)
                .with_strategy(ExplainStrategy::Cp)
                .with_alpha(alpha)
        };
        let batched = ExplainEngine::new(ds.clone(), EngineConfig::with_alpha(alpha))
            .expect("valid engine config");
        let solo = ExplainEngine::new(ds, EngineConfig::with_alpha(alpha))
            .expect("valid engine config");
        let a = batched.run(std::slice::from_ref(&plan(&ids)));
        let b: Vec<_> = ids
            .iter()
            .map(|&an| solo.run(std::slice::from_ref(&plan(&[an]))).into_single())
            .collect();
        prop_assert_eq!(&a.results, &b, "batch plan diverged from solo plans");
    }
}
