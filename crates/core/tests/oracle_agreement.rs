//! The load-bearing correctness tests: CP, Naive-I, CR and Naive-II must
//! agree with the definition-level brute-force oracle on randomized small
//! instances. The oracle enumerates subsets of the whole dataset straight
//! from Definitions 1–2, encoding none of the paper's lemmas — so
//! agreement here validates every lemma implementation at once. Every
//! strategy runs through an `ExplainEngine` session over a fanout-4
//! R-tree.

use crp_core::{
    oracle_cp, oracle_cr, CpConfig, CrpError, CrpOutcome, EngineConfig, ExplainEngine,
    ExplainRequest, ExplainSession, ExplainStrategy, StopReason,
};
use crp_geom::Point;
use crp_rtree::RTreeParams;
use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};
use proptest::prelude::*;

/// A session over `ds` with a fanout-4 index.
fn session(ds: &UncertainDataset) -> ExplainEngine {
    let config = EngineConfig {
        rtree: Some(RTreeParams::with_fanout(4)),
        ..EngineConfig::default()
    };
    ExplainEngine::new(ds.clone(), config).expect("valid engine config")
}

/// One explain under `strategy` at `alpha` with lemma switches `cp`.
fn explain(
    engine: &ExplainEngine,
    strategy: ExplainStrategy,
    q: &Point,
    an: ObjectId,
    alpha: f64,
    cp: CpConfig,
) -> Result<CrpOutcome, CrpError> {
    engine
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(strategy)
            .with_alpha(alpha)
            .with_cp(cp)])
        .into_single()
}

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

/// Signature of a CRP outcome for equality checks: (id, |Γ_min|,
/// counterfactual). Witness sets may legitimately differ between
/// implementations; sizes and flags may not.
fn cp_signature(out: &CrpOutcome) -> Vec<(ObjectId, usize, bool)> {
    out.causes
        .iter()
        .map(|c| (c.id, c.min_contingency.len(), c.counterfactual))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cp_agrees_with_oracle_2d(ds in uncertain_dataset(2), q in query(2), alpha in prop::sample::select(vec![0.25, 0.5, 0.75, 1.0])) {
        cp_vs_oracle(&ds, &q, alpha)?;
    }

    #[test]
    fn cp_agrees_with_oracle_3d(ds in uncertain_dataset(3), q in query(3), alpha in prop::sample::select(vec![0.4, 0.6])) {
        cp_vs_oracle(&ds, &q, alpha)?;
    }

    #[test]
    fn cr_agrees_with_oracle_2d(ds in certain_dataset(2), q in query(2)) {
        cr_vs_oracle(&ds, &q)?;
    }

    #[test]
    fn cr_agrees_with_oracle_3d(ds in certain_dataset(3), q in query(3)) {
        cr_vs_oracle(&ds, &q)?;
    }

    #[test]
    fn cp_ablations_agree_with_default(
        ds in uncertain_dataset(2),
        q in query(2),
        alpha in prop::sample::select(vec![0.3, 0.6, 0.9]),
    ) {
        let engine = session(&ds);
        let configs = [
            CpConfig::default(),
            CpConfig { use_lemma4: false, ..CpConfig::default() },
            CpConfig { use_lemma5: false, ..CpConfig::default() },
            CpConfig { use_lemma6: false, ..CpConfig::default() },
            CpConfig { use_probability_bound: false, ..CpConfig::default() },
            CpConfig::naive(),
        ];
        for an in ds.iter().map(|o| o.id()) {
            let base = explain(&engine, ExplainStrategy::Cp, &q, an, alpha, configs[0]);
            for cfg in &configs[1..] {
                let got = explain(&engine, ExplainStrategy::Cp, &q, an, alpha, *cfg);
                match (&base, &got) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(cp_signature(x), cp_signature(y)),
                    (Err(x), Err(y)) => prop_assert_eq!(x, y),
                    _ => prop_assert!(false, "result kind diverged for {:?}", cfg),
                }
            }
        }
    }
}

fn cp_vs_oracle(ds: &UncertainDataset, q: &Point, alpha: f64) -> Result<(), TestCaseError> {
    let engine = session(ds);
    let cp = CpConfig::default();
    for an in ds.iter().map(|o| o.id()) {
        let got = explain(&engine, ExplainStrategy::Cp, q, an, alpha, cp);
        let expected = oracle_cp(ds, q, an, alpha);
        match (got, expected) {
            (Ok(out), Ok(oracle)) => {
                let got_sig = cp_signature(&out);
                let want_sig: Vec<(ObjectId, usize, bool)> = oracle
                    .iter()
                    .map(|(id, c)| (*id, c.min_gamma.len(), c.min_gamma.is_empty()))
                    .collect();
                prop_assert_eq!(got_sig, want_sig, "an = {}", an);
                // The unindexed variant must match too.
                let un = explain(&engine, ExplainStrategy::CpUnindexed, q, an, alpha, cp)
                    .expect("same classification");
                prop_assert_eq!(cp_signature(&out), cp_signature(&un));
                // Witness sets must actually be valid minimal contingency
                // sets: removing Γ keeps an a non-answer, removing Γ ∪ {c}
                // flips it.
                for cause in &out.causes {
                    let gamma_pos: Vec<usize> = cause
                        .min_contingency
                        .iter()
                        .map(|id| ds.index_of(*id).unwrap())
                        .collect();
                    let an_pos = ds.index_of(an).unwrap();
                    let pr_g =
                        crp_skyline::pr_reverse_skyline(ds, an_pos, q, |j| gamma_pos.contains(&j));
                    prop_assert!(
                        pr_g < alpha - crp_geom::PROB_EPSILON,
                        "Γ must keep an a non-answer"
                    );
                    let c_pos = ds.index_of(cause.id).unwrap();
                    let pr_gc = crp_skyline::pr_reverse_skyline(ds, an_pos, q, |j| {
                        j == c_pos || gamma_pos.contains(&j)
                    });
                    prop_assert!(
                        pr_gc >= alpha - 1e-9,
                        "Γ ∪ {{cause}} must make an an answer"
                    );
                }
            }
            (Err(CrpError::NotANonAnswer { .. }), Err(CrpError::NotANonAnswer { .. })) => {}
            (g, e) => prop_assert!(false, "divergence for an = {}: {:?} vs {:?}", an, g, e),
        }
    }
    Ok(())
}

fn cr_vs_oracle(ds: &UncertainDataset, q: &Point) -> Result<(), TestCaseError> {
    let engine = session(ds);
    let cp = CpConfig::default();
    for an in ds.iter().map(|o| o.id()) {
        let got = explain(&engine, ExplainStrategy::Cr, q, an, 0.5, cp);
        let expected = oracle_cr(ds, q, an);
        match (got, expected) {
            (Ok(out), Ok(oracle)) => {
                let got_sig = cp_signature(&out);
                let want_sig: Vec<(ObjectId, usize, bool)> = oracle
                    .iter()
                    .map(|(id, c)| (*id, c.min_gamma.len(), c.min_gamma.is_empty()))
                    .collect();
                prop_assert_eq!(got_sig, want_sig, "an = {}", an);
                // Naive-II must agree as well (bounded: |Cc| can make it
                // exponential, but oracle already bounded the dataset).
                let naive = ExplainStrategy::NaiveII {
                    max_subsets: Some(5_000_000),
                };
                let nv = explain(&engine, naive, q, an, 0.5, cp).expect("same classification");
                prop_assert_eq!(cp_signature(&out), cp_signature(&nv));
            }
            (Err(CrpError::NotANonAnswer { .. }), Err(CrpError::NotANonAnswer { .. })) => {}
            (g, e) => prop_assert!(false, "divergence for an = {}: {:?} vs {:?}", an, g, e),
        }
    }
    Ok(())
}

/// Deterministic regression companion to the proptest runs: a fixed set
/// of seeds exercising Naive-I against the oracle (Naive-I is too slow to
/// run inside every proptest case).
#[test]
fn naive_i_agrees_with_oracle_fixed_seeds() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut compared = 0;
    for seed in [1u64, 7, 42, 99, 1234] {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = UncertainDataset::from_objects((0..6).map(|i| {
            let l = rng.random_range(1..=3);
            UncertainObject::with_equal_probs(
                ObjectId(i),
                (0..l)
                    .map(|_| {
                        Point::from([
                            rng.random_range(0.0..12.0f64).round(),
                            rng.random_range(0.0..12.0f64).round(),
                        ])
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        }))
        .unwrap();
        let engine = session(&ds);
        let q = Point::from([6.0, 6.0]);
        let naive = ExplainStrategy::NaiveI { max_subsets: None };
        for an in 0..6u32 {
            let nv = explain(&engine, naive, &q, ObjectId(an), 0.5, CpConfig::default());
            let oc = oracle_cp(&ds, &q, ObjectId(an), 0.5);
            match (nv, oc) {
                (Ok(out), Ok(oracle)) => {
                    let got = cp_signature(&out);
                    let want: Vec<(ObjectId, usize, bool)> = oracle
                        .iter()
                        .map(|(id, c)| (*id, c.min_gamma.len(), c.min_gamma.is_empty()))
                        .collect();
                    assert_eq!(got, want, "seed {seed} an {an}");
                    compared += 1;
                }
                (Err(CrpError::NotANonAnswer { .. }), Err(CrpError::NotANonAnswer { .. })) => {}
                (g, e) => panic!("divergence seed {seed} an {an}: {g:?} vs {e:?}"),
            }
        }
    }
    assert!(compared >= 5, "exercised {compared} non-answers");
}

/// Fixed-seed companion on generator data rather than proptest grids:
/// ten synthetic uncertain objects (d = 2) queried at their centroid,
/// every object explained at three thresholds including α = 1.
#[test]
fn cp_agrees_with_oracle_on_generated_fixed_seed() {
    let ds = crp_data::uncertain_dataset(&crp_data::UncertainConfig {
        cardinality: 10,
        dim: 2,
        seed: 0x1DB17,
        ..crp_data::UncertainConfig::default()
    });
    let mut centroid = [0.0; 2];
    for o in ds.iter() {
        let e = o.expectation();
        for (i, c) in centroid.iter_mut().enumerate() {
            *c += e[i];
        }
    }
    let q = Point::from(centroid.map(|c| c / ds.len() as f64));
    for alpha in [0.3, 0.7, 1.0] {
        cp_vs_oracle(&ds, &q, alpha).unwrap_or_else(|e| panic!("α = {alpha}: {e:?}"));
    }
}

/// A non-answer with 10–19 other objects: object 0 sits in the far
/// corner of the grid from `q`, so most of the others are its
/// candidates — searches at 10–19 candidates that the bound visibly
/// prunes.
fn crowded_dataset() -> impl Strategy<Value = UncertainDataset> {
    let point = |lo: f64| {
        prop::collection::vec(lo..12.0f64, 2)
            .prop_map(|v| Point::new(v.into_iter().map(|c| c.round()).collect::<Vec<_>>()))
    };
    (
        prop::collection::vec(point(9.0), 1..=2),
        prop::collection::vec(prop::collection::vec(point(0.0), 1..=3), 10..=19),
    )
        .prop_map(|(target, others)| {
            UncertainDataset::from_objects(std::iter::once(target).chain(others).enumerate().map(
                |(i, pts)| UncertainObject::with_equal_probs(ObjectId(i as u32), pts).unwrap(),
            ))
            .unwrap()
        })
}

/// The default configuration without the probability bound.
fn unpruned() -> CpConfig {
    CpConfig {
        use_probability_bound: false,
        ..CpConfig::default()
    }
}

/// The unpruned explain of `an`, or `None` when a 40,000-subset cap
/// stops it (an unpruned search at 20 candidates can run to millions) —
/// too deep to compare.
fn unpruned_reference(
    engine: &ExplainEngine,
    q: &Point,
    an: ObjectId,
    alpha: f64,
) -> Option<Result<CrpOutcome, CrpError>> {
    let out = engine
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(ExplainStrategy::Cp)
            .with_alpha(alpha)
            .with_cp(unpruned())
            .with_subset_budget(40_000)])
        .into_single();
    let capped = matches!(&out, Err(CrpError::Partial(p)) if p.reason == StopReason::SubsetBudget);
    (!capped).then_some(out)
}

/// Pruned and unpruned outcomes agree on everything but the search
/// counters: causes, responsibilities and every `Γ`, or the error.
fn same_outcome(
    pruned: &Result<CrpOutcome, CrpError>,
    unpruned: &Result<CrpOutcome, CrpError>,
    an: ObjectId,
) -> Result<(), TestCaseError> {
    match (pruned, unpruned) {
        (Ok(p), Ok(u)) => prop_assert_eq!(&p.causes, &u.causes, "an = {}", an),
        (Err(p), Err(u)) => prop_assert_eq!(p, u, "an = {}", an),
        _ => prop_assert!(false, "an = {}: {:?} vs {:?}", an, pruned, unpruned),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The probability bound is exact: with no budget, pruning changes
    /// only the search counters, which never grow.
    #[test]
    fn pruned_search_matches_unpruned(
        ds in crowded_dataset(),
        qx in 0.0..3.0f64,
        qy in 0.0..3.0f64,
        alpha in prop::sample::select(vec![0.05, 0.2, 0.4, 0.6, 0.9]),
    ) {
        let q = Point::from([qx.round(), qy.round()]);
        let engine = session(&ds);
        for an in ds.iter().map(|o| o.id()) {
            let Some(want) = unpruned_reference(&engine, &q, an, alpha) else {
                continue;
            };
            let got = explain(&engine, ExplainStrategy::Cp, &q, an, alpha, CpConfig::default());
            same_outcome(&got, &want, an)?;
            if let (Ok(p), Ok(u)) = (&got, &want) {
                prop_assert!(p.stats.subsets_examined <= u.stats.subsets_examined);
            }
        }
    }

    /// Under a plan-wide subset budget the pruned batch resolves at
    /// least as many non-answers as the unpruned one, and every outcome
    /// it does resolve is the unpruned outcome.
    #[test]
    fn pruned_partial_resolves_at_least_as_much(
        ds in crowded_dataset(),
        qx in 0.0..3.0f64,
        qy in 0.0..3.0f64,
        alpha in prop::sample::select(vec![0.2, 0.5]),
        budget in prop::sample::select(vec![0u64, 40, 400, 4_000, 20_000]),
    ) {
        let q = Point::from([qx.round(), qy.round()]);
        let engine = session(&ds);
        let ids: Vec<ObjectId> = ds.iter().map(|o| o.id()).collect();
        let run = |cp: CpConfig| {
            engine
                .run(&[ExplainRequest::batch(&q, &ids)
                    .with_alpha(alpha)
                    .with_cp(cp)
                    .with_subset_budget(budget)
                    .serial()])
                .results
        };
        let pruned = run(CpConfig::default());
        let plain = run(unpruned());
        let partial = |r: &Result<CrpOutcome, CrpError>| matches!(r, Err(CrpError::Partial(_)));
        let resolved = |rs: &[Result<CrpOutcome, CrpError>]| rs.iter().filter(|r| !partial(r)).count();
        prop_assert!(
            resolved(&pruned) >= resolved(&plain),
            "pruning lost progress: {} < {}",
            resolved(&pruned),
            resolved(&plain)
        );
        for ((&an, p), u) in ids.iter().zip(&pruned).zip(&plain) {
            if partial(p) {
                continue;
            }
            if !partial(u) {
                same_outcome(p, u, an)?;
            } else if let Some(want) = unpruned_reference(&engine, &q, an, alpha) {
                // Resolved by the pruned run only.
                same_outcome(p, &want, an)?;
            }
        }
    }
}

/// `f` moved by `ulps` units in the last place.
fn shift_ulps(f: f64, ulps: i64) -> f64 {
    f64::from_bits((f.to_bits() as i64 + ulps) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Near-α thresholds, pinned to the oracle under the default
    /// configuration: α is placed within a few ulps of an actual
    /// `Pr(an | P − Γ)`, or of it plus `PROB_EPSILON` (the answer test's
    /// decision edge), so verdicts — and the probability bound's level
    /// skipping — are decided right at the threshold.
    #[test]
    fn cp_agrees_with_oracle_near_alpha(
        ds in uncertain_dataset(2),
        q in query(2),
        pick in any::<prop::sample::Index>(),
        removed in any::<u32>(),
        on_edge in any::<bool>(),
        ulps in -3i64..=3,
    ) {
        let an_pos = pick.index(ds.len());
        let pr = crp_skyline::pr_reverse_skyline(&ds, an_pos, &q, |j| {
            j != an_pos && removed & (1 << j) != 0
        });
        let at = if on_edge { pr + crp_geom::PROB_EPSILON } else { pr };
        let alpha = shift_ulps(at, ulps);
        if alpha > 0.0 && alpha <= 1.0 {
            cp_vs_oracle(&ds, &q, alpha)?;
        }
    }
}
