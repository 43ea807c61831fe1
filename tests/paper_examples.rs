//! Reconstructions of the paper's running examples (Sections 1, 3.1, 4).
//!
//! The figures' exact coordinates are not published, so these fixtures
//! are rebuilt to exercise the *published outcomes*: hand-computed
//! reverse-skyline probabilities (Fig. 1c's style of analysis), the CP
//! walk-through of Fig. 2 (forced members, Lemma-6 reuse, responsibility
//! arithmetic), and the CR example of Fig. 5 (three causes, each with
//! responsibility 1/3).

use prsq_crp::prelude::*;
use prsq_crp::skyline::{pr_reverse_skyline, pr_reverse_skyline_worlds};

/// One explain of `an` over `ds` under `strategy` at `alpha`, in a
/// fresh session with the paper's default index.
fn explain(
    ds: &UncertainDataset,
    strategy: ExplainStrategy,
    q: &Point,
    an: ObjectId,
    alpha: f64,
) -> Result<CrpOutcome, CrpError> {
    ExplainEngine::new(ds.clone(), EngineConfig::default())
        .expect("valid engine config")
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(strategy)
            .with_alpha(alpha)])
        .into_single()
}

/// Objects on the main diagonal: distances to q = (0,0) are equal per
/// axis, so dominance behaves like the 1-D picture and every probability
/// below is hand-checkable.
fn diag(t: f64) -> Point {
    Point::from([t, t])
}

/// q = (0,0); an = A at 10; B ∈ {7, 25} (dominates w.p. 0.5); C at 5
/// (dominates w.p. 1); D ∈ {15, 30} (dominates w.p. 0.5).
fn fig1c_style_fixture() -> (UncertainDataset, Point) {
    let ds = UncertainDataset::from_objects(vec![
        UncertainObject::certain(ObjectId(0), diag(10.0)), // A = an
        UncertainObject::with_equal_probs(ObjectId(1), vec![diag(7.0), diag(25.0)]).unwrap(), // B
        UncertainObject::certain(ObjectId(2), diag(5.0)),  // C
        UncertainObject::with_equal_probs(ObjectId(3), vec![diag(15.0), diag(30.0)]).unwrap(), // D
    ])
    .unwrap();
    (ds, Point::from([0.0, 0.0]))
}

#[test]
fn hand_computed_probabilities_match_eq2_and_possible_worlds() {
    let (ds, q) = fig1c_style_fixture();
    // Pr(A) = (1 − 0.5)(1 − 1)(1 − 0.5) = 0.
    let pr_a = pr_reverse_skyline(&ds, 0, &q, |_| false);
    assert_eq!(pr_a, 0.0);
    // Removing C: Pr(A) = 0.5 · 0.5 = 0.25.
    assert!((pr_reverse_skyline(&ds, 0, &q, |j| j == 2) - 0.25).abs() < 1e-12);
    // Removing C and B: Pr(A) = 0.5.
    assert!((pr_reverse_skyline(&ds, 0, &q, |j| j == 2 || j == 1) - 0.5).abs() < 1e-12);
    // The closed form agrees with exhaustive possible-world enumeration.
    for target in 0..ds.len() {
        let closed = pr_reverse_skyline(&ds, target, &q, |_| false);
        let worlds = pr_reverse_skyline_worlds(&ds, target, &q, |_| false);
        assert!((closed - worlds).abs() < 1e-12, "target {target}");
    }
}

#[test]
fn cp_walkthrough_alpha_half() {
    let (ds, q) = fig1c_style_fixture();
    let out = explain(&ds, ExplainStrategy::Cp, &q, ObjectId(0), 0.5).unwrap();

    // Hand computation (see fixture docs): every candidate is a cause
    // with responsibility 1/2. B and D need Γ = {C}; C needs Γ = {B} or
    // {D}. C is the Lemma-4 forced member (dominates with probability 1).
    assert_eq!(out.causes.len(), 3);
    assert_eq!(out.stats.forced, 1);
    assert_eq!(out.stats.counterfactuals, 0);

    let b = out.cause(ObjectId(1)).expect("B is a cause");
    assert_eq!(b.min_contingency, vec![ObjectId(2)]);
    assert!((b.responsibility - 0.5).abs() < 1e-12);

    let c = out.cause(ObjectId(2)).expect("C is a cause");
    assert_eq!(c.min_contingency.len(), 1);
    assert!(
        c.min_contingency == vec![ObjectId(1)] || c.min_contingency == vec![ObjectId(3)],
        "C's minimal contingency set is either rival: {:?}",
        c.min_contingency
    );

    let d = out.cause(ObjectId(3)).expect("D is a cause");
    assert_eq!(d.min_contingency, vec![ObjectId(2)]);
}

#[test]
fn cp_walkthrough_alpha_tightens_contingency_sets() {
    // At α = 0.8 a single removal can no longer lift Pr(A) above the
    // threshold, so every cause needs both other candidates removed:
    // responsibilities drop from 1/2 to 1/3 — the Fig. 7 phenomenon
    // ("when α becomes larger, the cardinality of Γ increases").
    let (ds, q) = fig1c_style_fixture();
    let out = explain(&ds, ExplainStrategy::Cp, &q, ObjectId(0), 0.8).unwrap();
    assert_eq!(out.causes.len(), 3);
    for cause in &out.causes {
        assert_eq!(cause.min_contingency.len(), 2, "cause {}", cause.id);
        assert!((cause.responsibility - 1.0 / 3.0).abs() < 1e-12);
    }
    // Oracle cross-check of the whole outcome.
    let oracle = oracle_cp(&ds, &q, ObjectId(0), 0.8).unwrap();
    assert_eq!(oracle.len(), 3);
    for (id, c) in oracle {
        assert_eq!(c.min_gamma.len(), 2, "oracle cause {id}");
    }
}

#[test]
fn counterfactual_example_from_section_2() {
    // Section 2.2's example: deleting one object alone flips the result;
    // that object is a counterfactual cause with responsibility 1.
    let ds = UncertainDataset::from_objects(vec![
        UncertainObject::certain(ObjectId(0), diag(10.0)),
        UncertainObject::with_equal_probs(ObjectId(1), vec![diag(6.0), diag(40.0)]).unwrap(),
    ])
    .unwrap();
    let q = Point::from([0.0, 0.0]);
    // Pr(an) = 0.5 < 0.75; removing object 1 gives Pr = 1.
    let out = explain(&ds, ExplainStrategy::Cp, &q, ObjectId(0), 0.75).unwrap();
    assert_eq!(out.causes.len(), 1);
    let c = &out.causes[0];
    assert_eq!(c.id, ObjectId(1));
    assert!(c.counterfactual);
    assert_eq!(c.responsibility, 1.0);
    assert!(c.min_contingency.is_empty());
}

#[test]
fn fig5_style_cr_example() {
    // Fig. 5: P = {a … i}, a is the non-reverse-skyline object; b, d, e
    // dominate q w.r.t. a; the paper derives r(e, a) = 1/3 via
    // Γ_e = {b, d}, and Lemma 7 gives all three causes r = 1/3.
    let ds = UncertainDataset::from_objects(vec![
        UncertainObject::certain(ObjectId(0), Point::from([10.0, 10.0])).with_label("a"),
        UncertainObject::certain(ObjectId(1), Point::from([7.0, 7.0])).with_label("b"),
        UncertainObject::certain(ObjectId(2), Point::from([2.0, 2.0])).with_label("c"),
        UncertainObject::certain(ObjectId(3), Point::from([6.0, 8.0])).with_label("d"),
        UncertainObject::certain(ObjectId(4), Point::from([8.0, 6.0])).with_label("e"),
        UncertainObject::certain(ObjectId(5), Point::from([20.0, 3.0])).with_label("f"),
        UncertainObject::certain(ObjectId(6), Point::from([3.0, 20.0])).with_label("g"),
        UncertainObject::certain(ObjectId(7), Point::from([25.0, 25.0])).with_label("h"),
        UncertainObject::certain(ObjectId(8), Point::from([16.0, 14.0])).with_label("i"),
    ])
    .unwrap();
    let q = Point::from([5.0, 5.0]);
    let out = explain(&ds, ExplainStrategy::Cr, &q, ObjectId(0), 0.5).unwrap();
    let ids: Vec<u32> = out.causes.iter().map(|c| c.id.0).collect();
    assert_eq!(ids, vec![1, 3, 4], "causes are b, d, e");
    for cause in &out.causes {
        assert!((cause.responsibility - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cause.min_contingency.len(), 2);
    }
    // The paper's explicit derivation for e: (P − {b,d}) ⊭ RSQ(a) and
    // (P − {b,d} − {e}) ⊨ RSQ(a).
    let e = out.cause(ObjectId(4)).unwrap();
    let mut gamma = e.min_contingency.clone();
    gamma.sort_unstable();
    assert_eq!(gamma, vec![ObjectId(1), ObjectId(3)]);
    // Oracle agreement.
    let oracle = oracle_cr(&ds, &q, ObjectId(0)).unwrap();
    let oracle_ids: Vec<u32> = oracle.iter().map(|(id, _)| id.0).collect();
    assert_eq!(oracle_ids, vec![1, 3, 4]);
}

#[test]
fn lemma3_objects_outside_candidate_set_never_in_gamma() {
    let (ds, q) = fig1c_style_fixture();
    // Add far-away objects that are not candidates.
    let mut objs: Vec<UncertainObject> = ds.iter().cloned().collect();
    objs.push(UncertainObject::certain(ObjectId(9), diag(500.0)));
    objs.push(UncertainObject::certain(ObjectId(10), diag(-300.0)));
    let ds = UncertainDataset::from_objects(objs).unwrap();
    for alpha in [0.3, 0.5, 0.8, 1.0] {
        let out = explain(&ds, ExplainStrategy::Cp, &q, ObjectId(0), alpha).unwrap();
        for cause in &out.causes {
            assert_ne!(cause.id, ObjectId(9));
            assert_ne!(cause.id, ObjectId(10));
            assert!(!cause.min_contingency.contains(&ObjectId(9)));
            assert!(!cause.min_contingency.contains(&ObjectId(10)));
        }
    }
}

#[test]
fn alpha_one_gives_equal_responsibilities() {
    // Algorithm 1 lines 9–11: at α = 1 every candidate is a cause with
    // responsibility 1/|Cc|.
    let (ds, q) = fig1c_style_fixture();
    let out = explain(&ds, ExplainStrategy::Cp, &q, ObjectId(0), 1.0).unwrap();
    assert_eq!(out.causes.len(), 3);
    for cause in &out.causes {
        assert!((cause.responsibility - 1.0 / 3.0).abs() < 1e-12);
    }
}
