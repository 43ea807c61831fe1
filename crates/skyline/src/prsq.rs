//! Probabilistic reverse skyline queries (Definition 4, Eq. 2–3).

use crp_geom::{dominance_rect, dominates, HyperRect, Point, PROB_EPSILON};
use crp_rtree::{PackedRTree, QueryStats};
use crp_uncertain::{possible_worlds, ObjectId, UncertainDataset, UncertainObject};

/// Eq. 3: the probability that `obj` dynamically dominates `q` w.r.t. the
/// (fixed) point `center` — the total appearance probability of `obj`'s
/// samples that dominate `q` w.r.t. `center`.
pub fn dominance_probability(obj: &UncertainObject, center: &Point, q: &Point) -> f64 {
    obj.samples()
        .iter()
        .filter(|s| dominates(s.point(), center, q))
        .map(|s| s.prob())
        .sum()
}

/// Eq. 2: the probability `Pr(u)` that the object at `target` is a
/// reverse skyline object of `q`, over the dataset minus the objects for
/// which `excluded` returns true.
///
/// `excluded` receives dataset *positions* (not ids); `target` itself is
/// always excluded from the dominator product.
pub fn pr_reverse_skyline(
    ds: &UncertainDataset,
    target: usize,
    q: &Point,
    excluded: impl Fn(usize) -> bool,
) -> f64 {
    let u = ds.object_at(target);
    let mut total = 0.0;
    for s in u.samples() {
        let mut survive = s.prob();
        for (j, o) in ds.iter().enumerate() {
            if j == target || excluded(j) {
                continue;
            }
            survive *= 1.0 - dominance_probability(o, s.point(), q);
            if survive == 0.0 {
                break;
            }
        }
        total += survive;
    }
    total
}

/// Possible-world reference implementation of `Pr(u)`: enumerates every
/// world of the (non-excluded) dataset and accumulates the probability of
/// worlds where `target`'s instance has no dominator. Exponential — test
/// oracle only.
pub fn pr_reverse_skyline_worlds(
    ds: &UncertainDataset,
    target: usize,
    q: &Point,
    excluded: impl Fn(usize) -> bool,
) -> f64 {
    let objs: Vec<UncertainObject> = ds
        .iter()
        .enumerate()
        .filter(|(j, _)| *j == target || !excluded(*j))
        .map(|(_, o)| o.clone())
        .collect();
    let target_pos = objs
        .iter()
        .position(|o| o.id() == ds.object_at(target).id())
        .expect("target not excluded");
    let mut total = 0.0;
    for world in possible_worlds(&objs) {
        let u_sample = world.sample_of(&objs, target_pos);
        let dominated = objs.iter().enumerate().any(|(i, _)| {
            i != target_pos && dominates(world.sample_of(&objs, i).point(), u_sample.point(), q)
        });
        if !dominated {
            total += world.prob;
        }
    }
    total
}

/// `Pr(u)` computed with R-tree pre-filtering: only objects whose MBR
/// intersects one of the dominance windows of `u`'s samples can have a
/// positive dominance probability (Lemma 2), so the product runs over the
/// filtered set only. `tree` is the packed image of
/// [`crate::build_object_rtree`] over `ds`. Node accesses accumulate
/// into `stats`.
pub fn pr_reverse_skyline_indexed(
    ds: &UncertainDataset,
    tree: &PackedRTree<ObjectId>,
    target: usize,
    q: &Point,
    stats: &mut QueryStats,
) -> f64 {
    let u = ds.object_at(target);
    let windows: Vec<HyperRect> = u
        .samples()
        .iter()
        .map(|s| dominance_rect(s.point(), q))
        .collect();
    let mut candidates: Vec<usize> = Vec::new();
    tree.visit_windows(&windows, stats, &mut |&id| {
        if id != u.id() {
            if let Some(pos) = ds.index_of(id) {
                candidates.push(pos);
            }
        }
        true
    });
    candidates.sort_unstable();
    candidates.dedup();

    let mut total = 0.0;
    for s in u.samples() {
        let mut survive = s.prob();
        for &j in &candidates {
            survive *= 1.0 - dominance_probability(ds.object_at(j), s.point(), q);
            if survive == 0.0 {
                break;
            }
        }
        total += survive;
    }
    total
}

/// Membership of one object in the probabilistic reverse skyline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PrsqMembership {
    /// `Pr(u) ≥ α`: the object is an answer.
    Answer {
        /// The reverse-skyline probability.
        prob: f64,
    },
    /// `Pr(u) < α`: the object is a non-answer (a potential CRP subject).
    NonAnswer {
        /// The reverse-skyline probability.
        prob: f64,
    },
}

impl PrsqMembership {
    /// Classifies a probability against the threshold (with the shared
    /// probability tolerance).
    pub fn from_prob(prob: f64, alpha: f64) -> Self {
        if prob >= alpha - PROB_EPSILON {
            PrsqMembership::Answer { prob }
        } else {
            PrsqMembership::NonAnswer { prob }
        }
    }

    /// The reverse-skyline probability.
    pub fn prob(&self) -> f64 {
        match self {
            PrsqMembership::Answer { prob } | PrsqMembership::NonAnswer { prob } => *prob,
        }
    }

    /// True for answers.
    pub fn is_answer(&self) -> bool {
        matches!(self, PrsqMembership::Answer { .. })
    }
}

/// Definition 4: all objects with `Pr(u) ≥ α`, with their probabilities.
///
/// # Panics
///
/// Panics unless `0 < α ≤ 1`.
pub fn probabilistic_reverse_skyline(
    ds: &UncertainDataset,
    q: &Point,
    alpha: f64,
) -> Vec<(ObjectId, f64)> {
    assert!(alpha > 0.0 && alpha <= 1.0, "α must be in (0, 1]");
    (0..ds.len())
        .filter_map(|i| {
            let prob = pr_reverse_skyline(ds, i, q, |_| false);
            match PrsqMembership::from_prob(prob, alpha) {
                PrsqMembership::Answer { prob } => Some((ds.object_at(i).id(), prob)),
                PrsqMembership::NonAnswer { .. } => None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_object_rtree;
    use crp_rtree::RTreeParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn obj(id: u32, pts: Vec<[f64; 2]>) -> UncertainObject {
        UncertainObject::with_equal_probs(ObjectId(id), pts.into_iter().map(Point::from)).unwrap()
    }

    fn random_dataset(rng: &mut StdRng, n: usize, max_samples: usize) -> UncertainDataset {
        UncertainDataset::from_objects((0..n).map(|i| {
            let l = rng.random_range(1..=max_samples);
            let pts: Vec<Point> = (0..l)
                .map(|_| {
                    Point::from([
                        rng.random_range(0.0..20.0f64).round(),
                        rng.random_range(0.0..20.0f64).round(),
                    ])
                })
                .collect();
            UncertainObject::with_equal_probs(ObjectId(i as u32), pts).unwrap()
        }))
        .unwrap()
    }

    #[test]
    fn dominance_probability_counts_dominating_samples() {
        let center = Point::from([10.0, 10.0]);
        let q = Point::from([4.0, 4.0]); // distances (6, 6)
        let o = obj(0, vec![[9.0, 9.0], [2.0, 2.0]]); // (1,1) dominates; (8,8) ties... no: |2-10|=8 > 6 -> doesn't
        assert!((dominance_probability(&o, &center, &q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_object_probability_is_one() {
        let ds =
            UncertainDataset::from_objects(vec![obj(0, vec![[1.0, 1.0], [2.0, 2.0]])]).unwrap();
        let q = Point::from([5.0, 5.0]);
        assert!((pr_reverse_skyline(&ds, 0, &q, |_| false) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn certain_blocker_zeroes_probability() {
        // u at (10,10); blocker at (7,7) dominates q=(5,5) w.r.t. u with
        // probability 1 -> Pr(u) = 0.
        let ds = UncertainDataset::from_objects(vec![
            obj(0, vec![[10.0, 10.0]]),
            obj(1, vec![[7.0, 7.0]]),
        ])
        .unwrap();
        let q = Point::from([5.0, 5.0]);
        assert_eq!(pr_reverse_skyline(&ds, 0, &q, |_| false), 0.0);
        // Excluding the blocker restores Pr(u) = 1.
        assert_eq!(pr_reverse_skyline(&ds, 0, &q, |j| j == 1), 1.0);
    }

    #[test]
    fn half_probability_blocker() {
        // Blocker dominates with one of two samples -> Pr(u) = 0.5.
        let ds = UncertainDataset::from_objects(vec![
            obj(0, vec![[10.0, 10.0]]),
            obj(1, vec![[7.0, 7.0], [20.0, 20.0]]),
        ])
        .unwrap();
        let q = Point::from([5.0, 5.0]);
        assert!((pr_reverse_skyline(&ds, 0, &q, |_| false) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn formula_matches_possible_worlds_random() {
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..30 {
            let ds = random_dataset(&mut rng, 5, 3);
            let q = Point::from([
                rng.random_range(0.0..20.0f64).round(),
                rng.random_range(0.0..20.0f64).round(),
            ]);
            for target in 0..ds.len() {
                let closed = pr_reverse_skyline(&ds, target, &q, |_| false);
                let worlds = pr_reverse_skyline_worlds(&ds, target, &q, |_| false);
                assert!(
                    (closed - worlds).abs() < 1e-9,
                    "round {round} target {target}: {closed} vs {worlds}"
                );
            }
        }
    }

    #[test]
    fn formula_matches_possible_worlds_with_exclusions() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..15 {
            let ds = random_dataset(&mut rng, 5, 2);
            let q = Point::from([10.0, 10.0]);
            let excluded_pos = rng.random_range(0..ds.len());
            let target = (excluded_pos + 1) % ds.len();
            let closed = pr_reverse_skyline(&ds, target, &q, |j| j == excluded_pos);
            let worlds = pr_reverse_skyline_worlds(&ds, target, &q, |j| j == excluded_pos);
            assert!((closed - worlds).abs() < 1e-9, "{closed} vs {worlds}");
        }
    }

    #[test]
    fn indexed_matches_unindexed() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..10 {
            let ds = random_dataset(&mut rng, 40, 3);
            let tree = build_object_rtree(&ds, RTreeParams::with_fanout(6));
            let q = Point::from([
                rng.random_range(0.0..20.0f64).round(),
                rng.random_range(0.0..20.0f64).round(),
            ]);
            for target in 0..10 {
                let mut stats = QueryStats::default();
                let a = pr_reverse_skyline(&ds, target, &q, |_| false);
                let b = pr_reverse_skyline_indexed(&ds, tree.frozen(), target, &q, &mut stats);
                assert!((a - b).abs() < 1e-9, "target {target}: {a} vs {b}");
                assert!(stats.node_accesses > 0);
            }
        }
    }

    #[test]
    fn prsq_thresholding() {
        let ds = UncertainDataset::from_objects(vec![
            obj(0, vec![[10.0, 10.0]]),
            obj(1, vec![[7.0, 7.0], [20.0, 20.0]]), // halves Pr of object 0
            obj(2, vec![[30.0, 30.0]]),
        ])
        .unwrap();
        let q = Point::from([5.0, 5.0]);
        // Pr(0) = 0.5, Pr(1) = 1 (nobody dominates q w.r.t. its samples
        // with certainty... verify via the query itself).
        let at_half = probabilistic_reverse_skyline(&ds, &q, 0.5);
        assert!(at_half.iter().any(|(id, _)| *id == ObjectId(0)));
        let strict = probabilistic_reverse_skyline(&ds, &q, 0.75);
        assert!(!strict.iter().any(|(id, _)| *id == ObjectId(0)));
    }

    #[test]
    fn membership_tolerance_near_alpha() {
        let m = PrsqMembership::from_prob(0.5 - 1e-12, 0.5);
        assert!(m.is_answer(), "within tolerance of α counts as answer");
        let m2 = PrsqMembership::from_prob(0.4999, 0.5);
        assert!(!m2.is_answer());
        assert!((m2.prob() - 0.4999).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "α must be in (0, 1]")]
    fn invalid_alpha_rejected() {
        let ds = UncertainDataset::from_objects(vec![obj(0, vec![[0.0, 0.0]])]).unwrap();
        let _ = probabilistic_reverse_skyline(&ds, &Point::from([1.0, 1.0]), 0.0);
    }
}
