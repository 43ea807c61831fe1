//! Workload inputs, all pure functions of the run seed: the datasets,
//! the offline (q, an) pairs, the serving query grid, and the update
//! stream.

use crate::util::{sub_seed, Rng};
use crp_core::{collect_candidates, DominanceMatrix, EngineConfig, ExplainEngine, RunStats};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_geom::{Point, PROB_EPSILON};
use crp_rtree::RTree;
use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject, Update};
use std::collections::HashSet;

/// The paper's default probability threshold.
pub const ALPHA: f64 = 0.6;
/// The paper's tractability cap on free candidates.
pub const MAX_FREE: usize = 14;
/// Candidate-count ceiling for a selectable non-answer (bounds the
/// dominance matrix; free candidates are capped separately).
const MAX_CANDIDATES: usize = 40;
const DOMAIN: f64 = 10_000.0;

/// Every engine in the benchmark, server-side and reference, runs the
/// paper's defaults at α = 0.6.
pub fn engine_config() -> EngineConfig {
    EngineConfig::with_alpha(ALPHA)
}

/// lUrU, d = 3, radii in [0, 5], 2–4 samples per object.
pub fn dataset(cardinality: usize, seed: u64) -> UncertainDataset {
    uncertain_dataset(&UncertainConfig {
        cardinality,
        dim: 3,
        seed: sub_seed(seed, 1),
        ..UncertainConfig::default()
    })
}

/// Forces the engine's lazy index build and packed freeze with a probe
/// far from any benchmarked query.
pub fn warm(engine: &ExplainEngine) {
    let probe = Point::new(vec![1.0; 3]);
    let _ = crp_core::ExplainSession::candidate_ids(engine, &probe, ObjectId(0));
}

/// Stage-1 size and free-candidate count of `(q, an)` at α, or `None`
/// when `an` is an answer or the pair is past the caps.
fn classify(
    ds: &UncertainDataset,
    tree: &RTree<ObjectId>,
    q: &Point,
    pos: usize,
) -> Option<(usize, usize)> {
    let mut stats = RunStats::default();
    let candidates = collect_candidates(ds, tree, q, pos, &mut stats);
    if candidates.is_empty() || candidates.len() > MAX_CANDIDATES {
        return None;
    }
    let matrix = DominanceMatrix::build(ds, pos, q, &candidates);
    if matrix.pr_full() >= ALPHA - PROB_EPSILON {
        return None;
    }
    let n = matrix.candidates();
    let mut removal = vec![false; n];
    let mut bound = 0;
    for c in 0..n {
        if matrix.forces_zero(c) {
            bound += 1;
            continue;
        }
        removal.fill(false);
        removal[c] = true;
        if matrix.pr_with_removed(&removal) >= ALPHA - PROB_EPSILON {
            bound += 1;
        }
    }
    let free = n - bound;
    (free <= MAX_FREE).then_some((n, free))
}

/// One offline explain input.
#[derive(Clone)]
pub struct Pair {
    pub q: Point,
    pub an: ObjectId,
    pub candidates: usize,
    pub free: usize,
}

/// Draws `count` fresh non-answer pairs stratified evenly over the free
/// candidate count 0..=14, so the mix spans cheap and FMCS-heavy
/// searches in fixed proportions. Each pair places `q` near `an` along
/// one axis and far along the others: the dominance window is then
/// thin, and its boundary objects stay free rather than forced.
///
/// Drawing is input selection, not measured work; it runs on two
/// threads with their own seeded streams, and their outputs interleave.
pub fn draw_pairs(
    ds: &UncertainDataset,
    tree: &RTree<ObjectId>,
    seed: u64,
    count: usize,
) -> Vec<Pair> {
    let halves: Vec<Vec<Pair>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let seed = sub_seed(seed, t);
                scope.spawn(move || PairSource::new(ds, tree, seed).take(count.div_ceil(2)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pair drawing thread"))
            .collect()
    });
    let mut out = Vec::with_capacity(count);
    for i in 0..count.div_ceil(2) {
        for half in &halves {
            out.extend(half.get(i).cloned());
        }
    }
    out.truncate(count);
    out
}

struct PairSource<'a> {
    ds: &'a UncertainDataset,
    tree: &'a RTree<ObjectId>,
    rng: Rng,
    used: HashSet<(ObjectId, [u64; 3])>,
    next_bucket: usize,
}

impl<'a> PairSource<'a> {
    fn new(ds: &'a UncertainDataset, tree: &'a RTree<ObjectId>, seed: u64) -> Self {
        Self {
            ds,
            tree,
            rng: Rng::new(sub_seed(seed, 2)),
            used: HashSet::new(),
            next_bucket: 0,
        }
    }

    fn draw(&mut self) -> Option<Pair> {
        let pos = self.rng.below(self.ds.len());
        let object = self.ds.object_at(pos);
        let center = object.expectation();
        let thin = self.rng.below(3);
        let wide = self.rng.range(1500.0, 3500.0);
        let coords: Vec<f64> = (0..3)
            .map(|d| {
                let sign = if self.rng.unit() < 0.5 { -1.0 } else { 1.0 };
                let offset = if d == thin {
                    self.rng.range(0.0, 2.5)
                } else {
                    wide * self.rng.range(0.5, 1.5)
                };
                (center.coords()[d] + sign * offset).clamp(0.0, DOMAIN)
            })
            .collect();
        let q = Point::new(coords);
        let (candidates, free) = classify(self.ds, self.tree, &q, pos)?;
        let key = (object.id(), point_key(&q));
        if !self.used.insert(key) {
            return None;
        }
        Some(Pair {
            q,
            an: object.id(),
            candidates,
            free,
        })
    }

    /// The next `count` pairs, cycling through the free-count buckets.
    fn take(&mut self, count: usize) -> Vec<Pair> {
        let mut pending: Vec<Vec<Pair>> = vec![Vec::new(); MAX_FREE + 1];
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let bucket = self.next_bucket;
            if let Some(pair) = pending[bucket].pop() {
                out.push(pair);
                self.next_bucket = (bucket + 1) % (MAX_FREE + 1);
                continue;
            }
            if let Some(pair) = self.draw() {
                let b = pair.free;
                pending[b].push(pair);
            }
        }
        out
    }
}

pub fn point_key(q: &Point) -> [u64; 3] {
    let c = q.coords();
    [c[0].to_bits(), c[1].to_bits(), c[2].to_bits()]
}

/// The serving fixture's query geometry (the `serve_sweep` nearby
/// grid): a base query, a handful of tractable non-answers in its upper
/// quadrant, and a segment of query points stepping from the base
/// toward them. Any two steps' filter windows nest, so a planner window
/// mixing them derives all but its outermost stage-1 unit.
pub struct Grid {
    base: Point,
    target: Vec<f64>,
    pub ans: Vec<ObjectId>,
    /// The box the queries look at: base query to the non-answers'
    /// far corner, where updates change outcomes.
    pub region: (Vec<f64>, Vec<f64>),
}

const GRID_STEPS: f64 = 1_000_000.0;
/// Consecutive grid requests explaining the same non-answer.
const SAME_AN_RUN: usize = 16;

impl Grid {
    pub fn select(ds: &UncertainDataset, tree: &RTree<ObjectId>, seed: u64) -> Grid {
        let dim = 3;
        let mut centroid = vec![0.0; dim];
        for o in ds.iter() {
            for (c, x) in centroid.iter_mut().zip(o.expectation().coords()) {
                *c += x / ds.len() as f64;
            }
        }
        let base = Point::new(centroid.iter().map(|c| 0.55 * c).collect::<Vec<f64>>());
        // Nearest-first with a seeded shuffle inside 250-unit bands.
        let mut rng = Rng::new(sub_seed(seed, 3));
        let mut order: Vec<(u64, u64, usize)> = (0..ds.len())
            .map(|pos| {
                let band = (ds.object_at(pos).expectation().distance(&base) / 250.0) as u64;
                (band, rng.next_u64(), pos)
            })
            .collect();
        order.sort_unstable();
        let mut ans = Vec::new();
        for &(_, _, pos) in &order {
            if ans.len() == 8 {
                break;
            }
            let obj = ds.object_at(pos);
            let upper = obj.samples().iter().all(|s| {
                s.point()
                    .coords()
                    .iter()
                    .zip(base.coords())
                    .all(|(c, b)| c > b)
            });
            if !upper {
                continue;
            }
            if matches!(classify(ds, tree, &base, pos), Some((n, _)) if n <= 18) {
                ans.push(obj.id());
            }
        }
        assert!(
            ans.len() >= 4,
            "only {} tractable upper-quadrant non-answers",
            ans.len()
        );
        let mut target = vec![f64::INFINITY; dim];
        let mut far = base.coords().to_vec();
        for &an in &ans {
            for s in ds.get(an).expect("selected ids are resident").samples() {
                for d in 0..dim {
                    target[d] = target[d].min(s.point().coords()[d]);
                    far[d] = far[d].max(s.point().coords()[d]);
                }
            }
        }
        for (t, b) in target.iter_mut().zip(base.coords()) {
            *t = t.max(*b);
        }
        let region = (base.coords().to_vec(), far);
        Grid {
            base,
            target,
            ans,
            region,
        }
    }

    /// The `i`-th request's input: a fresh grid step and a non-answer.
    /// Runs of [`SAME_AN_RUN`] consecutive requests share the
    /// non-answer, so requests gathered into one planner window can
    /// share stage-1 work.
    pub fn request(&self, i: usize) -> (Point, ObjectId) {
        let t = 0.3 * (i as f64 + 1.0) / GRID_STEPS;
        let q = Point::new(
            self.base
                .coords()
                .iter()
                .zip(&self.target)
                .map(|(c, m)| c + t * (m - c))
                .collect::<Vec<f64>>(),
        );
        (q, self.ans[(i / SAME_AN_RUN) % self.ans.len()])
    }
}

/// Generates a valid single-update stream against a live-set model:
/// 80 % `Replace` and 10 % `Delete` of objects inside the queried
/// region, 10 % `Insert` of new objects there. The explained
/// non-answers themselves are never touched.
pub struct UpdateSource {
    rng: Rng,
    live: Vec<ObjectId>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    next_id: u32,
}

impl UpdateSource {
    /// Updates inside the box `[lo, hi]`, never touching `keep`.
    pub fn new(
        ds: &UncertainDataset,
        (lo, hi): (Vec<f64>, Vec<f64>),
        keep: &[ObjectId],
        seed: u64,
    ) -> Self {
        let inside = |p: &Point| {
            p.coords()
                .iter()
                .zip(lo.iter().zip(&hi))
                .all(|(c, (l, h))| c >= l && c <= h)
        };
        let live: Vec<ObjectId> = ds
            .iter()
            .filter(|o| !keep.contains(&o.id()) && inside(&o.expectation()))
            .map(|o| o.id())
            .collect();
        let next_id = ds.iter().map(|o| o.id().0).max().map_or(0, |m| m + 1);
        Self {
            rng: Rng::new(sub_seed(seed, 4)),
            live,
            lo,
            hi,
            next_id,
        }
    }

    /// Inserts anywhere in the domain.
    pub fn domain_inserts(ds: &UncertainDataset, seed: u64) -> Self {
        Self::new(ds, (vec![0.0; 3], vec![DOMAIN; 3]), &[], seed)
    }

    pub fn next_update(&mut self) -> Update<UncertainObject> {
        let roll = self.rng.unit();
        if self.live.len() < 8 || roll < 0.1 {
            self.next_insert()
        } else if roll < 0.2 {
            let i = self.rng.below(self.live.len());
            Update::Delete(self.live.swap_remove(i))
        } else {
            let id = self.live[self.rng.below(self.live.len())];
            Update::Replace(random_object(&mut self.rng, id, &self.lo, &self.hi))
        }
    }

    /// A new object inside the box.
    pub fn next_insert(&mut self) -> Update<UncertainObject> {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        self.live.push(id);
        Update::Insert(random_object(&mut self.rng, id, &self.lo, &self.hi))
    }
}

/// An object with 2–4 equal-probability samples in a radius-≤5 region
/// centred uniformly in the box `[lo, hi]`.
fn random_object(rng: &mut Rng, id: ObjectId, lo: &[f64], hi: &[f64]) -> UncertainObject {
    let r = rng.range(0.0, 5.0) / 3f64.sqrt();
    let center: Vec<f64> = (0..3).map(|d| rng.range(lo[d], hi[d])).collect();
    let samples = 2 + rng.below(3);
    let points: Vec<Point> = (0..samples)
        .map(|_| {
            Point::new(
                center
                    .iter()
                    .map(|c| (c + rng.range(-r, r)).clamp(0.0, DOMAIN))
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    UncertainObject::with_equal_probs(id, points).expect("valid generated object")
}
