//! CP under the continuous pdf model (Section 3.2).
//!
//! Three things change relative to the discrete algorithm:
//!
//! 1. **Filtering** — the `RecList` cannot enumerate samples. Instead,
//!    for every sub-quadrant of `q` that the non-answer's region
//!    overlaps, one window is formed from the *farthest point* of the
//!    clipped region (its dominance rectangle w.r.t. `q` contains the
//!    dominance rectangle of every point of the region in that quadrant,
//!    so the union of windows is a sound filter).
//! 2. **Forced members** — dominance probabilities against candidates
//!    are exact closed-form box integrals; a candidate whose integral is
//!    1 for every integration cell of `an` is forced (the pdf analogue of
//!    Lemma 4's nearest-corner rectangle).
//! 3. **`Pr(an)`** — the sum over samples becomes an integral over the
//!    region, evaluated by midpoint-rule discretisation of `an` (the
//!    candidates are *not* discretised; their dominance probabilities per
//!    cell are exact).
//!
//! The pipeline driver lives in [`crate::engine`]
//! (`pipeline::run_pdf`) and runs in a session built with
//! [`crate::ExplainEngine::for_pdf`]; this module keeps the
//! pdf-specific filter geometry and the index builder.

use crp_geom::{dominance_rect, quadrant_corners, HyperRect, Point};
use crp_rtree::{RTree, RTreeParams};
use crp_uncertain::{ObjectId, PdfDataset};

/// Builds an R-tree over the uncertain regions of a pdf dataset.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn build_pdf_rtree(ds: &PdfDataset, params: RTreeParams) -> RTree<ObjectId> {
    let dim = ds.dim().expect("cannot index an empty dataset");
    let items: Vec<(HyperRect, ObjectId)> =
        ds.iter().map(|o| (o.region().clone(), o.id())).collect();
    RTree::bulk_load(dim, params, items)
}

/// The pdf-model filter windows of a non-answer region: one dominance
/// rectangle per overlapped sub-quadrant, centred at the farthest point
/// of the clipped region from `q` — pipeline stage 1 of the pdf
/// variant.
pub(crate) fn pdf_windows(q: &Point, region: &HyperRect) -> Vec<HyperRect> {
    quadrant_corners(q, region)
        .into_iter()
        .map(|(_, sub)| dominance_rect(&sub.farthest_corner(q), q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{cp, pdf_session, session};
    use crate::CrpError;
    use crp_uncertain::PdfObject;

    fn rect(lo: [f64; 2], hi: [f64; 2]) -> HyperRect {
        HyperRect::new(Point::from(lo), Point::from(hi))
    }

    /// an's region sits well inside one quadrant; candidates are boxes
    /// with known dominance integrals.
    fn fixture() -> PdfDataset {
        PdfDataset::from_objects(vec![
            // an: region around (10, 10).
            PdfObject::uniform(ObjectId(0), rect([9.5, 9.5], [10.5, 10.5])),
            // full dominator: tight box at (7, 7) — between q and an.
            PdfObject::uniform(ObjectId(1), rect([6.9, 6.9], [7.1, 7.1])),
            // half dominator: box straddling the window boundary.
            PdfObject::uniform(ObjectId(2), rect([7.0, 2.0], [8.0, 6.0])),
            // non-dominator for an: far away (but itself blocked by all).
            PdfObject::uniform(ObjectId(3), rect([40.0, 40.0], [41.0, 41.0])),
            // a genuine answer: close to q, nothing between them.
            PdfObject::uniform(ObjectId(4), rect([1.5, 1.5], [2.5, 2.5])),
        ])
        .unwrap()
    }

    #[test]
    fn windows_cover_single_quadrant_region() {
        let q = Point::from([5.0, 5.0]);
        let region = rect([9.0, 9.0], [11.0, 11.0]);
        let w = pdf_windows(&q, &region);
        assert_eq!(w.len(), 1, "single quadrant -> single window");
        // Window = dominance rect of the farthest corner (11, 11):
        // centred there with extent |q − corner| = 6, i.e. [5, 17]².
        assert_eq!(w[0].lo(), &Point::from([5.0, 5.0]));
        assert_eq!(w[0].hi(), &Point::from([17.0, 17.0]));
        // It contains the dominance rect of every point of the region.
        for x in [[9.0, 9.0], [11.0, 11.0], [9.3, 10.7]] {
            let sub = dominance_rect(&Point::from(x), &q);
            assert!(w[0].contains_rect(&sub), "x = {x:?}");
        }
    }

    #[test]
    fn windows_split_across_quadrants() {
        let q = Point::from([5.0, 5.0]);
        let region = rect([4.0, 6.0], [6.0, 7.0]); // straddles x-split
        let w = pdf_windows(&q, &region);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn cp_pdf_finds_the_blocker() {
        let engine = pdf_session(fixture(), 3);
        let q = Point::from([5.0, 5.0]);
        let out = cp(&engine, &q, ObjectId(0), 0.5).unwrap();
        // Object 1 dominates every cell with probability 1 -> removing it
        // restores Pr(an) to ~1 (object 2 does not dominate: its box lies
        // below the window in y for... check: it has partial mass).
        let c1 = out.cause(ObjectId(1)).expect("object 1 causes the absence");
        assert!(c1.responsibility > 0.0);
        assert!(out.cause(ObjectId(3)).is_none());
    }

    #[test]
    fn cp_pdf_matches_discretised_cp() {
        // The pdf algorithm and the discrete algorithm on the discretised
        // dataset must agree on causes and responsibilities when the same
        // resolution drives both.
        let ds = fixture();
        let q = Point::from([5.0, 5.0]);
        let resolution = 4;
        let disc = session(ds.discretize(resolution));
        let engine = pdf_session(ds, resolution);

        for alpha in [0.3, 0.5, 0.8] {
            let a = cp(&engine, &q, ObjectId(0), alpha);
            let b = cp(&disc, &q, ObjectId(0), alpha);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    let xs: Vec<(ObjectId, usize)> = x
                        .causes
                        .iter()
                        .map(|c| (c.id, c.min_contingency.len()))
                        .collect();
                    let ys: Vec<(ObjectId, usize)> = y
                        .causes
                        .iter()
                        .map(|c| (c.id, c.min_contingency.len()))
                        .collect();
                    // The discrete run discretises the *candidates* too,
                    // so dominance probabilities differ slightly; causes
                    // and contingency sizes must still match here because
                    // the fixture's probabilities are far from α.
                    assert_eq!(xs, ys, "alpha {alpha}");
                }
                (Err(x), Err(y)) => assert_eq!(
                    std::mem::discriminant(&x),
                    std::mem::discriminant(&y),
                    "alpha {alpha}"
                ),
                (x, y) => panic!("divergence at alpha {alpha}: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn cp_pdf_rejects_answers_and_bad_input() {
        let engine = pdf_session(fixture(), 3);
        let q = Point::from([5.0, 5.0]);
        assert!(matches!(
            cp(&engine, &q, ObjectId(4), 0.5),
            Err(CrpError::NotANonAnswer { .. })
        ));
        assert!(matches!(
            cp(&engine, &q, ObjectId(9), 0.5),
            Err(CrpError::UnknownObject(_))
        ));
        assert!(matches!(
            cp(&engine, &q, ObjectId(0), 0.0),
            Err(CrpError::InvalidAlpha(_))
        ));
        let empty = pdf_session(PdfDataset::new(), 3);
        assert!(matches!(
            cp(&empty, &q, ObjectId(0), 0.5),
            Err(CrpError::EmptyDataset)
        ));
    }
}
