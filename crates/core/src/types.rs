//! Result types of the CRP computations.

use crp_rtree::QueryStats;
use crp_uncertain::ObjectId;
use std::fmt;

/// One actual cause for a non-answer, with its responsibility and a
/// witness minimal contingency set.
#[derive(Clone, Debug, PartialEq)]
pub struct Cause {
    /// The causing object.
    pub id: ObjectId,
    /// `r(id, an) = 1 / (1 + |Γ_min|)`.
    pub responsibility: f64,
    /// One minimal contingency set (there may be several of the same
    /// size; this is the first found in ascending-cardinality order).
    pub min_contingency: Vec<ObjectId>,
    /// True when the cause is counterfactual (`Γ_min = ∅`,
    /// responsibility 1).
    pub counterfactual: bool,
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (r = 1/{}{})",
            self.id,
            self.min_contingency.len() + 1,
            if self.counterfactual {
                ", counterfactual"
            } else {
                ""
            }
        )
    }
}

/// Execution counters for one CRP computation — the metrics the paper's
/// evaluation reports (node accesses as I/O, plus refinement work).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// R-tree node accesses (the paper's I/O metric).
    pub query: QueryStats,
    /// Number of candidate causes after filtering (`|Cc|`).
    pub candidates: usize,
    /// Objects forced into every contingency set by Lemma 4 (`|Ca|`).
    pub forced: usize,
    /// Counterfactual causes found (`|Cb|`).
    pub counterfactuals: usize,
    /// Candidate contingency sets examined during refinement. With the
    /// probability bound on (`CpConfig::use_probability_bound`) it counts
    /// the subsets the search reached: the levels whose empty-prefix
    /// completion bound stays below the cut and the subtrees the completion bound pruned are not counted. A
    /// level certified inert is counted whole, as if walked.
    pub subsets_examined: u64,
    /// Completion-bound checks the pruned FMCS walk evaluated (zero with
    /// the probability bound off). A check cap charges these and
    /// `subsets_examined` alike.
    pub bound_checks: u64,
    /// Threshold evaluations of `Pr(an)` (each subset check needs up to
    /// two).
    pub prsq_evaluations: u64,
}

impl RunStats {
    /// Merges counters from another run (used when averaging experiments
    /// is done externally; this is a plain sum).
    pub fn absorb(&mut self, other: &RunStats) {
        self.query.absorb(other.query);
        self.candidates += other.candidates;
        self.forced += other.forced;
        self.counterfactuals += other.counterfactuals;
        self.subsets_examined += other.subsets_examined;
        self.bound_checks += other.bound_checks;
        self.prsq_evaluations += other.prsq_evaluations;
    }
}

/// Full output of a CRP computation: every actual cause with its
/// responsibility, plus execution counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CrpOutcome {
    /// Actual causes, sorted by object id.
    pub causes: Vec<Cause>,
    /// Execution counters.
    pub stats: RunStats,
}

impl CrpOutcome {
    /// Looks up a cause by object id.
    pub fn cause(&self, id: ObjectId) -> Option<&Cause> {
        self.causes.iter().find(|c| c.id == id)
    }

    /// The causes ordered by descending responsibility (ties by id), the
    /// presentation order of the paper's Table 3.
    pub fn by_responsibility(&self) -> Vec<&Cause> {
        let mut v: Vec<&Cause> = self.causes.iter().collect();
        v.sort_by(|a, b| {
            b.responsibility
                .partial_cmp(&a.responsibility)
                .expect("responsibilities are finite")
                .then(a.id.cmp(&b.id))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cause(id: u32, gamma: usize) -> Cause {
        Cause {
            id: ObjectId(id),
            responsibility: 1.0 / (1.0 + gamma as f64),
            min_contingency: (0..gamma).map(|i| ObjectId(100 + i as u32)).collect(),
            counterfactual: gamma == 0,
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(cause(3, 2).to_string(), "#3 (r = 1/3)");
        assert_eq!(cause(1, 0).to_string(), "#1 (r = 1/1, counterfactual)");
    }

    #[test]
    fn outcome_lookup_and_ordering() {
        let out = CrpOutcome {
            causes: vec![cause(1, 3), cause(2, 0), cause(3, 3)],
            stats: RunStats::default(),
        };
        assert!(out.cause(ObjectId(2)).unwrap().counterfactual);
        assert!(out.cause(ObjectId(9)).is_none());
        let order: Vec<u32> = out.by_responsibility().iter().map(|c| c.id.0).collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = RunStats {
            candidates: 2,
            subsets_examined: 10,
            ..RunStats::default()
        };
        let b = RunStats {
            candidates: 3,
            bound_checks: 4,
            prsq_evaluations: 7,
            ..RunStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.candidates, 5);
        assert_eq!(a.subsets_examined, 10);
        assert_eq!(a.bound_checks, 4);
        assert_eq!(a.prsq_evaluations, 7);
    }
}
