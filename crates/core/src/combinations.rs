//! Streaming k-combination enumeration.
//!
//! FMCS examines candidate contingency sets "in the order of their
//! cardinalities" so that the first valid set found is minimal. This
//! module provides the inner loop: lexicographic enumeration of all
//! `k`-subsets of `0..n` with early exit and no per-subset allocation,
//! either as index lists ([`for_each_combination`]) or as a depth-first
//! walk of add/remove-one moves that can skip whole subtrees
//! ([`walk_combinations`], the FMCS enumerator).

/// Calls `f` with each `k`-combination of `0..n` in lexicographic order.
/// `f` returns `true` to stop the enumeration; the function then returns
/// `true`. Returns `false` when the enumeration ran to completion.
///
/// `k == 0` yields exactly one (empty) combination; `k > n` yields none.
pub fn for_each_combination(n: usize, k: usize, mut f: impl FnMut(&[usize]) -> bool) -> bool {
    if k > n {
        return false;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        if f(&idx) {
            return true;
        }
        // Advance to the next lexicographic combination.
        let mut i = k;
        loop {
            if i == 0 {
                return false;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return false;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// What a [`walk_combinations`] consumer decides about a prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Prefix {
    /// Walk every subset that extends the prefix.
    Descend,
    /// Skip every subset that extends the prefix.
    Skip,
    /// Stop the whole walk.
    Stop,
}

/// The consumer of [`walk_combinations`]: it maintains state for the
/// current subset from add/remove-one moves and may cut subtrees.
pub(crate) trait SubsetWalk {
    /// Position `s` joins the current subset.
    fn add(&mut self, s: usize);
    /// Position `s` leaves the current subset.
    fn remove(&mut self, s: usize);
    /// Called after an add that leaves `slots ≥ 1` members still to
    /// choose, all from positions `from..n`.
    fn prefix(&mut self, from: usize, slots: usize) -> Prefix;
    /// The current subset is complete; `true` stops the walk.
    fn subset(&mut self) -> bool;
}

/// Depth-first walk over the `k`-combinations of `0..n` in
/// lexicographic order — the leaves come in [`for_each_combination`]'s
/// order — reported as add/remove-one moves to `walk`. A subtree the
/// consumer skips is a contiguous run of that order, so a search that
/// skips only subtrees holding no hit finds the same first hit as the
/// full walk. `path` is caller-owned scratch holding the current
/// positions. Returns `true` when the consumer stopped the walk; moves
/// are not rolled back.
pub(crate) fn walk_combinations(
    n: usize,
    k: usize,
    path: &mut Vec<usize>,
    walk: &mut impl SubsetWalk,
) -> bool {
    path.clear();
    if k > n {
        return false;
    }
    // The position the next slot tries first.
    let mut next = 0;
    loop {
        if path.len() == k {
            if walk.subset() {
                return true;
            }
        } else if next + (k - path.len()) <= n {
            walk.add(next);
            path.push(next);
            let slots = k - path.len();
            let verdict = if slots == 0 {
                Prefix::Descend
            } else {
                walk.prefix(next + 1, slots)
            };
            match verdict {
                Prefix::Descend => {
                    next += 1;
                    continue;
                }
                Prefix::Skip => {}
                Prefix::Stop => return true,
            }
        }
        // Backtrack: the last member moves one position on.
        let Some(last) = path.pop() else {
            return false;
        };
        walk.remove(last);
        next = last + 1;
    }
}

/// Number of `k`-combinations of `n` items, saturating at `u128::MAX`.
pub fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = match acc.checked_mul((n - i) as u128) {
            Some(v) => v / (i as u128 + 1),
            None => return u128::MAX,
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for_each_combination(n, k, |c| {
            out.push(c.to_vec());
            false
        });
        out
    }

    #[test]
    fn empty_combination() {
        assert_eq!(collect(5, 0), vec![Vec::<usize>::new()]);
        assert_eq!(collect(0, 0), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn k_greater_than_n_yields_nothing() {
        assert!(collect(2, 3).is_empty());
    }

    #[test]
    fn four_choose_two_lexicographic() {
        assert_eq!(
            collect(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn full_combination() {
        assert_eq!(collect(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn counts_match_binomial() {
        for n in 0..=10 {
            for k in 0..=n {
                assert_eq!(collect(n, k).len() as u128, binomial(n, k), "C({n}, {k})");
            }
        }
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let mut seen = 0;
        let stopped = for_each_combination(6, 2, |_| {
            seen += 1;
            seen == 3
        });
        assert!(stopped);
        assert_eq!(seen, 3);
    }

    #[test]
    fn combinations_are_sorted_and_unique() {
        for c in collect(7, 3) {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
        let all = collect(7, 3);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
    }

    /// Records a walk: the maintained set is checked against the path
    /// at every subset, and `skip` decides which prefixes are cut.
    struct Recorder<F: FnMut(&[usize], usize, usize) -> bool> {
        current: Vec<usize>,
        visited: Vec<Vec<usize>>,
        skip: F,
        stop_after: Option<usize>,
    }

    impl<F: FnMut(&[usize], usize, usize) -> bool> SubsetWalk for Recorder<F> {
        fn add(&mut self, s: usize) {
            assert!(!self.current.contains(&s), "double add of {s}");
            self.current.push(s);
        }
        fn remove(&mut self, s: usize) {
            assert_eq!(self.current.pop(), Some(s), "remove out of order");
        }
        fn prefix(&mut self, from: usize, slots: usize) -> Prefix {
            assert_eq!(self.current.last().map(|&s| s + 1), Some(from));
            if (self.skip)(&self.current, from, slots) {
                Prefix::Skip
            } else {
                Prefix::Descend
            }
        }
        fn subset(&mut self) -> bool {
            self.visited.push(self.current.clone());
            self.stop_after == Some(self.visited.len())
        }
    }

    fn walk(
        n: usize,
        k: usize,
        skip: impl FnMut(&[usize], usize, usize) -> bool,
        stop_after: Option<usize>,
    ) -> (bool, Vec<Vec<usize>>) {
        let mut recorder = Recorder {
            current: Vec::new(),
            visited: Vec::new(),
            skip,
            stop_after,
        };
        let stopped = walk_combinations(n, k, &mut Vec::new(), &mut recorder);
        (stopped, recorder.visited)
    }

    /// The unpruned walk visits exactly `for_each_combination`'s
    /// subsets in its order, and a walk that skips prefixes visits that
    /// order minus exactly the subsets extending a skipped prefix.
    #[test]
    fn walk_matches_reference_order() {
        for n in 0..=9 {
            for k in 0..=n + 1 {
                let (stopped, visited) = walk(n, k, |_, _, _| false, None);
                assert!(!stopped);
                assert_eq!(visited, collect(n, k), "C({n}, {k})");
                // Skip every prefix whose member sum is ≡ 1 (mod 3).
                let cut = |prefix: &[usize]| prefix.iter().sum::<usize>() % 3 == 1;
                let (_, pruned) = walk(n, k, |p, _, _| cut(p), None);
                let expected: Vec<Vec<usize>> = collect(n, k)
                    .into_iter()
                    .filter(|c| !(1..k).any(|d| cut(&c[..d])))
                    .collect();
                assert_eq!(pruned, expected, "C({n}, {k}) pruned");
            }
        }
    }

    #[test]
    fn walk_early_exit_and_empty_cases() {
        // k > n: no subsets.
        assert_eq!(walk(2, 3, |_, _, _| false, None), (false, vec![]));
        // k = 0: one empty visit, no moves.
        assert_eq!(walk(5, 0, |_, _, _| false, None), (false, vec![vec![]]));
        // Early exit stops mid-stream, like the reference.
        let (stopped, visited) = walk(6, 2, |_, _, _| false, Some(3));
        assert!(stopped);
        assert_eq!(visited, collect(6, 2)[..3].to_vec());
        // `Prefix::Stop` ends the walk at once.
        struct Stopper(usize);
        impl SubsetWalk for Stopper {
            fn add(&mut self, _: usize) {}
            fn remove(&mut self, _: usize) {}
            fn prefix(&mut self, _: usize, _: usize) -> Prefix {
                Prefix::Stop
            }
            fn subset(&mut self) -> bool {
                self.0 += 1;
                false
            }
        }
        let mut stopper = Stopper(0);
        assert!(walk_combinations(6, 2, &mut Vec::new(), &mut stopper));
        assert_eq!(stopper.0, 0);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 5), 252);
        assert_eq!(binomial(3, 7), 0);
        assert_eq!(binomial(200, 100), u128::MAX); // saturates
    }
}
