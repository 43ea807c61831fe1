//! Tree shape parameters.

/// Fanout and overflow-treatment parameters of an R*-tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum number of entries per node (`M`).
    pub max_entries: usize,
    /// Minimum number of entries per non-root node (`m`).
    pub min_entries: usize,
    /// Number of entries removed and reinserted on the first overflow of
    /// a level per insertion (the R*-tree `p ≈ 30% · M` heuristic). Zero
    /// disables forced reinsertion. STR bulk loading leaves this many
    /// free slots in every node (packing `max(M − p, m)` entries).
    pub reinsert_count: usize,
}

impl RTreeParams {
    /// Parameters for a given maximum fanout, with the standard R*-tree
    /// fill factor `m = 40% · M` and reinsertion count `p = 30% · M`.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 4` (the split heuristics need room to
    /// distribute entries).
    pub fn with_fanout(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R*-tree fanout must be at least 4");
        let min_entries = ((max_entries as f64 * 0.4) as usize).max(2);
        let reinsert_count = ((max_entries as f64 * 0.3) as usize).max(1);
        Self {
            max_entries,
            min_entries,
            reinsert_count,
        }
    }

    /// Derives the fanout from a disk page size, mirroring the on-disk
    /// layout the paper assumes (4,096-byte pages).
    ///
    /// Each entry stores a `dim`-dimensional rectangle (two `f64` corners)
    /// plus an 8-byte child pointer / record id; a node additionally
    /// carries a small header. For `page_bytes = 4096, dim = 3` this
    /// yields `M = (4096 − 16) / 56 = 72`.
    pub fn from_page_size(page_bytes: usize, dim: usize) -> Self {
        const HEADER_BYTES: usize = 16;
        const POINTER_BYTES: usize = 8;
        let entry_bytes = 2 * dim * std::mem::size_of::<f64>() + POINTER_BYTES;
        let usable = page_bytes.saturating_sub(HEADER_BYTES);
        let fanout = (usable / entry_bytes).max(4);
        Self::with_fanout(fanout)
    }

    /// The paper's configuration: 4,096-byte pages.
    pub fn paper_default(dim: usize) -> Self {
        Self::from_page_size(4096, dim)
    }
}

impl Default for RTreeParams {
    fn default() -> Self {
        Self::with_fanout(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_derivation() {
        let p = RTreeParams::with_fanout(10);
        assert_eq!(p.max_entries, 10);
        assert_eq!(p.min_entries, 4);
        assert_eq!(p.reinsert_count, 3);
    }

    #[test]
    fn page_size_derivation_matches_layout_math() {
        // dim=2: entry = 4*8 + 8 = 40 bytes; (4096-16)/40 = 102.
        let p2 = RTreeParams::from_page_size(4096, 2);
        assert_eq!(p2.max_entries, 102);
        // dim=3: entry = 6*8 + 8 = 56 bytes; (4096-16)/56 = 72.
        let p3 = RTreeParams::from_page_size(4096, 3);
        assert_eq!(p3.max_entries, 72);
        // dim=5: entry = 10*8 + 8 = 88 bytes; (4096-16)/88 = 46.
        let p5 = RTreeParams::from_page_size(4096, 5);
        assert_eq!(p5.max_entries, 46);
    }

    #[test]
    fn tiny_pages_clamp_to_minimum_fanout() {
        let p = RTreeParams::from_page_size(64, 10);
        assert_eq!(p.max_entries, 4);
        assert!(p.min_entries >= 2);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn fanout_below_four_rejected() {
        let _ = RTreeParams::with_fanout(3);
    }

    #[test]
    fn min_entries_never_exceeds_half() {
        for m in 4..200 {
            let p = RTreeParams::with_fanout(m);
            assert!(p.min_entries * 2 <= p.max_entries + 1, "fanout {m}");
            assert!(p.reinsert_count < p.max_entries, "fanout {m}");
        }
    }
}
