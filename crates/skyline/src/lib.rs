//! Skyline-family query processing.
//!
//! The substrate the causality algorithms sit on:
//!
//! * reverse skyline queries over certain data (Definition 3 of the
//!   paper), both a naive `O(n²)` evaluator and a window-query
//!   evaluator over the object tree's packed image with node-access
//!   accounting,
//! * the probabilistic reverse skyline machinery of Lian & Chen as used
//!   by the paper: per-object dominance probabilities (Eq. 3), the
//!   reverse-skyline probability `Pr(u)` (Eq. 2), its possible-world
//!   reference implementation, and the full PRSQ with threshold `α`
//!   (Definition 4),
//! * the one R-tree construction helper, over object MBRs — on certain
//!   data a one-sample object's MBR is its point, so the same tree
//!   serves both.

mod index;
mod prsq;
mod reverse;

pub use index::build_object_rtree;
pub use prsq::{
    dominance_probability, pr_reverse_skyline, pr_reverse_skyline_indexed,
    pr_reverse_skyline_worlds, probabilistic_reverse_skyline, PrsqMembership,
};
pub use reverse::{is_reverse_skyline_object, reverse_skyline_naive, reverse_skyline_rtree};
