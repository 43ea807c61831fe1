//! Uncertain data models for probabilistic reverse skyline queries.
//!
//! The paper (Section 2.2) models every uncertain object `u` by an
//! uncertain region `UR(u)` with a probability distribution described
//! either by **discrete samples** (`l_u` mutually exclusive instances with
//! appearance probabilities summing to 1) or by a **continuous pdf**.
//! Objects are mutually independent, as are coordinates.
//!
//! This crate provides:
//!
//! * [`Dataset`] — the one object store both models share, with its
//!   aliases [`UncertainDataset`] and [`PdfDataset`],
//! * [`UncertainObject`] — the discrete-sample model, validated at
//!   construction,
//! * [`possible_worlds`] — exhaustive possible-world enumeration, the
//!   ground truth used by the test suites to validate the closed-form
//!   probability computations (Eq. 2–3),
//! * [`ContinuousPdf`] / [`PdfObject`] — the continuous
//!   model (Section 3.2) with uniform-box and piecewise-constant grid
//!   densities, closed-form box integrals, and midpoint-grid
//!   discretisation.

mod dataset;
mod error;
mod object;
mod pdf;
mod update;
mod worlds;

pub use dataset::{Dataset, PdfDataset, UncertainDataset};
pub use error::UncertainError;
pub use object::{ObjectId, Sample, UncertainObject};
pub use pdf::{BoxUniform, ContinuousPdf, GridDensity, PdfObject};
pub use update::{Epoch, Identified, Update};
pub use worlds::{possible_worlds, world_count, PossibleWorld, WorldIter};
