//! Continuous pdf model (Section 3.2 of the paper).
//!
//! An uncertain object is an uncertain region `UR(u)` with a probability
//! density over it. Two densities are provided:
//!
//! * [`BoxUniform`] — uniform over a hyper-rectangle, with closed-form
//!   box integrals (the work-horse of the pdf-model experiments),
//! * [`GridDensity`] — piecewise-constant over a regular grid, which can
//!   approximate arbitrary densities.
//!
//! [`ContinuousPdf::discretize`] converts a pdf object into a
//! discrete-sample object by the midpoint rule, which is how the pdf
//! variant of the CP algorithm evaluates `Pr(an)` ("the integration of
//! the whole uncertain object" in the paper's words).

use crate::dataset::{PdfDataset, UncertainDataset};
use crate::error::UncertainError;
use crate::object::{ObjectId, UncertainObject};
use crp_geom::{HyperRect, Point};

/// Uniform density over a hyper-rectangle.
///
/// Degenerate axes (zero extent) are supported: the density concentrates
/// on the lower-dimensional slab, and box integrals treat such an axis as
/// an indicator (`1` when the query range covers the slab coordinate).
#[derive(Clone, Debug, PartialEq)]
pub struct BoxUniform {
    region: HyperRect,
}

impl BoxUniform {
    /// Uniform pdf over `region`.
    pub fn new(region: HyperRect) -> Self {
        Self { region }
    }

    /// The support rectangle.
    pub fn region(&self) -> &HyperRect {
        &self.region
    }

    /// `∫_rect pdf` — the probability mass inside `rect`, in closed form:
    /// the product of per-axis overlap fractions.
    pub fn box_probability(&self, rect: &HyperRect) -> f64 {
        let mut mass = 1.0;
        for i in 0..self.region.dim() {
            let lo = self.region.lo()[i].max(rect.lo()[i]);
            let hi = self.region.hi()[i].min(rect.hi()[i]);
            let extent = self.region.extent(i);
            if extent == 0.0 {
                // Degenerate axis: indicator of containment.
                if !(rect.lo()[i] <= self.region.lo()[i] && self.region.lo()[i] <= rect.hi()[i]) {
                    return 0.0;
                }
            } else {
                if hi <= lo {
                    return 0.0;
                }
                mass *= (hi - lo) / extent;
            }
        }
        mass
    }
}

/// Piecewise-constant density over a regular grid partition of a
/// positive-volume region. Cell weights are normalised to sum to 1.
#[derive(Clone, Debug, PartialEq)]
pub struct GridDensity {
    region: HyperRect,
    cells_per_dim: Vec<usize>,
    /// Normalised probability mass per cell, row-major (last axis fastest).
    weights: Vec<f64>,
}

impl GridDensity {
    /// Builds a grid density. `weights` must have `Π cells_per_dim`
    /// non-negative entries with a positive sum; they are normalised.
    pub fn new(
        region: HyperRect,
        cells_per_dim: Vec<usize>,
        weights: Vec<f64>,
    ) -> Result<Self, UncertainError> {
        if cells_per_dim.len() != region.dim() {
            return Err(UncertainError::DimensionMismatch {
                expected: region.dim(),
                got: cells_per_dim.len(),
            });
        }
        let expected: usize = cells_per_dim.iter().product();
        if weights.len() != expected || expected == 0 {
            return Err(UncertainError::NoSamples);
        }
        let sum: f64 = weights.iter().sum();
        if !sum.is_finite() || sum <= 0.0 || weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err(UncertainError::InvalidProbability(sum));
        }
        for i in 0..region.dim() {
            if region.extent(i) <= 0.0 {
                return Err(UncertainError::InvalidProbability(0.0));
            }
        }
        let weights = weights.into_iter().map(|w| w / sum).collect();
        Ok(Self {
            region,
            cells_per_dim,
            weights,
        })
    }

    /// The support rectangle.
    pub fn region(&self) -> &HyperRect {
        &self.region
    }

    fn cell_rect(&self, mut idx: usize) -> HyperRect {
        let dim = self.region.dim();
        let mut coords = vec![0usize; dim];
        for axis in (0..dim).rev() {
            coords[axis] = idx % self.cells_per_dim[axis];
            idx /= self.cells_per_dim[axis];
        }
        let lo: Vec<f64> = (0..dim)
            .map(|i| {
                self.region.lo()[i]
                    + self.region.extent(i) * coords[i] as f64 / self.cells_per_dim[i] as f64
            })
            .collect();
        let hi: Vec<f64> = (0..dim)
            .map(|i| {
                self.region.lo()[i]
                    + self.region.extent(i) * (coords[i] + 1) as f64 / self.cells_per_dim[i] as f64
            })
            .collect();
        HyperRect::new(Point::new(lo), Point::new(hi))
    }

    /// `∫_rect pdf`: sum of cell masses weighted by fractional overlap.
    pub fn box_probability(&self, rect: &HyperRect) -> f64 {
        let mut mass = 0.0;
        for (idx, w) in self.weights.iter().enumerate() {
            if *w == 0.0 {
                continue;
            }
            let cell = self.cell_rect(idx);
            let overlap = cell.overlap_volume(rect);
            if overlap > 0.0 {
                mass += w * overlap / cell.volume();
            }
        }
        mass
    }
}

/// A continuous probability density over an uncertain region.
#[derive(Clone, Debug, PartialEq)]
pub enum ContinuousPdf {
    /// Uniform over a box.
    BoxUniform(BoxUniform),
    /// Piecewise-constant over a grid.
    Grid(GridDensity),
}

impl ContinuousPdf {
    /// Uniform pdf over `region`.
    pub fn uniform(region: HyperRect) -> Self {
        ContinuousPdf::BoxUniform(BoxUniform::new(region))
    }

    /// The support rectangle (`UR(u)`).
    pub fn region(&self) -> &HyperRect {
        match self {
            ContinuousPdf::BoxUniform(b) => b.region(),
            ContinuousPdf::Grid(g) => g.region(),
        }
    }

    /// Probability mass within `rect`.
    pub fn box_probability(&self, rect: &HyperRect) -> f64 {
        match self {
            ContinuousPdf::BoxUniform(b) => b.box_probability(rect),
            ContinuousPdf::Grid(g) => g.box_probability(rect),
        }
    }

    /// Midpoint-rule discretisation: partitions the region into
    /// `resolution^D` cells and returns `(cell centre, cell mass)` for
    /// cells with positive mass. Masses sum to 1 (renormalised against
    /// floating-point drift).
    ///
    /// # Panics
    ///
    /// Panics if `resolution == 0`.
    pub fn discretize(&self, resolution: usize) -> Vec<(Point, f64)> {
        assert!(resolution > 0, "resolution must be positive");
        let region = self.region();
        let dim = region.dim();
        let mut cells: Vec<(Point, f64)> = Vec::new();
        let mut coords = vec![0usize; dim];
        loop {
            // Cell rectangle & centre; degenerate axes keep their value.
            let lo: Vec<f64> = (0..dim)
                .map(|i| region.lo()[i] + region.extent(i) * coords[i] as f64 / resolution as f64)
                .collect();
            let hi: Vec<f64> = (0..dim)
                .map(|i| {
                    region.lo()[i] + region.extent(i) * (coords[i] + 1) as f64 / resolution as f64
                })
                .collect();
            let center = Point::new((0..dim).map(|i| 0.5 * (lo[i] + hi[i])).collect::<Vec<_>>());
            let cell = HyperRect::new(Point::new(lo), Point::new(hi));
            let mass = self.box_probability(&cell);
            if mass > 0.0 {
                cells.push((center, mass));
            }
            // Odometer.
            let mut axis = dim;
            loop {
                if axis == 0 {
                    let total: f64 = cells.iter().map(|(_, m)| *m).sum();
                    debug_assert!(total > 0.0, "pdf has positive total mass");
                    for c in &mut cells {
                        c.1 /= total;
                    }
                    return cells;
                }
                axis -= 1;
                coords[axis] += 1;
                if coords[axis] < resolution {
                    break;
                }
                coords[axis] = 0;
            }
        }
    }
}

/// An uncertain object under the continuous model.
#[derive(Clone, Debug, PartialEq)]
pub struct PdfObject {
    id: ObjectId,
    pdf: ContinuousPdf,
    label: Option<String>,
}

impl PdfObject {
    /// Creates a pdf object.
    pub fn new(id: ObjectId, pdf: ContinuousPdf) -> Self {
        Self {
            id,
            pdf,
            label: None,
        }
    }

    /// Uniform pdf object over a region.
    pub fn uniform(id: ObjectId, region: HyperRect) -> Self {
        Self::new(id, ContinuousPdf::uniform(region))
    }

    /// Attaches a human-readable label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The object's identifier.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Optional label.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The density.
    pub fn pdf(&self) -> &ContinuousPdf {
        &self.pdf
    }

    /// The uncertain region `UR(u)`.
    pub fn region(&self) -> &HyperRect {
        self.pdf.region()
    }

    /// Discretises into a sample-model object (midpoint rule).
    pub fn discretize(&self, resolution: usize) -> UncertainObject {
        let samples = self.pdf.discretize(resolution);
        let mut obj = UncertainObject::new(self.id, samples)
            .expect("discretised pdf yields valid probabilities");
        if let Some(l) = &self.label {
            obj = obj.with_label(l.clone());
        }
        obj
    }
}

impl PdfDataset {
    /// Discretises the whole dataset (for cross-model validation).
    pub fn discretize(&self, resolution: usize) -> UncertainDataset {
        UncertainDataset::from_objects(self.iter().map(|o| o.discretize(resolution)))
            .expect("pdf dataset invariants carry over")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: [f64; 2], hi: [f64; 2]) -> HyperRect {
        HyperRect::new(Point::from(lo), Point::from(hi))
    }

    #[test]
    fn box_uniform_full_and_partial_mass() {
        let pdf = BoxUniform::new(rect([0.0, 0.0], [2.0, 2.0]));
        assert!((pdf.box_probability(&rect([0.0, 0.0], [2.0, 2.0])) - 1.0).abs() < 1e-12);
        assert!((pdf.box_probability(&rect([0.0, 0.0], [1.0, 2.0])) - 0.5).abs() < 1e-12);
        assert!((pdf.box_probability(&rect([0.0, 0.0], [1.0, 1.0])) - 0.25).abs() < 1e-12);
        assert_eq!(pdf.box_probability(&rect([3.0, 3.0], [4.0, 4.0])), 0.0);
    }

    #[test]
    fn box_uniform_degenerate_axis() {
        // A vertical segment: x pinned at 1.0.
        let pdf = BoxUniform::new(rect([1.0, 0.0], [1.0, 2.0]));
        assert!((pdf.box_probability(&rect([0.0, 0.0], [2.0, 1.0])) - 0.5).abs() < 1e-12);
        assert_eq!(pdf.box_probability(&rect([2.0, 0.0], [3.0, 2.0])), 0.0);
        // Fully degenerate region: a certain point.
        let point_pdf = BoxUniform::new(rect([1.0, 1.0], [1.0, 1.0]));
        assert_eq!(
            point_pdf.box_probability(&rect([0.0, 0.0], [2.0, 2.0])),
            1.0
        );
        assert_eq!(
            point_pdf.box_probability(&rect([2.0, 2.0], [3.0, 3.0])),
            0.0
        );
    }

    #[test]
    fn grid_density_validation() {
        assert!(GridDensity::new(rect([0.0, 0.0], [1.0, 1.0]), vec![2, 2], vec![1.0; 4]).is_ok());
        assert!(GridDensity::new(rect([0.0, 0.0], [1.0, 1.0]), vec![2], vec![1.0; 2]).is_err());
        assert!(GridDensity::new(rect([0.0, 0.0], [1.0, 1.0]), vec![2, 2], vec![1.0; 3]).is_err());
        assert!(GridDensity::new(
            rect([0.0, 0.0], [1.0, 1.0]),
            vec![2, 2],
            vec![-1.0, 1.0, 1.0, 1.0]
        )
        .is_err());
        // Degenerate region rejected for grids.
        assert!(GridDensity::new(rect([0.0, 0.0], [0.0, 1.0]), vec![1, 1], vec![1.0]).is_err());
    }

    #[test]
    fn grid_density_box_probability() {
        // 2x2 grid with all mass in the lower-left cell.
        let g = GridDensity::new(
            rect([0.0, 0.0], [2.0, 2.0]),
            vec![2, 2],
            vec![0.0, 0.0, 1.0, 0.0], // row-major: (x0,y0) is index 0? verify below
        )
        .unwrap();
        // Index layout: last axis fastest -> idx = x*2 + y.
        // weights[2] = 1.0 means x-cell 1, y-cell 0: x in [1,2], y in [0,1].
        assert!((g.box_probability(&rect([1.0, 0.0], [2.0, 1.0])) - 1.0).abs() < 1e-12);
        assert!((g.box_probability(&rect([1.0, 0.0], [1.5, 1.0])) - 0.5).abs() < 1e-12);
        assert_eq!(g.box_probability(&rect([0.0, 1.0], [1.0, 2.0])), 0.0);
    }

    #[test]
    fn grid_weights_normalised() {
        let g = GridDensity::new(rect([0.0, 0.0], [1.0, 1.0]), vec![2, 2], vec![2.0; 4]).unwrap();
        assert!((g.box_probability(&rect([0.0, 0.0], [1.0, 1.0])) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discretize_uniform_equal_masses() {
        let pdf = ContinuousPdf::uniform(rect([0.0, 0.0], [4.0, 4.0]));
        let cells = pdf.discretize(2);
        assert_eq!(cells.len(), 4);
        for (_, m) in &cells {
            assert!((m - 0.25).abs() < 1e-12);
        }
        let centers: Vec<&Point> = cells.iter().map(|(c, _)| c).collect();
        assert!(centers.contains(&&Point::from([1.0, 1.0])));
        assert!(centers.contains(&&Point::from([3.0, 3.0])));
    }

    #[test]
    fn discretize_point_region() {
        let pdf = ContinuousPdf::uniform(rect([2.0, 3.0], [2.0, 3.0]));
        let cells = pdf.discretize(3);
        // All cells collapse to the same point; total mass 1.
        let total: f64 = cells.iter().map(|(_, m)| m).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(cells.iter().all(|(c, _)| c == &Point::from([2.0, 3.0])));
    }

    #[test]
    fn pdf_object_discretize_to_uncertain() {
        let o = PdfObject::uniform(ObjectId(5), rect([0.0, 0.0], [1.0, 1.0])).with_label("blob");
        let u = o.discretize(3);
        assert_eq!(u.id(), ObjectId(5));
        assert_eq!(u.label(), Some("blob"));
        assert_eq!(u.sample_count(), 9);
        let total: f64 = u.samples().iter().map(|s| s.prob()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pdf_dataset_push_and_validate() {
        let mut ds = PdfDataset::new();
        ds.push(PdfObject::uniform(
            ObjectId(0),
            rect([0.0, 0.0], [1.0, 1.0]),
        ))
        .unwrap();
        assert!(ds
            .push(PdfObject::uniform(
                ObjectId(0),
                rect([0.0, 0.0], [1.0, 1.0])
            ))
            .is_err());
        let tall = PdfObject::new(
            ObjectId(1),
            ContinuousPdf::uniform(HyperRect::new(
                Point::from([0.0, 0.0, 0.0]),
                Point::from([1.0, 1.0, 1.0]),
            )),
        );
        assert!(ds.push(tall).is_err());
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.dim(), Some(2));
        assert!(ds.get(ObjectId(0)).is_some());
    }

    #[test]
    fn discretized_dataset_mirrors_pdf_dataset() {
        let ds = PdfDataset::from_objects(vec![
            PdfObject::uniform(ObjectId(0), rect([0.0, 0.0], [2.0, 2.0])),
            PdfObject::uniform(ObjectId(1), rect([5.0, 5.0], [6.0, 6.0])),
        ])
        .unwrap();
        let disc = ds.discretize(2);
        assert_eq!(disc.len(), 2);
        assert_eq!(disc.get(ObjectId(1)).unwrap().sample_count(), 4);
    }

    #[test]
    fn grid_matches_uniform_when_flat() {
        let region = rect([0.0, 0.0], [3.0, 3.0]);
        let flat = GridDensity::new(region.clone(), vec![3, 3], vec![1.0; 9]).unwrap();
        let uni = BoxUniform::new(region);
        for probe in [
            rect([0.0, 0.0], [1.5, 1.5]),
            rect([1.0, 2.0], [2.5, 3.0]),
            rect([-1.0, -1.0], [0.5, 4.0]),
        ] {
            assert!(
                (flat.box_probability(&probe) - uni.box_probability(&probe)).abs() < 1e-9,
                "probe {probe:?}"
            );
        }
    }
}
