//! The object store both data models share.

use crate::error::UncertainError;
use crate::object::{ObjectId, UncertainObject};
use crate::pdf::PdfObject;
use crate::update::{Epoch, Identified, Update};
use crp_geom::Point;
use std::collections::HashMap;
use std::sync::Arc;

/// A validated collection of independent uncertain objects sharing one
/// dimensionality (the paper's `𝒫`), generic over the object model:
/// [`UncertainDataset`] holds discrete-sample objects (Section 3.1),
/// [`PdfDataset`] continuous-pdf objects (Section 3.2). The store sees
/// only what [`Identified`] exposes — an id, a dimensionality, an MBR
/// and whether the object is certain.
///
/// The dataset is **mutable**: [`push`](Self::push),
/// [`remove`](Self::remove) and [`replace`](Self::replace) (or
/// [`apply`](Self::apply) over an [`Update`]) each advance a monotone
/// [`Epoch`]. Removal is *order-preserving* — surviving objects keep
/// their relative (insertion) order — which is what lets an
/// incrementally maintained engine session produce the same candidate
/// orderings as a fresh session built on the final object sequence.
///
/// Objects are held behind [`Arc`]s: a clone (an epoch snapshot) shares
/// every object with its source, and a mutation swaps only the slot it
/// touches.
#[derive(Debug)]
pub struct Dataset<O> {
    objects: Vec<Arc<O>>,
    by_id: HashMap<ObjectId, usize>,
    epoch: Epoch,
    /// Objects that are *not* certain, maintained by every mutator so
    /// [`UncertainDataset::is_certain`] is O(1) — engines consult it on
    /// every explain to pick CR or CP, where an O(n) scan would cost
    /// more than the explain itself.
    uncertain: usize,
}

/// A dataset of discrete-sample objects.
pub type UncertainDataset = Dataset<UncertainObject>;

/// A dataset of continuous-pdf objects.
pub type PdfDataset = Dataset<PdfObject>;

// Written by hand so that neither puts a bound on `O`: a clone copies
// handles, whatever the model.
impl<O> Clone for Dataset<O> {
    fn clone(&self) -> Self {
        Self {
            objects: self.objects.clone(),
            by_id: self.by_id.clone(),
            epoch: self.epoch,
            uncertain: self.uncertain,
        }
    }
}

impl<O> Default for Dataset<O> {
    fn default() -> Self {
        Self {
            objects: Vec::new(),
            by_id: HashMap::new(),
            epoch: Epoch::default(),
            uncertain: 0,
        }
    }
}

impl<O: Identified> Dataset<O> {
    /// An empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a dataset from objects, validating id uniqueness and
    /// dimensional consistency.
    pub fn from_objects(objects: impl IntoIterator<Item = O>) -> Result<Self, UncertainError> {
        let mut ds = Self::new();
        for o in objects {
            ds.push(o)?;
        }
        Ok(ds)
    }

    /// Appends an object.
    pub fn push(&mut self, object: O) -> Result<(), UncertainError> {
        if let Some(expected) = self.dim().filter(|&d| d != object.dim()) {
            return Err(UncertainError::DimensionMismatch {
                expected,
                got: object.dim(),
            });
        }
        if self.by_id.contains_key(&object.object_id()) {
            return Err(UncertainError::DuplicateId(object.object_id().0));
        }
        self.by_id.insert(object.object_id(), self.objects.len());
        if !object.is_certain() {
            self.uncertain += 1;
        }
        self.objects.push(Arc::new(object));
        self.epoch = self.epoch.next();
        Ok(())
    }

    /// Removes the object with this id, preserving the relative order
    /// of the survivors. Returns the removed object, or `None` when the
    /// id is unknown (the epoch then does not advance).
    pub fn remove(&mut self, id: ObjectId) -> Option<Arc<O>> {
        let pos = self.by_id.remove(&id)?;
        let removed = self.objects.remove(pos);
        if !removed.is_certain() {
            self.uncertain -= 1;
        }
        for p in self.by_id.values_mut() {
            if *p > pos {
                *p -= 1;
            }
        }
        self.epoch = self.epoch.next();
        Some(removed)
    }

    /// Swaps the stored object with `object.object_id()` for `object`,
    /// keeping its position. Returns the previous version.
    pub fn replace(&mut self, object: O) -> Result<Arc<O>, UncertainError> {
        let pos = *self
            .by_id
            .get(&object.object_id())
            .ok_or(UncertainError::UnknownId(object.object_id().0))?;
        if let Some(expected) = self.dim().filter(|&d| self.len() > 1 && d != object.dim()) {
            return Err(UncertainError::DimensionMismatch {
                expected,
                got: object.dim(),
            });
        }
        if !self.objects[pos].is_certain() {
            self.uncertain -= 1;
        }
        if !object.is_certain() {
            self.uncertain += 1;
        }
        let old = std::mem::replace(&mut self.objects[pos], Arc::new(object));
        self.epoch = self.epoch.next();
        Ok(old)
    }

    /// Applies one [`Update`], returning the epoch it produced.
    pub fn apply(&mut self, update: Update<O>) -> Result<Epoch, UncertainError> {
        match update {
            Update::Insert(obj) => self.push(obj)?,
            Update::Delete(id) => {
                self.remove(id).ok_or(UncertainError::UnknownId(id.0))?;
            }
            Update::Replace(obj) => {
                self.replace(obj)?;
            }
        }
        Ok(self.epoch)
    }

    /// Checks that `batch` would apply cleanly, without applying it:
    /// replays the id, duplicate and dimension rules of
    /// [`push`](Self::push), [`remove`](Self::remove) and
    /// [`replace`](Self::replace) against the live ids plus an overlay
    /// of the ids the batch touches. Returns the epoch applying the
    /// whole batch lands on, or the error of the first update that
    /// would fail — what [`apply`](Self::apply)ing the batch to a clone
    /// reports, at O(batch) instead of O(dataset) cost.
    pub fn check_batch(&self, batch: &[Update<O>]) -> Result<Epoch, UncertainError> {
        let mut overlay: HashMap<ObjectId, bool> = HashMap::new();
        let mut len = self.objects.len();
        let mut dim = self.dim();
        for update in batch {
            let id = update.id();
            let present = overlay
                .get(&id)
                .copied()
                .unwrap_or_else(|| self.by_id.contains_key(&id));
            match update {
                Update::Insert(object) => {
                    if let Some(expected) = dim.filter(|&d| d != object.dim()) {
                        return Err(UncertainError::DimensionMismatch {
                            expected,
                            got: object.dim(),
                        });
                    }
                    if present {
                        return Err(UncertainError::DuplicateId(id.0));
                    }
                    overlay.insert(id, true);
                    len += 1;
                    dim = Some(object.dim());
                }
                Update::Delete(_) => {
                    if !present {
                        return Err(UncertainError::UnknownId(id.0));
                    }
                    overlay.insert(id, false);
                    len -= 1;
                    if len == 0 {
                        dim = None;
                    }
                }
                Update::Replace(object) => {
                    if !present {
                        return Err(UncertainError::UnknownId(id.0));
                    }
                    if let Some(expected) = dim.filter(|&d| len > 1 && d != object.dim()) {
                        return Err(UncertainError::DimensionMismatch {
                            expected,
                            got: object.dim(),
                        });
                    }
                    dim = Some(object.dim());
                }
            }
        }
        Ok(Epoch(self.epoch.0 + batch.len() as u64))
    }

    /// The dataset version: advanced by every successful mutation.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Overrides the version counter without touching the objects.
    /// Snapshot recovery rebuilds the object sequence through
    /// [`from_objects`](Self::from_objects) — which ticks the epoch once
    /// per object — and then restores the epoch the snapshot was taken
    /// at, so a recovered session continues the numbering its
    /// write-ahead log recorded.
    pub fn restore_epoch(&mut self, epoch: Epoch) {
        self.epoch = epoch;
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the dataset holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Dimensionality (`None` for an empty dataset).
    pub fn dim(&self) -> Option<usize> {
        self.objects.first().map(|o| o.dim())
    }

    /// Object lookup by id.
    pub fn get(&self, id: ObjectId) -> Option<&O> {
        self.by_id.get(&id).map(|&i| &*self.objects[i])
    }

    /// Positional access.
    pub fn object_at(&self, index: usize) -> &O {
        &self.objects[index]
    }

    /// Position of an object id within [`Dataset::objects`].
    pub fn index_of(&self, id: ObjectId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// All objects, in insertion order, behind the [`Arc`]s clones of
    /// this dataset share.
    pub fn objects(&self) -> &[Arc<O>] {
        &self.objects
    }

    /// Iterator over the objects.
    pub fn iter(&self) -> impl Iterator<Item = &O> {
        self.into_iter()
    }
}

impl UncertainDataset {
    /// Convenience constructor for certain datasets: one point per object,
    /// ids assigned by position.
    pub fn from_points(points: impl IntoIterator<Item = Point>) -> Result<Self, UncertainError> {
        Self::from_objects(
            points
                .into_iter()
                .enumerate()
                .map(|(i, p)| UncertainObject::certain(ObjectId(i as u32), p)),
        )
    }

    /// True when every object is certain (single sample, probability 1) —
    /// i.e. the dataset is a plain point set and the CR algorithm
    /// applies. O(1): the uncertain-object count is maintained by the
    /// mutators.
    pub fn is_certain(&self) -> bool {
        self.uncertain == 0
    }

    /// Total number of samples across all objects.
    pub fn total_samples(&self) -> usize {
        self.objects.iter().map(|o| o.sample_count()).sum()
    }
}

impl<'a, O> IntoIterator for &'a Dataset<O> {
    type Item = &'a O;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, Arc<O>>, fn(&Arc<O>) -> &O>;

    fn into_iter(self) -> Self::IntoIter {
        self.objects.iter().map(|o| &**o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    fn obj(id: u32, pts: Vec<Point>) -> UncertainObject {
        UncertainObject::with_equal_probs(ObjectId(id), pts).unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let ds = UncertainDataset::from_objects(vec![
            obj(0, vec![pt(0.0, 0.0), pt(1.0, 1.0)]),
            obj(1, vec![pt(5.0, 5.0)]),
        ])
        .unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), Some(2));
        assert!(ds.get(ObjectId(1)).is_some());
        assert!(ds.get(ObjectId(7)).is_none());
        assert_eq!(ds.index_of(ObjectId(1)), Some(1));
        assert_eq!(ds.total_samples(), 3);
        assert!(!ds.is_certain());
    }

    #[test]
    fn duplicate_id_rejected() {
        let err = UncertainDataset::from_objects(vec![
            obj(0, vec![pt(0.0, 0.0)]),
            obj(0, vec![pt(1.0, 1.0)]),
        ])
        .unwrap_err();
        assert_eq!(err, UncertainError::DuplicateId(0));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = UncertainObject::certain(ObjectId(0), Point::from([0.0, 0.0]));
        let b = UncertainObject::certain(ObjectId(1), Point::from([0.0, 0.0, 0.0]));
        let err = UncertainDataset::from_objects(vec![a, b]).unwrap_err();
        assert!(matches!(err, UncertainError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_points_is_certain() {
        let ds = UncertainDataset::from_points(vec![pt(0.0, 0.0), pt(1.0, 1.0)]).unwrap();
        assert!(ds.is_certain());
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.object_at(1).certain_point(), &pt(1.0, 1.0));
    }

    #[test]
    fn empty_dataset() {
        let ds = UncertainDataset::new();
        assert!(ds.is_empty());
        assert_eq!(ds.dim(), None);
        assert!(ds.is_certain()); // vacuously
    }

    #[test]
    fn remove_preserves_order_and_positions() {
        let mut ds = UncertainDataset::from_objects(vec![
            obj(3, vec![pt(0.0, 0.0)]),
            obj(1, vec![pt(1.0, 1.0)]),
            obj(2, vec![pt(2.0, 2.0)]),
            obj(7, vec![pt(3.0, 3.0)]),
        ])
        .unwrap();
        let e0 = ds.epoch();
        let removed = ds.remove(ObjectId(1)).unwrap();
        assert_eq!(removed.id(), ObjectId(1));
        assert_eq!(ds.epoch(), e0.next());
        // Survivors keep their relative order, with positions shifted.
        let ids: Vec<u32> = ds.iter().map(|o| o.id().0).collect();
        assert_eq!(ids, vec![3, 2, 7]);
        assert_eq!(ds.index_of(ObjectId(2)), Some(1));
        assert_eq!(ds.index_of(ObjectId(7)), Some(2));
        assert_eq!(ds.index_of(ObjectId(1)), None);
        // Unknown ids are a no-op without an epoch bump.
        assert!(ds.remove(ObjectId(99)).is_none());
        assert_eq!(ds.epoch(), e0.next());
    }

    #[test]
    fn replace_keeps_position_and_validates() {
        let mut ds = UncertainDataset::from_objects(vec![
            obj(0, vec![pt(0.0, 0.0)]),
            obj(1, vec![pt(1.0, 1.0)]),
        ])
        .unwrap();
        let old = ds
            .replace(obj(1, vec![pt(5.0, 5.0), pt(6.0, 6.0)]))
            .unwrap();
        assert_eq!(old.certain_point(), &pt(1.0, 1.0));
        assert_eq!(ds.index_of(ObjectId(1)), Some(1));
        assert_eq!(ds.get(ObjectId(1)).unwrap().sample_count(), 2);
        assert_eq!(
            ds.replace(obj(9, vec![pt(0.0, 0.0)])).unwrap_err(),
            UncertainError::UnknownId(9)
        );
        let wrong_dim = UncertainObject::certain(ObjectId(0), Point::from([0.0, 0.0, 0.0]));
        assert!(matches!(
            ds.replace(wrong_dim).unwrap_err(),
            UncertainError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn apply_routes_updates_and_returns_epochs() {
        use crate::update::Update;
        let mut ds = UncertainDataset::from_points(vec![pt(0.0, 0.0)]).unwrap();
        let e1 = ds
            .apply(Update::Insert(obj(5, vec![pt(2.0, 2.0)])))
            .unwrap();
        let e2 = ds
            .apply(Update::Replace(obj(5, vec![pt(3.0, 3.0)])))
            .unwrap();
        let e3 = ds.apply(Update::Delete(ObjectId(5))).unwrap();
        assert!(e1 < e2 && e2 < e3);
        assert_eq!(ds.len(), 1);
        assert_eq!(
            ds.apply(Update::Delete(ObjectId(5))).unwrap_err(),
            UncertainError::UnknownId(5)
        );
        assert_eq!(
            ds.apply(Update::Insert(obj(0, vec![pt(1.0, 1.0)])))
                .unwrap_err(),
            UncertainError::DuplicateId(0)
        );
    }

    #[test]
    fn certainty_tracking_survives_mutations() {
        let mut ds = UncertainDataset::from_points(vec![pt(0.0, 0.0), pt(1.0, 1.0)]).unwrap();
        assert!(ds.is_certain());
        // Replace a point with an uncertain object and back again.
        ds.replace(obj(0, vec![pt(2.0, 2.0), pt(3.0, 3.0)]))
            .unwrap();
        assert!(!ds.is_certain());
        ds.replace(obj(0, vec![pt(2.0, 2.0)])).unwrap();
        assert!(ds.is_certain());
        // Push an uncertain object, then remove it.
        ds.push(obj(9, vec![pt(4.0, 4.0), pt(5.0, 5.0)])).unwrap();
        assert!(!ds.is_certain());
        ds.remove(ObjectId(9)).unwrap();
        assert!(ds.is_certain());
        // The maintained count agrees with a full scan at every step.
        assert_eq!(ds.is_certain(), ds.iter().all(|o| o.is_certain()));
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let ds = UncertainDataset::from_objects(vec![
            obj(3, vec![pt(0.0, 0.0)]),
            obj(1, vec![pt(1.0, 1.0)]),
            obj(2, vec![pt(2.0, 2.0)]),
        ])
        .unwrap();
        let ids: Vec<u32> = ds.iter().map(|o| o.id().0).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }
}
