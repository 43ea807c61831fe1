//! Dataset versioning and the update delta type of live sessions.
//!
//! A long-lived explain session serves a *mutating* dataset: objects
//! arrive, retire, or change their sample sets while explanations keep
//! being requested. Following Meliou et al. and Salimi & Bertossi,
//! causes and responsibilities are functions of the *current* instance,
//! so every mutation advances a monotone [`Epoch`] that consumers (epoch
//! snapshots, replication, logging) can use to tell "computed against
//! which version?".
//!
//! [`Update`] is the single delta type both data models share: it is
//! generic over the object representation, so `Update<UncertainObject>`
//! drives discrete-sample sessions and `Update<PdfObject>` drives
//! continuous-pdf sessions through identical code paths.

use crate::object::{ObjectId, UncertainObject};
use crate::pdf::PdfObject;
use std::fmt;

/// A monotone dataset version. Every successful mutation (push, remove,
/// replace) advances the epoch by one; epochs order updates within one
/// dataset lineage (two datasets holding identical objects may sit at
/// different epochs if they took different paths there).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch after one more mutation.
    #[inline]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One mutation of a dataset, generic over the object model
/// (`UncertainObject` for discrete-sample data, `PdfObject` for the
/// continuous model).
#[derive(Clone, Debug, PartialEq)]
pub enum Update<O> {
    /// Add a new object (its id must be fresh).
    Insert(O),
    /// Remove the object with this id.
    Delete(ObjectId),
    /// Swap the object with the carried object's id for the carried
    /// object, keeping its dataset position.
    Replace(O),
}

/// Object models that expose their identifier — what [`Update::id`]
/// needs to name the touched object uniformly.
pub trait Identified {
    fn object_id(&self) -> ObjectId;
}

impl Identified for UncertainObject {
    fn object_id(&self) -> ObjectId {
        self.id()
    }
}

impl Identified for PdfObject {
    fn object_id(&self) -> ObjectId {
        self.id()
    }
}

impl<O: Identified> Update<O> {
    /// The id of the object this update touches.
    pub fn id(&self) -> ObjectId {
        match self {
            Update::Insert(o) | Update::Replace(o) => o.object_id(),
            Update::Delete(id) => *id,
        }
    }

    /// Short verb for logs and stats lines.
    pub fn verb(&self) -> &'static str {
        match self {
            Update::Insert(_) => "insert",
            Update::Delete(_) => "delete",
            Update::Replace(_) => "replace",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;

    #[test]
    fn epoch_orders_and_displays() {
        let e = Epoch::default();
        assert_eq!(e, Epoch(0));
        assert!(e.next() > e);
        assert_eq!(e.next(), Epoch(1));
        assert_eq!(Epoch(7).to_string(), "e7");
    }

    #[test]
    fn update_id_and_verb() {
        let obj = UncertainObject::certain(ObjectId(3), Point::from([1.0, 2.0]));
        assert_eq!(Update::Insert(obj.clone()).id(), ObjectId(3));
        assert_eq!(Update::Replace(obj).verb(), "replace");
        let del: Update<UncertainObject> = Update::Delete(ObjectId(9));
        assert_eq!(del.id(), ObjectId(9));
        assert_eq!(del.verb(), "delete");
    }
}
