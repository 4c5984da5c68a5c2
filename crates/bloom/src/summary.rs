//! Content summaries: the paper-facing Bloom-filter wrapper.
//!
//! A *content summary* (§4.2) represents the set of objects a content
//! peer currently holds; a *directory summary* (§3.3) represents the
//! set of objects indexed by a whole directory peer. Both are Bloom
//! filters over object identifiers (`hash(url)`), sized per Table 1 at
//! `8 · nb-ob` bits where `nb-ob` is the number of objects a website
//! provides.

use std::sync::Arc;

use crate::filter::{probe_positions, rate_bits, BloomFilter};

/// Identifier of a web object: in the paper, `hash(url)`. The
/// identifier is global (website id is baked in by the workload
/// catalog), so summaries from different websites never collide
/// structurally.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The raw key.
    pub fn key(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{:x}", self.0)
    }
}

/// A Bloom-filter summary of a set of objects, sized per Table 1 of
/// the paper (8 bits per potential object).
///
/// A summary on the wire is an immutable value cloned into every
/// gossip subset entry, every view slot and every directory
/// broadcast, and in the scale-shaped deployments most content peers
/// hold a single object. A filter over zero or one insert is a pure
/// function of that object, so such a summary *is* its object id:
/// cloning it copies 16 bytes and its answers are computed from the
/// id's probes. Only two or more inserts put the bits behind an `Arc`,
/// whose clone is a reference-count increment; the rare mutation of a
/// shared filter copies on write. Every answer is the filter's answer,
/// false positives included.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContentSummary(Repr);

/// The form of a summary, chosen by its insert count alone (0, 1,
/// ≥ 2), so equal summaries share a form. `capacity` is a `u32` in
/// each variant to keep the summary at 16 bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Repr {
    Empty {
        capacity: u32,
    },
    One {
        capacity: u32,
        object: ObjectId,
    },
    Filter {
        capacity: u32,
        filter: Arc<BloomFilter>,
    },
}

/// A [`ContentSummary`] taken apart by [`ContentSummary::into_parts`]:
/// its form without the capacity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SummaryForm {
    /// No insert.
    Empty,
    /// One insert: the object itself.
    One(ObjectId),
    /// Two or more inserts: the shared filter over them.
    Filter(Arc<BloomFilter>),
}

/// Bits per object in a summary (Table 1: summary size = 8·nb-ob bits).
pub const BITS_PER_OBJECT: usize = 8;

/// Probes per object at [`BITS_PER_OBJECT`]: `round(8 · ln 2)`, what
/// [`BloomFilter::with_rate`] derives, as a constant so that a query
/// never pays for the rounding.
pub(crate) const PROBES: u32 = 6;

impl ContentSummary {
    /// An empty summary able to represent up to `capacity` objects
    /// (the paper: "the maximum number of objects held by a content
    /// peer is limited by the total number of objects provided by its
    /// website").
    pub fn empty(capacity: usize) -> Self {
        let capacity = u32::try_from(capacity).expect("summary capacity fits in u32");
        ContentSummary(Repr::Empty { capacity })
    }

    /// Put a summary back together from the parts
    /// [`ContentSummary::into_parts`] took it apart into. A filter
    /// must hold two or more inserts (fewer have a form of their own)
    /// and have the geometry of `capacity`, as every filter a summary
    /// gave out does; debug builds check both.
    pub fn from_parts(form: SummaryForm, capacity: usize) -> Self {
        let capacity = u32::try_from(capacity).expect("summary capacity fits in u32");
        ContentSummary(match form {
            SummaryForm::Empty => Repr::Empty { capacity },
            SummaryForm::One(object) => Repr::One { capacity, object },
            SummaryForm::Filter(filter) => {
                debug_assert!(
                    filter.items() >= 2,
                    "fewer than two inserts have a form of their own"
                );
                debug_assert_eq!(
                    filter.num_bits(),
                    rate_bits(capacity as usize, BITS_PER_OBJECT),
                    "a filter of another capacity's geometry"
                );
                Repr::Filter { capacity, filter }
            }
        })
    }

    /// Take the summary apart into its form and capacity, moving a
    /// filter's `Arc` out as it is: [`ContentSummary::from_parts`]
    /// puts back an equal summary sharing the same filter.
    pub fn into_parts(self) -> (SummaryForm, usize) {
        match self.0 {
            Repr::Empty { capacity } => (SummaryForm::Empty, capacity as usize),
            Repr::One { capacity, object } => (SummaryForm::One(object), capacity as usize),
            Repr::Filter { capacity, filter } => (SummaryForm::Filter(filter), capacity as usize),
        }
    }

    /// The insert count the summary reports.
    pub(crate) fn items(&self) -> usize {
        match &self.0 {
            Repr::Empty { .. } => 0,
            Repr::One { .. } => 1,
            Repr::Filter { filter, .. } => filter.items(),
        }
    }

    /// Build a summary from a set of object ids.
    pub fn from_objects<'a>(
        capacity: usize,
        objects: impl IntoIterator<Item = &'a ObjectId>,
    ) -> Self {
        let mut s = ContentSummary::empty(capacity);
        for o in objects {
            s.insert(*o);
        }
        s
    }

    /// Add one object (copies a shared filter on write).
    pub fn insert(&mut self, o: ObjectId) {
        match self.0 {
            Repr::Empty { capacity } => {
                self.0 = Repr::One {
                    capacity,
                    object: o,
                }
            }
            Repr::One { capacity, object } => {
                let mut filter = BloomFilter::with_rate(capacity as usize, BITS_PER_OBJECT);
                filter.insert(object.key());
                filter.insert(o.key());
                self.0 = Repr::Filter {
                    capacity,
                    filter: Arc::new(filter),
                };
            }
            Repr::Filter { ref mut filter, .. } => Arc::make_mut(filter).insert(o.key()),
        }
    }

    /// Probabilistic membership test (false positives possible, false
    /// negatives impossible).
    pub fn might_contain(&self, o: ObjectId) -> bool {
        match &self.0 {
            Repr::Empty { .. } => false,
            Repr::One { capacity, object } => {
                // The one-object filter's answer: `o`'s probes all land
                // on bits `object` set.
                if *object == o {
                    return true;
                }
                let m = rate_bits(*capacity as usize, BITS_PER_OBJECT) as u64;
                let mut set = [0usize; PROBES as usize];
                for (slot, p) in set.iter_mut().zip(probe_positions(m, PROBES, object.key())) {
                    *slot = p;
                }
                probe_positions(m, PROBES, o.key()).all(|p| set.contains(&p))
            }
            Repr::Filter { filter, .. } => filter.contains(o.key()),
        }
    }

    /// The design capacity (nb-ob).
    pub fn capacity(&self) -> usize {
        match self.0 {
            Repr::Empty { capacity }
            | Repr::One { capacity, .. }
            | Repr::Filter { capacity, .. } => capacity as usize,
        }
    }

    /// Wire size in bytes: what sending this summary costs, per the
    /// paper's `8·nb-ob` bits rule, whatever its form. A function of
    /// the capacity alone — the geometry every constructor sizes the
    /// filter by — so the traffic accounting, which asks three times
    /// per gossip message and once more per subset entry, never follows
    /// the `Arc` to a filter some other node built.
    #[inline]
    pub fn wire_size(&self) -> u32 {
        let bytes = rate_bits(self.capacity(), BITS_PER_OBJECT).div_ceil(8);
        if let Repr::Filter { filter, .. } = &self.0 {
            debug_assert_eq!(bytes, filter.byte_size());
        }
        bytes as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::rate_geometry;

    #[test]
    fn paper_sizing() {
        // nb-ob = 100 objects → 800 bits → 100 bytes on the wire.
        let s = ContentSummary::empty(100);
        assert_eq!(s.wire_size(), 100);
        assert_eq!(s.capacity(), 100);
    }

    /// `wire_size` is computed from the capacity; whatever way a
    /// summary was built, it must be what the filter would measure.
    #[test]
    fn wire_size_is_the_filters_byte_size_for_every_capacity() {
        for c in 0..4096 {
            let bytes = BloomFilter::with_rate(c, BITS_PER_OBJECT).byte_size();
            for n in 0..4 {
                let objs: Vec<ObjectId> = (0..n).map(|i| ObjectId(i * 31 + 7)).collect();
                for s in [
                    ContentSummary::from_objects(c, &objs),
                    crate::SummaryBits::empty(c).snapshot(objs.iter().copied(), objs.len()),
                ] {
                    assert_eq!(s.wire_size() as usize, bytes, "capacity {c}, {n} objects");
                }
            }
        }
    }

    /// The constant is the probe count `with_rate` derives at
    /// [`BITS_PER_OBJECT`], at every capacity.
    #[test]
    fn probes_is_the_rate_geometrys_k() {
        for c in [0, 1, 2, 100, 4096] {
            assert_eq!(rate_geometry(c, BITS_PER_OBJECT).1, PROBES);
        }
    }

    #[test]
    fn membership_roundtrip() {
        let objs: Vec<ObjectId> = (0..50).map(|i| ObjectId(i * 31 + 7)).collect();
        let s = ContentSummary::from_objects(100, &objs);
        for o in &objs {
            assert!(s.might_contain(*o));
        }
    }

    #[test]
    fn display_object_id() {
        assert_eq!(format!("{}", ObjectId(255)), "objff");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A summary never forgets an inserted object.
        #[test]
        fn no_false_negatives(ids in proptest::collection::vec(any::<u64>(), 1..80)) {
            let objs: Vec<ObjectId> = ids.iter().map(|&i| ObjectId(i)).collect();
            let s = ContentSummary::from_objects(objs.len(), &objs);
            for o in &objs {
                prop_assert!(s.might_contain(*o));
            }
        }

        /// Every form answers what the filter over the same inserts
        /// answers, false positives included: capacities of 8–32 bits
        /// make a one-object filter say "yes" to many absent objects.
        /// Duplicates count as inserts, so `[a, a]` is a filter.
        #[test]
        fn every_form_answers_as_the_filter(
            capacity in 1usize..5,
            inserts in proptest::collection::vec(0u64..6, 0..4),
            probes in proptest::collection::vec(any::<u64>(), 64..65),
        ) {
            let objs: Vec<ObjectId> = inserts.iter().map(|&i| ObjectId(i)).collect();
            let s = ContentSummary::from_objects(capacity, &objs);
            let mut f = BloomFilter::with_rate(capacity, BITS_PER_OBJECT);
            for o in &objs {
                f.insert(o.key());
            }
            let expect_form = match (&s.0, objs.len()) {
                (Repr::Empty { .. }, 0) | (Repr::One { .. }, 1) => true,
                (Repr::Filter { filter, .. }, n) => n >= 2 && **filter == f,
                _ => false,
            };
            prop_assert!(expect_form, "{} inserts gave {:?}", objs.len(), s);
            let (form, cap) = s.clone().into_parts();
            prop_assert_eq!(&ContentSummary::from_parts(form, cap), &s);
            prop_assert_eq!(s.items(), objs.len());
            prop_assert_eq!(s.wire_size() as usize, f.byte_size());
            for o in objs.iter().copied().chain(probes.into_iter().map(ObjectId)) {
                prop_assert_eq!(s.might_contain(o), f.contains(o.key()), "object {}", o);
            }
        }
    }
}
