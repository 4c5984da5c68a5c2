//! A view entry's content summary in one word.
//!
//! Gossip views keep one summary per contact, and their buffers are
//! the largest live allocation of a deployment. A [`ContentSummary`]
//! is 16 bytes and has no spare bits, so `Option<ContentSummary>`
//! makes a view entry 24 bytes. Within one content role, though,
//! nearly every summary has the role's capacity and names objects of
//! the role's website, so the [`Scope`] (website, capacity) can be
//! left out and what remains fits one tagged word:
//!
//! * **empty** — the tag alone;
//! * **one object** of the scope's website — its
//!   [`workload::catalog_rank`] rank above the tag;
//! * **a filter** — the raw pointer of the summary's
//!   `Arc<BloomFilter>`, the very `Arc` the sender's snapshot shares
//!   (8-byte aligned, so its two low bits are the tag);
//! * **anything else** — a capacity other than the scope's, an object
//!   of another website or a made-up id — a boxed [`ContentSummary`],
//!   so that every answer stays exact.
//!
//! The word is never zero, so "no summary yet" is `None` at no cost:
//! a view entry of a peer id, an age and an `Option<SummaryWord>` is
//! 16 bytes. This module is the crate's only `unsafe` code.

use std::fmt;
use std::mem::align_of;
use std::num::NonZeroUsize;
use std::ptr::NonNull;
use std::sync::Arc;

use bloom::{BloomFilter, ContentSummary, ObjectId, SummaryForm};
use workload::{catalog_id, catalog_rank, WebsiteId};

/// The low bits of a word that name its form.
const TAG: usize = 0b11;
const FILTER: usize = 0b00;
const EMPTY: usize = 0b01;
const ONE: usize = 0b10;
const BOXED: usize = 0b11;

// The pointer forms keep their tag in bits alignment leaves zero.
const _: () = assert!(align_of::<BloomFilter>() > TAG && align_of::<ContentSummary>() > TAG);

/// What a content role's summary words leave out: the role's website
/// and summary capacity.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scope {
    pub(crate) website: WebsiteId,
    pub(crate) capacity: usize,
}

/// A [`ContentSummary`] held in one word relative to a [`Scope`]:
/// [`SummaryWord::encode`] and [`SummaryWord::decode`] must be given
/// the same scope.
pub(crate) struct SummaryWord(NonNull<u8>);

// SAFETY: a word owns what it points at — one strong count of an
// `Arc<BloomFilter>` or a `Box<ContentSummary>`, both `Send` — and
// nothing else; the integer forms own nothing.
unsafe impl Send for SummaryWord {}

impl SummaryWord {
    /// Hold `s`, taking a filter's `Arc` over as it is.
    pub(crate) fn encode(s: ContentSummary, scope: Scope) -> Self {
        if s.capacity() != scope.capacity {
            return Self::boxed(s);
        }
        match s.into_parts().0 {
            SummaryForm::Empty => Self::int(EMPTY),
            SummaryForm::One(o) => match catalog_rank(o) {
                Some((ws, rank)) if ws == scope.website && rank < 1 << (usize::BITS - 2) => {
                    Self::int(rank << 2 | ONE)
                }
                _ => Self::boxed(ContentSummary::from_parts(
                    SummaryForm::One(o),
                    scope.capacity,
                )),
            },
            SummaryForm::Filter(filter) => {
                let raw = Arc::into_raw(filter).cast_mut().cast::<u8>();
                SummaryWord(NonNull::new(raw).expect("an Arc is never null"))
            }
        }
    }

    /// The summary held, equal to the one encoded (sharing its filter).
    pub(crate) fn decode(&self, scope: Scope) -> ContentSummary {
        match self.tag() {
            FILTER => {
                let raw = self.filter_ptr();
                // SAFETY: `raw` came from `Arc::into_raw` and the word
                // owns one strong count, alive while `self` is
                // borrowed; the count added here is the returned `Arc`'s.
                let filter = unsafe {
                    Arc::increment_strong_count(raw);
                    Arc::from_raw(raw)
                };
                ContentSummary::from_parts(SummaryForm::Filter(filter), scope.capacity)
            }
            EMPTY => ContentSummary::empty(scope.capacity),
            ONE => self.one(scope),
            _ => self.boxed_ref().clone(),
        }
    }

    /// [`ContentSummary::might_contain`] of the summary held, without
    /// copying it or touching a filter's count.
    pub(crate) fn might_contain(&self, o: ObjectId, scope: Scope) -> bool {
        match self.tag() {
            // SAFETY: the word owns one strong count of the filter,
            // alive while `self` is borrowed.
            FILTER => unsafe { &*self.filter_ptr() }.contains(o.key()),
            EMPTY => false,
            ONE => self.one(scope).might_contain(o),
            _ => self.boxed_ref().might_contain(o),
        }
    }

    fn int(bits: usize) -> Self {
        SummaryWord(NonNull::without_provenance(
            NonZeroUsize::new(bits).expect("every integer form has a nonzero tag"),
        ))
    }

    fn boxed(s: ContentSummary) -> Self {
        let raw = NonNull::from(Box::leak(Box::new(s))).cast::<u8>();
        SummaryWord(raw.map_addr(|a| a | BOXED))
    }

    fn tag(&self) -> usize {
        self.0.addr().get() & TAG
    }

    /// The one-object summary of the rank a `ONE` word holds.
    fn one(&self, scope: Scope) -> ContentSummary {
        let rank = self.0.addr().get() >> 2;
        ContentSummary::from_parts(
            SummaryForm::One(catalog_id(scope.website, rank)),
            scope.capacity,
        )
    }

    /// The pointer a `FILTER` word holds (its tag bits are zero).
    fn filter_ptr(&self) -> *const BloomFilter {
        debug_assert_eq!(self.tag(), FILTER);
        self.0.as_ptr().cast::<BloomFilter>()
    }

    /// The pointer a `BOXED` word holds, untagged.
    fn boxed_ptr(&self) -> *mut ContentSummary {
        debug_assert_eq!(self.tag(), BOXED);
        self.0
            .as_ptr()
            .map_addr(|a| a & !TAG)
            .cast::<ContentSummary>()
    }

    fn boxed_ref(&self) -> &ContentSummary {
        // SAFETY: the word owns the box, alive while `self` is borrowed.
        unsafe { &*self.boxed_ptr() }
    }
}

impl Clone for SummaryWord {
    fn clone(&self) -> Self {
        match self.tag() {
            FILTER => {
                // SAFETY: `filter_ptr` came from `Arc::into_raw` and the
                // word's own strong count keeps it alive; the added
                // count is the clone's.
                unsafe { Arc::increment_strong_count(self.filter_ptr()) };
                SummaryWord(self.0)
            }
            BOXED => Self::boxed(self.boxed_ref().clone()),
            _ => SummaryWord(self.0),
        }
    }
}

impl Drop for SummaryWord {
    fn drop(&mut self) {
        match self.tag() {
            // SAFETY: the word owns one strong count of the `Arc` its
            // pointer came from, released here once.
            FILTER => drop(unsafe { Arc::from_raw(self.filter_ptr()) }),
            // SAFETY: the word owns the box its pointer came from,
            // freed here once.
            BOXED => drop(unsafe { Box::from_raw(self.boxed_ptr()) }),
            _ => {}
        }
    }
}

impl fmt::Debug for SummaryWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tag() {
            // SAFETY: as in `might_contain`.
            FILTER => f
                .debug_tuple("Filter")
                .field(unsafe { &*self.filter_ptr() })
                .finish(),
            EMPTY => f.write_str("Empty"),
            ONE => write!(f, "One(rank {})", self.0.addr().get() >> 2),
            _ => f.debug_tuple("Boxed").field(self.boxed_ref()).finish(),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::content::tests::filter_of;
    use proptest::prelude::*;

    const SCOPE: Scope = Scope {
        website: WebsiteId(1),
        capacity: 20,
    };

    /// An object of the scope's website, of another website, or a
    /// made-up id shaped like the benchmark probe's.
    fn object(kind: u8, i: u64) -> ObjectId {
        match kind {
            0 => catalog_id(SCOPE.website, i as usize),
            1 => catalog_id(WebsiteId(2), i as usize),
            _ => ObjectId(i * 7919 + 3),
        }
    }

    proptest! {
        /// Every form — empty, one object of any kind, a filter, at the
        /// scope's capacity or another — decodes to an equal summary
        /// (a filter to the very `Arc` encoded) and answers every probe
        /// as the summary does, false positives included.
        #[test]
        fn a_word_is_the_summary_it_encodes(
            own_capacity in any::<bool>(),
            other_capacity in 1usize..40,
            inserts in proptest::collection::vec((0u8..3, 0u64..40), 0..4),
        ) {
            let capacity = if own_capacity { SCOPE.capacity } else { other_capacity };
            let objs: Vec<ObjectId> = inserts.iter().map(|&(k, i)| object(k, i)).collect();
            let s = ContentSummary::from_objects(capacity, &objs);
            let w = SummaryWord::encode(s.clone(), SCOPE);
            let back = w.decode(SCOPE);
            prop_assert_eq!(&back, &s);
            if let Some(f) = filter_of(&s) {
                prop_assert!(Arc::ptr_eq(&f, &filter_of(&back).expect("a filter decodes to one")));
            }
            for kind in 0..3 {
                for i in 0..60 {
                    let o = object(kind, i);
                    prop_assert_eq!(w.might_contain(o, SCOPE), s.might_contain(o), "object {}", o);
                }
            }
            prop_assert_eq!(&w.clone().decode(SCOPE), &s);
        }
    }

    /// Summaries of the scope's own shape take no box; the rest do.
    #[test]
    fn only_foreign_shapes_are_boxed() {
        let boxed = |s: ContentSummary| SummaryWord::encode(s, SCOPE).tag() == BOXED;
        let own = catalog_id(SCOPE.website, 7);
        assert!(!boxed(ContentSummary::empty(SCOPE.capacity)));
        assert!(!boxed(ContentSummary::from_objects(SCOPE.capacity, &[own])));
        assert!(!boxed(ContentSummary::from_objects(
            SCOPE.capacity,
            &[own, object(2, 1)]
        )));
        assert!(boxed(ContentSummary::empty(SCOPE.capacity + 1)));
        assert!(boxed(ContentSummary::from_objects(
            SCOPE.capacity,
            &[object(1, 7)]
        )));
        assert!(boxed(ContentSummary::from_objects(
            SCOPE.capacity,
            &[object(2, 7)]
        )));
    }
}
