//! Dense global page numbering over a fixed object layout.
//!
//! Object layouts are fixed for the lifetime of a run: the workload
//! registers objects `O0..On` in order, each with a known page count.
//! That makes every page addressable by a single dense *slot* — the
//! object's base offset (a prefix sum over preceding objects' page
//! counts) plus the page index. Hot per-page state can then live in flat
//! `Vec`s indexed by slot instead of `BTreeMap<(ObjectId, PageIndex), _>`
//! lookups.
//!
//! Slot order equals `PageId` order (objects ascending, pages ascending
//! within an object), so iterating a dense structure in slot order visits
//! pages in exactly the order the ordered maps did — determinism-neutral
//! by construction.

use crate::ids::{ObjectId, PageId, PageIndex};

/// Immutable mapping between [`PageId`]s and dense global slot numbers.
///
/// Built once from the object layout and shared (it is cheap enough to
/// clone, but typically wrapped in an `Arc` and handed to every node's
/// page store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageAtlas {
    /// `bases[o]` = slot of page 0 of object `o`; one trailing entry holds
    /// the total page count so `num_pages` is a subtraction.
    bases: Vec<usize>,
    /// Slot → `(object, page)` key, precomputed so reverse lookups are a
    /// single index and slot-indexed tables can hand out key references.
    keys: Vec<(ObjectId, PageIndex)>,
}

impl PageAtlas {
    /// Builds an atlas for objects `O0..On` where object `i` spans
    /// `pages_per_object[i]` pages.
    pub fn new(pages_per_object: &[u16]) -> Self {
        let mut bases = Vec::with_capacity(pages_per_object.len() + 1);
        let mut total = 0usize;
        for &n in pages_per_object {
            bases.push(total);
            total += usize::from(n);
        }
        bases.push(total);
        let mut keys = Vec::with_capacity(total);
        for (o, &n) in pages_per_object.iter().enumerate() {
            for p in 0..n {
                keys.push((ObjectId::new(o as u32), PageIndex::new(p)));
            }
        }
        PageAtlas { bases, keys }
    }

    /// An atlas of `objects` objects, each spanning `pages` pages.
    pub fn uniform(objects: u32, pages: u16) -> Self {
        Self::new(&vec![pages; objects as usize])
    }

    /// Number of objects in the layout.
    pub fn num_objects(&self) -> u32 {
        (self.bases.len() - 1) as u32
    }

    /// Total number of pages across all objects.
    pub fn total_pages(&self) -> usize {
        self.keys.len()
    }

    /// Number of pages of `object`.
    pub fn num_pages(&self, object: ObjectId) -> u16 {
        let o = object.index() as usize;
        (self.bases[o + 1] - self.bases[o]) as u16
    }

    /// The dense slot of `page`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via an explicit assertion, in release via
    /// the callee's bounds check) if the page lies outside the layout.
    pub fn slot(&self, page: PageId) -> usize {
        let o = page.object().index() as usize;
        let slot = self.bases[o] + usize::from(page.index().get());
        debug_assert!(
            slot < self.bases[o + 1],
            "page {page} outside object layout"
        );
        slot
    }

    /// The slot of page `page` of `object`, or `None` if the page lies
    /// outside the layout.
    pub fn try_slot(&self, object: ObjectId, page: PageIndex) -> Option<usize> {
        let o = object.index() as usize;
        let (start, end) = (*self.bases.get(o)?, *self.bases.get(o + 1)?);
        let slot = start + usize::from(page.get());
        (slot < end).then_some(slot)
    }

    /// The page stored at `slot` (inverse of [`PageAtlas::slot`]).
    pub fn page_id(&self, slot: usize) -> PageId {
        let (object, page) = self.keys[slot];
        PageId::new(object, page.get())
    }

    /// Every page's `(object, page)` key, in slot order.
    pub fn keys(&self) -> &[(ObjectId, PageIndex)] {
        &self.keys
    }

    /// The contiguous slot range spanned by `object`'s pages.
    pub fn object_slots(&self, object: ObjectId) -> std::ops::Range<usize> {
        let o = object.index() as usize;
        self.bases[o]..self.bases[o + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_and_ordered() {
        let atlas = PageAtlas::new(&[3, 1, 4]);
        assert_eq!(atlas.num_objects(), 3);
        assert_eq!(atlas.total_pages(), 8);
        let mut expected = 0;
        for o in 0..3u32 {
            for p in 0..atlas.num_pages(ObjectId::new(o)) {
                let id = PageId::new(ObjectId::new(o), p);
                assert_eq!(atlas.slot(id), expected);
                assert_eq!(atlas.page_id(expected), id);
                expected += 1;
            }
        }
    }

    #[test]
    fn slot_order_equals_page_id_order() {
        let atlas = PageAtlas::new(&[2, 5, 1]);
        let ids: Vec<PageId> = (0..atlas.total_pages()).map(|s| atlas.page_id(s)).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn uniform_layout() {
        let atlas = PageAtlas::uniform(4, 6);
        assert_eq!(atlas.total_pages(), 24);
        assert_eq!(atlas.num_pages(ObjectId::new(3)), 6);
        assert_eq!(atlas.slot(PageId::new(ObjectId::new(3), 5)), 23);
    }

    #[test]
    fn try_slot_rejects_pages_outside_the_layout() {
        let atlas = PageAtlas::new(&[2, 3]);
        let key = |o, p| (ObjectId::new(o), PageIndex::new(p));
        assert_eq!(atlas.try_slot(ObjectId::new(1), PageIndex::new(2)), Some(4));
        assert_eq!(atlas.try_slot(ObjectId::new(0), PageIndex::new(2)), None);
        assert_eq!(atlas.try_slot(ObjectId::new(2), PageIndex::new(0)), None);
        assert_eq!(atlas.keys()[4], key(1, 2));
    }

    #[test]
    fn empty_objects_are_allowed() {
        let atlas = PageAtlas::new(&[2, 0, 3]);
        assert_eq!(atlas.num_pages(ObjectId::new(1)), 0);
        assert_eq!(atlas.slot(PageId::new(ObjectId::new(2), 0)), 2);
    }
}
