//! One node's local page cache.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::atlas::PageAtlas;
use crate::ids::{ObjectId, PageId, Version};
use crate::page::{Page, PageData};
use crate::touched::TouchedSlots;

/// The local page cache of a single node.
///
/// Each site "keeps track of which locally cached pages have been made
/// dirty by transaction executions" (paper §4.1); that dirty information is
/// piggybacked on global lock releases to update the GDO page map.
///
/// Two storage layouts sit behind one API. A store built with
/// [`PageStore::new`] keeps ordered maps (any [`PageId`] goes); it is the
/// reference the atlas layout is tested against. A store built with
/// [`PageStore::with_atlas`] — what the engine uses — keeps only the pages
/// it caches, in a [`TouchedSlots`] keyed by the atlas's dense global page
/// numbering: every lookup on the simulation hot path is an array index,
/// and memory grows with the pages the node caches, not with the object
/// space. Observable iteration (dirty pages) is in `PageId` order in both
/// layouts, so the simulation is deterministic either way.
#[derive(Debug, Clone)]
pub struct PageStore {
    page_size: usize,
    slots: Slots,
}

#[derive(Debug, Clone)]
enum Slots {
    /// Ordered-map layout: accepts arbitrary page ids.
    Sparse {
        pages: BTreeMap<PageId, Page>,
        dirty: BTreeSet<PageId>,
    },
    /// Cached pages of a fixed object layout, keyed by atlas slot.
    Atlas {
        atlas: Arc<PageAtlas>,
        pages: TouchedSlots<Cached>,
    },
}

/// One cached page of the atlas layout with its dirty bit.
#[derive(Debug, Clone)]
struct Cached {
    page: Page,
    dirty: bool,
}

impl Cached {
    fn clean(page: Page) -> Self {
        Cached { page, dirty: false }
    }
}

/// Iterator over a store's dirty pages, in `PageId` order.
#[derive(Debug)]
pub struct DirtyPages<'a> {
    inner: DirtyInner<'a>,
}

#[derive(Debug)]
enum DirtyInner<'a> {
    Sparse(std::collections::btree_set::Iter<'a, PageId>),
    Atlas(std::vec::IntoIter<PageId>),
}

impl Iterator for DirtyPages<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        match &mut self.inner {
            DirtyInner::Sparse(it) => it.next().copied(),
            DirtyInner::Atlas(it) => it.next(),
        }
    }
}

impl PageStore {
    /// Creates an empty map-backed store whose pages are all `page_size`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size < 8` (see [`Page::zeroed`]).
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 8, "page size must be at least 8 bytes");
        PageStore {
            page_size,
            slots: Slots::Sparse {
                pages: BTreeMap::new(),
                dirty: BTreeSet::new(),
            },
        }
    }

    /// Creates an empty store over `atlas`'s object layout — every page
    /// operation is an array index, and only cached pages take memory.
    /// Only pages inside the atlas's layout may be touched.
    ///
    /// # Panics
    ///
    /// Panics if `page_size < 8`.
    pub fn with_atlas(page_size: usize, atlas: Arc<PageAtlas>) -> Self {
        assert!(page_size >= 8, "page size must be at least 8 bytes");
        let pages = TouchedSlots::new(atlas.total_pages());
        PageStore {
            page_size,
            slots: Slots::Atlas { atlas, pages },
        }
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Sparse { pages, .. } => pages.len(),
            Slots::Atlas { pages, .. } => pages.len(),
        }
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of page data cached locally (pages × page size). Cheap: the
    /// state sampler reads this per node at every sample tick.
    #[must_use]
    pub fn cached_bytes(&self) -> u64 {
        self.len() as u64 * self.page_size as u64
    }

    /// True if `page` is cached locally (at any version).
    pub fn contains(&self, page: PageId) -> bool {
        match &self.slots {
            Slots::Sparse { pages, .. } => pages.contains_key(&page),
            Slots::Atlas { atlas, pages } => pages.contains(atlas.slot(page)),
        }
    }

    /// The cached version of `page`, if cached.
    pub fn version_of(&self, page: PageId) -> Option<Version> {
        self.get(page).map(Page::version)
    }

    /// Read-only access to a cached page.
    pub fn get(&self, page: PageId) -> Option<&Page> {
        match &self.slots {
            Slots::Sparse { pages, .. } => pages.get(&page),
            Slots::Atlas { atlas, pages } => pages.get(atlas.slot(page)).map(|c| &c.page),
        }
    }

    /// Installs (or replaces) a page received from another node. Accepts
    /// either owned bytes or a shared [`PageData`] handle — passing the
    /// handle makes the install a refcount bump.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `page_size` bytes.
    pub fn install(&mut self, page: PageId, version: Version, data: impl Into<PageData>) {
        let data = data.into();
        assert_eq!(data.len(), self.page_size, "installed page has wrong size");
        let installed = Page::from_parts(version, data);
        match &mut self.slots {
            Slots::Sparse { pages, dirty } => {
                pages.insert(page, installed);
                dirty.remove(&page);
            }
            Slots::Atlas { atlas, pages } => {
                pages.insert(atlas.slot(page), Cached::clean(installed));
            }
        }
    }

    /// Ensures `page` exists locally, creating a zeroed
    /// [`Version::INITIAL`] page if absent. Returns its current version.
    pub fn ensure(&mut self, page: PageId) -> Version {
        self.entry(page, false).version()
    }

    /// Folds a write `stamp` into `page`'s content chain and marks it
    /// dirty. Creates the page (zeroed) if absent. Returns the new chain.
    pub fn apply_stamp(&mut self, page: PageId, stamp: u64) -> u64 {
        self.entry(page, true).apply_stamp(stamp)
    }

    /// Overwrites the payload prefix of `page` and marks it dirty.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than the page size.
    pub fn write(&mut self, page: PageId, bytes: &[u8]) {
        self.entry(page, true).write(bytes);
    }

    /// The cached page, created zeroed at [`Version::INITIAL`] if absent;
    /// `dirty` also sets its dirty bit. One slot resolution covers both.
    fn entry(&mut self, page: PageId, dirty: bool) -> &mut Page {
        let page_size = self.page_size;
        match &mut self.slots {
            Slots::Sparse { pages, dirty: set } => {
                if dirty {
                    set.insert(page);
                }
                pages.entry(page).or_insert_with(|| Page::zeroed(page_size))
            }
            Slots::Atlas { atlas, pages } => {
                let cached = pages.get_or_insert_with(atlas.slot(page), || {
                    Cached::clean(Page::zeroed(page_size))
                });
                cached.dirty |= dirty;
                &mut cached.page
            }
        }
    }

    /// The content chain of `page` (zero if the page is absent).
    pub fn chain(&self, page: PageId) -> u64 {
        self.get(page).map_or(0, Page::chain)
    }

    /// True if `page` has uncommitted local modifications.
    pub fn is_dirty(&self, page: PageId) -> bool {
        match &self.slots {
            Slots::Sparse { dirty, .. } => dirty.contains(&page),
            Slots::Atlas { atlas, pages } => pages.get(atlas.slot(page)).is_some_and(|c| c.dirty),
        }
    }

    /// All dirty pages, in deterministic (`PageId`) order.
    pub fn dirty_pages(&self) -> DirtyPages<'_> {
        DirtyPages {
            inner: match &self.slots {
                Slots::Sparse { dirty, .. } => DirtyInner::Sparse(dirty.iter()),
                Slots::Atlas { atlas, pages } => {
                    // Slot order is `PageId` order.
                    let mut slots: Vec<usize> = pages
                        .iter()
                        .filter(|(_, c)| c.dirty)
                        .map(|(slot, _)| slot)
                        .collect();
                    slots.sort_unstable();
                    let ids: Vec<PageId> = slots.into_iter().map(|s| atlas.page_id(s)).collect();
                    DirtyInner::Atlas(ids.into_iter())
                }
            },
        }
    }

    /// Dirty pages belonging to `object`, in page-index order.
    pub fn dirty_pages_of(&self, object: ObjectId) -> Vec<PageId> {
        match &self.slots {
            Slots::Sparse { dirty, .. } => dirty
                .iter()
                .copied()
                .filter(|p| p.object() == object)
                .collect(),
            Slots::Atlas { atlas, pages } => atlas
                .object_slots(object)
                .filter(|&s| pages.get(s).is_some_and(|c| c.dirty))
                .map(|s| atlas.page_id(s))
                .collect(),
        }
    }

    /// Publishes the dirty pages of `object` at `new_version` (the family's
    /// root has committed): stamps each with the version and clears its
    /// dirty bit. Returns the published pages.
    pub fn publish_object(&mut self, object: ObjectId, new_version: Version) -> Vec<PageId> {
        let published = self.dirty_pages_of(object);
        for &page in &published {
            self.publish_page(page, new_version);
        }
        published
    }

    /// Publishes a single dirty page at `version` (pages of one object may
    /// carry different version counters, so batch publication via
    /// [`PageStore::publish_object`] is not always applicable).
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached.
    pub fn publish_page(&mut self, page: PageId, version: Version) {
        match &mut self.slots {
            Slots::Sparse { pages, dirty } => {
                pages
                    .get_mut(&page)
                    .expect("publish of uncached page")
                    .set_version(version);
                dirty.remove(&page);
            }
            Slots::Atlas { atlas, pages } => {
                let cached = pages
                    .get_mut(atlas.slot(page))
                    .expect("publish of uncached page");
                cached.page.set_version(version);
                cached.dirty = false;
            }
        }
    }

    /// Clears the dirty bit of `page` without publishing (used by UNDO).
    pub fn mark_clean(&mut self, page: PageId) {
        match &mut self.slots {
            Slots::Sparse { dirty, .. } => {
                dirty.remove(&page);
            }
            Slots::Atlas { atlas, pages } => {
                if let Some(cached) = pages.get_mut(atlas.slot(page)) {
                    cached.dirty = false;
                }
            }
        }
    }

    /// Replaces the full contents of `page` (used by UNDO/shadow restore);
    /// version and dirty state are restored by the caller.
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached or `data` has the wrong size.
    pub fn restore(&mut self, page: PageId, version: Version, data: impl Into<PageData>) {
        let data = data.into();
        assert_eq!(data.len(), self.page_size, "restored page has wrong size");
        let restored = Page::from_parts(version, data);
        match &mut self.slots {
            Slots::Sparse { pages, .. } => {
                let p = pages.get_mut(&page).expect("restore of uncached page");
                *p = restored;
            }
            Slots::Atlas { atlas, pages } => {
                pages
                    .get_mut(atlas.slot(page))
                    .expect("restore of uncached page")
                    .page = restored;
            }
        }
    }

    /// Drops `page` from the cache entirely (used by UNDO when the page did
    /// not exist before the aborted transaction touched it).
    pub fn evict(&mut self, page: PageId) {
        match &mut self.slots {
            Slots::Sparse { pages, dirty } => {
                pages.remove(&page);
                dirty.remove(&page);
            }
            Slots::Atlas { atlas, pages } => {
                pages.remove(atlas.slot(page));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(o: u32, i: u16) -> PageId {
        PageId::new(ObjectId::new(o), i)
    }

    #[test]
    fn empty_store() {
        let s = PageStore::new(64);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(pid(0, 0)));
        assert_eq!(s.version_of(pid(0, 0)), None);
        assert_eq!(s.chain(pid(0, 0)), 0);
    }

    #[test]
    fn install_and_read_back() {
        let mut s = PageStore::new(16);
        s.install(pid(1, 0), Version::new(3), vec![7; 16]);
        assert!(s.contains(pid(1, 0)));
        assert_eq!(s.version_of(pid(1, 0)), Some(Version::new(3)));
        assert_eq!(s.get(pid(1, 0)).unwrap().data()[0], 7);
        assert!(!s.is_dirty(pid(1, 0)), "installed pages are clean");
    }

    #[test]
    fn stamp_marks_dirty_and_chains() {
        let mut s = PageStore::new(8);
        let c1 = s.apply_stamp(pid(0, 1), 42);
        assert!(s.is_dirty(pid(0, 1)));
        assert_eq!(s.chain(pid(0, 1)), c1);
        let c2 = s.apply_stamp(pid(0, 1), 43);
        assert_ne!(c1, c2);
    }

    #[test]
    fn publish_versions_and_cleans() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(2, 0), 1);
        s.apply_stamp(pid(2, 1), 1);
        s.apply_stamp(pid(3, 0), 1); // different object, untouched by publish
        let published = s.publish_object(ObjectId::new(2), Version::new(5));
        assert_eq!(published, vec![pid(2, 0), pid(2, 1)]);
        assert_eq!(s.version_of(pid(2, 0)), Some(Version::new(5)));
        assert!(!s.is_dirty(pid(2, 0)));
        assert!(s.is_dirty(pid(3, 0)));
    }

    #[test]
    fn dirty_iteration_is_ordered() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(1, 2), 1);
        s.apply_stamp(pid(0, 5), 1);
        s.apply_stamp(pid(1, 0), 1);
        let dirty: Vec<PageId> = s.dirty_pages().collect();
        assert_eq!(dirty, vec![pid(0, 5), pid(1, 0), pid(1, 2)]);
    }

    #[test]
    fn publish_page_sets_individual_versions() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(0, 0), 1);
        s.apply_stamp(pid(0, 1), 1);
        s.publish_page(pid(0, 0), Version::new(4));
        s.publish_page(pid(0, 1), Version::new(2));
        assert_eq!(s.version_of(pid(0, 0)), Some(Version::new(4)));
        assert_eq!(s.version_of(pid(0, 1)), Some(Version::new(2)));
        assert!(!s.is_dirty(pid(0, 0)) && !s.is_dirty(pid(0, 1)));
    }

    #[test]
    fn restore_and_evict() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(0, 0), 9);
        s.restore(pid(0, 0), Version::INITIAL, vec![0; 8]);
        assert_eq!(s.chain(pid(0, 0)), 0);
        s.evict(pid(0, 0));
        assert!(!s.contains(pid(0, 0)));
    }

    #[test]
    fn install_clears_dirty_bit() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(0, 0), 1);
        assert!(s.is_dirty(pid(0, 0)));
        s.install(pid(0, 0), Version::new(2), vec![0; 8]);
        assert!(!s.is_dirty(pid(0, 0)));
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn install_checks_size() {
        PageStore::new(16).install(pid(0, 0), Version::INITIAL, vec![0; 8]);
    }

    /// Asserts every observable of the two stores agrees, page by page.
    fn assert_same(sparse: &PageStore, atlas_store: &PageStore, atlas: &PageAtlas, ctx: &str) {
        assert_eq!(sparse.len(), atlas_store.len(), "{ctx}: len");
        assert_eq!(
            sparse.dirty_pages().collect::<Vec<_>>(),
            atlas_store.dirty_pages().collect::<Vec<_>>(),
            "{ctx}: dirty_pages"
        );
        for o in 0..atlas.num_objects() {
            let object = ObjectId::new(o);
            assert_eq!(
                sparse.dirty_pages_of(object),
                atlas_store.dirty_pages_of(object),
                "{ctx}: dirty_pages_of {object}"
            );
        }
        for slot in 0..atlas.total_pages() {
            let page = atlas.page_id(slot);
            assert_eq!(sparse.get(page), atlas_store.get(page), "{ctx}: get {page}");
            assert_eq!(sparse.contains(page), atlas_store.contains(page));
            assert_eq!(sparse.version_of(page), atlas_store.version_of(page));
            assert_eq!(
                sparse.chain(page),
                atlas_store.chain(page),
                "{ctx}: chain {page}"
            );
            assert_eq!(
                sparse.is_dirty(page),
                atlas_store.is_dirty(page),
                "{ctx}: dirty {page}"
            );
        }
    }

    /// Differential test of the atlas layout against the map-backed
    /// reference: seeded random operation streams over every mutating
    /// call, with every observable compared after each operation.
    #[test]
    fn dense_layout_matches_sparse_layout() {
        use lotec_sim::SimRng;

        let atlas = Arc::new(PageAtlas::new(&[3, 1, 4, 2, 5]));
        let size = 16;
        let total = atlas.total_pages();

        // Deterministic preamble: evicting a middle entry moves the last
        // entry into its place; the moved page must read back unchanged.
        let mut sparse = PageStore::new(size);
        let mut dense = PageStore::with_atlas(size, Arc::clone(&atlas));
        for store in [&mut sparse, &mut dense] {
            store.install(pid(0, 0), Version::new(1), vec![1; size]);
            store.apply_stamp(pid(2, 3), 7);
            store.install(pid(4, 4), Version::new(3), vec![3; size]);
            store.evict(pid(2, 3));
        }
        assert_same(&sparse, &dense, &atlas, "middle evict");
        assert_eq!(dense.version_of(pid(4, 4)), Some(Version::new(3)));
        assert_eq!(dense.get(pid(4, 4)).unwrap().data()[15], 3);
        for store in [&mut sparse, &mut dense] {
            store.apply_stamp(pid(4, 4), 9);
            store.install(pid(2, 3), Version::new(2), vec![2; size]);
        }
        assert_same(&sparse, &dense, &atlas, "re-install after evict");

        for seed in 0..6u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut sparse = PageStore::new(size);
            let mut dense = PageStore::with_atlas(size, Arc::clone(&atlas));
            for step in 0..600 {
                let page = atlas.page_id(rng.usize_range(0, total));
                let version = Version::new(rng.next_below(5));
                let byte = rng.next_below(256) as u8;
                let op = rng.next_below(10);
                let cached = sparse.contains(page);
                for store in [&mut sparse, &mut dense] {
                    match op {
                        0 => {
                            store.ensure(page);
                        }
                        1 => store.install(page, version, vec![byte; size]),
                        2 => {
                            store.apply_stamp(page, u64::from(byte) + 1);
                        }
                        3 => store.write(page, &vec![byte; 1 + usize::from(byte) % size]),
                        4 if cached => store.publish_page(page, version),
                        5 => {
                            store.publish_object(page.object(), version);
                        }
                        6 => store.mark_clean(page),
                        7 if cached => store.restore(page, version, vec![byte; size]),
                        8 => store.evict(page),
                        9 => {
                            // Re-install after evict: the slot is reused.
                            store.evict(page);
                            store.install(page, version, vec![byte; size]);
                        }
                        _ => {}
                    }
                }
                assert_same(
                    &sparse,
                    &dense,
                    &atlas,
                    &format!("seed {seed} step {step} op {op}"),
                );
            }
        }
    }

    #[test]
    fn dense_install_restore_roundtrip() {
        let atlas = Arc::new(PageAtlas::uniform(2, 3));
        let mut s = PageStore::with_atlas(16, atlas);
        s.install(pid(1, 2), Version::new(3), vec![9; 16]);
        assert_eq!(s.len(), 1);
        s.apply_stamp(pid(1, 2), 5);
        s.restore(pid(1, 2), Version::new(3), vec![9; 16]);
        s.mark_clean(pid(1, 2));
        assert_eq!(s.get(pid(1, 2)).unwrap().data()[8], 9);
        assert!(!s.is_dirty(pid(1, 2)));
    }

    #[test]
    #[should_panic]
    fn dense_rejects_pages_outside_layout() {
        let atlas = Arc::new(PageAtlas::uniform(1, 2));
        let mut s = PageStore::with_atlas(8, atlas);
        s.ensure(pid(4, 0));
    }
}
