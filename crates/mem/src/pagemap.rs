//! The GDO-side page map: which node holds the newest version of each page
//! of an object.
//!
//! Under LOTEC "there may not be a single site at which a complete,
//! up-to-date copy of a given object exists. Instead, the up-to-date parts
//! of an object may be scattered throughout the distributed system on
//! multiple nodes. The locations of the up-to-date pages of each object are
//! tracked in the GDO using the page map" (paper §4.1, Figure 1). Dirty-page
//! information is piggybacked on global lock releases; the map is sent to
//! the acquiring site with each global lock grant.

use std::collections::BTreeSet;

use lotec_sim::NodeId;

use crate::ids::{PageIndex, Version};

/// Where the newest copy of one page lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLocation {
    /// Node holding the newest version.
    pub node: NodeId,
    /// That newest version.
    pub version: Version,
}

impl PageLocation {
    /// Where every page of an untouched object lives: its version-0 image
    /// at the object's `home`. This is the one definition of an untouched
    /// object's state; tables that materialise per-object state on first
    /// touch answer for untouched objects from it.
    pub fn initial(home: NodeId) -> Self {
        PageLocation {
            node: home,
            version: Version::INITIAL,
        }
    }
}

/// Per-object map: page index → newest location, plus the set of sites
/// holding (possibly stale) cached copies of the object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMap {
    locations: Vec<PageLocation>,
    caching_sites: BTreeSet<NodeId>,
}

impl PageMap {
    /// Creates the map for an object of `num_pages` pages whose initial
    /// (version-0) copy lives at `home`.
    ///
    /// # Panics
    ///
    /// Panics if `num_pages` is zero — every object occupies at least one
    /// page.
    pub fn new(num_pages: u16, home: NodeId) -> Self {
        assert!(num_pages > 0, "object must span at least one page");
        PageMap {
            locations: vec![PageLocation::initial(home); num_pages as usize],
            caching_sites: BTreeSet::from([home]),
        }
    }

    /// Number of pages the object spans.
    pub fn num_pages(&self) -> u16 {
        self.locations.len() as u16
    }

    /// The newest location of page `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for this object.
    pub fn location(&self, index: PageIndex) -> PageLocation {
        self.locations[index.get() as usize]
    }

    /// Records that `node` committed an update to page `index`, advancing
    /// the page's version. Returns the new version.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn record_update(&mut self, index: PageIndex, node: NodeId) -> Version {
        let slot = &mut self.locations[index.get() as usize];
        slot.node = node;
        slot.version = slot.version.next();
        self.caching_sites.insert(node);
        slot.version
    }

    /// Records that `node` now caches (a current copy of) page `index` —
    /// page transfers make the receiving site a caching site.
    pub fn record_cached(&mut self, node: NodeId) {
        self.caching_sites.insert(node);
    }

    /// Crash repair: repoints page `index` at `survivor` *without*
    /// advancing the version — the survivor holds a byte-identical copy of
    /// the same committed version, so this is a directory fix-up, not a
    /// new write. Used when the recorded owner's node crashes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn reassign_owner(&mut self, index: PageIndex, survivor: NodeId) {
        self.locations[index.get() as usize].node = survivor;
        self.caching_sites.insert(survivor);
    }

    /// Crash repair: drops `node` from the caching-site set (its caches
    /// are cold after a crash). The owner locations are untouched — use
    /// [`PageMap::reassign_owner`] for pages the crashed node owned.
    pub fn forget_caching_site(&mut self, node: NodeId) {
        self.caching_sites.remove(&node);
    }

    /// Sites holding cached copies of the object (current or stale). Used
    /// by the release-consistency extension, which must eagerly push
    /// updates to all of them.
    pub fn caching_sites(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.caching_sites.iter().copied()
    }

    /// Number of caching sites.
    pub fn num_caching_sites(&self) -> usize {
        self.caching_sites.len()
    }

    /// Iterator over `(page index, newest location)` for all pages.
    pub fn entries(&self) -> impl Iterator<Item = (PageIndex, PageLocation)> + '_ {
        self.locations
            .iter()
            .enumerate()
            .map(|(i, &loc)| (PageIndex::new(i as u16), loc))
    }

    /// Pages whose newest version is newer than the `local` versions
    /// reported by a prospective acquirer. `local(i)` returns the version
    /// the acquirer caches for page `i`, or `None` if uncached.
    pub fn stale_pages<F>(&self, local: F) -> Vec<PageIndex>
    where
        F: Fn(PageIndex) -> Option<Version>,
    {
        self.entries()
            .filter(|(idx, loc)| match local(*idx) {
                None => true, // no local copy at all: always needed
                Some(v) => loc.version.is_newer_than(v),
            })
            .map(|(idx, _)| idx)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn new_map_points_home_at_initial_version() {
        let m = PageMap::new(3, n(2));
        assert_eq!(m.num_pages(), 3);
        for (_, loc) in m.entries() {
            assert_eq!(
                loc,
                PageLocation {
                    node: n(2),
                    version: Version::INITIAL
                }
            );
        }
        assert_eq!(m.caching_sites().collect::<Vec<_>>(), vec![n(2)]);
    }

    #[test]
    fn record_update_moves_and_versions() {
        let mut m = PageMap::new(2, n(0));
        let v = m.record_update(PageIndex::new(1), n(3));
        assert_eq!(v, Version::new(1));
        assert_eq!(
            m.location(PageIndex::new(1)),
            PageLocation {
                node: n(3),
                version: Version::new(1)
            }
        );
        // Page 0 untouched.
        assert_eq!(m.location(PageIndex::new(0)).version, Version::INITIAL);
        // Updating site became a caching site.
        assert_eq!(m.num_caching_sites(), 2);
    }

    #[test]
    fn versions_increase_monotonically() {
        let mut m = PageMap::new(1, n(0));
        let v1 = m.record_update(PageIndex::new(0), n(1));
        let v2 = m.record_update(PageIndex::new(0), n(0));
        assert!(v2.is_newer_than(v1));
    }

    #[test]
    fn stale_pages_compares_versions() {
        let mut m = PageMap::new(3, n(0));
        m.record_update(PageIndex::new(0), n(1)); // v1
        m.record_update(PageIndex::new(2), n(1)); // v1
                                                  // Acquirer caches page 0 at v1 (current), page 2 at v0 (stale),
                                                  // and does not cache page 1 at all.
        let stale = m.stale_pages(|idx| match idx.get() {
            0 => Some(Version::new(1)),
            2 => Some(Version::INITIAL),
            _ => None,
        });
        // Page 1 is uncached -> needed; page 2 stale -> needed.
        assert_eq!(stale, vec![PageIndex::new(1), PageIndex::new(2)]);
    }

    #[test]
    fn uncached_initial_pages_are_still_needed() {
        // Even a never-written page must be fetched if the acquirer has no
        // copy at all (it needs the zero-filled initial content's home copy).
        let m = PageMap::new(1, n(0));
        let stale = m.stale_pages(|_| None);
        assert_eq!(stale, vec![PageIndex::new(0)]);
    }

    #[test]
    fn reassign_owner_keeps_version() {
        let mut m = PageMap::new(2, n(0));
        m.record_update(PageIndex::new(0), n(3)); // v1 at node 3
        m.reassign_owner(PageIndex::new(0), n(1));
        assert_eq!(
            m.location(PageIndex::new(0)),
            PageLocation {
                node: n(1),
                version: Version::new(1)
            },
            "owner moves, version does not advance"
        );
        assert!(m.caching_sites().any(|s| s == n(1)));
    }

    #[test]
    fn forget_caching_site_drops_cold_caches() {
        let mut m = PageMap::new(1, n(0));
        m.record_cached(n(2));
        assert_eq!(m.num_caching_sites(), 2);
        m.forget_caching_site(n(2));
        assert_eq!(m.caching_sites().collect::<Vec<_>>(), vec![n(0)]);
    }

    #[test]
    #[should_panic]
    fn location_bounds_checked() {
        PageMap::new(1, n(0)).location(PageIndex::new(5));
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_page_object_rejected() {
        PageMap::new(0, n(0));
    }
}
