//! The final content chain of every page, as a run report carries it.

use std::sync::Arc;

use lotec_mem::{ObjectId, PageAtlas, PageIndex};

/// Final content chain of every page of every object, keyed by
/// `(object, page)` and iterated in that order.
///
/// A dense vector over the run's [`PageAtlas`]: the engine writes only the
/// pages of touched objects — an untouched page's chain is 0 — and readers
/// get a map-like API (`get`, indexing by key, `iter`/`keys`/`values`,
/// `len`). The atlas travels with the chains so consumers such as the
/// oracle can reuse the run's page numbering.
#[derive(Clone, PartialEq, Eq)]
pub struct FinalChains {
    atlas: Arc<PageAtlas>,
    chains: Vec<u64>,
}

impl FinalChains {
    /// All-zero chains (every page untouched) over `atlas`.
    pub fn new(atlas: Arc<PageAtlas>) -> Self {
        let chains = vec![0; atlas.total_pages()];
        FinalChains { atlas, chains }
    }

    /// The page numbering the chains are laid out over.
    pub fn atlas(&self) -> &Arc<PageAtlas> {
        &self.atlas
    }

    /// The chains in slot (= key) order.
    pub fn as_slice(&self) -> &[u64] {
        &self.chains
    }

    /// Number of pages covered.
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// True when the layout has no pages.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// The chain of `key`, or `None` if the page lies outside the layout.
    pub fn get(&self, key: &(ObjectId, PageIndex)) -> Option<&u64> {
        let slot = self.atlas.try_slot(key.0, key.1)?;
        Some(&self.chains[slot])
    }

    /// Mutable chain of `key` (tests inject corrupt final states through
    /// it), or `None` if the page lies outside the layout.
    pub fn get_mut(&mut self, key: &(ObjectId, PageIndex)) -> Option<&mut u64> {
        let slot = self.atlas.try_slot(key.0, key.1)?;
        Some(&mut self.chains[slot])
    }

    /// `(key, chain)` pairs in `(object, page)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&(ObjectId, PageIndex), &u64)> {
        self.atlas.keys().iter().zip(&self.chains)
    }

    /// `(key, mutable chain)` pairs in `(object, page)` order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&(ObjectId, PageIndex), &mut u64)> {
        self.atlas.keys().iter().zip(self.chains.iter_mut())
    }

    /// Every key, in order.
    pub fn keys(&self) -> impl Iterator<Item = &(ObjectId, PageIndex)> {
        self.atlas.keys().iter()
    }

    /// Every chain, in key order.
    pub fn values(&self) -> impl Iterator<Item = &u64> {
        self.chains.iter()
    }

    /// Sets the chain of the page in atlas slot `slot`.
    pub(crate) fn set(&mut self, slot: usize, chain: u64) {
        self.chains[slot] = chain;
    }
}

impl std::ops::Index<&(ObjectId, PageIndex)> for FinalChains {
    type Output = u64;

    fn index(&self, key: &(ObjectId, PageIndex)) -> &u64 {
        self.get(key)
            .unwrap_or_else(|| panic!("page {}/{} outside the layout", key.0, key.1))
    }
}

impl<'a> IntoIterator for &'a FinalChains {
    type Item = (&'a (ObjectId, PageIndex), &'a u64);
    type IntoIter =
        std::iter::Zip<std::slice::Iter<'a, (ObjectId, PageIndex)>, std::slice::Iter<'a, u64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.atlas.keys().iter().zip(&self.chains)
    }
}

impl std::fmt::Debug for FinalChains {
    /// Formats like the ordered map it replaces.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(o: u32, p: u16) -> (ObjectId, PageIndex) {
        (ObjectId::new(o), PageIndex::new(p))
    }

    #[test]
    fn map_like_reads_in_key_order() {
        let atlas = Arc::new(PageAtlas::new(&[2, 1]));
        let mut chains = FinalChains::new(Arc::clone(&atlas));
        chains.set(atlas.slot(lotec_mem::PageId::new(ObjectId::new(1), 0)), 7);
        *chains.get_mut(&key(0, 1)).unwrap() = 5;
        *chains.iter_mut().next().unwrap().1 += 1;
        *chains.get_mut(&key(0, 0)).unwrap() -= 1;
        assert_eq!(chains.len(), 3);
        assert_eq!(chains[&key(1, 0)], 7);
        assert_eq!(chains.get(&key(0, 0)), Some(&0));
        assert_eq!(chains.get(&key(0, 2)), None);
        assert_eq!(chains.get(&key(2, 0)), None);
        let pairs: Vec<_> = chains.iter().map(|(&k, &c)| (k, c)).collect();
        assert_eq!(pairs, vec![(key(0, 0), 0), (key(0, 1), 5), (key(1, 0), 7)]);
        assert_eq!(chains.keys().count(), 3);
        assert_eq!(chains.values().sum::<u64>(), 12);
        assert!(format!("{chains:?}").starts_with('{'));
        assert_ne!(chains, FinalChains::new(atlas));
    }
}
