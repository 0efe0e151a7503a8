//! State for the keys a run actually touches, over a large key space.
//!
//! A run registers every object up front, but a transaction workload
//! touches a small fraction of them. [`TouchedSlots`] keeps per-key state
//! only for touched keys: a zero-filled `Vec<u32>` index maps each key (an
//! atlas slot or an object id) to `1 +` its position in a compact `Vec`,
//! with `0` meaning absent. The index comes from a zeroed allocation, so
//! the operating system backs only the parts of it that are written —
//! untouched keys cost neither construction time nor resident memory —
//! and every lookup stays a single array index.
//!
//! An absent key has no state here; what it *means* (for an object: every
//! page at [`crate::Version::INITIAL`] at the object's home, chain 0 — see
//! [`crate::PageLocation::initial`]) is up to the owner, which
//! materialises the state on first touch.

/// Per-key state for the touched subset of a fixed key space `0..n`.
///
/// Entries live in first-touch order; [`TouchedSlots::remove`] is a
/// swap-remove that repoints the moved entry's index slot. Iteration
/// order is therefore *not* key order — callers that need determinism by
/// key use [`TouchedSlots::sorted_keys`].
#[derive(Debug, Clone)]
pub struct TouchedSlots<T> {
    /// Key → `1 +` position in `items`; `0` = absent.
    index: Vec<u32>,
    /// Key of each entry, parallel to `items` (lets a swap-remove fix up
    /// the index slot of the entry it moves).
    keys: Vec<u32>,
    /// Touched entries.
    items: Vec<T>,
}

impl<T> Default for TouchedSlots<T> {
    /// An empty map over an empty key space (see [`TouchedSlots::grow`]).
    fn default() -> Self {
        TouchedSlots::new(0)
    }
}

impl<T> TouchedSlots<T> {
    /// An empty map over keys `0..keys`. No key is touched, so the index
    /// is one zeroed allocation.
    ///
    /// # Panics
    ///
    /// Panics if `keys` does not fit in a `u32`.
    pub fn new(keys: usize) -> Self {
        assert!(u32::try_from(keys).is_ok(), "key space exceeds u32");
        TouchedSlots {
            index: vec![0; keys],
            keys: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Widens the key space to `keys` (no-op if already that wide). The
    /// new index is a fresh zeroed allocation, so growth faults in only the
    /// copied prefix.
    ///
    /// # Panics
    ///
    /// Panics if `keys` does not fit in a `u32`.
    pub fn grow(&mut self, keys: usize) {
        if keys <= self.index.len() {
            return;
        }
        assert!(u32::try_from(keys).is_ok(), "key space exceeds u32");
        let mut index = vec![0; keys];
        index[..self.index.len()].copy_from_slice(&self.index);
        self.index = index;
    }

    /// Number of touched keys.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no key is touched.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Position of `key`'s entry in the compact storage, if touched.
    /// Positions are stable until a [`TouchedSlots::remove`].
    pub fn position(&self, key: usize) -> Option<usize> {
        match self.index.get(key).copied() {
            None | Some(0) => None,
            Some(p) => Some(p as usize - 1),
        }
    }

    /// True if `key` is touched.
    pub fn contains(&self, key: usize) -> bool {
        self.position(key).is_some()
    }

    /// The state of `key`, if touched.
    pub fn get(&self, key: usize) -> Option<&T> {
        self.position(key).map(|p| &self.items[p])
    }

    /// Mutable state of `key`, if touched.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        self.position(key).map(|p| &mut self.items[p])
    }

    /// The state of `key`, materialised with `init` on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `key` lies outside the key space.
    pub fn get_or_insert_with(&mut self, key: usize, init: impl FnOnce() -> T) -> &mut T {
        let p = match self.index[key] {
            0 => self.push(key, init()),
            p => p as usize - 1,
        };
        &mut self.items[p]
    }

    /// Sets `key`'s state, returning the previous state if it was touched.
    ///
    /// # Panics
    ///
    /// Panics if `key` lies outside the key space.
    pub fn insert(&mut self, key: usize, value: T) -> Option<T> {
        match self.index[key] {
            0 => {
                self.push(key, value);
                None
            }
            p => Some(std::mem::replace(&mut self.items[p as usize - 1], value)),
        }
    }

    /// Drops `key`'s state, returning it. The last entry moves into the
    /// freed position and its index slot is repointed.
    pub fn remove(&mut self, key: usize) -> Option<T> {
        let p = self.position(key)?;
        self.index[key] = 0;
        self.keys.swap_remove(p);
        let value = self.items.swap_remove(p);
        if let Some(&moved) = self.keys.get(p) {
            self.index[moved as usize] = p as u32 + 1;
        }
        Some(value)
    }

    /// Touched `(key, state)` pairs in storage order (first-touch order,
    /// perturbed by removals).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.keys.iter().map(|&k| k as usize).zip(&self.items)
    }

    /// Touched keys, ascending.
    pub fn sorted_keys(&self) -> Vec<usize> {
        let mut keys: Vec<usize> = self.keys.iter().map(|&k| k as usize).collect();
        keys.sort_unstable();
        keys
    }

    fn push(&mut self, key: usize, value: T) -> usize {
        let p = self.items.len();
        self.index[key] = u32::try_from(p + 1).expect("touched entries fit in u32");
        self.keys.push(key as u32);
        self.items.push(value);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_keys_are_absent() {
        let t: TouchedSlots<u8> = TouchedSlots::new(10);
        assert!(t.is_empty());
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(99), None, "reads beyond the key space are absent");
    }

    #[test]
    fn first_touch_materialises_once() {
        let mut t = TouchedSlots::new(8);
        let mut calls = 0;
        for _ in 0..3 {
            *t.get_or_insert_with(5, || {
                calls += 1;
                10
            }) += 1;
        }
        assert_eq!(calls, 1);
        assert_eq!(t.get(5), Some(&13));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_moves_last_entry_and_repoints_it() {
        let mut t = TouchedSlots::new(8);
        for k in [6, 1, 4] {
            t.insert(k, k * 10);
        }
        // Removing the first entry moves key 4 (the last) into position 0.
        assert_eq!(t.remove(6), Some(60));
        assert_eq!(t.position(4), Some(0));
        assert_eq!(t.get(4), Some(&40));
        assert_eq!(t.get(1), Some(&10));
        assert_eq!(t.get(6), None);
        assert_eq!(t.remove(6), None);
        assert_eq!(t.sorted_keys(), vec![1, 4]);
        // Removing the last entry moves nothing.
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(t.get(4), Some(&40));
        assert_eq!(t.insert(4, 41), Some(40));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grow_keeps_touched_state() {
        let mut t = TouchedSlots::new(2);
        t.insert(1, 'a');
        t.grow(1);
        t.grow(100);
        assert_eq!(t.get(1), Some(&'a'));
        t.insert(99, 'b');
        assert_eq!(t.sorted_keys(), vec![1, 99]);
    }

    #[test]
    #[should_panic]
    fn insert_outside_key_space_panics() {
        TouchedSlots::new(2).insert(2, ());
    }
}
