//! The byte-size model for consistency-protocol messages.
//!
//! Figure 1 of the paper shows the GDO entry structure: holder and
//! non-holder lists of `<TID, NID>` pairs and a per-page map of node ids.
//! Lock grants carry the holder list and the page map; releases piggyback
//! dirty-page information. This module turns those structures into byte
//! counts so the simulated messages have realistic sizes.

/// Byte sizes for each wire structure. All fields are public configuration
/// in the spirit of a plain parameter block; [`MessageSizes::default`]
/// gives the values used for the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// Fixed per-message header (addressing, type, object id, …).
    pub header: u64,
    /// One `<transaction id, node id>` pair in a holder list.
    pub holder_entry: u64,
    /// One page-map entry (page index + node id + version).
    pub page_map_entry: u64,
    /// One dirty-page record piggybacked on a release.
    pub dirty_entry: u64,
    /// One page-id record in a page request.
    pub page_request_entry: u64,
    /// Per-page framing in a page transfer (page id + version).
    pub page_header: u64,
}

impl Default for MessageSizes {
    fn default() -> Self {
        MessageSizes {
            header: 32,
            holder_entry: 12,
            page_map_entry: 10,
            dirty_entry: 6,
            page_request_entry: 6,
            page_header: 16,
        }
    }
}

impl MessageSizes {
    /// Size of a global lock acquisition request (Alg. 4.2 input): header
    /// plus one requester `<TID, NID>` pair.
    pub fn lock_request(&self) -> u64 {
        self.header + self.holder_entry
    }

    /// Size of a lock grant carrying `holders` holder-list entries and a
    /// page map of `pages` entries (Alg. 4.2: "Send the list pointed to by
    /// HolderPtr and the object's page map").
    pub fn lock_grant(&self, holders: usize, pages: u16) -> u64 {
        self.header + self.holder_entry * holders as u64 + self.page_map_entry * pages as u64
    }

    /// Size of a global lock release carrying `dirty` piggybacked
    /// dirty-page records (Alg. 4.4).
    pub fn lock_release(&self, dirty: usize) -> u64 {
        self.header + self.dirty_entry * dirty as u64
    }

    /// Size of a page request naming `pages` pages (Alg. 4.5).
    pub fn page_request(&self, pages: usize) -> u64 {
        self.header + self.page_request_entry * pages as u64
    }

    /// One ranged entry in a coalesced page request: a page id plus a run
    /// length.
    pub fn range_request_entry(&self) -> u64 {
        self.page_request_entry + 2
    }

    /// Size of a coalesced page request naming `runs` maximal runs of
    /// adjacent pages: each run is one `(first page, length)` entry
    /// instead of one entry per page. With every run longer than one page
    /// this is strictly smaller than [`page_request`](Self::page_request)
    /// for the same page set; singleton runs cost 2 bytes extra each, so
    /// callers charge `min(ranged, plain)` — a real implementation would
    /// pick the cheaper encoding per message.
    pub fn ranged_page_request(&self, runs: usize) -> u64 {
        self.header + self.range_request_entry() * runs as u64
    }

    /// The cheaper of the plain and ranged encodings of one page request
    /// covering `pages` pages in `runs` maximal adjacent runs.
    pub fn coalesced_page_request(&self, pages: usize, runs: usize) -> u64 {
        debug_assert!(runs <= pages);
        self.page_request(pages).min(self.ranged_page_request(runs))
    }

    /// Size of a transfer of `pages` pages of `page_size` bytes each.
    pub fn page_transfer(&self, pages: usize, page_size: u64) -> u64 {
        self.header + (self.page_header + page_size) * pages as u64
    }

    /// Size of a *data-granularity* transfer: one framed entry per page,
    /// each carrying only the page's occupied object bytes (the DSD mode
    /// of paper §4.2 — "only updates to the objects (not the entire pages
    /// they are stored on) really need to be transmitted").
    pub fn data_transfer(&self, occupied: impl IntoIterator<Item = u64>) -> u64 {
        self.header
            + occupied
                .into_iter()
                .map(|b| self.page_header + b)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_small_control_messages() {
        let s = MessageSizes::default();
        assert!(s.lock_request() < 100, "lock messages are small");
        assert_eq!(s.lock_request(), 44);
    }

    #[test]
    fn grant_scales_with_holders_and_pages() {
        let s = MessageSizes::default();
        let base = s.lock_grant(0, 0);
        assert_eq!(base, s.header);
        assert_eq!(s.lock_grant(2, 0) - base, 2 * s.holder_entry);
        assert_eq!(s.lock_grant(0, 5) - base, 5 * s.page_map_entry);
    }

    #[test]
    fn transfer_dominated_by_page_payload() {
        let s = MessageSizes::default();
        let t = s.page_transfer(3, 4096);
        assert_eq!(t, s.header + 3 * (s.page_header + 4096));
        assert!(t > s.page_request(3) * 10);
    }

    #[test]
    fn release_scales_with_dirty_info() {
        let s = MessageSizes::default();
        assert_eq!(s.lock_release(0), s.header);
        assert_eq!(s.lock_release(4), s.header + 4 * s.dirty_entry);
    }

    #[test]
    fn zero_page_transfer_is_just_header() {
        let s = MessageSizes::default();
        assert_eq!(s.page_transfer(0, 4096), s.header);
    }

    #[test]
    fn ranged_request_beats_plain_on_long_runs() {
        let s = MessageSizes::default();
        // 6 adjacent pages in 1 run: 1 ranged entry vs 6 plain entries.
        assert!(s.ranged_page_request(1) < s.page_request(6));
        assert_eq!(
            s.ranged_page_request(1),
            s.header + s.page_request_entry + 2
        );
    }

    #[test]
    fn coalesced_request_never_exceeds_plain() {
        let s = MessageSizes::default();
        for (pages, runs) in [(1usize, 1usize), (6, 1), (6, 6), (10, 3), (2, 2)] {
            assert!(s.coalesced_page_request(pages, runs) <= s.page_request(pages));
        }
        // All-singleton runs fall back to the plain encoding.
        assert_eq!(s.coalesced_page_request(3, 3), s.page_request(3));
        // One long run uses the ranged encoding.
        assert_eq!(s.coalesced_page_request(6, 1), s.ranged_page_request(1));
    }
}
