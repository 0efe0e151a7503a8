//! Page-grained shared memory for the LOTEC reproduction.
//!
//! LOTEC is described in the paper as a *page-based* DSM system in which
//! objects span one or more pages and consistency is maintained at object
//! granularity but transferred at page granularity. This crate provides the
//! memory substrate:
//!
//! * [`ObjectId`], [`PageIndex`], [`PageId`], [`Version`] — identities,
//! * [`Page`] — a versioned page payload,
//! * [`PageStore`] — one node's local page cache with dirty tracking,
//! * [`PageAtlas`] / [`TouchedSlots`] — dense page numbering over a fixed
//!   object layout, and per-key state kept only for the keys a run
//!   touches,
//! * [`UndoLog`] / [`ShadowPages`] — the two recovery mechanisms the paper
//!   names for sub-transaction UNDO (both purely local, no network),
//! * [`PageMap`] — the GDO-side map from each page of an object to the node
//!   holding its most up-to-date version (the structure that lets LOTEC
//!   leave an object's current pages *scattered* across nodes).
//!
//! # Example
//!
//! ```
//! use lotec_mem::{ObjectId, PageId, PageStore};
//!
//! let mut store = PageStore::new(128);
//! let page = PageId::new(ObjectId::new(0), 3);
//! store.install(page, lotec_mem::Version::new(1), vec![0xAB; 128]);
//! assert_eq!(store.version_of(page).unwrap().get(), 1);
//! store.write(page, &[1, 2, 3]);
//! assert!(store.is_dirty(page));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atlas;
pub mod ids;
pub mod page;
pub mod pagemap;
pub mod store;
pub mod touched;
pub mod undo;

pub use atlas::PageAtlas;
pub use ids::{ObjectId, PageId, PageIndex, Version};
pub use page::{mix, Page, PageData};
pub use pagemap::{PageLocation, PageMap};
pub use store::PageStore;
pub use touched::TouchedSlots;
pub use undo::{Recovery, ShadowPages, UndoLog};
