//! The message rulebook: what each protocol step puts on the wire.
//!
//! The paper's result is a traffic comparison, so the decision "which
//! message kinds, between which nodes, how many bytes" is made here once.
//! The live engine ([`engine`](crate::engine)) and the figure replay
//! ([`replay`](crate::replay)) both charge every step through these rules;
//! the engine adds only what replay has no analogue for (lossy delivery,
//! timing, page installs, probe events). The rules are pure and allocate
//! nothing per message. A rule may return a node-local message (a lock
//! request from the GDO partition's own node, say); both callers drop it
//! through [`Message::is_local`].
//!
//! * A *global* grant costs a `lock_request` and a `lock_grant`; a
//!   request that queues and is never granted still paid its request.
//! * The `prefetch_set` of an acquisition is the prediction for
//!   predictive protocols (degraded by the miss-rate ablation, drawing from
//!   the one `miss_stream`) and the full page set for the others.
//! * Each transfer source costs one `fetch_pair` (Alg. 4.5): a
//!   page-request, coalesced into ranged entries in adaptive mode, and a
//!   page-transfer sized by [`transfer_message_bytes`].
//! * Demand fetches — touched pages still stale after the gather — cost
//!   one demand `fetch_pair` per batch of
//!   `protocol::demand_batches`.
//! * A root commit costs one `lock_release` per released object with
//!   its dirty pages piggybacked (Alg. 4.4); abort releases carry none
//!   (Alg. 4.3).
//! * Every directory mutation (a global grant, a release) fans out to the
//!   partition's backup replicas (`gdo_fanout`).
//! * RC commits cost one update-push per other caching site, or a single
//!   push on a multicast network (`update_pushes`).
//!
//! # Transfer granularity
//!
//! LOTEC "is described as being a page-based DSM system in this paper,
//! \[but\] only updates to the objects (not the entire pages they are stored
//! on) really need to be transmitted between nodes. In this respect, LOTEC
//! is more like a Distributed Shared Data system" (§4.2). With
//! [`SystemConfig::dsd_transfers`](crate::config::SystemConfig::dsd_transfers)
//! enabled, page transfers carry only each page's *occupied* object bytes;
//! otherwise full pages move.

use lotec_mem::{ObjectId, PageIndex};
use lotec_net::{Message, MessageKind};
use lotec_object::{ObjectRegistry, PageSet};
use lotec_sim::{NodeId, SimRng};

use crate::analysis::adjacent_run_count;
use crate::config::SystemConfig;
use crate::protocol::ProtocolKind;

/// Root of a run's seeded random streams (backoff jitter, fault draws,
/// prediction misses), derived from [`SystemConfig::seed`].
pub(crate) fn run_rng(config: &SystemConfig) -> SimRng {
    SimRng::seed_from_u64(config.seed ^ 0x5EED_0F0F_4E97_1A1Du64)
}

/// The prediction-miss stream. The miss-rate ablation draws from it once
/// per predicted page, in grant order, so the engine and a replay of its
/// trace drop the same pages.
pub(crate) fn miss_stream(config: &SystemConfig) -> SimRng {
    run_rng(config).fork(0xA11CE)
}

/// The page set an acquisition under `kind` hands the transfer policy:
/// the `predicted` set for predictive protocols — each page dropped with
/// probability `prediction_miss_rate` — and all `num_pages` otherwise.
pub(crate) fn prefetch_set(
    config: &SystemConfig,
    kind: ProtocolKind,
    predicted: &PageSet,
    num_pages: u16,
    miss: &mut SimRng,
) -> PageSet {
    if !kind.uses_prediction() {
        return (0..num_pages).map(PageIndex::new).collect();
    }
    let rate = config.prediction_miss_rate;
    if rate > 0.0 {
        predicted.iter().filter(|_| !miss.chance(rate)).collect()
    } else {
        predicted.clone()
    }
}

/// Requester → GDO partition: a global lock request (Alg. 4.2).
pub(crate) fn lock_request(config: &SystemConfig, node: NodeId, object: ObjectId) -> Message {
    Message::new(
        MessageKind::LockRequest,
        node,
        config.gdo_home(object),
        object,
        config.sizes.lock_request(),
    )
}

/// GDO partition → requester: a grant carrying `holders` holder-list
/// entries and the object's page map (Alg. 4.2).
pub(crate) fn lock_grant(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    node: NodeId,
    object: ObjectId,
    holders: usize,
) -> Message {
    Message::new(
        MessageKind::LockGrant,
        config.gdo_home(object),
        node,
        object,
        config.sizes.lock_grant(holders, registry.num_pages(object)),
    )
}

/// Releaser → GDO partition: a global release piggybacking `dirty`
/// dirty-page records.
pub(crate) fn lock_release(
    config: &SystemConfig,
    node: NodeId,
    object: ObjectId,
    dirty: usize,
) -> Message {
    Message::new(
        MessageKind::LockRelease,
        node,
        config.gdo_home(object),
        object,
        config.sizes.lock_release(dirty),
    )
}

/// A directory mutation — `mutation` is the lock request or release that
/// reaches the GDO partition — propagated to the partition's
/// `gdo_replication - 1` backups, the nodes following it in ring order.
/// Write-behind: the copies carry the mutation's size.
pub(crate) fn gdo_fanout(
    config: &SystemConfig,
    mutation: &Message,
) -> impl Iterator<Item = Message> {
    let (home, object, bytes) = (mutation.dst(), mutation.object(), mutation.bytes());
    let num_nodes = config.num_nodes;
    (1..config.gdo_replication).map(move |i| {
        let replica = NodeId::new((home.index() + i) % num_nodes);
        Message::new(MessageKind::GdoReplicate, home, replica, object, bytes)
    })
}

/// One request/transfer pair moving `pages` of `object` from `source` to
/// `node` (Alg. 4.5); `demand` selects the misprediction-repair kinds.
/// Adaptive runs coalesce adjacent pages into ranged request entries;
/// transfers keep their page framing.
pub(crate) fn fetch_pair(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    node: NodeId,
    source: NodeId,
    object: ObjectId,
    pages: &[PageIndex],
    demand: bool,
) -> [Message; 2] {
    let (req_kind, xfer_kind) = if demand {
        (
            MessageKind::DemandPageRequest,
            MessageKind::DemandPageTransfer,
        )
    } else {
        (MessageKind::PageRequest, MessageKind::PageTransfer)
    };
    let req = if config.adaptive.enabled {
        config
            .sizes
            .coalesced_page_request(pages.len(), adjacent_run_count(pages))
    } else {
        config.sizes.page_request(pages.len())
    };
    let xfer = transfer_message_bytes(config, registry, object, pages);
    [
        Message::new(req_kind, node, source, object, req),
        Message::new(xfer_kind, source, node, object, xfer),
    ]
}

/// RC's eager pushes of the committed `pages` of `object` from `node` to
/// the other caching `sites`, in order. On a multicast network one
/// transmission reaches every site: only the first is charged.
pub(crate) fn update_pushes<I: IntoIterator<Item = NodeId>>(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    node: NodeId,
    object: ObjectId,
    pages: &[PageIndex],
    sites: I,
) -> impl Iterator<Item = Message> {
    let bytes = transfer_message_bytes(config, registry, object, pages);
    let reached = if config.multicast { 1 } else { usize::MAX };
    sites
        .into_iter()
        .take(reached)
        .map(move |site| Message::new(MessageKind::UpdatePush, node, site, object, bytes))
}

/// Bytes of `object`'s data that live on `page` — the final page of an
/// object is usually only partially occupied.
///
/// # Panics
///
/// Panics if `page` is outside the object's layout.
pub fn occupied_bytes(
    registry: &ObjectRegistry,
    page_size: u32,
    object: ObjectId,
    page: PageIndex,
) -> u64 {
    let total = registry.class_of(object).layout().total_bytes();
    let ps = u64::from(page_size);
    let start = u64::from(page.get()) * ps;
    assert!(
        start < total || (start == 0 && total == 0),
        "page {page} outside {object}"
    );
    (total - start).min(ps)
}

/// Wire size of one page-transfer (or update-push) message carrying
/// `pages` of `object`, respecting the configured transfer granularity.
pub fn transfer_message_bytes(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    object: ObjectId,
    pages: &[PageIndex],
) -> u64 {
    if config.dsd_transfers {
        config.sizes.data_transfer(
            pages
                .iter()
                .map(|&p| occupied_bytes(registry, config.page_size, object, p)),
        )
    } else {
        config
            .sizes
            .page_transfer(pages.len(), u64::from(config.page_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotec_object::{ClassBuilder, ClassId};
    use lotec_sim::NodeId;

    fn registry() -> ObjectRegistry {
        // 2.5-page object with 100-byte pages: 250 bytes total.
        let class = ClassBuilder::new("Half")
            .attribute("a", 250)
            .method("m", |m| m.path(|p| p.reads(&["a"])))
            .build();
        ObjectRegistry::build(&[class], &[(ClassId::new(0), NodeId::new(0))], 100).unwrap()
    }

    #[test]
    fn occupied_bytes_full_and_partial_pages() {
        let reg = registry();
        let o = ObjectId::new(0);
        assert_eq!(occupied_bytes(&reg, 100, o, PageIndex::new(0)), 100);
        assert_eq!(occupied_bytes(&reg, 100, o, PageIndex::new(1)), 100);
        assert_eq!(
            occupied_bytes(&reg, 100, o, PageIndex::new(2)),
            50,
            "last page half full"
        );
    }

    #[test]
    fn dsd_transfers_are_never_larger_than_page_transfers() {
        let reg = registry();
        let o = ObjectId::new(0);
        let pages: Vec<PageIndex> = (0..3).map(PageIndex::new).collect();
        let page_cfg = SystemConfig {
            page_size: 100,
            ..SystemConfig::default()
        };
        let dsd_cfg = SystemConfig {
            dsd_transfers: true,
            ..page_cfg.clone()
        };
        let full = transfer_message_bytes(&page_cfg, &reg, o, &pages);
        let dsd = transfer_message_bytes(&dsd_cfg, &reg, o, &pages);
        assert!(dsd < full, "dsd {dsd} >= page {full}");
        // Exactly the 50 unoccupied bytes of the last page are saved.
        assert_eq!(full - dsd, 50);
    }

    #[test]
    fn page_mode_matches_messagesizes_directly() {
        let reg = registry();
        let cfg = SystemConfig {
            page_size: 100,
            ..SystemConfig::default()
        };
        let pages = [PageIndex::new(0), PageIndex::new(2)];
        assert_eq!(
            transfer_message_bytes(&cfg, &reg, ObjectId::new(0), &pages),
            cfg.sizes.page_transfer(2, 100)
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_page_panics() {
        occupied_bytes(&registry(), 100, ObjectId::new(0), PageIndex::new(9));
    }
}
