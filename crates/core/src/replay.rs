//! Trace replay: count the traffic each protocol would send for one
//! identical lock schedule.
//!
//! Replaying decouples *what the protocols cost* from *how the run
//! unfolded*: the lock schedule (grants, commits, aborts) comes from a
//! single engine run, and each protocol's placement model is advanced over
//! that schedule, charging exactly the messages that protocol would emit.
//! Because the schedule is shared, byte/message differences between
//! protocols are pure protocol effects — the comparison the paper's
//! figures make.
//!
//! Message charging follows the engine's accounting rules:
//!
//! * a *global* grant costs a lock-request and a lock-grant (skipped when
//!   the requester is the GDO partition's home node);
//! * each transfer source costs a page-request + page-transfer pair;
//! * LOTEC demand fetches cost a single-page request/transfer pair each;
//! * a root commit costs one lock-release per released object whose GDO
//!   partition is remote (dirty info piggybacked — Alg. 4.4);
//! * RC commits additionally cost one update-push per other caching site.

use lotec_mem::{ObjectId, PageIndex};
use lotec_net::{Message, MessageKind, TrafficLedger};
use lotec_object::{ObjectRegistry, PageSet};
use lotec_sim::{NodeId, SimRng};

use crate::analysis::adjacent_run_count;
use crate::config::SystemConfig;
use crate::granularity::transfer_message_bytes;
use crate::metrics::ProtocolTraffic;
use crate::placement::PlacementModel;
use crate::protocol::ProtocolKind;
use crate::trace::{ScheduleTrace, TraceEvent};

/// Replays `trace` under `kind` (uniformly, for every object), returning
/// the traffic that protocol would generate.
pub fn replay_trace(
    kind: ProtocolKind,
    trace: &ScheduleTrace,
    registry: &ObjectRegistry,
    config: &SystemConfig,
) -> ProtocolTraffic {
    replay_model(
        &mut PlacementModel::new(kind, registry),
        trace,
        registry,
        config,
    )
}

/// Replays `trace` under `config`'s own protocol assignment — the default
/// protocol plus any per-class overrides. This is the replay counterpart
/// of a mixed-protocol engine run.
pub fn replay_run(
    trace: &ScheduleTrace,
    registry: &ObjectRegistry,
    config: &SystemConfig,
) -> ProtocolTraffic {
    let mut model = PlacementModel::with_assignment(config.protocol, registry, |class| {
        config.protocol_for(class)
    });
    replay_model(&mut model, trace, registry, config)
}

/// Replays `trace` through `model`, advancing it and returning the traffic
/// its protocol assignment would generate. The model stays readable
/// afterwards (e.g. [`PlacementModel::materialised`]).
pub fn replay_model(
    model: &mut PlacementModel,
    trace: &ScheduleTrace,
    registry: &ObjectRegistry,
    config: &SystemConfig,
) -> ProtocolTraffic {
    config.validate();
    let mut ledger = TrafficLedger::new();
    // Independent RNG stream for the prediction-miss ablation; protocol
    // comparisons at miss rate 0 are fully deterministic.
    let mut rng = SimRng::seed_from_u64(config.seed ^ 0x5EED_0F0F_4E97_1A1Du64);

    for event in trace.events() {
        match event {
            TraceEvent::Grant {
                node,
                object,
                global,
                holders,
                predicted,
                actual_reads,
                actual_writes,
                ..
            } => {
                let object = *object;
                let node = *node;
                let home = config.gdo_home(object);
                if *global {
                    charge_gdo_replication(
                        &mut ledger,
                        config,
                        object,
                        config.sizes.lock_request(),
                    );
                }
                if *global && home != node {
                    ledger.record(&Message::new(
                        MessageKind::LockRequest,
                        node,
                        home,
                        object,
                        config.sizes.lock_request(),
                    ));
                    ledger.record(&Message::new(
                        MessageKind::LockGrant,
                        home,
                        node,
                        object,
                        config
                            .sizes
                            .lock_grant(*holders, registry.num_pages(object)),
                    ));
                }
                // Prefetch set: LOTEC uses the prediction (optionally
                // degraded by the miss-rate ablation); others move by
                // their own rules and receive the full page set.
                let kind = model.kind_of(object);
                let prefetch: PageSet = if kind.uses_prediction() {
                    if config.prediction_miss_rate > 0.0 {
                        predicted
                            .iter()
                            .filter(|_| !rng.chance(config.prediction_miss_rate))
                            .collect()
                    } else {
                        predicted.clone()
                    }
                } else {
                    (0..registry.num_pages(object))
                        .map(PageIndex::new)
                        .collect()
                };
                let plan = model.on_grant(node, object, &prefetch);
                for (source, pages) in plan.sources() {
                    charge_fetch(
                        &mut ledger,
                        config,
                        registry,
                        node,
                        source,
                        object,
                        pages,
                        false,
                    );
                }
                // Demand fetches: pages actually touched but still stale
                // locally (possible only when prediction was degraded or,
                // in principle, unsound).
                if kind.uses_prediction() {
                    let touched = actual_reads.union(actual_writes);
                    if config.adaptive.enabled {
                        // Mirror the engine's batched repair: one
                        // request/transfer pair per source covering every
                        // mispredicted page from that source.
                        let mut by_source: Vec<(NodeId, Vec<PageIndex>)> = Vec::new();
                        for page in touched.iter() {
                            if let Some(source) = model.demand_fetch(node, object, page) {
                                match by_source.iter_mut().find(|(s, _)| *s == source) {
                                    Some((_, pages)) => pages.push(page),
                                    None => by_source.push((source, vec![page])),
                                }
                            }
                        }
                        for (source, pages) in by_source {
                            charge_fetch(
                                &mut ledger,
                                config,
                                registry,
                                node,
                                source,
                                object,
                                &pages,
                                true,
                            );
                        }
                    } else {
                        for page in touched.iter() {
                            if let Some(source) = model.demand_fetch(node, object, page) {
                                charge_fetch(
                                    &mut ledger,
                                    config,
                                    registry,
                                    node,
                                    source,
                                    object,
                                    &[page],
                                    true,
                                );
                            }
                        }
                    }
                }
            }
            TraceEvent::RootCommit {
                node,
                dirty,
                released,
                ..
            } => {
                let node = *node;
                for object in released {
                    let object = *object;
                    let home = config.gdo_home(object);
                    let dirty_pages: &[PageIndex] = dirty
                        .iter()
                        .find(|(o, _)| *o == object)
                        .map(|(_, p)| p.as_slice())
                        .unwrap_or(&[]);
                    if home != node {
                        ledger.record(&Message::new(
                            MessageKind::LockRelease,
                            node,
                            home,
                            object,
                            config.sizes.lock_release(dirty_pages.len()),
                        ));
                    }
                    charge_gdo_replication(
                        &mut ledger,
                        config,
                        object,
                        config.sizes.lock_release(dirty_pages.len()),
                    );
                    let push = model.on_commit(node, object, dirty_pages);
                    let destinations = if config.multicast {
                        // One multicast transmission covers every site.
                        push.destinations.into_iter().take(1).collect::<Vec<_>>()
                    } else {
                        push.destinations
                    };
                    for (site, pages) in destinations {
                        debug_assert_ne!(site, node);
                        ledger.record(&Message::new(
                            MessageKind::UpdatePush,
                            node,
                            site,
                            object,
                            transfer_message_bytes(config, registry, object, &pages),
                        ));
                    }
                }
            }
            TraceEvent::SubAbortRelease { node, released, .. } => {
                charge_abort_releases(&mut ledger, config, *node, released);
            }
            TraceEvent::FamilyAbort {
                node,
                released,
                cancelled_request,
                ..
            } => {
                charge_abort_releases(&mut ledger, config, *node, released);
                // The victim's still-queued lock request was paid when it
                // queued but will never be granted.
                if let Some(object) = cancelled_request {
                    let home = config.gdo_home(*object);
                    if home != *node {
                        ledger.record(&Message::new(
                            MessageKind::LockRequest,
                            *node,
                            home,
                            *object,
                            config.sizes.lock_request(),
                        ));
                    }
                }
            }
        }
    }
    ProtocolTraffic::new(ledger)
}

/// Abort releases carry no dirty info (Alg. 4.3); one release message per
/// remotely homed object.
fn charge_abort_releases(
    ledger: &mut TrafficLedger,
    config: &SystemConfig,
    node: NodeId,
    released: &[ObjectId],
) {
    for object in released {
        let home = config.gdo_home(*object);
        if home != node {
            ledger.record(&Message::new(
                MessageKind::LockRelease,
                node,
                home,
                *object,
                config.sizes.lock_release(0),
            ));
        }
        charge_gdo_replication(ledger, config, *object, config.sizes.lock_release(0));
    }
}

/// Directory mutations propagate to the partition's backup replicas.
fn charge_gdo_replication(
    ledger: &mut TrafficLedger,
    config: &SystemConfig,
    object: ObjectId,
    bytes: u64,
) {
    if config.gdo_replication <= 1 {
        return;
    }
    let home = config.gdo_home(object);
    for replica in config.gdo_replicas(object) {
        ledger.record(&Message::new(
            MessageKind::GdoReplicate,
            home,
            replica,
            object,
            bytes,
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn charge_fetch(
    ledger: &mut TrafficLedger,
    config: &SystemConfig,
    registry: &ObjectRegistry,
    node: NodeId,
    source: NodeId,
    object: ObjectId,
    pages: &[PageIndex],
    demand: bool,
) {
    debug_assert_ne!(node, source, "self-fetch must not be charged");
    let (req_kind, xfer_kind) = if demand {
        (
            MessageKind::DemandPageRequest,
            MessageKind::DemandPageTransfer,
        )
    } else {
        (MessageKind::PageRequest, MessageKind::PageTransfer)
    };
    // Mirror the engine's request sizing: adaptive runs coalesce adjacent
    // pages into ranged request entries; transfers keep page framing.
    let req = if config.adaptive.enabled {
        config
            .sizes
            .coalesced_page_request(pages.len(), adjacent_run_count(pages))
    } else {
        config.sizes.page_request(pages.len())
    };
    ledger.record(&Message::new(req_kind, node, source, object, req));
    ledger.record(&Message::new(
        xfer_kind,
        source,
        node,
        object,
        transfer_message_bytes(config, registry, object, pages),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare_protocols;
    use crate::spec::demo_workload;

    #[test]
    fn replay_is_deterministic() {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 3);
        let cmp1 = compare_protocols(&config, &registry, &families).unwrap();
        let cmp2 = compare_protocols(&config, &registry, &families).unwrap();
        for kind in ProtocolKind::ALL {
            assert_eq!(cmp1.total(kind), cmp2.total(kind));
        }
    }
}
