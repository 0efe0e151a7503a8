//! Trace replay: count the traffic each protocol would send for one
//! identical lock schedule.
//!
//! Replaying decouples *what the protocols cost* from *how the run
//! unfolded*: the lock schedule (grants, commits, aborts) comes from a
//! single engine run, and each protocol's placement model is advanced over
//! that schedule, recording the messages the
//! [rulebook](crate::granularity) prices each step at — the rules the
//! engine charges live. Because the schedule is shared, byte/message
//! differences between protocols are pure protocol effects — the
//! comparison the paper's figures make.

use lotec_net::{Message, TrafficLedger};
use lotec_object::ObjectRegistry;

use crate::config::SystemConfig;
use crate::granularity as rules;
use crate::metrics::ProtocolTraffic;
use crate::placement::PlacementModel;
use crate::protocol::{demand_batches, ProtocolKind};
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
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    let mut ledger = TrafficLedger::new();
    let mut miss = rules::miss_stream(config);
    let release = |node, object, dirty| {
        let msg = rules::lock_release(config, node, object, dirty);
        std::iter::once(msg).chain(rules::gdo_fanout(config, &msg))
    };

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
                let (node, object) = (*node, *object);
                if *global {
                    let req = rules::lock_request(config, node, object);
                    let grant = rules::lock_grant(config, registry, node, object, *holders);
                    charge(
                        &mut ledger,
                        rules::gdo_fanout(config, &req).chain([req, grant]),
                    );
                }
                let kind = model.kind_of(object);
                let num_pages = registry.num_pages(object);
                let prefetch = rules::prefetch_set(config, kind, predicted, num_pages, &mut miss);
                let plan = model.on_grant(node, object, &prefetch);
                for (source, pages) in plan.sources() {
                    let pair =
                        rules::fetch_pair(config, registry, node, source, object, pages, false);
                    charge(&mut ledger, pair);
                }
                // Demand fetches: touched pages still stale after the
                // gather (only when the prediction was degraded).
                if kind.uses_prediction() {
                    let touched = actual_reads.union(actual_writes);
                    let coalesce = config.adaptive.enabled;
                    for (source, pages) in demand_batches(&*model, node, object, &touched, coalesce)
                    {
                        model.install(node, object, &pages);
                        let pair =
                            rules::fetch_pair(config, registry, node, source, object, &pages, true);
                        charge(&mut ledger, pair);
                    }
                }
            }
            TraceEvent::RootCommit {
                node,
                dirty,
                released,
                ..
            } => {
                for &object in released {
                    let dirty_pages = dirty
                        .iter()
                        .find(|(o, _)| *o == object)
                        .map_or(&[][..], |(_, p)| p.as_slice());
                    charge(&mut ledger, release(*node, object, dirty_pages.len()));
                    let sites = model.on_commit(*node, object, dirty_pages);
                    charge(
                        &mut ledger,
                        rules::update_pushes(config, registry, *node, object, dirty_pages, sites),
                    );
                }
            }
            TraceEvent::SubAbortRelease { node, released, .. } => {
                for &object in released {
                    charge(&mut ledger, release(*node, object, 0));
                }
            }
            TraceEvent::FamilyAbort {
                node,
                released,
                cancelled_request,
                ..
            } => {
                for &object in released {
                    charge(&mut ledger, release(*node, object, 0));
                }
                // The victim's still-queued lock request was paid when it
                // queued but will never be granted.
                if let Some(object) = cancelled_request {
                    charge(&mut ledger, [rules::lock_request(config, *node, *object)]);
                }
            }
        }
    }
    ProtocolTraffic::new(ledger)
}

/// Records `messages`, dropping node-local ones.
fn charge(ledger: &mut TrafficLedger, messages: impl IntoIterator<Item = Message>) {
    for msg in messages.into_iter().filter(|m| !m.is_local()) {
        ledger.record(&msg);
    }
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
