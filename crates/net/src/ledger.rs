//! Per-object traffic accounting.
//!
//! Figures 2–5 of the paper plot *bytes transferred to maintain the
//! consistency of each shared object*; Figures 6–8 plot the *total message
//! time* for an object under different network parameters. The
//! [`TrafficLedger`] accumulates exactly those quantities, per object and
//! per message kind.

use lotec_mem::{ObjectId, TouchedSlots};
use lotec_sim::SimDuration;

use crate::config::NetworkConfig;
use crate::message::{Message, MessageKind};

/// Accumulated traffic attributable to one object (or to a whole run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectTraffic {
    /// Number of consistency messages.
    pub messages: u64,
    /// Total bytes across those messages.
    pub bytes: u64,
}

impl ObjectTraffic {
    /// Total message time under `net`: each message pays the software cost
    /// and the bytes are serialized at link bandwidth.
    ///
    /// Because the cost model is linear, the per-object total only needs
    /// the message count and byte sum; the only approximation is that
    /// per-message wire times are rounded once over the byte total instead
    /// of once per message (≤ 1 ns per message).
    pub fn message_time(&self, net: NetworkConfig) -> SimDuration {
        net.software_cost().duration() * self.messages + net.bandwidth().wire_time(self.bytes)
    }

    /// Adds another accumulation into this one.
    pub fn merge(&mut self, other: ObjectTraffic) {
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// Ledger of every consistency message sent during a run.
///
/// ```
/// use lotec_net::{Message, MessageKind, TrafficLedger, NetworkConfig};
/// use lotec_sim::NodeId;
/// use lotec_mem::ObjectId;
///
/// let mut ledger = TrafficLedger::new();
/// ledger.record(&Message::new(
///     MessageKind::PageTransfer,
///     NodeId::new(0),
///     NodeId::new(1),
///     ObjectId::new(7),
///     4_144,
/// ));
/// assert_eq!(ledger.object(ObjectId::new(7)).bytes, 4_144);
/// // Evaluate the same traffic against any network configuration.
/// let t = ledger.total().message_time(NetworkConfig::default_cluster());
/// assert!(t.as_nanos() > 0);
/// ```
///
/// Two ledgers are equal when their totals and every (object, message
/// kind) cell are, whatever order the objects were first charged in.
#[derive(Debug, Clone, Default)]
pub struct TrafficLedger {
    /// One row per charged object, splitting its traffic by message kind
    /// (§4j: uncharged ids cost neither rows nor resident memory). The
    /// object-id index widens on demand to the next power of two.
    rows: TouchedSlots<[ObjectTraffic; NUM_KINDS]>,
    per_kind: [ObjectTraffic; NUM_KINDS],
    total: ObjectTraffic,
}

impl PartialEq for TrafficLedger {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.per_kind == other.per_kind
            && self.rows.len() == other.rows.len()
            && self
                .rows
                .iter()
                .all(|(slot, row)| other.rows.get(slot) == Some(row))
    }
}

impl Eq for TrafficLedger {}

/// Number of [`MessageKind`] variants (rows are fixed-size arrays).
const NUM_KINDS: usize = MessageKind::ALL.len();

/// Index of `kind` within [`MessageKind::ALL`] (declaration order).
const fn kind_index(kind: MessageKind) -> usize {
    kind as usize
}

/// An object's traffic summed over every message kind.
fn row_sum(row: &[ObjectTraffic; NUM_KINDS]) -> ObjectTraffic {
    ObjectTraffic {
        messages: row.iter().map(|t| t.messages).sum(),
        bytes: row.iter().map(|t| t.bytes).sum(),
    }
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the message is node-local — local
    /// operations never reach the network and must not be accounted.
    pub fn record(&mut self, msg: &Message) {
        debug_assert!(
            !msg.is_local(),
            "local message reached the network ledger: {msg}"
        );
        let delta = ObjectTraffic {
            messages: 1,
            bytes: msg.bytes(),
        };
        let slot = msg.object().index() as usize;
        if !self.rows.contains(slot) {
            self.rows.grow((slot + 1).next_power_of_two());
        }
        let kind = kind_index(msg.kind());
        self.rows
            .get_or_insert_with(slot, || [ObjectTraffic::default(); NUM_KINDS])[kind]
            .merge(delta);
        self.per_kind[kind].merge(delta);
        self.total.merge(delta);
    }

    /// Traffic charged to `object` under one message kind.
    pub fn object_kind(&self, object: ObjectId, kind: MessageKind) -> ObjectTraffic {
        self.rows
            .get(object.index() as usize)
            .map(|row| row[kind_index(kind)])
            .unwrap_or_default()
    }

    /// Total message time for `object` under `net`, respecting the
    /// active-message split when enabled (each kind pays its own startup).
    pub fn object_time(&self, object: ObjectId, net: NetworkConfig) -> SimDuration {
        MessageKind::ALL
            .iter()
            .map(|&kind| {
                let t = self.object_kind(object, kind);
                net.startup_for(kind).duration() * t.messages + net.bandwidth().wire_time(t.bytes)
            })
            .sum()
    }

    /// Whole-run message time under `net`, respecting the active-message
    /// split when enabled.
    pub fn total_time(&self, net: NetworkConfig) -> SimDuration {
        MessageKind::ALL
            .iter()
            .map(|&kind| {
                let t = self.kind(kind);
                net.startup_for(kind).duration() * t.messages + net.bandwidth().wire_time(t.bytes)
            })
            .sum()
    }

    /// Traffic charged to `object` (zero if it never appeared).
    pub fn object(&self, object: ObjectId) -> ObjectTraffic {
        self.rows
            .get(object.index() as usize)
            .map(row_sum)
            .unwrap_or_default()
    }

    /// Traffic of one message kind.
    pub fn kind(&self, kind: MessageKind) -> ObjectTraffic {
        self.per_kind[kind_index(kind)]
    }

    /// Whole-run totals.
    pub fn total(&self) -> ObjectTraffic {
        self.total
    }

    /// Number of rows held: one per object charged at least one message.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Iterator over `(object, traffic)` in ascending object id, skipping
    /// objects that never appeared.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, ObjectTraffic)> + '_ {
        self.rows.sorted_keys().into_iter().map(|slot| {
            let row = self.rows.get(slot).expect("sorted keys are touched");
            (ObjectId::new(slot as u32), row_sum(row))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, SoftwareCost};
    use lotec_sim::{NodeId, SimRng};
    use std::collections::BTreeMap;

    fn msg(kind: MessageKind, obj: u32, bytes: u64) -> Message {
        Message::new(
            kind,
            NodeId::new(0),
            NodeId::new(1),
            ObjectId::new(obj),
            bytes,
        )
    }

    #[test]
    fn empty_ledger_reports_zero() {
        let l = TrafficLedger::new();
        assert_eq!(l.total(), ObjectTraffic::default());
        assert_eq!(l.object(ObjectId::new(9)), ObjectTraffic::default());
        assert_eq!(l.objects().count(), 0);
    }

    #[test]
    fn record_accumulates_per_object_and_kind() {
        let mut l = TrafficLedger::new();
        l.record(&msg(MessageKind::LockRequest, 0, 44));
        l.record(&msg(MessageKind::PageTransfer, 0, 4144));
        l.record(&msg(MessageKind::LockRequest, 1, 44));
        assert_eq!(
            l.object(ObjectId::new(0)),
            ObjectTraffic {
                messages: 2,
                bytes: 4188
            }
        );
        assert_eq!(
            l.object(ObjectId::new(1)),
            ObjectTraffic {
                messages: 1,
                bytes: 44
            }
        );
        assert_eq!(
            l.kind(MessageKind::LockRequest),
            ObjectTraffic {
                messages: 2,
                bytes: 88
            }
        );
        assert_eq!(
            l.total(),
            ObjectTraffic {
                messages: 3,
                bytes: 4232
            }
        );
    }

    #[test]
    fn message_time_is_linear_model() {
        let t = ObjectTraffic {
            messages: 10,
            bytes: 1_000,
        };
        let net = NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::MICROS_100);
        // 10 * 100us + 8000 bits / 10 Mbps (= 800us) = 1800us.
        assert_eq!(t.message_time(net), SimDuration::from_micros(1_800));
    }

    #[test]
    fn more_messages_cost_more_time_at_high_software_cost() {
        // LOTEC's trade-off: fewer bytes but more messages can lose on
        // slow stacks. 5 msgs/2000B vs 2 msgs/4000B at 100us software cost:
        let many_small = ObjectTraffic {
            messages: 5,
            bytes: 2_000,
        };
        let few_large = ObjectTraffic {
            messages: 2,
            bytes: 4_000,
        };
        let slow_stack = NetworkConfig::new(Bandwidth::gigabit(), SoftwareCost::MICROS_100);
        assert!(many_small.message_time(slow_stack) > few_large.message_time(slow_stack));
        // ...but win once the stack is fast and bandwidth is the bottleneck.
        let fast_stack = NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::NANOS_500);
        assert!(many_small.message_time(fast_stack) < few_large.message_time(fast_stack));
    }

    /// A seeded message stream: a few hot ids plus ids spread over
    /// `0..1_000_000`, every kind, and endpoints drawn from four nodes (so
    /// about a quarter of the messages are node-local).
    fn message_stream(seed: u64, len: usize) -> Vec<Message> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let object = if rng.chance(0.5) {
                    rng.next_below(16)
                } else {
                    rng.next_below(1_000_000)
                };
                Message::new(
                    *rng.pick(&MessageKind::ALL),
                    NodeId::new(rng.next_below(4) as u32),
                    NodeId::new(rng.next_below(4) as u32),
                    ObjectId::new(object as u32),
                    rng.range_inclusive(8, 5_000),
                )
            })
            .collect()
    }

    fn ledger_of(messages: &[Message]) -> TrafficLedger {
        let mut ledger = TrafficLedger::new();
        for m in messages.iter().filter(|m| !m.is_local()) {
            ledger.record(m);
        }
        ledger
    }

    #[test]
    fn sparse_ledger_matches_a_map_reference() {
        let nets = [
            NetworkConfig::default_cluster(),
            NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::MICROS_100)
                .with_active_messages(SoftwareCost::MICROS_5),
        ];
        for seed in 0..4 {
            let messages = message_stream(seed, 3_000);
            assert!(messages.iter().any(Message::is_local));
            let ledger = ledger_of(&messages);

            let mut cells: BTreeMap<(ObjectId, MessageKind), ObjectTraffic> = BTreeMap::new();
            for m in messages.iter().filter(|m| !m.is_local()) {
                cells
                    .entry((m.object(), m.kind()))
                    .or_default()
                    .merge(ObjectTraffic {
                        messages: 1,
                        bytes: m.bytes(),
                    });
            }
            let mut per_object: BTreeMap<ObjectId, ObjectTraffic> = BTreeMap::new();
            let mut per_kind: BTreeMap<MessageKind, ObjectTraffic> = BTreeMap::new();
            let mut total = ObjectTraffic::default();
            for (&(object, kind), &t) in &cells {
                per_object.entry(object).or_default().merge(t);
                per_kind.entry(kind).or_default().merge(t);
                total.merge(t);
            }

            assert_eq!(ledger.total(), total);
            assert_eq!(ledger.rows(), per_object.len());
            assert!(per_object.keys().any(|o| o.index() > 900_000));
            let listed: Vec<_> = ledger.objects().collect();
            let expected: Vec<_> = per_object.iter().map(|(&o, &t)| (o, t)).collect();
            assert_eq!(listed, expected, "objects() in ascending id order");
            for kind in MessageKind::ALL {
                let want = per_kind.get(&kind).copied().unwrap_or_default();
                assert_eq!(ledger.kind(kind), want, "{kind:?}");
            }
            // Charged ids, their neighbours and ids past the index.
            let probes = per_object
                .keys()
                .flat_map(|o| [o.index(), o.index() + 1])
                .chain([1_000_000, 2_000_000, u32::MAX]);
            for id in probes {
                let object = ObjectId::new(id);
                let want = per_object.get(&object).copied().unwrap_or_default();
                assert_eq!(ledger.object(object), want, "object {id}");
                for net in nets {
                    let mut time = SimDuration::ZERO;
                    for kind in MessageKind::ALL {
                        let t = cells.get(&(object, kind)).copied().unwrap_or_default();
                        assert_eq!(ledger.object_kind(object, kind), t);
                        time += net.startup_for(kind).duration() * t.messages
                            + net.bandwidth().wire_time(t.bytes);
                    }
                    assert_eq!(ledger.object_time(object, net), time, "object {id}");
                }
            }
        }
    }

    #[test]
    fn equality_ignores_charge_order_but_not_cells() {
        let mut rng = SimRng::seed_from_u64(42);
        let mut messages = message_stream(7, 2_000);
        let ledger = ledger_of(&messages);
        for _ in 0..3 {
            rng.shuffle(&mut messages);
            assert_eq!(ledger_of(&messages), ledger);
        }

        // One extra message: one cell (and the totals) differ.
        let remote = *messages.iter().find(|m| !m.is_local()).unwrap();
        let mut extra = ledger.clone();
        extra.record(&remote);
        assert_ne!(extra, ledger);

        // The same message charged to an uncharged object instead: totals
        // and per-kind sums agree, two cells differ.
        let mut moved = messages.clone();
        let at = moved.iter().position(|m| !m.is_local()).unwrap();
        let m = moved[at];
        let uncharged = (0..).find(|&id| ledger.object(ObjectId::new(id)).messages == 0);
        moved[at] = Message::new(
            m.kind(),
            m.src(),
            m.dst(),
            ObjectId::new(uncharged.unwrap()),
            m.bytes(),
        );
        let moved = ledger_of(&moved);
        assert_eq!(moved.total(), ledger.total());
        for kind in MessageKind::ALL {
            assert_eq!(moved.kind(kind), ledger.kind(kind));
        }
        assert_ne!(moved, ledger);
    }

    #[test]
    #[should_panic(expected = "local message")]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    fn local_messages_rejected_in_debug() {
        let mut l = TrafficLedger::new();
        let local = Message::new(
            MessageKind::PageRequest,
            NodeId::new(2),
            NodeId::new(2),
            ObjectId::new(0),
            10,
        );
        l.record(&local);
    }
}
