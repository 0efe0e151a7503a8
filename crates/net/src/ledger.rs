//! Per-object traffic accounting.
//!
//! Figures 2–5 of the paper plot *bytes transferred to maintain the
//! consistency of each shared object*; Figures 6–8 plot the *total message
//! time* for an object under different network parameters. The
//! [`TrafficLedger`] accumulates exactly those quantities, per object and
//! per message kind.

use lotec_mem::ObjectId;
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
/// Two ledgers are equal when every (object, message kind) cell is: rows
/// only ever grow to cover an object that was charged, so equal traffic
/// means equal rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    /// Dense per-object rows, indexed by object id and grown on demand;
    /// each row splits the object's traffic by message kind. Objects are
    /// numbered densely by the registry, so a flat table turns the three
    /// map lookups every recorded message used to pay into array indexing.
    rows: Vec<[ObjectTraffic; NUM_KINDS]>,
    per_kind: [ObjectTraffic; NUM_KINDS],
    total: ObjectTraffic,
}

/// Number of [`MessageKind`] variants (rows are fixed-size arrays).
const NUM_KINDS: usize = MessageKind::ALL.len();

/// Index of `kind` within [`MessageKind::ALL`] (declaration order).
const fn kind_index(kind: MessageKind) -> usize {
    kind as usize
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
        if slot >= self.rows.len() {
            self.rows
                .resize(slot + 1, [ObjectTraffic::default(); NUM_KINDS]);
        }
        let kind = kind_index(msg.kind());
        self.rows[slot][kind].merge(delta);
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
            .map(|row| {
                let mut sum = ObjectTraffic::default();
                for t in row {
                    sum.merge(*t);
                }
                sum
            })
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

    /// Iterator over `(object, traffic)` in object order, skipping
    /// objects that never appeared.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, ObjectTraffic)> + '_ {
        self.rows.iter().enumerate().filter_map(|(slot, row)| {
            let mut sum = ObjectTraffic::default();
            for t in row {
                sum.merge(*t);
            }
            (sum.messages > 0).then(|| (ObjectId::new(slot as u32), sum))
        })
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &TrafficLedger) {
        if other.rows.len() > self.rows.len() {
            self.rows
                .resize(other.rows.len(), [ObjectTraffic::default(); NUM_KINDS]);
        }
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge(*b);
            }
        }
        for (a, b) in self.per_kind.iter_mut().zip(&other.per_kind) {
            a.merge(*b);
        }
        self.total.merge(other.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, SoftwareCost};
    use lotec_sim::NodeId;

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

    #[test]
    fn merge_combines_ledgers() {
        let mut a = TrafficLedger::new();
        let mut b = TrafficLedger::new();
        a.record(&msg(MessageKind::LockGrant, 0, 100));
        b.record(&msg(MessageKind::LockGrant, 0, 50));
        b.record(&msg(MessageKind::UpdatePush, 2, 500));
        a.merge(&b);
        assert_eq!(a.object(ObjectId::new(0)).bytes, 150);
        assert_eq!(
            a.total(),
            ObjectTraffic {
                messages: 3,
                bytes: 650
            }
        );
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
