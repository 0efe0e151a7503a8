//! Deterministic fault injection: the [`FaultPlan`].
//!
//! A fault plan is *data*, not behavior: probabilities for per-message
//! faults (drop, duplicate, extra delay) plus a schedule of node crash
//! windows. The layers above interpret it — `lotec-net` turns the
//! probabilities into lossy delivery with retransmit accounting, and the
//! `lotec-core` engine turns crash windows into crash-abort and recovery
//! events. Keeping the plan here, at the bottom of the dependency graph,
//! lets every crate see the same schedule without cycles.
//!
//! Determinism: the plan itself holds no RNG. Consumers draw from a
//! dedicated [`SimRng`](crate::SimRng) fork, so a (seed, plan) pair always
//! reproduces the same faulty execution, byte for byte. An all-zero plan
//! reports [`FaultPlan::enabled`]` == false` and consumers skip the fault
//! path entirely — no RNG draws, no accounting, no behavior change.

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// A scheduled crash of one node: the node is unreachable during
/// `[at, until)` and comes back with its caches cold at `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashing node.
    pub node: NodeId,
    /// When the node dies.
    pub at: SimTime,
    /// When the node recovers (exclusive end of the outage).
    pub until: SimTime,
}

/// A deterministic fault schedule for one run.
///
/// The default plan is completely benign: all probabilities zero, no
/// crashes, [`FaultPlan::enabled`] is false.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that a message transmission attempt is lost in flight.
    pub drop_prob: f64,
    /// Probability that a delivered message is duplicated (the copy is
    /// charged to the ledger but carries no new information).
    pub duplicate_prob: f64,
    /// Probability that a delivered message suffers extra queueing delay.
    pub delay_prob: f64,
    /// Upper bound on the extra delay drawn when `delay_prob` fires.
    pub max_extra_delay: SimDuration,
    /// Retransmission timeout: how long a sender waits before resending a
    /// lost (or crash-swallowed) message.
    pub rto: SimDuration,
    /// Scheduled node outages.
    pub crashes: Vec<CrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            max_extra_delay: SimDuration::ZERO,
            rto: SimDuration::from_micros(500),
            crashes: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// True when the plan can actually perturb a run. Consumers gate the
    /// entire fault path on this so a disabled plan is zero-cost.
    pub fn enabled(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.delay_prob > 0.0
            || !self.crashes.is_empty()
    }

    /// True when `node` is inside a crash window at instant `at`.
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|w| w.node == node && at >= w.at && at < w.until)
    }

    /// The earliest instant `>= at` at which `node` is up. For a node
    /// outside any outage this is `at` itself; inside an outage it is the
    /// window's end (re-checked in case windows chain back to back).
    pub fn up_at(&self, node: NodeId, at: SimTime) -> SimTime {
        let mut t = at;
        // Windows may overlap or chain; iterate until no window covers `t`.
        loop {
            match self
                .crashes
                .iter()
                .filter(|w| w.node == node && t >= w.at && t < w.until)
                .map(|w| w.until)
                .max()
            {
                Some(until) => t = until,
                None => return t,
            }
        }
    }

    /// Validates plan sanity against a cluster size.
    ///
    /// # Errors
    ///
    /// Describes the first problem found: a probability outside `[0, 1)`
    /// for drops (a drop probability of 1 would retransmit forever) or
    /// `[0, 1]` for the rest, a zero `rto` while drops or crashes are
    /// enabled, or a crash window that is empty or names a node outside
    /// `0..num_nodes`.
    pub fn validate(&self, num_nodes: u32) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.drop_prob) {
            return Err("drop_prob must be in [0, 1): 1.0 would retransmit forever".into());
        }
        if !(0.0..=1.0).contains(&self.duplicate_prob) {
            return Err("duplicate_prob must be a probability".into());
        }
        if !(0.0..=1.0).contains(&self.delay_prob) {
            return Err("delay_prob must be a probability".into());
        }
        if (self.drop_prob > 0.0 || !self.crashes.is_empty()) && self.rto == SimDuration::ZERO {
            return Err("rto must be positive when drops or crashes are enabled".into());
        }
        for w in &self.crashes {
            if w.until <= w.at {
                return Err(format!("empty crash window for node {}", w.node));
            }
            if w.node.index() >= num_nodes {
                return Err(format!(
                    "crash window names node {} outside 0..{num_nodes}",
                    w.node
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn default_plan_is_disabled_and_valid() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled());
        assert_eq!(plan.validate(4), Ok(()));
        assert!(!plan.is_down(n(0), SimTime::ZERO));
        assert_eq!(plan.up_at(n(0), SimTime::from_micros(7)).as_nanos(), 7_000);
    }

    #[test]
    fn probabilities_enable_the_plan() {
        for plan in [
            FaultPlan {
                drop_prob: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                duplicate_prob: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                delay_prob: 0.1,
                ..FaultPlan::default()
            },
        ] {
            assert!(plan.enabled());
            assert_eq!(plan.validate(4), Ok(()));
        }
    }

    #[test]
    fn crash_window_membership() {
        let plan = FaultPlan {
            crashes: vec![CrashWindow {
                node: n(2),
                at: SimTime::from_micros(10),
                until: SimTime::from_micros(20),
            }],
            ..FaultPlan::default()
        };
        assert!(plan.enabled());
        assert_eq!(plan.validate(4), Ok(()));
        assert!(!plan.is_down(n(2), SimTime::from_micros(9)));
        assert!(plan.is_down(n(2), SimTime::from_micros(10)));
        assert!(plan.is_down(n(2), SimTime::from_micros(19)));
        assert!(
            !plan.is_down(n(2), SimTime::from_micros(20)),
            "end exclusive"
        );
        assert!(
            !plan.is_down(n(1), SimTime::from_micros(15)),
            "other node up"
        );
    }

    #[test]
    fn up_at_skips_chained_windows() {
        let plan = FaultPlan {
            crashes: vec![
                CrashWindow {
                    node: n(0),
                    at: SimTime::from_micros(10),
                    until: SimTime::from_micros(20),
                },
                CrashWindow {
                    node: n(0),
                    at: SimTime::from_micros(20),
                    until: SimTime::from_micros(30),
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.up_at(n(0), SimTime::from_micros(15)),
            SimTime::from_micros(30),
            "back-to-back windows are skipped in one call"
        );
        assert_eq!(
            plan.up_at(n(0), SimTime::from_micros(5)),
            SimTime::from_micros(5),
            "before the outage the node is already up"
        );
    }

    /// The error message of `plan`'s validation against 4 nodes.
    fn rejection(plan: FaultPlan) -> String {
        plan.validate(4).expect_err("plan must be rejected")
    }

    #[test]
    fn certain_drop_rejected() {
        let err = rejection(FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::default()
        });
        assert!(err.contains("retransmit forever"), "{err}");
    }

    #[test]
    fn empty_window_rejected() {
        let err = rejection(FaultPlan {
            crashes: vec![CrashWindow {
                node: n(0),
                at: SimTime::from_micros(5),
                until: SimTime::from_micros(5),
            }],
            ..FaultPlan::default()
        });
        assert!(err.contains("empty crash window"), "{err}");
    }

    #[test]
    fn out_of_range_node_rejected() {
        let err = rejection(FaultPlan {
            crashes: vec![CrashWindow {
                node: n(9),
                at: SimTime::ZERO,
                until: SimTime::from_micros(1),
            }],
            ..FaultPlan::default()
        });
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn zero_rto_with_drops_rejected() {
        let err = rejection(FaultPlan {
            drop_prob: 0.2,
            rto: SimDuration::ZERO,
            ..FaultPlan::default()
        });
        assert!(err.contains("rto must be positive"), "{err}");
    }
}
