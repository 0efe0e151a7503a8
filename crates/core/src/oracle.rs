//! The serializability oracle.
//!
//! Strict nested O2PL holds every lock until root commit, so any correct
//! distributed execution must be equivalent to the *serial* execution of
//! the committed families in root-commit order (§4.3's correctness
//! argument: a distributed execution is correct iff every transaction
//! always accesses the most up-to-date version of each object as defined
//! by O2PL).
//!
//! The oracle exploits the content chains the engine maintains: every
//! write folds a unique stamp into the target page's 64-bit chain, so two
//! executions applied the same writes in the same order iff their chains
//! are equal. [`verify`] re-executes the committed families' operations
//! serially against a model heap and checks
//!
//! 1. every *read* the engine observed saw exactly the model's value at
//!    that serial point (no stale or torn reads — the consistency protocol
//!    delivered the right bytes), and
//! 2. the final model heap equals the newest page copies in the live run
//!    (no lost updates).

use lotec_mem::{mix, ObjectId, PageIndex};

use crate::engine::{FamilyOp, RunReport};
use crate::error::CoreError;

/// Verifies that `report`'s execution is equivalent to the serial
/// execution of its committed families in commit order.
///
/// # Errors
///
/// Returns [`CoreError::OracleViolation`] describing the first divergence.
pub fn verify(report: &RunReport) -> Result<(), CoreError> {
    // Replay against a flat model heap laid out over the report's own page
    // numbering: the inner loop indexes an array instead of walking an
    // ordered map.
    let atlas = report.final_chains.atlas();
    let slot_of = |fam: u64, object: ObjectId, page: PageIndex| {
        atlas.try_slot(object, page).ok_or_else(|| {
            CoreError::OracleViolation(format!(
                "family {fam} accessed {object}/{page}, outside the object layout"
            ))
        })
    };
    let mut model = vec![0u64; atlas.total_pages()];

    for fam in &report.committed {
        for op in &fam.ops {
            match *op {
                FamilyOp::Read {
                    object,
                    page,
                    chain,
                } => {
                    let expected = model[slot_of(fam.family, object, page)?];
                    if chain != expected {
                        return Err(CoreError::OracleViolation(format!(
                            "family {} read {}/{} = {chain:#x}, serial order expects {expected:#x}",
                            fam.family, object, page
                        )));
                    }
                }
                FamilyOp::Write {
                    object,
                    page,
                    stamp,
                } => {
                    let entry = &mut model[slot_of(fam.family, object, page)?];
                    *entry = mix(*entry, stamp);
                }
            }
        }
    }

    let finals = report.final_chains.as_slice();
    if let Some(slot) = (0..finals.len()).find(|&s| finals[s] != model[s]) {
        let (object, page) = atlas.keys()[slot];
        return Err(CoreError::OracleViolation(format!(
            "final state of {object}/{page} is {:#x}, serial replay gives {:#x}",
            finals[slot], model[slot]
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::engine::{CommittedFamily, FinalChains};
    use crate::metrics::{ProtocolTraffic, RunStats};
    use crate::protocol::ProtocolKind;
    use crate::trace::ScheduleTrace;
    use lotec_mem::PageAtlas;
    use lotec_net::TrafficLedger;

    /// A report over a layout of one four-page object per id up to the
    /// largest one used; pages not listed in `finals` end at chain 0.
    fn report(committed: Vec<CommittedFamily>, finals: Vec<((u32, u16), u64)>) -> RunReport {
        let objects = committed
            .iter()
            .flat_map(|f| &f.ops)
            .map(|op| match *op {
                FamilyOp::Read { object, .. } | FamilyOp::Write { object, .. } => object.index(),
            })
            .chain(finals.iter().map(|&((o, _), _)| o))
            .max()
            .map_or(0, |o| o + 1);
        let mut final_chains = FinalChains::new(Arc::new(PageAtlas::uniform(objects, 4)));
        for ((o, p), c) in finals {
            *final_chains
                .get_mut(&(ObjectId::new(o), PageIndex::new(p)))
                .expect("page inside the test layout") = c;
        }
        RunReport {
            protocol: ProtocolKind::Lotec,
            stats: RunStats::default(),
            trace: ScheduleTrace::new(),
            traffic: ProtocolTraffic::new(TrafficLedger::new()),
            committed,
            final_chains,
            forensics: Vec::new(),
            materialised: Default::default(),
        }
    }

    fn w(o: u32, p: u16, stamp: u64) -> FamilyOp {
        FamilyOp::Write {
            object: ObjectId::new(o),
            page: PageIndex::new(p),
            stamp,
        }
    }

    fn r(o: u32, p: u16, chain: u64) -> FamilyOp {
        FamilyOp::Read {
            object: ObjectId::new(o),
            page: PageIndex::new(p),
            chain,
        }
    }

    #[test]
    fn empty_run_verifies() {
        verify(&report(vec![], vec![])).unwrap();
    }

    #[test]
    fn consistent_chain_verifies() {
        let c1 = mix(0, 7);
        let c2 = mix(c1, 9);
        let committed = vec![
            CommittedFamily {
                family: 1,
                index: 0,
                ops: vec![r(0, 0, 0), w(0, 0, 7)],
            },
            CommittedFamily {
                family: 2,
                index: 1,
                ops: vec![r(0, 0, c1), w(0, 0, 9)],
            },
        ];
        verify(&report(committed, vec![((0, 0), c2)])).unwrap();
    }

    #[test]
    fn stale_read_detected() {
        let committed = vec![
            CommittedFamily {
                family: 1,
                index: 0,
                ops: vec![w(0, 0, 7)],
            },
            // Family 2 read chain 0 — it missed family 1's committed write.
            CommittedFamily {
                family: 2,
                index: 1,
                ops: vec![r(0, 0, 0)],
            },
        ];
        let err = verify(&report(committed, vec![])).unwrap_err();
        assert!(err.to_string().contains("serial order expects"));
    }

    #[test]
    fn lost_update_detected() {
        let committed = vec![CommittedFamily {
            family: 1,
            index: 0,
            ops: vec![w(0, 0, 7)],
        }];
        // Final state still 0: the write vanished.
        let err = verify(&report(committed, vec![((0, 0), 0)])).unwrap_err();
        assert!(err.to_string().contains("final state"));
    }

    #[test]
    fn read_own_write_within_family_verifies() {
        let c1 = mix(0, 5);
        let committed = vec![CommittedFamily {
            family: 1,
            index: 0,
            ops: vec![w(0, 0, 5), r(0, 0, c1)],
        }];
        verify(&report(committed, vec![((0, 0), c1)])).unwrap();
    }

    #[test]
    fn access_outside_layout_detected() {
        let mut bad = report(vec![], vec![((0, 0), 0)]);
        bad.committed.push(CommittedFamily {
            family: 1,
            index: 0,
            ops: vec![w(3, 0, 7)],
        });
        let err = verify(&bad).unwrap_err();
        assert!(err.to_string().contains("outside the object layout"));
    }

    #[test]
    fn wrong_order_detected_via_chain() {
        // Chains are order-sensitive: applying stamps 5 then 9 differs from
        // 9 then 5, so a run that serialized the other way is caught.
        let c_right = mix(mix(0, 5), 9);
        let c_wrong = mix(mix(0, 9), 5);
        assert_ne!(c_right, c_wrong);
        let committed = vec![
            CommittedFamily {
                family: 1,
                index: 0,
                ops: vec![w(0, 0, 5)],
            },
            CommittedFamily {
                family: 2,
                index: 1,
                ops: vec![w(0, 0, 9)],
            },
        ];
        let err = verify(&report(committed, vec![((0, 0), c_wrong)])).unwrap_err();
        assert!(err.to_string().contains("final state"));
    }
}
