//! Deterministic work counters for per-run state: an engine run and its
//! replay build per-object state only for the objects the families touch,
//! however large the registry is.

use std::collections::BTreeSet;

use lotec::prelude::*;
use lotec_core::placement::PlacementModel;
use lotec_core::replay::replay_model;

const OBJECTS: u32 = 120_000;
const NODES: u32 = 4;

fn big_registry(page_size: u32) -> ObjectRegistry {
    // Two pages per object.
    let class = ClassBuilder::new("Cell")
        .attribute("x", page_size)
        .attribute("y", page_size)
        .method("bump", |m| m.path(|p| p.reads(&["x"]).writes(&["x"])))
        .method("peek", |m| m.path(|p| p.reads(&["x", "y"])))
        .build();
    let instances: Vec<(ClassId, NodeId)> = (0..OBJECTS)
        .map(|i| (ClassId::new(0), NodeId::new(i % NODES)))
        .collect();
    ObjectRegistry::build(&[class], &instances, page_size).expect("registry builds")
}

/// A leaf family on `object`, run at the object's home node.
fn family(start_us: u64, object: u32, method: u32) -> FamilySpec {
    FamilySpec {
        node: NodeId::new(object % NODES),
        start: SimTime::from_micros(start_us),
        root: InvocationSpec::leaf(ObjectId::new(object), MethodId::new(method), PathId::new(0)),
    }
}

#[test]
fn per_run_state_counts_equal_the_touched_objects() {
    let config = SystemConfig {
        num_nodes: NODES,
        protocol: ProtocolKind::Lotec,
        ..SystemConfig::default()
    };
    let registry = big_registry(config.page_size);
    assert_eq!(registry.num_objects(), OBJECTS as usize);
    let families = vec![
        family(0, 7, 0),
        family(5, 54_321, 1),
        family(10, 7, 1),
        family(15, 99_998, 0),
        family(20, 119_999, 0),
        family(25, 54_321, 0),
    ];
    let touched: BTreeSet<u32> = families.iter().map(|f| f.root.object.index()).collect();
    let touched = touched.len() as u64;

    let report = run_engine(&config, &registry, &families).expect("runs");
    assert_eq!(report.stats.committed_families, families.len() as u64);
    oracle::verify(&report).expect("serializable");

    // Every family runs at its object's home, so nothing is transferred:
    // the stores hold exactly the touched objects' home images.
    assert_eq!(report.materialised.gdo_entries, touched);
    assert_eq!(report.materialised.resident_pages, 2 * touched);
    // The report still covers every page of every object.
    assert_eq!(report.final_chains.len(), 2 * OBJECTS as usize);
    assert_eq!(report.final_chains.values().filter(|&&c| c != 0).count(), 4);

    let mut model = PlacementModel::new(ProtocolKind::Lotec, &registry);
    let traffic = replay_model(&mut model, &report.trace, &registry, &config);
    assert_eq!(model.materialised() as u64, touched);
    assert_eq!(traffic.total(), report.traffic.total());
}
