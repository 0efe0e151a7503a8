//! Deterministic work counters for per-run state: an engine run and its
//! replay build per-object state only for the objects the families touch,
//! however large the registry is, and ledger rows only for the objects
//! their messages are charged to.

use std::collections::BTreeSet;

use lotec::prelude::*;
use lotec_core::placement::PlacementModel;
use lotec_core::replay::replay_model;
use lotec_net::MessageKind;

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
    away_family(start_us, object, method, 0)
}

/// A leaf family on `object`, run `hops` nodes away from its home.
fn away_family(start_us: u64, object: u32, method: u32, hops: u32) -> FamilySpec {
    FamilySpec {
        node: NodeId::new((object + hops) % NODES),
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
        away_family(30, 119_997, 0, 1),
        family(35, 119_997, 1),
    ];
    let touched_ids: BTreeSet<u32> = families.iter().map(|f| f.root.object.index()).collect();
    let touched = touched_ids.len() as u64;

    let report = run_engine(&config, &registry, &families).expect("runs");
    assert_eq!(report.stats.committed_families, families.len() as u64);
    oracle::verify(&report).expect("serializable");

    // The stores hold exactly the touched objects' home images, plus the
    // page `x` the away family's `bump` wrote at its own node (a
    // never-written page is zero-filled there, not transferred).
    assert_eq!(report.materialised.gdo_entries, touched);
    assert_eq!(report.materialised.resident_pages, 2 * touched + 1);
    // The report still covers every page of every object.
    assert_eq!(report.final_chains.len(), 2 * OBJECTS as usize);
    assert_eq!(report.final_chains.values().filter(|&&c| c != 0).count(), 5);

    let mut model = PlacementModel::new(ProtocolKind::Lotec, &registry);
    let traffic = replay_model(&mut model, &report.trace, &registry, &config);
    assert_eq!(model.materialised() as u64, touched);
    assert_eq!(traffic.total(), report.traffic.total());
    // The ledgers hold one row per charged object, whatever its id: every
    // touched object's lock traffic crosses to its GDO node, and the home
    // `peek` after the away `bump` fetches `x` back.
    let ledger = report.traffic.ledger();
    let charged: BTreeSet<u32> = ledger.objects().map(|(o, _)| o.index()).collect();
    assert_eq!(charged, touched_ids);
    assert!(charged.contains(&119_999));
    assert_eq!(ledger.rows() as u64, touched);
    assert_eq!(traffic.ledger().rows() as u64, touched);
    assert_eq!(
        ledger
            .object_kind(ObjectId::new(119_997), MessageKind::PageTransfer)
            .messages,
        1
    );
    assert_eq!(report.traffic.ledger(), traffic.ledger());
}
