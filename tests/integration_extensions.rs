//! The extension features (paper §6 future work) working together: per-
//! class protocols, DSD transfer granularity, multicast pushes, optimistic
//! lock prefetching and fault injection, all in one run.

use lotec::prelude::*;
use lotec_core::SystemConfig as Cfg;

fn everything_enabled(scenario: &lotec::workload::Scenario) -> Cfg {
    Cfg {
        dsd_transfers: true,
        multicast: true,
        lock_prefetch: true,
        ..scenario.system_config()
    }
    // Put the last class under RC so multicast has pushes to collapse.
    .with_class_protocol(
        ClassId::new(scenario.config.schema.num_classes - 1),
        ProtocolKind::ReleaseConsistency,
    )
}

#[test]
fn all_extensions_compose_serializably() {
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::ablation_faults());
    let (registry, families) = scenario.generate().expect("generates");
    let config = everything_enabled(&scenario);
    let report = run_engine(&config, &registry, &families).expect("kitchen-sink run");
    oracle::verify(&report).expect("all extensions together stay serializable");
    assert!(report.stats.committed_families > 0);
    assert!(report.stats.subtxn_aborts > 0, "faults must fire");
}

#[test]
fn all_extensions_stay_deterministic() {
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig3());
    let (registry, families) = scenario.generate().expect("generates");
    let config = everything_enabled(&scenario);
    let a = run_engine(&config, &registry, &families).expect("run a");
    let b = run_engine(&config, &registry, &families).expect("run b");
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.traffic.total(), b.traffic.total());
    assert_eq!(a.final_chains, b.final_chains);
}

/// A LOTEC run whose predictions miss a quarter of the time: engine and
/// replay must drop the same pages (one miss stream) and repair them with
/// the same demand fetches.
fn lotec_missing_predictions(scenario: &lotec::workload::Scenario) -> Cfg {
    Cfg {
        prediction_miss_rate: 0.25,
        ..scenario.system_config()
    }
    .with_protocol(ProtocolKind::Lotec)
}

#[test]
fn all_extensions_match_replay_accounting() {
    use lotec::workload::presets;
    let fig2 = presets::quick(presets::fig2());
    let fig3 = presets::quick(presets::fig3());
    let rows = [
        (everything_enabled(&fig2), fig2),
        (lotec_missing_predictions(&fig3), fig3),
    ];
    for (config, scenario) in rows {
        let (registry, families) = scenario.generate().expect("generates");
        let report = run_engine(&config, &registry, &families).expect("runs");
        let replayed = lotec_core::replay::replay_run(&report.trace, &registry, &config);
        assert_eq!(
            report.traffic.ledger(),
            replayed.ledger(),
            "{}: engine and replay ledgers diverged",
            scenario.name
        );
    }
}

#[test]
fn persisted_scenario_reproduces_full_pipeline_results() {
    use lotec::workload::persist;
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig4());
    let json = persist::to_json(&scenario).expect("serializes");
    let reloaded = persist::from_json(&json).expect("deserializes");

    let run = |s: &lotec::workload::Scenario| {
        let (registry, families) = s.generate().expect("generates");
        let cmp = compare_protocols(&s.system_config(), &registry, &families).expect("runs");
        (
            cmp.total(ProtocolKind::Lotec),
            cmp.total(ProtocolKind::Otec),
            cmp.total(ProtocolKind::Cotec),
        )
    };
    assert_eq!(
        run(&scenario),
        run(&reloaded),
        "JSON roundtrip preserves every result"
    );
}

#[test]
fn dsd_never_increases_any_objects_bytes_on_the_same_schedule() {
    // Smaller DSD messages travel faster, so a *live* DSD engine run can
    // reach a different (equally valid) schedule. For an apples-to-apples
    // granularity claim, replay one fixed schedule under both sizings.
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig2());
    let (registry, families) = scenario.generate().expect("generates");
    let base = scenario.system_config();
    let report = run_engine(&base, &registry, &families).expect("schedule run");
    let page = lotec_core::replay::replay_run(&report.trace, &registry, &base);
    let dsd_cfg = Cfg {
        dsd_transfers: true,
        ..base
    };
    let dsd = lotec_core::replay::replay_run(&report.trace, &registry, &dsd_cfg);
    assert!(
        dsd.total().bytes < page.total().bytes,
        "dsd must shave fragmentation"
    );
    assert_eq!(dsd.total().messages, page.total().messages);
    for inst in registry.objects() {
        let p = page.object(inst.id).bytes;
        let d = dsd.object(inst.id).bytes;
        assert!(d <= p, "{}: dsd {d} > page {p}", inst.id);
    }
}
