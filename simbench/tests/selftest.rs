//! Self-tests of the benchmark: reruns repeat exactly, the seed reaches
//! the generator, tracing perturbs nothing, and the manifest and
//! `BENCHMARK.json` name what the program reports.
//!
//! Each test runs one cell per scenario of a workload (the full workloads
//! take tens of seconds per pass). Run with `--release`: the `tenant_1m`
//! cell holds a million objects.

use std::collections::BTreeSet;
use std::process::Command;

use lotec_obs::Json;
use lotec_simbench::metrics::{end_to_end, per_layer_timed, per_layer_traced};
use lotec_simbench::runner::{run_pass, PassResult, WorkloadRun};
use lotec_simbench::spans::SpanLog;
use lotec_simbench::workloads::{Cell, SimOutcome, Workload};

/// One generated cell per scenario of `workload` at `seed`.
fn sample_cells(workload: Workload, seed: u64) -> Vec<Cell> {
    workload
        .cells(seed)
        .iter()
        .step_by(workload.seeds_per_pass() as usize)
        .map(|spec| spec.generate().expect("generates"))
        .collect()
}

fn pass(cells: &[Cell]) -> PassResult {
    run_pass(cells, None).expect("oracle and parity hold")
}

/// The outcome's exact counters and `sim_*` values as named metrics.
fn exact_metrics(o: &SimOutcome) -> Vec<(&'static str, f64)> {
    vec![
        ("sim_bytes", o.bytes as f64),
        ("sim_messages", o.messages as f64),
        ("sim.latency_p99_ms", o.latency_ms(0.99)),
        ("sim_makespan_ms", o.makespan_ns as f64),
        ("events", o.events as f64),
        ("deadlocks", o.deadlocks as f64),
        ("global_grants", o.global_grants as f64),
    ]
}

#[test]
fn two_passes_repeat_exactly_and_another_seed_differs() {
    for workload in Workload::ALL {
        let cells = sample_cells(workload, 1);
        let (a, b) = (pass(&cells), pass(&cells));
        assert_eq!(a.outcome, b.outcome, "{}: rerun differs", workload.name());
        assert_eq!(
            a.outcome.families,
            a.outcome.committed,
            "{}",
            workload.name()
        );
        let other = pass(&sample_cells(workload, 2));
        assert_ne!(
            exact_metrics(&a.outcome),
            exact_metrics(&other.outcome),
            "{}: seed 2 simulated the same as seed 1",
            workload.name()
        );
    }
}

#[test]
fn traced_pass_leaves_the_simulation_identical() {
    for workload in Workload::ALL {
        let cells = sample_cells(workload, 3);
        let plain = pass(&cells);
        let mut spans = SpanLog::new();
        let traced = run_pass(&cells, Some(&mut spans)).expect("traced pass runs");
        assert_eq!(plain.outcome, traced.outcome, "{}", workload.name());
        let profile = traced.profile.expect("traced pass profiles the engine");
        assert!(profile.total_count() > 0);
        // One pass span, one span per cell under it, five stage spans under
        // each cell.
        let all = spans.spans();
        assert_eq!(all.len(), 1 + cells.len() * 6);
        assert_eq!(all.iter().filter(|s| s.parent.is_none()).count(), 1);
        for (i, span) in all.iter().enumerate().filter(|(_, s)| s.name == "cell") {
            let children = all.iter().filter(|s| s.parent == Some(i)).count();
            assert_eq!(children, 5, "cell span {i}");
            assert!(span.end_ns >= span.start_ns);
        }
        let selfs = spans.self_ns_by_name();
        assert!(selfs["core.engine.run"] > 0);
    }
}

fn tiny_run(traced: bool) -> WorkloadRun {
    let cells = sample_cells(Workload::PaperFigs, 1);
    let mut spans = SpanLog::new();
    let timed = vec![pass(&cells), pass(&cells)];
    let traced = if traced {
        vec![run_pass(&cells, Some(&mut spans)).expect("traced pass runs")]
    } else {
        Vec::new()
    };
    WorkloadRun {
        workload: Workload::PaperFigs,
        seed: 1,
        cell_labels: cells.iter().map(|c| c.label.clone()).collect(),
        setup_s: vec![0.01, 0.02, 0.03],
        timed,
        traced,
        spans,
        peak_rss_bytes: 1 << 20,
    }
}

fn read_json(relative: &str) -> Json {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .expect("array")
        .iter()
        .map(|x| {
            x.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_what_the_program_reports() {
    let bench = read_json("../BENCHMARK.json");
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names(bench.get("workloads").expect("workloads")), workloads);

    let run = tiny_run(true);
    let e2e: Vec<String> = end_to_end(&run).into_iter().map(|m| m.name).collect();
    assert_eq!(names(bench.get("end_to_end").expect("end_to_end")), e2e);
    let mut layer: Vec<String> = per_layer_timed(&run).into_iter().map(|m| m.name).collect();
    layer.extend(per_layer_traced(&run).into_iter().map(|m| m.name));
    assert_eq!(names(bench.get("per_layer").expect("per_layer")), layer);
    let unique: BTreeSet<&String> = e2e.iter().chain(&layer).collect();
    assert_eq!(
        unique.len(),
        e2e.len() + layer.len(),
        "metric names are unique"
    );
    assert!(per_layer_traced(&tiny_run(false)).is_empty());
}

#[test]
fn manifest_matches_the_workloads_and_the_metric_lists() {
    let manifest = read_json("manifest.json");
    let bench = read_json("../BENCHMARK.json");
    for workload in Workload::ALL {
        let params = manifest
            .get("workloads")
            .and_then(|w| w.get(workload.name()))
            .and_then(|w| w.get("params"))
            .unwrap_or_else(|| panic!("manifest lacks {}", workload.name()));
        assert_eq!(
            params.render(),
            workload.params().render(),
            "{}",
            workload.name()
        );
    }
    let e2e: BTreeSet<String> = names(bench.get("end_to_end").expect("e2e"))
        .into_iter()
        .collect();
    let layer: BTreeSet<String> = names(bench.get("per_layer").expect("layer"))
        .into_iter()
        .collect();
    let workloads: BTreeSet<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let map = manifest
        .get("layer_map")
        .and_then(Json::as_array)
        .expect("layer_map");
    let mut mapped = BTreeSet::new();
    for row in map {
        for metric in row
            .get("metrics")
            .and_then(Json::as_array)
            .expect("metrics")
        {
            let metric = metric.as_str().expect("string");
            assert!(
                layer.contains(metric),
                "layer_map names unknown metric {metric}"
            );
            mapped.insert(metric.to_string());
        }
        for target in row.get("moves").and_then(Json::as_array).expect("moves") {
            let target = target.as_str().expect("string");
            assert!(
                e2e.contains(target) || layer.contains(target),
                "layer_map moves unknown metric {target}"
            );
        }
        for w in row
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
        {
            let w = w.as_str().expect("string");
            assert!(
                workloads.contains(w),
                "layer_map names unknown workload {w}"
            );
        }
    }
    assert_eq!(mapped, layer, "every per-layer metric is mapped exactly");
}

#[test]
fn bad_arguments_exit_2_without_a_result_line() {
    let bin = env!("CARGO_BIN_EXE_lotec-simbench");
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "paper_figs", "--trace", "2"][..],
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
