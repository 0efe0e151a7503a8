//! Turns a [`WorkloadRun`] into named metrics with units.
//!
//! End-to-end metrics are what a user of the simulator sees: host wall
//! time, CPU and memory of a pass, set-up time, and the simulated traffic
//! and makespan. Per-layer metrics attribute that to the crates: times of
//! the public calls (every run), exact simulation counters and commit
//! latency quantiles (every run), and engine-region self times, allocation
//! counts and tracing overhead (traced runs only).
//!
//! Commit-latency quantiles are per-layer rather than end-to-end: across
//! benchmark seeds they spread further than any regression bound could
//! hold (the `tenant_1m` median sits between two latency modes and moves
//! by a factor of three with the schema draw).

use lotec_core::protocol::ProtocolKind;
use lotec_obs::{HostProfile, HostRegion, Json};

use crate::runner::{median, PassResult, WorkloadRun};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `MiB`, `count`, `ratio`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// `{"value": ..., "unit": ...}`, the shape of one entry of a result
    /// line's `metrics` object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("value", Json::F64(self.value)),
            ("unit", Json::str(self.unit)),
        ])
    }
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Engine regions reported by the traced run, with their metric names.
pub const REGIONS: [(HostRegion, &str); 11] = [
    (HostRegion::EventPop, "sim.event_pop"),
    (HostRegion::EventPush, "sim.event_push"),
    (HostRegion::Dispatch, "core.dispatch"),
    (HostRegion::Setup, "core.engine.setup"),
    (HostRegion::Report, "core.engine.report"),
    (HostRegion::LockAcquire, "txn.lock_acquire"),
    (HostRegion::LockRelease, "txn.lock_release"),
    (HostRegion::DeadlockGate, "txn.deadlock_gate"),
    (HostRegion::PageTransfer, "mem.page_transfer"),
    (HostRegion::PageInstall, "mem.page_install"),
    (HostRegion::CowWrite, "mem.cow_write"),
];

/// The end-to-end metrics, all measured on the timed passes.
pub fn end_to_end(run: &WorkloadRun) -> Vec<Metric> {
    let o = run.outcome();
    vec![
        m("wall_s", median(run.timed.iter().map(|p| p.wall_s)), "s"),
        m("cpu_s", median(run.timed.iter().map(|p| p.cpu_s)), "s"),
        m(
            "peak_rss_mb",
            run.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        m("setup_s", median(run.setup_s.iter().copied()), "s"),
        m("sim_bytes", o.bytes as f64, "B"),
        m("sim_messages", o.messages as f64, "count"),
        m("sim_makespan_ms", o.makespan_ns as f64 / 1e6, "ms"),
    ]
}

/// Per-layer metrics measured in every run: stage times of the timed
/// passes and the exact simulation counters.
pub fn per_layer_timed(run: &WorkloadRun) -> Vec<Metric> {
    let o = run.outcome();
    let stage = |j: usize| median(run.timed.iter().map(|p| p.stage_s[j]));
    let run_s = stage(1);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        m("sim.latency_p50_ms", o.latency_ms(0.5), "ms"),
        m("sim.latency_p99_ms", o.latency_ms(0.99), "ms"),
        m("sim.latency_mean_ms", o.latency.mean() / 1e6, "ms"),
        m("core.engine.new_s", stage(0), "s"),
        m("core.engine.run_s", run_s, "s"),
        m("core.engine.events", o.events as f64, "count"),
        m(
            "core.engine.events_per_s",
            if run_s > 0.0 {
                o.events as f64 / run_s
            } else {
                0.0
            },
            "1/s",
        ),
        m("core.oracle.verify_s", stage(2), "s"),
        m("core.replay.replay_s", stage(3), "s"),
        m("bench.summarise_s", stage(4), "s"),
        // Means, not medians: kernel time is counted in 10 ms ticks, and a
        // pass that spends under a tick in the kernel reads 0.
        m("proc.sys_s", mean(run.timed.iter().map(|p| p.sys_s)), "s"),
        m(
            "proc.minor_faults",
            mean(run.timed.iter().map(|p| p.minor_faults as f64)),
            "count",
        ),
        m("txn.global_grants", o.global_grants as f64, "count"),
        m("txn.local_grants", o.local_grants as f64, "count"),
        m("txn.queued_requests", o.queued_requests as f64, "count"),
        m("txn.deadlocks", o.deadlocks as f64, "count"),
        m("txn.restarts", o.restarts as f64, "count"),
        m(
            "txn.useful_ratio",
            ratio(o.committed, o.committed + o.restarts),
            "ratio",
        ),
        m("object.demand_fetches", o.demand_fetches as f64, "count"),
        m(
            "object.profile_expansions",
            o.profile_expansions as f64,
            "count",
        ),
        m("object.profile_shrinks", o.profile_shrinks as f64, "count"),
        m("net.bytes_per_message", ratio(o.bytes, o.messages), "B"),
        m("phase.lock_wait_frac", o.phase_frac(0), "ratio"),
        m("phase.transfer_wait_frac", o.phase_frac(1), "ratio"),
        m("phase.running_frac", o.phase_frac(2), "ratio"),
        m("phase.backoff_frac", o.phase_frac(3), "ratio"),
    ]
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len().max(1) as f64;
    values.sum::<f64>() / n
}

fn region_self_s(p: &PassResult, region: HostRegion) -> f64 {
    p.profile
        .as_ref()
        .map_or(0.0, |prof| prof.region(region).self_ns as f64 / 1e9)
}

/// Per-layer metrics only the traced passes give: engine-region self
/// times with exact call counts, allocations per event, the two
/// layer-share figures, and the tracing overhead. Empty for an untraced
/// run.
pub fn per_layer_traced(run: &WorkloadRun) -> Vec<Metric> {
    let Some(first) = run.traced.first() else {
        return Vec::new();
    };
    let profile: &HostProfile = first
        .profile
        .as_ref()
        .expect("traced passes carry a profile");
    let mut out = Vec::new();
    for (region, name) in REGIONS {
        let self_s = median(run.traced.iter().map(|p| region_self_s(p, region)));
        out.push(m(format!("{name}_s"), self_s, "s"));
        out.push(m(
            format!("{name}.calls"),
            profile.region(region).count as f64,
            "count",
        ));
    }
    let engine_self = median(run.traced.iter().map(|p| {
        p.profile
            .as_ref()
            .map_or(0.0, |prof| prof.total_self_ns() as f64 / 1e9)
    }));
    let share = |regions: &[HostRegion]| {
        let s = median(
            run.traced
                .iter()
                .map(|p| regions.iter().map(|&r| region_self_s(p, r)).sum::<f64>()),
        );
        if engine_self > 0.0 {
            s / engine_self
        } else {
            0.0
        }
    };
    out.push(m("core.engine.self_s", engine_self, "s"));
    out.push(m(
        "txn.lock_share",
        share(&[
            HostRegion::LockAcquire,
            HostRegion::LockRelease,
            HostRegion::DeadlockGate,
        ]),
        "ratio",
    ));
    out.push(m(
        "core.engine.setup_report_share",
        share(&[HostRegion::Setup, HostRegion::Report]),
        "ratio",
    ));
    let events = run.outcome().events.max(1) as f64;
    out.push(m(
        "core.engine.allocs_per_event",
        median(
            run.traced
                .iter()
                .map(|p| p.engine_allocs.unwrap_or(0) as f64),
        ) / events,
        "count",
    ));
    let traced_run = median(run.traced.iter().map(|p| p.stage_s[1]));
    let timed_run = median(run.timed.iter().map(|p| p.stage_s[1]));
    out.push(m(
        "trace.overhead",
        if timed_run > 0.0 {
            traced_run / timed_run
        } else {
            0.0
        },
        "ratio",
    ));
    out
}

/// The results document: every metric, the per-protocol replay totals,
/// per-pass host figures and span self times.
pub fn results_json(run: &WorkloadRun) -> Json {
    let metrics =
        |list: Vec<Metric>| Json::Obj(list.iter().map(|x| (x.name.clone(), x.to_json())).collect());
    let o = run.outcome();
    let protocols = Json::Obj(
        ProtocolKind::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| o.replay_messages[i] > 0)
            .map(|(i, k)| {
                (
                    k.to_string(),
                    Json::obj(vec![
                        ("bytes", Json::U64(o.replay_bytes[i])),
                        ("messages", Json::U64(o.replay_messages[i])),
                    ]),
                )
            })
            .collect(),
    );
    let passes = |list: &[PassResult]| {
        Json::Arr(
            list.iter()
                .map(|p| {
                    Json::obj(vec![
                        ("wall_s", Json::F64(p.wall_s)),
                        ("cpu_s", Json::F64(p.cpu_s)),
                        ("sys_s", Json::F64(p.sys_s)),
                        ("minor_faults", Json::U64(p.minor_faults)),
                        (
                            "stage_s",
                            Json::Arr(p.stage_s.iter().map(|&s| Json::F64(s)).collect()),
                        ),
                    ])
                })
                .collect(),
        )
    };
    let span_self = Json::Obj(
        run.spans
            .self_ns_by_name()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::F64(v as f64 / 1e9)))
            .collect(),
    );
    let mut per_layer = per_layer_timed(run);
    per_layer.extend(per_layer_traced(run));
    Json::obj(vec![
        ("workload", Json::str(run.workload.name())),
        ("seed", Json::U64(run.seed)),
        ("params", run.workload.params()),
        (
            "cells",
            Json::Arr(run.cell_labels.iter().map(Json::str).collect()),
        ),
        ("families_attempted", Json::U64(o.families)),
        ("families_failed", Json::U64(o.families - o.committed)),
        ("end_to_end", metrics(end_to_end(run))),
        ("per_layer", metrics(per_layer)),
        ("replay_by_protocol", protocols),
        (
            "setup_s",
            Json::Arr(run.setup_s.iter().map(|&s| Json::F64(s)).collect()),
        ),
        ("timed_passes", passes(&run.timed)),
        ("traced_passes", passes(&run.traced)),
        ("span_self_s", span_self),
        ("threads", Json::U64(1)),
        (
            "available_parallelism",
            Json::U64(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
    ])
}
