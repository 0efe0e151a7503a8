//! The benchmark's workloads, their cells, and one cell's timed pipeline.
//!
//! A workload is a fixed list of cells. A cell is one generated input
//! (object registry + transaction families) plus the system configuration
//! it runs under. Running a cell calls each layer's public entry point in
//! turn — `Engine::new`, `Engine::run`, `oracle::verify`, replay — and then
//! reduces the report to a [`SimOutcome`] and drops it (summarise). The
//! benchmark's seed reaches the simulation only through the generator's
//! `WorkloadConfig::seed`.

use std::time::Instant;

use lotec_core::engine::Engine;
use lotec_core::metrics::ProtocolTraffic;
use lotec_core::protocol::ProtocolKind;
use lotec_core::replay::{replay_run, replay_trace};
use lotec_core::{oracle, FamilySpec, RunReport, SystemConfig};
use lotec_net::MessageKind;
use lotec_object::ObjectRegistry;
use lotec_obs::{HostProfiler, Json, NoopSink, QuantileSketch};
use lotec_workload::zoo::{self, Tier};
use lotec_workload::{presets, Scenario, WorkloadConfig};

/// The named workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 2–5 presets, each replayed under all four
    /// protocols.
    PaperFigs,
    /// Zoo `multi_tenant` at the full tier, LOTEC with static prediction.
    Tenant1m,
    /// Zoo `hotspot_migration` at the full tier, LOTEC with adaptive
    /// prediction.
    HotspotAdaptive,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFigs,
        Workload::Tenant1m,
        Workload::HotspotAdaptive,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigs => "paper_figs",
            Workload::Tenant1m => "tenant_1m",
            Workload::HotspotAdaptive => "hotspot_adaptive",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generator seeds one pass runs per scenario. Each seed draws a new
    /// schema (classes, page counts, methods), which moves every metric of
    /// a single cell by tens of percent; a pass sums this many draws so
    /// runs with different benchmark seeds stay comparable.
    pub fn seeds_per_pass(self) -> u64 {
        match self {
            Workload::PaperFigs => 48,
            Workload::Tenant1m => 16,
            Workload::HotspotAdaptive => 24,
        }
    }

    /// The workload's cells for benchmark seed `seed`: every scenario at
    /// [`Workload::seeds_per_pass`] consecutive generator seeds. Runs with
    /// neighbouring benchmark seeds get disjoint generator seeds.
    pub fn cells(self, seed: u64) -> Vec<CellSpec> {
        let k = self.seeds_per_pass();
        let gen_seeds = move || (0..k).map(move |i| seed.wrapping_mul(k).wrapping_add(i));
        match self {
            Workload::PaperFigs => {
                let figs = [
                    presets::fig2(),
                    presets::fig3(),
                    presets::fig4(),
                    presets::fig5(),
                ];
                let mut cells = Vec::new();
                for (f, fig) in figs.into_iter().enumerate() {
                    for gen_seed in gen_seeds() {
                        let mut scenario = fig.clone();
                        scenario.config.seed = gen_seed;
                        cells.push(CellSpec {
                            label: format!("fig{}/seed{gen_seed}", f + 2),
                            source: Source::Preset(scenario),
                            compare_all: true,
                        });
                    }
                }
                cells
            }
            Workload::Tenant1m => gen_seeds()
                .map(|s| zoo_cell("multi_tenant", s, false))
                .collect(),
            Workload::HotspotAdaptive => gen_seeds()
                .map(|s| zoo_cell("hotspot_migration", s, true))
                .collect(),
        }
    }

    /// The workload's parameters, for the results file and the manifest
    /// check: per cell family, the generator knobs plus protocol and
    /// prediction mode.
    pub fn params(self) -> Json {
        let mut rows = Vec::new();
        // Cells are scenario-major, `seeds_per_pass` each: one per scenario.
        for cell in self.cells(0).iter().step_by(self.seeds_per_pass() as usize) {
            let key = cell.label.split('/').next().unwrap_or_default().to_string();
            let wc = cell.workload_config();
            let config = cell.system_config();
            rows.push((
                key,
                Json::obj(vec![
                    ("objects", Json::U64(u64::from(wc.num_objects))),
                    ("families", Json::U64(u64::from(wc.num_families))),
                    ("nodes", Json::U64(u64::from(wc.num_nodes))),
                    ("pages_min", Json::U64(u64::from(wc.schema.pages_min))),
                    ("pages_max", Json::U64(u64::from(wc.schema.pages_max))),
                    ("zipf_theta", Json::F64(wc.zipf_theta)),
                    ("seeds_per_pass", Json::U64(self.seeds_per_pass())),
                    ("protocol", Json::str(config.protocol.to_string())),
                    (
                        "prediction",
                        Json::str(if config.adaptive.enabled {
                            "adaptive"
                        } else {
                            "static"
                        }),
                    ),
                ]),
            ));
        }
        Json::Obj(rows)
    }
}

fn zoo_cell(family: &str, seed: u64, adaptive: bool) -> CellSpec {
    let mut scenario = zoo::by_name(family, Tier::Full).expect("zoo family exists");
    scenario.config.seed = seed;
    CellSpec {
        label: format!("{}/seed{seed}", scenario.name()),
        source: Source::Zoo(Box::new(scenario), adaptive),
        compare_all: false,
    }
}

#[derive(Debug, Clone)]
enum Source {
    Preset(Scenario),
    Zoo(Box<lotec_workload::ZooScenario>, bool),
}

/// A cell before generation: where its input comes from.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Human-readable cell name (`fig3/seed7`, `multi_tenant/full/seed7`).
    pub label: String,
    source: Source,
    compare_all: bool,
}

impl CellSpec {
    fn workload_config(&self) -> &WorkloadConfig {
        match &self.source {
            Source::Preset(s) => &s.config,
            Source::Zoo(s, _) => &s.config,
        }
    }

    fn system_config(&self) -> SystemConfig {
        match &self.source {
            Source::Preset(s) => s.system_config(),
            Source::Zoo(s, adaptive) => s.cell_config(ProtocolKind::Lotec, *adaptive),
        }
    }

    /// Runs the workload generator for this cell.
    ///
    /// # Errors
    ///
    /// Returns the generator's error, labelled with the cell.
    pub fn generate(&self) -> Result<Cell, String> {
        let generated = match &self.source {
            Source::Preset(s) => s.generate(),
            Source::Zoo(s, _) => s.generate(),
        };
        let (registry, families) =
            generated.map_err(|e| format!("{}: generate: {e}", self.label))?;
        Ok(Cell {
            label: self.label.clone(),
            config: self.system_config(),
            registry,
            families,
            compare_all: self.compare_all,
        })
    }
}

/// A generated cell, ready to run.
#[derive(Debug)]
pub struct Cell {
    /// Cell name.
    pub label: String,
    /// The system configuration the engine runs under.
    pub config: SystemConfig,
    /// Generated object registry.
    pub registry: ObjectRegistry,
    /// Generated transaction families.
    pub families: Vec<FamilySpec>,
    /// Replay the schedule under every protocol, not only the cell's own.
    pub compare_all: bool,
}

/// Everything a run simulates, summed over cells. Identical across
/// reruns of the same inputs, with or without tracing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// Cells summed.
    pub cells: u64,
    /// Families generated.
    pub families: u64,
    /// Families committed.
    pub committed: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Engine consistency traffic, bytes.
    pub bytes: u64,
    /// Engine consistency traffic, messages.
    pub messages: u64,
    /// Sum of the cells' simulated makespans, ns.
    pub makespan_ns: u64,
    /// Merged commit-latency sketch, ns.
    pub latency: QuantileSketch,
    /// Lock grants needing a GDO round trip.
    pub global_grants: u64,
    /// Lock grants served from local GDO state.
    pub local_grants: u64,
    /// Lock requests that queued before their grant.
    pub queued_requests: u64,
    /// Deadlocks broken.
    pub deadlocks: u64,
    /// Family restarts.
    pub restarts: u64,
    /// Demand fetches (prediction misses).
    pub demand_fetches: u64,
    /// Adaptive profile expansions.
    pub profile_expansions: u64,
    /// Adaptive profile shrinks.
    pub profile_shrinks: u64,
    /// Phase totals, ns: lock wait, transfer wait, running, backoff.
    pub phase_ns: [u64; 4],
    /// Replayed bytes per protocol, in [`ProtocolKind::ALL`] order (0 for
    /// protocols a cell did not replay).
    pub replay_bytes: [u64; 4],
    /// Replayed messages per protocol, same order.
    pub replay_messages: [u64; 4],
}

impl SimOutcome {
    /// Adds another outcome into this one.
    pub fn absorb(&mut self, o: &SimOutcome) {
        self.cells += o.cells;
        self.families += o.families;
        self.committed += o.committed;
        self.events += o.events;
        self.bytes += o.bytes;
        self.messages += o.messages;
        self.makespan_ns += o.makespan_ns;
        self.latency.merge(&o.latency);
        self.global_grants += o.global_grants;
        self.local_grants += o.local_grants;
        self.queued_requests += o.queued_requests;
        self.deadlocks += o.deadlocks;
        self.restarts += o.restarts;
        self.demand_fetches += o.demand_fetches;
        self.profile_expansions += o.profile_expansions;
        self.profile_shrinks += o.profile_shrinks;
        for i in 0..4 {
            self.phase_ns[i] += o.phase_ns[i];
            self.replay_bytes[i] += o.replay_bytes[i];
            self.replay_messages[i] += o.replay_messages[i];
        }
    }

    /// Commit-latency quantile `q`, ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        if self.latency.count() == 0 {
            return 0.0;
        }
        self.latency.quantile(q) as f64 / 1e6
    }

    /// Fraction of attributed family time spent in phase `i` (lock wait,
    /// transfer wait, running, backoff).
    pub fn phase_frac(&self, i: usize) -> f64 {
        let total: u64 = self.phase_ns.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.phase_ns[i] as f64 / total as f64
        }
    }
}

/// Instants bracketing a cell's stages: before `Engine::new`, then after
/// each of new, run, verify, replay and summarise.
pub type StageMarks = [Instant; 6];

/// The stage names, in [`StageMarks`] order.
pub const STAGES: [&str; 5] = [
    "core.engine.new",
    "core.engine.run",
    "core.oracle.verify",
    "core.replay",
    "bench.summarise",
];

/// Runs one cell through every layer, profiling the engine with `prof`.
///
/// # Errors
///
/// Returns a message on an engine error, an oracle violation, or engine
/// traffic that differs from the replay of its own trace under its own
/// protocol.
pub fn run_cell<P: HostProfiler>(cell: &Cell, prof: P) -> Result<(SimOutcome, StageMarks), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", cell.label);
    let t0 = Instant::now();
    let engine =
        Engine::with_instruments(&cell.config, &cell.registry, &cell.families, NoopSink, prof)
            .map_err(|e| fail("Engine::new", &e))?;
    let t1 = Instant::now();
    let report = engine.run().map_err(|e| fail("Engine::run", &e))?;
    let t2 = Instant::now();
    oracle::verify(&report).map_err(|e| fail("oracle::verify", &e))?;
    let t3 = Instant::now();
    let own = replay_run(&report.trace, &cell.registry, &cell.config);
    let others: Vec<(ProtocolKind, ProtocolTraffic)> = if cell.compare_all {
        ProtocolKind::ALL
            .into_iter()
            .filter(|&k| k != cell.config.protocol)
            .map(|k| {
                (
                    k,
                    replay_trace(k, &report.trace, &cell.registry, &cell.config),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let t4 = Instant::now();
    let outcome = summarise(cell, report, own, others)?;
    let t5 = Instant::now();
    Ok((outcome, [t0, t1, t2, t3, t4, t5]))
}

/// Checks engine↔replay parity, reduces the report and replays to a
/// [`SimOutcome`], and drops them.
fn summarise(
    cell: &Cell,
    report: RunReport,
    own: ProtocolTraffic,
    others: Vec<(ProtocolKind, ProtocolTraffic)>,
) -> Result<SimOutcome, String> {
    let engine_traffic = report.traffic.ledger();
    for kind in MessageKind::ALL {
        let (e, r) = (engine_traffic.kind(kind), own.ledger().kind(kind));
        if e != r {
            return Err(format!(
                "{}: engine/replay parity: {kind}: engine {e:?}, replay {r:?}",
                cell.label
            ));
        }
    }
    let s = &report.stats;
    let slot = |k: ProtocolKind| {
        ProtocolKind::ALL
            .iter()
            .position(|&p| p == k)
            .expect("listed")
    };
    let mut replay_bytes = [0u64; 4];
    let mut replay_messages = [0u64; 4];
    for (kind, traffic) in
        std::iter::once((report.protocol, &own)).chain(others.iter().map(|(k, t)| (*k, t)))
    {
        replay_bytes[slot(kind)] = traffic.total().bytes;
        replay_messages[slot(kind)] = traffic.total().messages;
    }
    let p = &s.phases.aggregate;
    let outcome = SimOutcome {
        cells: 1,
        families: cell.families.len() as u64,
        committed: s.committed_families,
        events: s.sim_events,
        bytes: report.traffic.total().bytes,
        messages: report.traffic.total().messages,
        makespan_ns: s.makespan.as_nanos(),
        latency: s.latency_sketch.clone(),
        global_grants: s.global_lock_grants,
        local_grants: s.local_lock_grants,
        queued_requests: s.queued_lock_requests,
        deadlocks: s.deadlocks,
        restarts: s.restarts,
        demand_fetches: s.demand_fetches,
        profile_expansions: s.profile_expansions,
        profile_shrinks: s.profile_shrinks,
        phase_ns: [p.lock_wait, p.transfer_wait, p.running, p.backoff].map(|d| d.as_nanos()),
        replay_bytes,
        replay_messages,
    };
    drop(report);
    drop(own);
    drop(others);
    Ok(outcome)
}
