//! Runs one workload: set-up rounds, timed passes, and (when asked) the
//! separate traced passes.
//!
//! A pass runs every cell of the workload once, one cell at a time on the
//! calling thread. Timed passes carry no instrumentation beyond six
//! `Instant` reads per cell. Traced passes add the engine's
//! `WallProfiler`, the counting allocator and the span log; they are kept
//! apart from the timed passes so their cost never reaches an end-to-end
//! metric, and their simulated outcome must equal the timed passes'.

use std::time::{Duration, Instant};

use lotec_obs::alloc;
use lotec_obs::{HostProfile, NoopHostProfiler, WallProfiler};

use crate::procstat;
use crate::spans::SpanLog;
use crate::workloads::{run_cell, Cell, SimOutcome, Workload, STAGES};

/// Set-up repeats until it has run at least this many rounds ...
pub const SETUP_MIN_ROUNDS: usize = 3;

/// ... and at least this many seconds (cheap inputs generate in
/// milliseconds, too short for one round to time steadily) ...
pub const SETUP_MIN_SECONDS: f64 = 0.5;

/// ... but never more rounds than this. `setup_s` is the rounds' median.
pub const SETUP_MAX_ROUNDS: usize = 200;

/// Minimum timed passes per run, and traced passes per traced run,
/// whatever the time budget. One: a `tenant_1m` pass alone fills the
/// budget. Runs with more passes, the traced passes and the self-tests
/// check that reruns repeat exactly.
pub const MIN_PASSES: usize = 1;

/// What one run measures.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Benchmark seed, written into the generator's seed.
    pub seed: u64,
    /// Measuring time; a traced run gives half to the timed passes and
    /// half to the traced ones.
    pub seconds: f64,
    /// Also run the traced passes.
    pub traced: bool,
}

/// Host-side measurements of one pass.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// What the pass simulated.
    pub outcome: SimOutcome,
    /// Wall seconds.
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Seconds per stage, summed over cells, in [`STAGES`] order.
    pub stage_s: [f64; 5],
    /// Engine region profile (traced passes only).
    pub profile: Option<HostProfile>,
    /// Allocations made inside engine regions (traced passes only).
    pub engine_allocs: Option<u64>,
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Labels of the cells, in run order.
    pub cell_labels: Vec<String>,
    /// Wall seconds of each set-up round.
    pub setup_s: Vec<f64>,
    /// The timed passes.
    pub timed: Vec<PassResult>,
    /// The traced passes (empty unless traced).
    pub traced: Vec<PassResult>,
    /// Spans of the traced passes and the set-up rounds (empty unless
    /// traced).
    pub spans: SpanLog,
    /// Resident-set high-water mark over the whole run, bytes.
    pub peak_rss_bytes: u64,
}

impl WorkloadRun {
    /// The simulated outcome of one pass (all passes agree).
    pub fn outcome(&self) -> &SimOutcome {
        &self.timed[0].outcome
    }
}

/// Runs `workload` under `opts`.
///
/// # Errors
///
/// Returns a message on a generator or engine error, an oracle
/// violation, an engine↔replay parity break, or a pass whose simulated
/// outcome differs from the first timed pass's.
pub fn run_workload(workload: Workload, opts: RunOptions) -> Result<WorkloadRun, String> {
    // Counting stays off outside traced passes, whatever the environment.
    alloc::force_profiling(Some(false));
    let specs = workload.cells(opts.seed);
    let mut spans = SpanLog::new();

    let mut cells: Vec<Cell> = Vec::new();
    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_MIN_ROUNDS
        || (setup_s.len() < SETUP_MAX_ROUNDS
            && setup_start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        // Drop the previous round's inputs first so rounds never overlap
        // in memory.
        drop(std::mem::take(&mut cells));
        let round = opts.traced.then(|| spans.open("setup", None, None));
        let start = Instant::now();
        for (i, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            cells.push(spec.generate()?);
            if let Some(round) = round {
                spans.record("workload.generate", Some(round), Some(i), t, Instant::now());
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(round) = round {
            spans.close(round);
        }
    }

    let budget = Duration::from_secs_f64(if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let timed = passes(&cells, budget, None)?;
    let traced = if opts.traced {
        alloc::force_profiling(Some(true));
        let traced = passes(&cells, budget, Some(&mut spans));
        alloc::force_profiling(Some(false));
        traced?
    } else {
        Vec::new()
    };
    let reference = &timed[0].outcome;
    if let Some(p) = timed
        .iter()
        .chain(&traced)
        .find(|p| &p.outcome != reference)
    {
        return Err(format!(
            "{}: simulated outcome changed between passes of the same input \
             (first: {} bytes, {} events; later: {} bytes, {} events)",
            workload.name(),
            reference.bytes,
            reference.events,
            p.outcome.bytes,
            p.outcome.events
        ));
    }
    let peak_rss_bytes = procstat::peak_rss_bytes()?;
    Ok(WorkloadRun {
        workload,
        seed: opts.seed,
        cell_labels: cells.iter().map(|c| c.label.clone()).collect(),
        setup_s,
        timed,
        traced,
        spans,
        peak_rss_bytes,
    })
}

/// Runs at least [`MIN_PASSES`] passes, then more while another pass of
/// median length still fits in `budget`.
fn passes(
    cells: &[Cell],
    budget: Duration,
    mut spans: Option<&mut SpanLog>,
) -> Result<Vec<PassResult>, String> {
    let start = Instant::now();
    let mut out: Vec<PassResult> = Vec::new();
    loop {
        if out.len() >= MIN_PASSES {
            let typical = median(out.iter().map(|p| p.wall_s));
            if start.elapsed().as_secs_f64() + typical > budget.as_secs_f64() {
                return Ok(out);
            }
        }
        out.push(run_pass(cells, spans.as_deref_mut())?);
    }
}

/// Runs every cell once; traced when `spans` is given.
pub fn run_pass(cells: &[Cell], mut spans: Option<&mut SpanLog>) -> Result<PassResult, String> {
    let traced = spans.is_some();
    let mut profile = traced.then(HostProfile::new);
    let allocs_before = alloc::snapshot();
    let before = procstat::sample()?;
    let start = Instant::now();
    let pass_span = spans.as_deref_mut().map(|l| l.open("pass", None, None));
    let mut outcome = SimOutcome::default();
    let mut stage_s = [0.0; 5];
    for (i, cell) in cells.iter().enumerate() {
        let (cell_outcome, marks) = match spans.as_deref_mut() {
            Some(log) => {
                let cell_span = log.open("cell", pass_span, Some(i));
                let mut prof = WallProfiler::new();
                let (o, marks) = run_cell(cell, &mut prof)?;
                log.close(cell_span);
                for (j, name) in STAGES.iter().enumerate() {
                    log.record(name, Some(cell_span), Some(i), marks[j], marks[j + 1]);
                }
                if let Some(p) = profile.as_mut() {
                    p.merge(&prof.into_profile());
                }
                (o, marks)
            }
            None => run_cell(cell, NoopHostProfiler)?,
        };
        for (j, s) in stage_s.iter_mut().enumerate() {
            *s += marks[j + 1].duration_since(marks[j]).as_secs_f64();
        }
        outcome.absorb(&cell_outcome);
    }
    if let (Some(log), Some(id)) = (spans, pass_span) {
        log.close(id);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let used = procstat::sample()?.since(&before);
    // Slot 0 collects allocations outside any engine region (oracle,
    // replay, summarise, the harness).
    let engine_allocs = traced.then(|| {
        let d = alloc::snapshot().delta_since(&allocs_before);
        d.total_allocs() - d.allocs[0]
    });
    Ok(PassResult {
        outcome,
        wall_s,
        cpu_s: used.cpu_s,
        sys_s: used.sys_s,
        minor_faults: used.minor_faults,
        stage_s,
        profile,
        engine_allocs,
    })
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(Vec::<f64>::new()), 0.0);
    }
}
