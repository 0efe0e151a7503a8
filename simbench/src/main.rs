//! Command line of the simulator benchmark.
//!
//! ```text
//! simbench --workload <paper_figs|tenant_1m|hotspot_adaptive|all>
//!          [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Prints every metric by name with its unit, writes the results (and,
//! when traced, the spans) under `--out` (default: `out/` beside this
//! crate's manifest), and ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics. `--workload all` runs each workload in a child
//! process of its own, so peak memory and CPU never carry over from one
//! workload to the next, and prefixes each metric with `<workload>/`.
//! Exits 1 on an engine error, an oracle violation, an engine↔replay
//! parity break or a non-repeating simulation (printing no JSON line); 2 on
//! bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use lotec_obs::{CountingAlloc, Json};
use lotec_simbench::metrics::{
    end_to_end, per_layer_timed, per_layer_traced, results_json, Metric,
};
use lotec_simbench::runner::{run_workload, RunOptions, WorkloadRun};
use lotec_simbench::workloads::Workload;
use lotec_simbench::DEFAULT_SEED;

// Counts allocations only while a traced pass switches counting on.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: simbench --workload <paper_figs|tenant_1m|hotspot_adaptive|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    /// `None` for `all`.
    workload: Option<Workload>,
    opts: RunOptions,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut opts = RunOptions {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
    };
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = match name.as_str() {
        "all" => None,
        _ => Some(Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?),
    };
    Ok(Args {
        workload,
        opts,
        out,
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for x in metrics {
        println!("    {:<34} {:>18.6} {}", x.name, x.value, x.unit);
    }
}

fn report(run: &WorkloadRun, out: &std::path::Path) -> Result<(), String> {
    let o = run.outcome();
    println!(
        "{} seed {}: {} cells, {} families, {} timed + {} traced passes",
        run.workload.name(),
        run.seed,
        o.cells,
        o.families,
        run.timed.len(),
        run.traced.len()
    );
    print_table("end to end", &end_to_end(run));
    print_table("per layer (every run)", &per_layer_timed(run));
    if !run.traced.is_empty() {
        print_table("per layer (traced passes)", &per_layer_traced(run));
        println!("  span self time, traced run (s)");
        for (name, ns) in run.spans.self_ns_by_name() {
            println!("    {name:<34} {:>18.6}", ns as f64 / 1e9);
        }
    }
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let stem = format!(
        "{}-seed{}{}",
        run.workload.name(),
        run.seed,
        if run.traced.is_empty() { "" } else { "-traced" }
    );
    let write = |name: String, body: String| {
        let path = out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), results_json(run).render_pretty())?;
    if !run.traced.is_empty() {
        write(format!("{stem}.spans.jsonl"), run.spans.to_jsonl())?;
    }
    Ok(())
}

fn summary_line(attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::U64(attempted.max(1))),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let run = run_workload(workload, args.opts).map_err(|e| format!("{}: {e}", workload.name()))?;
    report(&run, &args.out)?;
    let passes = (run.timed.len() + run.traced.len()) as u64;
    let o = run.outcome();
    let chosen = if args.opts.traced {
        let mut v = per_layer_timed(&run);
        v.extend(per_layer_traced(&run));
        v
    } else {
        end_to_end(&run)
    };
    let metrics = chosen
        .iter()
        .map(|x| (x.name.clone(), x.to_json()))
        .collect();
    println!(
        "{}",
        summary_line(
            o.families * passes,
            (o.families - o.committed) * passes,
            metrics
        )
    );
    Ok(())
}

/// Runs every workload in a child process of this binary and merges their
/// result lines.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let child = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.opts.seed.to_string()])
            .args(["--seconds", &args.opts.seconds.to_string()])
            .args(["--trace", if args.opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let stdout = stdout.trim_end();
        let (body, last) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
        println!("{body}");
        if !child.status.success() {
            return Err(format!(
                "{}: child exited with {}",
                workload.name(),
                child.status
            ));
        }
        let result =
            Json::parse(last).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
        let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Json::Obj(list)) = result.get("metrics") {
            for (name, value) in list {
                metrics.push((format!("{}/{name}", workload.name()), value.clone()));
            }
        }
    }
    println!("{}", summary_line(attempted, failed, metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
