//! `simbench` — one benchmark for the simulator's host speed and its
//! simulated results, end to end and per layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload paged_campaign --seed 42 --seconds 15 --trace 0
//! ```
//!
//! Workloads (`--workload`, seeded by `--seed`; the simulator only ever
//! sees the configuration generated from the seed):
//!
//! - `cluster_headline`: 1M requests on 64 boxes x 8 cards through the
//!   cluster router, contiguous KV, no faults. The engine step loop,
//!   routing and merge do the work; paged KV is bypassed.
//! - `paged_campaign`: one 2x4-card box with paged KV over full-size HBM,
//!   recipe warmup, the planned activation budget, a seeded rack-power
//!   campaign with KV checkpointing, a bounded queue and a TTFT deadline
//!   under overload.
//! - `paper_kernels`: the paper path without serving — Table 2, the
//!   Fig. 4-6 layers fused and unfused, the §3.4 GPT/BERT graphs, the
//!   TPC-VM kernel cells and a full-numerics equivalence graph.
//!
//! With `--trace 0` the run sets up several times (median `setup_s`),
//! then repeats the workload's timed public calls for `--seconds`. The
//! first iteration warms caches and is checked but not timed. After each
//! later one it times a fixed reference kernel on as many threads as the
//! workload keeps busy (see `reference.rs`) and
//! reports the median of iteration time over reference time as
//! `host_wall_ref`, next to the simulated `sim_*` metrics. Simulated times carry the unit `sim_ms`: they are a
//! deterministic function of the seed, and a change that only touches
//! host speed must leave them, and the printed `sim_schedule_digest`,
//! bit-identical. On `paper_kernels`, which serves no requests, the
//! serving metrics describe one request on the §3.4 GPT (TTFT is the b1
//! s128 prefill, TPOT one b8 ctx1024 decode step) and the digest covers
//! every simulated number of the iteration.
//!
//! With `--trace 1` (the check mode) it alternates untraced and traced
//! iterations, records a span around every public call, and adds the
//! per-layer measurements: the serving workloads rerun at exec pool size
//! 1 and must reproduce every `sim_*` metric and the digest, plus engine
//! scaling, cold vs warm plan cache and block-pool construction on
//! `paged_campaign`. It writes the spans to `simbench/out/` and reports
//! per-layer metrics (self time per layer, counters read off the public
//! reports); a layer that does no work on a workload reports 0.
//!
//! Every iteration's outputs are checked; a call that returns `Err` or an
//! output that fails a check counts as a failed operation. The last line
//! of standard output is the JSON result.

mod paper;
mod reference;
mod report;
mod serving;
mod spans;

use gaudi_exec::ExecPool;
use report::{median, peak_rss_mib, result_line, Iteration, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A benchmark workload after set-up: one call runs one iteration.
pub trait Workload {
    /// Make the iteration's timed public calls and check their outputs.
    fn iterate(&self, pool: &ExecPool, tr: &Tracer) -> Iteration;

    /// Threads the iterations keep busy out of the pool's `pool_threads`;
    /// the reference kernel runs on as many. One by default: the paper
    /// path makes no pool calls, and the fault path of `paged_campaign`
    /// steps its replicas in lockstep.
    fn busy_threads(&self, _pool_threads: usize) -> usize {
        1
    }

    /// Per-layer measurements the traced run adds after its iterations.
    /// `times` holds the median traced self time per span name.
    fn traced_extras(
        &self,
        _pool: &ExecPool,
        _first: &Iteration,
        _times: &BTreeMap<&'static str, f64>,
        _tr: &Tracer,
    ) -> Extras {
        Extras::default()
    }
}

/// What [`Workload::traced_extras`] measured.
#[derive(Debug, Default)]
pub struct Extras {
    pub layers: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
}

/// `(name, default seed, held-out seed)`. The held-out seed is kept for
/// checking a claim on inputs that were not used while writing it.
const WORKLOADS: &[(&str, u64, u64)] = &[
    ("cluster_headline", 2027, 7001),
    ("paged_campaign", 42, 7002),
    ("paper_kernels", 9, 7003),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Untraced iterations per run, at least, the untimed warm-up included.
const MIN_ITERATIONS: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: simbench --workload <cluster_headline|paged_campaign|paper_kernels> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = args;
    while let Some(flag) = args.next() {
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        values.insert(flag, value);
    }
    let name = values.get("--workload").ok_or("--workload is required")?;
    let &(workload, default_seed, _) = WORKLOADS
        .iter()
        .find(|(w, ..)| w == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        values.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} expects a whole number, got '{v}'"))
        })
    };
    let seconds = number("--seconds", 10)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace expects 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", default_seed)?,
        seconds,
        trace,
    })
}

fn setup(name: &str, seed: u64, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cluster_headline" => Box::new(serving::ClusterHeadline::setup(seed, tr)?),
        "paged_campaign" => Box::new(serving::PagedCampaign::setup(seed, tr)?),
        _ => Box::new(paper::PaperKernels::setup(seed, tr)?),
    })
}

/// Median per name over several self-time samples; a name missing from a
/// sample counts as 0 there.
fn median_by_name(samples: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let names: std::collections::BTreeSet<&'static str> =
        samples.iter().flat_map(|s| s.keys().copied()).collect();
    names
        .into_iter()
        .map(|n| {
            let mut v: Vec<f64> = samples
                .iter()
                .map(|s| s.get(n).copied().unwrap_or(0.0))
                .collect();
            (n, median(&mut v))
        })
        .collect()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ExecPool::new(threads);
    let traced = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    let mut failures: Vec<String> = Vec::new();
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };

    // Set-up: config, stream, graph and campaign construction, repeated so
    // `setup_s` is a median.
    let mut setup_s = Vec::new();
    let mut setup_layers = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let mark = traced.mark();
        let t0 = Instant::now();
        let (w, _) = traced.scope("bench.setup", || setup(args.workload, args.seed, &traced));
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_layers.push(traced.self_time_since(mark));
        match w {
            Ok(w) => workload = Some(w),
            Err(e) => failures.push(format!("set-up: {e}")),
        }
    }
    let Some(workload) = workload.filter(|_| failures.is_empty()) else {
        for f in &failures {
            eprintln!("FAILED: {f}");
        }
        let calls = traced.calls() + quiet.calls();
        println!(
            "{}",
            result_line(
                calls.max(1),
                failures.len() as u64,
                catalogue,
                &BTreeMap::new()
            )
        );
        return;
    };

    // Iterations: untraced ones after the warm-up time `host_wall_ref`;
    // the traced run interleaves traced ones for the per-layer self times.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut first: Option<Iteration> = None;
    let mut walls = Vec::new();
    let mut references = Vec::new();
    let mut relative = Vec::new();
    let reference_threads = workload.busy_threads(threads);
    let mut traced_walls = Vec::new();
    let mut traced_times = Vec::new();
    for i in 0.. {
        let tracing = args.trace && i % 2 == 1;
        let min_iterations = if args.trace {
            2 * MIN_ITERATIONS - 1
        } else {
            MIN_ITERATIONS
        };
        if i >= min_iterations && start.elapsed() >= budget {
            break;
        }
        let tr = if tracing { &traced } else { &quiet };
        let mark = traced.mark();
        let (it, _) = tr.scope("bench.iteration", || workload.iterate(&pool, tr));
        for f in &it.failures {
            failures.push(format!("iteration {i}: {f}"));
        }
        if tracing {
            traced_walls.push(it.wall_s);
            traced_times.push(traced.self_time_since(mark));
        } else if i > 0 {
            let reference_s = reference::reference_s(reference_threads);
            walls.push(it.wall_s);
            references.push(reference_s);
            relative.push(it.wall_s / reference_s);
        }
        match &first {
            None => first = Some(it),
            Some(f) => {
                if !it.same_results(f) {
                    failures.push(format!(
                        "iteration {i}: simulated results differ from iteration 0"
                    ));
                }
            }
        }
    }
    let first = first.expect("at least one iteration ran");

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    values.extend(first.sim.iter().map(|(k, v)| (k.to_string(), *v)));
    if !values.contains_key("table2_err_max") {
        // The calibration error is a property of the shared hardware
        // model; the serving workloads read it without timing it.
        let (err_max, err_2048) = paper::table2_check(&mut failures);
        values.insert("table2_err_max".into(), err_max);
        values.insert("hw.table2_err_2048".into(), err_2048);
    }
    let host_wall_s = median(&mut walls);
    let reference_s = median(&mut references);
    values.insert("host_wall_ref".into(), median(&mut relative));
    values.insert("bench.host_wall_s".into(), host_wall_s);
    values.insert("bench.reference_s".into(), reference_s);
    values.insert("setup_s".into(), median(&mut setup_s));

    if args.trace {
        let times = median_by_name(&traced_times);
        let (extras, _) = traced.scope("bench.extras", || {
            workload.traced_extras(&pool, &first, &times, &traced)
        });
        failures.extend(extras.failures.iter().map(|f| format!("traced run: {f}")));
        values.extend(first.counters.iter().map(|(k, v)| (k.to_string(), *v)));
        for (name, secs) in times.iter().chain(&median_by_name(&setup_layers)) {
            values.insert(format!("{name}_s"), *secs);
        }
        values.extend(extras.layers.iter().map(|(k, v)| (k.to_string(), *v)));
        values.insert(
            "trace.overhead_s".into(),
            median(&mut traced_walls) - host_wall_s,
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("out/ has a parent"))
            .and_then(|()| std::fs::write(&path, traced.to_json_lines()));
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
    }
    match peak_rss_mib() {
        Ok(mib) => {
            values.insert("peak_rss_mib".into(), mib);
        }
        Err(e) => failures.push(e),
    }

    println!(
        "simbench: workload={} seed={} trace={} pool_threads={threads} iterations={} setups={SETUP_REPS} \
         median host_wall_s={host_wall_s:.6} reference_s={reference_s:.6} reference_threads={reference_threads}",
        args.workload,
        args.seed,
        args.trace as u8,
        1 + walls.len() + traced_walls.len(),
    );
    println!("sim_schedule_digest: {:016x}", first.digest);
    let sim: Vec<String> = first
        .sim
        .iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    let samples = first
        .counters
        .get("engine.completed")
        .copied()
        .unwrap_or(1.0);
    println!("sim: {} (latency samples: {samples})", sim.join(" "));
    for (name, _) in catalogue {
        if values.get(*name).is_some_and(|v| !v.is_finite()) {
            failures.push(format!("metric {name} is not a finite number"));
        }
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let calls = traced.calls() + quiet.calls();
    let failed = (failures.len() as u64).min(calls);
    println!("{}", result_line(calls, failed, catalogue, &values));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload paged_campaign --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("paged_campaign", 7, 12, true)
        );
        let d = parse("--workload paper_kernels").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (9, 10, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload paper_kernels --trace 2").is_err());
        assert!(parse("--workload paper_kernels --seconds 0").is_err());
        assert!(parse("--workload paper_kernels --bogus 1").is_err());
    }
}
