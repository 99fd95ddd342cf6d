//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_campaign --seed 31403 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload: it sets up several times (reporting the
//! median set-up time), then repeats the workload's timed pass for
//! `--seconds` and reports medians over the passes. With `--trace 1` half
//! of the time runs untraced passes and half traced ones, and the result
//! line carries the per-layer metrics instead of the end-to-end ones.
//! Every pass checks its outputs; a failed check ends the run with exit code
//! 1 and no result. The last line of standard output is the JSON result;
//! progress and details go to standard error.

mod campaign;
mod govern;
mod queue_mix;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trace::{Layers, Span};

/// A 128-bit content hash: equal digests mean byte-identical outputs.
pub type Digest = (u64, u64);

pub fn digest(output: &str) -> Digest {
    latest::core::store::content_hash128(output.as_bytes())
}

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Fewest untraced passes a run makes, so a median exists.
const MIN_PASSES: usize = 3;

/// What one timed pass of a workload did.
pub struct Pass {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Work items completed: pairs, or replayed traffic requests.
    pub items: usize,
    /// Operations attempted and failed, for `ok_ratio` and the result line.
    pub attempted: usize,
    pub failed: usize,
    /// Host latency of each item that has one (pairs, replays), in ms.
    pub item_ms: Vec<f64>,
    /// Digest of the pass's observable output; must repeat exactly across
    /// passes and between traced and untraced passes.
    pub digest: Digest,
    /// Absolute error of every reported latency against its reference.
    pub errors_ms: Vec<f64>,
    /// Per-layer values; filled on traced passes.
    pub layers: Layers,
    /// Spans recorded on traced passes.
    pub spans: Vec<Span>,
}

/// A workload: set-up, then repeatable timed passes.
pub trait Workload {
    /// Build fresh inputs and state; called [`SETUP_REPS`] times.
    fn setup(&mut self) -> Result<(), String>;
    /// One timed pass, traced or not.
    fn pass(&mut self, traced: bool) -> Result<Pass, String>;
    /// Per-layer measurements a traced run makes once, beside its passes.
    fn traced_extras(&mut self, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

/// One metric of the result line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch state lives inside the checkout, one directory per process.
    let root =
        PathBuf::from(".perfbench").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok((attempted, failed, metrics)) => {
            println!("{}", result_line(attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, root: &Path) -> Result<(usize, usize, Vec<Metric>), String> {
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "table2_campaign" => Box::new(campaign::Table2::new(
            args.seed.unwrap_or(campaign::DEFAULT_SEED),
            root,
        )),
        "queue_mix" => Box::new(queue_mix::QueueMix::new(
            args.seed.unwrap_or(queue_mix::DEFAULT_SEED),
            root,
        )),
        "govern_replay" => Box::new(govern::GovernReplay::new(
            args.seed.unwrap_or(govern::DEFAULT_SEED),
            root,
        )),
        other => {
            return Err(format!(
                "unknown workload `{other}` (table2_campaign, queue_mix, govern_replay)"
            ))
        }
    };
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("creating {}: {e}", root.display()))?;

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        workload.setup()?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setups);
    eprintln!("setup: {setups:?} s");

    if !args.trace {
        let (passes, steal) =
            with_steal(|| repeat(args.seconds, MIN_PASSES, || workload.pass(false)));
        let passes = passes?;
        eprintln!(
            "host steal: {:.1} % of CPU time during the passes",
            steal * 100.0
        );
        same_output(&passes, passes[0].digest)?;
        let (attempted, failed) = tally(&passes);
        Ok((attempted, failed, end_to_end(setup_s, &passes)))
    } else {
        let untraced = repeat(args.seconds / 2.0, 1, || workload.pass(false))?;
        let (traced, steal) = with_steal(|| repeat(args.seconds / 2.0, 1, || workload.pass(true)));
        let traced = traced?;
        // The traced result must be byte-identical to the untraced one.
        same_output(&untraced, untraced[0].digest)?;
        same_output(&traced, untraced[0].digest)?;
        let mut layers = Layers::new();
        for name in traced[0].layers.keys() {
            let values: Vec<f64> = traced.iter().map(|p| p.layers[name]).collect();
            layers.insert(name, stats::median(&values));
        }
        workload.traced_extras(&mut layers)?;
        if steal.is_finite() {
            layers.insert("trace.host_steal_ratio", steal);
        }
        let errors = &traced[0].errors_ms;
        layers.insert("core.worst_err_ms", stats::quantile(errors, 1.0));
        layers.insert("core.err_samples", errors.len() as f64);
        let wall = |ps: &[Pass]| stats::median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        layers.insert(
            "trace.overhead_ratio",
            wall(&traced) / wall(&untraced) - 1.0,
        );
        let (a1, f1) = tally(&untraced);
        let (a2, f2) = tally(&traced);
        write_spans(&args.workload, traced);
        Ok((a1 + a2, f1 + f2, per_layer(layers)?))
    }
}

/// Run `pass` until `seconds` have gone by and at least `min` passes ran.
fn repeat(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut() -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min || start.elapsed().as_secs_f64() < seconds {
        let p = pass()?;
        eprintln!(
            "pass {}: {:.4} s, {} items, {} failed",
            passes.len(),
            p.wall_s,
            p.items,
            p.failed
        );
        passes.push(p);
    }
    Ok(passes)
}

/// Run `f`, and return the share of the machine's CPU time the hypervisor
/// stole meanwhile (`NaN` where `/proc/stat` cannot be read). Stolen time
/// slows every timing on a shared host, most of all the 2-worker drain.
fn with_steal<T>(f: impl FnOnce() -> T) -> (T, f64) {
    fn ticks() -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some((*fields.get(7)?, fields.iter().sum()))
    }
    let before = ticks();
    let out = f();
    let share = match (before, ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    (out, share)
}

fn same_output(passes: &[Pass], reference: Digest) -> Result<(), String> {
    match passes.iter().position(|p| p.digest != reference) {
        Some(i) => Err(format!("pass {i} produced different output")),
        None => Ok(()),
    }
}

fn tally(passes: &[Pass]) -> (usize, usize) {
    passes
        .iter()
        .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
}

fn end_to_end(setup_s: f64, passes: &[Pass]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    // The outputs are identical across passes, so are the errors.
    let errors = &passes[0].errors_ms;
    let (attempted, failed) = tally(passes);
    let item_quantile = |q| med(&|p| stats::quantile(&p.item_ms, q));
    vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", med(&|p| p.wall_s), "s"),
        ("items_per_s", med(&|p| p.items as f64 / p.wall_s), "1/s"),
        ("item_p50_ms", item_quantile(0.5), "ms"),
        ("item_p90_ms", item_quantile(0.9), "ms"),
        ("err_mae_ms", stats::mean(errors), "ms"),
        ("err_p95_ms", stats::quantile(errors, 0.95), "ms"),
        ("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Every per-layer metric the benchmark defines, with its unit. A traced
/// run reports all of them; a layer the workload's pass never calls reads
/// zero.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.create_ms", "ms"),
    ("sim.kernel_ms", "ms"),
    ("sim.kernel_calls", "count"),
    ("sim.clock_ms", "ms"),
    ("sim.timer_sync_ms", "ms"),
    ("sim.other_ms", "ms"),
    ("sim.device_s", "s"),
    ("sim.share", "ratio"),
    ("core.phase1_ms", "ms"),
    ("core.probe_ms", "ms"),
    ("core.pair_self_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.measurements", "count"),
    ("core.retries", "count"),
    ("core.thermal_events", "count"),
    ("core.accept_ratio", "ratio"),
    ("core.nan_ground_truth", "count"),
    ("core.worst_err_ms", "ms"),
    ("core.err_samples", "count"),
    ("cluster.analyze_ms", "ms"),
    ("cluster.outlier_ratio", "ratio"),
    ("store.put_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.bytes", "bytes"),
    ("report.render_ms", "ms"),
    ("queue.submit_ms", "ms"),
    ("queue.drain_ms", "ms"),
    ("queue.drain_1w_ms", "ms"),
    ("queue.scaling_2w", "ratio"),
    ("queue.cache_drain_ms", "ms"),
    ("queue.jobs_executed", "count"),
    ("queue.jobs_coalesced", "count"),
    ("queue.jobs_cached", "count"),
    ("queue.shards_executed", "count"),
    ("queue.checkpoint_stall_ms", "ms"),
    ("queue.checkpoint_stall_p99_ms", "ms"),
    ("queue.shard_exec_ms", "ms"),
    ("telemetry.dropped_events", "count"),
    ("traffic.generate_ms", "ms"),
    ("traffic.requests", "count"),
    ("governor.table_ms", "ms"),
    ("governor.replay_ms", "ms"),
    ("governor.switches", "count"),
    ("governor.time_in_switch_ms", "ms"),
    ("governor.deadline_miss_ratio", "ratio"),
    ("governor.aware_excess_misses", "count"),
    ("predict.corpus_ms", "ms"),
    ("predict.fit_ms", "ms"),
    ("predict.validate_ms", "ms"),
    ("predict.table_ms", "ms"),
    ("predict.mae_ms", "ms"),
    ("predict.mape", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.host_steal_ratio", "ratio"),
];

fn per_layer(layers: Layers) -> Result<Vec<Metric>, String> {
    if let Some(name) = layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("internal: layer metric {name} is not declared"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}

/// `VmHWM` of this process: the peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The result line of a run whose every check passed.
fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number as JSON; a non-finite one (never expected) as `null`,
/// which the reader rejects instead of misreading.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Keep the traced passes' spans beside the checkout's scratch state, as
/// `{name, parent, start_ns, end_ns}` rows, one pass after another.
fn write_spans(workload: &str, passes: Vec<Pass>) {
    let mut rows = Vec::new();
    for (i, pass) in passes.into_iter().enumerate() {
        for s in pass.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            rows.push(format!(
                "{{\"pass\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            ));
        }
    }
    let path = Path::new(".perfbench").join(format!("spans-{workload}.json"));
    if let Err(e) = std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n"))) {
        eprintln!("warning: writing {}: {e}", path.display());
    }
}
