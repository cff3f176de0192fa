//! The three named workloads, each with an untraced pass (end-to-end
//! metrics) and a traced pass (per-layer metrics).
//!
//! * `paper_sweep` — the Section V-B cluster swept through the shard
//!   pool at `nproc` threads, every shard traced into the exact
//!   aggregator as `sweep::run_sweep` does it.
//! * `scale_1k` — one seed of a 1,024-node cluster with a random rack
//!   failed, under LF and then EDF, untraced.
//! * `trace_1k` — the same two runs writing a flow-rate-filtered JSONL
//!   trace to a scratch file.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dfs::cluster::{FailureTimeline, SpeedProfile, Topology};
use dfs::ecstore::placement::{RackAwarePlacement, RoundRobinPlacement};
use dfs::ecstore::FetchPolicy;
use dfs::erasure::CodeParams;
use dfs::experiment::PlacementKind;
use dfs::mapreduce::engine::{BuildError, Engine};
use dfs::mapreduce::RunResult;
use dfs::obs::aggregate::Aggregator;
use dfs::obs::jsonl::JsonlSink;
use dfs::obs::schema::{validate_jsonl, TraceSchema, TRACE_SCHEMA_V1};
use dfs::obs::sink::{FlowRateFilter, FlowRateFilterConfig};
use dfs::simkit::time::SimDuration;
use dfs::workloads::{map_only_job, simulation_default_job, ArrivalTrace};
use dfs::{presets, Experiment, FailureSpec, Policy};
use sweep::{run_sweep, FailureAxis, Shard, ShardMetrics, SweepBase, SweepSpec, WorkloadAxis};

use crate::calib::{Calibrator, Timed};
use crate::host;
use crate::metrics::{mean, median, percentile, ratio, Metrics, Outcome};
use crate::probe::{FlowCapture, SchedProbe, SchedStats, SinkProbe, StreamCounts};
use crate::replay::{replay, ReplayStats};

/// The seed whose simulated metrics are pinned in [`PINNED`].
pub const DEFAULT_SEED: u64 = 1;

/// Simulated metrics of [`DEFAULT_SEED`], which a change meant only to
/// speed up the simulator must leave bit-identical.
pub struct Pinned {
    /// Workload name.
    pub workload: &'static str,
    /// `(sim_makespan_s, edf_gain_pct)` of the untraced pass.
    pub untraced: (f64, f64),
    /// The same pair for the traced pass, which runs only the workload
    /// seed itself on the 1k workloads.
    pub traced: (f64, f64),
}

/// The pinned values, one entry per workload.
pub const PINNED: [Pinned; 3] = [
    Pinned {
        workload: "paper_sweep",
        untraced: (488.2315711145831, 34.642932910728845),
        traced: (488.2315711145831, 34.642932910728845),
    },
    Pinned {
        workload: "scale_1k",
        untraced: (636.2977910833333, 80.17099919443127),
        traced: (612.6984695, 79.24852614766918),
    },
    Pinned {
        workload: "trace_1k",
        untraced: (636.2977910833333, 80.17099919443127),
        traced: (612.6984695, 79.24852614766918),
    },
];

/// The JSONL bytes `trace_1k`'s untraced pass writes under
/// [`DEFAULT_SEED`], summed over its seeds.
pub const PINNED_TRACE_BYTES: u64 = 204_790_858;

/// LF+EDF pairs per pass of the 1k workloads: the workload seed and
/// five more. One pair's cost varies by about 15% from seed to seed;
/// the mean over six varies by about 6%.
pub const PAIR_SEEDS: usize = 6;

/// Stride between the seeds one workload seed expands to, large enough
/// that neighbouring workload seeds share none.
const SEED_STRIDE: u64 = 1_000_003;

/// Pooled runs the sweep's untraced pass measures, at least.
const MIN_ITERATIONS: usize = 3;

/// Set-up repetitions per pass: at least this many...
const MIN_SETUP_REPS: usize = 5;
/// ...and more while within this budget.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Set-up time per calibrated batch.
const SETUP_BATCH: Duration = Duration::from_millis(150);

/// The two policies of the 1k workloads, in run order.
pub const PAIR: [Policy; 2] = [Policy::LocalityFirst, Policy::EnhancedDegradedFirst];

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Section V-B grid through the shard pool.
    PaperSweep,
    /// 1,024-node clusters under LF and EDF, untraced.
    Scale1k,
    /// The same runs with a filtered JSONL trace.
    Trace1k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PaperSweep, Workload::Scale1k, Workload::Trace1k];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Scale1k => "scale_1k",
            Workload::Trace1k => "trace_1k",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one invocation runs.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time of the untraced pass.
    pub seconds: f64,
    /// Pool threads for the sweep: `nproc`.
    pub threads: usize,
    /// Directory for scratch trace files.
    pub scratch: PathBuf,
}

// ---------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------

/// The 1,024-node experiment: the Section V-B preset on 32 racks × 32
/// nodes with 2040 blocks and one random rack failed.
pub fn scale_1k_experiment() -> Experiment {
    let mut exp = presets::simulation_default();
    exp.topo = Topology::homogeneous(32, 32, 4, 1);
    exp.num_blocks = 2040;
    exp.failure = FailureSpec::RandomRack;
    exp
}

/// The simulation seeds one workload seed expands to: the seed itself
/// and `count - 1` more, [`SEED_STRIDE`] apart.
pub fn sub_seeds(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| seed.wrapping_add(i.wrapping_mul(SEED_STRIDE)))
        .collect()
}

/// The `paper_sweep` grid: LF/BDF/EDF × {node, double} × {default,
/// maponly:20} × {exact, redundant:2} × {homogeneous, stragglers:4,0.25}
/// × two seeds on the Section V-B base.
pub fn paper_sweep_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        base: SweepBase::paper_default(),
        policies: vec![
            Policy::LocalityFirst,
            Policy::BasicDegradedFirst,
            Policy::EnhancedDegradedFirst,
        ],
        codes: vec![(20, 15)],
        failures: vec![FailureAxis::SingleNode, FailureAxis::DoubleNode],
        workloads: vec![
            WorkloadAxis::Default,
            WorkloadAxis::MapOnly { map_secs: 20.0 },
        ],
        fetch_policies: vec![FetchPolicy::Exact, FetchPolicy::Redundant { extra: 2 }],
        speeds: vec![
            SpeedProfile::Homogeneous,
            SpeedProfile::Stragglers {
                count: 4,
                factor: 0.25,
            },
        ],
        seeds: sub_seeds(seed, 2),
    }
}

/// The CLI's documented flow-rate filter: 1e6 bps and 5 s.
pub fn trace_filter() -> FlowRateFilterConfig {
    FlowRateFilterConfig {
        min_delta_bps: 1e6,
        min_interval: SimDuration::from_secs(5),
    }
}

/// Builds the engine `exp` runs under `seed`, through the same public
/// builder calls `Experiment::run` makes, so set-up can be timed apart
/// from the run.
///
/// # Errors
///
/// The engine's build error.
pub fn build_engine(exp: &Experiment, seed: u64) -> Result<Engine, BuildError> {
    let builder = Engine::builder(exp.topo.clone())
        .code(exp.code, exp.num_blocks)
        .failure(exp.failure_for_seed(seed))
        .timeline(exp.timeline.clone())
        .config(exp.config)
        .seed(seed)
        .jobs(exp.jobs.iter().cloned());
    match exp.placement {
        PlacementKind::RackAware => builder.placement(&RackAwarePlacement).build(),
        PlacementKind::RoundRobin => builder.placement(&RoundRobinPlacement).build(),
    }
}

/// The experiment one sweep shard runs and its stream seed — the same
/// construction `sweep::run_sweep` applies to each shard.
///
/// # Errors
///
/// A message when the shard's code or axes cannot be instantiated.
pub fn shard_experiment(base: &SweepBase, shard: &Shard) -> Result<(Experiment, u64), String> {
    let stream_seed = shard.stream_seed(base);
    let topo = base.topology();
    let (n, k) = shard.code;
    let code = CodeParams::new(n, k).map_err(|e| format!("code: {e}"))?;
    let (failure, timeline) = match &shard.failure {
        FailureAxis::None => (FailureSpec::None, FailureTimeline::new()),
        FailureAxis::SingleNode => (FailureSpec::RandomSingleNode, FailureTimeline::new()),
        FailureAxis::DoubleNode => (FailureSpec::RandomDoubleNode, FailureTimeline::new()),
        FailureAxis::Rack => (FailureSpec::RandomRack, FailureTimeline::new()),
        FailureAxis::Weibull(churn) => (
            FailureSpec::None,
            FailureTimeline::weibull(&topo, churn, stream_seed).map_err(|e| format!("{e}"))?,
        ),
    };
    let jobs = match &shard.workload {
        WorkloadAxis::Default => vec![simulation_default_job()],
        WorkloadAxis::MapOnly { map_secs } => vec![map_only_job(*map_secs)],
        WorkloadAxis::Poisson { jobs, mean_secs } => {
            ArrivalTrace::poisson(stream_seed, *jobs, *mean_secs)
                .map_err(|e| format!("workload: {e:?}"))?
                .into_jobs()
        }
    };
    let mut config = base.engine_config();
    config.fetch_policy = shard.fetch;
    config.node_speeds = shard.speeds;
    let exp = Experiment {
        topo,
        code,
        num_blocks: base.num_blocks,
        placement: PlacementKind::RackAware,
        failure,
        timeline,
        config,
        jobs,
    };
    Ok((exp, stream_seed))
}

/// The report row a shard contributes, derived exactly as the sweep
/// derives it from the run and the shard's aggregator.
pub fn shard_metrics(stream_seed: u64, run: &RunResult, agg: &Aggregator) -> ShardMetrics {
    let report = agg.report();
    ShardMetrics {
        stream_seed,
        makespan_secs: run.makespan.as_secs_f64(),
        jobs_finished: report.jobs_finished,
        maps_total: run.tasks.len(),
        maps_degraded: report.maps_degraded,
        tasks_queued_degraded: report.tasks_queued_degraded,
        job_p50_secs: report.job_latency_p50,
        job_p95_secs: report.job_latency_p95,
        job_p99_secs: report.job_latency_p99,
    }
}

/// Mean EDF makespan reduction versus LF, in percent, over every
/// scenario of the sweep where both completed.
fn sweep_edf_gain_pct(report: &sweep::SweepReport) -> f64 {
    let lf = report.policies.iter().position(|p| p == "LF");
    let edf = report.policies.iter().position(|p| p == "EDF");
    let (Some(lf), Some(edf)) = (lf, edf) else {
        return 0.0;
    };
    let gains: Vec<f64> = report
        .scenarios
        .iter()
        .filter_map(|s| match (s.makespan_secs[lf], s.makespan_secs[edf]) {
            (Some(l), Some(e)) if l > 0.0 => Some(100.0 * (l - e) / l),
            _ => None,
        })
        .collect();
    mean(&gains)
}

/// Mean makespan over the sweep's completed shards, in seconds.
fn sweep_mean_makespan(report: &sweep::SweepReport) -> f64 {
    let spans: Vec<f64> = report
        .shards
        .iter()
        .filter_map(|s| s.metrics.as_ref().ok().map(|m| m.makespan_secs))
        .collect();
    mean(&spans)
}

/// `(sim_makespan_s, edf_gain_pct)` of an LF/EDF pair.
fn pair_sim_metrics(lf: &RunResult, edf: &RunResult) -> (f64, f64) {
    let l = lf.makespan.as_secs_f64();
    let e = edf.makespan.as_secs_f64();
    ((l + e) / 2.0, ratio(100.0 * (l - e), l))
}

// ---------------------------------------------------------------------
// Shared bookkeeping
// ---------------------------------------------------------------------

/// Output checks and run counts of one pass.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Counts one run, keeping its result or recording its error.
    fn run<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }

    fn finish(self, metrics: Metrics) -> Outcome {
        Outcome {
            correct: self.problems.is_empty() && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            problems: self.problems,
        }
    }
}

/// Compares simulated metrics of [`DEFAULT_SEED`] with [`PINNED`].
fn check_pinned(
    ledger: &mut Ledger,
    workload: Workload,
    seed: u64,
    traced_pass: bool,
    makespan: f64,
    gain: f64,
) {
    if seed != DEFAULT_SEED {
        return;
    }
    if let Some(pins) = PINNED.iter().find(|p| p.workload == workload.name()) {
        let (want_makespan, want_gain) = if traced_pass {
            pins.traced
        } else {
            pins.untraced
        };
        ledger.check(makespan == want_makespan && gain == want_gain, || {
            format!(
                "pinned simulated metrics differ: sim_makespan_s {makespan:?} (pinned \
                 {want_makespan:?}), edf_gain_pct {gain:?} (pinned {want_gain:?})"
            )
        });
    }
}

/// Median set-up time at the reference host speed: repeats `setup` at
/// least [`MIN_SETUP_REPS`] times and while within [`SETUP_BUDGET`], in
/// calibrated batches of about [`SETUP_BATCH`]. `setup` returns the time
/// it spent setting up (excluding tear-down).
fn measure_setup(
    ledger: &mut Ledger,
    cal: &mut Calibrator,
    mut setup: impl FnMut() -> Result<Duration, String>,
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut failure = None;
    while failure.is_none() && (samples.len() < MIN_SETUP_REPS || start.elapsed() < SETUP_BUDGET) {
        let (batch, timed) = cal.timed(1, || {
            let batch_start = Instant::now();
            let mut batch = Vec::new();
            while batch.is_empty() || batch_start.elapsed() < SETUP_BATCH {
                match setup() {
                    Ok(d) => batch.push(d.as_secs_f64()),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            batch
        });
        samples.extend(batch.iter().map(|d| d * timed.speed));
    }
    if let Some(e) = failure {
        ledger.problems.push(format!("set-up: {e}"));
    }
    median(&samples)
}

/// Runs `iteration` until `seconds` have passed and at least
/// [`MIN_ITERATIONS`] completed, each between calibration samples on
/// `threads` threads.
fn timed_loop<T>(
    cal: &mut Calibrator,
    seconds: f64,
    threads: usize,
    mut iteration: impl FnMut() -> T,
) -> Vec<(Timed, T)> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let (out, timed) = cal.timed(threads, &mut iteration);
        samples.push((timed, out));
    }
    samples
}

/// Prints the raw times and host speed behind a pass's reference-speed
/// figures, for the reader of the table.
fn print_raw(what: &str, timed: &[Timed]) {
    let walls: Vec<f64> = timed.iter().map(|t| t.wall).collect();
    let speeds: Vec<f64> = timed.iter().map(|t| t.speed).collect();
    println!(
        "raw {what}: median wall {:.4} s over {} sections, host speed {:.3}..{:.3} of reference",
        median(&walls),
        timed.len(),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        speeds.iter().copied().fold(0.0, f64::max),
    );
}

/// The host-side end-to-end metrics. Peak memory leaves out the
/// calibration buffers, which stay resident for the whole pass.
fn host_metrics(cal: &Calibrator, wall: f64, cpu: f64, setup: f64) -> Metrics {
    let mut metrics = Metrics::default();
    metrics.push("wall_s", wall, "s");
    metrics.push("cpu_s", cpu, "s");
    metrics.push("setup_s", setup, "s");
    metrics.push("peak_rss_mb", host::peak_rss_mb() - cal.resident_mb(), "MB");
    metrics
}

// ---------------------------------------------------------------------
// Untraced pass: end-to-end metrics
// ---------------------------------------------------------------------

/// Runs `workload`'s untraced pass. Host times are reported at the
/// reference host speed (see [`crate::calib`]).
pub fn run_untraced(workload: Workload, s: &Settings) -> Outcome {
    let mut cal = Calibrator::new(s.threads);
    match workload {
        Workload::PaperSweep => sweep_untraced(s, &mut cal),
        Workload::Scale1k | Workload::Trace1k => pair_untraced(workload, s, &mut cal),
    }
}

fn sweep_untraced(s: &Settings, cal: &mut Calibrator) -> Outcome {
    let mut ledger = Ledger::default();
    let setup = measure_setup(&mut ledger, cal, || {
        let start = Instant::now();
        let spec = paper_sweep_spec(s.seed);
        let shards = spec.shards().map_err(|e| e.to_string())?;
        let mut spent = start.elapsed();
        for shard in &shards {
            let t = Instant::now();
            let (exp, stream_seed) = shard_experiment(&spec.base, shard)?;
            let engine = build_engine(&exp, stream_seed).map_err(|e| e.to_string())?;
            spent += t.elapsed();
            drop(engine);
        }
        Ok(spent)
    });

    // Warm-up on one thread: its report is the reference every pooled
    // iteration must reproduce byte for byte.
    let spec = paper_sweep_spec(s.seed);
    let reference = match run_sweep(&spec, 1) {
        Ok(report) => report,
        Err(e) => {
            ledger.problems.push(format!("sweep: {e}"));
            return ledger.finish(Metrics::default());
        }
    };
    let reference_json = reference.to_json();
    let samples = timed_loop(cal, s.seconds, s.threads, || {
        let spec = paper_sweep_spec(s.seed);
        run_sweep(&spec, s.threads).map(|report| (report.to_json(), report))
    });

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut raw = Vec::new();
    for (timed, out) in samples {
        walls.push(timed.wall_ref());
        cpus.push(timed.cpu_ref());
        raw.push(timed);
        match out {
            Ok((json, report)) => {
                for row in &report.shards {
                    ledger.run(
                        "sweep shard",
                        row.metrics.as_ref().map(|_| ()).map_err(String::clone),
                    );
                }
                ledger.check(json == reference_json, || {
                    format!(
                        "the {}-thread sweep report differs from the 1-thread report",
                        s.threads
                    )
                });
            }
            Err(e) => {
                ledger.run("sweep", Err::<(), _>(e));
            }
        }
    }
    let makespan = sweep_mean_makespan(&reference);
    let gain = sweep_edf_gain_pct(&reference);
    check_pinned(
        &mut ledger,
        Workload::PaperSweep,
        s.seed,
        false,
        makespan,
        gain,
    );

    print_raw("pooled sweep", &raw);
    let mut metrics = host_metrics(cal, median(&walls), median(&cpus), setup);
    metrics.push("sim_makespan_s", makespan, "s");
    metrics.push("edf_gain_pct", gain, "%");
    ledger.finish(metrics)
}

/// Where `trace_1k` writes the trace of `policy`.
fn trace_path(s: &Settings, policy: Policy) -> PathBuf {
    s.scratch.join(format!(
        "trace-{}-{}.jsonl",
        std::process::id(),
        policy.name()
    ))
}

/// One traced run of `exp` into a filtered JSONL file at `path`,
/// returning the result, the bytes written and the events the JSONL
/// sink received.
fn run_filtered_trace(
    exp: &Experiment,
    seed: u64,
    policy: Policy,
    path: &Path,
) -> Result<(RunResult, u64, u64), String> {
    let engine = build_engine(exp, seed).map_err(|e| e.to_string())?;
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut jsonl = JsonlSink::new(BufWriter::new(file));
    let (result, received) = {
        let mut counted = SinkProbe::new(&mut jsonl);
        let mut filter = FlowRateFilter::new(&mut counted, trace_filter());
        let result = engine.run_traced(policy.scheduler(), &mut filter);
        drop(filter);
        (result, counted.events)
    };
    jsonl.finish().map_err(|e| format!("trace write: {e}"))?;
    let result = result.map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok((result, bytes, received))
}

/// Lines validated per schema call when streaming a trace file.
const VALIDATE_CHUNK_LINES: usize = 4096;

/// Checks a trace file against the schema and the event count its
/// JSONL sink received. The file is streamed in chunks, each starting
/// with the previous chunk's last line so timestamp order is checked
/// across chunk boundaries too, and peak memory stays the workload's.
fn validate_trace(ledger: &mut Ledger, path: &Path, received: u64) {
    let checked = (|| -> Result<u64, String> {
        let schema = TraceSchema::parse(TRACE_SCHEMA_V1)?;
        let file = File::open(path).map_err(|e| e.to_string())?;
        let mut lines = BufReader::new(file).lines();
        let mut carried: Option<String> = None;
        let mut total = 0u64;
        loop {
            let mut text = carried.clone().map_or_else(String::new, |line| line + "\n");
            let mut fresh = 0;
            let mut last = None;
            for line in lines.by_ref().take(VALIDATE_CHUNK_LINES) {
                let line = line.map_err(|e| e.to_string())?;
                text.push_str(&line);
                text.push('\n');
                fresh += 1;
                if !line.trim().is_empty() {
                    last = Some(line);
                }
            }
            if fresh == 0 {
                return Ok(total);
            }
            let lines = validate_jsonl(&schema, &text)? - usize::from(carried.is_some());
            total += lines as u64;
            carried = last.or(carried);
        }
    })();
    match checked {
        Ok(lines) => ledger.check(lines == received, || {
            format!(
                "{}: {lines} valid lines but the JSONL sink received {received} events",
                path.display()
            )
        }),
        Err(e) => ledger
            .problems
            .push(format!("{}: schema: {e}", path.display())),
    }
}

fn pair_untraced(workload: Workload, s: &Settings, cal: &mut Calibrator) -> Outcome {
    let traced = workload == Workload::Trace1k;
    let seeds = sub_seeds(s.seed, PAIR_SEEDS);
    let mut ledger = Ledger::default();
    let setup = measure_setup(&mut ledger, cal, || {
        let mut spent = Duration::ZERO;
        for &seed in &seeds {
            for _ in PAIR {
                let t = Instant::now();
                let exp = scale_1k_experiment();
                let engine = build_engine(&exp, seed).map_err(|e| e.to_string())?;
                spent += t.elapsed();
                drop(engine);
            }
        }
        Ok(spent / seeds.len() as u32)
    });
    if traced {
        if let Err(e) = std::fs::create_dir_all(&s.scratch) {
            ledger
                .problems
                .push(format!("{}: {e}", s.scratch.display()));
            return ledger.finish(Metrics::default());
        }
    }

    // One run from preset construction to result (trace_1k: to the
    // flushed trace file), with the bytes written and the events the
    // JSONL sink received.
    let run_one = |seed: u64, policy: Policy| -> Result<(RunResult, u64, u64), String> {
        let exp = scale_1k_experiment();
        if traced {
            run_filtered_trace(&exp, seed, policy, &trace_path(s, policy))
        } else {
            build_engine(&exp, seed)
                .map_err(|e| e.to_string())
                .and_then(|engine| engine.run(policy.scheduler()).map_err(|e| e.to_string()))
                .map(|result| (result, 0, 0))
        }
    };
    // One timed LF+EDF pair of `seed`; the schema check of a trace runs
    // after the timer stops.
    type PairOutput = Vec<Option<(RunResult, u64)>>;
    // Each run sits between calibration samples of its own.
    let mut pair = |seed: u64, validate: bool, ledger: &mut Ledger| -> (Vec<Timed>, PairOutput) {
        let (runs, timed): (Vec<_>, Vec<_>) = PAIR
            .iter()
            .map(|&policy| cal.timed(1, || run_one(seed, policy)))
            .unzip();
        let mut outputs = Vec::new();
        for (policy, run) in PAIR.iter().zip(runs) {
            if traced {
                let path = trace_path(s, *policy);
                if let (true, Ok((_, _, received))) = (validate, &run) {
                    validate_trace(ledger, &path, *received);
                }
                let _ = std::fs::remove_file(&path);
            }
            let run = run.map(|(result, bytes, _)| (result, bytes));
            outputs.push(ledger.run(&format!("seed {seed} {}", policy.name()), run));
        }
        (timed, outputs)
    };

    // Warm-up: one untimed EDF run, so caches and lazy set-up are warm.
    let warm_up = run_one(seeds[0], Policy::EnhancedDegradedFirst);
    if traced {
        let _ = std::fs::remove_file(trace_path(s, Policy::EnhancedDegradedFirst));
    }
    if let Err(e) = warm_up {
        ledger.problems.push(format!("warm-up: {e}"));
    }

    // Passes over every seed: always one, and another while it still
    // fits in the measuring time. The first pass's results are the
    // reference later passes reproduce.
    let start = Instant::now();
    let mut walls = vec![Vec::new(); seeds.len()];
    let mut cpus = vec![Vec::new(); seeds.len()];
    let mut reference: Vec<PairOutput> = Vec::new();
    let mut raw = Vec::new();
    for pass in 0.. {
        for (i, &seed) in seeds.iter().enumerate() {
            let (timed, out) = pair(seed, pass == 0 && i == 0, &mut ledger);
            walls[i].push(timed.iter().map(Timed::wall_ref).sum::<f64>());
            cpus[i].push(timed.iter().map(Timed::cpu_ref).sum::<f64>());
            raw.extend(timed);
            match reference.get(i) {
                None => reference.push(out),
                Some(first) => ledger.check(*first == out, || {
                    format!("seed {seed}: pass {pass} differs from the first pass")
                }),
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * f64::from(pass + 2) / f64::from(pass + 1) > s.seconds {
            break;
        }
    }
    let per_seed =
        |samples: &[Vec<f64>]| -> Vec<f64> { samples.iter().map(|v| median(v)).collect() };
    let walls = per_seed(&walls);
    let cpus = per_seed(&cpus);
    print_raw("1k runs", &raw);
    for (seed, wall) in seeds.iter().zip(&walls) {
        println!("seed {seed}: LF+EDF pair {wall:.4} s at reference speed");
    }

    let mut metrics = host_metrics(cal, mean(&walls), mean(&cpus), setup);
    let mut makespans = Vec::new();
    let mut gains = Vec::new();
    let mut bytes = 0;
    for (seed, out) in seeds.iter().zip(&reference) {
        if let [Some((lf, lf_bytes)), Some((edf, edf_bytes))] = out.as_slice() {
            let (makespan, gain) = pair_sim_metrics(lf, edf);
            ledger.check(gain > 0.0, || {
                format!("seed {seed}: EDF did not beat LF at 1k nodes (gain {gain:.3}%)")
            });
            makespans.push(makespan);
            gains.push(gain);
            bytes += lf_bytes + edf_bytes;
        }
    }
    ledger.check(makespans.len() == seeds.len(), || {
        "not every LF/EDF pair completed".to_string()
    });
    let (makespan, gain) = (mean(&makespans), mean(&gains));
    check_pinned(&mut ledger, workload, s.seed, false, makespan, gain);
    if traced && s.seed == DEFAULT_SEED {
        ledger.check(bytes == PINNED_TRACE_BYTES, || {
            format!("trace bytes {bytes} differ from pinned {PINNED_TRACE_BYTES}")
        });
    }
    metrics.push("sim_makespan_s", makespan, "s");
    metrics.push("edf_gain_pct", gain, "%");
    ledger.finish(metrics)
}

// ---------------------------------------------------------------------
// Traced pass: per-layer metrics
// ---------------------------------------------------------------------

/// Per-layer totals of one traced pass.
#[derive(Default)]
struct Layers {
    sched: SchedStats,
    stream: StreamCounts,
    netsim: ReplayStats,
    aggregator: Duration,
    filter_in: u64,
    filter_self: Duration,
    jsonl_in: u64,
    jsonl_self: Duration,
    trace_bytes: u64,
    degraded_read_secs: Vec<f64>,
    build: Duration,
    /// Probed-run wall time minus scheduler and obs self time; the
    /// replayed network self time comes off at the end.
    rest: Duration,
    parallel_efficiency: f64,
    /// Pool CPU time over pool capacity (threads × wall).
    busy_ratio: f64,
    /// Pool CPU time over one-thread CPU time for the same grid.
    cpu_inflation: f64,
    shard_secs: Vec<f64>,
}

impl Layers {
    fn add_sched(&mut self, s: &SchedStats) {
        self.sched.calls += s.calls;
        self.sched.useful_calls += s.useful_calls;
        self.sched.tasks_assigned += s.tasks_assigned;
        self.sched.self_time += s.self_time;
    }

    fn add_stream(&mut self, c: &StreamCounts) {
        self.stream.events += c.events;
        self.stream.flow_rate += c.flow_rate;
        self.stream.degraded_plans += c.degraded_plans;
        self.stream.fetches_issued += c.fetches_issued;
        self.stream.redundant_fetches += c.redundant_fetches;
        self.stream.fetch_cancelled += c.fetch_cancelled;
    }

    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let sched = &self.sched;
        m.push("scheduler.assign_maps.calls", sched.calls as f64, "count");
        m.push(
            "scheduler.assign_maps.self_s",
            sched.self_time.as_secs_f64(),
            "s",
        );
        m.push(
            "scheduler.assign_maps.tasks_assigned",
            sched.tasks_assigned as f64,
            "count",
        );
        m.push(
            "scheduler.assign_maps.useful_ratio",
            ratio(sched.useful_calls as f64, sched.calls as f64),
            "ratio",
        );
        let net = &self.netsim;
        let faithful = net.match_ratio() == 1.0;
        m.push("netsim.calls", net.calls as f64, "count");
        // Replayed times stand for the engine's network only when the
        // replay reproduced every completion; otherwise they are left
        // out rather than estimated.
        if faithful {
            m.push("netsim.self_s", net.self_time.as_secs_f64(), "s");
        }
        m.push("netsim.flows", net.flows as f64, "count");
        m.push("netsim.rate_changes", self.stream.flow_rate as f64, "count");
        m.push(
            "netsim.peak_active_flows",
            net.peak_active_flows as f64,
            "count",
        );
        m.push("netsim.replay_match_ratio", net.match_ratio(), "ratio");
        m.push("obs.aggregator.self_s", self.aggregator.as_secs_f64(), "s");
        m.push("obs.events.total", self.stream.events as f64, "count");
        m.push(
            "obs.events.flow_rate",
            self.stream.flow_rate as f64,
            "count",
        );
        m.push("obs.filter.self_s", self.filter_self.as_secs_f64(), "s");
        m.push(
            "obs.filter.kept_ratio",
            ratio(self.jsonl_in as f64, self.filter_in as f64),
            "ratio",
        );
        m.push("obs.jsonl.self_s", self.jsonl_self.as_secs_f64(), "s");
        m.push("trace_mb", self.trace_bytes as f64 / 1e6, "MB");
        let st = &self.stream;
        m.push("ecstore.degraded_plans", st.degraded_plans as f64, "count");
        m.push(
            "ecstore.redundant_fetches",
            st.redundant_fetches as f64,
            "count",
        );
        m.push(
            "ecstore.fetch_cancelled",
            st.fetch_cancelled as f64,
            "count",
        );
        m.push(
            "ecstore.fetch_useful_ratio",
            ratio(
                st.fetches_issued.saturating_sub(st.redundant_fetches) as f64,
                st.fetches_issued as f64,
            ),
            "ratio",
        );
        m.push(
            "ecstore.degraded_read_p50_s",
            percentile(&self.degraded_read_secs, 50.0),
            "s",
        );
        m.push(
            "ecstore.degraded_read_p99_s",
            percentile(&self.degraded_read_secs, 99.0),
            "s",
        );
        m.push(
            "sweep.parallel_efficiency",
            self.parallel_efficiency,
            "ratio",
        );
        m.push("sweep.busy_ratio", self.busy_ratio, "ratio");
        m.push("sweep.cpu_inflation", self.cpu_inflation, "ratio");
        m.push("sweep.shard_s_p50", percentile(&self.shard_secs, 50.0), "s");
        m.push(
            "sweep.shard_s_max",
            self.shard_secs.iter().copied().fold(0.0, f64::max),
            "s",
        );
        m.push("mapreduce.build_s", self.build.as_secs_f64(), "s");
        if faithful {
            let rest = self.rest.as_secs_f64() - net.self_time.as_secs_f64();
            m.push("mapreduce.rest_s", rest, "s");
        }
        m
    }
}

/// Runs `workload`'s traced pass.
pub fn run_traced(workload: Workload, s: &Settings) -> Outcome {
    match workload {
        Workload::PaperSweep => sweep_traced(s),
        Workload::Scale1k | Workload::Trace1k => pair_traced(workload, s),
    }
}

/// Builds `exp` under `seed`, adding the build time to `layers`.
fn timed_build(layers: &mut Layers, exp: &Experiment, seed: u64) -> Result<Engine, String> {
    let t = Instant::now();
    let engine = build_engine(exp, seed).map_err(|e| e.to_string());
    layers.build += t.elapsed();
    engine
}

/// Captures the flow stream of `policy` on `exp` in a traced run of its
/// own, which must reproduce `reference`, and replays it through a
/// standalone network. Keeping the capture out of the probed runs keeps
/// its cost out of their timings.
fn capture_and_replay(
    ledger: &mut Ledger,
    layers: &mut Layers,
    what: &str,
    exp: &Experiment,
    (policy, seed): (Policy, u64),
    reference: &RunResult,
) {
    let mut capture = FlowCapture::default();
    let captured = build_engine(exp, seed)
        .map_err(|e| e.to_string())
        .and_then(|engine| {
            engine
                .run_traced(policy.scheduler(), &mut capture)
                .map_err(|e| e.to_string())
        });
    let Some(captured) = ledger.run(what, captured) else {
        return;
    };
    ledger.check(captured == *reference, || {
        format!("{what}: the captured run differs from the untraced run")
    });
    layers.add_stream(&capture.counts);
    let replayed = replay(&exp.topo.rack_sizes(), exp.config.net, &capture.flows);
    layers.netsim.add(&replayed);
}

fn pair_traced(workload: Workload, s: &Settings) -> Outcome {
    let traced = workload == Workload::Trace1k;
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();
    if traced {
        if let Err(e) = std::fs::create_dir_all(&s.scratch) {
            ledger
                .problems
                .push(format!("{}: {e}", s.scratch.display()));
            return ledger.finish(Metrics::default());
        }
    }
    let mut results = Vec::new();
    for policy in PAIR {
        let exp = scale_1k_experiment();
        let what = format!("{} {}", workload.name(), policy.name());
        // The untraced reference every probed run must reproduce.
        let reference = timed_build(&mut layers, &exp, s.seed)
            .and_then(|engine| engine.run(policy.scheduler()).map_err(|e| e.to_string()));
        let Some(reference) = ledger.run(&what, reference) else {
            continue;
        };
        let Ok(engine) = build_engine(&exp, s.seed) else {
            continue;
        };
        let (sched, sched_stats) = SchedProbe::wrap(policy.scheduler());
        let probed = if traced {
            let path = trace_path(s, policy);
            let file = match File::create(&path) {
                Ok(f) => f,
                Err(e) => {
                    ledger.problems.push(format!("{}: {e}", path.display()));
                    continue;
                }
            };
            let mut jsonl = JsonlSink::new(BufWriter::new(file));
            let (result, wall, chain_time, jsonl_events, jsonl_record) = {
                let mut inner = SinkProbe::new(&mut jsonl);
                let (result, wall, seen, chain_time) = {
                    let mut filter = FlowRateFilter::new(&mut inner, trace_filter());
                    let mut outer = SinkProbe::new(&mut filter);
                    let t = Instant::now();
                    let result = engine.run_traced(sched, &mut outer);
                    (result, t.elapsed(), outer.events, outer.self_time)
                };
                layers.filter_in += seen;
                (result, wall, chain_time, inner.events, inner.self_time)
            };
            layers.jsonl_in += jsonl_events;
            let t = Instant::now();
            let flushed = jsonl.finish();
            layers.filter_self += chain_time.saturating_sub(jsonl_record);
            layers.jsonl_self += jsonl_record + t.elapsed();
            if let Err(e) = flushed {
                ledger.problems.push(format!("trace write: {e}"));
            }
            layers.trace_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            validate_trace(&mut ledger, &path, jsonl_events);
            let _ = std::fs::remove_file(&path);
            result.map(|r| (r, wall.saturating_sub(chain_time)))
        } else {
            let t = Instant::now();
            let result = engine.run(sched);
            result.map(|r| (r, t.elapsed()))
        };
        let Some((probed, wall)) = ledger.run(&what, probed) else {
            continue;
        };
        ledger.check(probed == reference, || {
            format!("{what}: the probed run differs from the untraced run")
        });
        let sched_stats = *sched_stats.borrow();
        layers.add_sched(&sched_stats);
        layers.rest += wall.saturating_sub(sched_stats.self_time);

        capture_and_replay(
            &mut ledger,
            &mut layers,
            &what,
            &exp,
            (policy, s.seed),
            &reference,
        );
        layers
            .degraded_read_secs
            .extend(reference.degraded_read_secs());
        results.push(reference);
    }
    if let [lf, edf] = results.as_slice() {
        let (makespan, gain) = pair_sim_metrics(lf, edf);
        check_pinned(&mut ledger, workload, s.seed, true, makespan, gain);
    } else {
        ledger
            .problems
            .push("the LF/EDF pair did not complete".to_string());
    }
    let metrics = layers.metrics();
    ledger.finish(metrics)
}

fn sweep_traced(s: &Settings) -> Outcome {
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();
    let spec = paper_sweep_spec(s.seed);
    let (cpu, t) = (host::cpu_seconds(), Instant::now());
    let one = run_sweep(&spec, 1);
    let (wall_one, cpu_one) = (t.elapsed().as_secs_f64(), host::cpu_seconds() - cpu);
    let (cpu, t) = (host::cpu_seconds(), Instant::now());
    let pooled = run_sweep(&spec, s.threads);
    let (wall_pooled, cpu_pooled) = (t.elapsed().as_secs_f64(), host::cpu_seconds() - cpu);
    let (one, pooled) = match (one, pooled) {
        (Ok(one), Ok(pooled)) => (one, pooled),
        (Err(e), _) | (_, Err(e)) => {
            ledger.problems.push(format!("sweep: {e}"));
            return ledger.finish(Metrics::default());
        }
    };
    ledger.check(one.to_json() == pooled.to_json(), || {
        format!(
            "the {}-thread sweep report differs from the 1-thread report",
            s.threads
        )
    });
    let capacity = s.threads as f64 * wall_pooled;
    layers.parallel_efficiency = ratio(wall_one, capacity);
    layers.busy_ratio = ratio(cpu_pooled, capacity);
    layers.cpu_inflation = ratio(cpu_pooled, cpu_one);
    let shards = match spec.shards() {
        Ok(shards) => shards,
        Err(e) => {
            ledger.problems.push(format!("sweep: {e}"));
            return ledger.finish(Metrics::default());
        }
    };

    for (shard, row) in shards.iter().zip(&pooled.shards) {
        let what = format!("shard {}", shard.index);
        let (exp, stream_seed) = match shard_experiment(&spec.base, shard) {
            Ok(built) => built,
            Err(e) => {
                ledger.problems.push(format!("{what}: {e}"));
                continue;
            }
        };
        let reference = timed_build(&mut layers, &exp, stream_seed).and_then(|engine| {
            engine
                .run(shard.policy.scheduler())
                .map_err(|e| e.to_string())
        });
        let Some(reference) = ledger.run(&what, reference) else {
            continue;
        };

        // The shard as the pool runs it: construction, build, a run
        // traced into the exact aggregator, and the report.
        let t = Instant::now();
        let plain = shard_experiment(&spec.base, shard).and_then(|(exp, seed)| {
            let mut agg = Aggregator::new(exp.aggregator_config(seed));
            let engine = build_engine(&exp, seed).map_err(|e| e.to_string())?;
            let run = engine
                .run_traced(shard.policy.scheduler(), &mut agg)
                .map_err(|e| e.to_string())?;
            let metrics = shard_metrics(seed, &run, &agg);
            Ok((run, metrics))
        });
        layers.shard_secs.push(t.elapsed().as_secs_f64());
        if let Some((run, metrics)) = ledger.run(&what, plain) {
            ledger.check(run == reference, || {
                format!("{what}: the aggregated run differs from the untraced run")
            });
            ledger.check(row.metrics.as_ref() == Ok(&metrics), || {
                format!("{what}: re-run metrics differ from the sweep report row")
            });
        }

        // The same shard with every probe attached.
        let Ok(engine) = build_engine(&exp, stream_seed) else {
            continue;
        };
        let (sched, sched_stats) = SchedProbe::wrap(shard.policy.scheduler());
        let mut agg = Aggregator::new(exp.aggregator_config(stream_seed));
        let (probed, wall, agg_time) = {
            let mut agg_probe = SinkProbe::new(&mut agg);
            let t = Instant::now();
            let result = engine.run_traced(sched, &mut agg_probe);
            (result, t.elapsed(), agg_probe.self_time)
        };
        let Some(probed) = ledger.run(&what, probed.map_err(|e| e.to_string())) else {
            continue;
        };
        ledger.check(probed == reference, || {
            format!("{what}: the probed run differs from the untraced run")
        });
        let metrics = shard_metrics(stream_seed, &probed, &agg);
        ledger.check(row.metrics.as_ref() == Ok(&metrics), || {
            format!("{what}: probed metrics differ from the sweep report row")
        });
        let sched_stats = *sched_stats.borrow();
        layers.add_sched(&sched_stats);
        layers.aggregator += agg_time;
        layers.rest += wall.saturating_sub(sched_stats.self_time + agg_time);
        capture_and_replay(
            &mut ledger,
            &mut layers,
            &what,
            &exp,
            (shard.policy, stream_seed),
            &reference,
        );
        layers
            .degraded_read_secs
            .extend(reference.degraded_read_secs());
    }
    let makespan = sweep_mean_makespan(&pooled);
    let gain = sweep_edf_gain_pct(&pooled);
    check_pinned(
        &mut ledger,
        Workload::PaperSweep,
        s.seed,
        true,
        makespan,
        gain,
    );
    let metrics = layers.metrics();
    ledger.finish(metrics)
}
