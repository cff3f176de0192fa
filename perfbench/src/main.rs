//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload paper_sweep|scale_1k|trace_1k|all
//!           [--seed 1] [--seconds 15] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics; `--trace 1` runs the traced pass and reports the per-layer
//! metrics. The last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. The process
//! exits non-zero when an output check fails. `--workload all` runs
//! every workload, both passes, each in its own child process so peak
//! memory stays per workload.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use perfbench::host::{self, Provenance};
use perfbench::metrics::Outcome;
use perfbench::work::{self, Settings, Workload, DEFAULT_SEED};

struct Args {
    workload: String,
    settings: Settings,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: DEFAULT_SEED,
        seconds: 15.0,
        threads: host::nproc(),
        scratch: PathBuf::from(".bench_build").join("perfbench-scratch"),
    };
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => settings.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                settings.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !settings.seconds.is_finite() || settings.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".to_string());
    }
    let workload = workload.ok_or("--workload is required (paper_sweep|scale_1k|trace_1k|all)")?;
    Ok(Args {
        workload,
        settings,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args.settings);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let provenance = Provenance::collect();
    println!(
        "provenance {}",
        provenance.to_json(workload.name(), args.settings.seed, args.trace)
    );
    let outcome = if args.trace {
        work::run_traced(workload, &args.settings)
    } else {
        work::run_untraced(workload, &args.settings)
    };
    print_outcome(workload.name(), &outcome);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outcome(name: &str, outcome: &Outcome) {
    for m in &outcome.metrics.0 {
        println!("{name:<12} {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", outcome.to_json());
}

/// Runs every workload's two passes in child processes and stops at the
/// first failure.
fn run_all(settings: &Settings) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate the running executable");
        return ExitCode::FAILURE;
    };
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &settings.seed.to_string()])
                .args(["--seconds", &settings.seconds.to_string()])
                .args(["--trace", trace])
                .status();
            match status {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("perfbench: {} --trace {trace}: {status}", workload.name());
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
