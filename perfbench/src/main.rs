//! End-to-end Residual-41 train/serve benchmark with a traced per-layer
//! breakdown.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_nsl_r41_b250 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run is one workload in its own process. With `--trace 0` it drives
//! the public user path (`prepare_split` → `build_network` →
//! `Trainer::fit` → `predict`, or `StreamingPipeline::ingest`) and reports
//! the end-to-end metrics; with `--trace 1` it reports the per-layer
//! breakdown from a network assembled with timed layers. Metric names,
//! units and the layer → end-to-end mapping are listed in
//! `perfbench/METRICS.md`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod serve;
mod stats;
mod trace;
mod train;

use pelican_core::experiment::DatasetKind;
use std::process::ExitCode;

/// Worker threads of the runtime pool, fixed so every host and commit
/// measures the same schedule.
const WORKERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The outcome of one run: operation counts, metrics in print order and
/// failed checks (a run is correct when there are none).
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub problems: Vec<String>,
    /// Lines printed before the result: sample counts, digests, remarks.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

fn run(args: &Args) -> Result<Report, String> {
    let train = |spec: train::TrainSpec| {
        if args.trace {
            train::traced(&spec, args.seed, args.seconds)
        } else {
            train::untraced(&spec, args.seed, args.seconds)
        }
    };
    match args.workload.as_str() {
        "train_nsl_r41_b250" => train(train::TrainSpec {
            dataset: DatasetKind::NslKdd,
            samples: 3000,
            batch: 250,
            fixed_epochs: 2,
            acc_floor: 0.9,
        }),
        "train_unsw_r41_b1000" => train(train::TrainSpec {
            dataset: DatasetKind::UnswNb15,
            samples: 4444,
            batch: 1000,
            fixed_epochs: 3,
            acc_floor: 0.5,
        }),
        "serve_nsl_r41_w50" => {
            if args.trace {
                serve::traced(args.seed, args.seconds)
            } else {
                serve::untraced(args.seed, args.seconds)
            }
        }
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match pelican_runtime::with_workers(WORKERS, || run(&args)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} workers {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<44} {value:>14.4} {unit}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", report.to_json());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
