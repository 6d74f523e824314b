//! Seeded end-to-end and per-layer benchmark of the ccube workspace.
//!
//! ```text
//! ccube-perfbench --workload <figures|scaleout|fabric_faults|cold_search>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with span
//! recording off; with `--trace 1` it records spans around every call
//! into a layer and reports the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. A fuller record (every sample, each metric's spread,
//! host facts) goes to `<out>/results/`, and a traced run's spans to
//! `<out>/spans/`. `perfbench/README.md` defines every metric.

mod alloc;
mod runner;
mod spans;
mod stats;
mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Run one fresh-process set-up and print its digest (internal).
    pub setup_child: bool,
    /// Output directory.
    pub out: PathBuf,
    /// Host facts recorded in the result file.
    pub nproc: String,
    /// Source revision recorded in the result file.
    pub commit: String,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_child: false,
        out: PathBuf::from(".bench_out"),
        nproc: "unknown".into(),
        commit: "unknown".into(),
    };
    while let Some(flag) = it.next() {
        if flag == "--setup-child" {
            args.setup_child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--nproc" => args.nproc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ccube-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.setup_child {
        runner::setup_child(&args)
    } else {
        runner::run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ccube-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
