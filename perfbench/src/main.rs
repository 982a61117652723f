//! `perfbench` — the rextract benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --rextract PATH/TO/rextract --work DIR
//! ```
//!
//! Runs one workload through the program's public entry points
//! (`rextract pipeline`, `rextract serve`, `Wrapper::train`), checks every
//! output against the input generator or a brute-force oracle, and prints
//! as its last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` a separate traced run reports the per-layer ones.
//! `perfbench/run.py` builds the program and this binary and then runs it;
//! see `perfbench/README.md` for the workloads and metrics.

mod check;
mod gen;
mod json;
mod layers;
mod pipeline;
mod serve;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `rextract` binary under test.
    pub rextract: PathBuf,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
    /// Where traced runs leave their span files.
    pub traces: PathBuf,
}

/// What a run measured and found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations among the operations that did not fail.
    pub errors: Vec<String>,
    /// `(name, value, unit)`, in output order.
    pub metrics: Vec<(String, f64, String)>,
    /// Figures printed for information only (not gated).
    pub info: Vec<(String, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.to_string(), value));
    }

    pub fn error(&mut self, e: impl Into<String>) {
        let e = e.into();
        // Keep the report readable when one fault repeats on every page.
        if self.errors.len() < 20 {
            eprintln!("perfbench: check failed: {e}");
        }
        self.errors.push(e);
    }

    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.metrics.extend(other.metrics);
        self.info.extend(other.info);
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a sample; 0 for an empty one.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub const WORKLOADS: [&str; 4] = [
    "catalog-pipeline",
    "large-page-pipeline",
    "extract-serve",
    "wrapper-train",
];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         --rextract PATH --work DIR",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rextract = None;
    let mut work = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds: want a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: want 0 or 1".into()),
                })
            }
            "--rextract" => rextract = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seed = seed.ok_or_else(usage)?;
    let base = work.ok_or_else(usage)?;
    let ctx = Ctx {
        seed,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        rextract: rextract.ok_or_else(usage)?,
        work: base.join(format!("run-{workload}-{seed}-{}", std::process::id())),
        traces: base.join("traces"),
    };
    Ok((workload, ctx))
}

fn print_result(report: &Report) {
    let mut info = String::from("{\"info\":{");
    for (i, (k, v)) in report.info.iter().enumerate() {
        if i > 0 {
            info.push(',');
        }
        info.push_str(&format!("{}:{}", json::quote(k), json::number(*v)));
    }
    info.push_str("}}");
    println!("{info}");
    let mut metrics = String::new();
    for (i, (k, v, unit)) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(k),
            json::number(*v),
            json::quote(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.errors.is_empty() && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics
    );
}

fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // The checks must reject deliberately corrupted outputs, or a pass
    // would mean nothing.
    for e in check::self_test() {
        report.error(format!("self-test: {e}"));
    }
    let r = match workload {
        "catalog-pipeline" => pipeline::run(ctx, pipeline::Kind::Catalog),
        "large-page-pipeline" => pipeline::run(ctx, pipeline::Kind::Large),
        "extract-serve" => serve::run(ctx),
        "wrapper-train" => train::run(ctx),
        _ => unreachable!("validated in parse_args"),
    }?;
    report.absorb(r);
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(train::ROUND_MODE) {
        return train::round_main(&args[1..]);
    }
    let (workload, ctx) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !ctx.rextract.is_file() {
        eprintln!(
            "perfbench: no rextract binary at {}",
            ctx.rextract.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.work).and(std::fs::create_dir_all(&ctx.traces)) {
        eprintln!("perfbench: creating {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let outcome = run(&workload, &ctx);
    let _ = sys::clear_dir(&ctx.work);
    match outcome {
        Ok(report) => {
            print_result(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}
