//! The two pipeline workloads: `rextract pipeline --workers 1` over a
//! directory of generated pages, repeated in whole rounds over the same
//! corpus for the run's measuring time. Also the wrapper artifacts that
//! the pipelines and the daemon load, trained with `rextract
//! wrapper-train` as a user would.

use crate::check;
use crate::gen::{self, Family, GenPage};
use crate::sys;
use crate::{layers, median, serve, Ctx, Report};
use rextract_html::token::{Attribute, Token};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ≈10⁵ small catalog pages of both families.
    Catalog,
    /// A few hundred listing pages of 10⁴–10⁵ tokens.
    Large,
}

/// Catalog corpus size.
pub const CATALOG_PAGES: usize = 50_000;
/// Large-page corpus size and token range.
pub const LARGE_PAGES: usize = 200;
pub const LARGE_MIN_TOKENS: usize = 10_000;
pub const LARGE_MAX_TOKENS: usize = 100_000;

/// The workload's corpus.
pub fn pages(kind: Kind, seed: u64) -> Vec<GenPage> {
    match kind {
        Kind::Catalog => gen::catalog_pages(seed, CATALOG_PAGES),
        Kind::Large => {
            gen::large_listing_pages(seed, LARGE_PAGES, LARGE_MIN_TOKENS, LARGE_MAX_TOKENS)
        }
    }
}

/// Write `pages` as `dir/pNNNNNN.html`; returns the paths in page order
/// (which is also the pipeline's file-name ingest order).
pub fn write_corpus(dir: &Path, pages: &[GenPage]) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    pages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let path = dir.join(format!("p{i:06}.html"));
            std::fs::write(&path, &p.html)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(path.to_string_lossy().into_owned())
        })
        .collect()
}

/// `rextract wrapper-train` invocations per artifact each time a workload
/// retrains its wrappers.
const TRAININGS_PER_CALL: usize = 5;

/// Trains the `search` and `listing` wrappers with `rextract
/// wrapper-train`, from sample pages marked with `data-target`, into
/// `dir/{search,listing}.wrapper` — the artifacts the pipelines and the
/// daemon load. Workloads train again between their measured rounds, so
/// that `wrappers_per_s` is a median over samples spread across the run.
pub struct CliTrainer {
    rextract: PathBuf,
    jobs: Vec<(PathBuf, Vec<PathBuf>)>,
    /// Seconds per `rextract wrapper-train` invocation, per artifact.
    times: Vec<Vec<f64>>,
}

impl CliTrainer {
    pub fn new(ctx: &Ctx, dir: &Path) -> Result<CliTrainer, String> {
        let samples = ctx.work.join("samples");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut jobs = Vec::new();
        for family in [Family::Search, Family::Listing] {
            let set = gen::wrapper_training_set(family);
            let fdir = samples.join(family.wrapper());
            std::fs::create_dir_all(&fdir).map_err(|e| e.to_string())?;
            let mut files = Vec::new();
            for (i, p) in set.pages.iter().enumerate() {
                let mut tokens = p.tokens.clone();
                if let Token::StartTag { attrs, .. } = &mut tokens[p.target] {
                    attrs.push(Attribute::new("data-target", ""));
                }
                let path = fdir.join(format!("s{i:02}.html"));
                std::fs::write(&path, rextract_html::writer::write(&tokens))
                    .map_err(|e| e.to_string())?;
                files.push(path);
            }
            jobs.push((dir.join(format!("{}.wrapper", family.wrapper())), files));
        }
        let mut t = CliTrainer {
            rextract: ctx.rextract.clone(),
            times: vec![Vec::new(); jobs.len()],
            jobs,
        };
        t.train_all()?;
        Ok(t)
    }

    /// Train (and overwrite) both artifacts [`TRAININGS_PER_CALL`] times,
    /// timing each invocation.
    pub fn train_all(&mut self) -> Result<(), String> {
        for ((artifact, files), times) in self.jobs.iter().zip(&mut self.times) {
            for _ in 0..TRAININGS_PER_CALL {
                let t = Instant::now();
                let out = Command::new(&self.rextract)
                    .arg("wrapper-train")
                    .arg(artifact)
                    .args(files)
                    .stdin(Stdio::null())
                    .output()
                    .map_err(|e| format!("spawning rextract wrapper-train: {e}"))?;
                times.push(t.elapsed().as_secs_f64());
                if !out.status.success() {
                    return Err(format!(
                        "rextract wrapper-train {}: {}",
                        artifact.display(),
                        String::from_utf8_lossy(&out.stderr)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Wrappers per second from each artifact's median invocation time
    /// (the two take different times; one median over both would jump
    /// between them).
    pub fn wrappers_per_s(&self) -> f64 {
        self.times.len() as f64 / self.times.iter().map(|t| median(t)).sum::<f64>()
    }
}

/// Progress is sampled at most this often while a round runs.
const WINDOW: Duration = Duration::from_millis(200);

/// Tuples and CPU time between two progress samples of one round.
struct Window {
    seconds: f64,
    pages: f64,
    cpu_s: f64,
}

/// One `rextract pipeline` invocation, as measured from outside.
struct Round {
    /// Spawn until the first output byte: loading and compiling the
    /// artifacts, enumerating the corpus, the first pages.
    setup_s: f64,
    wall_s: f64,
    windows: Vec<Window>,
    usage: sys::Usage,
    stdout: Vec<u8>,
    stderr: String,
}

fn spawn(ctx: &Ctx, wrappers: &Path, corpus: &Path) -> Result<std::process::Child, String> {
    Command::new(&ctx.rextract)
        .arg("pipeline")
        .arg("--wrappers")
        .arg(wrappers)
        .arg("--corpus")
        .arg(corpus)
        .args(["--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning rextract pipeline: {e}"))
}

/// Seconds from spawning `rextract pipeline` to its first output byte;
/// the process is then stopped.
fn setup_probe(ctx: &Ctx, wrappers: &Path, corpus: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut child = spawn(ctx, wrappers, corpus)?;
    let got = child
        .stdout
        .take()
        .expect("piped stdout")
        .read(&mut [0u8; 1]);
    let first = Instant::now();
    let _ = child.kill();
    sys::reap(child).map_err(|e| format!("waiting for rextract pipeline: {e}"))?;
    match got {
        Ok(1) => Ok((first - t0).as_secs_f64()),
        other => Err(format!("rextract pipeline wrote nothing: {other:?}")),
    }
}

fn run_once(ctx: &Ctx, wrappers: &Path, corpus: &Path) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut child = spawn(ctx, wrappers, corpus)?;
    let mut out = child.stdout.take().expect("piped stdout");
    let mut err = child.stderr.take().expect("piped stderr");
    let pid = child.id();
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::with_capacity(1 << 20);
        let mut chunk = vec![0u8; 1 << 16];
        // (arrival, lines so far, process CPU seconds) once per window.
        let mut marks: Vec<(Instant, u64, f64)> = Vec::new();
        let mut lines = 0u64;
        loop {
            match out.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    let now = Instant::now();
                    buf.extend_from_slice(&chunk[..n]);
                    lines += chunk[..n].iter().filter(|&&b| b == b'\n').count() as u64;
                    if marks.last().is_none_or(|m| now - m.0 >= WINDOW) {
                        if let Ok(cpu) = sys::process_cpu_s(pid) {
                            marks.push((now, lines, cpu));
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        (buf, marks)
    });
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err.read_to_string(&mut s);
        s
    });
    let usage = sys::reap(child).map_err(|e| format!("waiting for rextract pipeline: {e}"))?;
    let end = Instant::now();
    let (stdout, marks) = reader.join().map_err(|_| "stdout reader panicked")?;
    let stderr = err_reader.join().map_err(|_| "stderr reader panicked")?;
    let windows = marks
        .windows(2)
        .filter(|w| w[1].1 > w[0].1)
        .map(|w| Window {
            seconds: (w[1].0 - w[0].0).as_secs_f64(),
            pages: (w[1].1 - w[0].1) as f64,
            cpu_s: w[1].2 - w[0].2,
        })
        .collect();
    Ok(Round {
        setup_s: marks
            .first()
            .map_or(end, |m| m.0)
            .duration_since(t0)
            .as_secs_f64(),
        wall_s: (end - t0).as_secs_f64(),
        windows,
        usage,
        stdout,
        stderr,
    })
}

fn check_round(round: &Round, sources: &[String], pages: &[GenPage], report: &mut Report) {
    if round.usage.exit_code != 0 {
        report.error(format!(
            "rextract pipeline exited {}: {}",
            round.usage.exit_code, round.stderr
        ));
        return;
    }
    match check::parse_summary(&round.stderr) {
        Ok(s) => {
            if let Err(e) = check::check_summary(&s, pages.len() as u64) {
                report.error(e);
            }
        }
        Err(e) => report.error(e),
    }
    let text = match std::str::from_utf8(&round.stdout) {
        Ok(t) => t,
        Err(e) => return report.error(format!("pipeline output is not UTF-8: {e}")),
    };
    let mut lines = text.lines();
    for (source, page) in sources.iter().zip(pages) {
        match lines.next() {
            Some(line) => {
                if let Err(e) = check::check_tuple_line(line, source, page) {
                    report.failed += 1;
                    report.error(e);
                }
            }
            None => {
                report.failed += 1;
                report.error(format!("no output line for {source}"));
            }
        }
    }
    if lines.next().is_some() {
        report.error("more output lines than pages");
    }
}

pub fn run(ctx: &Ctx, kind: Kind) -> Result<Report, String> {
    let mut report = Report::default();
    let t_gen = Instant::now();
    let pages = pages(kind, ctx.seed);
    let corpus = ctx.work.join("corpus");
    let sources = write_corpus(&corpus, &pages)?;
    let wrappers = wrappers_dir(ctx);
    let mut trainer = CliTrainer::new(ctx, &wrappers)?;
    let tokens: usize = pages.iter().map(|p| p.tokens).sum();
    report.info("pages", pages.len() as f64);
    report.info("tokens_per_page", tokens as f64 / pages.len() as f64);
    report.info(
        "bytes_per_page",
        pages.iter().map(|p| p.html.len()).sum::<usize>() as f64 / pages.len() as f64,
    );
    report.info("input_generation_s", t_gen.elapsed().as_secs_f64());

    if ctx.trace {
        let limit = match kind {
            Kind::Catalog => layers::TRACED_CATALOG_PAGES,
            Kind::Large => layers::TRACED_LARGE_PAGES,
        };
        report.absorb(layers::page_path(
            ctx,
            &pages[..limit],
            &corpus,
            &sources[..limit],
            &wrappers,
        )?);
        report.absorb(layers::synthesis(ctx, &layers::probe_sets(ctx.seed))?);
        report.absorb(serve::probe(ctx, &wrappers)?);
        return Ok(report);
    }

    // Each iteration: retrain both wrappers, one invocation stopped at
    // its first output byte (a set-up sample), one whole round. Samples of
    // every metric are thus spread over the run.
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        trainer.train_all()?;
        setups.push(setup_probe(ctx, &wrappers, &corpus)?);
        let t = Instant::now();
        let round = run_once(ctx, &wrappers, &corpus)?;
        report.attempted += pages.len() as u64;
        check_round(&round, &sources, &pages, &mut report);
        setups.push(round.setup_s);
        rounds.push(Round {
            stdout: Vec::new(),
            stderr: String::new(),
            ..round
        });
        // Whole iterations only: start another if it should end in time.
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > ctx.seconds {
            break;
        }
    }
    // Throughput, per-page latency and CPU per page come from the progress
    // windows of every round: their medians shrug off a burst of
    // interference on a shared machine. With `--workers 1` the pipeline
    // handles one page at a time, so a page's latency is the time between
    // consecutive tuples.
    let windows: Vec<&Window> = rounds.iter().flat_map(|r| &r.windows).collect();
    let per = |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(|w| f(w)).collect() };
    report.metric(
        "pages_per_s",
        median(&per(&|w| w.pages / w.seconds)),
        "pages/s",
    );
    report.metric("wrappers_per_s", trainer.wrappers_per_s(), "wrappers/s");
    report.metric(
        "latency_p50_us",
        median(&per(&|w| w.seconds * 1e6 / w.pages)),
        "us",
    );
    report.metric(
        "cpu_us_per_req",
        median(&per(&|w| w.cpu_s * 1e6 / w.pages)),
        "us",
    );
    let rss: Vec<f64> = rounds.iter().map(|r| r.usage.peak_rss_mb).collect();
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.metric("setup_s", median(&setups), "s");
    report.info("windows", windows.len() as f64);
    report.info(
        "round_wall_s",
        median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );
    report.info("rounds", rounds.len() as f64);
    Ok(report)
}

/// Where a workload's artifacts live (shared with the daemon workload).
pub fn wrappers_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("wrappers")
}
