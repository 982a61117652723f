//! The `wrapper-train` workload: `Wrapper::train` on sample sets of both
//! families, in whole rounds. Each round runs in a fresh process (this
//! binary in [`ROUND_MODE`]) so that every round starts from the same cold
//! language store and op cache, and so that the round's peak memory is
//! the training's own.
//!
//! A round is the same list of sets every time: [`SEEDED_SETS`] sets per
//! family of unperturbed generator pages drawn from `--seed`, then
//! [`FIXED_SETS`] sets per family of perturbed pages that do not depend on
//! the seed (see [`gen::fixed_perturbed_sets`]). A training fails when its
//! wrapper mislabels one of its own training pages; at this commit that
//! happens, every time, to exactly the fixed sets whose learning falls to
//! rung 2 of the disambiguation ladder.

use crate::check;
use crate::gen::{self, Family, Rng, SampleSet};
use crate::json::{self, Value};
use crate::trace::Tracer;
use crate::{layers, median, pipeline, serve, sys, Ctx, Report};
use rextract_html::token::Token;
use rextract_wrapper::{TrainPage, Wrapper, WrapperConfig, WrapperScratch};
use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// First argument that runs one training round instead of a workload.
pub const ROUND_MODE: &str = "train-round";
/// Seeded sets per family in a round.
pub const SEEDED_SETS: usize = 30;
/// Fixed perturbed sets per family in a round, and edits per page.
pub const FIXED_SETS: usize = 20;
pub const FIXED_EDITS: usize = 2;
/// Catalog pages for the traced run's page-path figures.
const TRACED_PAGES: usize = 5000;

pub fn round_sets(seed: u64) -> Vec<SampleSet> {
    let mut sets = gen::seeded_sets(seed, SEEDED_SETS);
    sets.extend(gen::fixed_perturbed_sets(FIXED_SETS, FIXED_EDITS));
    sets
}

/// Sets file: per set `set <family> <pages>`, then per page
/// `page <target> <tokens> <bytes>` and the page's HTML on its own line.
fn write_sets(path: &Path, sets: &[SampleSet]) -> Result<(), String> {
    let mut out = Vec::new();
    for set in sets {
        let fam = match set.family {
            Family::Search => "search",
            Family::Listing => "listing",
        };
        writeln!(out, "set {fam} {}", set.pages.len()).map_err(|e| e.to_string())?;
        for p in &set.pages {
            let html = rextract_html::writer::write(&p.tokens);
            writeln!(out, "page {} {} {}", p.target, p.tokens.len(), html.len())
                .map_err(|e| e.to_string())?;
            out.extend_from_slice(html.as_bytes());
            out.push(b'\n');
        }
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Read a sets file, tokenizing every page with the program's tokenizer.
fn read_sets(path: &Path) -> Result<Vec<SampleSet>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut rest = text.as_str();
    let mut line = || -> Option<&str> {
        let (l, r) = rest.split_once('\n')?;
        rest = r;
        Some(l)
    };
    let mut sets = Vec::new();
    while let Some(head) = line() {
        let f: Vec<&str> = head.split_whitespace().collect();
        let (family, n) = match f.as_slice() {
            ["set", "search", n] => (Family::Search, n.parse::<usize>()),
            ["set", "listing", n] => (Family::Listing, n.parse::<usize>()),
            _ => return Err(format!("bad set line {head:?}")),
        };
        let n = n.map_err(|e| e.to_string())?;
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            let head = line().ok_or("truncated sets file")?;
            let nums: Vec<usize> = head
                .strip_prefix("page ")
                .ok_or_else(|| format!("bad page line {head:?}"))?
                .split_whitespace()
                .map(|x| {
                    x.parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())
                })
                .collect::<Result<_, _>>()?;
            let [target, ntok, _bytes] = nums[..] else {
                return Err(format!("bad page line {head:?}"));
            };
            let html = line().ok_or("truncated sets file")?;
            let tokens = rextract_html::tokenize(html);
            if tokens.len() != ntok {
                return Err(format!(
                    "page tokenizes to {} tokens, generator made {ntok}",
                    tokens.len()
                ));
            }
            pages.push(TrainPage { tokens, target });
        }
        sets.push(SampleSet { family, pages });
    }
    Ok(sets)
}

/// A held-out page for `p`: the same layout with every text run replaced,
/// rendered to HTML and tokenized again.
fn held_out(p: &TrainPage, rng: &mut Rng) -> Result<TrainPage, String> {
    let retexted: Vec<Token> = p
        .tokens
        .iter()
        .map(|t| match t {
            Token::Text(_) if !t.is_blank_text() => {
                Token::Text(format!("Item {}", rng.below(1_000_000)))
            }
            other => other.clone(),
        })
        .collect();
    let tokens = rextract_html::tokenize(&rextract_html::writer::write(&retexted));
    if tokens != retexted {
        return Err("held-out page does not round-trip through the tokenizer".into());
    }
    Ok(TrainPage {
        tokens,
        target: p.target,
    })
}

/// Check one trained wrapper. `Ok(false)`: it mislabels one of its own
/// training pages (a failed training). `Err`: any other wrong answer.
fn check_training(w: &Wrapper, set: &SampleSet, rng: &mut Rng) -> Result<bool, String> {
    let mut sc = WrapperScratch::new();
    if set
        .pages
        .iter()
        .any(|p| w.extract_target_with(&p.tokens, &mut sc) != Ok(p.target))
    {
        return Ok(false);
    }
    for (k, p) in set.pages.iter().enumerate() {
        check::check_wrapper_page(w, &p.tokens, p.target, &mut sc)
            .map_err(|e| format!("training page {k}: {e}"))?;
        let h = held_out(p, rng)?;
        check::check_wrapper_page(w, &h.tokens, h.target, &mut sc)
            .map_err(|e| format!("held-out page {k}: {e}"))?;
    }
    Ok(true)
}

/// Child side: `perfbench train-round SETS_FILE 0|1 SPANS_FILE`.
pub fn round_main(args: &[String]) -> ExitCode {
    let (Some(path), Some(trace), Some(spans)) = (args.first(), args.get(1), args.get(2)) else {
        eprintln!("perfbench {ROUND_MODE}: want SETS_FILE 0|1 SPANS_FILE");
        return ExitCode::from(2);
    };
    match round(Path::new(path), trace == "1", Path::new(spans)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {ROUND_MODE}: {e}");
            ExitCode::from(1)
        }
    }
}

fn round(path: &Path, traced: bool, spans: &Path) -> Result<String, String> {
    let sets = read_sets(path)?;
    println!("ready");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let mut tracer = Tracer::new(traced);
    let mut store = None;
    if traced {
        // Cold synthesis spans first; the trainings below then reuse the
        // warmed store and serve only as the checked outputs.
        store = Some(layers::synthesis_spans(&sets, &mut tracer)?);
    }
    let pid = std::process::id();
    let cpu0 = sys::process_cpu_s(pid).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let trained: Vec<_> = sets
        .iter()
        .map(|set| Wrapper::train(&set.pages, WrapperConfig::default()))
        .collect();
    let train_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s(pid).map_err(|e| e.to_string())? - cpu0;

    let mut failed = Vec::new();
    let mut errors = Vec::new();
    let mut rng = Rng::new(0x4e1d);
    for (i, (set, w)) in sets.iter().zip(&trained).enumerate() {
        match w {
            Ok(w) => match check_training(w, set, &mut rng) {
                Ok(true) => {}
                Ok(false) => failed.push(i),
                Err(e) => errors.push(format!("set {i}: {e}")),
            },
            Err(e) => {
                failed.push(i);
                errors.push(format!("set {i}: training failed: {e}"));
            }
        }
    }

    let mut out = format!(
        "{{\"trainings\":{},\"pages\":{},\"train_s\":{},\"cpu_s\":{},\"failed\":[{}],\"errors\":[{}]",
        sets.len(),
        sets.iter().map(|s| s.pages.len()).sum::<usize>(),
        json::number(train_s),
        json::number(cpu_s),
        failed.iter().map(usize::to_string).collect::<Vec<_>>().join(","),
        errors.iter().map(|e| json::quote(e)).collect::<Vec<_>>().join(",")
    );
    if let Some((rung2, store)) = store {
        let mut r = Report::default();
        layers::synthesis_metrics(&tracer, sets.len(), rung2.len(), &store, &mut r);
        // The named fault: the failed trainings should be exactly the sets
        // whose learning fell to rung 2.
        let differ = failed.iter().filter(|i| !rung2.contains(i)).count()
            + rung2.iter().filter(|i| !failed.contains(i)).count();
        r.info("learn.failed_vs_rung2_mismatches", differ as f64);
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|(k, v, u)| {
                format!(
                    "{}:[{},{}]",
                    json::quote(k),
                    json::number(*v),
                    json::quote(u)
                )
            })
            .collect();
        let info: Vec<String> = r
            .info
            .iter()
            .map(|(k, v)| format!("{}:{}", json::quote(k), json::number(*v)))
            .collect();
        out.push_str(&format!(
            ",\"layers\":{{{}}},\"layer_info\":{{{}}}",
            metrics.join(","),
            info.join(",")
        ));
        tracer
            .write_json(spans)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    out.push('}');
    Ok(out)
}

/// One round as the parent sees it.
struct RoundResult {
    setup_s: f64,
    usage: sys::Usage,
    v: Value,
}

fn spawn_round(ctx: &Ctx, sets_file: &Path, traced: bool) -> Result<RoundResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spans = ctx.traces.join(format!(
        "{}-synthesis.json",
        ctx.work.file_name().unwrap_or_default().to_string_lossy()
    ));
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg(ROUND_MODE)
        .arg(sets_file)
        .arg(if traced { "1" } else { "0" })
        .arg(spans)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a training round: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let ready = sys::wait_for_line(&mut out, "ready");
    let setup_s = t0.elapsed().as_secs_f64();
    let mut rest = String::new();
    let read = out.read_to_string(&mut rest);
    let usage = sys::reap(child).map_err(|e| e.to_string())?;
    ready.map_err(|e| format!("training round: {e}"))?;
    read.map_err(|e| e.to_string())?;
    if usage.exit_code != 0 {
        return Err(format!("training round exited {}", usage.exit_code));
    }
    let v = json::parse(rest.lines().last().unwrap_or(""))
        .map_err(|e| format!("training round output: {e}"))?;
    Ok(RoundResult { setup_s, usage, v })
}

fn nums(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::arr)
        .map(|a| a.iter().filter_map(Value::num).collect())
        .unwrap_or_default()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let sets = round_sets(ctx.seed);
    let sets_file = ctx.work.join("sets.txt");
    write_sets(&sets_file, &sets)?;
    let pages: usize = sets.iter().map(|s| s.pages.len()).sum();
    report.info("sets_per_round", sets.len() as f64);
    report.info("pages_per_round", pages as f64);

    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let r = spawn_round(ctx, &sets_file, ctx.trace)?;
        let get = |k: &str| r.v.get(k).and_then(Value::num).unwrap_or(0.0);
        report.attempted += get("trainings") as u64;
        report.failed += nums(&r.v, "failed").len() as u64;
        for e in r.v.get("errors").and_then(Value::arr).unwrap_or(&[]) {
            report.error(e.str().unwrap_or("?").to_string());
        }
        let wall = start.elapsed().as_secs_f64() / (rounds.len() + 1) as f64;
        rounds.push(r);
        if ctx.trace || start.elapsed().as_secs_f64() + wall > ctx.seconds {
            break;
        }
    }

    if ctx.trace {
        let layers_v = rounds[0].v.get("layers").cloned().unwrap_or(Value::Null);
        if let Value::Obj(kv) = layers_v {
            for (k, v) in kv {
                let a = v.arr().unwrap_or(&[]);
                let value = a.first().and_then(Value::num).unwrap_or(f64::NAN);
                let unit = a.get(1).and_then(Value::str).unwrap_or("");
                report.metric(&k, value, unit);
            }
        }
        if let Some(Value::Obj(kv)) = rounds[0].v.get("layer_info") {
            for (k, v) in kv {
                report.info(k, v.num().unwrap_or(f64::NAN));
            }
        }
        let wrappers = pipeline::wrappers_dir(ctx);
        pipeline::CliTrainer::new(ctx, &wrappers)?;
        let catalog = gen::catalog_pages(ctx.seed, TRACED_PAGES);
        let corpus = ctx.work.join("corpus");
        let sources = pipeline::write_corpus(&corpus, &catalog)?;
        report.absorb(layers::page_path(
            ctx, &catalog, &corpus, &sources, &wrappers,
        )?);
        report.absorb(serve::probe(ctx, &wrappers)?);
        return Ok(report);
    }

    let col = |f: &dyn Fn(&RoundResult) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let get = |r: &RoundResult, k: &str| r.v.get(k).and_then(Value::num).unwrap_or(f64::NAN);
    report.metric(
        "pages_per_s",
        median(&col(&|r| get(r, "pages") / get(r, "train_s"))),
        "pages/s",
    );
    report.metric(
        "wrappers_per_s",
        median(&col(&|r| get(r, "trainings") / get(r, "train_s"))),
        "wrappers/s",
    );
    // Per-call latency as each round's mean: the sets' own times form
    // several clusters (families, perturbed or not), and a median of the
    // pooled calls would jump between them.
    report.metric(
        "latency_p50_us",
        median(&col(&|r| get(r, "train_s") * 1e6 / get(r, "trainings"))),
        "us",
    );
    report.metric(
        "cpu_us_per_req",
        median(&col(&|r| get(r, "cpu_s") * 1e6 / get(r, "trainings"))),
        "us",
    );
    report.metric("peak_rss_mb", median(&col(&|r| r.usage.peak_rss_mb)), "MB");
    report.metric("setup_s", median(&col(&|r| r.setup_s)), "s");
    report.info("rounds", rounds.len() as f64);
    Ok(report)
}
