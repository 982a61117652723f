//! The traced run's per-layer figures. Each is the self time of spans the
//! benchmark opens around its own calls into a layer's public function,
//! made in this process on the workload's inputs:
//!
//! * the page path — read, tokenize, routing signature, route and extract,
//!   abstraction plus scan, tuple formatting, the reorder sink, dropping
//!   the token vectors — run once untraced and once traced over the same
//!   pages, which also gives the tracing overhead;
//! * synthesis — learning, pivot maximization, engine compilation — with
//!   the language store's counters around it.

use crate::check;
use crate::gen::{self, Family, GenPage, SampleSet};
use crate::trace::Tracer;
use crate::{median, Ctx, Report};
use rextract_automata::{Store, StoreStats};
use rextract_corpus::ingest;
use rextract_corpus::sink::{tuple_line, PageLine, ReorderSink};
use rextract_corpus::{CorpusSource, RouteOutcome, Router, WorkerScratch, SIGNATURE_CFG};
use rextract_extraction::extract::{ExtractScratch, Extractor};
use rextract_html::seq::{SeqConfig, Vocabulary};
use rextract_learn::disambiguate::learn_unambiguous;
use rextract_learn::MarkedSeq;
use rextract_wrapper::wrapper::OTHER;
use rextract_wrapper::{Wrapper, WrapperScratch};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Catalog pages in a traced page-path probe (of the 5·10⁴ in the corpus).
pub const TRACED_CATALOG_PAGES: usize = 10_000;
/// Large pages in a traced page-path probe.
pub const TRACED_LARGE_PAGES: usize = 60;

fn trace_file(ctx: &Ctx, what: &str) -> std::path::PathBuf {
    ctx.traces.join(format!(
        "{}-{what}.json",
        ctx.work.file_name().unwrap_or_default().to_string_lossy()
    ))
}

fn self_ns(t: &BTreeMap<&str, u64>, name: &str) -> f64 {
    t.get(name).copied().unwrap_or(0) as f64
}

/// Page-path layer figures over `pages`, stored as `sources` in `corpus`
/// (which may hold more files than `pages`; the first ones are used).
pub fn page_path(
    ctx: &Ctx,
    pages: &[GenPage],
    corpus: &Path,
    sources: &[String],
    wrappers_dir: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(true);

    let mut enumerate_s = Vec::new();
    let mut jobs = Vec::new();
    for k in 0..3 {
        let t = Instant::now();
        jobs = tracer
            .span("corpus.enumerate", k, || {
                ingest::enumerate(&CorpusSource::Dir(corpus.to_path_buf()))
            })
            .map_err(|e| format!("enumerate: {e}"))?;
        enumerate_s.push(t.elapsed().as_secs_f64());
    }
    jobs.truncate(pages.len());
    if jobs.len() != pages.len() {
        return Err(format!(
            "{} pages enumerated, want {}",
            jobs.len(),
            pages.len()
        ));
    }

    let mut load_ms = Vec::new();
    let mut wrappers: Vec<(String, Arc<Wrapper>)> = Vec::new();
    for k in 0..3 {
        let t = Instant::now();
        wrappers = tracer.span("wrapper.load", k, || {
            [Family::Listing, Family::Search]
                .iter()
                .map(|f| {
                    Wrapper::load(&wrappers_dir.join(format!("{}.wrapper", f.wrapper())))
                        .map(|w| (f.wrapper().to_string(), Arc::new(w)))
                        .map_err(|e| format!("loading {}: {e}", f.wrapper()))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // Router order is by name: listing, search — as loaded above.
    let extractors: Vec<Extractor> = wrappers
        .iter()
        .map(|(_, w)| Extractor::compile(w.expr()))
        .collect();

    let pass = |tracer: &mut Tracer, report: &mut Report| -> Result<(f64, usize), String> {
        let router = Router::new(wrappers.clone(), None).map_err(|e| e.to_string())?;
        let mut ws = WorkerScratch::new(wrappers.len());
        let mut sig = WrapperScratch::new();
        let mut per_wrapper: Vec<WrapperScratch> =
            wrappers.iter().map(|_| WrapperScratch::new()).collect();
        let mut xs = ExtractScratch::default();
        let mut out = std::io::sink();
        let mut sink = ReorderSink::new(&mut out, None);
        let mut lines = Vec::with_capacity(pages.len());
        let t0 = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            let id = i as u64;
            let span = tracer.open("page", id);
            let body = tracer
                .span("corpus.read", id, || ingest::read_page(job))
                .map_err(|e| format!("read {}: {e}", job.source))?;
            let (tokens, spans) = tracer.span("html.tokenize", id, || {
                rextract_html::tokenize_spanned(&body)
            });
            tracer.span("wrapper.signature", id, || {
                sig.skeleton_signature(&SIGNATURE_CFG, &tokens)
            });
            let outcome = tracer.span("corpus.route", id, || {
                router.route_and_extract(&tokens, &mut ws)
            });
            let RouteOutcome::Extracted {
                wrapper: wi,
                target,
            } = outcome
            else {
                report.failed += 1;
                report.error(format!("{}: routed to {outcome:?}", job.source));
                tracer.close(span);
                continue;
            };
            let (name, w) = &wrappers[wi];
            let again = tracer.span("wrapper.extract", id, || {
                w.extract_target_with(&tokens, &mut per_wrapper[wi])
            });
            let scan = tracer.span("extraction.scan", id, || {
                extractors[wi]
                    .extract_with(per_wrapper[wi].word(), &mut xs)
                    .map(|h| h.position)
            });
            let (s, e) = spans[target];
            let line = tracer.span("corpus.format", id, || {
                tuple_line(
                    &job.source,
                    name,
                    w.format_version(),
                    w.revision(),
                    &[(s, e)],
                    &[&body[s..e]],
                )
            });
            lines.push(line.clone());
            tracer
                .span("corpus.sink", id, || {
                    sink.complete(id, PageLine::Tuple(line))
                })
                .map_err(|e| e.to_string())?;
            tracer.span("html.drop", id, || drop((tokens, spans)));
            tracer.close(span);
            let back = per_wrapper[wi].back();
            if again != Ok(target) || scan.as_ref().map(|&p| back[p]) != Ok(target) {
                report.error(format!(
                    "{}: extract {again:?} scan {scan:?} vs route {target}",
                    job.source
                ));
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        drop(sink);
        for ((line, source), page) in lines.iter().zip(sources).zip(pages) {
            report.attempted += 1;
            if let Err(e) = check::check_tuple_line(line, source, page) {
                report.failed += 1;
                report.error(e);
            }
        }
        Ok((elapsed, router.binding_count()))
    };
    // Untraced and traced passes alternate so neither gets the warmer
    // caches; the tracing overhead is their difference.
    let mut off = Tracer::new(false);
    let mut untraced = 0.0;
    let mut traced = 0.0;
    let mut bound = 0;
    for _ in 0..2 {
        untraced += pass(&mut off, &mut report)?.0;
        let (t, b) = pass(&mut tracer, &mut report)?;
        traced += t;
        bound = b;
    }

    let t = tracer.self_ns();
    let n = (2 * pages.len()) as f64;
    let tokens = 2.0 * pages.iter().map(|p| p.tokens as f64).sum::<f64>();
    report.metric("corpus.enumerate_s", median(&enumerate_s), "s");
    report.metric("wrapper.load_ms", median(&load_ms), "ms");
    report.metric(
        "corpus.read_us_per_page",
        self_ns(&t, "corpus.read") / n / 1e3,
        "us",
    );
    report.metric(
        "html.tokenize_ns_per_token",
        self_ns(&t, "html.tokenize") / tokens,
        "ns",
    );
    report.metric(
        "html.drop_ns_per_token",
        self_ns(&t, "html.drop") / tokens,
        "ns",
    );
    report.metric(
        "wrapper.signature_ns_per_token",
        self_ns(&t, "wrapper.signature") / tokens,
        "ns",
    );
    report.metric(
        "wrapper.extract_ns_per_token",
        self_ns(&t, "wrapper.extract") / tokens,
        "ns",
    );
    report.metric(
        "extraction.scan_ns_per_token",
        self_ns(&t, "extraction.scan") / tokens,
        "ns",
    );
    report.metric(
        "corpus.route_us_per_page",
        self_ns(&t, "corpus.route") / n / 1e3,
        "us",
    );
    report.metric(
        "corpus.format_us_per_page",
        self_ns(&t, "corpus.format") / n / 1e3,
        "us",
    );
    report.metric(
        "corpus.sink_us_per_page",
        self_ns(&t, "corpus.sink") / n / 1e3,
        "us",
    );
    report.info("html.tokens_per_page", tokens / n);
    report.info("corpus.signatures_bound", bound as f64);
    report.metric(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    );
    tracer
        .write_json(&trace_file(ctx, "page-path"))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}

/// Sample sets for the synthesis figures of the workloads whose own path
/// trains nothing in-process: the two workload wrappers' sets and twenty
/// seeded ones.
pub fn probe_sets(seed: u64) -> Vec<SampleSet> {
    let mut sets = vec![
        gen::wrapper_training_set(Family::Search),
        gen::wrapper_training_set(Family::Listing),
    ];
    sets.extend(gen::seeded_sets(seed, 10));
    sets
}

/// Learning, maximization and compilation of each set, each in its own
/// span, exactly as `Wrapper::train` sequences them. Returns the indices
/// of the sets that fell to rung 2 of the disambiguation ladder and the
/// store counters' change.
pub fn synthesis_spans(
    sets: &[SampleSet],
    tracer: &mut Tracer,
) -> Result<(Vec<usize>, StoreStats), String> {
    let cfg = SeqConfig::tags_only();
    let before = Store::stats();
    let mut rung2 = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        let id = i as u64;
        let span = tracer.open("synthesis.set", id);
        let samples: Vec<MarkedSeq> = set
            .pages
            .iter()
            .map(|p| MarkedSeq::from_tokens(&p.tokens, p.target, &cfg))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("set {i}: target not representable"))?;
        let mut vocab = Vocabulary::new();
        vocab.observe_name(OTHER);
        for s in &samples {
            for n in &s.names {
                vocab.observe_name(n);
            }
        }
        let alphabet = vocab.alphabet();
        let learned = tracer
            .span("learn.learn_unambiguous", id, || {
                learn_unambiguous(&alphabet, &samples)
            })
            .map_err(|e| format!("set {i}: {e}"))?;
        if learned.rung == 2 {
            rung2.push(i);
        }
        let maximal = learned
            .pivot
            .as_ref()
            .and_then(|p| tracer.span("extraction.maximize", id, || p.maximize()).ok());
        let expr = maximal.as_ref().unwrap_or(&learned.expr);
        tracer.span("extraction.compile", id, || Extractor::compile(expr));
        tracer.close(span);
    }
    Ok((rung2, Store::stats().since(&before)))
}

/// The synthesis figures from [`synthesis_spans`].
pub fn synthesis_metrics(
    tracer: &Tracer,
    sets: usize,
    rung2: usize,
    store: &StoreStats,
    report: &mut Report,
) {
    let t = tracer.self_ns();
    let per = |name: &str| self_ns(&t, name) / sets as f64 / 1e6;
    report.metric(
        "learn.learn_ms_per_wrapper",
        per("learn.learn_unambiguous"),
        "ms",
    );
    report.metric(
        "extraction.maximize_ms_per_wrapper",
        per("extraction.maximize"),
        "ms",
    );
    report.metric(
        "extraction.compile_ms_per_wrapper",
        per("extraction.compile"),
        "ms",
    );
    report.metric("automata.op_cache_hit_rate", store.hit_rate(), "ratio");
    report.metric("automata.langs_interned", store.interned as f64, "count");
    report.info("learn.rung2_sets", rung2 as f64);
}

/// Synthesis figures for a workload that trains nothing itself.
pub fn synthesis(ctx: &Ctx, sets: &[SampleSet]) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(true);
    let (rung2, store) = synthesis_spans(sets, &mut tracer)?;
    synthesis_metrics(&tracer, sets.len(), rung2.len(), &store, &mut report);
    tracer
        .write_json(&trace_file(ctx, "synthesis"))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}
