//! The `extract-serve` workload: a real `rextract serve --workers 1`
//! daemon under an open-loop load at one fixed offered rate, from one
//! keep-alive connection with HTTP/1.1 pipelining (one sender thread, one
//! receiver thread). Each request is timed from the moment it was due.

use crate::check;
use crate::gen::{self, Family, GenPage};
use crate::json::{self, Value};
use crate::sys::{self, Control};
use crate::{layers, median, pipeline, quantile, Ctx, Report};
use rextract_wrapper::{Wrapper, WrapperScratch};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load, requests per second: well under the daemon's capacity
/// on a 2-vCPU machine, so the figures show cost per request rather than
/// queueing collapse.
pub const RATE: f64 = 3000.0;
/// CPU time is read once per window of this many seconds; the figure is
/// the median window, so a burst of interference on a shared machine
/// moves it little.
const CPU_WINDOW_S: f64 = 1.0;
/// Every `QUERY_EVERY`-th request is a `POST /query` span join (5%).
pub const QUERY_EVERY: usize = 20;
/// Distinct pages the requests cycle through.
pub const POOL: usize = 2000;
/// Segments per run, each with its own daemon boot; `setup_s` is the
/// median boot.
const SEGMENTS: usize = 5;
/// Traffic before each segment's measured window (same rate), not
/// measured.
const WARMUP_S: f64 = 0.5;
/// Length of the short daemon session the other workloads' traced runs
/// use for the serve layer figures.
const PROBE_S: f64 = 1.0;

pub struct Daemon {
    /// `None` once reaped.
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub ctl: Control,
    pub port: u16,
    pub setup_s: f64,
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Boot `rextract serve` over `wrappers` and wait until `/healthz`
    /// answers with both wrappers loaded.
    pub fn boot(ctx: &Ctx, wrappers: &Path) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let mut child = Command::new(&ctx.rextract)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .arg("--wrapper-dir")
            .arg(wrappers)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning rextract serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let booted = (|| {
            let line = sys::wait_for_line(&mut stdout, "listening on http://")
                .map_err(|e| format!("rextract serve did not start: {e}"))?;
            let port: u16 = line
                .trim()
                .rsplit(':')
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("no port in {line:?}"))?;
            let deadline = t0 + Duration::from_secs(30);
            let mut ctl = Control::new(port);
            loop {
                let r = ctl.call("GET", "/healthz", b"");
                let ready = r.as_ref().ok().filter(|r| r.status == 200).and_then(|r| {
                    json::parse(r.text())
                        .ok()?
                        .get("wrappers")
                        .and_then(Value::u64)
                });
                if ready == Some(2) {
                    return Ok((ctl, port));
                }
                if Instant::now() > deadline {
                    return Err(format!("daemon not ready: {r:?}"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        })();
        match booted {
            Ok((ctl, port)) => Ok(Daemon {
                child: Some(child),
                stdout,
                ctl,
                port,
                setup_s: t0.elapsed().as_secs_f64(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = sys::reap(child);
                Err(e)
            }
        }
    }

    /// Graceful shutdown; waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if self.ctl.call("POST", "/shutdown", b"").is_err() {
            if let Some(c) = &mut self.child {
                let _ = c.kill();
            }
        }
        // Drain the daemon's last stdout lines so its prints never meet a
        // closed pipe.
        let mut rest = String::new();
        while self
            .stdout
            .read_line(&mut rest)
            .map(|n| n > 0)
            .unwrap_or(false)
        {}
        let child = self.child.take().expect("daemon not yet reaped");
        let u = sys::reap(child).map_err(|e| format!("reaping daemon: {e}"))?;
        if u.exit_code != 0 {
            return Err(format!("rextract serve exited {}", u.exit_code));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    /// A daemon left behind by an error path is killed and reaped.
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = sys::reap(c);
        }
    }
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Req {
    page: usize,
    query: bool,
}

/// The request sequence: pages cycle in pool order, every
/// [`QUERY_EVERY`]-th request is a `/query` on the next search page.
fn schedule(pool: &[GenPage], total: usize) -> Vec<Req> {
    let search: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].family == Family::Search)
        .collect();
    let (mut e, mut q) = (0, 0);
    (0..total)
        .map(|i| {
            if i % QUERY_EVERY == QUERY_EVERY - 1 {
                q += 1;
                Req {
                    page: search[(q - 1) % search.len()],
                    query: true,
                }
            } else {
                e += 1;
                Req {
                    page: (e - 1) % pool.len(),
                    query: false,
                }
            }
        })
        .collect()
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Let this thread's sleeps end on time (1 µs timer slack instead of the
/// default 50 µs). Acts on the calling thread only.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// What one load session measured.
pub struct Load {
    /// Requests in the measured window.
    pub measured: usize,
    /// Latency from due time, µs, of every measured request.
    pub latency_us: Vec<f64>,
    /// Send time minus due time, µs, of every request.
    pub lateness_us: Vec<f64>,
    /// Daemon CPU per request, µs, in each CPU window.
    pub cpu_us_per_req: Vec<f64>,
    pub window_s: f64,
    pub metrics_before: Value,
    pub metrics_after: Value,
}

/// Run the open-loop load and check every answer (into `report`).
fn load(
    d: &mut Daemon,
    pool: &[GenPage],
    warmup_s: f64,
    seconds: f64,
    report: &mut Report,
) -> Result<Load, String> {
    let warm = (RATE * warmup_s).round() as usize;
    let total = warm + (RATE * seconds).round() as usize;
    let reqs = schedule(pool, total);
    let extract_bytes: Vec<Vec<u8>> = pool
        .iter()
        .map(|p| {
            sys::request_bytes(
                "POST",
                &format!("/extract?wrapper={}", p.family.wrapper()),
                p.html.as_bytes(),
            )
        })
        .collect();
    let query_bytes: Vec<Vec<u8>> = pool
        .iter()
        .map(|p| sys::request_bytes("POST", "/query?query=pair", p.html.as_bytes()))
        .collect();

    let conn = TcpStream::connect(("127.0.0.1", d.port)).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let read_half = conn.try_clone().map_err(|e| e.to_string())?;
    let receiver = std::thread::spawn(move || {
        let mut r = BufReader::with_capacity(1 << 16, read_half);
        let mut got = Vec::with_capacity(total);
        for _ in 0..total {
            match sys::read_response(&mut r) {
                Ok(resp) => got.push((Instant::now(), resp)),
                Err(e) => {
                    // Unblock the sender too: a stuck load must end.
                    let _ = r.get_ref().shutdown(std::net::Shutdown::Both);
                    return Err(format!("reading response {}: {e}", got.len()));
                }
            }
        }
        Ok(got)
    });

    tight_timer_slack();
    let mut conn = conn;
    let period = Duration::from_secs_f64(1.0 / RATE);
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + period * i as u32;
    let mut sent = Vec::with_capacity(total);
    let mut buf = Vec::with_capacity(1 << 16);
    let per_window = ((RATE * CPU_WINDOW_S).round() as usize).max(1);
    // (request index, daemon CPU seconds) at each window boundary.
    let mut cpu_marks: Vec<(usize, f64)> = Vec::new();
    let mut metrics_before = Value::Null;
    let mut i = 0;
    while i < total {
        let now = Instant::now();
        if now < due(i) {
            std::thread::sleep(due(i) - now);
        }
        if i >= warm && (i - warm).is_multiple_of(per_window) {
            cpu_marks.push((i, sys::process_cpu_s(d.pid()).map_err(|e| e.to_string())?));
        }
        if i == warm {
            metrics_before = metrics(d)?;
        }
        // Everything due by now goes out in one write (pipelined), but
        // never across the window boundary, where the counters are read.
        let now = Instant::now();
        buf.clear();
        loop {
            let r = reqs[i];
            buf.extend_from_slice(if r.query {
                &query_bytes[r.page]
            } else {
                &extract_bytes[r.page]
            });
            sent.push(now);
            i += 1;
            if i == total || (i >= warm && (i - warm).is_multiple_of(per_window)) || due(i) > now {
                break;
            }
        }
        if conn.write_all(&buf).is_err() {
            break;
        }
    }
    let got = receiver
        .join()
        .map_err(|_| "receiver panicked".to_string())??;
    if sent.len() != total {
        return Err(format!("sent {} of {total} requests", sent.len()));
    }
    cpu_marks.push((
        total,
        sys::process_cpu_s(d.pid()).map_err(|e| e.to_string())?,
    ));
    let metrics_after = metrics(d)?;
    let cpu_us_per_req: Vec<f64> = cpu_marks
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) * 1e6 / (w[1].0 - w[0].0) as f64)
        .collect();

    for (i, (r, (_, resp))) in reqs.iter().zip(&got).enumerate() {
        report.attempted += 1;
        let page = &pool[r.page];
        let verdict = if resp.status != 200 {
            Err(format!(
                "request {i}: status {} {}",
                resp.status,
                resp.text()
            ))
        } else if r.query {
            check::check_query(resp.text(), page)
        } else {
            check::check_extract(resp.text(), page)
        };
        if let Err(e) = verdict {
            report.failed += 1;
            report.error(e);
        }
    }
    let latency_us = (warm..total)
        .map(|i| (got[i].0 - due(i)).as_secs_f64() * 1e6)
        .collect();
    let lateness_us = (0..total)
        .map(|i| sent[i].saturating_duration_since(due(i)).as_secs_f64() * 1e6)
        .collect();
    Ok(Load {
        measured: total - warm,
        latency_us,
        lateness_us,
        cpu_us_per_req,
        window_s: (got[total - 1].0 - due(warm)).as_secs_f64(),
        metrics_before,
        metrics_after,
    })
}

fn metrics(d: &mut Daemon) -> Result<Value, String> {
    let r = d
        .ctl
        .call("GET", "/metrics", b"")
        .map_err(|e| format!("/metrics: {e}"))?;
    json::parse(r.text()).map_err(|e| format!("/metrics JSON: {e}"))
}

/// Boot, install the join query, and return the daemon ready for load.
fn boot_with_query(ctx: &Ctx, wrappers: &Path) -> Result<Daemon, String> {
    let mut d = Daemon::boot(ctx, wrappers)?;
    let r = d
        .ctl
        .call("POST", "/queries/pair", check::QUERY_JSON.as_bytes())
        .map_err(|e| format!("installing query: {e}"))?;
    if r.status != 201 {
        return Err(format!("installing query: {} {}", r.status, r.text()));
    }
    Ok(d)
}

/// Interpolated quantile of the requests an endpoint's latency histogram
/// gained between two `/metrics` snapshots.
fn histogram_delta_quantile(before: &Value, after: &Value, endpoint: &str, q: f64) -> f64 {
    let path = ["endpoints", endpoint, "latency", "buckets"];
    let buckets = |v: &Value| -> Vec<f64> {
        v.at(&path)
            .and_then(Value::arr)
            .map(|a| a.iter().filter_map(Value::num).collect())
            .unwrap_or_default()
    };
    let bounds: Vec<f64> = after
        .get("latency_bucket_bounds_us")
        .and_then(Value::arr)
        .map(|a| a.iter().filter_map(Value::num).collect())
        .unwrap_or_default();
    let (b0, b1) = (buckets(before), buckets(after));
    let delta: Vec<f64> = b1
        .iter()
        .enumerate()
        .map(|(i, c)| c - b0.get(i).copied().unwrap_or(0.0))
        .collect();
    let total: f64 = delta.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut seen = 0.0;
    for (i, c) in delta.iter().enumerate() {
        if *c > 0.0 && seen + c >= rank {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds.get(i).copied().unwrap_or(lo);
            return lo + (hi - lo) * (rank - seen) / c;
        }
        seen += c;
    }
    bounds.last().copied().unwrap_or(0.0)
}

fn counter_delta(before: &Value, after: &Value, path: &[&str]) -> f64 {
    let get = |v: &Value| v.at(path).and_then(Value::num).unwrap_or(0.0);
    get(after) - get(before)
}

/// The serve-layer figures of one load session. `inproc_us` is the
/// benchmark's own in-process tokenize-plus-extract cost per request.
fn serve_layers(l: &Load, inproc_us: f64, report: &mut Report) {
    let (b, a) = (&l.metrics_before, &l.metrics_after);
    let handler = histogram_delta_quantile(b, a, "extract", 0.5);
    let client = median(&l.latency_us);
    let reqs = l.measured as f64;
    let cpu_us = median(&l.cpu_us_per_req);
    report.metric("serve.handler_us_p50", handler, "us");
    report.metric("serve.wait_us_p50", client - handler, "us");
    report.metric(
        "serve.query_us_p50",
        histogram_delta_quantile(b, a, "query", 0.5),
        "us",
    );
    report.metric(
        "serve.batch_size_mean",
        counter_delta(b, a, &["batch_size", "sum"]) / counter_delta(b, a, &["batch_size", "count"]),
        "requests",
    );
    report.metric(
        "serve.epoll_wakeups_per_req",
        counter_delta(b, a, &["epoll_wakeups"]) / reqs,
        "count",
    );
    report.metric("serve.overhead_us_per_req", cpu_us - inproc_us, "us");
}

/// In-process cost of what the daemon does per `/extract` request that
/// is not HTTP or bookkeeping: tokenize the page and run the wrapper.
fn inproc_us_per_page(pool: &[GenPage], wrappers: &Path) -> Result<f64, String> {
    let load = |f: Family| {
        Wrapper::load(&wrappers.join(format!("{}.wrapper", f.wrapper())))
            .map_err(|e| format!("loading {}: {e}", f.wrapper()))
    };
    let (search, listing) = (load(Family::Search)?, load(Family::Listing)?);
    let mut scratch = WrapperScratch::new();
    let mut pass = || {
        let t = Instant::now();
        for p in pool {
            let w = if p.family == Family::Search {
                &search
            } else {
                &listing
            };
            let tokens = rextract_html::tokenize(&p.html);
            let _ = w.extract_target_with(&tokens, &mut scratch);
        }
        t.elapsed().as_secs_f64() * 1e6 / pool.len() as f64
    };
    // One warm-up pass, then the measured one.
    pass();
    Ok(pass())
}

/// Median of each metric over several reports with the same metrics.
fn median_metrics(reports: &[Report]) -> Report {
    let mut out = Report::default();
    if let Some(first) = reports.first() {
        for (k, (name, _, unit)) in first.metrics.iter().enumerate() {
            let vals: Vec<f64> = reports.iter().map(|r| r.metrics[k].1).collect();
            out.metric(name, median(&vals), unit);
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let wrappers = pipeline::wrappers_dir(ctx);
    let mut trainer = pipeline::CliTrainer::new(ctx, &wrappers)?;
    let pool = gen::catalog_pages(ctx.seed, POOL);
    let inproc = if ctx.trace {
        inproc_us_per_page(&pool, &wrappers)?
    } else {
        0.0
    };

    // The measured time is split into segments, each with its own boot
    // (a set-up sample), warm-up and retraining, so samples of every
    // metric are spread over the whole run.
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut latency_us = Vec::new();
    let mut lateness_us = Vec::new();
    let mut cpu_us = Vec::new();
    let mut layer_reports = Vec::new();
    for k in 0..SEGMENTS {
        if k > 0 {
            trainer.train_all()?;
        }
        let mut d = boot_with_query(ctx, &wrappers)?;
        setups.push(d.setup_s);
        let l = load(
            &mut d,
            &pool,
            WARMUP_S,
            ctx.seconds / SEGMENTS as f64,
            &mut report,
        );
        let peak = sys::peak_rss_mb(d.pid());
        let down = d.shutdown();
        let l = l?;
        rss.push(peak.map_err(|e| e.to_string())?);
        down?;
        rates.push(l.measured as f64 / l.window_s);
        if ctx.trace {
            let mut r = Report::default();
            serve_layers(&l, inproc, &mut r);
            layer_reports.push(r);
        }
        latency_us.extend(l.latency_us);
        lateness_us.extend(l.lateness_us);
        cpu_us.extend(l.cpu_us_per_req);
    }

    report.info("requests_measured", latency_us.len() as f64);
    report.info("offered_rate", RATE);
    report.info("latency_p99_us", quantile(&latency_us, 0.99));
    report.info("latency_max_us", quantile(&latency_us, 1.0));
    report.info("generator_late_p50_us", median(&lateness_us));
    report.info("generator_late_p99_us", quantile(&lateness_us, 0.99));
    report.info("generator_late_max_us", quantile(&lateness_us, 1.0));

    if ctx.trace {
        report.absorb(median_metrics(&layer_reports));
        let corpus = ctx.work.join("corpus");
        let sources = pipeline::write_corpus(&corpus, &pool)?;
        report.absorb(layers::page_path(ctx, &pool, &corpus, &sources, &wrappers)?);
        report.absorb(layers::synthesis(ctx, &layers::probe_sets(ctx.seed))?);
        return Ok(report);
    }
    report.metric("pages_per_s", median(&rates), "pages/s");
    report.metric("wrappers_per_s", trainer.wrappers_per_s(), "wrappers/s");
    report.metric("latency_p50_us", median(&latency_us), "us");
    report.metric("cpu_us_per_req", median(&cpu_us), "us");
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.metric("setup_s", median(&setups), "s");
    Ok(report)
}

/// The serve-layer figures for a traced run of another workload: a short
/// session of the same traffic against `wrappers`.
pub fn probe(ctx: &Ctx, wrappers: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let pool = gen::catalog_pages(ctx.seed, POOL);
    let mut d = boot_with_query(ctx, wrappers)?;
    let l = load(&mut d, &pool, 0.3, PROBE_S, &mut report);
    let down = d.shutdown();
    let l = l?;
    down?;
    let inproc = inproc_us_per_page(&pool, wrappers)?;
    serve_layers(&l, inproc, &mut report);
    Ok(report)
}
