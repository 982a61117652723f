//! Online wrapper repair: evidence retention and supervisor-owned
//! retraining.
//!
//! The drift detector ([`crate::metrics`]) flags a wrapper `Degraded`
//! when its sliding-window failure or empty-result rate crosses the
//! configured threshold. This module is what the daemon *does* about it
//! (after Ferrara & Baumgartner's adaptable-wrapper loop):
//!
//! 1. **Evidence.** While a wrapper serves, the [`RepairHub`] retains a
//!    bounded ring of recent *successful* pages (each one a
//!    self-labeled training sample: the served extraction result is the
//!    label) and recent *failing* pages (the drift witnesses). It keeps
//!    the page text, not tokens: recording is on the serving hot path,
//!    repairs are rare, so pages are tokenized only when a repair
//!    takes its [`RepairHub::snapshot`].
//! 2. **Relabel.** Artifacts carry no training samples, so the repair
//!    recovers labels for the failing pages by sequence alignment: the
//!    LCS between a failing page's tag sequence and a known-good page's
//!    embeds the good page's target position into the failing page
//!    ([`lcs`] + [`leftmost_embedding`] — the same left-to-right
//!    machinery the merging heuristic is built from).
//! 3. **Retrain + validate.** [`Wrapper::train`] re-runs the merging
//!    heuristic and left-filtering maximization over good + relabeled
//!    pages; the candidate must still extract every good page to its
//!    known target *and* succeed on held-back failing pages it never
//!    trained on, or the repair is rejected.
//! 4. **Install.** The healed artifact goes through
//!    [`Registry::install`]'s crash-safe path (checksummed v2 artifact,
//!    tmp→fsync→rename, atomic `Arc` swap) and bumps the wrapper's
//!    install revision, so pipeline provenance records the heal.
//!
//! The repair runs on a supervisor-owned thread: a panic mid-repair
//! (e.g. the `serve.repair.train` failpoint) leaves the old wrapper
//! serving untouched, and the attempt is retried with exponential
//! backoff until [`MAX_REPAIR_ATTEMPTS`], after which the wrapper is
//! `Quarantined` (still serving best-effort; a manual install resets it).

use rextract_faults::fail_point;
use rextract_html::seq::{to_names, SeqConfig};
use rextract_html::token::Token;
use rextract_html::tokenize;
use rextract_learn::align::{lcs, leftmost_embedding};
use rextract_wrapper::wrapper::{TrainPage, Wrapper, WrapperConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::registry::Registry;

/// Successful pages retained per wrapper as self-labeled samples.
const GOOD_CAP: usize = 8;
/// Failing pages retained per wrapper as repair evidence.
const FAILING_CAP: usize = 16;
/// Repair attempts before a wrapper is quarantined.
pub const MAX_REPAIR_ATTEMPTS: u32 = 5;
/// A relabeling is only trusted when the common subsequence covers at
/// least this fraction of the good page's tag sequence — below it the
/// pages are too dissimilar for the alignment to carry the label over.
const MIN_LCS_RATIO: f64 = 0.5;

/// Per-wrapper repair evidence and attempt bookkeeping.
#[derive(Default)]
struct Evidence {
    /// Recent successful extractions: `(page text, target token index)`.
    /// Self-labeled — what the wrapper served is the label.
    good: VecDeque<(String, usize)>,
    /// Recent failing pages (no-match or hard failure).
    failing: VecDeque<String>,
    /// Repair attempts so far (reset by a successful repair or a manual
    /// install).
    attempts: u32,
    /// Earliest time the next attempt may start (exponential backoff).
    not_before: Option<Instant>,
}

/// Shared evidence store + repair scheduling state, owned by the daemon
/// and fed by the `/extract` hot path.
pub struct RepairHub {
    state: Mutex<HashMap<String, Evidence>>,
    /// Base backoff after a failed attempt; doubles per attempt.
    backoff_base: Duration,
}

impl RepairHub {
    pub fn new(backoff_base: Duration) -> RepairHub {
        RepairHub {
            state: Mutex::new(HashMap::new()),
            backoff_base,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Evidence>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Retain a successful extraction as a self-labeled training sample:
    /// `target` is a token index into [`tokenize`] of `page`.
    pub fn record_success(&self, name: &str, page: &str, target: usize) {
        let mut map = self.lock();
        let ev = map.entry(name.to_string()).or_default();
        if ev.good.len() == GOOD_CAP {
            ev.good.pop_front();
        }
        ev.good.push_back((page.to_string(), target));
    }

    /// Retain a failing page as repair evidence.
    pub fn record_failure(&self, name: &str, page: &str) {
        let mut map = self.lock();
        let ev = map.entry(name.to_string()).or_default();
        if ev.failing.len() == FAILING_CAP {
            ev.failing.pop_front();
        }
        ev.failing.push_back(page.to_string());
    }

    /// Whether a repair attempt may start now: attempts not exhausted,
    /// backoff elapsed, and enough evidence (≥ 1 good page to carry
    /// labels, ≥ 2 failing pages so one can be held back for
    /// validation).
    pub fn ready(&self, name: &str) -> bool {
        let map = self.lock();
        let Some(ev) = map.get(name) else {
            return false;
        };
        ev.attempts < MAX_REPAIR_ATTEMPTS
            && ev.not_before.is_none_or(|t| Instant::now() >= t)
            && !ev.good.is_empty()
            && ev.failing.len() >= 2
    }

    /// Record the start of an attempt: bumps the counter and arms the
    /// exponential backoff for the *next* one (cleared on success).
    pub fn note_attempt(&self, name: &str) {
        let mut map = self.lock();
        let ev = map.entry(name.to_string()).or_default();
        ev.attempts += 1;
        let backoff = self.backoff_base * 2u32.saturating_pow(ev.attempts.saturating_sub(1));
        ev.not_before = Some(Instant::now() + backoff);
    }

    /// Attempts exhausted → the supervisor quarantines the wrapper.
    pub fn exhausted(&self, name: &str) -> bool {
        self.lock()
            .get(name)
            .is_some_and(|ev| ev.attempts >= MAX_REPAIR_ATTEMPTS)
    }

    pub fn attempts(&self, name: &str) -> u32 {
        self.lock().get(name).map(|ev| ev.attempts).unwrap_or(0)
    }

    /// Drop all evidence and attempt state for `name` — the wrapper was
    /// replaced (successful repair or manual install), so the evidence
    /// no longer describes the serving artifact.
    pub fn reset(&self, name: &str) {
        self.lock().remove(name);
    }

    /// Snapshot the evidence for a repair attempt, tokenized (the repair
    /// thread must not hold the hub lock while training, so the pages
    /// are copied out before tokenizing).
    #[allow(clippy::type_complexity)]
    pub fn snapshot(&self, name: &str) -> Option<(Vec<(Vec<Token>, usize)>, Vec<Vec<Token>>)> {
        let (good, failing): (Vec<(String, usize)>, Vec<String>) = {
            let map = self.lock();
            let ev = map.get(name)?;
            (
                ev.good.iter().cloned().collect(),
                ev.failing.iter().cloned().collect(),
            )
        };
        Some((
            good.iter().map(|(page, t)| (tokenize(page), *t)).collect(),
            failing.iter().map(|page| tokenize(page)).collect(),
        ))
    }
}

/// Carry a known label from a good page onto a failing page by sequence
/// alignment: embed the LCS of the two tag sequences into both pages
/// leftmost; the LCS element sitting on the good page's target position
/// lands on the failing page's corresponding token. Returns the best
/// relabeling across all good pages (longest LCS wins), or `None` when
/// no good page aligns well enough ([`MIN_LCS_RATIO`]) or the target is
/// not on the common subsequence.
fn relabel(good: &[(Vec<Token>, usize)], cfg: &SeqConfig, failing: &[Token]) -> Option<TrainPage> {
    let entries_f = to_names(failing, cfg);
    let names_f: Vec<String> = entries_f.iter().map(|e| e.name.clone()).collect();
    let mut best: Option<(usize, usize)> = None; // (lcs len, failing target token)
    for (tokens_g, target_g) in good {
        let entries_g = to_names(tokens_g, cfg);
        let Some(pos_g) = entries_g.iter().position(|e| e.token_index == *target_g) else {
            continue;
        };
        let names_g: Vec<String> = entries_g.iter().map(|e| e.name.clone()).collect();
        let common = lcs(&names_g, &names_f);
        if (common.len() as f64) < MIN_LCS_RATIO * names_g.len() as f64 {
            continue;
        }
        let (Some(emb_g), Some(emb_f)) = (
            leftmost_embedding(&common, &names_g),
            leftmost_embedding(&common, &names_f),
        ) else {
            continue;
        };
        // The target must itself lie on the common subsequence, or the
        // alignment says nothing about where it went.
        let Some(k) = emb_g.iter().position(|&i| i == pos_g) else {
            continue;
        };
        let target_f = entries_f[emb_f[k]].token_index;
        if best.is_none_or(|(len, _)| common.len() > len) {
            best = Some((common.len(), target_f));
        }
    }
    best.map(|(_, target)| TrainPage {
        tokens: failing.to_vec(),
        target,
    })
}

/// One repair attempt: relabel → retrain → validate → hot-install.
/// Returns `true` only when a healed wrapper was installed. Runs on a
/// supervisor-owned thread; a panic anywhere in here (including the
/// armed `serve.repair.train` / `serve.repair.install` failpoints)
/// surfaces as a failed attempt while the old wrapper keeps serving —
/// the `Arc` swap in [`Registry::install`] is the last step, so there
/// is no partially-repaired state to observe.
pub fn run_repair(
    name: &str,
    wrapper: &Arc<Wrapper>,
    hub: &RepairHub,
    registry: &Registry,
) -> bool {
    // Covers the training stage: `panic` simulates a crash mid-repair,
    // `return` a training failure.
    fail_point!("serve.repair.train", |_action| false);
    let Some((good, failing)) = hub.snapshot(name) else {
        return false;
    };
    if good.is_empty() || failing.len() < 2 {
        return false;
    }
    // Hold back every other failing page: the candidate must generalize
    // to failing pages it never saw, not just memorize the evidence.
    let mut train_evidence = Vec::new();
    let mut holdout = Vec::new();
    for (i, page) in failing.iter().enumerate() {
        if i % 2 == 0 {
            train_evidence.push(page);
        } else {
            holdout.push(page);
        }
    }
    let cfg = wrapper.seq_config().clone();
    let mut samples: Vec<TrainPage> = good
        .iter()
        .map(|(tokens, target)| TrainPage {
            tokens: tokens.clone(),
            target: *target,
        })
        .collect();
    let mut relabeled = 0usize;
    for page in &train_evidence {
        if let Some(sample) = relabel(&good, &cfg, page) {
            samples.push(sample);
            relabeled += 1;
        }
    }
    if relabeled == 0 {
        // No failing page aligned: retraining would reproduce the old
        // wrapper, so don't burn the attempt on a no-op install.
        return false;
    }
    let Ok(candidate) = Wrapper::train(
        &samples,
        WrapperConfig {
            seq: cfg,
            ..WrapperConfig::default()
        },
    ) else {
        return false;
    };
    // Validation gate 1: every self-labeled good page must still extract
    // to its known target (the repair must not regress working layouts).
    for (tokens, target) in &good {
        if candidate.extract_target(tokens) != Ok(*target) {
            return false;
        }
    }
    // Validation gate 2: the held-back failing pages — which the
    // candidate never trained on — must now extract.
    for page in &holdout {
        if candidate.extract_target(page).is_err() {
            return false;
        }
    }
    // Covers the install stage: `panic` simulates a crash between
    // validation and the atomic swap, `return` an install refusal.
    fail_point!("serve.repair.install", |_action| false);
    match registry.install(name, &candidate.export()) {
        Ok(installed) => {
            eprintln!(
                "rextract-serve: repaired wrapper {name:?} (revision {}, trained on {} good + {} relabeled pages, {} holdout validated)",
                installed.revision(),
                good.len(),
                relabeled,
                holdout.len(),
            );
            true
        }
        Err(e) => {
            eprintln!("rextract-serve: repair install of {name:?} failed: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};

    fn site(seed: u64) -> SiteGenerator {
        SiteGenerator::new(SiteConfig {
            seed,
            ..SiteConfig::default()
        })
    }

    #[test]
    fn hub_rings_are_bounded_and_resettable() {
        let hub = RepairHub::new(Duration::from_millis(1));
        for i in 0..GOOD_CAP + 5 {
            hub.record_success("w", &format!("<p>{i}</p>"), 0);
        }
        for _ in 0..FAILING_CAP + 5 {
            hub.record_failure("w", "<p>x</p>");
        }
        let (good, failing) = hub.snapshot("w").unwrap();
        assert_eq!(good.len(), GOOD_CAP);
        assert_eq!(failing.len(), FAILING_CAP);
        // The ring keeps the newest pages, tokenized on snapshot.
        assert_eq!(good[0].0, tokenize("<p>5</p>"));
        hub.reset("w");
        assert!(hub.snapshot("w").is_none());
        assert!(!hub.ready("w"));
    }

    #[test]
    fn ready_needs_evidence_attempts_and_backoff() {
        let hub = RepairHub::new(Duration::from_millis(20));
        let page = "<p>x</p>";
        assert!(!hub.ready("w"), "no evidence yet");
        hub.record_success("w", page, 0);
        hub.record_failure("w", page);
        assert!(!hub.ready("w"), "one failing page is not enough");
        hub.record_failure("w", page);
        assert!(hub.ready("w"));
        hub.note_attempt("w");
        assert!(!hub.ready("w"), "backoff armed");
        std::thread::sleep(Duration::from_millis(30));
        assert!(hub.ready("w"), "backoff elapsed");
        for _ in 1..MAX_REPAIR_ATTEMPTS {
            hub.note_attempt("w");
        }
        assert!(hub.exhausted("w"));
        std::thread::sleep(Duration::from_millis(1));
        assert!(!hub.ready("w"), "attempts exhausted");
    }

    #[test]
    fn relabel_carries_target_across_an_inserted_wrapper_tag() {
        let cfg = SeqConfig::tags_only();
        let good_tokens = tokenize("<html><table><tr><td><b>$9</b></td></tr></table></html>");
        // The target is the <b> start tag.
        let target = good_tokens
            .iter()
            .position(|t| t.tag_name() == Some("B"))
            .unwrap();
        // The drifted layout wraps the table in a new DIV — every
        // original tag survives, so the LCS covers the whole good page.
        let drifted =
            tokenize("<html><div><table><tr><td><b>$12</b></td></tr></table></div></html>");
        let sample = relabel(&[(good_tokens, target)], &cfg, &drifted).unwrap();
        assert_eq!(drifted[sample.target].tag_name(), Some("B"));
    }

    #[test]
    fn relabel_rejects_unrelated_pages() {
        let cfg = SeqConfig::tags_only();
        let good_tokens = tokenize("<table><tr><td><b>$9</b></td></tr></table>");
        let target = good_tokens
            .iter()
            .position(|t| t.tag_name() == Some("B"))
            .unwrap();
        let unrelated = tokenize("<ul><li>a</li><li>b</li></ul>");
        assert!(relabel(&[(good_tokens, target)], &cfg, &unrelated).is_none());
    }

    #[test]
    fn run_repair_heals_a_drifted_catalog() {
        use rextract_learn::perturb::Perturber;

        let mut g = site(41);
        let train = vec![
            TrainPage::from(&g.page_with_style(PageStyle::Plain)),
            TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        ];
        let old = Wrapper::train(&train, WrapperConfig::default()).unwrap();

        let registry = Registry::new(None);
        let hub = RepairHub::new(Duration::from_millis(1));
        let installed = registry.install("cat", &old.export()).unwrap();

        // Serve some good pages (self-labeling), then heavily perturbed
        // ones until a few fail — those are the drift evidence.
        // Good traffic covers both layouts the wrapper was trained on,
        // so the retrained candidate keeps covering them too.
        let mut scratch = rextract_wrapper::WrapperScratch::default();
        for i in 0..4 {
            let style = if i % 2 == 0 {
                PageStyle::Plain
            } else {
                PageStyle::TableEmbedded
            };
            let p = g.page_with_style(style);
            let got = installed
                .extract_target_with(&p.tokens, &mut scratch)
                .unwrap();
            hub.record_success("cat", &p.html(), got);
        }
        let mut perturber = Perturber::new(7);
        let mut drifted = 0;
        let mut tries = 0;
        while drifted < 4 && tries < 200 {
            tries += 1;
            let p = g.page_with_style(PageStyle::Plain);
            let edited = perturber.perturb(&p.tokens, p.target, 6);
            // The hub keeps page text: render the edit, and judge the
            // page the repair will later tokenize.
            let html = rextract_html::writer::write(&edited.tokens);
            if installed
                .extract_target_with(&tokenize(&html), &mut scratch)
                .is_err()
            {
                hub.record_failure("cat", &html);
                drifted += 1;
            }
        }
        assert!(drifted >= 2, "could not produce failing evidence");
        assert!(hub.ready("cat"));
        assert!(run_repair("cat", &installed, &hub, &registry));
        let healed = registry.get("cat").unwrap();
        assert_eq!(healed.revision(), 2, "repair bumps the install revision");
        // The healed wrapper still serves the original layouts.
        for p in &train {
            assert_eq!(healed.extract_target(&p.tokens), Ok(p.target));
        }
    }
}
