//! Input generation. Everything here is a pure function of the seed it is
//! given, so the same `--seed` gives the same pages, sample sets and
//! request schedule.
//!
//! Pages come from the repository's own catalog-site generator
//! ([`SiteGenerator`]) and perturbation engine ([`Perturber`]); the
//! benchmark keeps, next to each rendered page, what the generator knows
//! about it — the target token index, the first `<form>` token index and
//! the byte extent of the target in the rendered HTML — so every output of
//! the program can be checked against the generator rather than against a
//! saved copy of an earlier run.

use rextract_html::token::Token;
use rextract_html::writer;
use rextract_learn::perturb::Perturber;
use rextract_wrapper::{SiteConfig, SiteGenerator, TrainPage};

/// Seed of the two catalog wrappers the pipelines and the daemon load.
/// Fixed, so that every `--seed` runs against the same trained artifacts
/// and only the pages vary.
pub const WRAPPER_SEED: u64 = 0x5eed_0001;

/// Pages in each workload wrapper's training set: enough for the two
/// wrappers to route and extract every generated catalog page.
pub const WRAPPER_PAGES: usize = 12;

/// Base seed of the fixed perturbed sample sets in `wrapper-train` (see
/// [`fixed_perturbed_sets`]).
pub const FIXED_SET_SEED: u64 = 0x5eed_1000;

/// The two page families of the catalog site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A search-form page (target: the form's second `<input>`).
    Search,
    /// A product-listing page (target: the first row's price `<td>`).
    Listing,
}

impl Family {
    /// Wrapper name serving this family.
    pub fn wrapper(self) -> &'static str {
        match self {
            Family::Search => "search",
            Family::Listing => "listing",
        }
    }
}

/// A rendered page plus the generator's ground truth about it.
#[derive(Debug, Clone)]
pub struct GenPage {
    pub family: Family,
    pub html: String,
    /// Token index of the extraction target.
    pub target: usize,
    /// Token index of the first `<form>` start tag (search pages only).
    pub form: Option<usize>,
    /// Byte extent `[start, end)` of the target token in `html`.
    pub target_bytes: (usize, usize),
    /// Number of tokens the generator emitted.
    pub tokens: usize,
}

impl GenPage {
    pub fn from_tokens(family: Family, tokens: &[Token], target: usize) -> GenPage {
        let html = writer::write(tokens);
        let start = writer::write(&tokens[..target]).len();
        let end = start + writer::write(&tokens[target..=target]).len();
        let form = tokens.iter().position(
            |t| matches!(t, Token::StartTag { name, .. } if name.eq_ignore_ascii_case("form")),
        );
        GenPage {
            family,
            html,
            target,
            form: if family == Family::Search { form } else { None },
            target_bytes: (start, end),
            tokens: tokens.len(),
        }
    }
}

/// splitmix64: the benchmark's own choices (family mix, page sizes,
/// request order), kept apart from the program's generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

fn site(seed: u64) -> SiteGenerator {
    SiteGenerator::new(SiteConfig {
        seed,
        ..SiteConfig::default()
    })
}

/// `n` small catalog pages (≈38 tokens, ≈350 B), search-form and listing
/// families in equal expected shares.
pub fn catalog_pages(seed: u64, n: usize) -> Vec<GenPage> {
    let mut g = site(seed.wrapping_mul(2).wrapping_add(1));
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                let p = g.page();
                GenPage::from_tokens(Family::Search, &p.tokens, p.target)
            } else {
                let p = g.listing_page();
                GenPage::from_tokens(Family::Listing, &p.tokens, p.target)
            }
        })
        .collect()
}

/// `n` listing pages whose result tables are grown to between `min_tokens`
/// and `max_tokens` tokens: extra product rows are inserted after the
/// first (target) row, so the tandem-repeat collapse of the routing
/// signature maps each page onto a small-listing template and the target
/// index is unchanged.
pub fn large_listing_pages(
    seed: u64,
    n: usize,
    min_tokens: usize,
    max_tokens: usize,
) -> Vec<GenPage> {
    let mut g = site(seed.wrapping_mul(2).wrapping_add(1));
    let mut rng = Rng::new(seed ^ 0x1a59e);
    // Stratified sizes, shuffled: one page per 1/n-th of the range, so the
    // corpus's total size hardly depends on the seed.
    let span = (max_tokens - min_tokens) as u64;
    let mut sizes: Vec<usize> = (0..n as u64)
        .map(|k| min_tokens + ((k * span + rng.below(span)) / n as u64) as usize)
        .collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    sizes
        .into_iter()
        .map(|want| {
            let p = g.listing_page();
            // The first product row is `<tr><td>name</td>` + target
            // `<td>price</td></tr>`: it ends 4 tokens past the target.
            let row_end = p.target + 4;
            let extra = want.saturating_sub(p.tokens.len()) / 9;
            let mut tokens = Vec::with_capacity(p.tokens.len() + extra * 9);
            tokens.extend_from_slice(&p.tokens[..row_end]);
            for _ in 0..extra {
                tokens.extend([
                    Token::start("tr"),
                    Token::start("td"),
                    Token::Text(format!("Widget #{:05}", rng.below(100_000))),
                    Token::end("td"),
                    Token::start("td"),
                    Token::Text(format!("${}.{:02}", 1 + rng.below(900), rng.below(100))),
                    Token::end("td"),
                    Token::end("tr"),
                ]);
            }
            tokens.extend_from_slice(&p.tokens[row_end..]);
            GenPage::from_tokens(Family::Listing, &tokens, p.target)
        })
        .collect()
}

/// A training sample set: pages of one family, each with its target.
#[derive(Debug, Clone)]
pub struct SampleSet {
    pub family: Family,
    pub pages: Vec<TrainPage>,
}

fn family_page(g: &mut SiteGenerator, family: Family) -> TrainPage {
    let p = match family {
        Family::Search => g.page(),
        Family::Listing => g.listing_page(),
    };
    TrainPage::from(&p)
}

/// Listing sets hold 6 pages, search-form sets 4.
pub fn set_size(family: Family) -> usize {
    match family {
        Family::Search => 4,
        Family::Listing => 6,
    }
}

/// The training set of the workload wrapper for `family` (used by the
/// pipelines and the daemon): generator pages only, fixed seed.
pub fn wrapper_training_set(family: Family) -> SampleSet {
    let mut g = site(WRAPPER_SEED + family as u64);
    SampleSet {
        family,
        pages: (0..WRAPPER_PAGES)
            .map(|_| family_page(&mut g, family))
            .collect(),
    }
}

/// `n` unperturbed sample sets per family drawn from `seed`. Template
/// variation alone (styles, optional rows and headers) gives the merge
/// heuristic real generalization work.
pub fn seeded_sets(seed: u64, n: usize) -> Vec<SampleSet> {
    let mut g = site(seed.wrapping_mul(2).wrapping_add(1));
    let mut out = Vec::with_capacity(2 * n);
    for i in 0..2 * n {
        let family = if i % 2 == 0 {
            Family::Search
        } else {
            Family::Listing
        };
        out.push(SampleSet {
            family,
            pages: (0..set_size(family))
                .map(|_| family_page(&mut g, family))
                .collect(),
        });
    }
    out
}

/// `n` sample sets per family whose pages each carry `edits` random
/// structural edits from [`Perturber`] (Section 3's change taxonomy).
/// They do not depend on `--seed`: some of them reach rung 2 of the
/// disambiguation ladder, whose wrappers mislabel their own training
/// pages, and a fixed set keeps that failure at the same share of every
/// run.
pub fn fixed_perturbed_sets(n: usize, edits: usize) -> Vec<SampleSet> {
    let mut out = Vec::with_capacity(2 * n);
    for i in 0..2 * n {
        let family = if i % 2 == 0 {
            Family::Search
        } else {
            Family::Listing
        };
        let mut g = site(FIXED_SET_SEED + i as u64);
        let mut perturber = Perturber::new(FIXED_SET_SEED ^ (i as u64 + 1));
        out.push(SampleSet {
            family,
            pages: (0..set_size(family))
                .map(|_| {
                    let p = family_page(&mut g, family);
                    let q = perturber.perturb(&p.tokens, p.target, edits);
                    TrainPage {
                        tokens: q.tokens,
                        target: q.target,
                    }
                })
                .collect(),
        });
    }
    out
}
