//! Proof of the corpus worker's allocation discipline: once a worker's
//! [`WorkerScratch`] is warm and the corpus's site signatures are bound,
//! the per-page core (`Router::route_page`: lex the page into the
//! scratch's `PageTokens`, route, extract) performs **zero** heap
//! allocations per page.
//!
//! Same counting-`#[global_allocator]` idiom as
//! `crates/extraction/tests/zero_alloc.rs`: allocations are tallied only
//! on the test's own thread while a const-initialized thread-local gate
//! is up, so the libtest harness's other threads stay invisible.
//!
//! Lexing is inside the gate: the lexer writes into buffers that a
//! warmed scratch already holds, so only reading the page (an input
//! cost) and formatting its output line stay outside.

use rextract_corpus::{RouteOutcome, Router, WorkerScratch};
use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
use rextract_wrapper::{TrainPage, Wrapper, WrapperConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_route_and_extract_does_not_allocate() {
    let mut g = SiteGenerator::new(SiteConfig {
        seed: 67,
        ..SiteConfig::default()
    });
    let search: Vec<TrainPage> = [
        PageStyle::Plain,
        PageStyle::TableEmbedded,
        PageStyle::Busy,
        PageStyle::Busy,
    ]
    .iter()
    .map(|&s| TrainPage::from(&g.page_with_style(s)))
    .collect();
    let listing: Vec<TrainPage> = (0..6).map(|_| TrainPage::from(&g.listing_page())).collect();
    let trained =
        |pages: &[TrainPage]| Arc::new(Wrapper::train(pages, WrapperConfig::default()).unwrap());
    let router = Router::new(
        vec![
            ("search".to_string(), trained(&search)),
            ("listing".to_string(), trained(&listing)),
        ],
        None,
    )
    .unwrap();

    // A fixed interleaved corpus of page texts. Keep only pages that
    // route successfully: the Failed outcome formats a reason string
    // (allocates) and is exempt by design, like the ambiguous-error
    // path in the extraction engine's own zero-alloc test.
    let mut scratch = WorkerScratch::new(router.wrappers().len());
    let pages: Vec<String> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                g.page().html()
            } else {
                g.listing_page().html()
            }
        })
        .filter(|html| {
            matches!(
                router.route_page(html, &mut scratch),
                RouteOutcome::Extracted { .. }
            )
        })
        .collect();
    assert!(
        pages.len() >= 12,
        "too few routable pages ({}) to exercise the steady state",
        pages.len()
    );

    // Warm-up: every signature bound, every scratch buffer at max size.
    for html in &pages {
        let _ = router.route_page(html, &mut scratch);
    }
    let bindings_before = router.binding_count();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    for _ in 0..50 {
        for html in &pages {
            match router.route_page(html, &mut scratch) {
                RouteOutcome::Extracted { .. } => {}
                other => {
                    COUNTING.with(|c| c.set(false));
                    panic!("warmed page stopped routing: {other:?}");
                }
            }
        }
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs,
        0,
        "steady-state lex+route+extract performed {allocs} heap allocations over {} pages",
        pages.len() * 50
    );
    assert_eq!(
        router.binding_count(),
        bindings_before,
        "steady state must not discover new signatures"
    );
}
