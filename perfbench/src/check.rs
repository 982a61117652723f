//! Output checks. Each compares what the program produced with what the
//! input generator knows (target and form token indices, the byte extent
//! of the target in the rendered page) or with the brute-force
//! definitional oracle — never with a saved copy of an earlier output.

use crate::gen::{Family, GenPage};
use crate::json::{self, Value};
use rextract_extraction::oracle::brute_split_positions;
use rextract_html::token::Token;
use rextract_wrapper::{Wrapper, WrapperScratch};

/// The five-term accounting line `rextract pipeline` prints on stderr.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Summary {
    pub pages: u64,
    pub ok: u64,
    pub failed: u64,
    pub empty: u64,
    pub unrouted: u64,
    pub read_errors: u64,
    pub tuples: u64,
}

/// Parse `rextract pipeline: pages N ok N failed N empty N unrouted N
/// read-errors N tuples N …` out of the stderr text.
pub fn parse_summary(stderr: &str) -> Result<Summary, String> {
    let line = stderr
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("rextract pipeline: "))
        .ok_or_else(|| format!("no summary line in stderr {stderr:?}"))?;
    let words: Vec<&str> = line.split_whitespace().collect();
    let field = |key: &str| -> Result<u64, String> {
        words
            .iter()
            .position(|w| *w == key)
            .and_then(|i| words.get(i + 1))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("summary {line:?} lacks {key}"))
    };
    Ok(Summary {
        pages: field("pages")?,
        ok: field("ok")?,
        failed: field("failed")?,
        empty: field("empty")?,
        unrouted: field("unrouted")?,
        read_errors: field("read-errors")?,
        tuples: field("tuples")?,
    })
}

/// A run over `expected` pages must account for every page in the five
/// outcome counters, and, on these inputs, extract every one.
pub fn check_summary(s: &Summary, expected: u64) -> Result<(), String> {
    let accounted = s.ok + s.failed + s.empty + s.unrouted + s.read_errors;
    if s.pages != expected || accounted != s.pages {
        return Err(format!(
            "accounting: pages {} (want {expected}) but outcomes sum to {accounted}",
            s.pages
        ));
    }
    if s.ok != expected || s.tuples != expected {
        return Err(format!(
            "{} of {expected} pages extracted ({} tuples)",
            s.ok, s.tuples
        ));
    }
    Ok(())
}

/// One NDJSON tuple line of page `page`, stored as `source`.
pub fn check_tuple_line(line: &str, source: &str, page: &GenPage) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("{source}: bad JSON ({e}): {line}"))?;
    let (s, e) = page.target_bytes;
    let offsets = v
        .get("byte_offsets")
        .and_then(Value::arr)
        .and_then(|a| match a {
            [Value::Arr(pair)] => Some((pair.first()?.u64()?, pair.get(1)?.u64()?)),
            _ => None,
        });
    let field = v.get("fields").and_then(Value::arr).and_then(|a| match a {
        [Value::Str(f)] => Some(f.as_str()),
        _ => None,
    });
    if v.get("source").and_then(Value::str) != Some(source)
        || v.get("wrapper").and_then(Value::str) != Some(page.family.wrapper())
        || offsets != Some((s as u64, e as u64))
        || field != Some(&page.html[s..e])
        || v.get("wrapper_version").and_then(Value::u64).is_none()
        || v.get("wrapper_revision").and_then(Value::u64).is_none()
    {
        return Err(format!(
            "{source}: want wrapper {} bytes [{s},{e}] field {:?}, got {line}",
            page.family.wrapper(),
            &page.html[s..e]
        ));
    }
    Ok(())
}

/// A `POST /extract` answer for `page`.
pub fn check_extract(body: &str, page: &GenPage) -> Result<(), String> {
    let v = json::parse(body).map_err(|e| format!("bad JSON ({e}): {body}"))?;
    if v.get("position").and_then(Value::u64) != Some(page.target as u64)
        || v.get("wrapper").and_then(Value::str) != Some(page.family.wrapper())
        || v.get("tokens").and_then(Value::u64) != Some(page.tokens as u64)
    {
        return Err(format!(
            "/extract: want position {} of {} tokens, got {body}",
            page.target, page.tokens
        ));
    }
    Ok(())
}

/// The span join query every search page is asked: the first `<form>`
/// joined with the search wrapper's field, form before field.
pub const QUERY_JSON: &str = r#"{"sources":[{"var":"field","wrapper":"search"},{"var":"form","alphabet":"FORM /FORM","expr":"[^FORM]* <FORM> .*"}],"plan":{"op":"join","left":{"op":"leaf","var":"form"},"right":{"op":"leaf","var":"field"},"preds":[{"pred":"before","left":"form","right":"field"}]}}"#;

/// A `POST /query` answer for search page `page`: exactly one row, the
/// generator's form and target tokens, the field at the target's bytes.
pub fn check_query(body: &str, page: &GenPage) -> Result<(), String> {
    let v = json::parse(body).map_err(|e| format!("bad JSON ({e}): {body}"))?;
    let rows = v.get("records").and_then(Value::arr).unwrap_or(&[]);
    let (s, e) = page.target_bytes;
    let ok = match rows {
        [row] => {
            row.at(&["form", "token"]).and_then(Value::u64) == page.form.map(|f| f as u64)
                && row.at(&["field", "token"]).and_then(Value::u64) == Some(page.target as u64)
                && row.at(&["field", "start"]).and_then(Value::u64) == Some(s as u64)
                && row.at(&["field", "end"]).and_then(Value::u64) == Some(e as u64)
        }
        _ => false,
    };
    if !ok || page.family != Family::Search {
        return Err(format!(
            "/query: want one row form={:?} field={} bytes [{s},{e}], got {body}",
            page.form, page.target
        ));
    }
    Ok(())
}

/// A trained wrapper on one page it must handle: it extracts the
/// generator's target, and the brute-force oracle (every position whose
/// prefix and suffix the expression's two languages accept) agrees that
/// this is the page's only split.
pub fn check_wrapper_page(
    w: &Wrapper,
    tokens: &[Token],
    target: usize,
    scratch: &mut WrapperScratch,
) -> Result<(), String> {
    let got = w
        .extract_target_with(tokens, scratch)
        .map_err(|e| format!("extract: {e}"))?;
    if got != target {
        return Err(format!("extracted token {got}, generator target {target}"));
    }
    let splits: Vec<usize> = brute_split_positions(w.expr(), scratch.word())
        .into_iter()
        .map(|i| scratch.back()[i])
        .collect();
    if splits != [target] {
        return Err(format!(
            "oracle splits {splits:?}, generator target {target}"
        ));
    }
    Ok(())
}

/// Feed each check a correct output and a corrupted one; returns the
/// checks that failed to tell them apart.
pub fn self_test() -> Vec<String> {
    use rextract_wrapper::{TrainPage, WrapperConfig};
    let mut failures = Vec::new();
    let mut expect = |name: &str, good: Result<(), String>, bad: Result<(), String>| {
        if let Err(e) = good {
            failures.push(format!("{name}: correct output rejected: {e}"));
        }
        if bad.is_ok() {
            failures.push(format!("{name}: corrupted output accepted"));
        }
    };
    let page = &crate::gen::catalog_pages(7, 8)
        .into_iter()
        .find(|p| p.family == Family::Search)
        .expect("a search page among eight");
    let (s, e) = page.target_bytes;
    let tuple = |off: usize| {
        format!(
            "{{\"source\":\"c/p.html\",\"wrapper\":\"search\",\"wrapper_version\":2,\
             \"wrapper_revision\":1,\"byte_offsets\":[[{},{}]],\"fields\":[{}]}}",
            s + off,
            e + off,
            json::quote(&page.html[s..e])
        )
    };
    expect(
        "tuple line",
        check_tuple_line(&tuple(0), "c/p.html", page),
        check_tuple_line(&tuple(1), "c/p.html", page),
    );
    let extract = |pos: usize| {
        format!(
            "{{\"wrapper\":\"search\",\"position\":{pos},\"tokens\":{}}}",
            page.tokens
        )
    };
    expect(
        "/extract",
        check_extract(&extract(page.target), page),
        check_extract(&extract(page.target + 1), page),
    );
    let query = |form: usize| {
        format!(
            "{{\"records\":[{{\"form\":{{\"token\":{form}}},\"field\":{{\"token\":{},\"start\":{s},\"end\":{e}}}}}]}}",
            page.target
        )
    };
    let form = page.form.unwrap_or(0);
    expect(
        "/query",
        check_query(&query(form), page),
        check_query(&query(form + 1), page),
    );
    let good = Summary {
        pages: 3,
        ok: 3,
        tuples: 3,
        ..Summary::default()
    };
    let lost = Summary { ok: 2, ..good };
    expect(
        "accounting",
        check_summary(&good, 3),
        check_summary(&lost, 3),
    );
    let set = crate::gen::wrapper_training_set(Family::Search);
    match Wrapper::train(&set.pages, WrapperConfig::default()) {
        Ok(w) => {
            let p: &TrainPage = &set.pages[0];
            let mut sc = WrapperScratch::new();
            expect(
                "wrapper",
                check_wrapper_page(&w, &p.tokens, p.target, &mut sc),
                check_wrapper_page(&w, &p.tokens, p.target + 1, &mut sc),
            );
        }
        Err(e) => failures.push(format!("wrapper: training the reference set failed: {e}")),
    }
    failures
}
