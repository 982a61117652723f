//! The provenance-tagged sink: NDJSON tuple lines in deterministic
//! order.
//!
//! Workers finish pages out of order; the sink holds completions in a
//! seq-keyed reorder buffer (`BTreeMap`, the same idiom as the serve
//! event loop's pipelining map) and writes each page's line exactly when
//! it becomes the next sequence number. Output order therefore equals
//! ingest order regardless of worker count — byte-identical runs are an
//! asserted property (`scripts/pipeline_smoke.sh`, `corpus_throughput`).
//!
//! Tuple lines carry full provenance:
//!
//! ```json
//! {"source":"pages/p07.html","wrapper":"search","wrapper_version":2,
//!  "wrapper_revision":1,"byte_offsets":[[212,258]],
//!  "fields":["<input type=\"text\" ...>"]}
//! ```
//!
//! `byte_offsets` are spans into the **raw source bytes** (token spans
//! of the page lexed into [`rextract_html::PageTokens`]) and `fields`
//! the exact bytes at those spans — an auditor can re-slice the stored
//! page and get the same value back. Non-tuple outcomes (unrouted, read error, failed
//! extraction) become error lines `{"source":...,"error":...}` on the
//! sidecar stream, or inline in the main stream when no sidecar is
//! given: a page is never silently dropped.

use std::collections::BTreeMap;
use std::io::{self, Write};

/// Append a JSON string literal (with escaping) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format one provenance tuple line (no trailing newline).
/// `wrapper_revision` is the install generation of the wrapper that
/// produced the tuple — it climbs every time the daemon hot-installs a
/// replacement (manual or self-repair), so a healed wrapper's tuples are
/// distinguishable from its pre-drift output.
pub fn tuple_line(
    source: &str,
    wrapper: &str,
    wrapper_version: u32,
    wrapper_revision: u32,
    byte_offsets: &[(usize, usize)],
    fields: &[&str],
) -> String {
    debug_assert_eq!(byte_offsets.len(), fields.len());
    let mut out = String::with_capacity(96);
    out.push_str("{\"source\":");
    push_json_str(&mut out, source);
    out.push_str(",\"wrapper\":");
    push_json_str(&mut out, wrapper);
    out.push_str(",\"wrapper_version\":");
    out.push_str(&wrapper_version.to_string());
    out.push_str(",\"wrapper_revision\":");
    out.push_str(&wrapper_revision.to_string());
    out.push_str(",\"byte_offsets\":[");
    for (i, (s, e)) in byte_offsets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{s},{e}]"));
    }
    out.push_str("],\"fields\":[");
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, f);
    }
    out.push_str("]}");
    out
}

/// Format one joined query record line (no trailing newline): a row of
/// a span relation rendered with the same byte-offset provenance as
/// [`tuple_line`] — `vars[i]` names the value at `byte_offsets[i]` /
/// `fields[i]`, so an arity-k join yields k parallel entries.
pub fn query_line(
    source: &str,
    query: &str,
    vars: &[&str],
    byte_offsets: &[(usize, usize)],
    fields: &[&str],
) -> String {
    debug_assert_eq!(byte_offsets.len(), fields.len());
    debug_assert_eq!(vars.len(), fields.len());
    let mut out = String::with_capacity(96);
    out.push_str("{\"source\":");
    push_json_str(&mut out, source);
    out.push_str(",\"query\":");
    push_json_str(&mut out, query);
    out.push_str(",\"vars\":[");
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, v);
    }
    out.push_str("],\"byte_offsets\":[");
    for (i, (s, e)) in byte_offsets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{s},{e}]"));
    }
    out.push_str("],\"fields\":[");
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, f);
    }
    out.push_str("]}");
    out
}

/// Format one error line (unrouted / read failure / failed extraction).
pub fn error_line(source: &str, error: &str) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"source\":");
    push_json_str(&mut out, source);
    out.push_str(",\"error\":");
    push_json_str(&mut out, error);
    out.push('}');
    out
}

/// A completed page, ready to write.
#[derive(Debug)]
pub enum PageLine {
    /// A tuple line for the main stream.
    Tuple(String),
    /// An error line for the sidecar stream (or the main stream when no
    /// sidecar is configured).
    Error(String),
}

/// Seq-numbered reorder buffer over two output streams.
pub struct ReorderSink<'a> {
    out: &'a mut dyn Write,
    sidecar: Option<&'a mut dyn Write>,
    pending: BTreeMap<u64, PageLine>,
    next_write: u64,
}

impl<'a> ReorderSink<'a> {
    /// A sink writing tuples to `out` and error lines to `sidecar`
    /// (falling back to `out` when `sidecar` is `None`).
    pub fn new(out: &'a mut dyn Write, sidecar: Option<&'a mut dyn Write>) -> ReorderSink<'a> {
        ReorderSink {
            out,
            sidecar,
            pending: BTreeMap::new(),
            next_write: 0,
        }
    }

    /// Accept completion `seq` and drain every line that is now ready.
    /// Lines are written strictly in seq order; a completion arriving
    /// early parks in the buffer.
    pub fn complete(&mut self, seq: u64, line: PageLine) -> io::Result<()> {
        self.pending.insert(seq, line);
        while let Some(line) = self.pending.remove(&self.next_write) {
            match &line {
                PageLine::Tuple(l) => {
                    self.out.write_all(l.as_bytes())?;
                    self.out.write_all(b"\n")?;
                }
                PageLine::Error(l) => {
                    let w: &mut dyn Write = match &mut self.sidecar {
                        Some(s) => *s,
                        None => self.out,
                    };
                    w.write_all(l.as_bytes())?;
                    w.write_all(b"\n")?;
                }
            }
            self.next_write += 1;
        }
        Ok(())
    }

    /// Completions buffered ahead of the next writable seq.
    pub fn parked(&self) -> usize {
        self.pending.len()
    }

    /// Pages written so far (== completions drained in order).
    pub fn written(&self) -> u64 {
        self.next_write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_line_escapes_and_formats() {
        let line = tuple_line("a\"b.html", "search", 2, 3, &[(3, 9)], &["<x \"q\">"]);
        assert_eq!(
            line,
            r#"{"source":"a\"b.html","wrapper":"search","wrapper_version":2,"wrapper_revision":3,"byte_offsets":[[3,9]],"fields":["<x \"q\">"]}"#
        );
        assert_eq!(
            error_line("p.html", "unrouted"),
            r#"{"source":"p.html","error":"unrouted"}"#
        );
    }

    #[test]
    fn query_line_pairs_vars_with_provenance() {
        let line = query_line(
            "p.html",
            "pair",
            &["form", "field"],
            &[(3, 9), (12, 20)],
            &["<form>", "<input>"],
        );
        assert_eq!(
            line,
            r#"{"source":"p.html","query":"pair","vars":["form","field"],"byte_offsets":[[3,9],[12,20]],"fields":["<form>","<input>"]}"#
        );
    }

    #[test]
    fn reorder_buffer_writes_in_seq_order() {
        let mut out = Vec::new();
        let mut sink = ReorderSink::new(&mut out, None);
        sink.complete(2, PageLine::Tuple("two".into())).unwrap();
        sink.complete(1, PageLine::Error("one".into())).unwrap();
        assert_eq!(sink.written(), 0);
        assert_eq!(sink.parked(), 2);
        sink.complete(0, PageLine::Tuple("zero".into())).unwrap();
        assert_eq!(sink.written(), 3);
        assert_eq!(String::from_utf8(out).unwrap(), "zero\none\ntwo\n");
    }

    #[test]
    fn sidecar_splits_error_lines() {
        let (mut out, mut side) = (Vec::new(), Vec::new());
        let mut sink = ReorderSink::new(&mut out, Some(&mut side));
        sink.complete(0, PageLine::Tuple("t".into())).unwrap();
        sink.complete(1, PageLine::Error("e".into())).unwrap();
        drop(sink);
        assert_eq!(out, b"t\n");
        assert_eq!(side, b"e\n");
    }
}
