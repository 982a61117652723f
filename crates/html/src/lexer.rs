//! The HTML lexer: one pass over a page into compact token records.
//!
//! Built for wrapper robustness, not spec conformance: real catalog pages
//! (the paper's domain) contain unquoted attributes, stray `<`, unclosed
//! comments and raw-text `<script>`/`<style>` bodies. The lexer never
//! fails — every input produces *some* token stream, and malformed
//! constructs degrade to text.
//!
//! [`PageTokens`] is the page path's token store. A record holds the
//! token's kind, its start byte (a token ends where the next begins, so
//! spans tile the page exactly), its tag-name range, the FNV-1a hash of
//! the ASCII-uppercased tag name, and two flags: blank text and
//! self-closing tag. Nothing is copied out of the page: attributes are
//! parsed from the token's bytes when asked for, and character
//! references are decoded when a text's content is needed. The buffers
//! are reused, so lexing a page no larger than an earlier one does not
//! allocate.
//!
//! The owned [`Token`] stream of [`crate::tokenize`] is materialized from
//! these records ([`PageTokens::token`]); this is the library's only HTML
//! lexer.

use crate::entities::decode;
use crate::token::{Attribute, Token};
use crate::tokenizer::Span;
use crate::view::TokenView;
use std::borrow::Cow;

/// What a token is, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// `<NAME attr=… >`.
    StartTag,
    /// `</NAME>`.
    EndTag,
    /// A run of character data.
    Text,
    /// `<!-- … -->`.
    Comment,
    /// `<!DOCTYPE …>` or `<?…>`.
    Doctype,
}

/// FNV-1a offset basis and prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Text whose decoded content is whitespace only.
const BLANK: u8 = 1;
/// Start tag with a trailing `/>`.
const SELF_CLOSING: u8 = 2;
/// Text kept exactly as in the source: raw-text element bodies, stray
/// `<` and `</`, and unterminated declarations are never entity-decoded.
const VERBATIM: u8 = 4;
/// Comment closed by `-->` (an unclosed one runs to the end of the page).
const CLOSED: u8 = 8;

/// One lexed token. Tag names start right after `<` (start tags) or
/// `</` (end tags) and end at `name_end`.
#[derive(Debug, Clone, Copy)]
struct Rec {
    start: usize,
    name_end: usize,
    hash: u64,
    kind: TokenKind,
    flags: u8,
}

/// A lexed page: a private copy of its text plus one record per token.
/// Keep one per worker and call [`PageTokens::lex`] for every page.
#[derive(Debug, Default, Clone)]
pub struct PageTokens {
    page: String,
    recs: Vec<Rec>,
}

impl PageTokens {
    /// Empty buffers; they grow on first use and are then reused.
    pub fn new() -> PageTokens {
        PageTokens::default()
    }

    /// Lex `page`, replacing the previous contents. Allocates only when
    /// `page` is longer, or has more tokens, than any page lexed before.
    pub fn lex(&mut self, page: &str) {
        self.page.clear();
        self.page.push_str(page);
        self.recs.clear();
        Lexer {
            s: &self.page,
            pos: 0,
            out: &mut self.recs,
        }
        .run();
    }

    /// The lexed page's text.
    pub fn page(&self) -> &str {
        &self.page
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// No tokens (an empty page).
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Byte extent of token `i` in the page: it ends where token `i + 1`
    /// starts, or at the end of the page.
    pub fn span(&self, i: usize) -> Span {
        let end = self.recs.get(i + 1).map_or(self.page.len(), |r| r.start);
        (self.recs[i].start, end)
    }

    /// The tag name of token `i` as written in the source (any case), or
    /// `None` for non-tags.
    pub fn raw_tag_name(&self, i: usize) -> Option<&str> {
        let r = &self.recs[i];
        let name_start = match r.kind {
            TokenKind::StartTag => r.start + 1,
            TokenKind::EndTag => r.start + 2,
            _ => return None,
        };
        Some(&self.page[name_start..r.name_end])
    }

    /// Is token `i` a start tag written `<… />`?
    pub fn self_closing(&self, i: usize) -> bool {
        self.recs[i].flags & SELF_CLOSING != 0
    }

    /// Token `i` in the owned model — exactly what [`crate::tokenize`]
    /// yields at that index.
    pub fn token(&self, i: usize) -> Token {
        let r = &self.recs[i];
        let (start, end) = self.span(i);
        let src = &self.page[start..end];
        match r.kind {
            TokenKind::StartTag => Token::StartTag {
                name: self.page[start + 1..r.name_end].to_ascii_uppercase(),
                attrs: AttrScan::new(&self.page, r.name_end)
                    .map(|(name, value)| Attribute {
                        name: name.to_ascii_lowercase(),
                        value: value.map_or_else(String::new, |v| decode(v).into_owned()),
                    })
                    .collect(),
                self_closing: r.flags & SELF_CLOSING != 0,
            },
            TokenKind::EndTag => Token::EndTag {
                name: self.page[start + 2..r.name_end].to_ascii_uppercase(),
            },
            TokenKind::Text if r.flags & VERBATIM != 0 => Token::Text(src.to_string()),
            TokenKind::Text => Token::Text(decode(src).into_owned()),
            TokenKind::Comment if r.flags & CLOSED != 0 => {
                Token::Comment(src[4..src.len() - 3].to_string())
            }
            TokenKind::Comment => Token::Comment(src[4..].to_string()),
            TokenKind::Doctype => Token::Doctype(src[2..src.len() - 1].trim().to_string()),
        }
    }

    /// The whole page in the owned model.
    pub fn to_tokens(&self) -> Vec<Token> {
        (0..self.len()).map(|i| self.token(i)).collect()
    }

    /// Every token's [`Span`], in order.
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        (0..self.len()).map(|i| self.span(i))
    }
}

/// The hash, blank flag and tag name come from the records; attributes
/// are parsed from the tag's bytes on each call.
impl TokenView for PageTokens {
    fn token_count(&self) -> usize {
        self.len()
    }

    fn kind(&self, i: usize) -> TokenKind {
        self.recs[i].kind
    }

    fn name(&self, i: usize) -> Cow<'_, str> {
        Cow::Owned(self.raw_tag_name(i).unwrap_or("").to_ascii_uppercase())
    }

    fn name_hash(&self, i: usize) -> u64 {
        self.recs[i].hash
    }

    fn name_is(&self, i: usize, name: &str) -> bool {
        self.raw_tag_name(i).is_some_and(|raw| {
            raw.len() == name.len()
                && raw
                    .bytes()
                    .zip(name.bytes())
                    .all(|(r, u)| r.to_ascii_uppercase() == u)
        })
    }

    fn is_blank(&self, i: usize) -> bool {
        self.recs[i].flags & BLANK != 0
    }

    fn attr(&self, i: usize, name: &str) -> Option<Cow<'_, str>> {
        let r = &self.recs[i];
        if r.kind != TokenKind::StartTag {
            return None;
        }
        let (_, value) = AttrScan::new(&self.page, r.name_end).find(|(n, _)| {
            n.len() == name.len()
                && n.bytes()
                    .zip(name.bytes())
                    .all(|(a, b)| a.to_ascii_lowercase() == b)
        })?;
        Some(value.map_or(Cow::Borrowed(""), decode))
    }
}

/// Is `b` one of the ASCII bytes `char::is_whitespace` accepts? (Unlike
/// `u8::is_ascii_whitespace`, this includes vertical tab.)
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// If the character at byte `pos` of `s` is whitespace, its length.
fn ws_len_at(s: &str, pos: usize) -> Option<usize> {
    let b = *s.as_bytes().get(pos)?;
    if b < 0x80 {
        return is_ascii_ws(b).then_some(1);
    }
    let c = s[pos..].chars().next()?;
    c.is_whitespace().then(|| c.len_utf8())
}

/// First byte at or after `pos` that does not start a whitespace char.
fn skip_ws(s: &str, mut pos: usize) -> usize {
    while let Some(n) = ws_len_at(s, pos) {
        pos += n;
    }
    pos
}

/// First byte at or after `pos` that starts a whitespace char or one of
/// the ASCII `stops`.
fn scan_until(s: &str, mut pos: usize, stops: &[u8]) -> usize {
    let b = s.as_bytes();
    while pos < b.len() {
        let c = b[pos];
        if c < 0x80 {
            if is_ascii_ws(c) || stops.contains(&c) {
                break;
            }
            pos += 1;
        } else {
            match s[pos..].chars().next() {
                Some(ch) if !ch.is_whitespace() => pos += ch.len_utf8(),
                _ => break,
            }
        }
    }
    pos
}

/// Is `raw` all whitespace once decoded? Runs that reach an `&` before
/// any other non-whitespace character are decoded to decide (`&nbsp;`
/// decodes to whitespace); all others are decided on the raw bytes.
fn is_blank_text(raw: &str, decode_entities: bool) -> bool {
    let mut pos = 0;
    while pos < raw.len() {
        if let Some(n) = ws_len_at(raw, pos) {
            pos += n;
        } else if decode_entities && raw.as_bytes()[pos] == b'&' {
            return decode(&raw[pos..]).chars().all(char::is_whitespace);
        } else {
            return false;
        }
    }
    true
}

fn is_tag_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b':'
}

/// The attributes of a start tag, from just after its name to its
/// closing `>` or `/>`: `(name as written, raw value)` pairs in source
/// order, `None` for a boolean attribute. [`AttrScan::end`] is where the
/// tag ends once the scan is exhausted.
struct AttrScan<'a> {
    s: &'a str,
    pos: usize,
    self_closing: bool,
    done: bool,
}

impl<'a> AttrScan<'a> {
    fn new(s: &'a str, pos: usize) -> AttrScan<'a> {
        AttrScan {
            s,
            pos,
            self_closing: false,
            done: false,
        }
    }

    /// Consume the remaining attributes; returns the byte after the tag
    /// and whether it was self-closing.
    fn end(mut self) -> (usize, bool) {
        while self.next().is_some() {}
        (self.pos, self.self_closing)
    }

    fn value(&mut self) -> &'a str {
        let s = self.s;
        match s.as_bytes().get(self.pos) {
            Some(&q) if q == b'"' || q == b'\'' => {
                let body = self.pos + 1;
                match s.as_bytes()[body..].iter().position(|&c| c == q) {
                    Some(off) => {
                        self.pos = body + off + 1;
                        &s[body..body + off]
                    }
                    None => {
                        self.pos = s.len();
                        &s[body..]
                    }
                }
            }
            _ => {
                let start = self.pos;
                self.pos = scan_until(s, start, b">");
                &s[start..self.pos]
            }
        }
    }
}

impl<'a> Iterator for AttrScan<'a> {
    type Item = (&'a str, Option<&'a str>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let s = self.s;
        let b = s.as_bytes();
        loop {
            self.pos = skip_ws(s, self.pos);
            match b.get(self.pos) {
                None => break,
                Some(b'/') if b.get(self.pos + 1) == Some(&b'>') => {
                    self.self_closing = true;
                    self.pos += 2;
                    break;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                // A lone '/', or an '=' with no name before it: skip.
                Some(b'/' | b'=') => self.pos += 1,
                Some(_) => {
                    let name_start = self.pos;
                    let name_end = scan_until(s, name_start, b"=>/");
                    let name = &s[name_start..name_end];
                    self.pos = skip_ws(s, name_end);
                    if b.get(self.pos) != Some(&b'=') {
                        return Some((name, None));
                    }
                    self.pos = skip_ws(s, self.pos + 1);
                    return Some((name, Some(self.value())));
                }
            }
        }
        self.done = true;
        None
    }
}

struct Lexer<'a> {
    s: &'a str,
    pos: usize,
    out: &'a mut Vec<Rec>,
}

impl Lexer<'_> {
    fn run(&mut self) {
        while self.pos < self.s.len() {
            if self.s.as_bytes()[self.pos] == b'<' {
                self.angle();
            } else {
                self.text();
            }
        }
    }

    fn push(&mut self, start: usize, kind: TokenKind, flags: u8) {
        self.out.push(Rec {
            start,
            name_end: start,
            hash: 0,
            kind,
            flags,
        });
    }

    /// A text token of `start..end` that is never entity-decoded.
    fn verbatim(&mut self, start: usize, end: usize) {
        let blank = is_blank_text(&self.s[start..end], false);
        self.push(
            start,
            TokenKind::Text,
            VERBATIM | if blank { BLANK } else { 0 },
        );
    }

    fn text(&mut self) {
        let start = self.pos;
        let end = self.s[start..]
            .find('<')
            .map_or(self.s.len(), |o| start + o);
        let blank = is_blank_text(&self.s[start..end], true);
        self.push(start, TokenKind::Text, if blank { BLANK } else { 0 });
        self.pos = end;
    }

    fn angle(&mut self) {
        let b = self.s.as_bytes();
        let start = self.pos;
        match b.get(start + 1) {
            Some(b'!') if b[start..].starts_with(b"<!--") => {
                let body = start + 4;
                match self.s[body..].find("-->") {
                    Some(off) => {
                        self.push(start, TokenKind::Comment, CLOSED);
                        self.pos = body + off + 3;
                    }
                    // An unclosed comment swallows the rest of the page.
                    None => {
                        self.push(start, TokenKind::Comment, 0);
                        self.pos = b.len();
                    }
                }
            }
            // <!DOCTYPE …> or <?xml …?>: up to '>', or text if unclosed.
            Some(b'!' | b'?') => match b[start..].iter().position(|&c| c == b'>') {
                Some(off) => {
                    self.push(start, TokenKind::Doctype, 0);
                    self.pos = start + off + 1;
                }
                None => {
                    self.verbatim(start, b.len());
                    self.pos = b.len();
                }
            },
            Some(b'/') => self.end_tag(),
            Some(c) if c.is_ascii_alphabetic() => self.start_tag(),
            // Stray '<': text, and move on.
            _ => {
                self.verbatim(start, start + 1);
                self.pos = start + 1;
            }
        }
    }

    /// Scan a tag name from `pos`; returns its end and the FNV-1a hash of
    /// its uppercased bytes.
    fn name(&self, mut pos: usize) -> (usize, u64) {
        let b = self.s.as_bytes();
        let mut hash = FNV_OFFSET;
        while let Some(&c) = b.get(pos).filter(|&&c| is_tag_name_byte(c)) {
            hash = (hash ^ u64::from(c.to_ascii_uppercase())).wrapping_mul(FNV_PRIME);
            pos += 1;
        }
        (pos, hash)
    }

    fn end_tag(&mut self) {
        let start = self.pos;
        let (name_end, hash) = self.name(start + 2);
        if name_end == start + 2 {
            self.verbatim(start, start + 2);
            self.pos = start + 2;
            return;
        }
        self.out.push(Rec {
            start,
            name_end,
            hash,
            kind: TokenKind::EndTag,
            flags: 0,
        });
        // Skip to '>' (ignoring junk in between, e.g. attributes on an
        // end tag).
        let b = self.s.as_bytes();
        self.pos = b[name_end..]
            .iter()
            .position(|&c| c == b'>')
            .map_or(b.len(), |o| name_end + o + 1);
    }

    fn start_tag(&mut self) {
        let start = self.pos;
        let (name_end, hash) = self.name(start + 1);
        let (end, self_closing) = AttrScan::new(self.s, name_end).end();
        self.out.push(Rec {
            start,
            name_end,
            hash,
            kind: TokenKind::StartTag,
            flags: if self_closing { SELF_CLOSING } else { 0 },
        });
        self.pos = end;
        let name = &self.s.as_bytes()[start + 1..name_end];
        let raw_text = ["script", "style", "textarea"]
            .iter()
            .any(|t| name.eq_ignore_ascii_case(t.as_bytes()));
        if !self_closing && raw_text {
            self.raw_text(start + 1, name_end);
        }
    }

    /// The body of a raw-text element whose name is at `name_start..
    /// name_end`: everything up to the first `</` followed by that name
    /// (any case), kept verbatim, then the end tag.
    fn raw_text(&mut self, name_start: usize, name_end: usize) {
        let s = self.s;
        let b = s.as_bytes();
        let name = &b[name_start..name_end];
        let body = self.pos;
        let mut from = body;
        let close = loop {
            let Some(off) = s[from..].find("</") else {
                break None;
            };
            let at = from + off;
            let after = &b[at + 2..];
            if after.len() >= name.len() && after[..name.len()].eq_ignore_ascii_case(name) {
                break Some(at);
            }
            from = at + 2;
        };
        match close {
            Some(at) => {
                if at > body {
                    self.verbatim(body, at);
                }
                self.pos = at;
                self.end_tag();
            }
            None => {
                if body < b.len() {
                    self.verbatim(body, b.len());
                }
                self.pos = b.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lexed(page: &str) -> PageTokens {
        let mut t = PageTokens::new();
        t.lex(page);
        t
    }

    #[test]
    fn records_kinds_names_and_flags() {
        let t = lexed("<Input TYPE=radio checked/>x&nbsp; <!-- c --></td >");
        let kinds: Vec<TokenKind> = (0..t.len()).map(|i| t.kind(i)).collect();
        assert_eq!(
            kinds,
            [
                TokenKind::StartTag,
                TokenKind::Text,
                TokenKind::Comment,
                TokenKind::EndTag
            ]
        );
        assert_eq!(t.raw_tag_name(0), Some("Input"));
        assert!(t.name_is(0, "INPUT"));
        assert!(!t.name_is(0, "Input"));
        assert_eq!(t.name_hash(0), fnv1a_64(b"INPUT"));
        assert!(t.self_closing(0));
        assert_eq!(t.attr(0, "type").as_deref(), Some("radio"));
        assert_eq!(t.attr(0, "checked").as_deref(), Some(""));
        assert_eq!(t.attr(0, "TYPE"), None);
        assert!(!t.is_blank(1));
        assert_eq!(t.span(3), (t.page().len() - 6, t.page().len()));
        assert_eq!(t.name_hash(3), fnv1a_64(b"TD"));
    }

    #[test]
    fn blank_is_decided_on_decoded_text() {
        let t = lexed("<p> &nbsp;\n</p><p>&amp;</p><p>\u{3000}</p>");
        let blanks: Vec<usize> = (0..t.len()).filter(|&i| t.is_blank(i)).collect();
        assert_eq!(blanks, [1, 7]);
    }

    #[test]
    fn relexing_reuses_buffers() {
        let mut t = PageTokens::new();
        t.lex("<table><tr><td>a</td></tr></table>");
        let cap = (t.page.capacity(), t.recs.capacity());
        t.lex("<p>b</p>");
        assert_eq!(t.len(), 3);
        assert_eq!(t.page(), "<p>b</p>");
        assert_eq!((t.page.capacity(), t.recs.capacity()), cap);
    }
}
