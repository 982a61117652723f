//! The differential oracle: the library's original streaming tokenizer,
//! kept verbatim (apart from `decode` now returning `Cow`) as the
//! reference the lexer and its owned materializers are checked against.

use rextract_html::entities::decode;
use rextract_html::token::{Attribute, Token};

/// The original `tokenize_spanned`: tokens plus `(start, end)` spans.
pub fn tokenize_spanned(input: &str) -> (Vec<Token>, Vec<(usize, usize)>) {
    let mut t = Tokenizer {
        input,
        pos: 0,
        out: Vec::new(),
        starts: Vec::new(),
    };
    t.run_spanned();
    let spans = t
        .starts
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, t.starts.get(i + 1).copied().unwrap_or(input.len())))
        .collect();
    (t.out, spans)
}

struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    out: Vec<Token>,
    /// Start offset of each token in `out`, recorded at every push site.
    /// A token's extent ends where the next token begins (or at EOF), so
    /// starts alone determine the full span vector.
    starts: Vec<usize>,
}

impl<'a> Tokenizer<'a> {
    fn run_spanned(&mut self) {
        while self.pos < self.input.len() {
            if self.rest().starts_with('<') {
                self.lex_angle();
            } else {
                self.lex_text();
            }
        }
    }

    fn emit(&mut self, start: usize, tok: Token) {
        self.starts.push(start);
        self.out.push(tok);
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn lex_text(&mut self) {
        let end = self
            .rest()
            .find('<')
            .map(|o| self.pos + o)
            .unwrap_or(self.input.len());
        let raw = &self.input[self.pos..end];
        if !raw.is_empty() {
            let start = self.pos;
            self.emit(start, Token::Text(decode(raw).into_owned()));
        }
        self.pos = end;
    }

    fn lex_angle(&mut self) {
        let rest = self.rest();
        if rest.starts_with("<!--") {
            self.lex_comment();
        } else if rest.len() >= 2 && rest[1..].starts_with(['!', '?']) {
            self.lex_declaration();
        } else if rest[1..].starts_with('/') {
            self.lex_end_tag();
        } else if rest[1..].starts_with(|c: char| c.is_ascii_alphabetic()) {
            self.lex_start_tag();
        } else {
            // Stray '<': emit as text and move on.
            let start = self.pos;
            self.emit(start, Token::Text("<".to_string()));
            self.pos += 1;
        }
    }

    fn lex_comment(&mut self) {
        let start = self.pos;
        let body_start = self.pos + 4;
        match self.input[body_start..].find("-->") {
            Some(off) => {
                self.emit(
                    start,
                    Token::Comment(self.input[body_start..body_start + off].to_string()),
                );
                self.pos = body_start + off + 3;
            }
            None => {
                // Unclosed comment swallows the rest of the document.
                self.emit(start, Token::Comment(self.input[body_start..].to_string()));
                self.pos = self.input.len();
            }
        }
    }

    fn lex_declaration(&mut self) {
        let start = self.pos;
        // <!DOCTYPE …> or <?xml …?> — capture up to '>'.
        match self.rest().find('>') {
            Some(off) => {
                let body = &self.input[self.pos + 2..self.pos + off];
                self.emit(start, Token::Doctype(body.trim().to_string()));
                self.pos += off + 1;
            }
            None => {
                self.emit(start, Token::Text(self.rest().to_string()));
                self.pos = self.input.len();
            }
        }
    }

    fn lex_end_tag(&mut self) {
        let start = self.pos;
        let name_start = self.pos + 2;
        let name_end = self.input[name_start..]
            .find(|c: char| !is_tag_name_char(c))
            .map(|o| name_start + o)
            .unwrap_or(self.input.len());
        let name = &self.input[name_start..name_end];
        if name.is_empty() {
            self.emit(start, Token::Text("</".to_string()));
            self.pos += 2;
            return;
        }
        // Skip to '>' (ignoring junk in between, e.g. attributes on an
        // end tag).
        let close = self.input[name_end..].find('>').map(|o| name_end + o);
        self.emit(start, Token::end(name));
        self.pos = close.map(|c| c + 1).unwrap_or(self.input.len());
    }

    fn lex_start_tag(&mut self) {
        let start = self.pos;
        let name_start = self.pos + 1;
        let name_end = self.input[name_start..]
            .find(|c: char| !is_tag_name_char(c))
            .map(|o| name_start + o)
            .unwrap_or(self.input.len());
        let name = self.input[name_start..name_end].to_string();
        self.pos = name_end;
        let (attrs, self_closing) = self.lex_attrs();
        let name_upper = name.to_ascii_uppercase();
        self.emit(
            start,
            Token::StartTag {
                name: name_upper.clone(),
                attrs,
                self_closing,
            },
        );
        // Raw-text elements: consume body verbatim until the matching
        // close tag.
        if !self_closing && matches!(name_upper.as_str(), "SCRIPT" | "STYLE" | "TEXTAREA") {
            self.lex_raw_text(&name_upper);
        }
    }

    fn lex_raw_text(&mut self, name: &str) {
        let lower = format!("</{}", name.to_ascii_lowercase());
        let upper = format!("</{}", name);
        let hay = self.rest();
        let end = hay
            .match_indices("</")
            .find(|&(i, _)| {
                hay[i..].len() >= lower.len()
                    && (hay.as_bytes()[i..][2..lower.len()]
                        .eq_ignore_ascii_case(&lower.as_bytes()[2..]))
            })
            .map(|(i, _)| self.pos + i);
        let _ = upper;
        match end {
            Some(e) => {
                if e > self.pos {
                    let start = self.pos;
                    self.emit(start, Token::Text(self.input[self.pos..e].to_string()));
                }
                self.pos = e;
                self.lex_end_tag();
            }
            None => {
                if !self.rest().is_empty() {
                    let start = self.pos;
                    self.emit(start, Token::Text(self.rest().to_string()));
                }
                self.pos = self.input.len();
            }
        }
    }

    /// Lex attributes up to and including the closing `>`. Returns the
    /// attribute list and whether the tag was self-closing.
    fn lex_attrs(&mut self) -> (Vec<Attribute>, bool) {
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.is_empty() {
                break;
            }
            if let Some(r) = rest.strip_prefix("/>") {
                let _ = r;
                self_closing = true;
                self.pos += 2;
                break;
            }
            if rest.starts_with('>') {
                self.pos += 1;
                break;
            }
            if rest.starts_with('/') {
                // lone '/', not '/>': skip it.
                self.pos += 1;
                continue;
            }
            // Attribute name.
            let name_end = rest
                .find(|c: char| c.is_whitespace() || matches!(c, '=' | '>' | '/'))
                .unwrap_or(rest.len());
            if name_end == 0 {
                self.pos += 1; // junk byte
                continue;
            }
            let name = &rest[..name_end];
            self.pos += name_end;
            self.skip_ws();
            if self.rest().starts_with('=') {
                self.pos += 1;
                self.skip_ws();
                let value = self.lex_attr_value();
                attrs.push(Attribute::new(name, decode(&value).into_owned()));
            } else {
                attrs.push(Attribute::new(name, ""));
            }
        }
        (attrs, self_closing)
    }

    fn lex_attr_value(&mut self) -> String {
        let rest = self.rest();
        if let Some(q) = rest.chars().next().filter(|&c| c == '"' || c == '\'') {
            let body_start = self.pos + 1;
            match self.input[body_start..].find(q) {
                Some(off) => {
                    let v = self.input[body_start..body_start + off].to_string();
                    self.pos = body_start + off + 1;
                    v
                }
                None => {
                    let v = self.input[body_start..].to_string();
                    self.pos = self.input.len();
                    v
                }
            }
        } else {
            let end = rest
                .find(|c: char| c.is_whitespace() || c == '>')
                .unwrap_or(rest.len());
            let v = rest[..end].to_string();
            self.pos += end;
            v
        }
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }
}

fn is_tag_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == ':'
}
