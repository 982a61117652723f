//! XML mode — Section 8's closing direction ("Another interesting issue
//! is to explore data extraction from XML").
//!
//! XML differs from our HTML handling in the ways that matter to the
//! tag-sequence abstraction:
//!
//! * element names are **case-sensitive** (`<Item>` ≠ `<item>`), so no
//!   uppercase normalization;
//! * there are no void elements or raw-text elements — every element
//!   closes explicitly or is self-closing;
//! * processing instructions (`<?…?>`) and CDATA sections appear.
//!
//! [`tokenize_xml`] reuses the HTML scanner machinery with those rules.
//! The companion [`crate::token::Token`] model is shared, so everything
//! downstream (abstraction, learning, wrappers) works on XML unchanged.

use crate::entities::decode;
use crate::token::{Attribute, Token};

/// Tokenize an XML document. Permissive like the HTML tokenizer: bad
/// input degrades to text rather than erroring.
pub fn tokenize_xml(input: &str) -> Vec<Token> {
    XmlTokenizer {
        input,
        pos: 0,
        out: Vec::new(),
    }
    .run()
}

struct XmlTokenizer<'a> {
    input: &'a str,
    pos: usize,
    out: Vec<Token>,
}

impl<'a> XmlTokenizer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.input.len() {
            if self.rest().starts_with('<') {
                self.lex_angle();
            } else {
                let end = self
                    .rest()
                    .find('<')
                    .map(|o| self.pos + o)
                    .unwrap_or(self.input.len());
                let raw = &self.input[self.pos..end];
                if !raw.is_empty() {
                    self.out.push(Token::Text(decode(raw).into_owned()));
                }
                self.pos = end;
            }
        }
        self.out
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn lex_angle(&mut self) {
        let rest = self.rest();
        if rest.starts_with("<![CDATA[") {
            let body_start = self.pos + 9;
            match self.input[body_start..].find("]]>") {
                Some(off) => {
                    self.out
                        .push(Token::Text(self.input[body_start..body_start + off].into()));
                    self.pos = body_start + off + 3;
                }
                None => {
                    self.out.push(Token::Text(self.input[body_start..].into()));
                    self.pos = self.input.len();
                }
            }
        } else if rest.starts_with("<!--") {
            let body_start = self.pos + 4;
            match self.input[body_start..].find("-->") {
                Some(off) => {
                    self.out.push(Token::Comment(
                        self.input[body_start..body_start + off].into(),
                    ));
                    self.pos = body_start + off + 3;
                }
                None => {
                    self.out
                        .push(Token::Comment(self.input[body_start..].into()));
                    self.pos = self.input.len();
                }
            }
        } else if rest.starts_with("<?") || rest.starts_with("<!") {
            // Processing instruction / declaration: capture to '>'.
            match rest.find('>') {
                Some(off) => {
                    self.out
                        .push(Token::Doctype(rest[2..off].trim().to_string()));
                    self.pos += off + 1;
                }
                None => {
                    self.out.push(Token::Text(rest.to_string()));
                    self.pos = self.input.len();
                }
            }
        } else if rest[1..].starts_with('/') {
            self.lex_end_tag();
        } else if rest[1..].starts_with(is_name_start) {
            self.lex_start_tag();
        } else {
            self.out.push(Token::Text("<".into()));
            self.pos += 1;
        }
    }

    fn lex_end_tag(&mut self) {
        let name_start = self.pos + 2;
        let name_end = self.input[name_start..]
            .find(|c: char| !is_name_char(c))
            .map(|o| name_start + o)
            .unwrap_or(self.input.len());
        let name = self.input[name_start..name_end].to_string();
        let close = self.input[name_end..].find('>').map(|o| name_end + o);
        self.out.push(Token::EndTag { name });
        self.pos = close.map(|c| c + 1).unwrap_or(self.input.len());
    }

    fn lex_start_tag(&mut self) {
        let name_start = self.pos + 1;
        let name_end = self.input[name_start..]
            .find(|c: char| !is_name_char(c))
            .map(|o| name_start + o)
            .unwrap_or(self.input.len());
        let name = self.input[name_start..name_end].to_string();
        self.pos = name_end;
        let (attrs, self_closing) = self.lex_attrs();
        self.out.push(Token::StartTag {
            name,
            attrs,
            self_closing,
        });
    }

    fn lex_attrs(&mut self) -> (Vec<Attribute>, bool) {
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.is_empty() {
                break;
            }
            if rest.starts_with("/>") || rest.starts_with("?>") {
                self_closing = true;
                self.pos += 2;
                break;
            }
            if rest.starts_with('>') {
                self.pos += 1;
                break;
            }
            let name_end = rest
                .find(|c: char| c.is_whitespace() || matches!(c, '=' | '>' | '/' | '?'))
                .unwrap_or(rest.len());
            if name_end == 0 {
                self.pos += 1;
                continue;
            }
            let name = rest[..name_end].to_string();
            self.pos += name_end;
            self.skip_ws();
            if self.rest().starts_with('=') {
                self.pos += 1;
                self.skip_ws();
                let value = self.lex_value();
                // XML attribute names are case-sensitive too: build the
                // attribute directly rather than via the lowercasing
                // constructor.
                attrs.push(Attribute {
                    name,
                    value: decode(&value).into_owned(),
                });
            } else {
                attrs.push(Attribute {
                    name,
                    value: String::new(),
                });
            }
        }
        (attrs, self_closing)
    }

    fn lex_value(&mut self) -> String {
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

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_is_preserved() {
        let toks = tokenize_xml("<Item><price>9.99</price></Item>");
        let names: Vec<&str> = toks.iter().filter_map(|t| t.tag_name()).collect();
        assert_eq!(names, ["Item", "price", "price", "Item"]);
    }

    #[test]
    fn self_closing_and_attributes() {
        let toks = tokenize_xml(r#"<product sku="A-1" inStock="true"/>"#);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].attr("sku"), Some("A-1"));
        // Case-sensitive attribute names.
        match &toks[0] {
            Token::StartTag {
                attrs,
                self_closing,
                ..
            } => {
                assert!(self_closing);
                assert_eq!(attrs[1].name, "inStock");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cdata_and_pi() {
        let toks = tokenize_xml("<?xml version=\"1.0\"?><d><![CDATA[a<b&c]]></d>");
        assert!(matches!(&toks[0], Token::Doctype(d) if d.contains("xml")));
        assert_eq!(toks[2], Token::Text("a<b&c".into()));
    }

    #[test]
    fn entities_decode_in_text_not_cdata() {
        let toks = tokenize_xml("<d>a&amp;b</d><e><![CDATA[a&amp;b]]></e>");
        assert_eq!(toks[1], Token::Text("a&b".into()));
        assert_eq!(toks[4], Token::Text("a&amp;b".into()));
    }

    #[test]
    fn namespaced_names() {
        let toks = tokenize_xml("<cat:item xmlns:cat=\"urn:x\"/>");
        assert_eq!(toks[0].tag_name(), Some("cat:item"));
    }

    #[test]
    fn permissive_on_garbage() {
        for s in ["< ", "</", "<![CDATA[ unclosed", "<!-- unclosed", "<a b="] {
            let _ = tokenize_xml(s); // must not panic
        }
    }

    #[test]
    fn works_with_the_seq_abstraction() {
        use crate::seq::{to_names, SeqConfig};
        let toks = tokenize_xml("<catalog><Item><price>9</price></Item></catalog>");
        let entries = to_names(&toks, &SeqConfig::tags_only());
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["catalog", "Item", "price", "/price", "/Item", "/catalog"]
        );
    }
}
