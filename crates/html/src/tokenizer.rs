//! The owned token stream: [`tokenize`] and [`tokenize_spanned`]
//! materialize [`Token`]s from the [`crate::lexer`]'s records, for the
//! callers that edit or keep tokens (training, perturbation, queries,
//! drift repair). The page path reads [`PageTokens`] directly.

use crate::lexer::PageTokens;
use crate::token::Token;

/// A token's extent in the source document: byte offsets `[start, end)`.
///
/// Spans are measured on the **raw input** (before entity decoding), so
/// they always index into the original page — which is what provenance
/// records need. Consecutive spans tile the input exactly: trailing junk
/// that the permissive tokenizer swallows (unterminated attributes, the
/// `>` of an end tag, inter-construct whitespace consumed during attr
/// scanning) is attributed to the token that swallowed it.
pub type Span = (usize, usize);

/// Tokenize an HTML document into an owned token stream.
pub fn tokenize(input: &str) -> Vec<Token> {
    lexed(input).to_tokens()
}

/// Tokenize, additionally reporting each token's byte [`Span`].
///
/// The token stream is identical to [`tokenize`]'s; `spans[i]` is the
/// extent of `tokens[i]`. Spans are non-overlapping, sorted, and cover
/// `0..input.len()` exactly (the tokenizer never skips a byte without
/// charging it to some token).
pub fn tokenize_spanned(input: &str) -> (Vec<Token>, Vec<Span>) {
    let page = lexed(input);
    (page.to_tokens(), page.spans().collect())
}

fn lexed(input: &str) -> PageTokens {
    let mut page = PageTokens::new();
    page.lex(input);
    page
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(input: &str) -> Vec<String> {
        tokenize(input)
            .iter()
            .map(|t| match t {
                Token::StartTag { name, .. } => name.clone(),
                Token::EndTag { name } => format!("/{name}"),
                Token::Text(t) => format!("'{t}'"),
                Token::Comment(_) => "<!---->".to_string(),
                Token::Doctype(_) => "<!DOCTYPE>".to_string(),
            })
            .collect()
    }

    #[test]
    fn basic_structure() {
        assert_eq!(
            names("<p><h1>Shop</h1></p>"),
            ["P", "H1", "'Shop'", "/H1", "/P"]
        );
    }

    #[test]
    fn figure_1_form_fragment() {
        let html = r#"<form method="post" action="search.cgi">
<input type="image" align="left" src="search.gif" />
<input type="text" size="15" name="value" />
</form>"#;
        let toks: Vec<Token> = tokenize(html)
            .into_iter()
            .filter(|t| !t.is_blank_text())
            .collect();
        let tags: Vec<&str> = toks.iter().filter_map(|t| t.tag_name()).collect();
        assert_eq!(tags, ["FORM", "INPUT", "INPUT", "FORM"]);
        assert_eq!(toks[0].attr("action"), Some("search.cgi"));
        assert_eq!(toks[1].attr("type"), Some("image"));
        match &toks[1] {
            Token::StartTag { self_closing, .. } => assert!(self_closing),
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn unquoted_and_boolean_attributes() {
        let toks = tokenize("<input type=radio name=attr value=1 checked>");
        assert_eq!(toks[0].attr("type"), Some("radio"));
        assert_eq!(toks[0].attr("value"), Some("1"));
        assert_eq!(toks[0].attr("checked"), Some(""));
    }

    #[test]
    fn single_quoted_attributes_and_entities() {
        let toks = tokenize("<a href='x.html' title=\"a &amp; b\">link</a>");
        assert_eq!(toks[0].attr("href"), Some("x.html"));
        assert_eq!(toks[0].attr("title"), Some("a & b"));
    }

    #[test]
    fn comments_and_doctype() {
        assert_eq!(
            names("<!DOCTYPE html><!-- hi --><p>"),
            ["<!DOCTYPE>", "<!---->", "P"]
        );
        // unclosed comment swallows the rest
        assert_eq!(names("<!-- oops <p>"), ["<!---->"]);
    }

    #[test]
    fn script_body_is_raw_text() {
        let toks = tokenize("<script>if (a<b) { x('</div>'.length) }</script><p>");
        // body preserved as one text token; the inner </div>-in-string is
        // unfortunately a real close candidate per HTML rules — our
        // permissive scanner stops at the first `</`, which is the
        // documented degradation.
        let tags: Vec<&str> = toks.iter().filter_map(|t| t.tag_name()).collect();
        assert!(tags.contains(&"SCRIPT"));
        assert!(tags.contains(&"P"));
    }

    #[test]
    fn script_without_close_tag() {
        let toks = tokenize("<script>var x = 1;");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], Token::Text("var x = 1;".to_string()));
    }

    #[test]
    fn stray_angle_brackets_degrade_to_text() {
        assert_eq!(names("a < b"), ["'a '", "'<'", "' b'"]);
        assert_eq!(names("</>"), ["'</'", "'>'"]);
    }

    #[test]
    fn end_tag_with_junk_attributes() {
        assert_eq!(names("</td align=left>"), ["/TD"]);
    }

    #[test]
    fn case_normalization() {
        assert_eq!(names("<TaBlE></tAbLe>"), ["TABLE", "/TABLE"]);
    }

    #[test]
    fn text_entities_are_decoded() {
        let toks = tokenize("<td>Black &amp; Decker</td>");
        assert_eq!(toks[1], Token::Text("Black & Decker".to_string()));
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn truncated_tag_at_eof() {
        // must not panic or loop
        let toks = tokenize("<input type=");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].tag_name(), Some("INPUT"));
    }

    #[test]
    fn spanned_matches_tokenize_and_tiles_input() {
        let docs = [
            "<p><h1>Shop &amp; Save</h1></p>",
            "<table><tr><td>Widget</td><td>$9.99</td></tr></table>",
            "<script>if (a<b) {}</script><p>done",
            "a < b </> <!-- c --> <!DOCTYPE html><input type= ",
            "",
        ];
        for doc in docs {
            let (toks, spans) = tokenize_spanned(doc);
            assert_eq!(toks, tokenize(doc), "token stream diverged on {doc:?}");
            assert_eq!(toks.len(), spans.len());
            let mut cursor = 0;
            for &(s, e) in &spans {
                assert_eq!(s, cursor, "gap/overlap at byte {cursor} in {doc:?}");
                assert!(e > s, "empty span in {doc:?}");
                cursor = e;
            }
            if !spans.is_empty() {
                assert_eq!(cursor, doc.len(), "spans do not cover {doc:?}");
            }
        }
    }

    #[test]
    fn spans_slice_back_to_source_tags() {
        let doc = "<td>Black &amp; Decker</td>";
        let (toks, spans) = tokenize_spanned(doc);
        assert_eq!(&doc[spans[0].0..spans[0].1], "<td>");
        // The text token's span covers the *raw* (undecoded) source bytes.
        assert_eq!(&doc[spans[1].0..spans[1].1], "Black &amp; Decker");
        assert_eq!(toks[1], Token::Text("Black & Decker".to_string()));
        assert_eq!(&doc[spans[2].0..spans[2].1], "</td>");
    }
}
