//! Differential test of the lexer against the original tokenizer (the
//! oracle in `oracle/mod.rs`): on random HTML-ish input, the owned
//! materializers (`tokenize`, `tokenize_spanned`) must reproduce the
//! oracle's token stream and spans exactly, the spans must tile the
//! input, and every `PageTokens` accessor must agree with the oracle's
//! token.

mod oracle;

use proptest::prelude::*;
use rextract_html::token::Token;
use rextract_html::{fnv1a_64, tokenize, tokenize_spanned, PageTokens, TokenKind, TokenView};

/// Strings biased towards the constructs the lexer special-cases.
fn arb_htmlish() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        4 => "[a-zA-Z<>/&;=\"' !#?:-]{0,12}",
        2 => "\\PC{0,8}",
        1 => Just("<".to_string()),
        1 => Just("</>".to_string()),
        1 => Just("</".to_string()),
        1 => Just("<é>".to_string()),
        2 => Just("<input type=\"text\" value='a&amp;b' checked/>".to_string()),
        1 => Just("<td   align = center >".to_string()),
        1 => Just("<p =x a= b=/c/>".to_string()),
        1 => Just("<br/ ><img src=a/b.gif/>".to_string()),
        1 => Just("<input\u{3000}type=radio\u{a0}name=x>".to_string()),
        1 => Just("<a href=x title=\"unterminated".to_string()),
        1 => Just("<b class='unterminated".to_string()),
        1 => Just("<!-- c -->".to_string()),
        1 => Just("<!-- unterminated comment".to_string()),
        1 => Just("<!-->".to_string()),
        1 => Just("<!DOCTYPE html>".to_string()),
        1 => Just("<?xml version=\"1.0\"?>".to_string()),
        1 => Just("<!unterminated &amp;".to_string()),
        1 => Just("<ScRiPt>if (a<b) { x('</div>') }</sCrIpT>".to_string()),
        1 => Just("<STYLE>p { }</style >".to_string()),
        1 => Just("<textarea>&amp; <b></TEXTAREA>".to_string()),
        1 => Just("<script>never closed &amp;".to_string()),
        1 => Just("<script/>".to_string()),
        1 => Just("</scripts>".to_string()),
        2 => Just("&nbsp;".to_string()),
        1 => Just(" &nbsp;\n\t".to_string()),
        1 => Just("&#xa0;&#32;".to_string()),
        1 => Just("\u{a0}\u{3000}\u{b} ".to_string()),
        1 => Just("&amp;&#64;&bogus;&#1114112;&".to_string()),
        1 => Just("</td>".to_string()),
        1 => Just("<script>a<b</script>".to_string()),
    ];
    proptest::collection::vec(piece, 0..10).prop_map(|v| v.concat())
}

/// Fixed inputs: the tokenizer's unit-test edge cases and the pieces of
/// `robustness.rs`.
const CASES: &[&str] = &[
    "",
    "<p><h1>Shop &amp; Save</h1></p>",
    "a < b </> <!-- c --> <!DOCTYPE html><input type= ",
    "<input type=",
    "<input type=radio name=attr value=1 checked>",
    "<a href='x.html' title=\"a &amp; b\">link</a>",
    "<!-- oops <p>",
    "<script>var x = 1;",
    "<script>if (a<b) { x('</div>'.length) }</script><p>",
    "</td align=left>",
    "<TaBlE></tAbLe>",
    "<td>Black &amp; Decker</td>",
    "<input type=\"text\">&amp;&#64;&bogus;<!-- c ",
    "<p>\u{a0}</p><p>&nbsp;</p><p>\u{3000}&#32;</p>",
];

fn check(input: &str) -> Result<(), TestCaseError> {
    let (want, want_spans) = oracle::tokenize_spanned(input);
    let (got, spans) = tokenize_spanned(input);
    prop_assert_eq!(&got, &want, "tokens differ on {:?}", input);
    prop_assert_eq!(&spans, &want_spans, "spans differ on {:?}", input);
    prop_assert_eq!(&tokenize(input), &want, "tokenize differs on {:?}", input);
    let mut cursor = 0;
    for &(s, e) in &spans {
        prop_assert_eq!(s, cursor, "gap or overlap in {:?}", input);
        prop_assert!(e > s, "empty span in {:?}", input);
        cursor = e;
    }
    prop_assert_eq!(cursor, input.len(), "spans do not cover {:?}", input);

    let mut page = PageTokens::new();
    page.lex(input);
    prop_assert_eq!(page.len(), want.len());
    for (i, tok) in want.iter().enumerate() {
        let kind = match tok {
            Token::StartTag { .. } => TokenKind::StartTag,
            Token::EndTag { .. } => TokenKind::EndTag,
            Token::Text(_) => TokenKind::Text,
            Token::Comment(_) => TokenKind::Comment,
            Token::Doctype(_) => TokenKind::Doctype,
        };
        prop_assert_eq!(page.kind(i), kind, "kind of {} in {:?}", i, input);
        prop_assert_eq!(page.span(i), want_spans[i]);
        prop_assert_eq!(
            page.is_blank(i),
            tok.is_blank_text(),
            "blank {} {:?}",
            i,
            input
        );
        match tok {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                prop_assert!(page.name_is(i, name));
                prop_assert_eq!(page.name_hash(i), fnv1a_64(name.as_bytes()));
                prop_assert_eq!(page.self_closing(i), *self_closing);
                for a in attrs {
                    let value = page.attr(i, &a.name);
                    prop_assert_eq!(value.as_deref(), tok.attr(&a.name));
                }
            }
            Token::EndTag { name } => {
                prop_assert!(page.name_is(i, name));
                prop_assert_eq!(page.name_hash(i), fnv1a_64(name.as_bytes()));
            }
            _ => prop_assert_eq!(page.raw_tag_name(i), None),
        }
    }
    Ok(())
}

#[test]
fn fixed_cases_match_the_oracle() {
    for case in CASES {
        check(case).unwrap();
    }
}

#[test]
fn relexing_into_a_used_buffer_matches_a_fresh_one() {
    let mut page = PageTokens::new();
    for case in CASES.iter().rev() {
        page.lex(case);
        assert_eq!(page.to_tokens(), tokenize(case), "{case:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn lexer_matches_the_oracle(input in arb_htmlish()) {
        check(&input)?;
    }

    #[test]
    fn lexer_matches_the_oracle_on_arbitrary_unicode(input in "\\PC{0,64}") {
        check(&input)?;
    }
}
