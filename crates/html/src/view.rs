//! A read-only view of a token stream, so that the tag-sequence
//! abstraction and the routing signature are written once for both
//! token stores: the lexer's [`crate::PageTokens`] (the page path,
//! implemented in [`crate::lexer`]) and an owned `[Token]` slice
//! (training, perturbation, tests).
//!
//! Tag names are seen in the owned model's spelling — ASCII-uppercase
//! for HTML — whatever the case in the source.

use crate::lexer::{fnv1a_64, TokenKind};
use crate::token::Token;
use std::borrow::Cow;

/// Per-token accessors over a token stream.
pub trait TokenView {
    /// Number of tokens.
    fn token_count(&self) -> usize;
    /// Kind of token `i`.
    fn kind(&self, i: usize) -> TokenKind;
    /// Tag name of token `i` (empty for non-tags).
    fn name(&self, i: usize) -> Cow<'_, str>;
    /// FNV-1a hash of [`TokenView::name`]; 0 for non-tags.
    fn name_hash(&self, i: usize) -> u64;
    /// Is `name` the tag name of token `i`? Cheaper than comparing
    /// against [`TokenView::name`], which may build a string.
    fn name_is(&self, i: usize, name: &str) -> bool;
    /// Is token `i` whitespace-only text (after entity decoding)?
    fn is_blank(&self, i: usize) -> bool;
    /// Decoded value of start tag `i`'s attribute `name` (lowercase).
    fn attr(&self, i: usize, name: &str) -> Option<Cow<'_, str>>;
}

impl TokenView for [Token] {
    fn token_count(&self) -> usize {
        self.len()
    }

    fn kind(&self, i: usize) -> TokenKind {
        match &self[i] {
            Token::StartTag { .. } => TokenKind::StartTag,
            Token::EndTag { .. } => TokenKind::EndTag,
            Token::Text(_) => TokenKind::Text,
            Token::Comment(_) => TokenKind::Comment,
            Token::Doctype(_) => TokenKind::Doctype,
        }
    }

    fn name(&self, i: usize) -> Cow<'_, str> {
        Cow::Borrowed(self[i].tag_name().unwrap_or(""))
    }

    fn name_hash(&self, i: usize) -> u64 {
        self[i].tag_name().map_or(0, |n| fnv1a_64(n.as_bytes()))
    }

    fn name_is(&self, i: usize, name: &str) -> bool {
        self[i].tag_name() == Some(name)
    }

    fn is_blank(&self, i: usize) -> bool {
        self[i].is_blank_text()
    }

    fn attr(&self, i: usize, name: &str) -> Option<Cow<'_, str>> {
        self[i].attr(name).map(Cow::Borrowed)
    }
}

/// Forwards to the slice, so `&Vec<Token>` arguments need no `[..]`.
impl TokenView for Vec<Token> {
    fn token_count(&self) -> usize {
        self.as_slice().token_count()
    }

    fn kind(&self, i: usize) -> TokenKind {
        self.as_slice().kind(i)
    }

    fn name(&self, i: usize) -> Cow<'_, str> {
        self.as_slice().name(i)
    }

    fn name_hash(&self, i: usize) -> u64 {
        self.as_slice().name_hash(i)
    }

    fn name_is(&self, i: usize, name: &str) -> bool {
        self.as_slice().name_is(i, name)
    }

    fn is_blank(&self, i: usize) -> bool {
        self.as_slice().is_blank(i)
    }

    fn attr(&self, i: usize, name: &str) -> Option<Cow<'_, str>> {
        self.as_slice().attr(i, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tokenize, PageTokens};

    /// Every accessor agrees between the lexer's records and the owned
    /// stream materialized from them.
    #[test]
    fn page_tokens_and_owned_tokens_agree() {
        let html = "<!DOCTYPE html><Form Action='/s?a=1&amp;b=2'>\n<INPUT type=text \
                    checked><p>&nbsp;</p><script>if (a<b) {}</SCRIPT><!-- x -->&copy;";
        let mut page = PageTokens::new();
        page.lex(html);
        let owned = tokenize(html);
        assert_eq!(page.token_count(), owned.token_count());
        for i in 0..owned.len() {
            assert_eq!(page.kind(i), owned.kind(i), "kind {i}");
            assert_eq!(page.name(i), owned.name(i), "name {i}");
            assert_eq!(page.name_hash(i), owned.name_hash(i));
            assert!(page.name_is(i, &owned.name(i)) || owned.name(i).is_empty());
            assert_eq!(page.is_blank(i), owned.is_blank(i), "blank {i}");
            for a in ["action", "type", "checked", "nope"] {
                assert_eq!(page.attr(i, a), owned.attr(i, a), "{a} on {i}");
            }
        }
    }
}
