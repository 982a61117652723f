//! Character-reference (entity) decoding.
//!
//! Supports the named entities that occur in real catalog pages plus
//! decimal (`&#64;`) and hexadecimal (`&#x40;`) numeric references.
//! Unknown or malformed references are passed through verbatim — the
//! permissive behaviour a wrapper needs on wild HTML.

use std::borrow::Cow;

/// Decode character references in `input`. Borrows `input` unchanged
/// when it contains no `&` — the common case for tag-free text runs.
pub fn decode(input: &str) -> Cow<'_, str> {
    let Some(first) = input.find('&') else {
        return Cow::Borrowed(input);
    };
    let mut out = String::with_capacity(input.len());
    out.push_str(&input[..first]);
    let mut rest = &input[first..];
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        // Find the terminating ';' within a reasonable window.
        let decoded = rest[1..]
            .char_indices()
            .take(32)
            .find(|&(_, c)| c == ';')
            .and_then(|(semi, _)| Some((decode_one(&rest[1..1 + semi])?, semi + 2)));
        match decoded {
            Some((c, consumed)) => {
                out.push(c);
                rest = &rest[consumed..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

fn decode_one(body: &str) -> Option<char> {
    let named = match body {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        "nbsp" => Some('\u{a0}'),
        "copy" => Some('©'),
        "reg" => Some('®'),
        "trade" => Some('™'),
        "mdash" => Some('—'),
        "ndash" => Some('–'),
        "hellip" => Some('…'),
        _ => None,
    };
    if named.is_some() {
        return named;
    }
    let stripped = body.strip_prefix('#')?;
    let code = if let Some(hex) = stripped.strip_prefix(['x', 'X']) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        stripped.parse::<u32>().ok()?
    };
    char::from_u32(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities() {
        assert_eq!(decode("a &amp; b"), "a & b");
        assert_eq!(decode("&lt;p&gt;"), "<p>");
        assert_eq!(decode("&quot;x&quot;"), "\"x\"");
        assert_eq!(decode("&copy; 2000"), "© 2000");
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(decode("&#64;"), "@");
        assert_eq!(decode("&#x40;"), "@");
        assert_eq!(decode("&#X41;"), "A");
    }

    #[test]
    fn malformed_references_pass_through() {
        assert_eq!(decode("&zzz;"), "&zzz;");
        assert_eq!(decode("AT&T"), "AT&T");
        assert_eq!(decode("a & b"), "a & b");
        assert_eq!(decode("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode("&"), "&");
        assert_eq!(decode("&#1114112;"), "&#1114112;"); // out of range
    }

    #[test]
    fn multibyte_text_survives() {
        assert_eq!(decode("prix — 10€ &amp; plus"), "prix — 10€ & plus");
    }

    #[test]
    fn text_without_ampersand_is_borrowed() {
        assert!(matches!(decode("plain text"), Cow::Borrowed("plain text")));
        assert!(matches!(decode(""), Cow::Borrowed("")));
        assert!(matches!(decode("a &amp; b"), Cow::Owned(_)));
        // A lone `&` still allocates (it might have been a reference)
        // but decodes to itself.
        assert_eq!(decode("AT&T"), "AT&T");
    }

    #[test]
    fn empty_and_plain_strings() {
        assert_eq!(decode(""), "");
        assert_eq!(decode("no entities here"), "no entities here");
    }
}
