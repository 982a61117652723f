//! # rextract-html
//!
//! A from-scratch HTML substrate for the paper's document model
//! (Section 3): web pages are abstracted to **sequences of tag tokens**
//! (`P H1 /H1 P FORM INPUT INPUT … /FORM`), and extraction expressions
//! operate on those sequences.
//!
//! * [`token`] — the token model (start/end tags, attributes, text,
//!   comments, doctype),
//! * [`lexer`] — the permissive HTML lexer (handles unclosed constructs,
//!   raw-text elements like `<script>`, attribute quoting styles) into
//!   reusable, borrowed [`PageTokens`] records: the page path,
//! * [`tokenizer`] — the owned token stream materialized from the lexer
//!   ([`tokenize`], [`tokenize_spanned`]),
//! * [`view`] — [`TokenView`], one read-only interface over both,
//! * [`entities`] — character-reference decoding,
//! * [`seq`] — the tag-sequence abstraction: token stream → symbol-name
//!   sequence with a configurable level of detail, plus vocabulary
//!   collection for building [`Alphabet`]s over page corpora,
//! * [`writer`] — token stream → HTML text (perturbation round trips).
//!
//! ```
//! use rextract_html::{tokenizer::tokenize, seq::{SeqConfig, to_names}};
//!
//! let toks = tokenize("<p><h1>Shop</h1><form><input></form>");
//! let names = to_names(&toks, &SeqConfig::tags_only());
//! let seq: Vec<&str> = names.iter().map(|e| e.name.as_str()).collect();
//! assert_eq!(seq, ["P", "H1", "/H1", "FORM", "INPUT", "/FORM"]);
//! ```
//!
//! [`Alphabet`]: rextract_automata::Alphabet

pub mod entities;
pub mod lexer;
pub mod seq;
pub mod token;
pub mod tokenizer;
pub mod view;
pub mod writer;
pub mod xml;

pub use lexer::{fnv1a_64, PageTokens, TokenKind};
pub use seq::{SeqConfig, SeqEntry};
pub use token::{Attribute, Token};
pub use tokenizer::{tokenize, tokenize_spanned, Span};
pub use view::TokenView;
