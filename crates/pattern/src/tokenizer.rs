use std::ops::Range;

use crate::pattern::Pattern;
use crate::token::{Token, TokenClass};

/// An owned tokenization: a string, its leaf [`Pattern`] and where each
/// token of that pattern ends in the string.
///
/// Read it through [`TokenizedString::view`]; the interned columns of
/// `clx-column` hand out the same [`TokenView`] without owning a
/// `TokenizedString` per value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenizedString {
    /// The original string.
    pub raw: String,
    /// The most-specific pattern describing it.
    pub pattern: Pattern,
    /// Exclusive byte offset in `raw` where each token of `pattern` ends
    /// (token `i` starts where token `i - 1` ends, token 0 at byte 0).
    pub ends: Box<[u32]>,
}

impl TokenizedString {
    /// The borrowed read surface over this tokenization.
    pub fn view(&self) -> TokenView<'_> {
        TokenView::new(&self.raw, &self.pattern, &self.ends)
    }
}

/// A borrowed tokenization: a string, its leaf pattern and the byte offset
/// where each token ends. Token `i` covers [`TokenView::slice`]`(i)`.
///
/// ```
/// use clx_pattern::tokenize_detailed;
///
/// let owned = tokenize_detailed("(734) 645");
/// let view = owned.view();
/// assert_eq!(view.pattern().to_string(), "'('<D>3')'' '<D>3");
/// assert_eq!(view.slice(1), "734");
/// assert_eq!(view.range(4), 6..9);
/// assert_eq!(view.slices().collect::<String>(), "(734) 645");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenView<'a> {
    text: &'a str,
    pattern: &'a Pattern,
    ends: &'a [u32],
}

impl<'a> TokenView<'a> {
    /// A view of `text` tokenized as `pattern`, token `i` ending at byte
    /// `ends[i]`. `ends` must hold one ascending, char-aligned offset per
    /// token, the last equal to `text.len()`.
    pub fn new(text: &'a str, pattern: &'a Pattern, ends: &'a [u32]) -> Self {
        debug_assert_eq!(pattern.len(), ends.len(), "one end offset per token");
        debug_assert_eq!(
            ends.last().map_or(0, |&end| end as usize),
            text.len(),
            "the last token ends the text"
        );
        TokenView {
            text,
            pattern,
            ends,
        }
    }

    /// The tokenized string.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// The leaf pattern of the string.
    pub fn pattern(&self) -> &'a Pattern {
        self.pattern
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` for the tokenization of the empty string.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The byte range of token `i` within [`TokenView::text`].
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// The text covered by token `i`.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn slice(&self, i: usize) -> &'a str {
        &self.text[self.range(i)]
    }

    /// The text of every token, in order; concatenated they give back
    /// [`TokenView::text`].
    pub fn slices(self) -> impl ExactSizeIterator<Item = &'a str> {
        (0..self.len()).map(move |i| self.slice(i))
    }

    /// An owned copy of this tokenization.
    pub fn to_tokenized(&self) -> TokenizedString {
        TokenizedString {
            raw: self.text.to_string(),
            pattern: self.pattern.clone(),
            ends: self.ends.into(),
        }
    }
}

/// One token of a leaf tokenization, as the scan meets it.
#[derive(Debug, Clone, Copy)]
enum LeafToken {
    /// A maximal run of `len` characters of leaf class `class` (see
    /// [`TokenClass::leaf_class_index`]).
    Run { class: u8, len: usize },
    /// A character outside the leaf classes, which is its own literal.
    Literal(char),
}

/// The leaf class with [`TokenClass::leaf_class_index`] `class`.
fn leaf_class(class: u8) -> TokenClass {
    match class {
        0 => TokenClass::Digit,
        1 => TokenClass::Lower,
        _ => TokenClass::Upper,
    }
}

/// Signature tag of a literal token; run tokens use their class index.
const LITERAL_TAG: u64 = 3;

impl LeafToken {
    fn token(self) -> Token {
        match self {
            LeafToken::Run { class, len } => Token::base(leaf_class(class), len),
            LeafToken::Literal(c) => Token::literal(c),
        }
    }

    /// The token's signature word: its payload (run length or character
    /// code) shifted past a two-bit tag (class index, or [`LITERAL_TAG`]).
    fn word(self) -> u64 {
        match self {
            LeafToken::Run { class, len } => (u64::from(offset(len)) << 2) | u64::from(class),
            LeafToken::Literal(c) => (u64::from(u32::from(c)) << 2) | LITERAL_TAG,
        }
    }

    fn from_word(word: u64) -> Self {
        let payload = word >> 2;
        match word & 3 {
            LITERAL_TAG => LeafToken::Literal(
                u32::try_from(payload)
                    .ok()
                    .and_then(char::from_u32)
                    .expect("malformed leaf signature: literal is not a char"),
            ),
            class => LeafToken::Run {
                class: u8::try_from(class).expect("two-bit tag"),
                len: usize::try_from(payload).expect("malformed leaf signature: run length"),
            },
        }
    }
}

/// A byte offset (or run length) narrowed to the `u32` the token streams
/// store.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("tokenized value is longer than u32::MAX bytes")
}

/// The leaf class index of an ASCII digit, lowercase or uppercase byte.
fn leaf_class_of(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(0),
        b'a'..=b'z' => Some(1),
        b'A'..=b'Z' => Some(2),
        _ => None,
    }
}

/// The Section 4.1 leaf rules in one pass over the bytes of `s`: calls
/// `emit(token, end)` for every token, `end` being the exclusive byte offset
/// where it ends. Runs only ever hold ASCII bytes, so every non-run
/// position is a char boundary.
#[inline]
fn scan(s: &str, mut emit: impl FnMut(LeafToken, usize)) {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if let Some(class) = leaf_class_of(bytes[i]) {
            let start = i;
            i += 1;
            while i < bytes.len() && leaf_class_of(bytes[i]) == Some(class) {
                i += 1;
            }
            emit(
                LeafToken::Run {
                    class,
                    len: i - start,
                },
                i,
            );
        } else {
            let c = match bytes[i] {
                b if b.is_ascii() => char::from(b),
                _ => s[i..]
                    .chars()
                    .next()
                    .expect("scan stops on char boundaries"),
            };
            i += c.len_utf8();
            emit(LeafToken::Literal(c), i);
        }
    }
}

/// Tokenize a raw string into its most-specific leaf pattern, following the
/// rules of Section 4.1 of the paper:
///
/// * every non-alphanumeric character becomes an individual **literal**
///   token (so `"(734) 645"` yields `'('`, `<D>3`, `')'`, `' '`, `<D>3`);
/// * maximal runs of characters of the most precise base class (`digit`,
///   `lower`, `upper`) become a single base token with a natural-number
///   quantifier;
/// * quantifiers are always natural numbers at this stage — the `+` form
///   only appears after agglomerative refinement.
///
/// # Example
///
/// ```
/// use clx_pattern::tokenize;
/// assert_eq!(tokenize("Bob123@gmail.com").to_string(),
///            "<U><L>2<D>3'@'<L>5'.'<L>3");
/// ```
pub fn tokenize(s: &str) -> Pattern {
    let mut tokens = Vec::new();
    scan(s, |token, _| tokens.push(token.token()));
    Pattern::new(tokens)
}

/// Like [`tokenize`] but also records where each token ends, in the same
/// single scan.
pub fn tokenize_detailed(s: &str) -> TokenizedString {
    let mut tokens = Vec::new();
    let mut ends = Vec::new();
    scan(s, |token, end| {
        tokens.push(token.token());
        ends.push(offset(end));
    });
    TokenizedString {
        raw: s.to_string(),
        pattern: Pattern::new(tokens),
        ends: ends.into_boxed_slice(),
    }
}

/// Scan `s` once, appending its compact **leaf signature** to `signature`
/// and the end byte offset of each of its tokens to `ends`.
///
/// The signature holds one LEB128 word per token: the run length (or, for
/// a literal, the character code) shifted left past a two-bit tag naming
/// the class. Two strings get equal signatures exactly when [`tokenize`]
/// gives them equal patterns, so the signature can key a leaf map without
/// building a [`Pattern`]; [`leaf_from_signature`] builds the pattern when
/// one is needed.
///
/// ```
/// use clx_pattern::{leaf_from_signature, scan_leaf, tokenize};
///
/// let (mut signature, mut ends) = (Vec::new(), Vec::new());
/// scan_leaf("734-422", &mut signature, &mut ends);
/// assert_eq!(ends, [3, 4, 7]);
/// assert_eq!(leaf_from_signature(&signature), tokenize("734-422"));
/// ```
///
/// # Panics
/// If `s` is longer than `u32::MAX` bytes.
pub fn scan_leaf(s: &str, signature: &mut Vec<u8>, ends: &mut Vec<u32>) {
    scan(s, |token, end| {
        push_word(signature, token.word());
        ends.push(offset(end));
    });
}

/// The leaf pattern whose signature [`scan_leaf`] produced.
///
/// # Panics
/// On a malformed signature: a truncated word, or a literal word that is
/// not a `char`.
pub fn leaf_from_signature(signature: &[u8]) -> Pattern {
    // Every word ends in the one byte with its high bit clear.
    let mut tokens = Vec::with_capacity(signature.iter().filter(|&&b| b < 0x80).count());
    let mut word = 0u64;
    let mut shift = 0u32;
    for &byte in signature {
        word |= u64::from(byte & 0x7f)
            .checked_shl(shift)
            .expect("malformed leaf signature: word too long");
        if byte < 0x80 {
            tokens.push(LeafToken::from_word(word).token());
            word = 0;
            shift = 0;
        } else {
            shift += 7;
        }
    }
    assert_eq!(shift, 0, "malformed leaf signature: truncated word");
    Pattern::new(tokens)
}

/// Append `word` as LEB128: seven bits per byte, low bits first, the high
/// bit set on every byte but the last. The encoding is prefix-free, so a
/// sequence of words decodes one way only.
fn push_word(out: &mut Vec<u8>, mut word: u64) {
    while word >= 0x80 {
        out.push(u8::try_from(word & 0x7f).expect("seven bits") | 0x80);
        word >>= 7;
    }
    out.push(u8::try_from(word).expect("below 0x80"));
}

/// Tokenization driven by a [`Pattern::split`] instead of a character scan.
///
/// When a string is already known to match some pattern — the way every
/// transformed output of a CLX run matches the labelled target — its leaf
/// tokenization can be *derived* from the pattern's split instead of
/// re-scanned character by character:
///
/// * a slice of a precise base token (`<D>`, `<L>`, `<U>`) is one leaf
///   token of that class whose count is the slice length;
/// * a literal token contributes the same constant text to every string, so
///   its internal tokenization is computed **once** (at construction) and
///   spliced in;
/// * only slices of generalized classes (`<A>`, `<AN>`), whose precise
///   structure genuinely varies per string, are scanned.
///
/// Adjacent same-class runs merge at fragment boundaries, so the result is
/// exactly [`tokenize_detailed`] of the string.
///
/// ```
/// use clx_pattern::{parse_pattern, tokenize_detailed, SplitTokenizer};
///
/// let target = parse_pattern("'['<U>+'-'<D>+']'").unwrap();
/// let tokenizer = SplitTokenizer::new(&target);
/// let derived = tokenizer.tokenize("[CPT-00350]").unwrap();
/// assert_eq!(derived, tokenize_detailed("[CPT-00350]"));
/// assert!(tokenizer.tokenize("no match").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SplitTokenizer {
    pattern: Pattern,
    /// Per pattern token: the precomputed tokenization of its constant
    /// text, for literal tokens.
    literal_fragments: Vec<Option<TokenizedString>>,
}

impl SplitTokenizer {
    /// Build a tokenizer for strings matching `pattern`, tokenizing each
    /// literal token's constant text once up front.
    pub fn new(pattern: &Pattern) -> Self {
        let literal_fragments = pattern
            .iter()
            .map(|t| t.literal_value().map(tokenize_detailed))
            .collect();
        SplitTokenizer {
            pattern: pattern.clone(),
            literal_fragments,
        }
    }

    /// The pattern this tokenizer splits against.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Tokenize `text` by splitting it against the pattern; equals
    /// [`tokenize_detailed`]`(text)`. Returns `None` when `text` does not
    /// match the pattern.
    pub fn tokenize(&self, text: &str) -> Option<TokenizedString> {
        let slices = self.pattern.split(text).ok()?;
        let mut tokens: Vec<Token> = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        for slice in &slices {
            let token = self
                .pattern
                .token(slice.token_index)
                .expect("split yields in-range token indices");
            match &token.class {
                TokenClass::Literal(_) => {
                    let fragment = self.literal_fragments[slice.token_index]
                        .as_ref()
                        .expect("literal tokens have precomputed fragments");
                    for (token, &end) in fragment.pattern.iter().zip(fragment.ends.iter()) {
                        let end = slice.start + end as usize;
                        push_fragment(&mut tokens, &mut ends, token.clone(), end);
                    }
                }
                // Precise classes are ASCII-only: the byte length is the
                // character count.
                TokenClass::Digit | TokenClass::Lower | TokenClass::Upper => push_fragment(
                    &mut tokens,
                    &mut ends,
                    Token::base(token.class.clone(), slice.end - slice.start),
                    slice.end,
                ),
                // The precise run structure of a generalized slice is not
                // determined by the pattern: scan just the slice.
                TokenClass::Alpha | TokenClass::AlphaNumeric => scan(&slice.text, |leaf, end| {
                    push_fragment(&mut tokens, &mut ends, leaf.token(), slice.start + end)
                }),
            }
        }
        Some(TokenizedString {
            raw: text.to_string(),
            pattern: Pattern::new(tokens),
            ends: ends.into_boxed_slice(),
        })
    }
}

/// Append one token ending at byte `end`, merging it into the previous
/// token when both are base tokens of the same class — exactly the
/// maximal-run rule of [`tokenize`]. (Literal tokens never merge:
/// `tokenize` emits one literal token per non-alphanumeric character, and
/// every literal fragment arriving here is already in that form.) Empty
/// fragments are dropped.
fn push_fragment(tokens: &mut Vec<Token>, ends: &mut Vec<u32>, token: Token, end: usize) {
    let end = offset(end);
    if ends.last().copied().unwrap_or(0) == end {
        return;
    }
    if let (Some(last), Some(last_end)) = (tokens.last_mut(), ends.last_mut()) {
        if last.is_base() && token.is_base() && last.class == token.class {
            let len = last.quantifier.min_count() + token.quantifier.min_count();
            *last = Token::base(token.class, len);
            *last_end = end;
            return;
        }
    }
    tokens.push(token);
    ends.push(end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Quantifier;

    #[test]
    fn example_3_from_paper() {
        // "Bob123@gmail.com" -> [<U>, <L>2, <D>3, '@', <L>5, '.', <L>3]
        let p = tokenize("Bob123@gmail.com");
        assert_eq!(p.to_string(), "<U><L>2<D>3'@'<L>5'.'<L>3");
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn phone_formats_from_figure_3() {
        assert_eq!(
            tokenize("(734) 645-8397").to_string(),
            "'('<D>3')'' '<D>3'-'<D>4"
        );
        assert_eq!(
            tokenize("(734)586-7252").to_string(),
            "'('<D>3')'<D>3'-'<D>4"
        );
        assert_eq!(tokenize("734-422-8073").to_string(), "<D>3'-'<D>3'-'<D>4");
        assert_eq!(tokenize("734.236.3466").to_string(), "<D>3'.'<D>3'.'<D>4");
    }

    #[test]
    fn empty_string() {
        let p = tokenize("");
        assert!(p.is_empty());
    }

    #[test]
    fn single_classes() {
        assert_eq!(tokenize("12345").to_string(), "<D>5");
        assert_eq!(tokenize("abc").to_string(), "<L>3");
        assert_eq!(tokenize("ABC").to_string(), "<U>3");
        assert_eq!(tokenize("@").to_string(), "'@'");
    }

    #[test]
    fn case_transitions_split_tokens() {
        // Most precise classes: upper run then lower run are distinct tokens.
        assert_eq!(tokenize("McMillan").to_string(), "<U><L><U><L>5");
        assert_eq!(tokenize("IBMCorp").to_string(), "<U>4<L>3");
    }

    #[test]
    fn each_symbol_is_its_own_literal() {
        assert_eq!(tokenize("--").to_string(), "'-''-'");
        assert_eq!(tokenize("a  b").to_string(), "<L>' '' '<L>");
    }

    #[test]
    fn underscores_and_hyphens_are_literals_at_leaf_level() {
        assert_eq!(tokenize("a_b-c").to_string(), "<L>'_'<L>'-'<L>");
    }

    #[test]
    fn quantifiers_are_natural_numbers() {
        let p = tokenize("aaaa1111BBBB");
        assert!(p
            .tokens()
            .iter()
            .all(|t| matches!(t.quantifier, Quantifier::Exact(_))));
    }

    #[test]
    fn detailed_slices_cover_string() {
        let t = tokenize_detailed("(734) 645-8397");
        let view = t.view();
        let rebuilt: String = view.slices().collect();
        assert_eq!(rebuilt, "(734) 645-8397");
        assert_eq!(view.len(), t.pattern.len());
        // slices are contiguous
        for i in 1..view.len() {
            assert_eq!(view.range(i - 1).end, view.range(i).start);
        }
    }

    #[test]
    fn pattern_derived_by_tokenizer_matches_its_source() {
        for s in [
            "Bob123@gmail.com",
            "(734) 645-8397",
            "734.236.3466",
            "[CPT-00350",
            "Dr. Eran Yahav",
            "+1 724-285-5210",
            "N/A",
        ] {
            let p = tokenize(s);
            assert!(p.matches(s), "pattern {p} should match {s:?}");
        }
    }

    #[test]
    fn unicode_symbols_become_literals() {
        let p = tokenize("a€b");
        assert_eq!(p.to_string(), "<L>'€'<L>");
        assert!(p.matches("a€b"));
    }

    #[test]
    fn split_agrees_with_tokenizer_slices() {
        for s in ["CPT115", "(734) 645-8397", "a€b", ""] {
            let t = tokenize_detailed(s);
            let view = t.view();
            let split = t.pattern.split(s).unwrap();
            assert_eq!(split.len(), view.len());
            for (i, slice) in split.iter().enumerate() {
                assert_eq!(slice.token_index, i);
                assert_eq!(slice.start..slice.end, view.range(i), "{s:?} token {i}");
                assert_eq!(slice.text, view.slice(i));
            }
        }
    }

    #[test]
    fn fast_tokenize_agrees_with_detailed() {
        for s in [
            "",
            "Bob123@gmail.com",
            "(734) 645-8397",
            "+1 724-285-5210",
            "a€b",
            "N/A",
            "--",
            "McMillan",
            "aaaa1111BBBB",
            "   ",
        ] {
            assert_eq!(tokenize(s), tokenize_detailed(s).pattern, "on {s:?}");
        }
    }

    #[test]
    fn split_tokenizer_equals_detailed_tokenization() {
        use crate::parse::parse_pattern;
        // (pattern, matching outputs) pairs covering precise classes,
        // plus-quantifiers, symbol literals, letter literals (constant
        // folding), generalized classes and merge-at-boundary cases.
        let cases: Vec<(&str, Vec<&str>)> = vec![
            ("<D>3'-'<D>3'-'<D>4", vec!["734-422-8073", "555-111-2222"]),
            (
                "'['<U>+'-'<D>+']'",
                vec!["[CPT-00350]", "[X-1]", "[ABCDE-99999]"],
            ),
            ("'Dr. '<U><L>+", vec!["Dr. Smith", "Dr. Yahav"]),
            (
                "<AN>+'@'<AN>+'.'<AN>+",
                vec!["Bob123@gmail.com", "alice99@yahoo.org", "Zed5@x.io"],
            ),
            // Boundary merges: base run adjacent to a literal of the same
            // class, and literal runs splicing into base runs.
            ("<L>+'x'", vec!["abx", "zx"]),
            ("'x'<L>+", vec!["xab"]),
            ("<D>+'5'<D>2", vec!["12511", "9578"]),
            ("<A>+' '<A>+", vec!["Eran Yahav", "bill GATES"]),
            ("<U><L>+", vec!["Smith"]),
        ];
        for (pattern_str, outputs) in cases {
            let pattern = parse_pattern(pattern_str).unwrap();
            let tokenizer = SplitTokenizer::new(&pattern);
            for output in outputs {
                let derived = tokenizer
                    .tokenize(output)
                    .unwrap_or_else(|| panic!("{output:?} must match {pattern_str}"));
                assert_eq!(
                    derived,
                    tokenize_detailed(output),
                    "pattern {pattern_str}, output {output:?}"
                );
            }
        }
    }

    #[test]
    fn split_tokenizer_equals_detailed_on_leaf_patterns() {
        // The leaf pattern of any string trivially matches it: derived
        // tokenization must round-trip.
        for s in ["(734) 645-8397", "N/A", "Bob123@gmail.com", "--", ""] {
            let tokenizer = SplitTokenizer::new(&tokenize(s));
            assert_eq!(tokenizer.tokenize(s).unwrap(), tokenize_detailed(s));
        }
    }

    #[test]
    fn split_tokenizer_rejects_non_matching_text() {
        let tokenizer = SplitTokenizer::new(&tokenize("734-422-8073"));
        assert!(tokenizer.tokenize("N/A").is_none());
        assert!(tokenizer.tokenize("").is_none());
    }

    /// Strings probing the byte scan: empty, NUL, non-ASCII letters and
    /// digits (literals at leaf level), multi-byte symbols, long runs.
    fn scan_cases() -> Vec<String> {
        let mut cases: Vec<String> = [
            "",
            "\0",
            "a\0b",
            "été",
            "٣٤٥-12",
            "ＡＢ12",
            "a€b",
            "Bob123@gmail.com",
            "(734) 645-8397",
            "  --",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cases.push("7".repeat(100_000));
        cases.push(format!("{}é{}", "x".repeat(40), "Q".repeat(300)));
        cases
    }

    #[test]
    fn scan_leaf_agrees_with_detailed_tokenization() {
        for s in scan_cases() {
            let detailed = tokenize_detailed(&s);
            let (mut signature, mut ends) = (Vec::new(), Vec::new());
            scan_leaf(&s, &mut signature, &mut ends);
            assert_eq!(&ends[..], &detailed.ends[..], "{s:?}");
            assert_eq!(leaf_from_signature(&signature), detailed.pattern, "{s:?}");
            assert_eq!(tokenize(&s), detailed.pattern, "{s:?}");
        }
    }

    #[test]
    fn non_ascii_letters_and_digits_stay_literals() {
        assert_eq!(tokenize("é٣").to_string(), "'é''٣'");
        assert_eq!(tokenize_detailed("é٣").view().range(1), 2..4);
    }

    #[test]
    fn signature_words_are_injective_across_packing_boundaries() {
        // A word carries 7 bits per byte after a 2-bit tag: the byte count
        // changes at run lengths 2^5, 2^12, 2^19, 2^26 and 2^33.
        let mut lengths = vec![1usize, 2, 3];
        for bits in [5u32, 12, 19, 26, 30] {
            let edge = 1usize << bits;
            lengths.extend([edge - 1, edge, edge + 1]);
        }
        lengths.push(u32::MAX as usize);
        let mut seen = std::collections::HashSet::new();
        for &len in &lengths {
            for class in 0..3u8 {
                let run = LeafToken::Run { class, len };
                let mut signature = Vec::new();
                push_word(&mut signature, run.word());
                let pattern = leaf_from_signature(&signature);
                assert_eq!(pattern.tokens(), &[Token::base(leaf_class(class), len)]);
                assert!(seen.insert(signature), "run {class}/{len} collides");
            }
        }
        for c in ['\0', '-', '€', char::MAX] {
            let mut signature = Vec::new();
            push_word(&mut signature, LeafToken::Literal(c).word());
            assert_eq!(
                leaf_from_signature(&signature).tokens(),
                &[Token::literal(c)]
            );
            assert!(seen.insert(signature), "literal {c:?} collides");
        }
    }
}
