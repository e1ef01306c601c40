//! Tokenizer for physical-plan execution statements.
//!
//! Splits Spark-`explain`-style statements (as produced by
//! [`sparksim::plan::physical::PhysicalPlan::statement`]) into the word
//! stream word2vec is trained on. Operators, table/column identifiers and
//! punctuation all become tokens; numeric literals are bucketed by order
//! of magnitude so that `< 71692` and `< 83000` share a token (`<num:5>`)
//! while `< 7` (`<num:1>`) stays distinct — the embedding can then encode
//! "how selective" rather than memorising every constant.

use std::fmt;

/// The tokenizer: a state machine fed a statement in any chunking
/// through [`fmt::Write`] — so
/// [`PhysicalPlan::write_statement`](sparksim::PhysicalPlan::write_statement)
/// renders straight into it — that hands each normalised token to
/// `sink` as it completes. Call [`Self::finish`] at the end of the
/// statement.
pub struct Tokenizer<F: FnMut(&str)> {
    /// The word, or quoted literal, being collected.
    word: String,
    state: State,
    sink: F,
}

/// What the next character has to settle.
#[derive(Clone, Copy)]
enum State {
    /// Nothing.
    Plain,
    /// A `.` after an all-digit word: a decimal point if a digit
    /// follows (`8.2`), a separator otherwise (`9.`, `9.a`).
    Dot,
    /// An operator character that may be the first half of a pair.
    Op(u8),
    /// Inside a string literal, up to the closing quote.
    Quote,
}

/// `<num:N>` by integer-part length `N`, capped at 12.
const NUM_TOKENS: [&str; 13] = [
    "<num:0>", "<num:1>", "<num:2>", "<num:3>", "<num:4>", "<num:5>", "<num:6>", "<num:7>",
    "<num:8>", "<num:9>", "<num:10>", "<num:11>", "<num:12>",
];

/// The operator `a`, or the two-character operator `a` + `b`.
fn operator(a: u8, b: Option<u8>) -> &'static str {
    match (a, b) {
        (b'<', Some(b'=')) => "<=",
        (b'>', Some(b'=')) => ">=",
        (b'<', Some(b'>')) => "<>",
        (b'!', Some(b'=')) => "!=",
        (b'&', Some(b'&')) => "&&",
        (b'|', Some(b'|')) => "||",
        (b'<', _) => "<",
        (b'>', _) => ">",
        (b'=', _) => "=",
        (b'!', _) => "!",
        (b'&', _) => "&",
        _ => "|",
    }
}

/// Bytes that extend a word: alphanumerics, `_`, `#`, and `-` (negative
/// literal or hyphenated word). A table, because the scan over a word
/// is the tokenizer's inner loop.
const WORD_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0u8;
    loop {
        table[b as usize] = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'#' | b'-');
        if b == u8::MAX {
            break table;
        }
        b += 1;
    }
};

impl<F: FnMut(&str)> Tokenizer<F> {
    /// A tokenizer at the start of a statement. `buffer` is its word
    /// scratch — pass the one [`Self::finish`] returned to tokenize
    /// statement after statement without allocating.
    pub fn new(mut buffer: String, sink: F) -> Self {
        buffer.clear();
        Self { word: buffer, state: State::Plain, sink }
    }

    /// Ends the statement: settles what was pending, emits the last
    /// token and returns the (empty) word buffer.
    pub fn finish(mut self) -> String {
        match self.state {
            State::Plain => self.flush(),
            State::Dot => {
                self.flush();
                (self.sink)(".");
            }
            State::Op(a) => (self.sink)(operator(a, None)),
            // An unterminated literal is closed where the statement ends.
            State::Quote => {
                // HOT-ALLOC: the caller's reused buffer.
                self.word.push('\'');
                self.emit_literal();
            }
        }
        self.word
    }

    /// Emits the collected word, if any: numbers as their magnitude
    /// bucket, everything else lower-cased.
    fn flush(&mut self) {
        if self.word.is_empty() {
            return;
        }
        let digits = self.word.strip_prefix('-').unwrap_or(&self.word);
        if digits.bytes().all(|b| b.is_ascii_digit() || b == b'.')
            && digits.bytes().any(|b| b.is_ascii_digit())
        {
            let magnitude = digits.bytes().position(|b| b == b'.').unwrap_or(digits.len());
            // PANIC-FREE: the index is capped at the table's last slot.
            (self.sink)(NUM_TOKENS[magnitude.min(NUM_TOKENS.len() - 1)]);
        } else if self.word.is_ascii() {
            if self.word.bytes().any(|b| b.is_ascii_uppercase()) {
                self.word.make_ascii_lowercase();
            }
            (self.sink)(&self.word);
        } else {
            // HOT-ALLOC: non-ASCII words only (planner statements are
            // ASCII) — Unicode lower-casing can change a word's length
            // and depends on context (final sigma), so it is left to
            // `str::to_lowercase`.
            (self.sink)(&self.word.to_lowercase());
        }
        self.word.clear();
    }

    /// Emits the quoted literal in `word`, verbatim.
    fn emit_literal(&mut self) {
        (self.sink)(&self.word);
        self.word.clear();
    }
}

impl<F: FnMut(&str)> fmt::Write for Tokenizer<F> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut rest = s;
        while let Some(&b) = rest.as_bytes().first() {
            // How much of `rest` this step consumes.
            let mut taken = 1;
            match std::mem::replace(&mut self.state, State::Plain) {
                State::Plain => {}
                // HOT-ALLOC: `word` is the caller's reused buffer; it
                // grows to the longest token once.
                State::Dot if b.is_ascii_digit() => self.word.push('.'),
                State::Dot => {
                    self.flush();
                    (self.sink)(".");
                }
                State::Op(a) => {
                    let op = operator(a, Some(b));
                    (self.sink)(op);
                    if op.len() == 2 {
                        // PANIC-FREE: `b` is an ASCII byte of `rest`.
                        rest = &rest[1..];
                        continue;
                    }
                }
                State::Quote => {
                    let close = rest.bytes().position(|b| b == b'\'');
                    taken = close.map_or(rest.len(), |at| at + 1);
                    // PANIC-FREE: `taken` is the length, or just past
                    // an ASCII quote inside `rest`.
                    self.word.push_str(&rest[..taken]);
                    match close {
                        Some(_) => self.emit_literal(),
                        None => self.state = State::Quote,
                    }
                    rest = &rest[taken..];
                    continue;
                }
            }
            match b {
                // PANIC-FREE: WORD_BYTE has an entry for every `u8`;
                // `taken` is the length, or the position of a byte that
                // follows an ASCII byte.
                _ if WORD_BYTE[b as usize] => {
                    // The whole run of word bytes at once.
                    taken = rest
                        .bytes()
                        .position(|b| !WORD_BYTE[b as usize])
                        .unwrap_or(rest.len());
                    self.word.push_str(&rest[..taken]);
                }
                // Keep qualified names split: `t.id` -> `t` `.` `id`;
                // but keep decimals inside numbers: `8.2`.
                b'.' if !self.word.is_empty() && self.word.bytes().all(|w| w.is_ascii_digit()) => {
                    self.state = State::Dot;
                }
                b'<' | b'>' | b'=' | b'!' | b'&' | b'|' => {
                    self.flush();
                    self.state = State::Op(b);
                }
                b'.' | b'(' | b')' | b'[' | b']' | b',' | b':' | b'%' => {
                    self.flush();
                    // PANIC-FREE: `b` is ASCII, so one byte is one char.
                    (self.sink)(&rest[..1]);
                }
                b'\'' => {
                    self.flush();
                    // HOT-ALLOC: the reused buffer, as above.
                    self.word.push('\'');
                    self.state = State::Quote;
                }
                // Whitespace and every other ASCII byte end a word.
                0..=0x7f => self.flush(),
                _ => {
                    let Some(c) = rest.chars().next() else { break };
                    taken = c.len_utf8();
                    if c.is_alphanumeric() {
                        // HOT-ALLOC: the reused buffer, as above.
                        self.word.push(c);
                    } else {
                        self.flush();
                    }
                }
            }
            // PANIC-FREE: `taken` bytes, whole chars, were just read off
            // the front of `rest`.
            rest = &rest[taken..];
        }
        Ok(())
    }
}

/// Tokenizes one execution statement.
pub fn tokenize_statement(statement: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut tokenizer = Tokenizer::new(String::new(), |t: &str| tokens.push(t.to_string()));
    // The tokenizer never fails a write.
    let _ = fmt::Write::write_str(&mut tokenizer, statement);
    tokenizer.finish();
    tokens
}

/// Tokenizes every statement of a plan into one corpus sentence per node.
pub fn plan_sentences(plan: &sparksim::PhysicalPlan) -> Vec<Vec<String>> {
    (0..plan.len())
        .map(|id| {
            let mut tokens = Vec::new();
            let mut tokenizer = Tokenizer::new(String::new(), |t: &str| tokens.push(t.to_string()));
            let _ = plan.write_statement(id, &mut tokenizer);
            tokenizer.finish();
            tokens
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_filter_statement() {
        let toks = tokenize_statement("Filter ((isnotnull(t.kind_id) && (t.kind_id < 7)))");
        assert!(toks.contains(&"filter".to_string()));
        assert!(toks.contains(&"isnotnull".to_string()));
        assert!(toks.contains(&"&&".to_string()));
        assert!(toks.contains(&"<".to_string()));
        assert!(toks.contains(&"<num:1>".to_string()));
        assert!(toks.contains(&"kind_id".to_string()));
    }

    #[test]
    fn buckets_numbers_by_magnitude() {
        assert_eq!(tokenize_statement("71692"), ["<num:5>"]);
        assert_eq!(tokenize_statement("83000"), ["<num:5>"]);
        assert_eq!(tokenize_statement("7"), ["<num:1>"]);
        assert_eq!(tokenize_statement("-42"), ["<num:2>"]);
        assert_eq!(tokenize_statement("8.2"), ["<num:1>"]);
        assert_eq!(tokenize_statement("1234567890123456"), ["<num:12>"]);
    }

    #[test]
    fn string_literals_are_single_tokens() {
        let toks = tokenize_statement("Filter (t.code = 'us')");
        assert!(toks.contains(&"'us'".to_string()));
    }

    #[test]
    fn decimal_inside_number_stays_joined() {
        let toks = tokenize_statement("Filter (x.r > 8.25)");
        assert!(toks.contains(&"<num:1>".to_string()), "{toks:?}");
        // The token stream must not contain a bare '.' from the decimal.
        let dot_count = toks.iter().filter(|t| t.as_str() == ".").count();
        assert_eq!(dot_count, 1, "only the qualifier dot: {toks:?}");
    }

    #[test]
    fn qualified_names_split_on_dot() {
        let toks = tokenize_statement("SortMergeJoin [t.id], [mc.movie_id], Inner");
        let t = toks.iter().position(|x| x == "t").unwrap();
        assert_eq!(toks[t + 1], ".");
        assert_eq!(toks[t + 2], "id");
        assert!(toks.contains(&"sortmergejoin".to_string()));
        assert!(toks.contains(&"inner".to_string()));
    }

    #[test]
    fn operators_coalesce() {
        let toks = tokenize_statement("a >= 1 && b <= 2");
        assert!(toks.contains(&">=".to_string()));
        assert!(toks.contains(&"<=".to_string()));
        assert!(toks.contains(&"&&".to_string()));
    }
}
