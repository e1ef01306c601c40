//! The hand lexer behind `raal-lint`.
//!
//! Everything here is deliberately *lexical*: a small state machine
//! strips comments and string literals without parsing Rust, which
//! keeps the linter dependency-free and robust across editions. Every
//! per-file rule ([`crate::lint`]) reads the same [`Views`] triple, so
//! offsets and line numbers agree everywhere.
//!
//! Two hardening details matter for rule windows:
//!
//! * The lexer understands raw string literals (`r#"…"#`, any hash
//!   depth) and *nested* block comments, so a rule scanning the
//!   blanked view never fires on text inside either.
//! * Justification-comment checks ([`justified_in_window`]) compare the
//!   raw text against the comment-blanked view line by line, so a
//!   marker like `SAFETY:` or `ORDERING:` only counts when it sits
//!   inside an actual comment — the same token smuggled into a string
//!   or raw string literal does not satisfy a rule.

use std::ops::Range;

/// Lexically processed views of one source file, all byte-for-byte the
/// same length as the original (newlines preserved), so offsets and
/// line numbers agree across views.
pub struct Views {
    /// Original text.
    pub raw: String,
    /// Comments blanked to spaces; string literals kept verbatim.
    pub code: String,
    /// Comments *and* string/char literal contents blanked.
    pub blanked: String,
}

/// Byte offset of the start of each line, for offset → line mapping.
pub fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-based line number of the byte at `offset`.
pub fn line_of(starts: &[usize], offset: usize) -> usize {
    starts.partition_point(|&s| s <= offset)
}

#[derive(Clone, Copy, PartialEq)]
enum Lex {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Builds the comment-stripped and string-blanked views of `raw`.
pub fn lex_views(raw: &str) -> Views {
    let bytes = raw.as_bytes();
    let mut code: Vec<u8> = bytes.to_vec();
    let mut blanked: Vec<u8> = bytes.to_vec();
    let mut state = Lex::Normal;
    let mut i = 0;
    let n = bytes.len();

    // Blank byte `j` in the given views (newlines always survive).
    let blank = |buf: &mut [u8], j: usize| {
        if buf[j] != b'\n' {
            buf[j] = b' ';
        }
    };

    while i < n {
        let b = bytes[i];
        match state {
            Lex::Normal => {
                if b == b'/' && i + 1 < n && bytes[i + 1] == b'/' {
                    state = Lex::LineComment;
                    blank(&mut code, i);
                    blank(&mut blanked, i);
                } else if b == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                    state = Lex::BlockComment(1);
                    blank(&mut code, i);
                    blank(&mut blanked, i);
                } else if b == b'"' {
                    state = Lex::Str;
                } else if b == b'r' || b == b'b' {
                    // r"..."# / br#"..."# raw strings, b"..." byte strings.
                    let mut j = i + 1;
                    if b == b'b' && j < n && bytes[j] == b'r' {
                        j += 1;
                    }
                    if b == b'b' && j == i + 1 && j < n && bytes[j] == b'"' {
                        state = Lex::Str;
                        i = j;
                    } else if bytes.get(i + 1) == Some(&b'"') && b == b'r' {
                        state = Lex::RawStr(0);
                        i += 1;
                    } else if j > i + 1 || (b == b'r' && bytes.get(j).is_some_and(|&c| c == b'#')) {
                        let mut hashes = 0u32;
                        let mut k = j;
                        while k < n && bytes[k] == b'#' {
                            hashes += 1;
                            k += 1;
                        }
                        if hashes > 0 && k < n && bytes[k] == b'"' {
                            state = Lex::RawStr(hashes);
                            i = k;
                        }
                    }
                } else if b == b'\'' {
                    // Char literal vs lifetime: 'x' or '\..' is a char.
                    if i + 1 < n && bytes[i + 1] == b'\\' {
                        state = Lex::Char;
                    } else if i + 2 < n && bytes[i + 2] == b'\'' && bytes[i + 1] != b'\'' {
                        blank(&mut blanked, i + 1);
                        i += 2;
                    }
                    // Otherwise a lifetime: leave untouched.
                }
            }
            Lex::LineComment => {
                if b == b'\n' {
                    state = Lex::Normal;
                } else {
                    blank(&mut code, i);
                    blank(&mut blanked, i);
                }
            }
            Lex::BlockComment(depth) => {
                blank(&mut code, i);
                blank(&mut blanked, i);
                if b == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                    blank(&mut code, i + 1);
                    blank(&mut blanked, i + 1);
                    i += 1;
                    state = if depth == 1 {
                        Lex::Normal
                    } else {
                        Lex::BlockComment(depth - 1)
                    };
                } else if b == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                    blank(&mut code, i + 1);
                    blank(&mut blanked, i + 1);
                    i += 1;
                    state = Lex::BlockComment(depth + 1);
                }
            }
            Lex::Str => {
                if b == b'\\' && i + 1 < n {
                    blank(&mut blanked, i);
                    blank(&mut blanked, i + 1);
                    i += 1;
                } else if b == b'"' {
                    state = Lex::Normal;
                } else {
                    blank(&mut blanked, i);
                }
            }
            Lex::RawStr(hashes) => {
                if b == b'"' {
                    let mut k = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && k < n && bytes[k] == b'#' {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        i = k - 1;
                        state = Lex::Normal;
                    } else {
                        blank(&mut blanked, i);
                    }
                } else {
                    blank(&mut blanked, i);
                }
            }
            Lex::Char => {
                if b == b'\\' && i + 1 < n {
                    blank(&mut blanked, i);
                    blank(&mut blanked, i + 1);
                    i += 1;
                } else if b == b'\'' {
                    state = Lex::Normal;
                } else {
                    blank(&mut blanked, i);
                }
            }
        }
        i += 1;
    }

    Views {
        raw: raw.to_string(),
        code: String::from_utf8(code).expect("blanking preserves UTF-8"),
        blanked: String::from_utf8(blanked).expect("blanking preserves UTF-8"),
    }
}

/// Whether `b` can appear inside a Rust identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Offsets of whole-word occurrences of `word` in `text`.
pub fn find_word(text: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// Byte ranges of `#[cfg(test)]`- or `#[test]`-gated item bodies.
pub fn test_ranges(blanked: &str) -> Vec<Range<usize>> {
    let mut ranges: Vec<Range<usize>> = Vec::new();
    let bytes = blanked.as_bytes();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(pos) = blanked[from..].find(marker) {
            let at = from + pos;
            from = at + marker.len();
            // The attribute gates the next item: scan to its `{` body
            // (or bail at `;` — e.g. `#[cfg(test)] use ...;`).
            let mut i = at + marker.len();
            let mut open = None;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' => {
                        open = Some(i);
                        break;
                    }
                    b';' => break,
                    _ => i += 1,
                }
            }
            let Some(open) = open else { continue };
            let close = match_brace(bytes, open);
            ranges.push(at..close);
        }
    }
    ranges.sort_by_key(|r| r.start);
    ranges
}

/// Whether `offset` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[Range<usize>], offset: usize) -> bool {
    ranges.iter().any(|r| r.contains(&offset))
}

/// Byte ranges of `use` declarations (keyword through `;`), which may
/// span several lines for grouped imports.
pub fn use_ranges(blanked: &str) -> Vec<Range<usize>> {
    let bytes = blanked.as_bytes();
    find_word(blanked, "use")
        .into_iter()
        .map(|at| {
            let end = bytes[at..]
                .iter()
                .position(|&b| b == b';')
                .map_or(bytes.len(), |p| at + p + 1);
            at..end
        })
        .collect()
}

/// Whether the path is test-only by location (integration tests and
/// criterion benches).
pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/")
}

/// The `crates/<name>/` component of a relative path, if any.
pub fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/").and_then(|rest| rest.split('/').next())
}

/// Offset one past the `}` matching the `{` at `open` (or `len` when
/// the file ends unbalanced).
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        if b == b'{' {
            depth += 1;
        } else if b == b'}' {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    bytes.len()
}

/// Count of (possibly overlapping-free) occurrences of `pat` in `text`.
fn occurrences(text: &str, pat: &str) -> usize {
    if pat.is_empty() {
        return 0;
    }
    let mut n = 0;
    let mut from = 0;
    while let Some(p) = text[from..].find(pat) {
        n += 1;
        from += p + pat.len();
    }
    n
}

/// True when at least one occurrence of `pat` on this line sits inside
/// a comment: occurrences in the raw text outnumber those in the
/// comment-blanked [`Views::code`] view of the same line. A marker
/// inside a string or raw string literal survives into the code view,
/// so it does *not* count as a justification.
pub fn comment_contains(raw_line: &str, code_line: &str, pat: &str) -> bool {
    occurrences(raw_line, pat) > occurrences(code_line, pat)
}

/// Whether any of `pats` appears *in a comment* within the `window`
/// lines preceding 1-based `line` (inclusive of the line itself, so a
/// trailing same-line comment counts). The window extends upward across
/// any contiguous run of comment/attribute lines directly above it, so
/// a long doc section still reaches the site it documents.
pub fn justified_in_window(
    raw_lines: &[&str],
    code_lines: &[&str],
    line: usize,
    window: usize,
    pats: &[&str],
) -> bool {
    let hi = line.min(raw_lines.len());
    let mut lo = line.saturating_sub(window);
    while lo > 0 {
        let t = raw_lines[lo - 1].trim_start();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("/*") || t.starts_with('*') {
            lo -= 1;
        } else {
            break;
        }
    }
    (lo..hi).any(|i| pats.iter().any(|p| comment_contains(raw_lines[i], code_lines[i], p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_preserve_length_and_lines() {
        let src = "fn f() {\n    // comment\n    let s = \"str\";\n}\n";
        let v = lex_views(src);
        assert_eq!(v.raw.len(), src.len());
        assert_eq!(v.code.len(), src.len());
        assert_eq!(v.blanked.len(), src.len());
        assert_eq!(v.raw.lines().count(), v.code.lines().count());
    }

    #[test]
    fn raw_strings_blank_at_every_hash_depth() {
        for src in [
            "let a = r\"unsafe .unwrap()\";",
            "let a = r#\"unsafe .unwrap()\"#;",
            "let a = r##\"unsafe \"# .unwrap()\"##;",
            "let a = br#\"unsafe .unwrap()\"#;",
        ] {
            let v = lex_views(src);
            assert!(!v.blanked.contains("unwrap"), "{src} -> {}", v.blanked);
            assert!(!v.blanked.contains("unsafe"), "{src} -> {}", v.blanked);
            // The code view keeps string contents (only comments blank).
            assert!(v.code.contains("unwrap"), "{src} -> {}", v.code);
        }
    }

    #[test]
    fn nested_block_comments_blank_fully() {
        let src = "/* outer /* inner .unwrap() */ still comment */ fn f() {}";
        let v = lex_views(src);
        assert!(!v.blanked.contains("unwrap"), "{}", v.blanked);
        assert!(!v.code.contains("still comment"), "{}", v.code);
        assert!(v.blanked.contains("fn f()"), "{}", v.blanked);
    }

    #[test]
    fn comment_contains_rejects_markers_in_strings() {
        let src = "let j = \"SAFETY: smuggled\"; // SAFETY: real\n";
        let v = lex_views(src);
        let raw: Vec<&str> = v.raw.lines().collect();
        let code: Vec<&str> = v.code.lines().collect();
        // Raw has two occurrences, code keeps only the string one: the
        // surplus proves a comment occurrence exists.
        assert!(comment_contains(raw[0], code[0], "SAFETY:"));

        let src = "let j = r#\"SAFETY: smuggled\"#;\n";
        let v = lex_views(src);
        let raw: Vec<&str> = v.raw.lines().collect();
        let code: Vec<&str> = v.code.lines().collect();
        assert!(!comment_contains(raw[0], code[0], "SAFETY:"));
    }

    #[test]
    fn justified_window_sees_trailing_same_line_comment() {
        let src = "fn f() -> u64 {\n    N.load(Relaxed) // ORDERING: a statistic\n}\n";
        let v = lex_views(src);
        let raw: Vec<&str> = v.raw.lines().collect();
        let code: Vec<&str> = v.code.lines().collect();
        assert!(justified_in_window(&raw, &code, 2, 4, &["ORDERING:"]));
        assert!(!justified_in_window(&raw, &code, 1, 4, &["ORDERING:"]));
    }
}
