//! `raal-lint`: source-level enforcement of repo invariants.
//!
//! A zero-external-dependency linter that scans the workspace's Rust
//! sources and enforces rules the compiler cannot:
//!
//! * **`unsafe-safety`** — every `unsafe` keyword (block, fn, impl) is
//!   preceded by a `// SAFETY:` comment or a `# Safety` doc section
//!   within the preceding lines, so each unsafe site documents the
//!   preconditions it relies on.
//! * **`instant-now`** — no `Instant::now` outside `crates/telemetry`;
//!   all timing goes through the telemetry clock so event logs share one
//!   origin.
//! * **`unwrap-in-lib`** — no `.unwrap()` / `.expect(` in non-test
//!   library code of `sparksim`, `nn`, `core` and `encoding`; serving
//!   paths return typed errors instead of panicking.
//! * **`span-names`** — telemetry span/counter/histogram/event names in
//!   non-test code are drawn from the [`telemetry::schema`] registry, so
//!   downstream log consumers can rely on a closed vocabulary.
//! * **`i8-intrinsic-safety`** — every `_mm*epi8*` intrinsic call site
//!   (the int8 kernel's widening loads and conversions) sits
//!   inside a block documented by a `SAFETY` comment within the
//!   preceding lines; `use` declarations are exempt.
//! * **`atomic-ordering`** — every `Ordering::Relaxed` in non-test code
//!   carries a `// ORDERING:` comment in the preceding lines justifying
//!   why relaxed semantics are sound at that site. Stronger orderings
//!   are self-documenting; `Relaxed` is where the bugs hide.
//! * **`lock-order`** — a cross-file pass: every function's lexical
//!   `.lock()` acquisition sequence feeds the workspace-wide
//!   [`crate::conc::LockOrderGraph`]; any cycle (two functions taking
//!   the same locks in opposite orders) is a potential deadlock and
//!   fails the lint with the witness sites around the cycle.
//!
//! Grandfathered sites live in `lint-allowlist.tsv` at the repo root:
//! one `rule<TAB>path<TAB>count` line per file. The linter fails when a
//! file *exceeds* its allowance (the list never grows) and, in
//! `--strict` mode, when an allowance is stale (the count can only
//! ratchet down).
//!
//! The scanner is deliberately lexical: it strips comments and string
//! literals with a small state machine rather than parsing Rust, which
//! is robust across editions and keeps the binary dependency-free.

use crate::conc::LockOrderGraph;
use crate::lex::{
    crate_of, find_word, fn_spans, in_ranges, is_ident_byte, is_test_path, justified_in_window,
    lex_views, line_of, line_starts, test_ranges, use_ranges, Views,
};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Rule id: undocumented `unsafe`.
pub const RULE_UNSAFE: &str = "unsafe-safety";
/// Rule id: raw `Instant::now` outside the telemetry crate.
pub const RULE_INSTANT: &str = "instant-now";
/// Rule id: panicking accessor in library code.
pub const RULE_UNWRAP: &str = "unwrap-in-lib";
/// Rule id: unregistered telemetry name.
pub const RULE_SPAN: &str = "span-names";
/// Rule id: int8 intrinsic outside a SAFETY-documented block.
pub const RULE_EPI8: &str = "i8-intrinsic-safety";
/// Rule id: relaxed atomic without an `// ORDERING:` justification.
pub const RULE_ORDERING: &str = "atomic-ordering";
/// Rule id: lock-acquisition-order inversion across the workspace.
pub const RULE_LOCK_ORDER: &str = "lock-order";

/// Crates whose `src/` trees must not contain `.unwrap()` / `.expect(`.
const UNWRAP_CRATES: &[&str] = &["sparksim", "nn", "core", "encoding"];

/// How many preceding lines may hold the `SAFETY:` justification.
const SAFETY_WINDOW: usize = 8;

/// How many preceding lines may hold the `SAFETY` justification for an
/// `epi8` intrinsic. Wider than [`SAFETY_WINDOW`] because the intrinsics
/// sit deep inside kernel loop bodies, far below the block's `unsafe`
/// boundary where the justification lives.
const EPI8_WINDOW: usize = 40;

/// How many preceding lines may hold the `ORDERING:` justification for a
/// relaxed atomic operation.
const ORDERING_WINDOW: usize = 8;

/// One finding at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: &'static str,
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Recursively collects `.rs` files under `root`, skipping build
/// artefacts, vendored stand-ins and VCS metadata.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    const SKIP: &[&str] = &["target", "vendor", ".git", ".claude", "results", "node_modules"];
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP.contains(&name.as_ref()) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads every Rust source under `root` as `(relative path, text)`
/// pairs, sorted by path — the common input of [`lint_sources`] and
/// [`crate::panic::check_sources`]. Exposed so tests can load the real
/// workspace, mutate a file in memory, and re-run an analysis.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(path)?));
    }
    Ok(sources)
}

/// Lints every Rust source under `root`, returning findings sorted by
/// path and line.
pub fn lint_root(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(lint_sources(&collect_sources(root)?))
}

/// Lints a set of `(relative path, source)` pairs: per-file rules first,
/// then the cross-file lock-order pass over the whole set. This is the
/// in-memory core of [`lint_root`], exposed so tests can lint a
/// fabricated multi-file workspace.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel, source) in sources {
        lint_file(rel, source, &mut violations);
    }
    rule_lock_order(sources, &mut violations);
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    violations
}

/// Lints one file's source text (exposed for tests).
pub fn lint_file(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let views = lex_views(source);
    let starts = line_starts(source);
    let tests = test_ranges(&views.blanked);
    let raw_lines: Vec<&str> = views.raw.lines().collect();
    let code_lines: Vec<&str> = views.code.lines().collect();
    let test_file = is_test_path(rel);
    let krate = crate_of(rel);

    rule_unsafe(rel, &views, &starts, &raw_lines, &code_lines, out);
    rule_instant(rel, &views, &starts, krate, out);
    if !test_file {
        rule_epi8(rel, &views, &starts, &raw_lines, &code_lines, &tests, out);
        rule_atomic_ordering(rel, &views, &starts, &raw_lines, &code_lines, &tests, out);
    }
    if !test_file && krate.is_some_and(|c| UNWRAP_CRATES.contains(&c)) && rel.contains("/src/") {
        rule_unwrap(rel, &views, &starts, &tests, out);
    }
    if !test_file && krate != Some("telemetry") {
        rule_span_names(rel, &views, &starts, &tests, out);
    }
}

/// `unsafe` must carry a nearby `SAFETY:` justification (or a `# Safety`
/// doc section for `unsafe fn` contracts). The justification must be a
/// real comment — the marker inside a string literal does not count
/// ([`crate::lex::comment_contains`]).
fn rule_unsafe(
    rel: &str,
    views: &Views,
    starts: &[usize],
    raw_lines: &[&str],
    code_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    for at in find_word(&views.blanked, "unsafe") {
        let line = line_of(starts, at); // 1-based
        let documented = justified_in_window(
            raw_lines,
            code_lines,
            line,
            SAFETY_WINDOW,
            &["SAFETY:", "# Safety"],
        );
        if !documented {
            out.push(Violation {
                rule: RULE_UNSAFE,
                path: rel.to_string(),
                line,
                message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc) \
                          in the preceding lines"
                    .to_string(),
            });
        }
    }
}

/// int8 intrinsics (`_mm*epi8*`) must sit under a documented `SAFETY`
/// justification: the widening i8 loads in the quantized kernels read
/// eight bytes through raw pointers, so each call site inherits pointer
/// validity preconditions the comment must state.
fn rule_epi8(
    rel: &str,
    views: &Views,
    starts: &[usize],
    raw_lines: &[&str],
    code_lines: &[&str],
    tests: &[Range<usize>],
    out: &mut Vec<Violation>,
) {
    let bytes = views.blanked.as_bytes();
    let uses = use_ranges(&views.blanked);
    let mut from = 0;
    while let Some(pos) = views.blanked[from..].find("_mm") {
        let at = from + pos;
        // Expand to the full identifier and move the cursor past it.
        let mut end = at;
        while end < bytes.len() && is_ident_byte(bytes[end]) {
            end += 1;
        }
        from = end.max(at + 3);
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let ident = &views.blanked[at..end];
        if !ident.contains("epi8") || in_ranges(tests, at) {
            continue;
        }
        // `use core::arch::x86_64::{..., _mm256_cvtepi8_epi32, ...};` is
        // a name import (possibly spanning lines), not a call site.
        if in_ranges(&uses, at) {
            continue;
        }
        let line = line_of(starts, at); // 1-based
        let documented =
            justified_in_window(raw_lines, code_lines, line, EPI8_WINDOW, &["SAFETY", "# Safety"]);
        if !documented {
            out.push(Violation {
                rule: RULE_EPI8,
                path: rel.to_string(),
                line,
                message: format!(
                    "`{ident}` without a `SAFETY` comment in the preceding {EPI8_WINDOW} lines — \
                     document the pointer preconditions of the int8 kernel"
                ),
            });
        }
    }
}

/// Timing outside the telemetry crate goes through `telemetry::clock_ns`.
fn rule_instant(
    rel: &str,
    views: &Views,
    starts: &[usize],
    krate: Option<&str>,
    out: &mut Vec<Violation>,
) {
    if krate == Some("telemetry") {
        return;
    }
    let mut from = 0;
    while let Some(pos) = views.blanked[from..].find("Instant::now") {
        let at = from + pos;
        from = at + "Instant::now".len();
        out.push(Violation {
            rule: RULE_INSTANT,
            path: rel.to_string(),
            line: line_of(starts, at),
            message: "Instant::now outside crates/telemetry — use telemetry::clock_ns() \
                      so all timings share one origin"
                .to_string(),
        });
    }
}

/// Library code in the serving path returns typed errors, not panics.
fn rule_unwrap(
    rel: &str,
    views: &Views,
    starts: &[usize],
    tests: &[Range<usize>],
    out: &mut Vec<Violation>,
) {
    for pat in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(pos) = views.blanked[from..].find(pat) {
            let at = from + pos;
            from = at + pat.len();
            if in_ranges(tests, at) {
                continue;
            }
            out.push(Violation {
                rule: RULE_UNWRAP,
                path: rel.to_string(),
                line: line_of(starts, at),
                message: format!(
                    "`{}` in non-test library code — convert to a typed Result error",
                    pat.trim_end_matches('(')
                ),
            });
        }
    }
}

/// Telemetry names come from the `telemetry::schema` registry.
fn rule_span_names(
    rel: &str,
    views: &Views,
    starts: &[usize],
    tests: &[Range<usize>],
    out: &mut Vec<Violation>,
) {
    use telemetry::schema;
    // (call pattern, membership test, registry name for the message).
    // Gauges are the one prefix-based vocabulary (per-class monitor
    // gauges), so membership is a function, not a slice.
    type NameCheck = (&'static str, fn(&str) -> bool, &'static str);
    let checks: [NameCheck; 6] = [
        ("telemetry::span(", |n| schema::SPAN_NAMES.contains(&n), "SPAN_NAMES"),
        ("telemetry::kernel_span(", |n| schema::SPAN_NAMES.contains(&n), "SPAN_NAMES"),
        (
            "telemetry::count(",
            schema::counter_is_registered,
            "COUNTER_NAMES/COUNTER_PREFIXES",
        ),
        (
            "telemetry::observe(",
            |n| schema::HISTOGRAM_NAMES.contains(&n),
            "HISTOGRAM_NAMES",
        ),
        ("telemetry::event(", |n| schema::EVENT_NAMES.contains(&n), "EVENT_NAMES"),
        ("telemetry::gauge(", schema::gauge_is_registered, "GAUGE_NAMES/GAUGE_PREFIXES"),
    ];
    for (pat, registered, registry_name) in checks {
        let mut from = 0;
        // Locate call sites in the blanked view (so the pattern inside a
        // string or comment never matches), then read the argument from
        // the string-preserving view.
        while let Some(pos) = views.blanked[from..].find(pat) {
            let at = from + pos;
            from = at + pat.len();
            if in_ranges(tests, at) {
                continue;
            }
            // First argument must be a string literal to be checkable.
            let rest = &views.code[at + pat.len()..];
            let trimmed = rest.trim_start();
            if !trimmed.starts_with('"') {
                continue;
            }
            let Some(end) = trimmed[1..].find('"') else {
                continue;
            };
            let name = &trimmed[1..1 + end];
            if !registered(name) {
                out.push(Violation {
                    rule: RULE_SPAN,
                    path: rel.to_string(),
                    line: line_of(starts, at),
                    message: format!(
                        "telemetry name \"{name}\" is not in telemetry::schema::{registry_name} — \
                         register it so log consumers see a closed vocabulary"
                    ),
                });
            }
        }
    }
}

/// Relaxed atomics need a written justification: `Ordering::Relaxed` in
/// non-test code must have an `// ORDERING:` comment within the
/// preceding lines explaining why no synchronisation is needed at that
/// site. (Doc comments and strings are invisible here — the word is
/// matched in the blanked view.)
fn rule_atomic_ordering(
    rel: &str,
    views: &Views,
    starts: &[usize],
    raw_lines: &[&str],
    code_lines: &[&str],
    tests: &[Range<usize>],
    out: &mut Vec<Violation>,
) {
    for at in find_word(&views.blanked, "Relaxed") {
        if in_ranges(tests, at) {
            continue;
        }
        let line = line_of(starts, at); // 1-based
        let justified =
            justified_in_window(raw_lines, code_lines, line, ORDERING_WINDOW, &["ORDERING:"]);
        if !justified {
            out.push(Violation {
                rule: RULE_ORDERING,
                path: rel.to_string(),
                line,
                message: format!(
                    "`Ordering::Relaxed` without an `// ORDERING:` justification in the \
                     preceding {ORDERING_WINDOW} lines — state why relaxed semantics are \
                     sound here or use a stronger ordering"
                ),
            });
        }
    }
}

/// The receiver expression of a `.lock()` call, walking backwards from
/// the `.`: identifier segments, `.` / `::` separators, empty `()` call
/// suffixes (so `state().lock()` keys as `state()`), and whitespace at a
/// `.` chain boundary (so a multiline builder chain still resolves).
/// Returns `None` for receivers this lexical scan cannot name (indexing,
/// non-empty calls) — those sites are skipped, not flagged.
fn lock_receiver(blanked: &str, dot: usize) -> Option<String> {
    let bytes = blanked.as_bytes();
    let mut i = dot;
    let mut rev: Vec<u8> = Vec::new();
    while i > 0 {
        let b = bytes[i - 1];
        if is_ident_byte(b) || b == b'.' || b == b':' {
            rev.push(b);
            i -= 1;
        } else if b == b')' && i >= 2 && bytes[i - 2] == b'(' {
            rev.push(b')');
            rev.push(b'(');
            i -= 2;
        } else if b.is_ascii_whitespace() {
            // Whitespace only continues the receiver at a chain
            // boundary: nothing collected yet (`foo\n    .lock()`) or a
            // leading `.` collected so far (`self\n    .st.lock()`).
            if rev.last().is_some_and(|&c| c != b'.') {
                break;
            }
            i -= 1;
        } else {
            break;
        }
    }
    let recv: String = rev.iter().rev().map(|&b| b as char).collect();
    let recv = recv.trim_matches(|c| c == '.' || c == ':');
    if recv.is_empty() || !recv.bytes().any(is_ident_byte) {
        None
    } else {
        Some(recv.to_string())
    }
}

/// Cross-file lock-order pass: build the workspace acquisition-order
/// graph from every non-test function's lexical `.lock()` sequence
/// (keyed `crate::receiver`) and flag each cycle as a potential
/// deadlock. Over-approximate by design — guard drops between
/// acquisitions are not modelled; a justified false positive earns an
/// allowlist entry, and the `raal_sync` model checker is the oracle for
/// whether a flagged order really deadlocks.
fn rule_lock_order(sources: &[(String, String)], out: &mut Vec<Violation>) {
    let mut graph = LockOrderGraph::new();
    for (rel, source) in sources {
        if is_test_path(rel) {
            continue;
        }
        let Some(krate) = crate_of(rel) else { continue };
        let views = lex_views(source);
        let starts = line_starts(source);
        let tests = test_ranges(&views.blanked);
        let spans = fn_spans(&views.blanked);
        let mut per_fn: BTreeMap<usize, Vec<(String, usize)>> = BTreeMap::new();
        let mut from = 0;
        while let Some(pos) = views.blanked[from..].find(".lock()") {
            let at = from + pos;
            from = at + ".lock()".len();
            if in_ranges(&tests, at) {
                continue;
            }
            let Some(recv) = lock_receiver(&views.blanked, at) else {
                continue;
            };
            // Innermost containing function wins (nested fns attribute
            // to the nested item, not its parent).
            let Some(fi) = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.range.contains(&at))
                .min_by_key(|(_, s)| s.range.len())
                .map(|(i, _)| i)
            else {
                continue;
            };
            per_fn
                .entry(fi)
                .or_default()
                .push((format!("{krate}::{recv}"), line_of(&starts, at)));
        }
        for (fi, sites) in &per_fn {
            graph.add_sequence(&spans[*fi].name, rel, sites);
        }
    }
    for cycle in graph.cycles() {
        let n = cycle.nodes.len();
        let details: Vec<String> = cycle
            .witnesses
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "`{}` acquires {} then {} ({}:{})",
                    w.function,
                    cycle.nodes[i],
                    cycle.nodes[(i + 1) % n],
                    w.path,
                    w.line
                )
            })
            .collect();
        let w = &cycle.witnesses[0];
        out.push(Violation {
            rule: RULE_LOCK_ORDER,
            path: w.path.clone(),
            line: w.line,
            message: format!(
                "potential lock-order inversion {}: {}",
                cycle.describe(),
                details.join("; ")
            ),
        });
    }
}

/// The grandfathered-site allowlist: `(rule, path) -> allowed count`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Allowlist {
    entries: BTreeMap<(String, String), usize>,
}

impl Allowlist {
    /// Parses the TSV format (`rule<TAB>path<TAB>count`, `#` comments).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(rule), Some(path), Some(count)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("allowlist line {}: expected rule<TAB>path<TAB>count", i + 1));
            };
            let count: usize = count
                .trim()
                .parse()
                .map_err(|_| format!("allowlist line {}: bad count '{count}'", i + 1))?;
            entries.insert((rule.to_string(), path.to_string()), count);
        }
        Ok(Self { entries })
    }

    /// Loads from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Result<Self, String> {
        match fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// Renders the TSV format, sorted, with a header comment.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# raal-lint allowlist: grandfathered violations, one `rule<TAB>path<TAB>count`\n\
             # per line. The build fails if a file exceeds its allowance; counts may only\n\
             # ratchet down (regenerate with `cargo run -p analysis --bin raal-lint -- --update`).\n",
        );
        for ((rule, path), count) in &self.entries {
            out.push_str(&format!("{rule}\t{path}\t{count}\n"));
        }
        out
    }

    /// Builds an allowlist that exactly covers `violations`.
    pub fn covering(violations: &[Violation]) -> Self {
        let mut entries: BTreeMap<(String, String), usize> = BTreeMap::new();
        for v in violations {
            *entries.entry((v.rule.to_string(), v.path.clone())).or_default() += 1;
        }
        Self { entries }
    }

    /// Total allowed count across all entries.
    pub fn total(&self) -> usize {
        self.entries.values().sum()
    }
}

/// Result of comparing actual findings against the allowlist.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings in files over (or absent from) their allowance. Fails
    /// the lint.
    pub over: Vec<Violation>,
    /// `(rule, path, allowed, actual)` where the allowance exceeds
    /// reality — the ratchet must be tightened.
    pub stale: Vec<(String, String, usize, usize)>,
    /// Findings covered by an exact allowance (grandfathered).
    pub grandfathered: usize,
}

/// Applies the ratchet: per `(rule, path)`, actual count must not exceed
/// the allowance; allowances above the actual count are reported stale.
pub fn apply_allowlist(violations: &[Violation], allow: &Allowlist) -> Outcome {
    let mut actual: BTreeMap<(String, String), Vec<&Violation>> = BTreeMap::new();
    for v in violations {
        actual
            .entry((v.rule.to_string(), v.path.clone()))
            .or_default()
            .push(v);
    }
    let mut outcome = Outcome::default();
    for (key, found) in &actual {
        let allowed = allow.entries.get(key).copied().unwrap_or(0);
        if found.len() > allowed {
            outcome.over.extend(found.iter().map(|v| (*v).clone()));
        } else {
            outcome.grandfathered += found.len();
            if found.len() < allowed {
                outcome
                    .stale
                    .push((key.0.clone(), key.1.clone(), allowed, found.len()));
            }
        }
    }
    for (key, &allowed) in &allow.entries {
        if !actual.contains_key(key) && allowed > 0 {
            outcome.stale.push((key.0.clone(), key.1.clone(), allowed, 0));
        }
    }
    outcome.stale.sort();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        lint_file(rel, src, &mut out);
        out
    }

    #[test]
    fn undocumented_unsafe_is_flagged() {
        let v =
            lint_str("crates/nn/src/x.rs", "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_UNSAFE);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_satisfies_the_rule() {
        let v = lint_str(
            "crates/nn/src/x.rs",
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    \
             unsafe { *p }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn safety_marker_inside_raw_string_does_not_justify() {
        // The justification window reads the *comment* view; a SAFETY:
        // marker smuggled in via a raw string literal is data, not a
        // justification.
        let v = lint_str(
            "crates/nn/src/x.rs",
            "fn f(p: *const u8) -> u8 {\n    let _s = r#\"SAFETY: not a comment\"#;\n    \
             unsafe { *p }\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_UNSAFE);
    }

    #[test]
    fn safety_comment_inside_nested_block_comment_still_counts() {
        // Nested block comments are comments all the way down; the
        // marker is visible to the comment view wherever it sits.
        let v = lint_str(
            "crates/nn/src/x.rs",
            "fn f(p: *const u8) -> u8 {\n    /* outer /* inner */ SAFETY: fine */\n    \
             unsafe { *p }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_inside_raw_string_is_not_flagged() {
        let v = lint_str(
            "crates/encoding/src/x.rs",
            "pub fn f() -> &'static str { r##\"x.unwrap() is just text\"## }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn safety_doc_section_satisfies_the_rule() {
        let v = lint_str(
            "crates/nn/src/x.rs",
            "/// # Safety\n/// `p` must be valid.\n#[inline]\npub unsafe fn f(p: *const u8) {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let v = lint_str(
            "crates/nn/src/x.rs",
            "// this mentions unsafe code\nfn f() { let _ = \"unsafe { }\"; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn instant_now_flagged_outside_telemetry() {
        let src = "fn f() { let _t = std::time::Instant::now(); }\n";
        let v = lint_str("crates/core/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == RULE_INSTANT));
        let v = lint_str("crates/telemetry/src/lib.rs", src);
        assert!(v.iter().all(|v| v.rule != RULE_INSTANT));
    }

    #[test]
    fn unwrap_flagged_only_in_lib_code_of_listed_crates() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(lint_str("crates/sparksim/src/x.rs", src).len(), 1);
        // workloads is not on the no-panic list.
        assert!(lint_str("crates/workloads/src/x.rs", src).is_empty());
        // Integration tests are exempt.
        assert!(lint_str("crates/sparksim/tests/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_inside_cfg_test_module_is_exempt() {
        let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { \
                   Some(1).unwrap(); }\n}\n";
        let v = lint_str("crates/nn/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn expect_outside_test_module_is_flagged() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }\n\n\
                   #[cfg(test)]\nmod tests {}\n";
        let v = lint_str("crates/encoding/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_UNWRAP);
    }

    #[test]
    fn unregistered_span_name_is_flagged() {
        let v = lint_str(
            "crates/core/src/x.rs",
            "fn f() { let _s = telemetry::span(\"made.up.name\"); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_SPAN);
        assert!(v[0].message.contains("made.up.name"));
    }

    #[test]
    fn registered_span_name_passes() {
        let v = lint_str(
            "crates/core/src/x.rs",
            "fn f() { let _s = telemetry::span(\"train.run\"); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn gauge_names_check_exact_and_prefix_vocabularies() {
        // Exact name and a registered per-class prefix both pass.
        for name in ["train.loss", "monitor.mae.scan_join"] {
            let v = lint_str(
                "crates/core/src/x.rs",
                &format!("fn f() {{ telemetry::gauge(\"{name}\", 1.0); }}\n"),
            );
            assert!(v.is_empty(), "{name}: {v:?}");
        }
        // Unregistered names fail — including a prefix with no class.
        for name in ["made.up.gauge", "monitor.mae."] {
            let v = lint_str(
                "crates/core/src/x.rs",
                &format!("fn f() {{ telemetry::gauge(\"{name}\", 1.0); }}\n"),
            );
            assert_eq!(v.len(), 1, "{name}: {v:?}");
            assert_eq!(v[0].rule, RULE_SPAN);
        }
    }

    #[test]
    fn span_names_in_tests_are_unchecked() {
        let v = lint_str(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() { let _s = telemetry::span(\"adhoc\"); }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn dynamic_span_names_are_skipped() {
        let v = lint_str(
            "crates/core/src/x.rs",
            "fn f(name: &'static str) { let _s = telemetry::span(name); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn multiline_event_name_is_checked() {
        let v = lint_str(
            "crates/core/src/x.rs",
            "fn f() {\n    telemetry::event(\n        \"not.a.real.event\",\n        &[],\n    );\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn undocumented_epi8_intrinsic_is_flagged() {
        // SAFETY-less target_feature fn: the `unsafe` rule is satisfied
        // by the doc section, but the epi8 rule still needs "SAFETY".
        let src = "/// # Preconditions\npub fn f(p: *const i8) {\n    let _v = unsafe { \
                   _mm256_cvtepi8_epi32(_mm_loadl_epi64(p as *const __m128i)) };\n}\n";
        let v = lint_str("crates/nn/src/infer/quant.rs", src);
        assert!(v.iter().any(|v| v.rule == RULE_EPI8), "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("_mm256_cvtepi8_epi32")), "{v:?}");
    }

    #[test]
    fn safety_comment_covers_epi8_intrinsics() {
        let src = "pub fn f(p: *const i8) {\n    // SAFETY: caller guarantees 8 readable bytes \
                   at p.\n    let _v = unsafe { _mm256_cvtepi8_epi32(core::mem::zeroed()) };\n}\n";
        let v = lint_str("crates/nn/src/infer/quant.rs", src);
        assert!(v.iter().all(|v| v.rule != RULE_EPI8), "{v:?}");
    }

    #[test]
    fn epi8_use_declaration_is_exempt() {
        let src = "use core::arch::x86_64::_mm256_cvtepi8_epi32;\n";
        let v = lint_str("crates/nn/src/infer/quant.rs", src);
        assert!(v.is_empty(), "{v:?}");
        // Grouped imports spanning lines are equally exempt.
        let src = "use core::arch::x86_64::{\n    __m256, _mm256_cvtepi8_epi32,\n    \
                   _mm256_fmadd_ps,\n};\n";
        let v = lint_str("crates/nn/src/infer/quant.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn safety_doc_section_covers_epi8_intrinsics() {
        let src = "/// # Safety\n/// `p..p+8` must be readable.\n#[target_feature(enable = \
                   \"avx2\")]\nunsafe fn f(p: *const i8) {\n    let _ = \
                   _mm256_cvtepi8_epi32(core::mem::zeroed());\n}\n";
        let v = lint_str("crates/nn/src/infer/quant.rs", src);
        assert!(v.iter().all(|v| v.rule != RULE_EPI8), "{v:?}");
    }

    #[test]
    fn epi8_in_tests_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = \
                   unsafe { _mm256_cvtepi8_epi32(core::mem::zeroed()) }; }\n}\n";
        let v = lint_str("crates/nn/src/infer/quant.rs", src);
        assert!(v.iter().all(|v| v.rule != RULE_EPI8), "{v:?}");
    }

    #[test]
    fn non_epi8_intrinsics_are_not_flagged_by_epi8_rule() {
        let src = "fn f() {\n    // SAFETY: fine.\n    let _ = unsafe { \
                   _mm256_fmadd_ps(core::mem::zeroed(), core::mem::zeroed(), \
                   core::mem::zeroed()) };\n}\n";
        let v = lint_str("crates/nn/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != RULE_EPI8), "{v:?}");
    }

    #[test]
    fn relaxed_without_justification_is_flagged() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   static N: AtomicU64 = AtomicU64::new(0);\n\
                   pub fn next() -> u64 { N.fetch_add(1, Ordering::Relaxed) }\n";
        let v = lint_str("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_ORDERING);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn ordering_comment_satisfies_the_rule() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   static N: AtomicU64 = AtomicU64::new(0);\n\
                   // ORDERING: Relaxed — unique-id counter, nothing else published.\n\
                   pub fn next() -> u64 { N.fetch_add(1, Ordering::Relaxed) }\n";
        let v = lint_str("crates/core/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn relaxed_in_tests_and_doc_comments_is_exempt() {
        // In a #[cfg(test)] module: unchecked.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { \
                   N.load(std::sync::atomic::Ordering::Relaxed); }\n}\n";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
        // In a doc comment: invisible to the blanked view.
        let src = "//! Mentions `Ordering::Relaxed` in prose only.\n";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
        // In an integration test file: unchecked.
        let src = "fn t() { N.load(std::sync::atomic::Ordering::Relaxed); }\n";
        assert!(lint_str("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn stronger_orderings_need_no_justification() {
        let src = "use std::sync::atomic::{AtomicBool, Ordering};\n\
                   static F: AtomicBool = AtomicBool::new(false);\n\
                   pub fn set() { F.store(true, Ordering::Release); }\n";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn inverted_lock_order_across_files_is_flagged() {
        let sources = vec![
            (
                "crates/core/src/a.rs".to_string(),
                "pub fn forward() {\n    let _a = self.alpha.lock();\n    \
                 let _b = self.beta.lock();\n}\n"
                    .to_string(),
            ),
            (
                "crates/core/src/b.rs".to_string(),
                "pub fn backward() {\n    let _b = self.beta.lock();\n    \
                 let _a = self.alpha.lock();\n}\n"
                    .to_string(),
            ),
        ];
        let v = lint_sources(&sources);
        let cycles: Vec<_> = v.iter().filter(|v| v.rule == RULE_LOCK_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{v:?}");
        assert!(cycles[0].message.contains("core::self.alpha"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("`forward`"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("`backward`"), "{}", cycles[0].message);
    }

    #[test]
    fn consistent_lock_order_passes() {
        let sources = vec![
            (
                "crates/core/src/a.rs".to_string(),
                "pub fn f() {\n    let _a = self.alpha.lock();\n    \
                 let _b = self.beta.lock();\n}\n"
                    .to_string(),
            ),
            (
                "crates/core/src/b.rs".to_string(),
                "pub fn g() {\n    let _a = self.alpha.lock();\n    \
                 let _b = self.beta.lock();\n}\n"
                    .to_string(),
            ),
        ];
        let v = lint_sources(&sources);
        assert!(v.iter().all(|v| v.rule != RULE_LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn same_receiver_in_different_crates_does_not_collide() {
        // `state.lock()` in two crates, opposite relative order with a
        // second lock — but the keys are crate-qualified, so no cycle.
        let sources = vec![
            (
                "crates/core/src/a.rs".to_string(),
                "pub fn f() {\n    let _a = state.lock();\n    let _b = extra.lock();\n}\n"
                    .to_string(),
            ),
            (
                "crates/sparksim/src/b.rs".to_string(),
                "pub fn g() {\n    let _b = extra.lock();\n    let _a = state.lock();\n}\n"
                    .to_string(),
            ),
        ];
        let v = lint_sources(&sources);
        assert!(v.iter().all(|v| v.rule != RULE_LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn lock_order_ignores_tests_and_repeat_acquisitions() {
        let sources = vec![
            (
                "crates/core/src/a.rs".to_string(),
                // Same lock twice: no self-edge. Inverted pair inside a
                // #[cfg(test)] module: exempt.
                "pub fn f() {\n    let _a = m.lock();\n    let _b = m.lock();\n}\n\
                 #[cfg(test)]\nmod tests {\n    fn t() {\n        let _b = beta.lock();\n        \
                 let _a = alpha.lock();\n    }\n}\n"
                    .to_string(),
            ),
            (
                "crates/core/src/b.rs".to_string(),
                "pub fn g() {\n    let _a = alpha.lock();\n    let _b = beta.lock();\n}\n"
                    .to_string(),
            ),
        ];
        let v = lint_sources(&sources);
        assert!(v.iter().all(|v| v.rule != RULE_LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn multiline_chained_lock_receiver_resolves() {
        // `.lock()` on its own line still keys by the receiver above it.
        let sources = vec![(
            "crates/core/src/a.rs".to_string(),
            "pub fn f() {\n    self.alpha\n        .lock();\n    self.beta.lock();\n}\n\
             pub fn g() {\n    self.beta.lock();\n    self.alpha.lock();\n}\n"
                .to_string(),
        )];
        let v = lint_sources(&sources);
        assert!(v.iter().any(|v| v.rule == RULE_LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn lock_receiver_extraction_cases() {
        let cases: &[(&str, Option<&str>)] = &[
            ("let g = state().lock();", Some("state()")),
            ("let g = self.q.lock();", Some("self.q")),
            ("let g = STATE.lock();", Some("STATE")),
            ("let g = crate::st::STATE.lock();", Some("crate::st::STATE")),
            ("self.0.lock();", Some("self.0")),
            // Unresolvable receivers are skipped, not misattributed.
            ("let g = chans[i].lock();", None),
            ("let g = get(i).lock();", None),
        ];
        for (src, want) in cases {
            let views = lex_views(src);
            let at = views.blanked.find(".lock()").unwrap();
            let got = lock_receiver(&views.blanked, at);
            assert_eq!(got.as_deref(), *want, "src: {src}");
        }
    }

    #[test]
    fn allowlist_ratchet_math() {
        let vs = vec![
            Violation {
                rule: RULE_UNWRAP,
                path: "crates/nn/src/a.rs".into(),
                line: 1,
                message: String::new(),
            },
            Violation {
                rule: RULE_UNWRAP,
                path: "crates/nn/src/a.rs".into(),
                line: 2,
                message: String::new(),
            },
        ];
        // Exact allowance: grandfathered.
        let allow = Allowlist::parse("unwrap-in-lib\tcrates/nn/src/a.rs\t2\n").unwrap();
        let o = apply_allowlist(&vs, &allow);
        assert!(o.over.is_empty());
        assert_eq!(o.grandfathered, 2);
        assert!(o.stale.is_empty());
        // Over allowance: fails.
        let allow = Allowlist::parse("unwrap-in-lib\tcrates/nn/src/a.rs\t1\n").unwrap();
        assert_eq!(apply_allowlist(&vs, &allow).over.len(), 2);
        // Stale allowance: ratchet must tighten.
        let allow = Allowlist::parse("unwrap-in-lib\tcrates/nn/src/a.rs\t5\n").unwrap();
        let o = apply_allowlist(&vs, &allow);
        assert!(o.over.is_empty());
        assert_eq!(o.stale, vec![("unwrap-in-lib".into(), "crates/nn/src/a.rs".into(), 5, 2)]);
        // Entry for a clean file: stale.
        let o = apply_allowlist(&[], &allow);
        assert_eq!(o.stale.len(), 1);
    }

    #[test]
    fn allowlist_round_trips() {
        let a =
            Allowlist::parse("unwrap-in-lib\tx.rs\t3\n# comment\nspan-names\ty.rs\t1\n").unwrap();
        let b = Allowlist::parse(&a.render()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn raw_strings_and_chars_lex_cleanly() {
        let v = lint_str(
            "crates/nn/src/x.rs",
            "fn f() { let _a = r#\"x.unwrap() unsafe\"#; let _b = '\"'; let _c: &'static str = \"ok\"; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
