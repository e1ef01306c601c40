//! `raal-lint`: source-level enforcement of repo invariants.
//!
//! A zero-external-dependency linter that scans the workspace's Rust
//! sources and enforces rules the compiler cannot. Each rule names the
//! unit test below that is its negative control — a fabricated source
//! the rule must flag:
//!
//! * **`unsafe-safety`** — every `unsafe` keyword (block, fn, impl) is
//!   preceded by a `// SAFETY:` comment or a `# Safety` doc section
//!   within the preceding lines, so each unsafe site documents the
//!   preconditions it relies on. Control:
//!   `undocumented_unsafe_is_flagged`.
//! * **`instant-now`** — no `Instant::now` outside `crates/telemetry`;
//!   all timing goes through the telemetry clock so event logs share one
//!   origin. Control: `instant_now_flagged_outside_telemetry`.
//! * **`unwrap-in-lib`** — no `.unwrap()` / `.expect(` in non-test
//!   library code of `sparksim`, `nn`, `core` and `encoding`; serving
//!   paths return typed errors instead of panicking. Control:
//!   `expect_outside_test_module_is_flagged`.
//! * **`span-names`** — telemetry span/counter/histogram/event names in
//!   non-test code are drawn from the [`telemetry::schema`] registry, so
//!   downstream log consumers can rely on a closed vocabulary. Control:
//!   `unregistered_span_name_is_flagged`.
//! * **`i8-intrinsic-safety`** — every `_mm*epi8*` intrinsic call site
//!   (the int8 kernel's widening loads and conversions) sits
//!   inside a block documented by a `SAFETY` comment within the
//!   preceding lines; `use` declarations are exempt. Control:
//!   `undocumented_epi8_intrinsic_is_flagged`.
//! * **`atomic-ordering`** — every `Ordering::Relaxed` in non-test code
//!   carries a `// ORDERING:` comment in the preceding lines justifying
//!   why relaxed semantics are sound at that site. Stronger orderings
//!   are self-documenting; `Relaxed` is where the bugs hide. Control:
//!   `relaxed_without_justification_is_flagged`.
//!
//! Every finding fails `raal-lint`; there is no allowlist.
//!
//! The scanner is deliberately lexical: it strips comments and string
//! literals with a small state machine rather than parsing Rust, which
//! is robust across editions and keeps the binary dependency-free.

use crate::lex::{
    crate_of, find_word, in_ranges, is_ident_byte, is_test_path, justified_in_window, lex_views,
    line_of, line_starts, test_ranges, use_ranges, Views,
};
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

/// Lints every Rust source under `root`, returning findings sorted by
/// path and line.
pub fn lint_root(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        lint_file(&rel, &fs::read_to_string(path)?, &mut violations);
    }
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(violations)
}

/// One file under lint: its lexed views and the tables every rule reads.
struct File<'a> {
    rel: &'a str,
    views: &'a Views,
    starts: Vec<usize>,
    tests: Vec<Range<usize>>,
    raw_lines: Vec<&'a str>,
    code_lines: Vec<&'a str>,
}

impl File<'_> {
    /// Whether any of `pats` sits in a comment within `window` lines
    /// above (or on) the 1-based `line` ([`justified_in_window`]).
    fn justified(&self, line: usize, window: usize, pats: &[&str]) -> bool {
        justified_in_window(&self.raw_lines, &self.code_lines, line, window, pats)
    }

    fn in_test(&self, at: usize) -> bool {
        in_ranges(&self.tests, at)
    }

    fn line(&self, at: usize) -> usize {
        line_of(&self.starts, at)
    }

    fn flag(&self, out: &mut Vec<Violation>, rule: &'static str, line: usize, message: String) {
        out.push(Violation { rule, path: self.rel.to_string(), line, message });
    }
}

/// Lints one file's source text (exposed for tests).
pub fn lint_file(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let views = lex_views(source);
    let f = File {
        rel,
        views: &views,
        starts: line_starts(source),
        tests: test_ranges(&views.blanked),
        raw_lines: views.raw.lines().collect(),
        code_lines: views.code.lines().collect(),
    };
    let test_file = is_test_path(rel);
    let krate = crate_of(rel);

    rule_unsafe(&f, out);
    if krate != Some("telemetry") {
        rule_instant(&f, out);
    }
    if !test_file {
        rule_epi8(&f, out);
        rule_atomic_ordering(&f, out);
    }
    if !test_file && krate.is_some_and(|c| UNWRAP_CRATES.contains(&c)) && rel.contains("/src/") {
        rule_unwrap(&f, out);
    }
    if !test_file && krate != Some("telemetry") {
        rule_span_names(&f, out);
    }
}

/// `unsafe` must carry a nearby `SAFETY:` justification (or a `# Safety`
/// doc section for `unsafe fn` contracts). The justification must be a
/// real comment — the marker inside a string literal does not count
/// ([`crate::lex::comment_contains`]).
fn rule_unsafe(f: &File, out: &mut Vec<Violation>) {
    for at in find_word(&f.views.blanked, "unsafe") {
        let line = f.line(at);
        if !f.justified(line, SAFETY_WINDOW, &["SAFETY:", "# Safety"]) {
            let message = "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc) in the \
                           preceding lines";
            f.flag(out, RULE_UNSAFE, line, message.to_string());
        }
    }
}

/// int8 intrinsics (`_mm*epi8*`) must sit under a documented `SAFETY`
/// justification: the widening i8 loads in the quantized kernels read
/// eight bytes through raw pointers, so each call site inherits pointer
/// validity preconditions the comment must state.
fn rule_epi8(f: &File, out: &mut Vec<Violation>) {
    let blanked = &f.views.blanked;
    let bytes = blanked.as_bytes();
    let uses = use_ranges(blanked);
    let mut from = 0;
    while let Some(pos) = blanked[from..].find("_mm") {
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
        let ident = &blanked[at..end];
        if !ident.contains("epi8") || f.in_test(at) {
            continue;
        }
        // `use core::arch::x86_64::{..., _mm256_cvtepi8_epi32, ...};` is
        // a name import (possibly spanning lines), not a call site.
        if in_ranges(&uses, at) {
            continue;
        }
        let line = f.line(at);
        if !f.justified(line, EPI8_WINDOW, &["SAFETY", "# Safety"]) {
            let message = format!(
                "`{ident}` without a `SAFETY` comment in the preceding {EPI8_WINDOW} lines — \
                 document the pointer preconditions of the int8 kernel"
            );
            f.flag(out, RULE_EPI8, line, message);
        }
    }
}

/// Timing outside the telemetry crate goes through `telemetry::clock_ns`.
fn rule_instant(f: &File, out: &mut Vec<Violation>) {
    let mut from = 0;
    while let Some(pos) = f.views.blanked[from..].find("Instant::now") {
        let at = from + pos;
        from = at + "Instant::now".len();
        let message = "Instant::now outside crates/telemetry — use telemetry::clock_ns() so all \
                       timings share one origin";
        f.flag(out, RULE_INSTANT, f.line(at), message.to_string());
    }
}

/// Library code in the serving path returns typed errors, not panics.
fn rule_unwrap(f: &File, out: &mut Vec<Violation>) {
    for pat in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(pos) = f.views.blanked[from..].find(pat) {
            let at = from + pos;
            from = at + pat.len();
            if f.in_test(at) {
                continue;
            }
            let message = format!(
                "`{}` in non-test library code — convert to a typed Result error",
                pat.trim_end_matches('(')
            );
            f.flag(out, RULE_UNWRAP, f.line(at), message);
        }
    }
}

/// Telemetry names come from the `telemetry::schema` registry.
fn rule_span_names(f: &File, out: &mut Vec<Violation>) {
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
        while let Some(pos) = f.views.blanked[from..].find(pat) {
            let at = from + pos;
            from = at + pat.len();
            if f.in_test(at) {
                continue;
            }
            // First argument must be a string literal to be checkable.
            let rest = &f.views.code[at + pat.len()..];
            let trimmed = rest.trim_start();
            if !trimmed.starts_with('"') {
                continue;
            }
            let Some(end) = trimmed[1..].find('"') else {
                continue;
            };
            let name = &trimmed[1..1 + end];
            if !registered(name) {
                let message = format!(
                    "telemetry name \"{name}\" is not in telemetry::schema::{registry_name} — \
                     register it so log consumers see a closed vocabulary"
                );
                f.flag(out, RULE_SPAN, f.line(at), message);
            }
        }
    }
}

/// Relaxed atomics need a written justification: `Ordering::Relaxed` in
/// non-test code must have an `// ORDERING:` comment within the
/// preceding lines explaining why no synchronisation is needed at that
/// site. (Doc comments and strings are invisible here — the word is
/// matched in the blanked view.)
fn rule_atomic_ordering(f: &File, out: &mut Vec<Violation>) {
    for at in find_word(&f.views.blanked, "Relaxed") {
        if f.in_test(at) {
            continue;
        }
        let line = f.line(at);
        if !f.justified(line, ORDERING_WINDOW, &["ORDERING:"]) {
            let message = format!(
                "`Ordering::Relaxed` without an `// ORDERING:` justification in the preceding \
                 {ORDERING_WINDOW} lines — state why relaxed semantics are sound here or use a \
                 stronger ordering"
            );
            f.flag(out, RULE_ORDERING, line, message);
        }
    }
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
    fn raw_strings_and_chars_lex_cleanly() {
        let v = lint_str(
            "crates/nn/src/x.rs",
            "fn f() { let _a = r#\"x.unwrap() unsafe\"#; let _b = '\"'; let _c: &'static str = \"ok\"; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
