//! End-to-end checks of the hot-path reachability analysis against the
//! *real* workspace sources — including the negative controls CI relies
//! on: injecting a fresh panic or allocation site into a hot serving
//! function must push that file over its allowance.

use analysis::lint::{apply_allowlist, collect_sources, Allowlist};
use analysis::panic::{check_sources, RULE_HOT_ALLOC, RULE_HOT_PANIC};
use std::path::Path;

/// Workspace root (two levels up from this crate's manifest).
fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn workspace_sources() -> Vec<(String, String)> {
    let sources = collect_sources(root()).expect("workspace sources readable");
    assert!(
        sources.iter().any(|(p, _)| p.ends_with("serving/shard.rs")),
        "expected the serving service among {} sources",
        sources.len()
    );
    sources
}

fn hotpath_allowlist() -> Allowlist {
    Allowlist::load(&root().join("hotpath-allowlist.tsv")).expect("allowlist parses")
}

/// The committed tree itself must be clean: every reachable panic /
/// alloc site is either justified inline or grandfathered.
#[test]
fn workspace_is_clean_under_allowlist() {
    let violations = check_sources(&workspace_sources());
    let outcome = apply_allowlist(&violations, &hotpath_allowlist());
    assert!(
        outcome.over.is_empty(),
        "unjustified hot-path findings:\n{}",
        outcome
            .over
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Splices `payload` into `ShardedServing::answer`'s body
/// — the one request path every serving call takes — in memory only,
/// and returns the doctored source set.
fn inject_into_serving(payload: &str) -> Vec<(String, String)> {
    let anchor = "let _span = telemetry::span(\"serving.predict\");";
    let mut sources = workspace_sources();
    let mut hit = false;
    for (path, text) in &mut sources {
        if path.ends_with("crates/core/src/serving/shard.rs") {
            assert!(text.contains(anchor), "anchor line moved; update this test");
            *text = text.replace(anchor, &format!("{anchor}\n        {payload}"));
            hit = true;
        }
    }
    assert!(hit, "serving module not found");
    sources
}

/// Negative control: a fresh, unjustified `unwrap()` reachable from
/// `ShardedServing::predict` must fail the ratchet.
#[test]
fn injected_unwrap_is_caught() {
    let sources = inject_into_serving("let _poisoned = plans.first().unwrap();");
    let violations = check_sources(&sources);
    let outcome = apply_allowlist(&violations, &hotpath_allowlist());
    assert!(
        outcome.over.iter().any(|v| {
            v.rule == RULE_HOT_PANIC
                && v.path.ends_with("serving/shard.rs")
                && v.message.contains(".unwrap()")
        }),
        "injected unwrap not flagged; over = {:?}",
        outcome.over.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
}

/// Negative control: a fresh, unjustified allocation (`Vec::new` +
/// `push`) reachable from `ShardedServing::predict` must fail the ratchet.
#[test]
fn injected_alloc_is_caught() {
    let sources = inject_into_serving(
        "let mut _poisoned: Vec<u32> = Vec::new();\n        _poisoned.push(1);",
    );
    let violations = check_sources(&sources);
    let outcome = apply_allowlist(&violations, &hotpath_allowlist());
    let hits: Vec<_> = outcome
        .over
        .iter()
        .filter(|v| v.rule == RULE_HOT_ALLOC && v.path.ends_with("serving/shard.rs"))
        .collect();
    assert!(
        hits.iter().any(|v| v.message.contains("Vec::new"))
            && hits.iter().any(|v| v.message.contains(".push")),
        "injected allocation not flagged; over = {:?}",
        outcome.over.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
}

/// A justification comment on the injected site silences it — the
/// analyzer reacts to the tag, not to luck.
#[test]
fn justified_injection_is_accepted() {
    let sources = inject_into_serving(
        "// PANIC-FREE: negative-control probe, never merged.\n        \
         let _poisoned = plans.first().unwrap();",
    );
    let violations = check_sources(&sources);
    let outcome = apply_allowlist(&violations, &hotpath_allowlist());
    assert!(
        outcome.over.is_empty(),
        "justified injection still flagged: {:?}",
        outcome.over.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
}
