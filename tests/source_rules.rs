//! The two source rules clippy has no lint for (the other four are the root
//! `Cargo.toml`'s `[workspace.lints]` and `clippy.toml`). Both read the lines
//! of a non-test `.rs` file before its first `#[cfg(test)]`, `//` comments cut:
//! `Relaxed` needs an `// ORDERING:` comment on its line or in the 8 above,
//! and a literal name passed to `telemetry::{span,kernel_span,count,observe,
//! event,gauge}` must be in `telemetry::schema`, a closed vocabulary. The
//! reverse holds too: every exact name the schema registers is a string
//! literal somewhere in those lines outside the schema.

use std::fs;
use std::path::{Path, PathBuf};
use telemetry::schema;

/// Telemetry calls whose first argument names a registry entry.
type Registered = fn(&str) -> bool;
const NAME_CHECKS: [(&str, Registered); 6] = [
    ("telemetry::span(", |n| schema::SPAN_NAMES.contains(&n)),
    ("telemetry::kernel_span(", |n| schema::SPAN_NAMES.contains(&n)),
    ("telemetry::count(", schema::counter_is_registered),
    ("telemetry::observe(", |n| schema::HISTOGRAM_NAMES.contains(&n)),
    ("telemetry::event(", |n| schema::EVENT_NAMES.contains(&n)),
    ("telemetry::gauge(", schema::gauge_is_registered),
];

/// A file's lines before its first `#[cfg(test)]`.
fn non_test(src: &str) -> Vec<&str> {
    src.lines().take_while(|l| l.trim_start() != "#[cfg(test)]").collect()
}

/// A line with its `//` comment cut.
fn code_of(line: &str) -> &str {
    line.find("//").map_or(line, |c| &line[..c])
}

/// Both rules' findings in one file's source, as `(1-based line, message)`.
fn findings(src: &str) -> Vec<(usize, String)> {
    let raw = non_test(src);
    let code: Vec<&str> = raw.iter().map(|l| code_of(l)).collect();
    let justified = |l: &&str| l.find("//").is_some_and(|c| l[c..].contains("ORDERING:"));
    let mut out = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let mut words = line.split(|c: char| !c.is_alphanumeric() && c != '_');
        if words.any(|w| w == "Relaxed") && !raw[i.saturating_sub(8)..=i].iter().any(justified) {
            out.push((i + 1, "`Relaxed` without an `// ORDERING:` justification".to_string()));
        }
        for (call, registered) in NAME_CHECKS {
            for (at, _) in line.match_indices(call) {
                let mut arg = line[at + call.len()..].trim_start();
                if arg.is_empty() {
                    arg = code.get(i + 1).map_or("", |next| next.trim_start());
                }
                let name = arg.strip_prefix('"').and_then(|a| a.split('"').next());
                if let Some(name) = name.filter(|n| !registered(n)) {
                    out.push((i + 1, format!("\"{name}\" is not in telemetry::schema")));
                }
            }
        }
    }
    out
}

/// Appends every `.rs` file under `dir` except build output, vendored
/// stand-ins, results, integration tests, benches and hidden directories.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    const SKIP: [&str; 5] = ["target", "vendor", "results", "tests", "benches"];
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let entry = entry.expect("directory entry");
        let (path, name) = (entry.path(), entry.file_name().to_string_lossy().into_owned());
        if path.is_dir() && !name.starts_with('.') && !SKIP.contains(&name.as_str()) {
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn workspace_sources_keep_both_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    let mut violations = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).expect("utf-8 source");
        let rel = path.strip_prefix(root).unwrap_or(path).display();
        violations.extend(findings(&src).into_iter().map(|(l, m)| format!("{rel}:{l}: {m}")));
    }
    // The walk reached every workspace crate, whatever their file count.
    for krate in fs::read_dir(root.join("crates")).expect("crates directory") {
        let lib = krate.expect("directory entry").path().join("src/lib.rs");
        assert!(files.contains(&lib), "the walk missed {}", lib.display());
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

#[test]
fn every_registered_name_has_an_emitter() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    files.retain(|path| !path.ends_with("telemetry/src/schema.rs"));
    let mut code = String::new();
    for path in &files {
        for line in non_test(&fs::read_to_string(path).expect("utf-8 source")) {
            code.push_str(code_of(line));
            code.push('\n');
        }
    }
    let registered = [
        schema::SPAN_NAMES,
        schema::COUNTER_NAMES,
        schema::HISTOGRAM_NAMES,
        schema::GAUGE_NAMES,
        schema::EVENT_NAMES,
    ];
    let unemitted: Vec<&str> = registered
        .concat()
        .into_iter()
        .filter(|n| !code.contains(&format!("\"{n}\"")))
        .collect();
    assert!(unemitted.is_empty(), "registered, but no source emits: {unemitted:?}");
}

fn flagged_lines(src: &str) -> Vec<usize> {
    findings(src).into_iter().map(|(line, _)| line).collect()
}

const COUNTER: &str = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                       static N: AtomicU64 = AtomicU64::new(0);\n";

#[test]
fn relaxed_without_justification_is_flagged() {
    let src = format!("{COUNTER}pub fn next() -> u64 {{ N.fetch_add(1, Ordering::Relaxed) }}\n");
    assert_eq!(flagged_lines(&src), [3]);
}

#[test]
fn ordering_comment_satisfies_the_rule() {
    let src = format!(
        "{COUNTER}// ORDERING: Relaxed — unique-id counter, nothing else published.\n\
         pub fn next() -> u64 {{ N.fetch_add(1, Ordering::Relaxed) }}\n"
    );
    assert_eq!(findings(&src), []);
    // Prose and test modules are exempt; stronger orderings need nothing.
    let src = "//! `Ordering::Relaxed` in prose.\nfn f() { F.store(true, Release); }\n\
               #[cfg(test)]\nmod tests { fn t() { N.load(Ordering::Relaxed); } }\n";
    assert_eq!(findings(src), []);
}

#[test]
fn unregistered_span_name_is_flagged() {
    let v = findings("fn f() { let _s = telemetry::span(\"made.up.name\"); }\n");
    assert!(matches!(&v[..], [(1, m)] if m.contains("made.up.name")), "{v:?}");
    assert_eq!(findings("fn f() { let _s = telemetry::span(\"train.run\"); }\n"), []);
    assert_eq!(findings("fn f(name: &str) { let _s = telemetry::span(name); }\n"), []);
}

#[test]
fn multiline_event_name_is_checked() {
    let src =
        "fn f() {\n    telemetry::event(\n        \"not.a.real.event\",\n        &[],\n    );\n}";
    assert_eq!(flagged_lines(src), [2]);
}

#[test]
fn gauge_names_check_exact_and_prefix_vocabularies() {
    let gauge = |name: &str| format!("fn f() {{ telemetry::gauge(\"{name}\", 1.0); }}\n");
    assert_eq!(findings(&gauge("train.loss")), []);
    assert_eq!(findings(&gauge("monitor.mae.scan_join")), []);
    assert_eq!(flagged_lines(&gauge("made.up.gauge")), [1]);
    assert_eq!(flagged_lines(&gauge("monitor.mae.")), [1]);
}
