//! `raal-lint` — the workspace source linter.
//!
//! ```text
//! cargo run -p analysis --bin raal-lint [-- --root <dir>]
//! ```
//!
//! Runs the per-file rules of `analysis::lint` over every Rust source
//! under the workspace root and prints each finding. Exit codes: `0`
//! clean, `1` findings, `2` usage / IO error.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use analysis::lint::lint_root;

fn usage() -> ExitCode {
    eprintln!("usage: raal-lint [--root <dir>]");
    ExitCode::from(2)
}

/// Walks upward from `start` to the workspace root (a `Cargo.toml` with
/// a `[workspace]` table).
fn find_root(start: PathBuf) -> PathBuf {
    let mut dir = start.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return start;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut argv = env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => match argv.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--help" | "-h" => {
                println!("raal-lint: RAAL workspace source linter");
                println!();
                println!("  --root <dir>  workspace root (default: auto-detected from cwd)");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let root = root
        .unwrap_or_else(|| find_root(env::current_dir().unwrap_or_else(|_| PathBuf::from("."))));

    let findings = match lint_root(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("raal-lint: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for v in &findings {
        eprintln!("{v}");
    }
    println!("raal-lint: {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
