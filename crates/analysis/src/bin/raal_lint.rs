//! `raal-lint` — the workspace source linter.
//!
//! ```text
//! cargo run -p analysis --bin raal-lint [-- --root <dir>] [--update] [--strict]
//! ```
//!
//! Runs two rule families, each with its own shrink-only allowlist:
//!
//! * the per-file lint rules (see `analysis::lint`) against
//!   `lint-allowlist.tsv`;
//! * the hot-path reachability rules (`hot-panic` / `hot-alloc`,
//!   see `analysis::panic`) against `hotpath-allowlist.tsv`.
//!
//! Exit codes: `0` clean (all findings grandfathered), `1` violations
//! (a file exceeds its allowance, or `--strict` and an allowlist is
//! stale), `2` usage / IO error.
//!
//! `--update` rewrites both allowlists to exactly cover the current
//! findings — but only ever *shrinks* each total allowance; it refuses
//! to grow one, so new violations must be fixed rather than
//! re-grandfathered. (The very first `--update` for a missing file may
//! bootstrap it.)

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use analysis::lint::{apply_allowlist, lint_root, Allowlist, Outcome, Violation};
use analysis::panic::check_root;

const ALLOWLIST_FILE: &str = "lint-allowlist.tsv";
const HOTPATH_ALLOWLIST_FILE: &str = "hotpath-allowlist.tsv";

fn usage() -> ExitCode {
    eprintln!("usage: raal-lint [--root <dir>] [--update] [--strict]");
    ExitCode::from(2)
}

/// Walks upward from `start` to the workspace root (identified by the
/// allowlist file or a `Cargo.toml` with a `[workspace]` table).
fn find_root(start: PathBuf) -> PathBuf {
    let mut dir = start.clone();
    loop {
        if dir.join(ALLOWLIST_FILE).is_file() {
            return dir;
        }
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

/// One rule family: its findings and the allowlist they ratchet
/// against.
struct Family {
    label: &'static str,
    allow_path: PathBuf,
    violations: Vec<Violation>,
    allow: Allowlist,
}

impl Family {
    fn load(label: &'static str, allow_path: PathBuf, violations: Vec<Violation>) -> Option<Self> {
        match Allowlist::load(&allow_path) {
            Ok(allow) => Some(Self { label, allow_path, violations, allow }),
            Err(e) => {
                eprintln!("raal-lint: {e}");
                None
            }
        }
    }

    /// Shrink-only rewrite; `Ok(true)` when the file was written.
    fn update(&self) -> Result<bool, ExitCode> {
        let next = Allowlist::covering(&self.violations);
        // The shrink-only ratchet applies once a baseline exists; the
        // very first --update is allowed to grandfather the current tree.
        let bootstrap = !self.allow_path.is_file();
        if !bootstrap && next.total() > self.allow.total() {
            eprintln!(
                "raal-lint: refusing to grow {} ({} -> {} sites); fix the new violations instead:",
                self.allow_path.display(),
                self.allow.total(),
                next.total()
            );
            for v in &apply_allowlist(&self.violations, &self.allow).over {
                eprintln!("  {v}");
            }
            return Err(ExitCode::FAILURE);
        }
        if let Err(e) = std::fs::write(&self.allow_path, next.render()) {
            eprintln!("raal-lint: writing {}: {e}", self.allow_path.display());
            return Err(ExitCode::from(2));
        }
        println!(
            "raal-lint: wrote {} ({} grandfathered sites, was {})",
            self.allow_path.display(),
            next.total(),
            self.allow.total()
        );
        Ok(true)
    }

    fn report(&self) -> Outcome {
        let outcome = apply_allowlist(&self.violations, &self.allow);
        for v in &outcome.over {
            eprintln!("{v}");
        }
        for (rule, path, allowed, actual) in &outcome.stale {
            eprintln!(
                "raal-lint: stale allowance [{rule}] {path}: {allowed} allowed but {actual} \
                 found — run with --update to ratchet down"
            );
        }
        println!(
            "raal-lint[{}]: {} finding(s): {} over allowance, {} grandfathered, {} stale \
             allowance(s)",
            self.label,
            self.violations.len(),
            outcome.over.len(),
            outcome.grandfathered,
            outcome.stale.len()
        );
        outcome
    }
}

fn families(root: &Path) -> Result<Vec<Family>, ExitCode> {
    let lint = match lint_root(root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("raal-lint: scanning {}: {e}", root.display());
            return Err(ExitCode::from(2));
        }
    };
    let hot = match check_root(root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("raal-lint: hot-path scan of {}: {e}", root.display());
            return Err(ExitCode::from(2));
        }
    };
    let fams = [
        Family::load("lint", root.join(ALLOWLIST_FILE), lint),
        Family::load("hotpath", root.join(HOTPATH_ALLOWLIST_FILE), hot),
    ];
    let mut out = Vec::new();
    for f in fams {
        match f {
            Some(f) => out.push(f),
            None => return Err(ExitCode::from(2)),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut update = false;
    let mut strict = false;
    let mut argv = env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => match argv.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--update" => update = true,
            "--strict" => strict = true,
            "--help" | "-h" => {
                println!("raal-lint: RAAL workspace source linter");
                println!();
                println!("  --root <dir>  workspace root (default: auto-detected from cwd)");
                println!(
                    "  --update      rewrite {ALLOWLIST_FILE} / {HOTPATH_ALLOWLIST_FILE} \
                     (shrink-only ratchet)"
                );
                println!("  --strict      fail on stale allowlist entries too");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let root = root
        .unwrap_or_else(|| find_root(env::current_dir().unwrap_or_else(|_| PathBuf::from("."))));

    let fams = match families(&root) {
        Ok(f) => f,
        Err(code) => return code,
    };

    if update {
        for f in &fams {
            if let Err(code) = f.update() {
                return code;
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    for f in &fams {
        let outcome = f.report();
        failed |= !outcome.over.is_empty() || (strict && !outcome.stale.is_empty());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
