//! Static guarantees for the RAAL workspace's source, behind the
//! `raal-lint` tool. No library crate links this one: the plan's tree
//! invariant is `sparksim`'s `PhysicalPlan::check_tree`.
//!
//! * [`lint`] — the `raal-lint` source scanner enforcing repo-wide
//!   rules the compiler cannot: `// SAFETY:` comments on `unsafe`,
//!   no `Instant::now` outside telemetry, no `unwrap()`/`expect()` in
//!   serving-path library code, telemetry names drawn from the
//!   [`telemetry::schema`] registry, and `// ORDERING:` justifications
//!   on relaxed atomics — with an allowlist ratchet for grandfathered
//!   sites.
//! * [`lex`] — the shared hand lexer: comment/string-blanked views of a
//!   source file, function spans, test ranges, and comment-aware
//!   justification windows. Feeds [`lint`], [`callgraph`] and
//!   [`mod@panic`].
//! * [`callgraph`] — a whole-workspace lexical call-graph extractor:
//!   function definitions keyed by enclosing `impl` type, call-site
//!   resolution by receiver type where inferable, and conservative
//!   fan-out edges for unknown callees. Powers hot-path reachability.
//! * [`mod@panic`] — panic-source and allocation-source catalogs plus the
//!   `hot-panic` / `hot-alloc` rules: every panic or heap-allocation
//!   site reachable from a declared serving entry point must carry a
//!   `// PANIC-FREE:` / `// HOT-ALLOC:` justification or an entry in
//!   the shrink-only `hotpath-allowlist.tsv` ratchet.
//!
//! Run the linter with `cargo run -p analysis --bin raal-lint`.

#![deny(missing_docs)]

pub mod callgraph;
pub mod lex;
pub mod lint;
pub mod panic;
