//! The `raal-lint` source linter for the RAAL workspace. No library
//! crate links this one: the plan's tree invariant is `sparksim`'s
//! `PhysicalPlan::check_tree`, and "a served call neither panics nor
//! allocates" is stated by `raal`'s `hotpath_alloc` and `hotpath_panic`
//! tests.
//!
//! * [`lint`] — the per-file rules the compiler cannot enforce:
//!   `// SAFETY:` comments on `unsafe`, no `Instant::now` outside
//!   telemetry, no `unwrap()`/`expect()` in serving-path library code,
//!   telemetry names drawn from the [`telemetry::schema`] registry,
//!   `SAFETY` over int8 intrinsics, and `// ORDERING:` justifications on
//!   relaxed atomics. Every finding fails the linter.
//! * [`lex`] — the hand lexer behind them: comment/string-blanked views
//!   of a source file, test ranges, and comment-aware justification
//!   windows.
//!
//! Run the linter with `cargo run -p analysis --bin raal-lint`.

#![deny(missing_docs)]

pub mod lex;
pub mod lint;
