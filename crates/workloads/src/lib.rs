//! # workloads — synthetic datasets and query workloads
//!
//! Stand-ins for the paper's two benchmarks (Sec. V-A):
//!
//! * [`imdb`] — an IMDB/JOB-like schema with Zipf skew and cross-column
//!   correlation, scaled down from the paper's 7.2 GB snapshot;
//! * [`tpch`] — a TPC-H-like schema with near-uniform distributions,
//!   standing in for scale factor 100;
//! * [`querygen`] — FK-graph random-walk query generation producing the
//!   paper's two workload types (numeric predicates, string predicates)
//!   with 0–5 joins;
//! * [`util`] — Zipf sampling and helpers.

#![warn(missing_docs)]

pub mod imdb;
pub mod querygen;
pub mod tpch;
pub mod util;

pub use imdb::{ImdbConfig, ImdbDataset};
pub use querygen::{FkGraph, QueryGenConfig};
pub use tpch::{TpchConfig, TpchDataset};
