//! # baselines — the comparison cost models of the paper's evaluation
//!
//! * [`tlstm`] — TLSTM, the tree-structured-LSTM learned cost estimator
//!   for relational databases (Table V's opponent);
//! * [`gpsj`] — GPSJ, the hand-crafted analytical cost model for Spark SQL
//!   (Table VI's opponent);
//! * [`micro`] — a CLEO/Microlearner-style per-operator regression model
//!   (the related-work middle ground between analytical and deep).

#![warn(missing_docs)]

pub mod gpsj;
pub mod micro;
pub mod tlstm;

pub use gpsj::{GpsjModel, GpsjParams};
pub use micro::MicroModel;
pub use tlstm::{TlstmConfig, TlstmModel};
