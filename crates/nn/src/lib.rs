//! # nn — a small, verifiable neural-network substrate
//!
//! Pure-Rust reverse-mode automatic differentiation plus the layers needed
//! by the RAAL cost model of *"A Resource-Aware Deep Cost Model for Big
//! Data Query Processing"* (ICDE 2022): dense layers, an LSTM cell, a 1-D
//! convolution (for the RAAC ablation) and dot-product attention primitives
//! (for the node-aware and resource-aware attention layers). The [`infer`]
//! module provides a tape-free SIMD fast path for each layer that tracks
//! the tape's values to ~1e-6 without recording gradient state.
//!
//! Design goals, in order:
//! 1. **Verifiability** — every backward rule is checked against central
//!    finite differences ([`gradcheck`]).
//! 2. **Define-by-run** — query plans have variable length, so each sample
//!    builds a fresh [`graph::Graph`] tape over shared [`params::ParamStore`]
//!    weights.
//! 3. **Smallness** — the paper's latent dimension is K = 32; plain
//!    row-major `f32` matrices are fast enough and easy to audit.
//!
//! ```
//! use nn::graph::Graph;
//! use nn::params::ParamStore;
//! use nn::tensor::Tensor;
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Tensor::scalar(0.0));
//! let mut g = Graph::new();
//! let wv = g.param(&store, w);
//! let loss = g.mse_loss(wv, &Tensor::scalar(1.0));
//! let grads = g.backward(loss);
//! assert_eq!(grads.get(wv).unwrap().item(), -2.0);
//! ```

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)] // typed errors, not panics

pub mod gradcheck;
pub mod graph;
pub mod infer;
pub mod init;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tensor;

pub use graph::{Gradients, Graph, Var};
pub use infer::quant::QuantizedMatrix;
pub use infer::{ArenaStats, InferArena};
pub use params::{ParamId, ParamStore};
pub use tensor::Tensor;
