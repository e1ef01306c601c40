//! # encoding — feature encoders for the RAAL cost model
//!
//! Implements the paper's Sec. IV-C:
//!
//! * [`tokenizer`] — turns plan execution statements into word streams;
//! * [`word2vec`] — skip-gram/negative-sampling embeddings trained on the
//!   plan-statement corpus (the node-semantic embedding);
//! * [`onehot`] — the explicit Table II operator encoding;
//! * [`op_cache`] — the service-wide cache of operators' semantic rows;
//! * [`plan_encoder`] — node-semantic + structure (signed degree) +
//!   statistics encoding of whole plans, resource normalisation (Eq. 1)
//!   and assembled training [`plan_encoder::Sample`]s.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)] // typed errors, not panics

pub mod onehot;
pub mod op_cache;
pub mod plan_encoder;
pub mod tokenizer;
pub mod word2vec;

pub use op_cache::OpCache;
pub use plan_encoder::{EncodedPlan, EncoderConfig, PlanEncoder, Sample};
pub use word2vec::{train as train_word2vec, W2vConfig, Word2Vec};
