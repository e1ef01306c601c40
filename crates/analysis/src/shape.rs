//! Symbolic shape inference over the RAAL model family.
//!
//! The network threads `[seq, dim]` activations through embedding →
//! plan-feature layer (LSTM/CNN) → node-aware attention pooling →
//! resource-aware attention → stats concat → dense head. None of the
//! dimension couplings between those stages are visible to the Rust
//! compiler: the LSTM hidden width must equal the attention key
//! projections' input width, the resource-vector width must match the
//! resource-attention query projection, and the concatenated head input
//! must equal the first dense layer's declared `in_dim`. A mismatch
//! anywhere surfaces — at best — as a slice-length panic deep inside a
//! matmul kernel during the first forward pass, long after the mistake
//! was made (model construction, or deserialising a tampered
//! checkpoint).
//!
//! This module checks all of it *before any data touches the network*:
//! a [`ModelShapeSpec`] describes the stages with their declared
//! dimensions and the actual parameter-tensor shapes, and [`check`]
//! symbolically propagates a `[n, dim]` shape (sequence length stays the
//! symbol `n`) through every stage, rejecting the first inconsistency
//! with a [`ShapeError`] naming the offending layer.
//!
//! The spec is plain data, so the `nn` layers can describe themselves
//! (each layer exposes a `shape_stage` constructor) without this crate
//! depending on the tensor machinery.

use std::fmt;

/// A symbolic dimension: a known width or the free sequence length `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// A statically known extent.
    Known(usize),
    /// The per-plan node count, unknown until a plan arrives.
    Seq,
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Known(k) => write!(f, "{k}"),
            Dim::Seq => write!(f, "n"),
        }
    }
}

/// A symbolic `[rows, cols]` activation shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymShape {
    /// Row extent (the sequence axis for per-node activations).
    pub rows: Dim,
    /// Column extent (the feature axis).
    pub cols: Dim,
}

impl fmt::Display for SymShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.rows, self.cols)
    }
}

/// The actual shape of one registered parameter tensor, checked against
/// the shape the stage's declared dimensions require.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamShape {
    /// Parameter name as registered in the store (e.g. `plan.lstm.wx`).
    pub name: String,
    /// Tensor rows.
    pub rows: usize,
    /// Tensor cols.
    pub cols: usize,
}

impl ParamShape {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        Self { name: name.into(), rows, cols }
    }
}

/// One stage of the model as seen by the shape checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeOp {
    /// LSTM plan-feature layer: `[n, in_dim] -> [n, hidden]`.
    /// Parameters: `wx : in_dim x 4*hidden`, `wh : hidden x 4*hidden`,
    /// `b : 1 x 4*hidden`.
    Lstm {
        /// Declared input width.
        in_dim: usize,
        /// Declared hidden width.
        hidden: usize,
    },
    /// Same-padded 1-D convolution (the RAAC ablation):
    /// `[n, in_dim] -> [n, out_dim]`. Parameters:
    /// `w : width*in_dim x out_dim`, `b : 1 x out_dim`. `width` must be
    /// odd for the symmetric window.
    Conv1d {
        /// Declared input width.
        in_dim: usize,
        /// Declared output channels.
        out_dim: usize,
        /// Kernel width in rows.
        width: usize,
    },
    /// Node-aware attention + mean pooling: `[n, hidden] -> [1, hidden]`.
    /// Parameters: `wq, wk : hidden x latent_k` (queries and keys must
    /// project to the same latent width).
    NodeAttention {
        /// Attention latent dimension K.
        latent_k: usize,
    },
    /// Plain mean pooling over the sequence axis: `[n, d] -> [1, d]`
    /// (the NA-LSTM ablation's substitute for node attention).
    MeanPool,
    /// Resource-aware attention: the resource vector queries the node
    /// hidden states; output is the `[1, hidden]` context `M`.
    /// Parameters: `wr : resource_dim x latent_k`,
    /// `wk : hidden x latent_k` — the two projections must agree on K,
    /// and `wk`'s input width must equal the plan layer's hidden width.
    ResourceAttention {
        /// Declared resource-vector width.
        resource_dim: usize,
        /// Attention latent dimension K.
        latent_k: usize,
        /// Hidden width of the node states being attended over.
        hidden: usize,
    },
    /// Column concatenation of named feature blocks into the head input:
    /// `-> [1, sum(widths)]`. The flowing shape entering the concat must
    /// match the first listed block.
    Concat {
        /// `(block name, width)` in concatenation order.
        parts: Vec<(String, usize)>,
    },
    /// Dense layer: `[r, in_dim] -> [r, out_dim]`. Parameters:
    /// `w : in_dim x out_dim`, `b : 1 x out_dim`.
    Dense {
        /// Declared input width.
        in_dim: usize,
        /// Declared output width.
        out_dim: usize,
    },
}

/// A named stage: the op plus the actual parameter tensor shapes pulled
/// from the parameter store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Layer name used in error messages (e.g. `plan.lstm`, `head.1`).
    pub name: String,
    /// The stage's shape semantics.
    pub op: ShapeOp,
    /// Actual shapes of the stage's registered parameters.
    pub params: Vec<ParamShape>,
}

impl Stage {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, op: ShapeOp, params: Vec<ParamShape>) -> Self {
        Self { name: name.into(), op, params }
    }
}

/// A full model description for the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelShapeSpec {
    /// Human-readable model name for error messages (e.g. `RAAL`).
    pub model: String,
    /// Per-node input feature width the encoder produces.
    pub node_input: usize,
    /// The stages in dataflow order.
    pub stages: Vec<Stage>,
}

/// A dimension mismatch, naming the offending layer precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The layer at which inference failed.
    pub layer: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error at layer '{}': {}", self.layer, self.message)
    }
}

impl std::error::Error for ShapeError {}

/// The per-stage resolved shapes of a successful check — useful for
/// debugging and for rendering the architecture in docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeReport {
    /// `(layer name, output shape)` for every stage, in order.
    pub stages: Vec<(String, SymShape)>,
}

impl fmt::Display for ShapeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, shape) in &self.stages {
            writeln!(f, "{name:<24} -> {shape}")?;
        }
        Ok(())
    }
}

fn err<T>(layer: &str, message: impl Into<String>) -> Result<T, ShapeError> {
    Err(ShapeError { layer: layer.to_string(), message: message.into() })
}

/// Looks up a parameter by suffix (names are `layer.param`) and checks
/// its actual shape against the required one.
fn check_param(
    stage: &Stage,
    suffix: &str,
    want_rows: usize,
    want_cols: usize,
) -> Result<(), ShapeError> {
    let p = stage
        .params
        .iter()
        .find(|p| p.name.ends_with(suffix) || p.name == suffix);
    match p {
        None => err(
            &stage.name,
            format!("missing parameter '{suffix}' (have: {:?})", param_names(stage)),
        ),
        Some(p) if (p.rows, p.cols) != (want_rows, want_cols) => err(
            &stage.name,
            format!(
                "parameter '{}' has shape {}x{}, expected {}x{}",
                p.name, p.rows, p.cols, want_rows, want_cols
            ),
        ),
        Some(_) => Ok(()),
    }
}

fn param_names(stage: &Stage) -> Vec<&str> {
    stage.params.iter().map(|p| p.name.as_str()).collect()
}

fn expect_cols(
    stage: &Stage,
    flowing: SymShape,
    want: usize,
    role: &str,
) -> Result<(), ShapeError> {
    if flowing.cols != Dim::Known(want) {
        return err(
            &stage.name,
            format!(
                "input width mismatch: {role} expects {want} columns, got {} from the previous stage",
                flowing.cols
            ),
        );
    }
    Ok(())
}

/// Propagates a symbolic `[n, node_input]` shape through every stage of
/// `spec`, verifying declared dimensions, parameter tensor shapes and
/// inter-stage couplings. Returns the resolved per-stage shapes, or the
/// first inconsistency as a [`ShapeError`] naming the offending layer.
///
/// The final stage must produce the scalar prediction `[1, 1]`.
pub fn check(spec: &ModelShapeSpec) -> Result<ShapeReport, ShapeError> {
    if spec.node_input == 0 {
        return err("input", "encoder node feature width is zero");
    }
    let mut flowing = SymShape { rows: Dim::Seq, cols: Dim::Known(spec.node_input) };
    let mut report = Vec::with_capacity(spec.stages.len());
    for stage in &spec.stages {
        flowing = apply(stage, flowing)?;
        report.push((stage.name.clone(), flowing));
    }
    let want = SymShape { rows: Dim::Known(1), cols: Dim::Known(1) };
    if flowing != want {
        let last = spec.stages.last().map_or("<empty>", |s| s.name.as_str());
        return err(
            last,
            format!("model output is {flowing}, expected the scalar prediction {want}"),
        );
    }
    Ok(ShapeReport { stages: report })
}

fn apply(stage: &Stage, flowing: SymShape) -> Result<SymShape, ShapeError> {
    match &stage.op {
        ShapeOp::Lstm { in_dim, hidden } => {
            if *hidden == 0 {
                return err(&stage.name, "hidden width is zero");
            }
            expect_cols(stage, flowing, *in_dim, "the LSTM input projection")?;
            check_param(stage, "wx", *in_dim, 4 * hidden)?;
            check_param(stage, "wh", *hidden, 4 * hidden)?;
            check_param(stage, "b", 1, 4 * hidden)?;
            Ok(SymShape { rows: flowing.rows, cols: Dim::Known(*hidden) })
        }
        ShapeOp::Conv1d { in_dim, out_dim, width } => {
            if *out_dim == 0 {
                return err(&stage.name, "output channel count is zero");
            }
            if width % 2 == 0 {
                return err(
                    &stage.name,
                    format!("kernel width {width} is even; same-padding needs a symmetric window"),
                );
            }
            expect_cols(stage, flowing, *in_dim, "the convolution window")?;
            check_param(stage, "w", width * in_dim, *out_dim)?;
            check_param(stage, "b", 1, *out_dim)?;
            Ok(SymShape { rows: flowing.rows, cols: Dim::Known(*out_dim) })
        }
        ShapeOp::NodeAttention { latent_k } => {
            if *latent_k == 0 {
                return err(&stage.name, "attention latent dimension K is zero");
            }
            let hidden = match flowing.cols {
                Dim::Known(h) => h,
                Dim::Seq => return err(&stage.name, "attention input width is unresolved"),
            };
            // Queries and keys both project the hidden states; their
            // input width must be the plan layer's hidden width and they
            // must agree on K, or the q·k dot products are undefined.
            check_param(stage, "wq", hidden, *latent_k)?;
            check_param(stage, "wk", hidden, *latent_k)?;
            Ok(SymShape { rows: Dim::Known(1), cols: Dim::Known(hidden) })
        }
        ShapeOp::MeanPool => Ok(SymShape { rows: Dim::Known(1), cols: flowing.cols }),
        ShapeOp::ResourceAttention { resource_dim, latent_k, hidden } => {
            if *resource_dim == 0 {
                return err(&stage.name, "resource vector width is zero");
            }
            expect_cols(stage, flowing, *hidden, "the pooled plan representation")?;
            // The resource query projection must consume exactly the
            // resource feature vector, and project to the same latent
            // width as the key projection over the hidden states.
            check_param(stage, "wr", *resource_dim, *latent_k)?;
            check_param(stage, "wk", *hidden, *latent_k)?;
            Ok(SymShape { rows: Dim::Known(1), cols: Dim::Known(*hidden) })
        }
        ShapeOp::Concat { parts } => {
            if parts.is_empty() {
                return err(&stage.name, "concat of zero blocks");
            }
            let (first_name, first_width) = &parts[0];
            expect_cols(stage, flowing, *first_width, &format!("concat block '{first_name}'"))?;
            let total: usize = parts.iter().map(|(_, w)| w).sum();
            Ok(SymShape { rows: Dim::Known(1), cols: Dim::Known(total) })
        }
        ShapeOp::Dense { in_dim, out_dim } => {
            if *out_dim == 0 {
                return err(&stage.name, "output width is zero");
            }
            expect_cols(stage, flowing, *in_dim, "the dense affine map")?;
            check_param(stage, "w", *in_dim, *out_dim)?;
            check_param(stage, "b", 1, *out_dim)?;
            Ok(SymShape { rows: flowing.rows, cols: Dim::Known(*out_dim) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed RAAL spec with the paper's default widths.
    fn raal_spec() -> ModelShapeSpec {
        let (node, hidden, k, res, stats, head) = (132, 64, 32, 7, 8, 64);
        ModelShapeSpec {
            model: "RAAL".into(),
            node_input: node,
            stages: vec![
                Stage::new(
                    "plan.lstm",
                    ShapeOp::Lstm { in_dim: node, hidden },
                    vec![
                        ParamShape::new("plan.lstm.wx", node, 4 * hidden),
                        ParamShape::new("plan.lstm.wh", hidden, 4 * hidden),
                        ParamShape::new("plan.lstm.b", 1, 4 * hidden),
                    ],
                ),
                Stage::new(
                    "attn.node",
                    ShapeOp::NodeAttention { latent_k: k },
                    vec![
                        ParamShape::new("attn.node.wq", hidden, k),
                        ParamShape::new("attn.node.wk", hidden, k),
                    ],
                ),
                Stage::new(
                    "attn.res",
                    ShapeOp::ResourceAttention { resource_dim: res, latent_k: k, hidden },
                    vec![
                        ParamShape::new("attn.res.wr", res, k),
                        ParamShape::new("attn.res.wk", hidden, k),
                    ],
                ),
                Stage::new(
                    "head.concat",
                    ShapeOp::Concat {
                        parts: vec![
                            ("plan_pool".into(), hidden),
                            ("resource_ctx".into(), hidden),
                            ("resources".into(), res),
                            ("plan_stats".into(), stats),
                        ],
                    },
                    vec![],
                ),
                Stage::new(
                    "head.1",
                    ShapeOp::Dense { in_dim: 2 * hidden + res + stats, out_dim: head },
                    vec![
                        ParamShape::new("head.1.w", 2 * hidden + res + stats, head),
                        ParamShape::new("head.1.b", 1, head),
                    ],
                ),
                Stage::new(
                    "head.2",
                    ShapeOp::Dense { in_dim: head, out_dim: head / 2 },
                    vec![
                        ParamShape::new("head.2.w", head, head / 2),
                        ParamShape::new("head.2.b", 1, head / 2),
                    ],
                ),
                Stage::new(
                    "head.out",
                    ShapeOp::Dense { in_dim: head / 2, out_dim: 1 },
                    vec![
                        ParamShape::new("head.out.w", head / 2, 1),
                        ParamShape::new("head.out.b", 1, 1),
                    ],
                ),
            ],
        }
    }

    #[test]
    fn raal_spec_checks_clean() {
        let report = check(&raal_spec()).expect("well-formed RAAL must pass");
        assert_eq!(report.stages.len(), 7);
        // Sequence axis survives the plan layer, collapses at pooling.
        assert_eq!(report.stages[0].1, SymShape { rows: Dim::Seq, cols: Dim::Known(64) });
        assert_eq!(
            report.stages.last().unwrap().1,
            SymShape { rows: Dim::Known(1), cols: Dim::Known(1) }
        );
    }

    #[test]
    fn attention_key_dim_mismatch_names_the_layer() {
        let mut spec = raal_spec();
        // Resource-attention keys project from 48, but the LSTM emits 64.
        spec.stages[2].params[1] = ParamShape::new("attn.res.wk", 48, 32);
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "attn.res");
        assert!(e.message.contains("attn.res.wk"), "{e}");
        assert!(e.message.contains("48x32") && e.message.contains("64x32"), "{e}");
    }

    #[test]
    fn resource_width_mismatch_is_rejected() {
        let mut spec = raal_spec();
        // The query projection consumes a 9-wide resource vector the
        // model will never be fed (ResourceConfig produces 7 features).
        spec.stages[2].params[0] = ParamShape::new("attn.res.wr", 9, 32);
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "attn.res");
        assert!(e.message.contains("attn.res.wr"), "{e}");
    }

    #[test]
    fn stats_concat_width_mismatch_hits_the_head() {
        let mut spec = raal_spec();
        // Drop the plan-stats block: the concat is 8 columns short of
        // what head.1 declares.
        if let ShapeOp::Concat { parts } = &mut spec.stages[3].op {
            parts.pop();
        }
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "head.1");
        assert!(e.message.contains("expects 143"), "{e}");
    }

    #[test]
    fn lstm_input_width_mismatch_names_the_lstm() {
        let mut spec = raal_spec();
        spec.node_input = 130; // encoder and LSTM disagree
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "plan.lstm");
        assert!(e.message.contains("132") && e.message.contains("130"), "{e}");
    }

    #[test]
    fn tampered_lstm_recurrence_is_rejected() {
        let mut spec = raal_spec();
        spec.stages[0].params[1] = ParamShape::new("plan.lstm.wh", 64, 128);
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "plan.lstm");
        assert!(e.message.contains("plan.lstm.wh"), "{e}");
    }

    #[test]
    fn missing_parameter_is_reported() {
        let mut spec = raal_spec();
        spec.stages[0].params.remove(0);
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "plan.lstm");
        assert!(e.message.contains("missing parameter 'wx'"), "{e}");
    }

    #[test]
    fn non_scalar_output_is_rejected() {
        let mut spec = raal_spec();
        spec.stages.pop();
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "head.2");
        assert!(e.message.contains("expected the scalar prediction"), "{e}");
    }

    #[test]
    fn even_conv_width_is_rejected() {
        let spec = ModelShapeSpec {
            model: "RAAC".into(),
            node_input: 10,
            stages: vec![Stage::new(
                "plan.cnn",
                ShapeOp::Conv1d { in_dim: 10, out_dim: 8, width: 4 },
                vec![ParamShape::new("plan.cnn.w", 40, 8), ParamShape::new("plan.cnn.b", 1, 8)],
            )],
        };
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "plan.cnn");
        assert!(e.message.contains("even"), "{e}");
    }

    #[test]
    fn mean_pool_variant_checks() {
        // NA-LSTM: no node attention, pooled directly.
        let mut spec = raal_spec();
        spec.stages[1] = Stage::new("pool.mean", ShapeOp::MeanPool, vec![]);
        check(&spec).expect("NA-LSTM shape is consistent");
    }

    #[test]
    fn zero_width_input_is_rejected() {
        let mut spec = raal_spec();
        spec.node_input = 0;
        let e = check(&spec).unwrap_err();
        assert_eq!(e.layer, "input");
    }

    #[test]
    fn report_renders_every_stage() {
        let report = check(&raal_spec()).unwrap();
        let text = report.to_string();
        assert!(text.contains("plan.lstm") && text.contains("[n, 64]"), "{text}");
        assert!(text.contains("head.out") && text.contains("[1, 1]"), "{text}");
    }
}
