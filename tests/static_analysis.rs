//! Static-analysis guarantees end to end: the symbolic shape checker
//! rejects mis-shaped models and tampered checkpoints with layer-level
//! diagnostics, the plan-DAG validator rejects corrupted plan graphs,
//! and — the property under test — every plan the real planner emits
//! over randomly generated workloads passes the DAG validator.

use analysis::dag::DagError;
use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
use encoding::{EncoderConfig, PlanEncoder, W2vConfig};
use proptest::prelude::*;
use raal::persist::ModelBundle;
use raal::{CostModel, ModelConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, SimulatorConfig};
use workloads::imdb::{generate, ImdbConfig};

fn tiny_encoder() -> PlanEncoder {
    let corpus = vec![vec!["filescan".to_string(), "title".to_string()]];
    PlanEncoder::new(
        encoding::word2vec::train(&corpus, &W2vConfig { dim: 4, epochs: 1, ..Default::default() }),
        EncoderConfig { max_nodes: 8, structure: true },
    )
}

fn tiny_model(node_dim: usize) -> CostModel {
    CostModel::new(ModelConfig {
        hidden: 8,
        latent_k: 4,
        head_hidden: 8,
        ..ModelConfig::raal(node_dim)
    })
}

/// Overwrites the named parameter with a zero tensor of the given shape.
fn tamper(model: &mut CostModel, name: &str, rows: usize, cols: usize) {
    let id = model
        .store()
        .ids()
        .find(|&id| model.store().name(id) == name)
        .unwrap_or_else(|| panic!("no parameter named {name}"));
    *model.store_mut().value_mut(id) = nn::Tensor::zeros(rows, cols);
}

#[test]
fn freshly_built_model_passes_the_shape_check() {
    let model = tiny_model(tiny_encoder().node_dim());
    let report = model.validate_shapes().expect("valid model must pass");
    assert!(!report.stages.is_empty());
}

#[test]
fn mis_shaped_attention_key_is_rejected_naming_the_layer() {
    let mut model = tiny_model(tiny_encoder().node_dim());
    // wk must be hidden x latent_k = 8 x 4; make it 8 x 5 so the
    // LSTM-hidden / attention-key contraction no longer lines up.
    tamper(&mut model, "attn.node.wk", 8, 5);
    let err = model.validate_shapes().expect_err("mismatch must be caught");
    let msg = err.to_string();
    assert!(msg.contains("attn.node"), "error must name the layer: {msg}");
}

#[test]
fn mis_shaped_resource_projection_is_rejected() {
    let mut model = tiny_model(tiny_encoder().node_dim());
    // wr must be resource_dim x latent_k = 7 x 4.
    tamper(&mut model, "attn.res.wr", 3, 4);
    let err = model.validate_shapes().expect_err("mismatch must be caught");
    assert!(err.to_string().contains("attn.res"), "{err}");
}

#[test]
fn mis_shaped_head_is_rejected() {
    let mut model = tiny_model(tiny_encoder().node_dim());
    // head.1 expects hidden + (hidden + resource_dim) + stats input.
    tamper(&mut model, "head.1.w", 5, 8);
    let err = model.validate_shapes().expect_err("mismatch must be caught");
    assert!(err.to_string().contains("head.1"), "{err}");
}

#[test]
fn tampered_checkpoint_fails_to_load_with_a_shape_diagnostic() {
    let encoder = tiny_encoder();
    let mut model = tiny_model(encoder.node_dim());
    tamper(&mut model, "attn.node.wq", 8, 9);
    let dir = std::env::temp_dir().join("raal_static_analysis_test");
    let path = dir.join("tampered.json");
    ModelBundle::new(model, &encoder).save(&path).unwrap();
    let err = match ModelBundle::load(&path) {
        Ok(_) => panic!("tampered checkpoint must not load"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("shape check") && msg.contains("attn.node"), "{msg}");
}

#[test]
fn checkpoint_with_mismatched_encoder_width_fails_to_load() {
    let encoder = tiny_encoder();
    // Model trained against a different (wider) node encoding.
    let model = tiny_model(encoder.node_dim() + 4);
    let dir = std::env::temp_dir().join("raal_static_analysis_test");
    let path = dir.join("encoder_drift.json");
    ModelBundle::new(model, &encoder).save(&path).unwrap();
    let err = match ModelBundle::load(&path) {
        Ok(_) => panic!("encoder drift must not load"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("node features"), "{err}");
}

fn plan_with_children(children: Vec<Vec<usize>>) -> EncodedPlan {
    EncodedPlan::from_rows(
        &vec![vec![0.1; 4]; children.len()],
        &children,
        [0.0; PLAN_STAT_FEATURES],
    )
}

#[test]
fn corrupted_plan_dags_are_rejected() {
    // Forward reference (child does not precede its parent).
    let err = plan_with_children(vec![vec![1], vec![]]).validate().unwrap_err();
    assert!(matches!(err, DagError::NotTopological { node: 0, child: 1 }), "{err}");

    // Child index out of range.
    let err = plan_with_children(vec![vec![], vec![7]]).validate().unwrap_err();
    assert!(matches!(err, DagError::ChildOutOfRange { node: 1, child: 7, .. }), "{err}");

    // Two nodes claiming the same child.
    let err = plan_with_children(vec![vec![], vec![0], vec![0]])
        .validate()
        .unwrap_err();
    assert!(matches!(err, DagError::MultipleParents { node: 0, .. }), "{err}");

    // Two parentless roots.
    let err = plan_with_children(vec![vec![], vec![], vec![0, 1], vec![]])
        .validate()
        .unwrap_err();
    assert!(matches!(err, DagError::MultipleRoots { .. }), "{err}");

    // Root not in final execution position.
    let err = plan_with_children(vec![vec![], vec![], vec![1], vec![0, 2]]).validate();
    assert!(err.is_ok(), "binary join tree is valid");
    let err = plan_with_children(vec![vec![], vec![0]]).validate();
    assert!(err.is_ok(), "linear chain is valid");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Every physical plan the planner produces for a randomly generated
    /// workload encodes to a graph that satisfies all DAG invariants,
    /// including the signed-adjacency cross-check on the structure rows.
    #[test]
    fn planner_output_always_passes_the_dag_validator(seed in 0u64..1000, max_joins in 1usize..4) {
        let data = generate(&ImdbConfig { title_rows: 200, seed });
        let scale = data.simulated_scale();
        let engine = Engine::with_options(
            data.catalog,
            PlannerOptions::scaled_to(scale),
            ClusterConfig::default(),
            SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
        );
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let queries = workloads::querygen::generate_queries(
            &data.graph,
            &workloads::querygen::QueryGenConfig { max_joins, ..Default::default() },
            4,
            &mut rng,
        );
        prop_assert!(!queries.is_empty(), "query generator produced nothing");
        let encoder = tiny_encoder();
        let mut plans_checked = 0usize;
        for sql in &queries {
            let plans = engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            plans_checked += plans.len();
            for plan in &plans {
                // encode() already panics on an invalid DAG; validate both
                // layers explicitly so a future regression fails here with
                // the DagError rather than a panic message.
                let encoded = encoder.encode(plan);
                prop_assert!(encoded.validate().is_ok(), "{sql}: {:?}", encoded.validate());
                prop_assert!(encoder.validate(&encoded).is_ok(), "{sql}: {:?}", encoder.validate(&encoded));
            }
        }
        prop_assert!(plans_checked > 0, "no candidate plans were validated");
    }
}
