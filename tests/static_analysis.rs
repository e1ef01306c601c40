//! Static-analysis guarantees end to end: the model's shape check
//! rejects mis-shaped models and tampered checkpoints with layer-level
//! diagnostics, no edit to a checkpoint's integers can panic the loader
//! or load a model that prices to a non-finite number, the encoder
//! rejects a plan that is not one tree with the plan's own verdict, and
//! — the property under test — every plan the real planner emits over
//! randomly generated workloads is one tree.

use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
use encoding::{EncoderConfig, PlanEncoder, W2vConfig};
use proptest::prelude::*;
use raal::persist::ModelBundle;
use raal::{CostModel, FallbackModel, ModelConfig, ShardConfig, ShardedServing};
use sparksim::plan::physical::{NotATree, PhysicalOp};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, PhysicalPlan, ResourceConfig, SimulatorConfig};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workloads::imdb::{generate, ImdbConfig};

fn tiny_encoder_with(structure: bool) -> PlanEncoder {
    let corpus = vec![vec!["filescan".to_string(), "title".to_string()]];
    PlanEncoder::new(
        encoding::word2vec::train(&corpus, &W2vConfig { dim: 4, epochs: 1 }),
        EncoderConfig { max_nodes: 8, structure },
    )
}

fn tiny_encoder() -> PlanEncoder {
    tiny_encoder_with(true)
}

/// `cfg` at the tiny widths every test here uses: hidden 8, K 4, head 8.
fn tiny(cfg: ModelConfig) -> CostModel {
    CostModel::new(ModelConfig { hidden: 8, latent_k: 4, head_hidden: 8, ..cfg })
}

fn tiny_model(node_dim: usize) -> CostModel {
    tiny(ModelConfig::raal(node_dim))
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

/// Saves `model` with the tiny encoder and returns the path and JSON.
fn save(model: CostModel, file: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join("raal_static_analysis_test");
    let path = dir.join(file);
    ModelBundle::new(model, &tiny_encoder()).save(&path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    (path, json)
}

/// Rewrites `json` with `from` replaced by `to` once, and saves it back.
fn edit(path: &Path, json: &str, from: &str, to: &str) {
    assert!(json.contains(from), "`{from}` is not in the checkpoint");
    std::fs::write(path, json.replacen(from, to, 1)).unwrap();
}

fn load_err(path: &Path) -> std::io::Error {
    match ModelBundle::load(path) {
        Ok(_) => panic!("{} must not load", path.display()),
        Err(e) => e,
    }
}

#[test]
fn freshly_built_model_passes_the_shape_check() {
    // The four paper variants — NE-LSTM is RAAL over an encoder without
    // the structure embedding — each with and without resource attention.
    let (d, ne) = (tiny_encoder().node_dim(), tiny_encoder_with(false).node_dim());
    for cfg in [
        ModelConfig::raal(d),
        ModelConfig::raal(ne),
        ModelConfig::na_lstm(d),
        ModelConfig::raac(d),
    ] {
        for cfg in [cfg.clone(), cfg.without_resources()] {
            let model = tiny(cfg);
            if let Err(e) = model.validate_shapes() {
                panic!("{:?} must pass: {e}", model.config());
            }
        }
    }
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

/// How one row of the tamper table corrupts a checkpoint.
enum Tamper {
    /// Replaces the named tensor by zeros of this shape before saving.
    Weights(&'static str, usize, usize),
    /// Rewrites `"key":from` to `"key":to` in the saved JSON. The first
    /// occurrence is the config's: it is the model's first field.
    Config(&'static str, usize, usize),
}

#[test]
fn tampered_checkpoint_fails_to_load_with_a_shape_diagnostic() {
    use Tamper::{Config, Weights};
    let d = tiny_encoder().node_dim();
    // The resource-aware tiny head's input: 8 + (8 + 7) + stats.
    let wide = 2 * 8 + ResourceConfig::NUM_FEATURES + PLAN_STAT_FEATURES;
    let rows = [
        (ModelConfig::raal(d), Weights("attn.node.wq", 8, 9), "attn.node"),
        // The recurrence.
        (ModelConfig::raal(d), Weights("plan.lstm.wh", 8, 16), "plan.lstm"),
        // A two-row window.
        (ModelConfig::raac(d), Weights("plan.cnn.w", 2 * d, 8), "plan.cnn"),
        (ModelConfig::na_lstm(d), Weights("attn.res.wk", 8, 5), "attn.res"),
        // A head sized for the resource context the model does not have.
        (ModelConfig::raal(d).without_resources(), Weights("head.1.w", wide, 8), "head.1"),
        // Two outputs instead of the one prediction.
        (ModelConfig::raal(d), Weights("head.out.w", 4, 2), "head.out"),
        (ModelConfig::raal(d), Config("hidden", 8, 0), "plan.lstm"),
        (ModelConfig::raal(d), Config("latent_k", 4, 0), "attn.node"),
        // A width edited without its tensors.
        (ModelConfig::raal(d), Config("resource_dim", 7, 9), "attn.res"),
        (ModelConfig::raal(d), Config("hidden", 8, 9), "plan.lstm"),
    ];
    for (i, (cfg, how, layer)) in rows.into_iter().enumerate() {
        let mut model = tiny(cfg);
        if let Weights(name, r, c) = how {
            tamper(&mut model, name, r, c);
        }
        let (path, json) = save(model, &format!("tampered_{i}.json"));
        if let Config(key, from, to) = how {
            edit(&path, &json, &format!("\"{key}\":{from},"), &format!("\"{key}\":{to},"));
        }
        let err = load_err(&path);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "row {i}: {err}");
        let msg = err.to_string();
        assert!(msg.contains("shape check") && msg.contains(layer), "row {i}: {msg}");
    }
}

#[test]
fn checkpoint_with_a_bad_parameter_id_fails_to_load() {
    let (path, json) = save(tiny_model(tiny_encoder().node_dim()), "bad_id.json");
    edit(&path, &json, r#""lstm":{"wx":0,"#, r#""lstm":{"wx":999,"#);
    let err = load_err(&path);
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("plan.lstm.wx"), "{err}");
    let fallback: Arc<dyn FallbackModel + Send + Sync> =
        Arc::new(|_: &PhysicalPlan, _: &ResourceConfig| 1.0);
    assert!(ShardedServing::from_checkpoint(&path, fallback, ShardConfig::default()).is_degraded());
}

#[test]
fn tensor_whose_data_does_not_fill_its_shape_fails_to_load() {
    let (path, json) = save(tiny_model(tiny_encoder().node_dim()), "short_tensor.json");
    let bias = r#""name":"head.out.b","value":{"rows":1,"cols":1,"data":[0]}"#;
    for short in [
        r#""name":"head.out.b","value":{"rows":1,"cols":1,"data":[]}"#,
        // Claims 4 GB: decoding must refuse it before anything allocates it.
        r#""name":"head.out.b","value":{"rows":1000000000,"cols":1,"data":[0]}"#,
    ] {
        edit(&path, &json, bias, short);
        assert_eq!(load_err(&path).kind(), ErrorKind::InvalidData, "{short}");
    }
}

/// Sets every integer field of a tiny bundle's `"model"` object in turn —
/// parameter ids, tensor `rows` / `cols`, layer and config widths, but
/// not the tensors' `data` — to 0, 1, its own value + 1 and 999. Each
/// load fails with `InvalidData` or yields a model that prices a plan to
/// a finite number; none panics (or aborts on an allocation).
#[test]
fn every_integer_in_the_model_object_loads_to_an_error_or_a_finite_price() {
    let d = tiny_encoder().node_dim();
    let chain = [vec![], vec![0], vec![1]];
    let plan = EncodedPlan::from_rows(&vec![vec![0.25; d]; 3], &chain, [0.3; PLAN_STAT_FEATURES]);
    let res = [0.5; ResourceConfig::NUM_FEATURES];
    for cfg in [ModelConfig::raal(d), ModelConfig::raac(d)] {
        let (path, json) = save(tiny(cfg), "mutated.json");
        let model = json.find(r#""model":{"#).unwrap()..json.find(r#","word2vec":"#).unwrap();
        let b = json.as_bytes();
        // `"key":123` — an integer field; array elements follow `[` or `,`.
        let fields: Vec<_> = model
            .filter(|&i| b[i] == b':' && b[i + 1].is_ascii_digit())
            .map(|i| i + 1..(i + 1..).find(|&j| !b[j].is_ascii_digit()).unwrap())
            .filter(|field| matches!(b[field.end], b',' | b'}'))
            .collect();
        assert!(fields.len() > 40, "{} integer fields", fields.len());
        for field in fields {
            let own: u64 = json[field.clone()].parse().unwrap();
            let key = json[..field.start - 1].rsplit('"').nth(1).unwrap();
            let (head, tail) = (&json[..field.start], &json[field.end..]);
            for to in [0, 1, own + 1, 999] {
                let what = format!("\"{key}\" at byte {} = {to} (was {own})", field.start);
                std::fs::write(&path, format!("{head}{to}{tail}")).unwrap();
                let priced = std::panic::catch_unwind(|| {
                    ModelBundle::load(&path).map(|bundle| bundle.model.predict_seconds(&plan, &res))
                });
                match priced {
                    Err(_) => panic!("{what}: the load or the price panicked"),
                    Ok(Err(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}"),
                    Ok(Ok(seconds)) => assert!(seconds.is_finite(), "{what}: priced {seconds}"),
                }
            }
        }
    }
}

#[test]
fn checkpoint_with_mismatched_encoder_width_fails_to_load() {
    // Model trained against a different (wider) node encoding.
    let (path, _) = save(tiny_model(tiny_encoder().node_dim() + 4), "encoder_drift.json");
    let err = load_err(&path);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("node features"), "{err}");
}

/// Each plan that is not one tree is refused by `try_encode` with the
/// plan's own verdict, and never panics it.
#[test]
fn corrupted_plan_dags_are_rejected() {
    use NotATree::{Empty, Orphan, SharedChild};
    let rows: [(&[&[usize]], _); 5] = [
        (&[], Err(Empty)),
        (&[&[], &[0], &[]], Err(Orphan { node: 1 })),
        (&[&[], &[0], &[0]], Err(SharedChild { child: 0, parent: 2 })),
        (&[&[], &[0, 0]], Err(SharedChild { child: 0, parent: 1 })),
        (&[&[], &[], &[1], &[0, 2]], Ok(())),
    ];
    let encoder = tiny_encoder();
    for (children, verdict) in rows {
        let mut plan = PhysicalPlan::new();
        for &kids in children {
            plan.add(PhysicalOp::ExchangeSingle, kids, 1.0, 8.0);
        }
        let encoded = std::panic::catch_unwind(|| encoder.try_encode(&plan).map(drop));
        assert_eq!(encoded.ok(), Some(verdict), "{children:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Every physical plan the planner produces for a randomly generated
    /// workload is one tree rooted at its last node.
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
            &workloads::querygen::QueryGenConfig { max_joins },
            4,
            &mut rng,
        );
        prop_assert!(!queries.is_empty(), "query generator produced nothing");
        let mut plans_checked = 0usize;
        for sql in &queries {
            let plans = engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            plans_checked += plans.len();
            for plan in &plans {
                prop_assert_eq!(plan.check_tree(), Ok(()), "{sql}");
            }
        }
        prop_assert!(plans_checked > 0, "no candidate plans were checked");
    }
}
