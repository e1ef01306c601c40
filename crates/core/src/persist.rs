//! Checkpointing: a trained cost model together with the encoder that
//! produced its inputs (the word2vec table and encoder configuration) —
//! everything needed to score plans in a fresh process.

use crate::model::{CostModel, FrozenModel};
use encoding::word2vec::Word2Vec;
use encoding::{EncoderConfig, PlanEncoder};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A self-contained, serialisable model checkpoint.
#[derive(Serialize, Deserialize)]
pub struct ModelBundle {
    /// The trained network.
    pub model: CostModel,
    /// The word-embedding table used by the encoder.
    pub word2vec: Word2Vec,
    /// Encoder dimensions/flags.
    pub encoder_config: EncoderConfig,
}

impl ModelBundle {
    /// Packs a model with its encoder.
    pub fn new(model: CostModel, encoder: &PlanEncoder) -> Self {
        Self {
            model,
            word2vec: encoder.word2vec().clone(),
            encoder_config: encoder.config().clone(),
        }
    }

    /// Rebuilds the plan encoder.
    pub fn encoder(&self) -> PlanEncoder {
        PlanEncoder::new(self.word2vec.clone(), self.encoder_config.clone())
    }

    /// Writes the bundle as JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a bundle from JSON and restores optimizer buffers.
    ///
    /// Before `restore` allocates optimizer buffers of each tensor's
    /// shape, every parameter id and shape is checked
    /// ([`CostModel::validate_shapes`]); then the bundled encoder's width
    /// is checked against the model's input. So a corrupted or tampered
    /// checkpoint fails here with a diagnostic naming the layer
    /// (`InvalidData`), not as a panic in the loader or a kernel.
    /// So does one that carries a non-finite `f32`: JSON has no `inf`,
    /// but `1e39` parses and overflows to it, and the model would then
    /// price every plan at 0 s (NaN through the clamp) as a `Model`
    /// answer. The inference kernels rely on finite weights too
    /// (`nn::infer::matmul_into` skips products with exact zeros).
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let mut bundle: ModelBundle = serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        bundle.model.validate_shapes().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("checkpoint {} failed the shape check: {e}", path.display()),
            )
        })?;
        bundle.model.restore();
        if let Some(what) = bundle.first_non_finite() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("checkpoint {}: {what} holds a non-finite value", path.display()),
            ));
        }
        let encoder_dim = bundle.encoder().node_dim();
        let model_dim = bundle.model.config().node_dim;
        if encoder_dim != model_dim {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "checkpoint {}: bundled encoder emits {encoder_dim}-wide node features but \
                     the model expects {model_dim}",
                    path.display()
                ),
            ));
        }
        Ok(bundle)
    }

    /// Names the first of the bundle's `f32` fields that is not finite:
    /// a parameter tensor, the label statistics or the embedding table.
    fn first_non_finite(&self) -> Option<String> {
        let store = self.model.store();
        if let Some(id) = store.ids().find(|&id| !store.value(id).all_finite()) {
            return Some(format!("parameter tensor {}", store.name(id)));
        }
        let (mean, std) = self.model.label_stats();
        if !(mean.is_finite() && std.is_finite()) {
            return Some("label_mean / label_std".to_string());
        }
        (!self.word2vec.all_finite()).then(|| "the word2vec table".to_string())
    }

    /// Consumes the bundle into a serving-ready pair: the model frozen
    /// ([`FrozenModel::freeze`]) plus its encoder.
    pub fn freeze(self) -> (FrozenModel, PlanEncoder) {
        let encoder = self.encoder();
        (FrozenModel::freeze(self.model), encoder)
    }

    /// [`ModelBundle::load`] followed by [`ModelBundle::freeze`]: the
    /// one-call path from a checkpoint on disk to shareable weights,
    /// used by replicas that never train.
    pub fn load_frozen(path: &Path) -> std::io::Result<(FrozenModel, PlanEncoder)> {
        Ok(Self::load(path)?.freeze())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
    use encoding::word2vec::{train, W2vConfig};

    fn tiny_encoder() -> PlanEncoder {
        let corpus = vec![vec!["filescan".to_string(), "title".to_string()]];
        PlanEncoder::new(
            train(&corpus, &W2vConfig { dim: 4, epochs: 1 }),
            EncoderConfig { max_nodes: 8, structure: true },
        )
    }

    fn tiny_model(encoder: &PlanEncoder) -> CostModel {
        CostModel::new(ModelConfig {
            hidden: 8,
            latent_k: 4,
            head_hidden: 8,
            ..ModelConfig::raal(encoder.node_dim())
        })
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let encoder = tiny_encoder();
        let model = tiny_model(&encoder);
        let plan = EncodedPlan::from_rows(
            &vec![vec![0.25; encoder.node_dim()]; 3],
            &[vec![], vec![0], vec![1]],
            [0.3; PLAN_STAT_FEATURES],
        );
        let res = vec![0.5f32; 7];
        let expected = model.predict_seconds(&plan, &res);

        let dir = std::env::temp_dir().join("raal_persist_test");
        let path = dir.join("bundle.json");
        ModelBundle::new(model, &encoder).save(&path).unwrap();
        let loaded = ModelBundle::load(&path).unwrap();
        assert_eq!(loaded.model.predict_seconds(&plan, &res), expected);
        assert_eq!(loaded.encoder().node_dim(), encoder.node_dim());
    }

    #[test]
    fn non_finite_checkpoint_values_fail_to_load() {
        // `1e39` is a finite f64 and `+inf` as f32, so it survives the
        // parser; at the parent this bundle loaded and priced at 0 s.
        let encoder = tiny_encoder();
        let model = tiny_model(&encoder);
        let dir = std::env::temp_dir().join("raal_persist_test");
        let path = dir.join("non_finite.json");
        ModelBundle::new(model, &encoder).save(&path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        for (after, number, named) in [
            (
                r#""name":"plan.lstm.wh","value":{"rows":8,"cols":32,"data":["#,
                "1e39",
                "plan.lstm.wh",
            ),
            (
                r#""name":"attn.res.wk","value":{"rows":8,"cols":4,"data":["#,
                "-1e39",
                "attn.res.wk",
            ),
            (r#""label_std":"#, "1e999", "label_std"),
            (r#""vectors":[["#, "1e39", "word2vec"),
        ] {
            let at = json.find(after).expect("anchor in the bundle JSON") + after.len();
            let end = at + json[at..].find([',', ']', '}']).expect("the number ends");
            std::fs::write(&path, format!("{}{number}{}", &json[..at], &json[end..])).unwrap();
            let err = match ModelBundle::load(&path) {
                Ok(_) => panic!("{number} after {after} must not load"),
                Err(e) => e,
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            let msg = err.to_string();
            assert!(msg.contains("non-finite") && msg.contains(named), "{msg}");
            assert!(ModelBundle::load_frozen(&path).is_err());
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(ModelBundle::load(Path::new("/nonexistent/raal.json")).is_err());
    }

    #[test]
    fn load_frozen_round_trips_predictions() {
        let encoder = tiny_encoder();
        let model = tiny_model(&encoder);
        let plan = EncodedPlan::from_rows(
            &vec![vec![0.25; encoder.node_dim()]; 3],
            &[vec![], vec![0], vec![1]],
            [0.3; PLAN_STAT_FEATURES],
        );
        let res = vec![0.5f32; 7];
        let expected = model.predict_seconds(&plan, &res);

        let dir = std::env::temp_dir().join("raal_persist_test");
        let path = dir.join("frozen.json");
        ModelBundle::new(model, &encoder).save(&path).unwrap();
        let (frozen, enc) = ModelBundle::load_frozen(&path).unwrap();
        // A frozen handle serves the saved model's bits, through every
        // name it answers to, and the encoder survives.
        assert_eq!(frozen.predict_seconds(&plan, &res), expected);
        assert_eq!(frozen.predict_seconds_f32(&plan, &res), expected);
        assert_eq!(frozen.model().predict_seconds(&plan, &res), expected);
        assert_eq!(enc.node_dim(), encoder.node_dim());
        // The weights the kernels stream sit on a cache line after a
        // load, and after the clone serving set-ups make (DESIGN.md §9).
        let copy = frozen.model().clone();
        for store in [frozen.model().store(), copy.store()] {
            for id in store.ids() {
                let at = store.value(id).data().as_ptr() as usize;
                assert_eq!(at % 64, 0, "{} is off the cache line", store.name(id));
            }
        }
    }
}
