//! Skip-gram word2vec with negative sampling (Mikolov et al.), trained on
//! the corpus of plan-statement tokens — the paper's node-semantic
//! embedding (Sec. IV-C). Implemented from scratch; no external model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sparksim::plan::physical::WordHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct W2vConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
}

impl Default for W2vConfig {
    fn default() -> Self {
        Self { dim: 32, epochs: 4 }
    }
}

/// Context window radius.
const WINDOW: usize = 4;
/// Negative samples per positive pair.
const NEGATIVE: usize = 5;
/// Initial learning rate (linearly decayed).
const LR: f32 = 0.025;
/// RNG seed.
const SEED: u64 = 42;

/// A trained word-embedding table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Word2Vec {
    vocab: HashMap<String, usize>,
    vectors: Vec<Vec<f32>>,
    dim: usize,
}

impl Word2Vec {
    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// The vector of a word, if in vocabulary.
    pub fn vector(&self, word: &str) -> Option<&[f32]> {
        self.vocab.get(word).map(|&i| self.vectors[i].as_slice())
    }

    /// Mean vector of a token sequence (zero vector when nothing matches)
    /// — the statement-level embedding of a plan node.
    pub fn embed_mean(&self, tokens: &[String]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        let mut n = 0usize;
        for t in tokens {
            if let Some(v) = self.vector(t) {
                for (o, &x) in out.iter_mut().zip(v) {
                    *o += x;
                }
                n += 1;
            }
        }
        if n > 0 {
            for o in &mut out {
                *o /= n as f32;
            }
        }
        out
    }

    /// Whether every embedding entry is finite (a checkpoint's `1e39`
    /// parses, and is `inf` as `f32`).
    pub fn all_finite(&self) -> bool {
        self.vectors.iter().flatten().all(|x| x.is_finite())
    }

    /// Freezes the table for lookup on the serving path.
    pub fn freeze(&self) -> EmbeddingTable {
        let mut offsets = HashMap::with_capacity_and_hasher(self.vocab.len(), Default::default());
        let mut one_byte = [usize::MAX; 128];
        for (word, &i) in &self.vocab {
            match *word.as_bytes() {
                [b @ 0..=127] => one_byte[b as usize] = i * self.dim,
                _ => {
                    offsets.insert(word.clone(), i * self.dim);
                }
            }
        }
        EmbeddingTable {
            offsets,
            one_byte,
            data: self.vectors.concat(),
            dim: self.dim,
        }
    }

    /// Cosine similarity between two in-vocabulary words.
    pub fn similarity(&self, a: &str, b: &str) -> Option<f32> {
        let (va, vb) = (self.vector(a)?, self.vector(b)?);
        let dot: f32 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
        let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = vb.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return Some(0.0);
        }
        Some(dot / (na * nb))
    }
}

/// A [`Word2Vec`] vocabulary frozen for the plan encoder: one flat
/// `vocab_size × dim` buffer behind a word → offset map hashed with
/// [`WordHasher`] — std's SipHash would cost more than the row
/// accumulation it leads to, and a vocabulary is read from a
/// checkpoint, not from a request, so nothing can flood the map.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    offsets: HashMap<String, usize, BuildHasherDefault<WordHasher>>,
    /// Offsets of the one-byte words (`usize::MAX` for none): brackets,
    /// commas, dots, comparison signs and one-letter aliases are a plan
    /// statement's most frequent tokens, and this spares them the hash
    /// (lookups 6.1 → 2.4 us per 18-node plan).
    one_byte: [usize; 128],
    data: Vec<f32>,
    dim: usize,
}

impl EmbeddingTable {
    /// The embedding of a word, if in vocabulary.
    pub fn embedding(&self, word: &str) -> Option<&[f32]> {
        let at = match *word.as_bytes() {
            [b] => *self.one_byte.get(b as usize)?,
            _ => *self.offsets.get(word)?,
        };
        self.data.get(at..at.checked_add(self.dim)?)
    }
}

/// Trains skip-gram embeddings on a corpus of sentences.
pub fn train(corpus: &[Vec<String>], cfg: &W2vConfig) -> Word2Vec {
    let mut span = telemetry::span("encode.word2vec");
    span.record("sentences", corpus.len() as u64);
    let mut rng = StdRng::seed_from_u64(SEED);

    // Vocabulary: every word of the corpus.
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for sentence in corpus {
        for w in sentence {
            *counts.entry(w).or_insert(0) += 1;
        }
    }
    let mut words: Vec<(&str, usize)> = counts.into_iter().collect();
    words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let vocab: HashMap<String, usize> = words
        .iter()
        .enumerate()
        .map(|(i, (w, _))| (w.to_string(), i))
        .collect();
    let v = vocab.len();
    if v == 0 {
        return Word2Vec { vocab, vectors: vec![], dim: cfg.dim };
    }

    // Unigram^0.75 negative-sampling table.
    let mut neg_table = Vec::with_capacity(v * 8);
    for (i, (_, c)) in words.iter().enumerate() {
        let reps = ((*c as f64).powf(0.75).ceil() as usize).max(1);
        neg_table.extend(std::iter::repeat_n(i, reps));
    }

    // Input and output matrices, flat `v x dim`, and the one gradient
    // buffer every pair reuses.
    let dim = cfg.dim;
    let bound = 0.5 / dim as f32;
    let mut w_in: Vec<f32> = (0..v * dim).map(|_| rng.gen_range(-bound..bound)).collect();
    let mut w_out = vec![0.0f32; v * dim];
    let mut grad_center = vec![0.0f32; dim];
    let mut targets = Vec::with_capacity(NEGATIVE + 1);
    let mut dots = Vec::with_capacity(NEGATIVE + 1);

    // Pre-index the corpus.
    let indexed: Vec<Vec<usize>> = corpus
        .iter()
        .map(|s| s.iter().filter_map(|w| vocab.get(w).copied()).collect())
        .collect();
    let total_tokens: usize = indexed.iter().map(Vec::len).sum();
    let total_steps = (total_tokens * cfg.epochs).max(1);
    let mut step = 0usize;

    for _epoch in 0..cfg.epochs {
        for sentence in &indexed {
            for (pos, &center) in sentence.iter().enumerate() {
                step += 1;
                let lr = LR * (1.0 - step as f32 / total_steps as f32).max(0.05);
                let win = rng.gen_range(1..=WINDOW);
                let lo = pos.saturating_sub(win);
                let hi = (pos + win).min(sentence.len() - 1);
                for (ctx_pos, &context) in sentence.iter().enumerate().take(hi + 1).skip(lo) {
                    if ctx_pos == pos {
                        continue;
                    }
                    // The pair's targets, drawn in the order the updates
                    // consume them: the context, then each negative that
                    // is not the context.
                    targets.clear();
                    targets.push(context);
                    for _ in 0..NEGATIVE {
                        let target = neg_table[rng.gen_range(0..neg_table.len())];
                        if target != context {
                            targets.push(target);
                        }
                    }
                    train_pair(
                        &mut w_in[center * dim..][..dim],
                        &mut w_out,
                        &mut grad_center,
                        &targets,
                        &mut dots,
                        lr,
                    );
                }
            }
        }
    }

    let vectors = (0..v).map(|i| w_in[i * dim..][..dim].to_vec()).collect();
    Word2Vec { vocab, vectors, dim }
}

/// One (center, context) pair: `center` is the center word's row of the
/// input matrix, `w_out` the whole flat output matrix, `grad_center` a
/// `dim`-long scratch, `targets` the context (label 1) and then the
/// negatives (label 0), `dots` a scratch. The center row changes only
/// after the last update, so the targets are dotted up front, four (then
/// two) a pass with one accumulator each, every sum still sequential;
/// the rest, and a target repeated within the pair (its row has since
/// moved), are dotted at their update. No bit of any vector changes.
fn train_pair(
    center: &mut [f32],
    w_out: &mut [f32],
    grad_center: &mut [f32],
    targets: &[usize],
    dots: &mut Vec<f32>,
    lr: f32,
) {
    let dim = center.len();
    let row = |t: usize| &w_out[t * dim..][..dim];
    dots.clear();
    let mut groups = targets.chunks_exact(4);
    for group in &mut groups {
        let (r0, r1, r2, r3) = (row(group[0]), row(group[1]), row(group[2]), row(group[3]));
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for ((((&c, &x0), &x1), &x2), &x3) in center.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            s0 += c * x0;
            s1 += c * x1;
            s2 += c * x2;
            s3 += c * x3;
        }
        dots.extend_from_slice(&[s0, s1, s2, s3]);
    }
    if let [t0, t1, ..] = *groups.remainder() {
        let (r0, r1) = (row(t0), row(t1));
        let (mut s0, mut s1) = (0.0f32, 0.0f32);
        for ((&c, &x0), &x1) in center.iter().zip(r0).zip(r1) {
            s0 += c * x0;
            s1 += c * x1;
        }
        dots.extend_from_slice(&[s0, s1]);
    }
    grad_center.fill(0.0);
    for (k, &target) in targets.iter().enumerate() {
        let label = if k == 0 { 1.0f32 } else { 0.0 };
        let out = &mut w_out[target * dim..][..dim];
        let dot = match dots.get(k) {
            Some(&dot) if !targets[..k].contains(&target) => dot,
            _ => center.iter().zip(&*out).map(|(a, b)| a * b).sum(),
        };
        let pred = 1.0 / (1.0 + (-dot).exp());
        let g = (pred - label) * lr;
        for ((grad, o), c) in grad_center.iter_mut().zip(out).zip(&*center) {
            *grad += g * *o;
            *o -= g * c;
        }
    }
    for (c, grad) in center.iter_mut().zip(&*grad_center) {
        *c -= grad;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny corpus where `cat`/`dog` share contexts but `stone` doesn't.
    fn corpus() -> Vec<Vec<String>> {
        let mut c = Vec::new();
        for _ in 0..200 {
            c.push(
                ["the", "cat", "eats", "food", "daily"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
            c.push(
                ["the", "dog", "eats", "food", "daily"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
            c.push(
                ["a", "stone", "sits", "still", "forever"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
        }
        c
    }

    /// `train` as it was before the matrices went flat: one `Vec` per
    /// word, a `grad_center` allocated per pair, rows double-indexed.
    fn train_reference(corpus: &[Vec<String>], cfg: &W2vConfig) -> Vec<(String, Vec<f32>)> {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for w in corpus.iter().flatten() {
            *counts.entry(w).or_insert(0) += 1;
        }
        let mut words: Vec<(&str, usize)> = counts.into_iter().collect();
        words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let vocab: HashMap<&str, usize> =
            words.iter().enumerate().map(|(i, (w, _))| (*w, i)).collect();
        let mut neg_table = Vec::new();
        for (i, (_, c)) in words.iter().enumerate() {
            let reps = ((*c as f64).powf(0.75).ceil() as usize).max(1);
            neg_table.extend(std::iter::repeat_n(i, reps));
        }
        let bound = 0.5 / cfg.dim as f32;
        let mut w_in: Vec<Vec<f32>> = (0..words.len())
            .map(|_| (0..cfg.dim).map(|_| rng.gen_range(-bound..bound)).collect())
            .collect();
        let mut w_out: Vec<Vec<f32>> = vec![vec![0.0; cfg.dim]; words.len()];
        let indexed: Vec<Vec<usize>> = corpus
            .iter()
            .map(|s| s.iter().filter_map(|w| vocab.get(w.as_str()).copied()).collect())
            .collect();
        let total_tokens: usize = indexed.iter().map(Vec::len).sum();
        let total_steps = (total_tokens * cfg.epochs).max(1);
        let mut step = 0usize;
        for _epoch in 0..cfg.epochs {
            for sentence in &indexed {
                for (pos, &center) in sentence.iter().enumerate() {
                    step += 1;
                    let lr = LR * (1.0 - step as f32 / total_steps as f32).max(0.05);
                    let win = rng.gen_range(1..=WINDOW);
                    let lo = pos.saturating_sub(win);
                    let hi = (pos + win).min(sentence.len() - 1);
                    for (ctx_pos, &context) in sentence.iter().enumerate().take(hi + 1).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        let mut grad_center = vec![0.0f32; cfg.dim];
                        for k in 0..=NEGATIVE {
                            let (target, label) = if k == 0 {
                                (context, 1.0f32)
                            } else {
                                (neg_table[rng.gen_range(0..neg_table.len())], 0.0)
                            };
                            if k > 0 && target == context {
                                continue;
                            }
                            let dot: f32 =
                                w_in[center].iter().zip(&w_out[target]).map(|(a, b)| a * b).sum();
                            let pred = 1.0 / (1.0 + (-dot).exp());
                            let g = (pred - label) * lr;
                            for d in 0..cfg.dim {
                                grad_center[d] += g * w_out[target][d];
                                w_out[target][d] -= g * w_in[center][d];
                            }
                        }
                        for d in 0..cfg.dim {
                            w_in[center][d] -= grad_center[d];
                        }
                    }
                }
            }
        }
        words.iter().map(|(w, _)| w.to_string()).zip(w_in).collect()
    }

    /// Candidate-plan statements of generated IMDB-like queries.
    fn plan_corpus() -> Vec<Vec<String>> {
        use sparksim::plan::planner::PlannerOptions;
        use sparksim::{ClusterConfig, Engine, SimulatorConfig};
        let data =
            workloads::imdb::generate(&workloads::imdb::ImdbConfig { title_rows: 200, seed: 5 });
        let scale = data.simulated_scale();
        let engine = Engine::with_options(
            data.catalog,
            PlannerOptions::scaled_to(scale),
            ClusterConfig::default(),
            SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = workloads::querygen::QueryGenConfig::default();
        workloads::querygen::generate_queries(&data.graph, &cfg, 24, &mut rng)
            .iter()
            .flat_map(|sql| engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}")))
            .flat_map(|plan| crate::tokenizer::plan_sentences(&plan))
            .collect()
    }

    #[test]
    fn flat_training_is_bit_equal_to_the_nested_reference() {
        for (name, corpus) in [("cat/dog", corpus()), ("plans", plan_corpus())] {
            assert!(corpus.len() >= 500, "{name}: only {} sentences", corpus.len());
            for dim in [8, 32] {
                let cfg = W2vConfig { dim, epochs: 2 };
                let model = train(&corpus, &cfg);
                let want = train_reference(&corpus, &cfg);
                assert_eq!(model.vocab_size(), want.len(), "{name}");
                for (word, vector) in &want {
                    let got = model.vector(word).unwrap();
                    assert!(
                        got.iter().map(|x| x.to_bits()).eq(vector.iter().map(|x| x.to_bits())),
                        "{name} dim {dim}: '{word}' differs"
                    );
                }
            }
        }
    }

    /// FNV-1a fold of every word and its vector's bits, in word order,
    /// of the default-configured table trained on [`plan_corpus`] —
    /// recorded at commit `e9c810f`, while the window, negatives,
    /// learning rate, count floor and seed were still `W2vConfig` fields.
    const PLAN_TABLE_FOLD: u64 = 0x4b84_d9cd_d82a_c297;

    #[test]
    fn plan_table_is_the_same_bits_as_before() {
        let model = train(&plan_corpus(), &W2vConfig::default());
        let mut words: Vec<&String> = model.vocab.keys().collect();
        words.sort();
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                fold = (fold ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for word in &words {
            eat(word.as_bytes());
            for x in model.vector(word).unwrap() {
                eat(&x.to_bits().to_le_bytes());
            }
        }
        assert_eq!(fold, PLAN_TABLE_FOLD, "{} words fold to {fold:#018x}", words.len());
    }

    #[test]
    fn similar_contexts_give_similar_vectors() {
        let model = train(&corpus(), &W2vConfig { dim: 16, epochs: 6 });
        let cat_dog = model.similarity("cat", "dog").unwrap();
        let cat_stone = model.similarity("cat", "stone").unwrap();
        assert!(cat_dog > cat_stone, "cat~dog ({cat_dog}) must beat cat~stone ({cat_stone})");
    }

    #[test]
    fn vocabulary_and_dimensions() {
        let model = train(&corpus(), &W2vConfig::default());
        assert_eq!(model.dim(), 32);
        assert!(model.vocab_size() >= 9);
        assert!(model.vector("cat").is_some());
        assert!(model.vector("unknown-word").is_none());
    }

    #[test]
    fn embed_mean_handles_unknowns() {
        let model = train(&corpus(), &W2vConfig::default());
        let zero = model.embed_mean(&["nope".to_string()]);
        assert!(zero.iter().all(|&x| x == 0.0));
        let some = model.embed_mean(&["cat".to_string(), "nope".to_string()]);
        assert_eq!(some, model.vector("cat").unwrap().to_vec());
    }

    #[test]
    fn training_is_deterministic() {
        let a = train(&corpus(), &W2vConfig::default());
        let b = train(&corpus(), &W2vConfig::default());
        assert_eq!(a.vector("cat"), b.vector("cat"));
    }

    #[test]
    fn empty_corpus_is_safe() {
        let model = train(&[], &W2vConfig::default());
        assert_eq!(model.vocab_size(), 0);
        assert!(model.embed_mean(&["x".to_string()]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn serde_round_trip() {
        let model = train(&corpus(), &W2vConfig { dim: 8, ..Default::default() });
        let json = serde_json::to_string(&model).unwrap();
        let back: Word2Vec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.vector("cat"), model.vector("cat"));
    }
}
