//! The encoder's streaming pass against the row rebuilt the slow way —
//! sentence strings, `embed_mean`, a one-hot found by name, the
//! `structure_row` / `parents` vectors — over the planner's candidate
//! plans for `workloads::querygen` queries. The rows are the model's
//! input contract, so they must agree bit for bit, not approximately —
//! and they must be the same rows whichever way they were encoded:
//! through an operator-row cache (one per query's candidates, or one
//! small enough to evict over a whole shuffled stream), or each plan
//! alone.

use encoding::onehot::OPERATORS;
use encoding::plan_encoder::{log_norm, plan_stats};
use encoding::tokenizer::plan_sentences;
use encoding::{EncoderConfig, PlanEncoder, W2vConfig, Word2Vec};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, PhysicalPlan, SimulatorConfig};
use std::collections::{HashMap, HashSet};
use workloads::imdb::{generate, ImdbConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

/// Each query's candidate plans, query by query.
fn candidate_sets(seed: u64, queries: usize) -> Vec<Vec<PhysicalPlan>> {
    let data = generate(&ImdbConfig { title_rows: 200, seed });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    generate_queries(&data.graph, &QueryGenConfig::default(), queries, &mut rng)
        .iter()
        .map(|sql| engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}")))
        .collect()
}

/// Embeddings trained on `plans`' statements with their rare words left
/// out, so the mean meets tokens it must skip without counting them.
fn pruned_word2vec(plans: &[PhysicalPlan]) -> Word2Vec {
    let corpus: Vec<Vec<String>> = plans.iter().flat_map(plan_sentences).collect();
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for token in corpus.iter().flatten() {
        *counts.entry(token).or_default() += 1;
    }
    let common: Vec<Vec<String>> = corpus
        .iter()
        .map(|s| s.iter().filter(|t| counts[t.as_str()] >= 40).cloned().collect())
        .collect();
    let w2v = encoding::train_word2vec(&common, &W2vConfig { dim: 16, epochs: 1 });
    let unknown = corpus.iter().flatten().filter(|t| w2v.vector(t).is_none()).count();
    assert!(unknown > 100 && unknown < corpus.iter().map(Vec::len).sum::<usize>() / 2);
    w2v
}

/// The default, a window the longer plans overflow, and no structure
/// block.
fn encoder_configs(plans: &[PhysicalPlan]) -> [EncoderConfig; 3] {
    let longest = plans.iter().map(PhysicalPlan::len).max().unwrap();
    [
        EncoderConfig::default(),
        EncoderConfig { max_nodes: longest / 2, structure: true },
        EncoderConfig { max_nodes: 48, structure: false },
    ]
}

/// One node's row, block by block, each from its own allocation.
fn slow_row(
    w2v: &Word2Vec,
    cfg: &EncoderConfig,
    plan: &PhysicalPlan,
    sentences: &[Vec<String>],
    id: usize,
) -> Vec<f32> {
    let node = plan.node(id);
    let mut row = w2v.embed_mean(&sentences[id]);
    row.extend(
        OPERATORS
            .iter()
            .map(|&name| if name == node.op.name() { 1.0 } else { 0.0 }),
    );
    if cfg.structure {
        let mut block = plan.structure_row(id, &plan.parents());
        block.resize(cfg.max_nodes, 0.0);
        row.extend(block);
    }
    row.push(log_norm(node.est_rows, 12.0));
    row.push(log_norm(node.est_bytes, 15.0));
    row
}

#[test]
fn encoded_rows_are_bit_equal_to_the_slow_rebuild() {
    let plans = candidate_sets(21, 130).concat();
    assert!(plans.len() >= 500, "only {} candidate plans", plans.len());
    let w2v = pruned_word2vec(&plans);
    for cfg in encoder_configs(&plans) {
        let encoder = PlanEncoder::new(w2v.clone(), cfg.clone());
        for plan in &plans {
            let encoded = encoder.encode(plan);
            let sentences = plan_sentences(plan);
            assert_eq!(encoded.num_nodes(), plan.len());
            assert_eq!(encoded.plan_stats, plan_stats(plan));
            for id in 0..plan.len() {
                assert_eq!(encoded.children(id), plan.node(id).children);
                let (fast, slow) = (encoded.row(id), slow_row(&w2v, &cfg, plan, &sentences, id));
                assert!(
                    fast.iter().map(|x| x.to_bits()).eq(slow.iter().map(|x| x.to_bits())),
                    "node {id} of\n{}\nfast {fast:?}\nslow {slow:?}",
                    plan.explain(),
                );
            }
        }
    }
}

fn bits(e: &encoding::EncodedPlan) -> Vec<u32> {
    e.node_features().iter().map(|x| x.to_bits()).collect()
}

/// A cache that changed a bit fails the equalities; one that silently
/// never hit fails the share.
#[test]
fn candidates_through_one_cache_are_bit_equal_to_each_plan_alone() {
    let sets = candidate_sets(21, 130);
    let plans = sets.concat();
    let w2v = pruned_word2vec(&plans);
    let (mut nodes, mut reused) = (0usize, 0usize);
    for cfg in encoder_configs(&plans) {
        let encoder = PlanEncoder::new(w2v.clone(), cfg);
        for set in &sets {
            let cache = encoder.op_cache();
            for plan in set {
                let (shared, supplied) = encoder.try_encode_in(plan, Some(&cache)).unwrap();
                let alone = encoder.try_encode(plan).unwrap();
                assert_eq!(bits(&shared), bits(&alone), "rows of\n{}", plan.explain());
                assert!((0..plan.len()).all(|id| shared.children(id) == alone.children(id)));
                assert_eq!(shared.plan_stats, alone.plan_stats);
                (nodes, reused) = (nodes + plan.len(), reused + supplied);
            }
        }
    }
    let share = reused as f64 / nodes as f64;
    println!("reused share {share:.3}: {reused} of {nodes} nodes over {} queries", sets.len());
    assert!(share >= 0.5, "the cache supplied {share:.3} of the rows");
}

/// Every query's candidates, shuffled, through one cache of 64 rows —
/// far fewer than the stream's distinct operators, so its sets evict
/// all along: the rows are still the ones each plan encodes to alone.
#[test]
fn a_shuffled_stream_through_a_small_cache_gives_the_rows_alone_gives() {
    let mut plans = candidate_sets(22, 130).concat();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(22);
    rand::seq::SliceRandom::shuffle(&mut plans[..], &mut rng);
    let encoder = PlanEncoder::new(pruned_word2vec(&plans), EncoderConfig::default());
    let cache = encoder.op_cache_with_entries(64);
    let (mut nodes, mut reused) = (0usize, 0usize);
    for plan in &plans {
        let (shared, supplied) = encoder.try_encode_in(plan, Some(&cache)).unwrap();
        assert_eq!(bits(&shared), bits(&encoder.encode(plan)), "rows of\n{}", plan.explain());
        (nodes, reused) = (nodes + plan.len(), reused + supplied);
    }
    let distinct: HashSet<u64> = plans.iter().flat_map(|p| p.nodes()).map(|n| n.op.key()).collect();
    println!(
        "a 64-row cache supplied {reused} of {nodes} rows ({} operators)",
        distinct.len()
    );
    assert_eq!(cache.len(), cache.capacity());
    // More rows computed than there are operators: evicted ones came back.
    assert!(distinct.len() >= 4 * cache.capacity() && nodes - reused > distinct.len());
    assert!(reused > 0);
}
