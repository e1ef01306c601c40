//! End-to-end plan/sample encoding: the paper's Sec. IV-C.
//!
//! Each plan node becomes the concatenation of
//! * a **node-semantic embedding** — the mean word2vec vector of the
//!   node's execution-statement tokens,
//! * a **one-hot operator block** (Table II),
//! * a **structure embedding** — the signed degree row (children +1,
//!   parent −1) padded to `max_nodes`,
//! * two normalised per-node **statistics** (log-scaled estimated rows and
//!   bytes from the optimizer).
//!
//! A full training [`Sample`] adds the normalised resource vector (Eq. 1),
//! plan-level statistics, and the observed execution time.

use crate::onehot;
use crate::tokenizer::Tokenizer;
use crate::word2vec::{EmbeddingTable, Word2Vec};
use serde::{Deserialize, Serialize};
use sparksim::plan::physical::{PhysicalOp, WordHasher};
use sparksim::resource::{ClusterConfig, ResourceConfig};
use sparksim::PhysicalPlan;
use std::hash::{Hash, Hasher};

/// Encoder dimensions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Structure-embedding width: plans longer than this have their
    /// structure rows truncated (semantic features keep working).
    pub max_nodes: usize,
    /// Include the structure block (disabled for the NE-LSTM ablation).
    pub structure: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self { max_nodes: 48, structure: true }
    }
}

/// Number of per-node statistic features.
pub const NODE_STAT_FEATURES: usize = 2;
/// Number of plan-level statistic features.
pub const PLAN_STAT_FEATURES: usize = 8;

/// An encoded plan: per-node feature rows, in one buffer the plan
/// layer reads as it lies, plus the child lists the node-aware
/// attention layer consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedPlan {
    node_dim: usize,
    /// `num_nodes × node_dim` features, rows in execution order.
    features: Vec<f32>,
    /// Node `i`'s children are `child_ids[child_start[i]..child_start[i + 1]]`
    /// (`num_nodes + 1` ascending offsets, the last `child_ids.len()`).
    child_start: Vec<usize>,
    child_ids: Vec<usize>,
    /// Plan-level statistics (see [`plan_stats`]).
    pub plan_stats: [f32; PLAN_STAT_FEATURES],
}

impl EncodedPlan {
    /// An encoded plan from per-node rows (all of one width) and child
    /// lists, as fixtures write them; nothing is validated.
    ///
    /// # Panics
    /// Panics if the rows differ in width or number from `children`.
    pub fn from_rows(
        rows: &[Vec<f32>],
        children: &[Vec<usize>],
        plan_stats: [f32; PLAN_STAT_FEATURES],
    ) -> Self {
        assert_eq!(rows.len(), children.len(), "one feature row per node");
        let node_dim = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|r| r.len() == node_dim), "rows must share one width");
        let mut child_start = vec![0];
        for kids in children {
            child_start.push(child_start[child_start.len() - 1] + kids.len());
        }
        Self {
            node_dim,
            features: rows.concat(),
            child_start,
            child_ids: children.concat(),
            plan_stats,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.child_start.len().saturating_sub(1)
    }

    /// Width of one feature row.
    pub fn node_dim(&self) -> usize {
        self.node_dim
    }

    /// All feature rows, row-major: `num_nodes × node_dim`.
    pub fn node_features(&self) -> &[f32] {
        &self.features
    }

    /// The feature row of node `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        // PANIC-FREE: callers pass i < num_nodes, and `features` holds
        // num_nodes rows of node_dim.
        &self.features[i * self.node_dim..(i + 1) * self.node_dim]
    }

    /// Child ids of node `i` (indices of other rows).
    pub fn children(&self, i: usize) -> &[usize] {
        // PANIC-FREE: callers pass i < num_nodes; `child_start` holds
        // num_nodes + 1 ascending offsets into `child_ids`.
        &self.child_ids[self.child_start[i]..self.child_start[i + 1]]
    }

    /// Structural validation of the child lists ([`analysis::dag`]):
    /// in-range, topologically ordered (children strictly precede
    /// parents, ruling out cycles), duplicate-free, single-parent, and a
    /// unique root that is the last node. Use
    /// [`PlanEncoder::validate`] to additionally cross-check the signed
    /// structure rows.
    pub fn validate(&self) -> Result<(), analysis::dag::DagError> {
        analysis::dag::validate_children(self.num_nodes(), |i| self.children(i))
    }
}

/// One training record for the deep cost models.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Encoded plan.
    pub plan: EncodedPlan,
    /// Normalised resource features (Eq. 1, Table I order).
    pub resources: Vec<f32>,
    /// Observed execution seconds (the label).
    pub seconds: f64,
}

/// Slots of an [`OpMemo`], and how many of them a lookup probes: its
/// cost does not grow with the number of plans in the call.
const MEMO_SLOTS: usize = 256;
const MEMO_PROBES: usize = 8;

/// One multi-plan call's operator memo: the semantic block of each
/// distinct [`PhysicalOp`] encoded so far, so that a query's candidate
/// plans render, tokenise and embed a scan or an exchange they share
/// once ([`PlanEncoder::try_encode_in`]). Make one per call
/// (`OpMemo::default()`) and drop it with the call: what it holds
/// borrows the call's plans.
pub struct OpMemo<'p> {
    /// Open-addressed by the operator's hash: the hash, the operator
    /// and where its block starts in `blocks`.
    slots: [Option<(u64, &'p PhysicalOp, usize)>; MEMO_SLOTS],
    blocks: Vec<f32>,
    /// Nodes encoded through this memo.
    pub nodes: u64,
    /// Those of them whose block an earlier node had computed.
    pub reused: u64,
}

impl Default for OpMemo<'_> {
    fn default() -> Self {
        Self {
            slots: [None; MEMO_SLOTS],
            blocks: Vec::new(),
            nodes: 0,
            reused: 0,
        }
    }
}

impl OpMemo<'_> {
    /// Where `op`'s block starts, or — it is not held — its hash and the
    /// free slot it may take (`None`: every probed slot is taken, and
    /// `op` is encoded without being remembered). A hash match is a
    /// hint; `==` decides, and it is finer than the rendered statement.
    fn find(&self, op: &PhysicalOp) -> Result<usize, (u64, Option<usize>)> {
        // The walk `PhysicalPlan::structural_hash` makes of one operator.
        let mut hasher = WordHasher::default();
        op.hash(&mut hasher);
        let hash = hasher.finish();
        for probe in 0..MEMO_PROBES {
            let at = (hash as usize).wrapping_add(probe) % MEMO_SLOTS;
            // PANIC-FREE: at < MEMO_SLOTS, the array's length.
            match self.slots[at] {
                None => return Err((hash, Some(at))),
                Some((held, earlier, block)) if held == hash && earlier == op => return Ok(block),
                Some(_) => {}
            }
        }
        Err((hash, None))
    }
}

/// Encodes plans into model inputs.
#[derive(Debug, Clone)]
pub struct PlanEncoder {
    w2v: Word2Vec,
    /// `w2v`, frozen for lookup by [`Self::encode`].
    table: EmbeddingTable,
    cfg: EncoderConfig,
}

impl PlanEncoder {
    /// Creates an encoder from a trained word2vec model.
    pub fn new(w2v: Word2Vec, cfg: EncoderConfig) -> Self {
        Self { table: w2v.freeze(), w2v, cfg }
    }

    /// The per-node feature width this encoder produces.
    pub fn node_dim(&self) -> usize {
        self.w2v.dim()
            + onehot::DIM
            + if self.cfg.structure {
                self.cfg.max_nodes
            } else {
                0
            }
            + NODE_STAT_FEATURES
    }

    /// The configuration in use.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// The underlying word2vec model.
    pub fn word2vec(&self) -> &Word2Vec {
        &self.w2v
    }

    /// [`Self::try_encode`] for plans this program built itself.
    ///
    /// # Panics
    /// Panics if the plan is not a single bottom-up tree.
    pub fn encode(&self, plan: &PhysicalPlan) -> EncodedPlan {
        match self.try_encode(plan) {
            Ok(encoded) => encoded,
            // PANIC-FREE: deliberate guard — a malformed plan (or a bug
            // in the structure-row emission) must fail loudly before it
            // can reach the model and mispredict silently; the planner
            // never emits one.
            Err(e) => panic!("plan encoding produced an invalid DAG: {e}"),
        }
    }

    /// Encodes a physical plan: one pass over the nodes, each statement
    /// rendered straight into the tokenizer and each token's embedding
    /// added, in token order, to the node's row where it lies. A plan
    /// that is empty or not a single tree — two roots, a child listed
    /// twice or under two parents — is rejected by the static DAG check
    /// ([`Self::validate`]) that closes the pass.
    pub fn try_encode(&self, plan: &PhysicalPlan) -> Result<EncodedPlan, analysis::dag::DagError> {
        self.try_encode_in(plan, None)
    }

    /// [`Self::try_encode`] as one of a call's several plans: with a
    /// memo, a node whose operator `==` one met earlier in the call
    /// takes that node's semantic block — the same `f32`s — instead of
    /// computing it again; everything else is written per node.
    pub fn try_encode_in<'p>(
        &self,
        plan: &'p PhysicalPlan,
        mut memo: Option<&mut OpMemo<'p>>,
    ) -> Result<EncodedPlan, analysis::dag::DagError> {
        if plan.is_empty() {
            return Err(analysis::dag::DagError::Empty);
        }
        let (n, dim) = (plan.len(), self.node_dim());
        let onehot_at = self.w2v.dim();
        let structure_at = onehot_at + onehot::DIM;
        let window = if self.cfg.structure {
            self.cfg.max_nodes
        } else {
            0
        };
        // HOT-ALLOC: the three buffers of the returned EncodedPlan, and
        // the tokenizer's word scratch — once per plan, not per node.
        let mut features = vec![0.0f32; n * dim];
        let mut child_start = Vec::with_capacity(n + 1);
        let mut child_ids = Vec::with_capacity(n);
        let mut word = String::with_capacity(64);
        for (id, node) in plan.nodes().iter().enumerate() {
            // HOT-ALLOC: within the capacities reserved above (a tree
            // of n nodes has n - 1 edges).
            child_start.push(child_ids.len());
            child_ids.extend_from_slice(&node.children);
            // Structure block (signed degrees, truncated to the
            // window): +1 in this row per child, −1 in the child's row.
            for &c in &node.children {
                // PANIC-FREE: c < id < n (`PhysicalPlan::add` builds
                // bottom-up), both columns are inside the window, and
                // `features` holds n rows of dim > structure_at + window.
                if c < window {
                    features[id * dim + structure_at + c] = 1.0;
                }
                if id < window {
                    features[c * dim + structure_at + id] = -1.0;
                }
            }
            // PANIC-FREE: id < n, and `features` holds n rows of dim.
            let row = &mut features[id * dim..(id + 1) * dim];
            // Semantic block: the mean embedding of the statement's
            // in-vocabulary tokens.
            let (semantic, rest) = row.split_at_mut(onehot_at);
            let seat = memo.as_deref().map_or(Err((0, None)), |m| m.find(&node.op));
            if let (Ok(block), Some(m)) = (seat, memo.as_deref_mut()) {
                // PANIC-FREE: blocks are appended whole, onehot_at wide.
                semantic.copy_from_slice(&m.blocks[block..block + onehot_at]);
                m.reused += 1;
            } else {
                let mut hits = 0usize;
                let mut tokenizer = Tokenizer::new(word, |token: &str| {
                    if let Some(vector) = self.table.embedding(token) {
                        for (acc, &x) in semantic.iter_mut().zip(vector) {
                            *acc += x;
                        }
                        hits += 1;
                    }
                });
                // The tokenizer never fails a write.
                let _ = plan.write_statement(id, &mut tokenizer);
                word = tokenizer.finish();
                if hits > 0 {
                    for acc in semantic.iter_mut() {
                        *acc /= hits as f32;
                    }
                }
                if let (Err((hash, Some(slot))), Some(m)) = (seat, memo.as_deref_mut()) {
                    // HOT-ALLOC: room for every slot's block, once per
                    // multi-plan call.
                    m.blocks
                        .reserve_exact((MEMO_SLOTS * onehot_at).saturating_sub(m.blocks.len()));
                    // PANIC-FREE: `find` returned slot < MEMO_SLOTS.
                    m.slots[slot] = Some((hash, &node.op, m.blocks.len()));
                    m.blocks.extend_from_slice(semantic);
                }
            }
            // Operator one-hot block and node statistics.
            // PANIC-FREE: `rest` is the dim - onehot_at ≥ onehot::DIM +
            // NODE_STAT_FEATURES tail of the row.
            rest[onehot::operator_slot(&node.op)] = 1.0;
            let stats = rest.len() - NODE_STAT_FEATURES;
            rest[stats] = log_norm(node.est_rows, 12.0);
            rest[stats + 1] = log_norm(node.est_bytes, 15.0);
        }
        // HOT-ALLOC: the last of the n + 1 reserved offsets.
        child_start.push(child_ids.len());
        if let Some(m) = memo {
            m.nodes += n as u64;
        }
        let encoded = EncodedPlan {
            node_dim: dim,
            features,
            child_start,
            child_ids,
            plan_stats: plan_stats(plan),
        };
        self.validate(&encoded)?;
        Ok(encoded)
    }

    /// Full static validation of an encoded plan: the child-list
    /// invariants of [`EncodedPlan::validate`] plus a cross-check that
    /// every `+1` child entry in the signed structure rows is mirrored
    /// by the child's `−1` parent entry (entries beyond the `max_nodes`
    /// truncation window are exempt, matching how they are emitted).
    pub fn validate(&self, plan: &EncodedPlan) -> Result<(), analysis::dag::DagError> {
        if !self.cfg.structure {
            return plan.validate();
        }
        let at = self.w2v.dim() + onehot::DIM;
        analysis::dag::validate_signed_rows(
            plan.num_nodes(),
            |i| plan.children(i),
            |i| {
                // Type-qualified so raal-lint's call graph does not
                // take it for `Tensor::row`.
                let row = EncodedPlan::row(plan, i);
                row.get(at..(at + self.cfg.max_nodes).min(row.len())).unwrap_or(&[])
            },
        )
    }

    /// Encodes a full training sample.
    pub fn encode_sample(
        &self,
        plan: &PhysicalPlan,
        resources: &ResourceConfig,
        cluster: &ClusterConfig,
        seconds: f64,
    ) -> Sample {
        Sample {
            plan: self.encode(plan),
            resources: resources.feature_vector(cluster),
            seconds,
        }
    }
}

/// `log10(1 + x) / denom`, clamped to [0, 1] — the normalisation used for
/// cardinality-like features.
pub fn log_norm(x: f64, denom: f64) -> f32 {
    // PANIC-FREE: float division.
    (((1.0 + x.max(0.0)).log10()) / denom).clamp(0.0, 1.0) as f32
}

/// Plan-level statistics: scan volume, estimated output, operator mix.
pub fn plan_stats(plan: &PhysicalPlan) -> [f32; PLAN_STAT_FEATURES] {
    let mut n_join_smj = 0usize;
    let mut n_join_bhj = 0usize;
    let mut n_exchange = 0usize;
    let mut n_sort = 0usize;
    for node in plan.nodes() {
        match &node.op {
            PhysicalOp::SortMergeJoin { .. } => n_join_smj += 1,
            PhysicalOp::BroadcastHashJoin { .. } | PhysicalOp::ShuffledHashJoin { .. } => {
                n_join_bhj += 1
            }
            PhysicalOp::Sort { .. } => n_sort += 1,
            op if op.is_exchange() => n_exchange += 1,
            _ => {}
        }
    }
    let root = plan.node(plan.root());
    [
        log_norm(plan.scan_bytes(), 15.0),
        log_norm(root.est_rows, 12.0),
        log_norm(root.est_bytes, 15.0),
        (plan.len() as f32 / 64.0).min(1.0),
        (n_join_smj as f32 / 8.0).min(1.0),
        (n_join_bhj as f32 / 8.0).min(1.0),
        (n_exchange as f32 / 12.0).min(1.0),
        (n_sort as f32 / 8.0).min(1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word2vec::{train, W2vConfig};
    use sparksim::expr::{CmpOp, Expr};
    use sparksim::plan::physical::{AggMode, PhysicalOp, PhysicalPlan};
    use sparksim::plan::spec::AggSpec;
    use sparksim::schema::ColumnRef;
    use sparksim::sql::ast::AggFunc;
    use sparksim::types::Value;

    fn plan() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let scan = p.add(
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "title".into(),
                output: vec![ColumnRef::new("t", "id")],
                pushed_filter: Some(Expr::cmp(ColumnRef::new("t", "id"), CmpOp::Lt, Value::Int(7))),
            },
            vec![],
            100.0,
            800.0,
        );
        let agg = p.add(
            PhysicalOp::HashAggregate {
                mode: AggMode::Partial,
                group_by: vec![],
                aggs: vec![AggSpec { func: AggFunc::Count, arg: None }],
            },
            vec![scan],
            1.0,
            8.0,
        );
        let ex = p.add(PhysicalOp::ExchangeSingle, vec![agg], 1.0, 8.0);
        p.add(
            PhysicalOp::HashAggregate {
                mode: AggMode::Final,
                group_by: vec![],
                aggs: vec![AggSpec { func: AggFunc::Count, arg: None }],
            },
            vec![ex],
            1.0,
            8.0,
        );
        p
    }

    fn encoder() -> PlanEncoder {
        let corpus = crate::tokenizer::plan_sentences(&plan());
        let w2v = train(&corpus, &W2vConfig { dim: 8, epochs: 2, ..Default::default() });
        PlanEncoder::new(w2v, EncoderConfig { max_nodes: 16, structure: true })
    }

    #[test]
    fn node_rows_have_declared_dim() {
        let enc = encoder();
        let e = enc.encode(&plan());
        assert_eq!(e.num_nodes(), 4);
        assert_eq!(e.node_dim(), enc.node_dim());
        assert_eq!(e.node_features().len(), 4 * enc.node_dim());
        assert_eq!(e.row(3).len(), enc.node_dim());
    }

    #[test]
    fn structure_block_encodes_tree() {
        let enc = encoder();
        let e = enc.encode(&plan());
        let w2v_dim = 8;
        let start = w2v_dim + onehot::DIM;
        // Node 0 (scan): parent is node 1 -> -1 at offset 1.
        assert_eq!(e.row(0)[start + 1], -1.0);
        // Node 1: child 0 -> +1 at offset 0, parent 2 -> -1 at offset 2.
        assert_eq!(e.row(1)[start], 1.0);
        assert_eq!(e.row(1)[start + 2], -1.0);
    }

    #[test]
    fn structure_can_be_disabled() {
        let corpus = crate::tokenizer::plan_sentences(&plan());
        let w2v = train(&corpus, &W2vConfig { dim: 8, epochs: 2, ..Default::default() });
        let enc = PlanEncoder::new(w2v, EncoderConfig { max_nodes: 16, structure: false });
        assert_eq!(enc.node_dim(), 8 + onehot::DIM + NODE_STAT_FEATURES);
        let e = enc.encode(&plan());
        assert_eq!(e.row(0).len(), enc.node_dim());
    }

    #[test]
    fn children_lists_match_plan() {
        let enc = encoder();
        let e = enc.encode(&plan());
        assert_eq!(e.children(0), [0usize; 0]);
        assert_eq!(e.children(1), [0]);
        assert_eq!(e.children(3), [2]);
    }

    /// Encodes `plans` through `memo`, each checked against its lone
    /// encoding bit for bit.
    fn encode_all<'p>(enc: &PlanEncoder, plans: &[&'p PhysicalPlan], memo: &mut OpMemo<'p>) {
        for plan in plans {
            let (shared, alone) = (enc.try_encode_in(plan, Some(memo)), enc.try_encode(plan));
            assert_eq!(shared.is_ok(), alone.is_ok());
            if let (Ok(shared), Ok(alone)) = (shared, alone) {
                let bits =
                    |e: &EncodedPlan| e.features.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&shared), bits(&alone));
                assert_eq!(shared, alone);
            }
        }
    }

    fn chain(ops: impl IntoIterator<Item = PhysicalOp>) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        for (i, op) in ops.into_iter().enumerate() {
            p.add(op, if i == 0 { vec![] } else { vec![i - 1] }, 10.0, 80.0);
        }
        p
    }

    #[test]
    fn candidates_share_blocks_and_a_malformed_plan_spoils_nothing() {
        let (enc, good) = (encoder(), plan());
        let mut two_roots = plan();
        two_roots.add(PhysicalOp::ExchangeSingle, vec![], 1.0, 8.0);
        let mut memo = OpMemo::default();
        encode_all(&enc, &[&good, &two_roots, &good], &mut memo);
        assert!(enc.try_encode_in(&two_roots, Some(&mut memo)).is_err());
        // Only the first plan's four nodes were computed: the rejected
        // plan (its fifth operator is its third again) found and left
        // good blocks.
        assert_eq!((memo.nodes, memo.reused), (4 + 5 + 4 + 5, 5 + 4 + 5));
    }

    #[test]
    fn an_equal_hash_or_a_taken_slot_is_not_a_match() {
        let (enc, good) = (encoder(), plan());
        let squatter = PhysicalOp::Limit { n: 3 };
        for same_hash in [true, false] {
            let mut memo = OpMemo { blocks: vec![9.0; 8], ..Default::default() };
            for node in good.nodes() {
                let Err((hash, Some(home))) = OpMemo::default().find(&node.op) else {
                    unreachable!("an empty memo holds nothing")
                };
                let forged = if same_hash { hash } else { hash ^ (1 << 40) };
                memo.slots[home] = Some((forged, &squatter, 0));
            }
            encode_all(&enc, &[&good, &good], &mut memo);
            assert_eq!((memo.nodes, memo.reused), (8, 4));
        }
    }

    #[test]
    fn operators_differing_in_a_literal_or_an_alias_do_not_share() {
        let scan = |binding: &str, bound: i64| PhysicalOp::FileScan {
            binding: binding.into(),
            table: "title".into(),
            output: vec![ColumnRef::new("t", "id")],
            pushed_filter: Some(Expr::cmp(ColumnRef::new("t", "id"), CmpOp::Lt, Value::Int(bound))),
        };
        // One statement, three operators.
        let plans = [chain([scan("t", 7)]), chain([scan("t", 8)]), chain([scan("t2", 7)])];
        let words = crate::tokenizer::plan_sentences;
        assert!(plans.iter().all(|p| words(p) == words(&plans[0])));
        let mut memo = OpMemo::default();
        encode_all(&encoder(), &plans.each_ref(), &mut memo);
        assert_eq!((memo.nodes, memo.reused), (3, 0));
    }

    #[test]
    fn more_operators_than_slots_still_encode_right() {
        let long = chain((0..MEMO_SLOTS + 90).map(|n| PhysicalOp::Limit { n }));
        let mut memo = OpMemo::default();
        encode_all(&encoder(), &[&long, &long], &mut memo);
        let held = memo.slots.iter().flatten().count() as u64;
        assert!(held > 128 && held <= MEMO_SLOTS as u64, "{held} operators held");
        assert_eq!((memo.nodes, memo.reused), (2 * long.len() as u64, held));
    }

    #[test]
    fn log_norm_behaviour() {
        assert_eq!(log_norm(0.0, 12.0), 0.0);
        assert!(log_norm(1e12, 12.0) >= 0.99);
        assert!(log_norm(1e30, 12.0) <= 1.0);
        assert!(log_norm(-5.0, 12.0) >= 0.0);
    }

    #[test]
    fn sample_includes_resources_and_label() {
        let enc = encoder();
        let cluster = ClusterConfig::default();
        let res = ResourceConfig::default_for(&cluster);
        let s = enc.encode_sample(&plan(), &res, &cluster, 12.5);
        assert_eq!(s.resources.len(), ResourceConfig::NUM_FEATURES);
        assert_eq!(s.seconds, 12.5);
    }
}
