//! Explicit one-hot operator encoding (the paper's Table II) — kept both
//! as the baseline the paper argues *against* (sparse, no similarity
//! structure) and as a cheap feature block that tells the model the exact
//! operator type of each node.

use sparksim::plan::physical::PhysicalOp;

/// Operator vocabulary, Table II order extended with the remaining
/// operators our planner emits.
pub const OPERATORS: [&str; 12] = [
    "FileScan",
    "Project",
    "Sort",
    "SortMergeJoin",
    "HashAggregate",
    "ExchangeSinglePartition",
    "ExchangeHashPartition",
    "Filter",
    "BroadcastHashJoin",
    "ShuffledHashJoin",
    "BroadcastExchange",
    "CollectLimit",
];

/// Dimension of the one-hot operator block.
pub const DIM: usize = OPERATORS.len();

/// The one-hot slot of an operator: the position of its
/// [`PhysicalOp::name`] in [`OPERATORS`], without comparing names.
pub fn operator_slot(op: &PhysicalOp) -> usize {
    match op {
        PhysicalOp::FileScan { .. } => 0,
        PhysicalOp::Project { .. } => 1,
        PhysicalOp::Sort { .. } => 2,
        PhysicalOp::SortMergeJoin { .. } => 3,
        PhysicalOp::HashAggregate { .. } => 4,
        PhysicalOp::ExchangeSingle => 5,
        PhysicalOp::ExchangeHash { .. } => 6,
        PhysicalOp::Filter { .. } => 7,
        PhysicalOp::BroadcastHashJoin { .. } => 8,
        PhysicalOp::ShuffledHashJoin { .. } => 9,
        PhysicalOp::BroadcastExchange => 10,
        PhysicalOp::Limit { .. } => 11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_planner_operators() {
        // Every slot is taken once, by the operator of that name.
        use sparksim::plan::physical::AggMode;
        use sparksim::plan::spec::AggSpec;
        use sparksim::schema::ColumnRef;
        use sparksim::sql::ast::AggFunc;
        let cr = || ColumnRef::new("t", "c");
        let ops = vec![
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "t".into(),
                output: vec![],
                pushed_filter: None,
            },
            PhysicalOp::Filter {
                predicate: sparksim::expr::Expr::IsNotNull(Box::new(sparksim::expr::Expr::Column(
                    cr(),
                ))),
            },
            PhysicalOp::Project { columns: vec![] },
            PhysicalOp::ExchangeHash { keys: vec![], partitions: 4 },
            PhysicalOp::ExchangeSingle,
            PhysicalOp::BroadcastExchange,
            PhysicalOp::Sort { keys: vec![] },
            PhysicalOp::SortMergeJoin { left_key: cr(), right_key: cr() },
            PhysicalOp::BroadcastHashJoin { probe_key: cr(), build_key: cr() },
            PhysicalOp::ShuffledHashJoin { left_key: cr(), right_key: cr() },
            PhysicalOp::HashAggregate {
                mode: AggMode::Partial,
                group_by: vec![],
                aggs: vec![AggSpec { func: AggFunc::Count, arg: None }],
            },
            PhysicalOp::Limit { n: 1 },
        ];
        let mut taken = [false; DIM];
        for op in ops {
            let slot = operator_slot(&op);
            assert_eq!(OPERATORS[slot], op.name());
            assert!(!std::mem::replace(&mut taken[slot], true), "slot {slot} taken twice");
        }
        assert_eq!(taken, [true; DIM]);
    }
}
