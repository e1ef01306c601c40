//! Plan-DAG validation.
//!
//! Encoded plans carry their operator tree twice: as explicit child
//! lists (consumed by the node-aware attention layer) and as signed
//! adjacency rows inside the structure-embedding block (children `+1`,
//! parent `−1`). The model silently mispredicts — or panics inside a
//! kernel — if either is corrupt, so this module checks the invariants
//! the encoding relies on:
//!
//! * every child index is in range and **precedes** its parent
//!   (bottom-up topological order, which also rules out cycles),
//! * no duplicated child edges, no node with two parents,
//! * exactly one root (a node that is nobody's child), and it is the
//!   last node — the execution order the LSTM consumes ends at the root,
//! * every `+1` child entry in a signed adjacency row has the matching
//!   `−1` entry in the child's row, and no stray non-zero entries exist.
//!
//! [`validate_children`] checks the child lists alone;
//! [`validate_signed_rows`] additionally cross-checks the structure
//! block against them (entries beyond the encoder's `max_nodes`
//! truncation are exempt, matching how the encoder emits them).

use std::fmt;

/// A structural defect in a plan DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum DagError {
    /// The plan has no nodes.
    Empty,
    /// A child index is not a valid node id.
    ChildOutOfRange {
        /// Referring node.
        node: usize,
        /// Offending child id.
        child: usize,
        /// Number of nodes in the plan.
        len: usize,
    },
    /// A child does not precede its parent — a forward reference or a
    /// cycle; either way execution order is undefined.
    NotTopological {
        /// Referring node.
        node: usize,
        /// Offending child id (`>= node`).
        child: usize,
    },
    /// The same child appears twice under one parent.
    DuplicateChild {
        /// Referring node.
        node: usize,
        /// Duplicated child id.
        child: usize,
    },
    /// A node is claimed as a child by two different parents.
    MultipleParents {
        /// The contested node.
        node: usize,
        /// First claiming parent.
        first: usize,
        /// Second claiming parent.
        second: usize,
    },
    /// More than one node has no parent (an orphan subtree).
    MultipleRoots {
        /// First parentless node.
        first: usize,
        /// Second parentless node.
        second: usize,
    },
    /// The unique root is not the last node in execution order.
    RootNotLast {
        /// The parentless node.
        root: usize,
        /// Index of the last node.
        last: usize,
    },
    /// A signed adjacency row has `+1` at a column that is not one of
    /// the node's children (an orphan child entry).
    OrphanChildEntry {
        /// Row (node) index.
        node: usize,
        /// Offending column.
        col: usize,
    },
    /// A child's row is missing the `−1` entry pointing back at its
    /// parent (every `+1` must be mirrored by a `−1`).
    MissingParentEntry {
        /// The child whose row is wrong.
        child: usize,
        /// The parent the row should point at.
        parent: usize,
    },
    /// A signed adjacency entry is neither `0`, `+1` nor `−1`.
    BadEntry {
        /// Row (node) index.
        node: usize,
        /// Offending column.
        col: usize,
        /// The value found.
        value: f32,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "plan has no nodes"),
            DagError::ChildOutOfRange { node, child, len } => {
                write!(f, "node {node} lists child {child}, but the plan has {len} nodes")
            }
            DagError::NotTopological { node, child } => write!(
                f,
                "node {node} lists child {child} which does not precede it \
                 (forward reference or cycle breaks topological order)"
            ),
            DagError::DuplicateChild { node, child } => {
                write!(f, "node {node} lists child {child} twice")
            }
            DagError::MultipleParents { node, first, second } => {
                write!(f, "node {node} has two parents: {first} and {second}")
            }
            DagError::MultipleRoots { first, second } => {
                write!(f, "plan has multiple roots: nodes {first} and {second} are parentless")
            }
            DagError::RootNotLast { root, last } => write!(
                f,
                "root is node {root} but execution order ends at node {last} \
                 (the root must be last)"
            ),
            DagError::OrphanChildEntry { node, col } => write!(
                f,
                "signed adjacency row {node} has +1 at column {col}, \
                 which is not one of its children"
            ),
            DagError::MissingParentEntry { child, parent } => write!(
                f,
                "signed adjacency row {child} is missing the -1 entry for its parent {parent}"
            ),
            DagError::BadEntry { node, col, value } => write!(
                f,
                "signed adjacency row {node} column {col} holds {value}, expected 0, +1 or -1"
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// Parent slot of a node nobody has claimed (yet): the root's, finally.
const NO_PARENT: usize = usize::MAX;

/// Plans up to this many nodes keep the parent map on the stack (the
/// planner's largest plan has 34).
const STACK_NODES: usize = 64;

/// Runs `body` over an `n`-slot parent map filled with [`NO_PARENT`].
fn with_parent_map<T>(n: usize, body: impl FnOnce(&mut [usize]) -> T) -> T {
    let mut stack = [NO_PARENT; STACK_NODES];
    match stack.get_mut(..n) {
        Some(parent) => body(parent),
        // HOT-ALLOC: plans over STACK_NODES nodes only.
        None => body(&mut vec![NO_PARENT; n]),
    }
}

/// [`validate_children`], recording each node's parent in `parent`
/// (`n` slots of [`NO_PARENT`] on entry).
fn check_children<'a>(
    n: usize,
    children: &impl Fn(usize) -> &'a [usize],
    parent: &mut [usize],
) -> Result<(), DagError> {
    if n == 0 {
        return Err(DagError::Empty);
    }
    for node in 0..n {
        for &child in children(node) {
            if child >= n {
                return Err(DagError::ChildOutOfRange { node, child, len: n });
            }
            if child >= node {
                return Err(DagError::NotTopological { node, child });
            }
            // PANIC-FREE: child < n was checked above and `parent` has
            // n slots.
            match std::mem::replace(&mut parent[child], node) {
                NO_PARENT => {}
                first if first == node => return Err(DagError::DuplicateChild { node, child }),
                first => {
                    return Err(DagError::MultipleParents { node: child, first, second: node })
                }
            }
        }
    }
    let mut roots = parent
        .iter()
        .enumerate()
        .filter_map(|(i, &p)| (p == NO_PARENT).then_some(i));
    // PANIC-FREE: edges only point backwards (checked above), so the
    // last node is always parentless.
    let root = roots.next().expect("the last node has no parent");
    if let Some(second) = roots.next() {
        return Err(DagError::MultipleRoots { first: root, second });
    }
    if root != n - 1 {
        return Err(DagError::RootNotLast { root, last: n - 1 });
    }
    Ok(())
}

/// Validates the child lists of an `n`-node plan: in-range, strictly
/// preceding, duplicate-free, single-parent, and a unique root that is
/// the last node. `children(i)` lists the ids of node `i`'s inputs.
pub fn validate_children<'a>(
    n: usize,
    children: impl Fn(usize) -> &'a [usize],
) -> Result<(), DagError> {
    with_parent_map(n, |parent| check_children(n, &children, parent))
}

/// Validates the child lists ([`validate_children`]) and cross-checks
/// the signed adjacency rows against them.
///
/// `signed(i)` is node `i`'s structure row, borrowed where it lies
/// inside the encoder's feature buffer. Only the columns a row
/// actually has are inspected (the encoder truncates plans longer than
/// its `max_nodes` to that window, so out-of-window relations
/// legitimately vanish). A row is first compared with what the child
/// lists predict — `+1` at each child, `-1` at the parent, and exactly
/// that many non-zero entries — and only a row that differs is walked
/// entry by entry for the diagnosis.
pub fn validate_signed_rows<'a, 'b>(
    n: usize,
    children: impl Fn(usize) -> &'a [usize],
    signed: impl Fn(usize) -> &'b [f32],
) -> Result<(), DagError> {
    with_parent_map(n, |parent| {
        check_children(n, &children, parent)?;
        for (node, &up) in parent.iter().enumerate() {
            let (row, kids) = (signed(node), children(node));
            let expected = kids.iter().chain([&up]).filter(|&&col| col < row.len()).count();
            let as_predicted = kids.iter().all(|&c| row.get(c).is_none_or(|&v| v == 1.0))
                && row.get(up).is_none_or(|&v| v == -1.0)
                && row.iter().filter(|&&v| v != 0.0).count() == expected;
            if !as_predicted {
                diagnose_row(node, row, kids, up)?;
            }
            // Every +1 child entry must be mirrored by the child's -1:
            // checked from the parent's side so a zeroed child row is
            // caught.
            for &c in kids {
                if signed(c).get(node).is_some_and(|&v| v != -1.0) {
                    return Err(DagError::MissingParentEntry { child: c, parent: node });
                }
            }
        }
        Ok(())
    })
}

/// Names the first entry of a signed row that contradicts the node's
/// children `kids` and parent `up`. A parent entry that reads `0` is
/// left to the mirrored check, which names both ends.
fn diagnose_row(node: usize, row: &[f32], kids: &[usize], up: usize) -> Result<(), DagError> {
    for (col, &v) in row.iter().enumerate() {
        let is_child = kids.contains(&col);
        if v == 1.0 {
            if !is_child {
                return Err(DagError::OrphanChildEntry { node, col });
            }
        } else if v == -1.0 {
            if col != up {
                // A -1 at a non-parent column means the rows and the
                // child lists disagree about who points at whom.
                return Err(DagError::OrphanChildEntry { node, col });
            }
        } else if v != 0.0 {
            return Err(DagError::BadEntry { node, col, value: v });
        } else if is_child {
            // The child edge exists but the row says nothing: the +1
            // entry was lost (within the visible window).
            return Err(DagError::OrphanChildEntry { node, col });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// scan -> filter -> agg chain plus a two-child join root.
    fn valid_children() -> Vec<Vec<usize>> {
        vec![vec![], vec![0], vec![], vec![1, 2]]
    }

    fn validate_children(children: &[Vec<usize>]) -> Result<(), DagError> {
        super::validate_children(children.len(), |i| &children[i])
    }

    fn validate_signed_rows(children: &[Vec<usize>], rows: &[Vec<f32>]) -> Result<(), DagError> {
        super::validate_signed_rows(children.len(), |i| &children[i], |i| &rows[i])
    }

    fn rows_for(children: &[Vec<usize>], width: usize) -> Vec<Vec<f32>> {
        let n = children.len();
        let mut parent = vec![None; n];
        for (i, kids) in children.iter().enumerate() {
            for &c in kids {
                parent[c] = Some(i);
            }
        }
        (0..n)
            .map(|i| {
                let mut row = vec![0.0f32; width];
                for &c in &children[i] {
                    if c < width {
                        row[c] = 1.0;
                    }
                }
                if let Some(p) = parent[i] {
                    if p < width {
                        row[p] = -1.0;
                    }
                }
                row
            })
            .collect()
    }

    #[test]
    fn valid_tree_passes() {
        validate_children(&valid_children()).unwrap();
        let rows = rows_for(&valid_children(), 8);
        validate_signed_rows(&valid_children(), &rows).unwrap();
    }

    #[test]
    fn single_node_plan_passes() {
        validate_children(&[vec![]]).unwrap();
    }

    #[test]
    fn empty_plan_rejected() {
        assert_eq!(validate_children(&[]), Err(DagError::Empty));
    }

    #[test]
    fn cycle_rejected_as_topology_violation() {
        // 0 -> 1 -> 0: node 0 references the later node 1.
        let children = vec![vec![1], vec![0]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::NotTopological { node: 0, child: 1 })
        );
    }

    #[test]
    fn self_loop_rejected() {
        let children = vec![vec![], vec![1]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::NotTopological { node: 1, child: 1 })
        );
    }

    #[test]
    fn out_of_range_child_rejected() {
        let children = vec![vec![], vec![7]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::ChildOutOfRange { node: 1, child: 7, len: 2 })
        );
    }

    #[test]
    fn duplicated_root_rejected() {
        // Nodes 1 and 2 are both parentless: two roots.
        let children = vec![vec![], vec![0], vec![]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::MultipleRoots { first: 1, second: 2 })
        );
    }

    #[test]
    fn double_parent_rejected() {
        let children = vec![vec![], vec![0], vec![0, 1]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::MultipleParents { node: 0, first: 1, second: 2 })
        );
    }

    #[test]
    fn duplicate_child_rejected() {
        let children = vec![vec![], vec![0, 0]];
        assert_eq!(
            validate_children(&children),
            Err(DagError::DuplicateChild { node: 1, child: 0 })
        );
    }

    #[test]
    fn orphan_adjacency_entry_rejected() {
        let children = valid_children();
        let mut rows = rows_for(&children, 8);
        rows[0][2] = 1.0; // claims a child it does not have
        assert_eq!(
            validate_signed_rows(&children, &rows),
            Err(DagError::OrphanChildEntry { node: 0, col: 2 })
        );
    }

    #[test]
    fn missing_parent_entry_rejected() {
        let children = valid_children();
        let mut rows = rows_for(&children, 8);
        rows[1][3] = 0.0; // child 1 forgets its parent 3
        assert_eq!(
            validate_signed_rows(&children, &rows),
            Err(DagError::MissingParentEntry { child: 1, parent: 3 })
        );
    }

    #[test]
    fn non_unit_entry_rejected() {
        let children = valid_children();
        let mut rows = rows_for(&children, 8);
        rows[3][0] = 0.5;
        assert_eq!(
            validate_signed_rows(&children, &rows),
            Err(DagError::BadEntry { node: 3, col: 0, value: 0.5 })
        );
    }

    #[test]
    fn truncated_rows_are_exempt_beyond_window() {
        // Width-2 window: node 3's edges to 1 and 2 fall partly outside.
        let children = valid_children();
        let rows = rows_for(&children, 2);
        validate_signed_rows(&children, &rows).unwrap();
    }

    #[test]
    fn plans_wider_than_the_stack_map_are_checked_alike() {
        let mut children: Vec<Vec<usize>> = (0..3 * STACK_NODES)
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let mut rows = rows_for(&children, 8);
        validate_signed_rows(&children, &rows).unwrap();
        rows[5][2] = -1.0;
        assert_eq!(
            validate_signed_rows(&children, &rows),
            Err(DagError::OrphanChildEntry { node: 5, col: 2 })
        );
        children[100] = vec![98];
        assert_eq!(
            validate_children(&children),
            Err(DagError::MultipleParents { node: 98, first: 99, second: 100 })
        );
    }

    #[test]
    fn errors_render_precise_messages() {
        let e = DagError::NotTopological { node: 0, child: 1 };
        assert!(e.to_string().contains("cycle"));
        let e = DagError::MultipleRoots { first: 1, second: 2 };
        assert!(e.to_string().contains("multiple roots"));
    }
}
