//! Query planning: binding, cardinality estimation, physical plans and
//! plan enumeration. A bound query's filters reach the scans as written:
//! the conjunctive predicate language has nothing for a logical
//! simplifier to fold.

pub mod cardinality;
pub mod physical;
pub mod planner;
pub mod spec;
