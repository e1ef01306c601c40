//! # sparksim — a Spark-SQL-like engine with a resource-aware time simulator
//!
//! The substrate for reproducing *"A Resource-Aware Deep Cost Model for Big
//! Data Query Processing"* (ICDE 2022) without Spark bindings. It provides
//! everything the paper's pipeline needs from "Spark SQL":
//!
//! * an in-memory **columnar storage** layer and **catalog** with
//!   statistics (histograms, NDV) — [`storage`], [`catalog`], [`stats`];
//! * a **SQL front end** for the workload subset (selections, multiway
//!   equi-joins, aggregates) — [`sql`];
//! * a Catalyst-style **planner** that enumerates multiple physical plans
//!   per query (join order and strategy variants, filter placement) —
//!   [`plan`];
//! * a vectorised **executor** that runs plans for real, producing true
//!   cardinalities and byte volumes — [`exec`];
//! * a **resource model** (executors, cores, memory, throughputs) and a
//!   stage/wave **execution-time simulator** with spill, GC, page-cache and
//!   broadcast effects that reproduce the paper's non-monotonic
//!   memory behaviour — [`resource`], [`simulator`];
//! * an [`engine::Engine`] facade: SQL → candidate plans → observed runs
//!   (the training records for the deep cost model).
//!
//! ```
//! use sparksim::catalog::Catalog;
//! use sparksim::engine::Engine;
//! use sparksim::schema::{ColumnDef, TableSchema};
//! use sparksim::storage::{Column, ColumnData, Table};
//! use sparksim::types::DataType;
//!
//! let mut catalog = Catalog::new();
//! catalog.register(Table::new(
//!     TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
//!     vec![Column::non_null(ColumnData::Int((0..100).collect()))],
//! ));
//! let engine = Engine::new(catalog);
//! let result = engine.run_sql("SELECT COUNT(*) FROM t WHERE t.id < 10").unwrap();
//! assert_eq!(result.scalar_i64(), Some(10));
//! ```

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)] // typed errors, not panics

pub mod batch;
pub mod catalog;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod resource;
pub mod schema;
pub mod simulator;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod types;

pub use catalog::Catalog;
pub use engine::{Engine, EngineError, ObservedRun};
pub use plan::physical::PhysicalPlan;
pub use resource::{ClusterConfig, ResourceConfig, ResourceGrid};
pub use simulator::{CostSimulator, SimReport, SimulatorConfig};
