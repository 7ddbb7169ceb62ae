//! Parallel configurations and device meshes for distributed LLM inference.
//!
//! A [`ParallelConfig`] is the paper's tuple `C = (D, P, M, B)`: data,
//! pipeline-model and tensor-model parallel degrees plus the maximum
//! mini-batch size (§3.2). A configuration induces a logical *device mesh*
//! of [`MeshPosition`]s `(d, p, m)`; [`partition`] describes which layers
//! and which shard-interval of each layer a position owns, which is what
//! context-overlap computations (device mapping, §3.3) are built on.
//!
//! [`enumerate_configs`] lists every
//! memory-feasible configuration for a fleet size, and [`PerfModel`]
//! estimates `l_exe`, serving throughput `φ(C)` and the end-to-end request
//! latency `l_req(C)` that Algorithm 1 optimizes.
//!
//! # Example
//!
//! ```
//! use parallelism::ParallelConfig;
//!
//! let c = ParallelConfig::new(2, 3, 4, 8);
//! assert_eq!(c.total_gpus(), 24);
//! assert_eq!(c.positions().count(), 24);
//! assert_eq!(format!("{c}"), "(D=2,P=3,M=4,B=8)");
//! ```

pub mod config;
pub mod enumerate;
pub mod frontier;
pub mod mesh;
pub mod partition;
pub mod perf;

pub use config::ParallelConfig;
pub use enumerate::{enumerate_configs, ConfigSpace};
pub use frontier::{Candidate, CandidateFrontier};
pub use mesh::MeshPosition;
pub use partition::{shard_overlap, stage_layers, PositionContext};
pub use perf::{EngineMode, PerfModel};
