//! Maximum-weight bipartite assignment (Kuhn–Munkres / Hungarian method).
//!
//! SpotServe formulates device mapping as a bipartite matching problem: left
//! vertices are available GPUs, right vertices are mesh positions of the new
//! parallel configuration, and the weight of edge `(u, v)` is the number of
//! reusable context bytes if GPU `u` is placed at position `v` (§3.3). The
//! Kuhn–Munkres algorithm finds the assignment maximizing total reuse, which
//! minimizes migration traffic.
//!
//! This crate implements the O(n³) shortest-augmenting-path variant
//! ([`max_weight_assignment`]) together with a factorial-time exhaustive
//! oracle ([`exhaustive::best_assignment`]) used by the property tests.
//!
//! # Example
//!
//! ```
//! use kmatch::{max_weight_assignment, WeightMatrix};
//!
//! // Two workers, two jobs: the off-diagonal pairing is worth more.
//! let w = WeightMatrix::from_rows(&[vec![1, 10], vec![10, 1]]);
//! let a = max_weight_assignment(&w);
//! assert_eq!(a.total_weight, 20);
//! assert_eq!(a.col_of_row(0), Some(1));
//! assert_eq!(a.col_of_row(1), Some(0));
//! ```

pub mod exhaustive;
pub mod hungarian;
pub mod matrix;
pub mod skucost;

pub use hungarian::{max_weight_assignment, Assignment};
pub use matrix::WeightMatrix;
pub use skucost::{edge_weight, transfer_penalty_bytes, SkuCaps, FORBIDDEN};
