//! Capability/memory-aware edge costs for cross-SKU device mapping.
//!
//! SpotServe's device mapper weighs edge `(gpu, position)` by reusable
//! context bytes (§3.3) — which is the whole story only while every GPU is
//! the same SKU. Once migration can cross instance types, two capability
//! terms enter the weight:
//!
//! * **Memory feasibility.** A position whose model shard does not fit the
//!   target GPU's memory is not a worse placement, it is *no* placement —
//!   the `-INFINITY` of the matching formulation, realized here as the
//!   [`FORBIDDEN`] sentinel (so weight sums stay overflow-safe in `i64`).
//! * **Bandwidth-asymmetric transfer pricing.** Reuse bytes that must move
//!   across the SKU boundary travel at the *bottleneck* of the source and
//!   target inter-instance links. Crossing into a slower-linked SKU
//!   discounts the reuse by the extra transfer time (expressed in
//!   source-bandwidth byte-equivalents, keeping the weight scale of the
//!   single-SKU matrix); crossing into an equal- or faster-linked SKU
//!   costs nothing extra.
//!
//! When source and target are the same SKU the penalty is *exactly zero*
//! and the memory check is vacuous (the optimizer only enumerates
//! configurations that fit), so single-SKU weight matrices — and therefore
//! the plans KM derives from them — are bit-identical to the pre-SKU path.

/// The matching formulation's `-INFINITY`: an edge weight so negative that
/// no maximum-weight perfect matching includes it unless every alternative
/// is also forbidden. Scaled well inside `i64` (not `i64::MIN`) so
/// row/column potential arithmetic and total-weight sums over matchings of
/// up to 1024 forbidden edges stay overflow-free, while still dwarfing any
/// realizable reuse-byte weight (≲ 2⁴⁰) by orders of magnitude.
pub const FORBIDDEN: i64 = i64::MIN / 1024;

/// The capability bundle of one SKU that edge pricing consumes: per-GPU
/// memory and the effective inter-instance link bandwidth.
///
/// # Example
///
/// ```
/// use kmatch::SkuCaps;
/// let t4 = SkuCaps { memory_bytes: 16 << 30, link_bandwidth: 6e9 };
/// let l4 = SkuCaps { memory_bytes: 24 << 30, link_bandwidth: 4.5e9 };
/// assert!(l4.memory_bytes > t4.memory_bytes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkuCaps {
    /// Device memory available to the serving process, bytes per GPU.
    pub memory_bytes: u64,
    /// Effective inter-instance link bandwidth, bytes/s.
    pub link_bandwidth: f64,
}

/// Extra cost (in source-bandwidth byte-equivalents) of moving
/// `move_bytes` from `src` to `dst` instead of within `src`'s fabric.
///
/// Exactly `0` when the link bandwidths are equal (the single-SKU path) or
/// when the target link is faster; positive when the target link is the
/// bottleneck: `move_bytes · (src_bw / bottleneck_bw − 1)` is the transfer
/// slowdown converted back to bytes on the source scale.
pub fn transfer_penalty_bytes(move_bytes: u64, src: &SkuCaps, dst: &SkuCaps) -> i64 {
    if src.link_bandwidth <= dst.link_bandwidth {
        // Equal fabrics (the single-SKU case) take this branch with a
        // penalty of exactly zero — bit-identical legacy matrices.
        return 0;
    }
    let slowdown = src.link_bandwidth / dst.link_bandwidth - 1.0;
    (move_bytes as f64 * slowdown) as i64
}

/// The KM edge weight for placing a context of `reuse_bytes` (of which
/// `move_bytes` must cross the inter-instance fabric) onto a position that
/// requires `required_bytes` of device memory on the target GPU.
///
/// Returns [`FORBIDDEN`] when the position's shard does not fit `dst`;
/// otherwise reuse minus the bandwidth-asymmetry penalty.
///
/// # Example
///
/// ```
/// use kmatch::{edge_weight, SkuCaps, FORBIDDEN};
/// let a100 = SkuCaps { memory_bytes: 40 << 30, link_bandwidth: 40e9 };
/// let l4 = SkuCaps { memory_bytes: 24 << 30, link_bandwidth: 4.5e9 };
/// // The shard fits the L4 but the reuse crossing the fabric is
/// // discounted by the slower target link; a 30 GiB shard is forbidden
/// // outright.
/// let w = edge_weight(1 << 30, 1 << 26, 20 << 30, &a100, &l4);
/// assert!(0 < w && w < 1 << 30);
/// assert_eq!(edge_weight(1 << 30, 0, 30 << 30, &a100, &l4), FORBIDDEN);
/// ```
pub fn edge_weight(
    reuse_bytes: u64,
    move_bytes: u64,
    required_bytes: u64,
    src: &SkuCaps,
    dst: &SkuCaps,
) -> i64 {
    if required_bytes > dst.memory_bytes {
        return FORBIDDEN;
    }
    reuse_bytes as i64 - transfer_penalty_bytes(move_bytes, src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::max_weight_assignment;
    use crate::matrix::WeightMatrix;

    const T4: SkuCaps = SkuCaps {
        memory_bytes: 16 << 30,
        link_bandwidth: 6e9,
    };
    const L4: SkuCaps = SkuCaps {
        memory_bytes: 24 << 30,
        link_bandwidth: 4.5e9,
    };
    const H100: SkuCaps = SkuCaps {
        memory_bytes: 80 << 30,
        link_bandwidth: 80e9,
    };

    #[test]
    fn model_exceeding_target_memory_is_forbidden() {
        // A 20 GiB shard fits the L4 and H100 but not the T4.
        let shard = 20u64 << 30;
        assert_eq!(edge_weight(1 << 30, 0, shard, &H100, &T4), FORBIDDEN);
        assert!(edge_weight(1 << 30, 0, shard, &H100, &L4) > 0);
        assert!(edge_weight(1 << 30, 0, shard, &T4, &H100) > 0);
        // Exactly-fits is allowed: the boundary is strict excess.
        assert!(edge_weight(0, 0, T4.memory_bytes, &H100, &T4) >= 0);
    }

    #[test]
    fn forbidden_edges_lose_to_any_feasible_matching() {
        // Two GPUs, two positions; position 1 only fits on GPU 0's SKU.
        // KM must take the (0,1)/(1,0) pairing even though raw reuse
        // prefers the diagonal.
        let w = WeightMatrix::from_fn(2, 2, |r, c| {
            let (src, dst) = if r == 0 { (&H100, &T4) } else { (&T4, &T4) };
            let dst = if c == 1 { &H100 } else { dst };
            let required = if c == 1 { 30u64 << 30 } else { 1 << 30 };
            let reuse = if r == c { 1 << 30 } else { 1 << 20 };
            // GPU 1 (a T4) cannot host the 30 GiB position 1.
            let dst = if r == 1 && c == 1 { &T4 } else { dst };
            edge_weight(reuse, 0, required, src, dst)
        });
        let a = max_weight_assignment(&w);
        assert_eq!(a.col_of_row(1), Some(0), "T4 GPU avoids the big shard");
        assert_eq!(a.col_of_row(0), Some(1), "capable GPU absorbs it");
    }

    #[test]
    fn transfer_pricing_is_bandwidth_asymmetric() {
        let bytes = 1u64 << 30;
        // Into a slower link: positive penalty, scaled by the slowdown.
        let into_slow = transfer_penalty_bytes(bytes, &T4, &L4);
        assert!(into_slow > 0);
        let expect = (bytes as f64 * (6e9 / 4.5e9 - 1.0)) as i64;
        assert_eq!(into_slow, expect);
        // Into a faster link: free (the source side was already the
        // bottleneck when the bytes were cached).
        assert_eq!(transfer_penalty_bytes(bytes, &T4, &H100), 0);
        // Equal links: *exactly* zero, the single-SKU invariant.
        assert_eq!(transfer_penalty_bytes(bytes, &T4, &T4), 0);
        assert_eq!(transfer_penalty_bytes(u64::MAX >> 8, &L4, &L4), 0);
        // The edge weight reflects the discount.
        let w_slow = edge_weight(bytes, bytes, 1, &T4, &L4);
        let w_same = edge_weight(bytes, bytes, 1, &T4, &T4);
        assert!(w_slow < w_same);
        assert_eq!(w_same, bytes as i64);
    }

    #[test]
    fn forbidden_sums_stay_overflow_safe() {
        // A whole row of forbidden edges must not overflow the potentials
        // or the total: 1024 forbidden edges sum within i64.
        let sum = FORBIDDEN.checked_mul(1024).expect("no overflow");
        assert!(sum < 0);
        let w = WeightMatrix::from_fn(4, 4, |_, c| if c == 0 { FORBIDDEN } else { 1 });
        let a = max_weight_assignment(&w);
        // One row is forced onto the forbidden column (perfect matching on
        // the smaller side), but only one.
        let forbidden_used = a.pairs().filter(|&(_, c)| c == 0).count();
        assert_eq!(forbidden_used, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::hungarian::max_weight_assignment;
    use crate::matrix::WeightMatrix;
    use proptest::prelude::*;

    fn arb_reuse_matrix(max_dim: usize) -> impl Strategy<Value = WeightMatrix> {
        (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
            proptest::collection::vec(0i64..1_000_000, r * c)
                .prop_map(move |data| WeightMatrix::from_fn(r, c, |i, j| data[i * c + j]))
        })
    }

    proptest! {
        /// Pricing a single-SKU fleet through [`edge_weight`] reproduces
        /// the plain reuse matrix verbatim — same entries, and therefore
        /// the same KM plan.
        #[test]
        fn single_sku_matrices_reproduce_legacy_plans(reuse in arb_reuse_matrix(7)) {
            let sku = SkuCaps { memory_bytes: 16 << 30, link_bandwidth: 6e9 };
            // Every entry priced as moving all its reuse bytes onto a
            // shard that fits (single-SKU configs are pre-filtered).
            let priced = WeightMatrix::from_fn(reuse.rows(), reuse.cols(), |r, c| {
                let w = reuse.get(r, c) as u64;
                edge_weight(w, w, 1 << 30, &sku, &sku)
            });
            for r in 0..reuse.rows() {
                for c in 0..reuse.cols() {
                    prop_assert_eq!(priced.get(r, c), reuse.get(r, c));
                }
            }
            let legacy = max_weight_assignment(&reuse);
            let sku_aware = max_weight_assignment(&priced);
            prop_assert_eq!(legacy.total_weight, sku_aware.total_weight);
            let a: Vec<_> = legacy.pairs().collect();
            let b: Vec<_> = sku_aware.pairs().collect();
            prop_assert_eq!(a, b, "identical inputs must give identical plans");
        }
    }
}
