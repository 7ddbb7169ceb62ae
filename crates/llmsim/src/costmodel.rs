//! Analytical iteration-latency model (the stand-in for the paper's
//! offline profiler, §5).

use cloudsim::{GpuSpec, InstanceType, NetFabric};
use simkit::SimDuration;

use crate::spec::ModelSpec;

/// Hardware-utilization knobs of the cost model.
///
/// The paper's profiler "carefully considers the resource under-utilization
/// effects (GPU, network, PCIe) due to several practical factors (rarely
/// small batch size, single input token, over-sharded intra-op parallelism,
/// GPU memory accessing, too small communication data volume)". These three
/// parameters encode exactly those effects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Efficiency {
    /// Fraction of [`GpuSpec::peak_flops`] achievable at full occupancy
    /// (fp32 GEMMs on a mixed-precision part run far below tensor peak).
    pub compute_fraction: f64,
    /// Tokens in flight at which compute efficiency reaches half of its
    /// maximum (small decode batches under-utilize the GPU).
    pub compute_half_tokens: f64,
    /// Fraction of [`GpuSpec::mem_bandwidth`] achieved when streaming
    /// weights.
    pub mem_fraction: f64,
    /// Multiplier on KV-cache read traffic: attention reads are strided
    /// (head-major, per-sequence) and achieve far less than streaming
    /// bandwidth, which is what erodes large-batch decode gains.
    pub kv_read_penalty: f64,
    /// Host-side time per forward pass: the engine's decoder loop,
    /// batched sampling, and collective-launch coordination.
    pub host_overhead: f64,
}

impl Default for Efficiency {
    fn default() -> Self {
        Efficiency {
            compute_fraction: 0.06,
            compute_half_tokens: 8.0,
            mem_fraction: 0.65,
            kv_read_penalty: 24.0,
            host_overhead: 12e-3,
        }
    }
}

/// One sequence's contribution to a (possibly mixed) forward pass: how many
/// new tokens it pushes through the model this iteration and the attention
/// context it reads.
///
/// A prefilling request contributes `S_in` new tokens over an `S_in`-token
/// context; a decoding request contributes 1 new token over its current
/// context. Continuous batching (iteration-level scheduling) mixes both in
/// one pass, which uniform `(b, tokens_per_seq, ctx)` pricing cannot
/// express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqWork {
    /// Tokens this sequence pushes through the model in this pass.
    pub new_tokens: u32,
    /// Attention context length (tokens already cached plus the new ones).
    pub ctx: u32,
}

impl SeqWork {
    /// The prefill pass of a fresh request with an `s_in`-token prompt.
    pub fn prefill(s_in: u32) -> Self {
        SeqWork {
            new_tokens: s_in,
            ctx: s_in,
        }
    }

    /// One decode iteration at context length `ctx`.
    pub fn decode(ctx: u32) -> Self {
        SeqWork { new_tokens: 1, ctx }
    }

    /// One chunk of a split (Sarathi-style) prefill: `new` prompt tokens
    /// pushed through the model on top of `prefilled` tokens already cached.
    /// Attention for the chunk reads the whole context so far.
    ///
    /// `prefill_chunk(0, s_in)` is exactly [`SeqWork::prefill`]`(s_in)`.
    ///
    /// # Panics
    ///
    /// Panics if `new == 0`.
    pub fn prefill_chunk(prefilled: u32, new: u32) -> Self {
        assert!(new > 0, "a prefill chunk must carry tokens");
        SeqWork {
            new_tokens: new,
            ctx: prefilled + new,
        }
    }
}

/// Closed-form latency model for one inference pipeline.
///
/// All methods take the *intra-pipeline* parallel degrees `(p, m)`
/// (pipeline stages, tensor shards); data parallelism never changes
/// single-request latency.
///
/// # Example
///
/// ```
/// use llmsim::{CostModel, ModelSpec};
///
/// let cost = CostModel::t4_cluster();
/// let model = ModelSpec::opt_6_7b();
/// let one = cost.decode_time(&model, 1, 4, 1, 512);
/// let eight = cost.decode_time(&model, 1, 4, 8, 512);
/// // Decoding is memory-bound: batching is nearly free.
/// assert!(eight < one * 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    gpu: GpuSpec,
    net: NetFabric,
    gpus_per_instance: u8,
    eff: Efficiency,
    latency_scale: f64,
}

impl CostModel {
    /// Builds a cost model for a cluster of instances with `gpus_per_instance`
    /// GPUs of type `gpu` connected by `net`.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_instance == 0`.
    pub fn new(gpu: GpuSpec, net: NetFabric, gpus_per_instance: u8) -> Self {
        assert!(gpus_per_instance > 0, "instances must have GPUs");
        CostModel {
            gpu,
            net,
            gpus_per_instance,
            eff: Efficiency::default(),
            latency_scale: 1.0,
        }
    }

    /// A cost model for a cluster of `ty` instances: GPU, network fabric,
    /// and GPU count all come from the SKU bundle, so per-pool instance
    /// types price consistently with what the pool actually leases.
    ///
    /// # Examples
    ///
    /// The paper's platform reproduces [`CostModel::t4_cluster`] exactly:
    ///
    /// ```
    /// use cloudsim::InstanceType;
    /// use llmsim::CostModel;
    ///
    /// let t4 = CostModel::for_instance_type(&InstanceType::t4());
    /// assert_eq!(t4, CostModel::t4_cluster());
    /// ```
    ///
    /// The A100 preset is an 8-GPU NVLink box:
    ///
    /// ```
    /// use cloudsim::InstanceType;
    /// use llmsim::CostModel;
    ///
    /// let a100 = CostModel::for_instance_type(&InstanceType::a100());
    /// assert_eq!(a100.gpus_per_instance(), 8);
    /// assert_eq!(a100.gpu().name, "A100-40G");
    /// assert!(a100.net().intra_bw > 100e9, "NVLink-class local fabric");
    /// ```
    ///
    /// The L4 preset keeps the 4-GPU PCIe shape with more memory per GPU:
    ///
    /// ```
    /// use cloudsim::InstanceType;
    /// use llmsim::CostModel;
    ///
    /// let l4 = CostModel::for_instance_type(&InstanceType::l4());
    /// assert_eq!(l4.gpus_per_instance(), 4);
    /// assert_eq!(l4.gpu().memory_bytes, 24 << 30);
    /// ```
    ///
    /// The H100 preset is the premium 8-GPU backstop:
    ///
    /// ```
    /// use cloudsim::InstanceType;
    /// use llmsim::CostModel;
    ///
    /// let h100 = CostModel::for_instance_type(&InstanceType::h100());
    /// assert_eq!(h100.gpu().name, "H100-80G");
    /// assert_eq!(h100.gpus_per_instance(), 8);
    /// ```
    pub fn for_instance_type(ty: &InstanceType) -> Self {
        CostModel::new(ty.gpu, ty.net, ty.gpus_per_instance)
    }

    /// The paper's evaluation platform: 4×T4 `g4dn.12xlarge` instances.
    ///
    /// Deprecated in favor of
    /// [`CostModel::for_instance_type`]`(&InstanceType::t4())`, which keeps
    /// the GPU/fabric/count bundle in one authoritative place; this
    /// constructor survives as its (pinned-identical) shorthand.
    pub fn t4_cluster() -> Self {
        CostModel::for_instance_type(&InstanceType::t4())
    }

    /// Applies a multiplicative calibration factor to all latencies.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "invalid scale {scale}");
        self.latency_scale = scale;
        self
    }

    /// The network fabric this model assumes.
    pub fn net(&self) -> &NetFabric {
        &self.net
    }

    /// The GPU this model assumes.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// GPUs per instance this model assumes.
    pub fn gpus_per_instance(&self) -> u8 {
        self.gpus_per_instance
    }

    /// Compute-efficiency saturation at `tokens` tokens in flight.
    fn compute_eff(&self, tokens: f64) -> f64 {
        self.eff.compute_fraction * tokens / (tokens + self.eff.compute_half_tokens)
    }

    /// Whether an `m`-way tensor-parallel group spans instances.
    fn tp_spans_instances(&self, m: u32) -> bool {
        m > self.gpus_per_instance as u32
    }

    /// Latency of one full forward pass (all `L` layers) for a batch of `b`
    /// sequences, each contributing `tokens_per_seq` new tokens, with
    /// `ctx` tokens of attention context per sequence.
    ///
    /// # Panics
    ///
    /// Panics if any of `p`, `m`, `b`, `tokens_per_seq` is zero.
    pub fn forward_time(
        &self,
        model: &ModelSpec,
        p: u32,
        m: u32,
        b: u32,
        tokens_per_seq: u32,
        ctx: u32,
    ) -> SimDuration {
        assert!(
            p > 0 && m > 0 && b > 0 && tokens_per_seq > 0,
            "degenerate forward"
        );
        // Closed-form uniform path, kept allocation-free: this underlies
        // prefill/decode pricing on the optimizer's hot loop. The
        // `mixed_reduces_to_uniform_bit_exactly` test pins it equal to
        // `mixed_forward_time` over `b` identical sequences.
        let tokens_total = (b * tokens_per_seq) as f64;
        let flops_per_layer = tokens_total
            * (model.flops_per_token_per_layer() + model.attn_flops_per_token_per_layer(ctx));
        let kv_ctx_total = (b as f64) * (ctx as f64);
        self.assemble_forward_time(model, p, m, tokens_total, flops_per_layer, kv_ctx_total)
    }

    /// Latency of one full forward pass over a *mixed* batch: each sequence
    /// contributes its own new-token count and attention context, so one
    /// pass can combine prefilling and decoding requests at heterogeneous
    /// context lengths (iteration-level continuous batching).
    ///
    /// For a uniform batch this reduces bit-exactly to
    /// [`CostModel::forward_time`] (per-context terms are grouped before
    /// any floating-point multiply).
    ///
    /// # Panics
    ///
    /// Panics if `p` or `m` is zero, `seqs` is empty, or any sequence
    /// contributes zero new tokens.
    pub fn mixed_forward_time(
        &self,
        model: &ModelSpec,
        p: u32,
        m: u32,
        seqs: &[SeqWork],
    ) -> SimDuration {
        assert!(p > 0 && m > 0 && !seqs.is_empty(), "degenerate forward");

        // Integer pre-aggregation keeps the uniform case bit-identical to
        // the closed-form uniform formula: new tokens are grouped by
        // context length and context lengths are summed exactly before any
        // float multiply.
        let mut total_tokens: u64 = 0;
        let mut total_ctx: u64 = 0;
        for s in seqs {
            assert!(s.new_tokens > 0, "degenerate forward");
            total_tokens += s.new_tokens as u64;
            total_ctx += s.ctx as u64;
        }
        let tokens_total = total_tokens as f64;

        // Per-layer compute: dense projections + context attention, one
        // term per distinct context length. Groups form in first-seen
        // order with exact integer token sums — the same order and sums a
        // scratch `Vec<(ctx, tokens)>` would produce, so the f64
        // accumulation is bit-identical to the old buffered grouping — but
        // without allocating: the first sequence at each context owns the
        // group and re-scans the tail for its members. This sits on the
        // continuous engine's per-iteration hot path, where in-flight sets
        // are small and the rescan is cheaper than a heap allocation.
        let mut flops_per_layer = 0.0;
        for (i, s) in seqs.iter().enumerate() {
            if seqs[..i].iter().any(|prev| prev.ctx == s.ctx) {
                continue; // group already accumulated at its first member
            }
            let mut group_tokens: u64 = s.new_tokens as u64;
            for later in &seqs[i + 1..] {
                if later.ctx == s.ctx {
                    group_tokens += later.new_tokens as u64;
                }
            }
            flops_per_layer += group_tokens as f64
                * (model.flops_per_token_per_layer() + model.attn_flops_per_token_per_layer(s.ctx));
        }
        self.assemble_forward_time(model, p, m, tokens_total, flops_per_layer, total_ctx as f64)
    }

    /// The shared tail of the forward-pass model, past per-sequence
    /// aggregation: `tokens_total` new tokens, `flops_per_layer` compute,
    /// and `kv_ctx_total` total attention-context tokens read.
    fn assemble_forward_time(
        &self,
        model: &ModelSpec,
        p: u32,
        m: u32,
        tokens_total: f64,
        flops_per_layer: f64,
        kv_ctx_total: f64,
    ) -> SimDuration {
        let layers = model.num_layers as f64;
        let eff_flops = self.gpu.peak_flops * self.compute_eff(tokens_total);
        let compute_t = flops_per_layer / (m as f64 * eff_flops);

        // Per-layer memory: stream the weight shard once per forward pass,
        // plus KV-cache reads for attention (each sequence reads its own
        // context).
        let eff_bw = self.gpu.mem_bandwidth * self.eff.mem_fraction;
        let weight_bytes = model.layer_bytes() as f64 / m as f64;
        let kv_bytes_layer = kv_ctx_total
            * 2.0
            * model.hidden_size as f64
            * model.bytes_per_kv as f64
            * self.eff.kv_read_penalty
            / m as f64;
        let mem_t = (weight_bytes + kv_bytes_layer) / eff_bw;

        let layer_t = compute_t.max(mem_t);

        // Unembedding (logits projection): stream the V×h matrix and run
        // the GEMM once per forward pass on the last stage's shard group.
        let unembed_bytes =
            model.vocab_size as f64 * model.hidden_size as f64 * model.bytes_per_param as f64
                / m as f64;
        let unembed_flops = 2.0 * tokens_total * model.vocab_size as f64 * model.hidden_size as f64;
        let unembed_t = (unembed_bytes / eff_bw).max(unembed_flops / (m as f64 * eff_flops));

        // Tensor parallelism: two ring all-reduces per layer over the
        // activation tensor (fp32).
        let act_bytes = (tokens_total * model.hidden_size as f64 * 4.0) as u64;
        let ar = if m > 1 {
            self.net
                .all_reduce_time(act_bytes, m, self.tp_spans_instances(m))
                .as_secs_f64()
                * 2.0
        } else {
            0.0
        };

        // Pipeline parallelism: p−1 cross-stage activation hops
        // (stages are placed on distinct instances in the common case).
        let p2p = if p > 1 {
            self.net.p2p_time(act_bytes, false).as_secs_f64() * (p - 1) as f64
        } else {
            0.0
        };

        let total = layers * (layer_t + ar) + p2p + unembed_t + self.eff.host_overhead;
        SimDuration::from_secs_f64(total * self.latency_scale)
    }

    /// Latency of the initial (prefill) phase over `s_in` input tokens.
    pub fn prefill_time(
        &self,
        model: &ModelSpec,
        p: u32,
        m: u32,
        b: u32,
        s_in: u32,
    ) -> SimDuration {
        self.forward_time(model, p, m, b, s_in, s_in)
    }

    /// Latency of one incremental decoding iteration at context length `ctx`.
    pub fn decode_time(&self, model: &ModelSpec, p: u32, m: u32, b: u32, ctx: u32) -> SimDuration {
        self.forward_time(model, p, m, b, 1, ctx)
    }

    /// End-to-end execution latency of Eq. (1):
    /// `l_exe(S_out | S_in) = t_exe(S_in) + Σ_{i=1..S_out} t_exe(1)`.
    pub fn exec_latency(
        &self,
        model: &ModelSpec,
        p: u32,
        m: u32,
        b: u32,
        s_in: u32,
        s_out: u32,
    ) -> SimDuration {
        let mut total = self.prefill_time(model, p, m, b, s_in);
        // Context length grows by one per iteration; the dependence is
        // linear (KV reads + attention FLOPs), so evaluate at the midpoint.
        if s_out > 0 {
            let mid_ctx = s_in + s_out / 2;
            total += self.decode_time(model, p, m, b, mid_ctx) * s_out as u64;
        }
        total
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::t4_cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::t4_cluster()
    }

    #[test]
    fn decode_is_memory_bound_at_small_batch() {
        let c = cost();
        let m = ModelSpec::opt_6_7b();
        let b1 = c.decode_time(&m, 1, 4, 1, 512).as_secs_f64();
        let b4 = c.decode_time(&m, 1, 4, 4, 512).as_secs_f64();
        assert!(
            b4 / b1 < 1.6,
            "batching decode should be cheap: {b1} -> {b4}"
        );
    }

    #[test]
    fn prefill_is_compute_bound() {
        let c = cost();
        let m = ModelSpec::opt_6_7b();
        let p1 = c.prefill_time(&m, 1, 4, 1, 512).as_secs_f64();
        let p2 = c.prefill_time(&m, 1, 4, 2, 512).as_secs_f64();
        assert!(
            p2 / p1 > 1.7,
            "doubling prefill work should nearly double time"
        );
    }

    #[test]
    fn more_tensor_shards_speed_up_within_instance() {
        let c = cost();
        let m = ModelSpec::opt_6_7b();
        let t2 = c.decode_time(&m, 1, 2, 1, 512);
        let t4 = c.decode_time(&m, 1, 4, 1, 512);
        assert!(t4 < t2, "m=4 should beat m=2 inside one instance");
    }

    #[test]
    fn cross_instance_tensor_parallelism_pays_latency() {
        let c = cost();
        let m = ModelSpec::llama_30b();
        // m=8 spans two 4-GPU instances; the all-reduce hops get slower.
        let t8 = c.decode_time(&m, 2, 8, 1, 512).as_secs_f64();
        let t4 = c.decode_time(&m, 4, 4, 1, 512).as_secs_f64();
        // Same GPU count; m=8 halves the per-GPU weight stream but pays
        // cross-instance all-reduce. Both effects must be visible.
        assert!(t8 != t4);
    }

    #[test]
    fn exec_latency_is_prefill_plus_decodes() {
        let c = cost();
        let m = ModelSpec::gpt_20b();
        let l = c.exec_latency(&m, 3, 4, 1, 512, 128).as_secs_f64();
        let prefill = c.prefill_time(&m, 3, 4, 1, 512).as_secs_f64();
        let decode = c.decode_time(&m, 3, 4, 1, 512 + 64).as_secs_f64();
        assert!((l - (prefill + 128.0 * decode)).abs() < 1e-6);
    }

    #[test]
    fn scale_is_multiplicative() {
        let c = cost();
        let scaled = cost().with_scale(0.5);
        let m = ModelSpec::opt_6_7b();
        let a = c.exec_latency(&m, 1, 4, 1, 512, 16).as_secs_f64();
        let b = scaled.exec_latency(&m, 1, 4, 1, 512, 16).as_secs_f64();
        // Microsecond rounding per iteration allows a tiny deviation.
        assert!((b - a / 2.0).abs() / a < 1e-4);
    }

    #[test]
    fn longer_context_costs_more() {
        let c = cost();
        let m = ModelSpec::gpt_20b();
        let short = c.decode_time(&m, 3, 4, 8, 64);
        let long = c.decode_time(&m, 3, 4, 8, 2048);
        assert!(long > short);
    }

    #[test]
    #[should_panic(expected = "degenerate forward")]
    fn zero_batch_panics() {
        cost().forward_time(&ModelSpec::opt_6_7b(), 1, 4, 0, 1, 1);
    }

    #[test]
    fn mixed_reduces_to_uniform_bit_exactly() {
        let c = cost();
        let m = ModelSpec::gpt_20b();
        for (b, tokens, ctx) in [(1u32, 1u32, 512u32), (8, 1, 640), (4, 512, 512)] {
            let uniform = c.forward_time(&m, 3, 4, b, tokens, ctx);
            let seqs = vec![
                SeqWork {
                    new_tokens: tokens,
                    ctx
                };
                b as usize
            ];
            assert_eq!(uniform, c.mixed_forward_time(&m, 3, 4, &seqs));
        }
    }

    #[test]
    fn mixed_iteration_lies_between_pure_phases() {
        // One prefill + 3 decodes costs more than a pure 4-decode iteration
        // and less than prefill for 4 full prompts.
        let c = cost();
        let m = ModelSpec::opt_6_7b();
        let mixed = c.mixed_forward_time(
            &m,
            1,
            4,
            &[
                SeqWork::prefill(512),
                SeqWork::decode(520),
                SeqWork::decode(600),
                SeqWork::decode(544),
            ],
        );
        let pure_decode = c.decode_time(&m, 1, 4, 4, 600);
        let pure_prefill = c.prefill_time(&m, 1, 4, 4, 512);
        assert!(mixed > pure_decode, "{mixed} vs {pure_decode}");
        assert!(mixed < pure_prefill, "{mixed} vs {pure_prefill}");
    }

    #[test]
    fn mixed_cost_grows_with_membership() {
        let c = cost();
        let m = ModelSpec::gpt_20b();
        let small = c.mixed_forward_time(&m, 3, 4, &[SeqWork::decode(512)]);
        let big = c.mixed_forward_time(
            &m,
            3,
            4,
            &[
                SeqWork::decode(512),
                SeqWork::decode(513),
                SeqWork::prefill(512),
            ],
        );
        assert!(big > small);
    }

    #[test]
    #[should_panic(expected = "degenerate forward")]
    fn empty_mixed_batch_panics() {
        cost().mixed_forward_time(&ModelSpec::opt_6_7b(), 1, 4, &[]);
    }

    /// The buffered per-context grouping `mixed_forward_time` used before
    /// the allocation-free rewrite, kept verbatim as the equivalence
    /// reference: group by first-seen context into a scratch buffer with
    /// exact integer token sums, then accumulate f64 terms in group order
    /// and price through the shared tail.
    fn mixed_forward_time_buffered_reference(
        c: &CostModel,
        model: &ModelSpec,
        p: u32,
        m: u32,
        seqs: &[SeqWork],
    ) -> SimDuration {
        let mut total_tokens: u64 = 0;
        let mut total_ctx: u64 = 0;
        let mut by_ctx: Vec<(u32, u64)> = Vec::new();
        for s in seqs {
            assert!(s.new_tokens > 0, "degenerate forward");
            total_tokens += s.new_tokens as u64;
            total_ctx += s.ctx as u64;
            match by_ctx.iter_mut().find(|(ctx, _)| *ctx == s.ctx) {
                Some((_, t)) => *t += s.new_tokens as u64,
                None => by_ctx.push((s.ctx, s.new_tokens as u64)),
            }
        }
        let mut flops_per_layer = 0.0;
        for (ctx, t) in &by_ctx {
            flops_per_layer += *t as f64
                * (model.flops_per_token_per_layer() + model.attn_flops_per_token_per_layer(*ctx));
        }
        c.assemble_forward_time(
            model,
            p,
            m,
            total_tokens as f64,
            flops_per_layer,
            total_ctx as f64,
        )
    }

    #[test]
    fn allocation_free_grouping_matches_buffered_reference_bit_exactly() {
        // Adversarial grouping shapes: interleaved repeats, strictly
        // distinct contexts, all-identical, groups appearing out of sorted
        // order, and a long mixed tail. The allocation-free first-seen
        // rescan must reproduce the buffered grouping's result bit-exactly.
        let c = cost();
        let m = ModelSpec::gpt_20b();
        let batches: Vec<Vec<SeqWork>> = vec![
            vec![
                SeqWork::decode(512),
                SeqWork::prefill(256),
                SeqWork::decode(512),
                SeqWork::decode(256),
            ],
            (0..16).map(|i| SeqWork::decode(100 + i * 7)).collect(),
            vec![SeqWork::decode(640); 12],
            vec![
                SeqWork::decode(900),
                SeqWork::decode(100),
                SeqWork::decode(900),
                SeqWork::prefill(100),
                SeqWork::prefill_chunk(64, 36),
            ],
            (0..40)
                .map(|i| {
                    if i % 3 == 0 {
                        SeqWork::prefill(128 + (i % 5) * 32)
                    } else {
                        SeqWork::decode(512 + (i % 4) * 17)
                    }
                })
                .collect(),
        ];
        for seqs in &batches {
            let fast = c.mixed_forward_time(&m, 3, 4, seqs);
            let reference = mixed_forward_time_buffered_reference(&c, &m, 3, 4, seqs);
            assert_eq!(
                fast, reference,
                "grouping rewrite must be bit-identical on {seqs:?}"
            );
        }
    }

    #[test]
    fn prefill_chunks_sum_to_no_less_than_monolithic_prefill() {
        // Splitting a prefill can only add per-pass overhead (the weight
        // stream and host overhead are paid once per pass), never remove
        // work: the chunked passes must sum to >= the monolithic pass.
        let c = cost();
        let m = ModelSpec::opt_6_7b();
        let whole = c.mixed_forward_time(&m, 1, 4, &[SeqWork::prefill(512)]);
        let chunked = (0..4)
            .map(|i| c.mixed_forward_time(&m, 1, 4, &[SeqWork::prefill_chunk(i * 128, 128)]))
            .fold(simkit::SimDuration::ZERO, |a, d| a + d);
        assert!(chunked >= whole, "{chunked} vs {whole}");
        // And the degenerate single chunk is the monolithic prefill.
        assert_eq!(SeqWork::prefill_chunk(0, 512), SeqWork::prefill(512));
    }

    #[test]
    fn pipeline_stages_add_hop_latency() {
        let c = cost();
        let m = ModelSpec::gpt_20b();
        let p2 = c.decode_time(&m, 2, 4, 1, 512);
        let p4 = c.decode_time(&m, 4, 4, 1, 512);
        assert!(p4 > p2, "more stages, more hops");
    }
}
