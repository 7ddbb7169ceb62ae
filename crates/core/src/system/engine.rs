//! The engine driver: the only code that knows whether a pipeline runs a
//! fixed-size [`BatchRun`] or an iteration-level [`IterationScheduler`].
//!
//! It dispatches waiting requests into pipelines, retires finished work,
//! tears pipelines down for recomputation, and at a SpotServe transition
//! checkpoints each pipeline's in-flight work (freeze, triage, carry or
//! requeue) and resumes the carried work token-exact on the new mesh
//! (stateful inference recovery, §4).

use std::collections::BTreeSet;

use enginesim::{recovery_worthwhile, BatchRun, EngineCounters, IterationScheduler, RequestRun};
use parallelism::ParallelConfig;
use simkit::{SimDuration, SimTime};
use telemetry::TelemetryEvent;
use workload::Request;

use super::{Ev, ServingSystem};
use crate::config::EngineMode;

/// In-flight work carried token-exact through a SpotServe transition into
/// a new pipeline (stateful recovery, §4).
#[derive(Clone)]
enum Carried {
    /// Fixed-batch engine: a uniform batch resumed at `committed` tokens.
    Batch(Vec<Request>, u32),
    /// Continuous engine: heterogeneous per-request records, each resumed
    /// at its own committed token.
    Records(Vec<RequestRun>),
}

/// The work a transition carries into the new mesh, one entry per new
/// pipeline. Empty for a cold start.
#[derive(Default)]
pub(super) struct Checkpoints(Vec<Option<Carried>>);

impl ServingSystem {
    /// KV-cache bytes one pipeline's engine provisions under `cfg` (the
    /// scheduler's admission budget, from [`llmsim::MemoryModel`]).
    fn pipeline_kv_budget(&self, cfg: &ParallelConfig) -> u64 {
        self.optimizer
            .memory()
            .kv_bytes_per_gpu(&self.scenario.model, cfg.pipeline, cfg.tensor)
            * cfg.gpus_per_pipeline() as u64
    }

    /// Records `request` as finished now.
    fn complete(&mut self, request: Request) {
        self.latency.record(workload::RequestOutcome {
            request,
            finished: self.now,
        });
        self.outstanding -= 1;
    }

    /// Returns `requests` to the front of the queue, keeping their order
    /// (recomputation path: their progress is lost).
    fn requeue_front<I>(&mut self, requests: I)
    where
        I: IntoIterator<Item = Request>,
        I::IntoIter: DoubleEndedIterator,
    {
        for req in requests.into_iter().rev() {
            self.pending.push_front(req);
        }
    }

    pub(super) fn dispatch_all(&mut self) {
        match self.opts.engine {
            EngineMode::ContinuousBatching => self.dispatch_continuous(),
            EngineMode::FixedBatch => self.dispatch_fixed(),
        }
    }

    /// Fixed-batch engine: form a full batch on every idle ready pipeline
    /// and run it to completion.
    fn dispatch_fixed(&mut self) {
        let Some(cfg) = self.current else { return };
        for pi in 0..self.pipelines.len() {
            if self.pending.is_empty() {
                break;
            }
            let slot = &self.pipelines[pi];
            if slot.batch_key.is_some() || slot.ready_at > self.now {
                continue;
            }
            let id = slot.id;
            let take = (cfg.batch as usize).min(self.pending.len());
            let reqs: Vec<Request> = self.pending.drain_front(take).collect();
            let perf = self.lanes.serving_perf(&self.optimizer);
            let run = BatchRun::start(reqs, &cfg, self.now, perf);
            let finish = run.finish_time();
            let key = self.events.schedule(finish, Ev::BatchDone { pipeline: id });
            let slot = &mut self.pipelines[pi];
            slot.daemon.attach(run);
            slot.batch_key = Some(key);
        }
    }

    /// Accounts requests dropped by SLO-aware admission on pipeline `pi`:
    /// a hopeless deadline is a terminal outcome, not a retry.
    fn drain_rejections(&mut self, pi: usize) {
        let Some(sched) = self.pipelines[pi].daemon.scheduler_mut() else {
            return;
        };
        for req in sched.take_rejected() {
            self.outstanding -= 1;
            self.telemetry
                .emit(self.now, TelemetryEvent::SloRejection { request: req.id.0 });
            self.slo_rejections.push(req);
        }
    }

    /// Continuous engine: admit waiting requests into each ready
    /// pipeline's iteration scheduler — immediately when the pipeline is
    /// at a boundary (or idle), otherwise by truncating the running
    /// segment to the next iteration boundary.
    fn dispatch_continuous(&mut self) {
        let Some(cfg) = self.current else { return };
        let kv_budget = self.pipeline_kv_budget(&cfg);
        let kv_bpt = self.scenario.model.kv_bytes_per_token();
        let now = self.now;
        // First pass: pipelines at a boundary (or idle) admit directly.
        for pi in 0..self.pipelines.len() {
            if self.pending.is_empty() {
                return;
            }
            if self.pipelines[pi].ready_at > self.now {
                continue;
            }
            let id = self.pipelines[pi].id;
            if self.pipelines[pi].daemon.scheduler().is_none() {
                self.pipelines[pi].daemon.attach_scheduler(
                    IterationScheduler::new(cfg, kv_bpt, kv_budget)
                        .with_prefill_chunk(self.opts.prefill_chunk),
                );
            }
            let sched = self.pipelines[pi]
                .daemon
                .scheduler_mut()
                .expect("just attached");
            if sched.next_event().is_none() {
                sched.admit(
                    &mut self.pending,
                    now,
                    self.lanes.serving_perf(&self.optimizer),
                );
                let next = sched.next_event();
                self.drain_rejections(pi);
                if let Some(t) = next {
                    let key = self.events.schedule(t, Ev::IterBoundary { pipeline: id });
                    self.pipelines[pi].batch_key = Some(key);
                }
            }
        }
        // Second pass: find the first queued request some pipeline can
        // admit right now — skipping SLO-deferred requests in place, just
        // as the scheduler's own admission scan does, so a deferred head
        // cannot stall an admittable successor for a whole segment — and
        // truncate only the target pipeline's segment (the earliest
        // upcoming boundary among those with room); the others keep
        // decoding undisturbed. A request that fits *nowhere* ends the
        // scan: that is capacity head-blocking, unchanged from before.
        let perf = self.lanes.serving_perf(&self.optimizer);
        let mut target: Option<(usize, Request)> = None;
        for r in self.pending.iter() {
            let mut fits_somewhere = false;
            let mut best: Option<(SimTime, usize)> = None;
            for (pi, slot) in self.pipelines.iter().enumerate() {
                if slot.ready_at > now {
                    continue;
                }
                let Some(sched) = slot.daemon.scheduler() else {
                    continue;
                };
                if !sched.fits(r) {
                    continue;
                }
                fits_somewhere = true;
                if !sched.can_admit(r, now, perf) {
                    continue; // SLO-deferred on this pipeline
                }
                if let Some(t) = sched.next_boundary_after(now) {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, pi));
                    }
                }
            }
            if let Some((_, pi)) = best {
                target = Some((pi, *r));
                break;
            }
            if !fits_somewhere {
                break;
            }
        }
        if let Some((pi, r)) = target {
            let id = self.pipelines[pi].id;
            let sched = self.pipelines[pi].daemon.scheduler_mut().expect("matched");
            if let Some(new_end) = sched.interrupt_for_admission(now, &r, perf) {
                if let Some(key) = self.pipelines[pi].batch_key.take() {
                    self.events.cancel(key);
                }
                let key = self
                    .events
                    .schedule(new_end, Ev::IterBoundary { pipeline: id });
                self.pipelines[pi].batch_key = Some(key);
            }
        }
    }

    /// Continuous engine: process one pipeline's iteration boundary —
    /// retire finished requests, admit waiting ones, reschedule.
    pub(super) fn on_iter_boundary(&mut self, pipeline: usize) {
        self.pipelines[pipeline].batch_key = None;
        let now = self.now;
        let perf = self.lanes.serving_perf(&self.optimizer);
        let Some(sched) = self.pipelines[pipeline].daemon.scheduler_mut() else {
            return;
        };
        let retired = sched.advance(now, &mut self.pending, perf);
        let next = sched.next_event();
        self.drain_rejections(pipeline);
        for request in retired {
            self.complete(request);
        }
        if let Some(t) = next {
            let id = self.pipelines[pipeline].id;
            let key = self.events.schedule(t, Ev::IterBoundary { pipeline: id });
            self.pipelines[pipeline].batch_key = Some(key);
        }
    }

    /// Fixed-batch engine: a run-to-completion batch finished.
    pub(super) fn finish_batch(&mut self, pipeline: usize) {
        let slot = &mut self.pipelines[pipeline];
        slot.batch_key = None;
        if let Some(run) = slot.daemon.detach() {
            for &req in run.requests() {
                self.complete(req);
            }
        }
    }

    /// Tears down a pipeline's in-flight work, requeueing its requests at
    /// the front of the queue (recomputation path: progress is lost).
    pub(super) fn requeue_pipeline(&mut self, pipeline: usize) {
        let slot = &mut self.pipelines[pipeline];
        if let Some(key) = slot.batch_key.take() {
            self.events.cancel(key);
        }
        if let Some(run) = slot.daemon.detach() {
            self.requeue_front(run.requests().iter().copied());
        }
        if let Some(sched) = self.pipelines[pipeline].daemon.detach_scheduler() {
            self.retired_counters.absorb(sched.counters());
            self.requeue_front(sched.into_requests());
        }
    }

    /// Tears down every pipeline for recomputation and drops the slots.
    pub(super) fn requeue_all(&mut self) {
        for pi in 0..self.pipelines.len() {
            self.requeue_pipeline(pi);
        }
        self.pipelines.clear();
    }

    /// Running schedulers adopt a batch-size-only change in place (a
    /// fixed batch keeps its size until it completes).
    pub(super) fn set_batch_capacity(&mut self, cfg: ParallelConfig) {
        for slot in &mut self.pipelines {
            if let Some(s) = slot.daemon.scheduler_mut() {
                s.set_config(cfg);
            }
        }
    }

    /// Cumulative admission verdicts (torn-down plus live schedulers) and
    /// the requests resident in engines right now.
    pub(super) fn engine_load(&self) -> (EngineCounters, u32) {
        let mut counters = self.retired_counters;
        let mut residents = 0u32;
        for slot in &self.pipelines {
            if let Some(s) = slot.daemon.scheduler() {
                counters.absorb(s.counters());
                residents += s.in_flight() as u32;
            } else if let Some(run) = slot.daemon.batch() {
                residents += run.requests().len() as u32;
            }
        }
        (counters, residents)
    }

    // ---- Checkpoint and resume (SpotServe transitions) ---------------

    /// Freezes every pipeline at a SpotServe commit and drops the slots.
    /// Old pipeline `i`'s work may carry to the new pipeline that
    /// `inheritance` names for it. `partial` is the transferable fraction
    /// when grace triage moves only part of the cache, and `migration` the
    /// transfer time a carry must beat recomputation by.
    pub(super) fn checkpoint_pipelines(
        &mut self,
        inheritance: &[Option<u32>],
        cfg: &ParallelConfig,
        partial: Option<f64>,
        migration: SimDuration,
    ) -> Checkpoints {
        let mut carried = vec![None; cfg.data as usize];
        for pi in 0..self.pipelines.len() {
            // Freeze the pipeline: what finished exactly at the freeze is
            // recorded, the checkpoint worth carrying is kept (when it has
            // a destination), and the rest requeues for recomputation.
            let inherit_to = inheritance.iter().position(|inh| *inh == Some(pi as u32));
            let may_carry = inherit_to.is_some() && !self.opts.ablation.no_interruption_arranger;
            let slot = &mut self.pipelines[pi];
            if let Some(key) = slot.batch_key.take() {
                self.events.cancel(key);
            }
            let carry = if let Some(run) = slot.daemon.detach() {
                self.checkpoint_batch(run, may_carry, partial, migration)
            } else if let Some(sched) = slot.daemon.detach_scheduler() {
                self.checkpoint_records(sched, may_carry, cfg, partial, migration)
            } else {
                None
            };
            if let (Some(d_new), Some(c)) = (inherit_to, carry) {
                carried[d_new] = Some(c);
            }
        }
        self.pipelines.clear();
        Checkpoints(carried)
    }

    /// Fixed-batch engine: a monolithic batch at uniform progress.
    fn checkpoint_batch(
        &mut self,
        run: BatchRun,
        may_carry: bool,
        partial: Option<f64>,
        migration: SimDuration,
    ) -> Option<Carried> {
        if run.finished_at(self.now) {
            for &req in run.requests() {
                self.complete(req);
            }
            return None;
        }
        // Partial triage moved only `fraction` of the cache: the batch
        // resumes from the matching (token-exact) shallower depth.
        let committed = run.committed_iters_at(self.now);
        let committed = match partial {
            Some(fraction) => (f64::from(committed) * fraction) as u32,
            None => committed,
        };
        let worthwhile = recovery_worthwhile(
            migration,
            run.finish_time().saturating_since(run.started()),
            run.iter_time(),
            committed,
        );
        if may_carry && committed > 0 && worthwhile {
            return Some(Carried::Batch(run.requests().to_vec(), committed));
        }
        self.requeue_front(run.requests().iter().copied());
        None
    }

    /// Continuous engine: a heterogeneous in-flight set, checkpointed
    /// token-exact per request.
    fn checkpoint_records(
        &mut self,
        mut sched: IterationScheduler,
        may_carry: bool,
        cfg: &ParallelConfig,
        partial: Option<f64>,
        migration: SimDuration,
    ) -> Option<Carried> {
        self.retired_counters.absorb(sched.counters());
        let mut live: Vec<RequestRun> = Vec::new();
        for r in sched.freeze(self.now) {
            if r.is_done() {
                // Last token committed exactly at the freeze.
                self.complete(*r.request());
            } else {
                live.push(r);
            }
        }
        // Anything with cached tokens — committed output *or* prefill
        // chunks of a half-prefilled prompt — is a checkpoint worth
        // considering; truly fresh requests (no KV yet) recompute via the
        // queue.
        let progressed: Vec<RequestRun> = live
            .iter()
            .copied()
            .filter(RequestRun::has_progress)
            .collect();
        let progressed = match partial {
            Some(fraction) => deepest_within(progressed, fraction),
            None => progressed,
        };
        if may_carry && self.carry_beats_recompute(&progressed, cfg, migration) {
            // Carry the cached requests; fresh ones (no KV yet) and
            // triaged-out checkpoints recompute via the queue.
            let carried_ids: BTreeSet<workload::RequestId> =
                progressed.iter().map(|r| r.request().id).collect();
            self.requeue_front(
                live.iter()
                    .filter(|r| !carried_ids.contains(&r.request().id))
                    .map(|r| *r.request()),
            );
            return Some(Carried::Records(progressed));
        }
        self.requeue_front(live.iter().map(|r| *r.request()));
        None
    }

    /// The paper's recovery guard, applied to the deepest request:
    /// migrating the cache must beat recomputing the committed tokens
    /// under the new configuration `cfg`.
    fn carry_beats_recompute(
        &self,
        progressed: &[RequestRun],
        cfg: &ParallelConfig,
        migration: SimDuration,
    ) -> bool {
        let Some(s_in) = progressed.iter().map(|r| r.request().s_in).max() else {
            return false;
        };
        let max_committed = progressed
            .iter()
            .map(RequestRun::committed)
            .max()
            .unwrap_or(0);
        let max_prefilled = progressed
            .iter()
            .map(RequestRun::prefilled)
            .max()
            .unwrap_or(0);
        let n = progressed.len() as u32;
        let model = &self.scenario.model;
        let cost = self.lanes.decided_perf(&self.optimizer).cost_model();
        let prefill = cost.prefill_time(model, cfg.pipeline, cfg.tensor, n, s_in);
        let iter = cost.decode_time(model, cfg.pipeline, cfg.tensor, n, s_in + max_committed / 2);
        if max_committed > 0 {
            recovery_worthwhile(migration, prefill, iter, max_committed)
        } else {
            // Only prefill chunks are cached: migrating the partial cache
            // must beat redoing the deepest prefill's cached share.
            let redo = prefill * max_prefilled as u64 / s_in.max(1) as u64;
            migration < redo
        }
    }

    /// Resumes every carried checkpoint at `resume_at` on the new mesh's
    /// pipelines (the slots must already exist).
    pub(super) fn resume_pipelines(
        &mut self,
        carried: Checkpoints,
        cfg: &ParallelConfig,
        resume_at: SimTime,
    ) {
        for (d, carry) in carried.0.into_iter().enumerate() {
            let id = self.pipelines[d].id;
            match carry {
                None => {}
                Some(Carried::Batch(mut reqs, committed)) => {
                    // Shrinking capacity (§3.3 footnote 2): the new
                    // configuration holds fewer concurrent requests;
                    // discard the excess cache and requeue those requests
                    // for recomputation.
                    if reqs.len() > cfg.batch as usize {
                        let excess = reqs.split_off(cfg.batch as usize);
                        self.requeue_front(excess);
                    }
                    let perf = self.lanes.serving_perf(&self.optimizer);
                    let run = BatchRun::resume(reqs, cfg, resume_at, perf, committed);
                    let key = self
                        .events
                        .schedule(run.finish_time(), Ev::BatchDone { pipeline: id });
                    self.pipelines[d].daemon.attach(run);
                    self.pipelines[d].batch_key = Some(key);
                }
                Some(Carried::Records(records)) => {
                    // Shrink handling for a heterogeneous set (§3.3
                    // footnote 2): the scheduler applies its own admission
                    // rule, keeping the deepest-progress records within
                    // the new capacity and KV budget; the rest requeue for
                    // recomputation.
                    let kv_bpt = self.scenario.model.kv_bytes_per_token();
                    let perf = self.lanes.serving_perf(&self.optimizer);
                    let (sched, dropped) =
                        IterationScheduler::new(*cfg, kv_bpt, self.pipeline_kv_budget(cfg))
                            .with_prefill_chunk(self.opts.prefill_chunk)
                            .restore_within_budget(records, resume_at, perf);
                    self.requeue_front(dropped);
                    let Some(finish) = sched.next_event() else {
                        continue;
                    };
                    let key = self
                        .events
                        .schedule(finish, Ev::IterBoundary { pipeline: id });
                    self.pipelines[d].daemon.attach_scheduler(sched);
                    self.pipelines[d].batch_key = Some(key);
                }
            }
        }
    }
}

/// Partial triage: the plan moves only `fraction` of a pipeline's cache,
/// so keep the deepest checkpoints that fit that share (ties broken by
/// arrival order), in their original order; the rest recompute.
fn deepest_within(progressed: Vec<RequestRun>, fraction: f64) -> Vec<RequestRun> {
    let cached = |r: &RequestRun| u64::from(r.prefilled() + r.committed());
    let total: u64 = progressed.iter().map(cached).sum();
    let budget = (total as f64 * fraction) as u64;
    let mut order: Vec<usize> = (0..progressed.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(cached(&progressed[i])), i));
    let mut keep = vec![false; progressed.len()];
    let mut used = 0u64;
    for &i in &order {
        let c = cached(&progressed[i]);
        if used + c <= budget {
            used += c;
            keep[i] = true;
        }
    }
    progressed
        .into_iter()
        .zip(keep)
        .filter_map(|(r, k)| k.then_some(r))
        .collect()
}
