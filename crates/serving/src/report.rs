//! Serving metrics: per-request outcomes and the aggregate report.

use gaudi_exec::ExecPool;
use gaudi_hw::DeviceId;
use gaudi_profiler::report::TextTable;
use gaudi_profiler::Trace;
use std::sync::Mutex;

/// p50/p95/p99 summary of a latency population, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Percentiles {
    /// Summarize a population. Empty input yields all zeros.
    ///
    /// Uses the nearest-rank method (`ceil(p·n)`-th order statistic), which
    /// always returns an observed value — important for exact reproducibility
    /// assertions on identical seeds.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut v: Vec<f64> = values.into_iter().collect();
        Self::sort_and_summarize(&mut v)
    }

    /// [`Percentiles::of`] over a buffer it may reorder: sorts `v` in place
    /// and summarizes it. The mean is summed in sorted order.
    ///
    /// Panics on a NaN sample. On the samples the engine produces (never
    /// NaN or `-0.0`) the unstable `total_cmp` sort yields exactly the
    /// sequence a stable `partial_cmp` sort would, so every percentile and
    /// the mean are bit-identical to it.
    fn sort_and_summarize(v: &mut [f64]) -> Self {
        if v.is_empty() {
            return Percentiles::default();
        }
        assert!(!v.iter().any(|x| x.is_nan()), "latencies are finite");
        v.sort_unstable_by(f64::total_cmp);
        let rank = |p: f64| {
            let idx = (p * v.len() as f64).ceil() as usize;
            v[idx.clamp(1, v.len()) - 1]
        };
        Percentiles {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: v.iter().sum::<f64>() / v.len() as f64,
        }
    }
}

/// Everything the engine observed about one completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Request id (arrival order).
    pub id: u64,
    /// Arrival time, ms.
    pub arrival_ms: f64,
    /// Prompt tokens.
    pub prompt_len: usize,
    /// Generated tokens.
    pub output_len: usize,
    /// Time spent in the admission queue before prefill started, ms. For a
    /// retried request this counts waiting on the replica that finally
    /// served it (from its re-queue time, not its original arrival).
    pub queue_ms: f64,
    /// Time to first token: arrival → end of the prefill that produced
    /// token 0 (queueing + prefill; prefill's last forward pass emits the
    /// first output token), ms. Always measured from the request's
    /// original arrival, so replica failures and retries show up here.
    pub ttft_ms: f64,
    /// Scheduling attempts that were lost to replica failures before this
    /// one completed (0 in fault-free runs).
    pub retries: u32,
    /// Completion time, ms.
    pub finish_ms: f64,
    /// Absolute emission time of each generated token, ms. Strictly
    /// increasing — decode steps never reorder a request's tokens.
    pub token_times_ms: Vec<f64>,
}

/// Why a request terminated without (fully SLO-compliant) completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Shed at admission: the queue was at its depth or token bound when
    /// the request arrived (overload protection, never a silent drop).
    Rejected,
    /// An SLO deadline expired: either while queued (TTFT could no longer
    /// be met) or at completion (the finished request missed its deadline,
    /// so its tokens count toward throughput but not goodput).
    TimedOut,
    /// Replica failures exhausted the retry budget.
    Failed,
}

/// A request that terminated without completing inside its SLOs.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedRequest {
    /// Request id.
    pub id: u64,
    /// Arrival time, ms.
    pub arrival_ms: f64,
    /// Why it was dropped.
    pub kind: DropKind,
    /// When it was dropped, ms (shed/expiry/failure/late-finish time).
    pub at_ms: f64,
    /// Scheduling attempts lost to replica failures before the drop.
    pub retries: u32,
    /// Output tokens the engine generated for it anyway (non-zero only for
    /// late finishers — work done, SLO missed: throughput, not goodput).
    pub tokens_generated: usize,
}

/// Aggregate result of a serving simulation.
#[derive(Debug, Clone, Default)]
pub struct ServingReport {
    /// Per-request outcomes of requests that completed within every
    /// configured SLO, sorted by id. With the default (unlimited)
    /// [`RobustnessConfig`] every generated request appears exactly once:
    /// admission backpressure delays, it never drops.
    ///
    /// [`RobustnessConfig`]: crate::RobustnessConfig
    pub completed: Vec<RequestOutcome>,
    /// Requests that terminated as shed, timed-out, or failed, sorted by
    /// id. Empty under the default unlimited robustness policy.
    pub dropped: Vec<DroppedRequest>,
    /// Requests offered to the engine. Conservation invariant:
    /// `offered == completed.len() + dropped.len()`.
    pub offered: usize,
    /// First arrival → last completion, ms.
    pub makespan_ms: f64,
    /// Time-to-first-token percentiles, ms.
    pub ttft_ms: Percentiles,
    /// Per-output-token latency percentiles (inter-token gaps), ms.
    pub tpot_ms: Percentiles,
    /// Admission-queue wait percentiles, ms.
    pub queue_ms: Percentiles,
    /// Arrival→drop latency percentiles of timed-out requests, ms. All
    /// zeros when nothing timed out.
    pub timed_out_latency_ms: Percentiles,
    /// Tokens of SLO-compliant completions per wall-clock second — the
    /// useful work rate. Under overload this plateaus at engine capacity
    /// while the shed fraction absorbs the excess.
    pub goodput_tokens_per_s: f64,
    /// All generated tokens per wall-clock second, including tokens of
    /// requests that finished past their deadline. `>= goodput`; the gap
    /// is work the engine did that no SLO-bound client waited for.
    pub throughput_tokens_per_s: f64,
    /// MME busy time / makespan.
    pub mme_utilization: f64,
    /// TPC-cluster busy time / makespan.
    pub tpc_utilization: f64,
    /// DMA busy time / makespan.
    pub dma_utilization: f64,
    /// NIC (collective/scale-out) busy time / makespan. Zero for purely
    /// data-parallel replicas, whose phase plans never touch the NIC.
    pub nic_utilization: f64,
    /// Decode iterations executed.
    pub decode_steps: usize,
    /// Prefill phases executed (= admissions).
    pub prefills: usize,
    /// Times the scheduler had a free slot but the KV accountant refused the
    /// queue head (HBM backpressure).
    pub backpressure_stalls: usize,
    /// Deepest the admission queue ever got, requests.
    pub max_queue_depth: usize,
    /// Largest worst-case token footprint the admission queue ever held —
    /// the saturation gauge that makes unbounded queue growth visible even
    /// with shedding disabled.
    pub peak_queued_tokens: usize,
    /// HBM high-water mark (weights + live KV), bytes.
    pub kv_peak_bytes: u64,
    /// Device HBM capacity, bytes.
    pub kv_capacity_bytes: u64,
    /// Fraction of the KV bytes reserved at the peak that held live
    /// tokens (mean over cards). Contiguous admission wastes the
    /// not-yet-generated output tail of every reservation; paged
    /// admission wastes only each chain's last-block rounding — the gap
    /// between the two is the headroom paging reclaims.
    pub kv_block_utilization: f64,
    /// Distinct phase graphs compiled (the recipe-cache size).
    pub compiled_graphs: usize,
    /// Recipe compilations charged to the simulated devices: first use of
    /// each `(phase, batch bucket, ctx bucket)` shape per replica, summed
    /// over replicas, counting cold restarts again. With warmup enabled
    /// each compile stalls the replica for `RecipeConfig::compile_ms`.
    ///
    /// [`RecipeConfig::compile_ms`]: crate::RecipeConfig
    pub recipe_compiles: u64,
    /// Runners preempted mid-decode because the paged KV pool ran dry
    /// (their generated tokens were discarded and recomputed). Always zero
    /// under contiguous admission.
    pub preemptions: usize,
    /// Largest concurrent decode batch reached — per replica, summed over
    /// replicas (per-replica peaks need not be simultaneous). The
    /// max-concurrent-sequences gauge paged admission exists to raise.
    pub peak_running: usize,
    /// Token-slots scheduled across all phases at their bucket-padded
    /// shapes (prefill: bucketed prompt; decode: bucketed batch × bucketed
    /// context).
    pub scheduled_tokens: usize,
    /// The subset of `scheduled_tokens` that was padding: slots priced but
    /// holding no live token, from ctx- and batch-bucket rounding.
    pub padded_tokens: usize,
    /// Cards the simulation ran on (data-parallel serving replicas).
    pub devices: usize,
    /// Requests re-queued onto a surviving replica after a card failure
    /// (each counted once per lost attempt).
    pub retries: usize,
    /// Output tokens that had been generated on a card when it died and
    /// had to be regenerated elsewhere (lost work, excluded from goodput).
    /// With checkpointing, only tokens generated *past* the last snapshot
    /// count here — the snapshotted prefix restores instead.
    pub requeued_tokens: usize,
    /// KV bytes snapshotted to host across all periodic checkpoints (zero
    /// without a [`CheckpointPolicy`]).
    ///
    /// [`CheckpointPolicy`]: crate::CheckpointPolicy
    pub checkpoint_bytes: u64,
    /// Replica clock spent restoring host snapshots over DMA after
    /// failures and preemptions, ms.
    pub restore_ms: f64,
    /// Generated tokens resumed from host snapshots instead of being
    /// recomputed — the recomputation work checkpointing saved.
    pub recovered_tokens: u64,
    /// Replica kill events the fault plan delivered (a device that dies
    /// and restarts twice counts twice).
    pub failed_replicas: usize,
    /// Replica restart events: transient kills whose down window ended
    /// inside the run, returning the card to the dispatch pool with a cold
    /// compiled-plan cache.
    pub restarts: usize,
    /// Per-replica up-time, ms, indexed by device: the replica's own
    /// makespan minus the down windows it spent dead.
    pub replica_uptime_ms: Vec<f64>,
    /// Engine-busy timeline of every phase, for the profiler tooling.
    pub trace: Trace,
}

impl ServingReport {
    /// Mean decode batch size: decode-generated tokens per decode step.
    /// (Each request's first token comes out of its prefill, so a request
    /// contributes `output_len - 1` decode tokens.)
    pub fn mean_decode_batch(&self) -> f64 {
        let tokens: usize = self
            .completed
            .iter()
            .map(|o| o.output_len.saturating_sub(1))
            .sum();
        if self.decode_steps == 0 {
            0.0
        } else {
            tokens as f64 / self.decode_steps as f64
        }
    }

    /// Requests shed at admission (queue depth or token bound hit).
    pub fn shed(&self) -> usize {
        self.dropped
            .iter()
            .filter(|d| d.kind == DropKind::Rejected)
            .count()
    }

    /// Requests that missed a TTFT or end-to-end deadline.
    pub fn timed_out(&self) -> usize {
        self.dropped
            .iter()
            .filter(|d| d.kind == DropKind::TimedOut)
            .count()
    }

    /// Requests that exhausted their retry budget after replica failures.
    pub fn failed(&self) -> usize {
        self.dropped
            .iter()
            .filter(|d| d.kind == DropKind::Failed)
            .count()
    }

    /// Fraction of all scheduled token-slots that was bucket padding —
    /// the waste side of the recipe-bucketing tradeoff (`0.0` when nothing
    /// was scheduled).
    pub fn padding_waste(&self) -> f64 {
        if self.scheduled_tokens == 0 {
            0.0
        } else {
            self.padded_tokens as f64 / self.scheduled_tokens as f64
        }
    }

    /// Fraction of offered requests that completed within their SLOs.
    pub fn goodput_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed.len() as f64 / self.offered as f64
    }

    /// Mean fraction of the box's makespan its replicas were alive:
    /// `1.0` in fault-free runs, lower when cards died mid-run. A replica
    /// that restarts accrues up-time on both sides of its down window.
    pub fn availability(&self) -> f64 {
        if self.replica_uptime_ms.is_empty() || self.makespan_ms <= 0.0 {
            return 1.0;
        }
        let up: f64 = self
            .replica_uptime_ms
            .iter()
            .map(|&u| u.min(self.makespan_ms))
            .sum();
        up / (self.makespan_ms * self.replica_uptime_ms.len() as f64)
    }

    /// Render the report as text tables through the profiler tooling.
    pub fn render(&self) -> String {
        let ms = |x: f64| format!("{x:.2}");
        let mut lat = TextTable::new(&["latency", "p50 ms", "p95 ms", "p99 ms", "mean ms"]);
        let mut rows = vec![
            ("ttft", &self.ttft_ms),
            ("per-token", &self.tpot_ms),
            ("queue wait", &self.queue_ms),
        ];
        if self.timed_out() > 0 {
            rows.push(("timed-out e2e", &self.timed_out_latency_ms));
        }
        for (name, p) in rows {
            lat.row(&[
                name.to_string(),
                ms(p.p50),
                ms(p.p95),
                ms(p.p99),
                ms(p.mean),
            ]);
        }

        let mut eng = TextTable::new(&["metric", "value"]);
        eng.row(&["devices".into(), self.devices.to_string()])
            .row(&["requests offered".into(), self.offered.to_string()])
            .row(&["requests served".into(), self.completed.len().to_string()])
            .row(&["makespan ms".into(), ms(self.makespan_ms)])
            .row(&[
                "goodput tok/s".into(),
                format!("{:.1}", self.goodput_tokens_per_s),
            ])
            .row(&[
                "throughput tok/s".into(),
                format!("{:.1}", self.throughput_tokens_per_s),
            ])
            .row(&[
                "mean decode batch".into(),
                format!("{:.2}", self.mean_decode_batch()),
            ])
            .row(&[
                "MME utilization".into(),
                format!("{:.1}%", self.mme_utilization * 100.0),
            ])
            .row(&[
                "TPC utilization".into(),
                format!("{:.1}%", self.tpc_utilization * 100.0),
            ])
            .row(&[
                "DMA utilization".into(),
                format!("{:.1}%", self.dma_utilization * 100.0),
            ])
            .row(&[
                "NIC utilization".into(),
                format!("{:.1}%", self.nic_utilization * 100.0),
            ])
            .row(&["decode steps".into(), self.decode_steps.to_string()])
            .row(&["prefills".into(), self.prefills.to_string()])
            .row(&[
                "KV backpressure stalls".into(),
                self.backpressure_stalls.to_string(),
            ])
            .row(&["max queue depth".into(), self.max_queue_depth.to_string()])
            .row(&[
                "peak queued tokens".into(),
                self.peak_queued_tokens.to_string(),
            ])
            .row(&[
                "HBM peak / capacity".into(),
                format!(
                    "{:.2} / {:.0} GiB",
                    self.kv_peak_bytes as f64 / (1u64 << 30) as f64,
                    self.kv_capacity_bytes as f64 / (1u64 << 30) as f64
                ),
            ])
            .row(&[
                "KV utilization at peak".into(),
                format!("{:.1}%", self.kv_block_utilization * 100.0),
            ])
            .row(&["peak decode batch".into(), self.peak_running.to_string()])
            .row(&["compiled graphs".into(), self.compiled_graphs.to_string()])
            .row(&["recipe compiles".into(), self.recipe_compiles.to_string()])
            .row(&[
                "padding waste".into(),
                format!("{:.1}%", self.padding_waste() * 100.0),
            ]);
        if self.preemptions > 0 {
            eng.row(&["KV preemptions".into(), self.preemptions.to_string()]);
        }
        if !self.dropped.is_empty() {
            eng.row(&["shed (rejected)".into(), self.shed().to_string()])
                .row(&["timed out".into(), self.timed_out().to_string()])
                .row(&["failed (retries)".into(), self.failed().to_string()])
                .row(&[
                    "goodput fraction".into(),
                    format!("{:.1}%", self.goodput_fraction() * 100.0),
                ]);
        }
        if self.failed_replicas > 0 || self.retries > 0 {
            eng.row(&["failed replicas".into(), self.failed_replicas.to_string()])
                .row(&["replica restarts".into(), self.restarts.to_string()])
                .row(&["request retries".into(), self.retries.to_string()])
                .row(&["requeued tokens".into(), self.requeued_tokens.to_string()])
                .row(&[
                    "availability".into(),
                    format!("{:.1}%", self.availability() * 100.0),
                ]);
        }
        if self.checkpoint_bytes > 0 {
            eng.row(&["checkpoint bytes".into(), self.checkpoint_bytes.to_string()])
                .row(&["restore ms".into(), ms(self.restore_ms)])
                .row(&["recovered tokens".into(), self.recovered_tokens.to_string()]);
        }

        format!("{}\n{}", lat.render(), eng.render())
    }

    /// Goodput of a raw report (see [`ServingReport::merge_raw`]): tokens of
    /// its completions per second of its own makespan, computed exactly as
    /// [`ServingReport::finish`] computes `goodput_tokens_per_s`.
    pub(crate) fn raw_goodput_tokens_per_s(&self) -> f64 {
        tokens_per_s(
            self.completed.iter().map(|o| o.output_len).sum(),
            self.makespan_ms,
        )
    }

    /// Derive the request statistics of a raw report — the one place they
    /// are derived. Sorts `completed` and `dropped` by id and fills in the
    /// latency percentiles over `completed` (and the time-outs in
    /// `dropped`) and the goodput and throughput token rates.
    ///
    /// The two id sorts and the four sample sorts are independent jobs on
    /// `pool`; the report is bit-identical across pools. Request ids must
    /// be unique (the id sorts are unstable).
    pub(crate) fn finish(mut self, pool: &ExecPool) -> Self {
        let goodput_tokens: usize = self.completed.iter().map(|o| o.output_len).sum();
        let wasted_tokens: usize = self.dropped.iter().map(|d| d.tokens_generated).sum();
        self.goodput_tokens_per_s = tokens_per_s(goodput_tokens, self.makespan_ms);
        self.throughput_tokens_per_s =
            tokens_per_s(goodput_tokens + wasted_tokens, self.makespan_ms);

        // The sample populations are gathered in whatever order the
        // requests are in: each is sorted before it is summarized.
        let gaps = self
            .completed
            .iter()
            .map(|o| o.token_times_ms.len().saturating_sub(1))
            .sum();
        let mut tpot = Vec::with_capacity(gaps);
        for o in &self.completed {
            tpot.extend(o.token_times_ms.windows(2).map(|w| w[1] - w[0]));
        }
        let samples = [
            self.completed.iter().map(|o| o.ttft_ms).collect(),
            tpot,
            self.completed.iter().map(|o| o.queue_ms).collect(),
            self.dropped
                .iter()
                .filter(|d| d.kind == DropKind::TimedOut)
                .map(|d| d.at_ms - d.arrival_ms)
                .collect::<Vec<f64>>(),
        ]
        .map(Mutex::new);
        // Jobs 0-3 summarize the samples, 4 and 5 are the id sorts. Each
        // job locks only its own slot, so the locks never contend.
        const POISONED: &str = "a finish job panicked holding its slot";
        let stats = {
            let completed = Mutex::new(&mut self.completed);
            let dropped = Mutex::new(&mut self.dropped);
            pool.par_map_range(samples.len() + 2, |job| match job {
                4 => {
                    completed
                        .lock()
                        .expect(POISONED)
                        .sort_unstable_by_key(|o| o.id);
                    None
                }
                5 => {
                    dropped
                        .lock()
                        .expect(POISONED)
                        .sort_unstable_by_key(|d| d.id);
                    None
                }
                s => Some(Percentiles::sort_and_summarize(
                    &mut samples[s].lock().expect(POISONED),
                )),
            })
        };
        [
            self.ttft_ms,
            self.tpot_ms,
            self.queue_ms,
            self.timed_out_latency_ms,
        ] = std::array::from_fn(|s| stats[s].expect("jobs 0-3 return percentiles"));
        debug_assert!(
            self.completed.windows(2).all(|w| w[0].id < w[1].id)
                && self.dropped.windows(2).all(|w| w[0].id < w[1].id),
            "request ids are unique"
        );
        self
    }

    /// Merge the reports of disjoint device groups — replicas into a box,
    /// boxes into a cluster — into one report over all their devices. The
    /// parts serve disjoint sets of request ids (shards of one stream).
    ///
    /// Every per-card gauge is weighted by the devices each part ran on:
    /// busy time is rebuilt as `util × makespan × devices` per part and
    /// renormalized over the total device count and the slowest part's
    /// makespan, and `kv_block_utilization` is the device-weighted mean.
    /// Counters sum, high-water marks take the max, and trace events are
    /// re-tagged with global device ids (each part's devices offset by the
    /// devices of the parts before it).
    ///
    /// The request statistics are then derived from the pooled
    /// per-request samples — never by averaging per-part percentiles (the
    /// p99 of a union is not the mean of the p99s) — the same way the
    /// simulate entry points derive them, so merging one report a
    /// simulation returned gives that report back. They are derived on the
    /// calling thread ([`ExecPool::serial`]); the result is bit-identical
    /// to a finish on any other pool.
    pub fn merge(parts: Vec<ServingReport>) -> ServingReport {
        Self::merge_raw(parts).finish(&ExecPool::serial())
    }

    /// [`ServingReport::merge`] without the request statistics: the
    /// internal merge of replicas into a box and of boxes into a cluster,
    /// whose result is finished once, where it leaves the API. `completed`
    /// and `dropped` are concatenated in part order, unsorted.
    ///
    /// A single part is returned unchanged: it already is the merged
    /// report, and re-deriving a gauge as `u × w / w` is not a
    /// floating-point no-op.
    pub(crate) fn merge_raw(mut parts: Vec<ServingReport>) -> ServingReport {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let devices: usize = parts.iter().map(|r| r.devices).sum();
        let makespan_ms = parts.iter().map(|r| r.makespan_ms).fold(0.0, f64::max);
        let span_ns = makespan_ms * 1e6;
        // Device-weighted mean of a per-part value, divided by `over`: the
        // merged span for busy times, 1 for ratios that are already per card.
        let per_card = |gauge: fn(&ServingReport) -> f64, over: f64| -> f64 {
            if over > 0.0 && devices > 0 {
                parts
                    .iter()
                    .map(|r| gauge(r) * r.devices as f64)
                    .sum::<f64>()
                    / (over * devices as f64)
            } else {
                0.0
            }
        };
        let mut m = ServingReport {
            makespan_ms,
            mme_utilization: per_card(|r| r.mme_utilization * r.makespan_ms * 1e6, span_ns),
            tpc_utilization: per_card(|r| r.tpc_utilization * r.makespan_ms * 1e6, span_ns),
            dma_utilization: per_card(|r| r.dma_utilization * r.makespan_ms * 1e6, span_ns),
            nic_utilization: per_card(|r| r.nic_utilization * r.makespan_ms * 1e6, span_ns),
            kv_block_utilization: per_card(|r| r.kv_block_utilization, 1.0),
            devices,
            ..ServingReport::default()
        };
        let mut device_offset = 0;
        for r in parts {
            m.completed.extend(r.completed);
            m.dropped.extend(r.dropped);
            m.offered += r.offered;
            for ev in r.trace.events() {
                let mut ev = ev.clone();
                ev.device = DeviceId(ev.device.0 + device_offset);
                m.trace.push(ev);
            }
            device_offset += r.devices;
            m.decode_steps += r.decode_steps;
            m.prefills += r.prefills;
            m.backpressure_stalls += r.backpressure_stalls;
            m.max_queue_depth = m.max_queue_depth.max(r.max_queue_depth);
            m.peak_queued_tokens = m.peak_queued_tokens.max(r.peak_queued_tokens);
            m.kv_peak_bytes = m.kv_peak_bytes.max(r.kv_peak_bytes);
            m.kv_capacity_bytes = m.kv_capacity_bytes.max(r.kv_capacity_bytes);
            m.compiled_graphs += r.compiled_graphs;
            m.recipe_compiles += r.recipe_compiles;
            m.preemptions += r.preemptions;
            // Summed, not max'd: the aggregate decode capacity the stream
            // reached (per-part peaks need not be simultaneous).
            m.peak_running += r.peak_running;
            m.scheduled_tokens += r.scheduled_tokens;
            m.padded_tokens += r.padded_tokens;
            m.retries += r.retries;
            m.requeued_tokens += r.requeued_tokens;
            m.checkpoint_bytes += r.checkpoint_bytes;
            m.restore_ms += r.restore_ms;
            m.recovered_tokens += r.recovered_tokens;
            m.failed_replicas += r.failed_replicas;
            m.restarts += r.restarts;
            m.replica_uptime_ms.extend(r.replica_uptime_ms);
        }
        m
    }
}

/// `tokens` per second of a `makespan_ms` run; zero for an empty run.
fn tokens_per_s(tokens: usize, makespan_ms: f64) -> f64 {
    if makespan_ms > 0.0 {
        tokens as f64 / (makespan_ms / 1e3)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal report spanning `devices` cards over a 10 ms makespan with
    /// the given MME and block-utilization gauges; everything else is
    /// zero/empty.
    fn part(devices: usize, mme_utilization: f64, kv_block_utilization: f64) -> ServingReport {
        ServingReport {
            makespan_ms: 10.0,
            mme_utilization,
            kv_block_utilization,
            devices,
            replica_uptime_ms: vec![10.0; devices],
            ..ServingReport::default()
        }
    }

    #[test]
    fn merge_weights_per_card_gauges_by_part_width() {
        // Regression: two tp=2 replicas on a 4-card box. Dividing each
        // replica's gauge by 4 *without* the 2-card weight reported
        // (0.9 + 0.6) / 4 = 0.375 for a box whose cards sit at a true
        // mean of (0.9*2 + 0.6*2) / 4 = 0.75.
        let tp = ServingReport::merge(vec![part(2, 0.0, 0.9), part(2, 0.0, 0.6)]);
        assert_eq!(tp.devices, 4);
        assert!(
            (tp.kv_block_utilization - 0.75).abs() < 1e-12,
            "device-weighted mean, got {}",
            tp.kv_block_utilization
        );
        // Single-card parts sum first and divide once.
        let dp = ServingReport::merge(vec![part(1, 0.0, 0.9), part(1, 0.0, 0.6)]);
        assert_eq!(dp.kv_block_utilization, (0.9 + 0.6) / 2.0);

        // Mixed widths: a tp=2 replica beside two single-card ones. The
        // busy-time utilizations are per-card means too, so the wide part
        // counts twice: (0.8*2 + 0.4 + 0.2) / 4, not (0.8 + 0.4 + 0.2) / 4.
        let mixed = ServingReport::merge(vec![
            part(2, 0.8, 0.9),
            part(1, 0.4, 0.6),
            part(1, 0.2, 0.3),
        ]);
        assert_eq!(mixed.devices, 4);
        assert!(
            (mixed.kv_block_utilization - 0.675).abs() < 1e-12,
            "kv gauge device-weighted, got {}",
            mixed.kv_block_utilization
        );
        assert!(
            (mixed.mme_utilization - 0.55).abs() < 1e-12,
            "MME utilization device-weighted, got {}",
            mixed.mme_utilization
        );
    }

    #[test]
    fn merge_returns_a_single_part_unchanged() {
        // A two-card part whose stored percentiles and gauges a re-merge
        // would re-derive differently (ttft from the samples, `u × 2 / 2`
        // in floats) comes back exactly as it went in.
        let mut r = part(2, 0.1, 0.7);
        r.offered = 1;
        r.completed.push(RequestOutcome {
            id: 0,
            arrival_ms: 0.0,
            prompt_len: 8,
            output_len: 2,
            queue_ms: 0.5,
            ttft_ms: 1.5,
            retries: 0,
            finish_ms: 3.0,
            token_times_ms: vec![1.5, 3.0],
        });
        let mut ev = gaudi_profiler::TraceEvent::basic(
            "decode",
            "serving",
            gaudi_hw::EngineId::Mme,
            0.0,
            1e6,
        );
        ev.device = DeviceId(1);
        r.trace.push(ev);
        assert_eq!(
            format!("{:?}", ServingReport::merge_raw(vec![r.clone()])),
            format!("{r:?}")
        );
        // The public merge finishes what it merged; a finished report is
        // its own finish, so a one-part public merge is unchanged too.
        let finished = r.finish(&ExecPool::serial());
        assert_eq!(finished.ttft_ms.p50, 1.5);
        assert_eq!(
            format!("{:?}", ServingReport::merge(vec![finished.clone()])),
            format!("{finished:?}")
        );
    }

    #[test]
    fn unstable_total_cmp_sort_matches_the_stable_partial_cmp_sort() {
        // Finite, non-negative samples with many ties and +0.0: the sort
        // `sort_and_summarize` uses must give the exact sequence (and so
        // the exact percentiles and sorted-order mean) of the stable
        // `partial_cmp` sort it replaced.
        let mut rng = gaudi_tensor::SeededRng::new(7);
        for n in [1, 2, 3, 17, 100, 1000] {
            let v: Vec<f64> = (0..n)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => (rng.uniform() as f64 * 8.0).floor() * 0.25,
                    _ => rng.uniform() as f64 * 1e3,
                })
                .collect();
            let mut old = v.clone();
            old.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut new = v.clone();
            let p = Percentiles::sort_and_summarize(&mut new);
            let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&new), bits(&old), "n = {n}");
            let rank = |q: f64| old[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
            assert_eq!(p.p50.to_bits(), rank(0.50).to_bits());
            assert_eq!(p.p95.to_bits(), rank(0.95).to_bits());
            assert_eq!(p.p99.to_bits(), rank(0.99).to_bits());
            let mean = old.iter().sum::<f64>() / n as f64;
            assert_eq!(p.mean.to_bits(), mean.to_bits());
            assert_eq!(Percentiles::of(v), p);
        }
    }

    #[test]
    #[should_panic(expected = "latencies are finite")]
    fn nan_samples_panic() {
        Percentiles::of([1.0, f64::NAN, 2.0]);
    }

    #[test]
    fn percentiles_of_known_population() {
        let p = Percentiles::of((1..=100).map(|i| i as f64));
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.mean, 50.5);
    }

    #[test]
    fn percentiles_of_singleton_and_empty() {
        let p = Percentiles::of([7.0]);
        assert_eq!((p.p50, p.p95, p.p99, p.mean), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(Percentiles::of([]), Percentiles::default());
    }

    #[test]
    fn render_mentions_key_metrics() {
        let r = ServingReport {
            makespan_ms: 12.5,
            goodput_tokens_per_s: 42.0,
            throughput_tokens_per_s: 42.0,
            mme_utilization: 0.5,
            tpc_utilization: 0.25,
            dma_utilization: 0.1,
            nic_utilization: 0.05,
            decode_steps: 3,
            prefills: 2,
            backpressure_stalls: 1,
            max_queue_depth: 4,
            peak_queued_tokens: 96,
            kv_peak_bytes: 1 << 30,
            kv_capacity_bytes: 32 << 30,
            kv_block_utilization: 0.5,
            compiled_graphs: 5,
            recipe_compiles: 5,
            peak_running: 3,
            scheduled_tokens: 128,
            padded_tokens: 32,
            devices: 1,
            replica_uptime_ms: vec![12.5],
            ..ServingReport::default()
        };
        let text = r.render();
        assert!(text.contains("ttft"));
        assert!(text.contains("42.0"));
        assert!(text.contains("32 GiB"));
        assert!(text.contains("NIC utilization"));
        assert!(text.contains("peak queued tokens"));
        assert!(text.contains("recipe compiles"));
        assert!(text.contains("peak decode batch"));
        assert!(text.contains("padding waste"));
        assert!((r.padding_waste() - 0.25).abs() < 1e-12);
        assert!(
            !text.contains("KV preemptions"),
            "preemption row hidden when contiguous admission never preempts"
        );
        assert!(
            !text.contains("failed replicas"),
            "fault rows hidden in fault-free reports"
        );
        assert!(
            !text.contains("shed (rejected)"),
            "overload rows hidden when nothing dropped"
        );

        let faulted = ServingReport {
            retries: 3,
            requeued_tokens: 17,
            failed_replicas: 1,
            replica_uptime_ms: vec![6.25, 12.5],
            devices: 2,
            ..r.clone()
        };
        let text = faulted.render();
        assert!(text.contains("failed replicas"));
        assert!(text.contains("requeued tokens"));
        assert_eq!(faulted.availability(), 0.75);
        assert!(
            !text.contains("checkpoint bytes"),
            "recovery rows hidden when nothing was checkpointed"
        );

        let checkpointed = ServingReport {
            checkpoint_bytes: 4096,
            restore_ms: 0.5,
            recovered_tokens: 12,
            ..r.clone()
        };
        let text = checkpointed.render();
        assert!(text.contains("checkpoint bytes"));
        assert!(text.contains("restore ms"));
        assert!(text.contains("recovered tokens"));

        let overloaded = ServingReport {
            offered: 3,
            completed: vec![RequestOutcome {
                id: 0,
                arrival_ms: 0.0,
                prompt_len: 8,
                output_len: 4,
                queue_ms: 0.0,
                ttft_ms: 1.0,
                retries: 0,
                finish_ms: 4.0,
                token_times_ms: vec![1.0, 2.0, 3.0, 4.0],
            }],
            dropped: vec![
                DroppedRequest {
                    id: 1,
                    arrival_ms: 0.0,
                    kind: DropKind::Rejected,
                    at_ms: 1.0,
                    retries: 0,
                    tokens_generated: 0,
                },
                DroppedRequest {
                    id: 2,
                    arrival_ms: 0.5,
                    kind: DropKind::TimedOut,
                    at_ms: 9.5,
                    retries: 0,
                    tokens_generated: 4,
                },
            ],
            ..r
        };
        assert_eq!(overloaded.shed(), 1);
        assert_eq!(overloaded.timed_out(), 1);
        assert_eq!(overloaded.failed(), 0);
        assert!((overloaded.goodput_fraction() - 1.0 / 3.0).abs() < 1e-12);
        let text = overloaded.render();
        assert!(text.contains("shed (rejected)"));
        assert!(text.contains("goodput fraction"));
        assert!(text.contains("timed-out e2e"));
    }
}
