//! The two serving workloads: `cluster_headline` (the cluster engine at
//! scale) and `paged_campaign` (paged KV, recipe warmup, a fault campaign
//! and overload on one box).
//!
//! Both are open-loop Poisson arrival schedules in simulated time; on the
//! host each iteration is one offline batch call into the simulator.

use crate::report::{fnv1a, Iteration};
use crate::spans::Tracer;
use crate::{Extras, Workload};
use gaudi_exec::ExecPool;
use gaudi_hw::Topology;
use gaudi_serving::{
    activation_estimate, generate_requests, simulate_cluster_with, simulate_with, ActivationBudget,
    BlockPool, ClusterConfig, DropKind, ExecPolicy, FaultCampaign, KvAdmissionConfig, PagedKv,
    PlanCache, PlanSharing, RecipeConfig, RobustnessConfig, ServingConfig, ServingReport,
    TrafficConfig,
};
use habana_gaudi_study::bin_support::{cluster_digest, cluster_sweep_config, report_digest};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The headline cluster cell: 64 boxes x 8 cards, 1M requests at 250k
/// req/s through a 4x oversubscribed switch tier.
const CLUSTER_BOXES: usize = 64;
const CLUSTER_CARDS_PER_BOX: usize = 8;
const CLUSTER_REQUESTS: usize = 1_000_000;
const CLUSTER_RATE: f64 = 250_000.0;
const CLUSTER_OVERSUBSCRIPTION: f64 = 4.0;

/// One 2x4-card box under about 1.6x its sustainable arrival rate.
const PAGED_REQUESTS: usize = 60_000;
const PAGED_RATE: f64 = 3_000.0;
const PAGED_BOXES: usize = 2;
const PAGED_CARDS_PER_BOX: usize = 4;
const PAGED_BLOCK_TOKENS: usize = 8;
/// Rack-power events over the arrival horizon; each takes a whole
/// 4-card half of the box down for 3-5% of the horizon, then restarts it.
const PAGED_CAMPAIGN_EVENTS: usize = 4;
const PAGED_QUEUE_DEPTH: usize = 64;
const PAGED_TTFT_DEADLINE_MS: f64 = 200.0;
const PAGED_CHECKPOINT_MS: f64 = 20.0;
const DMA_BYTES_PER_S: f64 = 64e9;

/// A fresh plan cache per call: every iteration pays its own compiles, as
/// a user's fresh simulator process does.
fn cold_policy(pool: &ExecPool) -> (ExecPolicy, Arc<PlanCache>) {
    let cache = Arc::new(PlanCache::new());
    let policy = ExecPolicy {
        pool: pool.clone(),
        plans: PlanSharing::Shared(Arc::clone(&cache)),
    };
    (policy, cache)
}

/// FNV-1a over every request's `(id, arrival, first token, finish,
/// outcome)` in id order, read from the public outcome records. A dropped
/// request has no first token (`u64::MAX`) and finishes when it is dropped.
fn schedule_digest(r: &ServingReport) -> u64 {
    let mut rows: Vec<[u64; 5]> = r
        .completed
        .iter()
        .map(|o| {
            [
                o.id,
                o.arrival_ms.to_bits(),
                (o.arrival_ms + o.ttft_ms).to_bits(),
                o.finish_ms.to_bits(),
                0,
            ]
        })
        .chain(r.dropped.iter().map(|d| {
            let kind = match d.kind {
                DropKind::Rejected => 1,
                DropKind::TimedOut => 2,
                DropKind::Failed => 3,
            };
            [
                d.id,
                d.arrival_ms.to_bits(),
                u64::MAX,
                d.at_ms.to_bits(),
                kind,
            ]
        }))
        .collect();
    rows.sort_unstable_by_key(|row| row[0]);
    fnv1a(rows.iter().flatten().flat_map(|w| w.to_le_bytes()))
}

/// The ids of a generated request stream, sorted: what conservation is
/// checked against.
fn stream_ids(traffic: &TrafficConfig) -> Vec<u64> {
    let mut ids: Vec<u64> = generate_requests(traffic).iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids
}

/// Output checks shared by both serving workloads: request conservation
/// against the generated stream and KV capacity.
fn check_report(r: &ServingReport, stream: &[u64], failures: &mut Vec<String>) {
    let seen = r.completed.len() + r.dropped.len();
    if seen != r.offered || r.offered != stream.len() {
        failures.push(format!(
            "completed {} + dropped {} must equal offered {} (stream of {})",
            r.completed.len(),
            r.dropped.len(),
            r.offered,
            stream.len()
        ));
    }
    let mut ids: Vec<u64> = r
        .completed
        .iter()
        .map(|o| o.id)
        .chain(r.dropped.iter().map(|d| d.id))
        .collect();
    ids.sort_unstable();
    if ids != stream {
        failures.push("every generated request must terminate exactly once".into());
    }
    if r.kv_peak_bytes > r.kv_capacity_bytes {
        failures.push(format!(
            "kv_peak_bytes {} exceeds kv_capacity_bytes {}",
            r.kv_peak_bytes, r.kv_capacity_bytes
        ));
    }
}

fn sim_metrics(r: &ServingReport, availability: f64) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("sim_makespan_ms", r.makespan_ms),
        ("sim_mme_util", r.mme_utilization),
        ("sim_goodput_tok_s", r.goodput_tokens_per_s),
        ("sim_ttft_p50_ms", r.ttft_ms.p50),
        ("sim_ttft_p99_ms", r.ttft_ms.p99),
        ("sim_tpot_p99_ms", r.tpot_ms.p99),
        (
            "sim_completed_frac",
            r.completed.len() as f64 / r.offered as f64,
        ),
        ("sim_availability", availability),
    ])
}

/// Per-layer counters every serving report carries.
fn report_counters(r: &ServingReport, cache: &PlanCache) -> BTreeMap<&'static str, f64> {
    let stats = cache.stats();
    let lookups = (stats.hits + stats.misses).max(1) as f64;
    BTreeMap::from([
        ("kv.block_utilization", r.kv_block_utilization),
        ("kv.preemptions", r.preemptions as f64),
        ("engine.completed", r.completed.len() as f64),
        ("engine.decode_steps", r.decode_steps as f64),
        ("engine.prefills", r.prefills as f64),
        ("engine.mean_decode_batch", r.mean_decode_batch()),
        ("engine.max_queue_depth", r.max_queue_depth as f64),
        ("engine.peak_running", r.peak_running as f64),
        ("engine.padding_waste", r.padding_waste()),
        ("robustness.shed", r.shed() as f64),
        ("robustness.timed_out", r.timed_out() as f64),
        ("robustness.retries", r.retries as f64),
        ("robustness.requeued_tokens", r.requeued_tokens as f64),
        ("robustness.restarts", r.restarts as f64),
        ("robustness.checkpoint_bytes", r.checkpoint_bytes as f64),
        ("robustness.restore_ms", r.restore_ms),
        ("robustness.recovered_tokens", r.recovered_tokens as f64),
        ("cost.plan_hits", stats.hits as f64),
        ("cost.plan_misses", stats.misses as f64),
        ("cost.plan_hit_ratio", stats.hits as f64 / lookups),
        ("cost.recipe_compiles", r.recipe_compiles as f64),
    ])
}

/// Host seconds per simulated decode step of the workload's main call.
fn ns_per_decode_step(call_s: f64, counters: &BTreeMap<&'static str, f64>) -> f64 {
    call_s * 1e9 / counters["engine.decode_steps"].max(1.0)
}

/// Require the iteration rerun on the serial exec pool to match the pooled
/// one bit for bit. Returns the serial call's host seconds.
fn check_exec_invariance(first: &Iteration, serial: Iteration, failures: &mut Vec<String>) -> f64 {
    if !serial.same_results(first) {
        failures.push(format!(
            "pool size 1 changed the simulated results: digest {:016x} vs {:016x}",
            serial.digest, first.digest
        ));
    }
    failures.extend(serial.failures);
    serial.wall_s
}

pub struct ClusterHeadline {
    cfg: ClusterConfig,
    /// Sorted ids of the generated stream.
    stream: Vec<u64>,
}

impl ClusterHeadline {
    pub fn setup(seed: u64, tr: &Tracer) -> Result<Self, String> {
        let mut cfg = cluster_sweep_config(
            CLUSTER_BOXES,
            CLUSTER_CARDS_PER_BOX,
            CLUSTER_REQUESTS,
            CLUSTER_RATE,
        )
        .oversubscription(CLUSTER_OVERSUBSCRIPTION);
        cfg.box_config.traffic.seed = seed;
        let (stream, _) = tr.span("request.generate", || stream_ids(&cfg.box_config.traffic));
        Ok(ClusterHeadline { cfg, stream })
    }

    fn run(&self, pool: &ExecPool, tr: &Tracer) -> Iteration {
        let (policy, cache) = cold_policy(pool);
        let (result, wall_s) = tr.span("cluster.simulate", || {
            simulate_cluster_with(&self.cfg, &policy)
        });
        let mut it = Iteration::new(wall_s);
        let c = match result {
            Ok(c) => c,
            Err(e) => return it.failed(format!("simulate_cluster_with: {e}")),
        };
        check_report(&c.report, &self.stream, &mut it.failures);
        let per_box: usize = c.per_box.iter().map(|b| b.offered).sum();
        if per_box != self.stream.len() {
            it.failures.push(format!(
                "boxes were offered {per_box} of {} requests",
                self.stream.len()
            ));
        }
        it.digest = schedule_digest(&c.report);
        it.report_digest = fnv1a(cluster_digest(&c).bytes());
        it.sim = sim_metrics(&c.report, c.availability());
        it.counters = report_counters(&c.report, &cache);
        it.counters
            .insert("cluster.cross_box_requests", c.cross_box_requests as f64);
        it.counters.insert("cluster.imbalance", c.imbalance());
        it
    }
}

impl Workload for ClusterHeadline {
    fn iterate(&self, pool: &ExecPool, tr: &Tracer) -> Iteration {
        self.run(pool, tr)
    }

    /// The boxes fan out over the whole pool.
    fn busy_threads(&self, pool_threads: usize) -> usize {
        pool_threads
    }

    /// The cluster call holds the box engines, router and merge; from the
    /// outside its host time splits only by exec pool: `exec.serial_s` is
    /// every box's engine run back to back on one thread.
    fn traced_extras(
        &self,
        _pool: &ExecPool,
        first: &Iteration,
        times: &BTreeMap<&'static str, f64>,
        tr: &Tracer,
    ) -> Extras {
        let mut x = Extras::default();
        let serial = self.run(&ExecPool::serial(), tr);
        let serial_s = check_exec_invariance(first, serial, &mut x.failures);
        let pooled_s = times.get("cluster.simulate").copied().unwrap_or(0.0);
        x.layers.insert("exec.serial_s", serial_s);
        x.layers
            .insert("exec.speedup", serial_s / pooled_s.max(1e-12));
        x.layers.insert(
            "engine.ns_per_decode_step",
            ns_per_decode_step(pooled_s, &first.counters),
        );
        x
    }
}

pub struct PagedCampaign {
    cfg: ServingConfig,
    /// Sorted ids of the generated stream.
    stream: Vec<u64>,
    capacity_blocks: u32,
}

fn paged_config(seed: u64, num_requests: usize) -> ServingConfig {
    let mut model = gaudi_models::LlmConfig::tiny(97);
    model.training = false;
    ServingConfig::builder()
        .model(model)
        .traffic(TrafficConfig {
            arrival_rate_per_s: PAGED_RATE,
            num_requests,
            prompt_range: (8, 64),
            output_range: (4, 16),
            zipf_s: 1.1,
            seed,
        })
        .max_batch(16)
        .ctx_bucket(32)
        .devices(PAGED_BOXES * PAGED_CARDS_PER_BOX)
        .kv_admission(KvAdmissionConfig::Paged {
            block_tokens: PAGED_BLOCK_TOKENS,
        })
        .activation_budget(ActivationBudget::Planned)
        .recipes(RecipeConfig {
            compile_ms: 5.0,
            batch_bucket: 4,
        })
        .robustness(
            RobustnessConfig::unlimited()
                .queue_depth(PAGED_QUEUE_DEPTH)
                .ttft_deadline(PAGED_TTFT_DEADLINE_MS)
                .backoff(1.0, 0.5, seed)
                .checkpoint(PAGED_CHECKPOINT_MS, DMA_BYTES_PER_S),
        )
        .record_trace(false)
        .build()
}

impl PagedCampaign {
    pub fn setup(seed: u64, tr: &Tracer) -> Result<Self, String> {
        let mut cfg = paged_config(seed, PAGED_REQUESTS);
        let (requests, _) = tr.span("request.generate", || generate_requests(&cfg.traffic));
        let horizon_ms = requests.iter().map(|r| r.arrival_ms()).fold(0.0, f64::max);
        let mut stream: Vec<u64> = requests.iter().map(|r| r.id).collect();
        stream.sort_unstable();
        let topo = Topology::cluster(&cfg.hw, PAGED_BOXES, PAGED_CARDS_PER_BOX, 1.0);
        let (plan, _) = tr.span("robustness.campaign", || {
            FaultCampaign::rack_power(
                PAGED_CAMPAIGN_EVENTS,
                (horizon_ms * 0.03, horizon_ms * 0.05),
            )
            .seeded(seed, &topo, horizon_ms)
        });
        cfg.faults = plan.map_err(|e| format!("FaultCampaign::seeded: {e}"))?;
        // The admission footprint every replica's block pool is carved
        // from: weights plus the planned activation reserve.
        let (estimate, _) = tr.span("engine.activation_estimate", || activation_estimate(&cfg));
        let (planned, _) = estimate.map_err(|e| format!("activation_estimate: {e}"))?;
        let worst = cfg.traffic.prompt_range.1 + cfg.traffic.output_range.1;
        let weights = cfg
            .kv_admission
            .weight_bytes(&cfg.model, worst, cfg.kv_dtype);
        let per_token = cfg
            .kv_admission
            .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
        let kv = PagedKv::new(
            &cfg.hw.memory,
            weights + planned,
            per_token,
            PAGED_BLOCK_TOKENS,
        )
        .map_err(|e| format!("PagedKv::new: {e}"))?;
        Ok(PagedCampaign {
            stream,
            capacity_blocks: kv.pool().capacity_blocks() as u32,
            cfg,
        })
    }

    fn run(
        &self,
        cfg: &ServingConfig,
        stream: &[u64],
        policy: &ExecPolicy,
        cache: &PlanCache,
        tr: &Tracer,
    ) -> Iteration {
        let (result, wall_s) = tr.span("engine.simulate", || simulate_with(cfg, policy));
        let mut it = Iteration::new(wall_s);
        let r = match result {
            Ok(r) => r,
            Err(e) => return it.failed(format!("simulate_with: {e}")),
        };
        check_report(&r, stream, &mut it.failures);
        it.digest = schedule_digest(&r);
        it.report_digest = fnv1a(report_digest(&r).bytes());
        it.sim = sim_metrics(&r, r.availability());
        it.counters = report_counters(&r, cache);
        it
    }
}

impl Workload for PagedCampaign {
    fn iterate(&self, pool: &ExecPool, tr: &Tracer) -> Iteration {
        let (policy, cache) = cold_policy(pool);
        let mut it = self.run(&self.cfg, &self.stream, &policy, &cache, tr);
        it.counters
            .insert("paged.capacity_blocks", self.capacity_blocks as f64);
        it
    }

    fn traced_extras(
        &self,
        pool: &ExecPool,
        first: &Iteration,
        times: &BTreeMap<&'static str, f64>,
        tr: &Tracer,
    ) -> Extras {
        let mut x = Extras::default();
        let (layers, failures) = (&mut x.layers, &mut x.failures);
        let cold_s = times.get("engine.simulate").copied().unwrap_or(0.0);
        layers.insert(
            "engine.ns_per_decode_step",
            ns_per_decode_step(cold_s, &first.counters),
        );

        // Exec-layer invariance: the serial pool must reproduce the run.
        let (policy, cache) = cold_policy(&ExecPool::serial());
        let serial = self.run(&self.cfg, &self.stream, &policy, &cache, tr);
        let serial_s = check_exec_invariance(first, serial, failures);
        layers.insert("exec.serial_s", serial_s);
        layers.insert("exec.speedup", serial_s / cold_s.max(1e-12));

        // The same stream over a plan cache the previous call warmed:
        // plan sharing changes when shapes compile, never what they cost.
        let warm_policy = ExecPolicy {
            pool: pool.clone(),
            plans: PlanSharing::Shared(Arc::clone(&cache)),
        };
        let mut warm_s = Vec::new();
        for _ in 0..3 {
            let warm = self.run(&self.cfg, &self.stream, &warm_policy, &cache, tr);
            if !warm.same_results(first) {
                failures.push("a pre-warmed plan cache changed the simulated results".into());
            }
            failures.extend(warm.failures);
            warm_s.push(warm.wall_s);
        }
        layers.insert(
            "cost.compile_cold_minus_warm_s",
            cold_s - crate::report::median(&mut warm_s),
        );

        // Engine scaling: the same configuration at half the stream length.
        let mut half_cfg = paged_config(self.cfg.traffic.seed, self.cfg.traffic.num_requests / 2);
        half_cfg.faults = self.cfg.faults.clone();
        let half_stream = stream_ids(&half_cfg.traffic);
        let mut half_s = Vec::new();
        for _ in 0..3 {
            let (policy, cache) = cold_policy(pool);
            let half = self.run(&half_cfg, &half_stream, &policy, &cache, tr);
            failures.extend(half.failures);
            half_s.push(half.wall_s);
        }
        layers.insert(
            "engine.scaling_2x",
            cold_s / crate::report::median(&mut half_s),
        );

        // Every simulate call carves one admission probe plus one pool per
        // replica: time exactly those constructions from outside.
        let pools = 1 + self.cfg.devices;
        let mut pool_new_s = 0.0;
        for _ in 0..pools {
            let (p, secs) = tr.span("paged.pool_new", || BlockPool::new(self.capacity_blocks));
            pool_new_s += secs;
            if p.free_blocks() != self.capacity_blocks as usize || p.allocated_blocks() != 0 {
                failures.push("a fresh BlockPool must hold every block free".into());
            }
        }
        layers.insert("paged.pool_new_s", pool_new_s);
        x
    }
}
