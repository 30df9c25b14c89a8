//! Golden pin: the dispatch-structure refactor (BTreeMap → event calendar,
//! ready-indexed replica stepping) must be invisible in the results.
//!
//! The FNV-1a hashes below were captured from the PR-6 engine (the
//! `BTreeMap<(u64, u64), Job>` dispatcher) on fixed configurations that
//! exercise the fault-free shard path, the event-driven faulted path with a
//! restart, and paged admission with recipe warmup. The refactored engine
//! must reproduce every report **bit-for-bit** — same floats, same order,
//! same trace — so these hashes are frozen and CI runs them on every push.
//!
//! Every pinned report carries two digests. The full digest covers the
//! whole `Debug` rendering, so it also moves when a report field is added
//! or a merge sums its floats in a different order. The schedule digest
//! covers only when each request arrived, got its first token and
//! finished, and how it ended; it moves only when the simulated schedule
//! does.

use habana_gaudi_study::prelude::*;
use habana_gaudi_study::serving::simulate;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the full `Debug` rendering of a report: every field, every
/// per-request outcome, every trace event, bit-for-bit. Rust's float
/// `Debug` formatting is exact (shortest round-trip), so two reports hash
/// equal iff they are numerically identical.
fn digest(r: &ServingReport) -> u64 {
    fnv1a(format!("{r:?}").into_bytes())
}

/// FNV-1a over the simulated schedule: one `(id, arrival bits, first-token
/// bits, finish bits, outcome kind)` row per request, in id order. A
/// dropped request has no first token (`u64::MAX`) and finishes at its
/// drop time. These are the rows of simbench's `sim_schedule_digest`.
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

/// Assert both pins of one report: its schedule, then its full rendering.
fn assert_golden(r: &ServingReport, schedule: u64, full: u64, what: &str) {
    assert_eq!(schedule_digest(r), schedule, "{what}: schedule drifted");
    assert_eq!(digest(r), full, "{what}: report drifted");
}

fn base_config(devices: usize) -> ServingConfig {
    let mut model = habana_gaudi_study::models::LlmConfig::tiny(97);
    model.training = false;
    ServingConfig::builder()
        .model(model)
        .traffic(TrafficConfig {
            arrival_rate_per_s: 400.0,
            num_requests: 40,
            prompt_range: (8, 64),
            output_range: (4, 16),
            zipf_s: 1.1,
            seed: 2024,
        })
        .max_batch(4)
        .ctx_bucket(32)
        .devices(devices)
        .build()
}

#[test]
fn single_box_fault_free_report_matches_the_pre_refactor_engine() {
    let r = simulate(&base_config(1)).unwrap();
    assert_eq!(r.completed.len(), 40);
    assert_golden(
        &r,
        SCHEDULE_SINGLE,
        GOLDEN_SINGLE,
        "fault-free single-card report",
    );
}

#[test]
fn multi_replica_report_matches_the_pre_refactor_engine() {
    let r = simulate(&base_config(4)).unwrap();
    assert_eq!(r.completed.len(), 40);
    assert_golden(
        &r,
        SCHEDULE_REPLICAS,
        GOLDEN_REPLICAS,
        "4-replica merged report",
    );
}

#[test]
fn faulted_restart_report_matches_the_pre_refactor_engine() {
    let mut cfg = base_config(3);
    cfg.faults = FaultPlan::none().kill_for(DeviceId(2), 15.0, 30.0);
    cfg.robustness = RobustnessConfig::default()
        .queue_depth(16)
        .retries(4)
        .backoff(2.0, 0.5, 5);
    let r = simulate(&cfg).unwrap();
    assert_eq!(r.restarts, 1);
    assert_golden(
        &r,
        SCHEDULE_RESTART,
        GOLDEN_RESTART,
        "faulted event-loop report",
    );
}

#[test]
fn paged_warmup_report_matches_the_pre_refactor_engine() {
    let mut cfg = base_config(2);
    cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 8 };
    cfg.recipes = RecipeConfig {
        compile_ms: 4.0,
        batch_bucket: 2,
    };
    let r = simulate(&cfg).unwrap();
    assert_eq!(r.completed.len(), 40);
    assert_golden(&r, SCHEDULE_PAGED, GOLDEN_PAGED, "paged+warmup report");
}

#[test]
fn activation_budget_off_is_bit_identical_to_the_seed() {
    // The memory planner is opt-in: with the default `Off` budget the
    // admission math, the compile counts, and every float in the report
    // must match the pre-planner engine exactly.
    let mut cfg = base_config(1);
    cfg.activation_budget = ActivationBudget::Off;
    let r = simulate(&cfg).unwrap();
    assert_golden(
        &r,
        SCHEDULE_SINGLE,
        GOLDEN_SINGLE,
        "ActivationBudget::Off must not perturb the seed report",
    );
}

#[test]
fn fused_attention_off_is_bit_identical_to_the_seed() {
    // The fused-attention pass is the PR-9 semantic change that moved the
    // GOLDEN_* constants. With the pass disabled the whole serving stack —
    // cost model, recipe keys, dispatch — must reproduce the pre-fusion
    // (PR-8) reports bit-for-bit. This is the escape hatch's contract.
    let off = CompilerOptions::builder().fuse_attention(false).build();

    let mut cfg = base_config(1);
    cfg.opts = off.clone();
    assert_golden(
        &simulate(&cfg).unwrap(),
        PRE_FUSION_SCHEDULE_SINGLE,
        PRE_FUSION_SINGLE,
        "fused-off single-card report vs the pre-fusion engine",
    );

    let mut cfg = base_config(2);
    cfg.opts = off;
    cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 8 };
    cfg.recipes = RecipeConfig {
        compile_ms: 4.0,
        batch_bucket: 2,
    };
    assert_golden(
        &simulate(&cfg).unwrap(),
        PRE_FUSION_SCHEDULE_PAGED,
        PRE_FUSION_PAGED,
        "fused-off paged+warmup report vs the pre-fusion engine",
    );
}

#[test]
fn deadline_under_faults_report_matches_the_pre_lazy_pool_engine() {
    // A downsized `paged_campaign` cell: 8-token KV blocks on a full-size
    // HBM pool, recipe warmup, the planned activation reserve, a seeded
    // rack-power campaign with restarts and KV checkpoints, a bounded
    // queue and a TTFT deadline under overload. It pins the expiry pass
    // and the block pool's handout order on the faulted event loop.
    let mut model = habana_gaudi_study::models::LlmConfig::tiny(97);
    model.training = false;
    let seed = 42;
    let mut cfg = ServingConfig::builder()
        .model(model)
        .traffic(TrafficConfig {
            arrival_rate_per_s: 3_000.0,
            num_requests: 2_000,
            prompt_range: (8, 64),
            output_range: (4, 16),
            zipf_s: 1.1,
            seed,
        })
        .max_batch(16)
        .ctx_bucket(32)
        .devices(8)
        .kv_admission(KvAdmissionConfig::Paged { block_tokens: 8 })
        .activation_budget(ActivationBudget::Planned)
        .recipes(RecipeConfig {
            compile_ms: 5.0,
            batch_bucket: 4,
        })
        .robustness(
            RobustnessConfig::unlimited()
                .queue_depth(64)
                .ttft_deadline(200.0)
                .backoff(1.0, 0.5, seed)
                .checkpoint(20.0, 64e9),
        )
        .record_trace(false)
        .build();
    let horizon_ms = habana_gaudi_study::serving::generate_requests(&cfg.traffic)
        .iter()
        .map(|r| r.arrival_ms())
        .fold(0.0, f64::max);
    let topo = Topology::cluster(&cfg.hw, 2, 4, 1.0);
    cfg.faults = FaultCampaign::rack_power(4, (horizon_ms * 0.03, horizon_ms * 0.05))
        .seeded(seed, &topo, horizon_ms)
        .unwrap();
    let r = simulate(&cfg).unwrap();
    assert_eq!(r.completed.len() + r.dropped.len(), 2_000);
    assert!(r.restarts > 0, "the campaign must kill and restart cards");
    assert!(r.checkpoint_bytes > 0, "checkpoints must be taken");
    assert!(
        r.dropped.iter().any(|d| d.kind == DropKind::TimedOut),
        "the TTFT deadline must expire queued requests"
    );
    assert_golden(
        &r,
        SCHEDULE_DEADLINE_CAMPAIGN,
        GOLDEN_DEADLINE_CAMPAIGN,
        "deadline-under-faults report",
    );
}

// Captured from the PR-10 engine; see module docs. Regenerate only for an
// *intentional* semantic change, never for a dispatch-plumbing refactor.
// PR-10 moved every digest deliberately: `ServingReport` grew the
// `checkpoint_bytes` / `restore_ms` / `recovered_tokens` recovery fields
// (all zero in these checkpoint-free cells — the simulated schedules are
// unchanged), and the hash covers the full `Debug` rendering.
const GOLDEN_SINGLE: u64 = 16291629228079148197;
const GOLDEN_REPLICAS: u64 = 8603232663148467704;
// Re-pinned when the replica merge became the one device-weighted
// `ServingReport::merge`: it sums `kv_block_utilization` over the replicas
// before dividing, which moves this report's gauge by one ulp
// (0.8914902191188545 → 0.8914902191188544). Its schedule is unchanged.
const GOLDEN_RESTART: u64 = 15276574217670241978;
const GOLDEN_PAGED: u64 = 6546514325150282584;

// The PR-8 (pre-fused-attention) *schedules*, frozen: `fuse_attention(false)`
// must keep reproducing those simulated timings forever. The hashes were
// re-captured in PR-10 for the report-struct growth above.
const PRE_FUSION_SINGLE: u64 = 3821713689838433894;
const PRE_FUSION_PAGED: u64 = 11244233705144614509;

// Captured from the engine with the materialised block free list and the
// rebuild-every-step expiry pass, before either was made lazy.
const GOLDEN_DEADLINE_CAMPAIGN: u64 = 17755081122393497776;

// Schedule digests, captured on the same engine as the full digests
// above; they stay put when only the report layout or a merge's float
// order changes.
const SCHEDULE_SINGLE: u64 = 8839933083389214669;
const SCHEDULE_REPLICAS: u64 = 4748048108585979525;
const SCHEDULE_RESTART: u64 = 7551309795145661085;
const SCHEDULE_PAGED: u64 = 7237318799764745763;
const PRE_FUSION_SCHEDULE_SINGLE: u64 = 17100309050486298666;
const PRE_FUSION_SCHEDULE_PAGED: u64 = 6245914303855116261;
const SCHEDULE_DEADLINE_CAMPAIGN: u64 = 730927114982223801;
