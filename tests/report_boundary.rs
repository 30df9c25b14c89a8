//! The request statistics of a [`ServingReport`] are derived once, where
//! the report leaves the public API, on the call's pool. These tests pin
//! that boundary: for one replica, four replicas, a faulted box and a
//! small cluster, under a serial and a two-thread pool, every percentile
//! equals [`Percentiles::of`] over the report's own samples, the request
//! lists are sorted by id, and each box's goodput is its own token rate.
//! They also pin the typed errors for malformed traffic parameters and
//! for a trace that reuses a request id.

use gaudi_hw::DeviceId;
use gaudi_models::LlmConfig;
use gaudi_serving::{
    generate_requests, simulate_cluster_with, simulate_trace, simulate_with, ClusterConfig,
    DropKind, ExecPolicy, ExecPool, FaultPlan, Percentiles, RobustnessConfig, ServingConfig,
    ServingError, ServingReport, TrafficConfig,
};

fn base_config() -> ServingConfig {
    let mut model = LlmConfig::tiny(97);
    model.training = false;
    ServingConfig::builder()
        .model(model)
        .traffic(TrafficConfig {
            arrival_rate_per_s: 2_000.0,
            num_requests: 80,
            prompt_range: (8, 64),
            output_range: (4, 16),
            zipf_s: 1.1,
            seed: 2024,
        })
        .max_batch(4)
        .ctx_bucket(32)
        .build()
}

/// A serial and a two-thread policy: the report must not depend on which.
fn policies() -> [ExecPolicy; 2] {
    [
        ExecPolicy::default().with_pool(ExecPool::serial()),
        ExecPolicy::default().with_pool(ExecPool::new(2)),
    ]
}

/// The finished-report contract, checked against the report's own data.
fn assert_finished(r: &ServingReport) {
    assert!(r.completed.windows(2).all(|w| w[0].id < w[1].id));
    assert!(r.dropped.windows(2).all(|w| w[0].id < w[1].id));
    assert_eq!(r.offered, r.completed.len() + r.dropped.len());
    assert_eq!(
        r.ttft_ms,
        Percentiles::of(r.completed.iter().map(|o| o.ttft_ms))
    );
    assert_eq!(
        r.tpot_ms,
        Percentiles::of(
            r.completed
                .iter()
                .flat_map(|o| o.token_times_ms.windows(2).map(|w| w[1] - w[0]))
        )
    );
    assert_eq!(
        r.queue_ms,
        Percentiles::of(r.completed.iter().map(|o| o.queue_ms))
    );
    assert_eq!(
        r.timed_out_latency_ms,
        Percentiles::of(
            r.dropped
                .iter()
                .filter(|d| d.kind == DropKind::TimedOut)
                .map(|d| d.at_ms - d.arrival_ms)
        )
    );
    let tokens: usize = r.completed.iter().map(|o| o.output_len).sum();
    assert_eq!(
        r.goodput_tokens_per_s,
        tokens as f64 / (r.makespan_ms / 1e3)
    );
}

/// Run `cfg` under both policies; both reports satisfy the contract and
/// are identical.
fn simulate_both(cfg: &ServingConfig) -> ServingReport {
    let [serial, pooled] = policies().map(|p| simulate_with(cfg, &p).unwrap());
    assert_finished(&serial);
    assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
    serial
}

#[test]
fn one_replica_report_is_finished_at_the_boundary() {
    let r = simulate_both(&base_config());
    assert_eq!(r.devices, 1);
    assert_eq!(r.completed.len(), 80);
}

#[test]
fn four_replica_report_is_finished_at_the_boundary() {
    let mut cfg = base_config();
    cfg.devices = 4;
    let r = simulate_both(&cfg);
    assert_eq!(r.devices, 4);
    assert_eq!(r.completed.len(), 80);
}

#[test]
fn faulted_box_with_kills_and_timeouts_is_finished_at_the_boundary() {
    let mut cfg = base_config();
    cfg.devices = 3;
    cfg.traffic.arrival_rate_per_s = 20_000.0;
    cfg.faults = FaultPlan::none()
        .kill_for(DeviceId(1), 1.0, 5.0)
        .kill(DeviceId(2), 2.0);
    cfg.robustness = RobustnessConfig::unlimited().ttft_deadline(15.0);
    let r = simulate_both(&cfg);
    assert!(r.failed_replicas >= 2 && r.retries > 0, "kills must bite");
    assert!(
        r.timed_out() > 0,
        "the TTFT deadline must expire some requests"
    );
    assert!(r.timed_out_latency_ms.p99 > 0.0);
}

#[test]
fn two_by_two_cluster_is_finished_once_and_keeps_per_box_goodput() {
    let cfg = ClusterConfig::new(base_config(), 2, 2);
    let [serial, pooled] = policies().map(|p| simulate_cluster_with(&cfg, &p).unwrap());
    assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
    assert_finished(&serial.report);
    assert_eq!(serial.report.devices, 4);
    // The default router deals the id-ordered stream round-robin, so box
    // `b` holds exactly the ids congruent to `b`.
    for b in &serial.per_box {
        let tokens: usize = serial
            .report
            .completed
            .iter()
            .filter(|o| o.id as usize % 2 == b.box_id)
            .map(|o| o.output_len)
            .sum();
        assert!(tokens > 0);
        assert_eq!(
            b.goodput_tokens_per_s,
            tokens as f64 / (b.makespan_ms / 1e3),
            "box {}",
            b.box_id
        );
    }
}

/// Both entry points that generate traffic reject `traffic` with a typed
/// error instead of panicking in the generator.
fn assert_rejected(traffic: TrafficConfig) {
    let mut cfg = base_config();
    cfg.traffic = traffic;
    let policy = ExecPolicy::default().with_pool(ExecPool::serial());
    assert!(matches!(
        simulate_with(&cfg, &policy),
        Err(ServingError::InvalidConfig(_))
    ));
    assert!(matches!(
        simulate_cluster_with(&ClusterConfig::new(cfg, 2, 1), &policy),
        Err(ServingError::InvalidConfig(_))
    ));
}

#[test]
fn nonpositive_or_nan_arrival_rate_is_a_typed_error() {
    for rate in [0.0, -5.0, f64::NAN] {
        assert_rejected(TrafficConfig {
            arrival_rate_per_s: rate,
            ..base_config().traffic
        });
    }
}

#[test]
fn zero_or_inverted_prompt_range_is_a_typed_error() {
    for range in [(0, 64), (64, 8)] {
        assert_rejected(TrafficConfig {
            prompt_range: range,
            ..base_config().traffic
        });
    }
}

#[test]
fn zero_or_inverted_output_range_is_a_typed_error() {
    for range in [(0, 16), (16, 4)] {
        assert_rejected(TrafficConfig {
            output_range: range,
            ..base_config().traffic
        });
    }
}

#[test]
fn a_trace_that_reuses_a_request_id_is_a_typed_error() {
    // The finished report is ordered and keyed by request id.
    let cfg = base_config();
    let mut trace = generate_requests(&cfg.traffic);
    assert!(simulate_trace(&cfg, trace.clone()).is_ok());
    trace[5].id = trace[40].id;
    match simulate_trace(&cfg, trace) {
        Err(ServingError::InvalidConfig(msg)) => assert!(msg.contains("more than once"), "{msg}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
