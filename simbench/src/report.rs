//! Per-iteration results, small statistics helpers, and the metric
//! catalogue the result line is printed from.

use std::collections::BTreeMap;

/// What one iteration of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Host seconds spent inside the iteration's timed public calls.
    pub wall_s: f64,
    /// Public calls that returned `Err` or whose output failed a check.
    pub failures: Vec<String>,
    /// `sim_*` end-to-end metrics, plus `table2_err_max` on the paper path.
    pub sim: BTreeMap<&'static str, f64>,
    /// Per-layer counters read off the public reports.
    pub counters: BTreeMap<&'static str, f64>,
    /// `sim_schedule_digest` on the serving workloads; a digest of every
    /// simulated number on the paper path.
    pub digest: u64,
    /// Digest of the rendered report fields, compared across iterations.
    pub report_digest: u64,
}

impl Iteration {
    pub fn new(wall_s: f64) -> Self {
        Iteration {
            wall_s,
            ..Iteration::default()
        }
    }

    /// The iteration with `why` recorded as a failed operation.
    pub fn failed(mut self, why: String) -> Self {
        self.failures.push(why);
        self
    }

    /// Whether two iterations simulated bit-identical results: the same
    /// digests and the same `sim_*` values to the bit.
    pub fn same_results(&self, other: &Iteration) -> bool {
        self.digest == other.digest
            && self.report_digest == other.report_digest
            && self.sim.len() == other.sim.len()
            && self
                .sim
                .iter()
                .zip(&other.sim)
                .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
    }
}

/// End-to-end metrics, `(name, unit)`, in the order `BENCHMARK.json`
/// lists them. `sim_ms` marks simulated milliseconds, which repeat
/// exactly for a seed, as opposed to host seconds (`s`); `ref` is host
/// time in units of the reference kernel's time (see `reference.rs`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_wall_ref", "ref"),
    ("peak_rss_mib", "MiB"),
    ("sim_makespan_ms", "sim_ms"),
    ("sim_mme_util", "ratio"),
    ("sim_goodput_tok_s", "tok/sim_s"),
    ("sim_ttft_p50_ms", "sim_ms"),
    ("sim_ttft_p99_ms", "sim_ms"),
    ("sim_tpot_p99_ms", "sim_ms"),
    ("sim_completed_frac", "ratio"),
    ("sim_availability", "ratio"),
    ("table2_err_max", "ratio"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A layer that does
/// no work on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("request.generate_s", "s"),
    ("models.build_s", "s"),
    ("models.nodes", "count"),
    ("paged.pool_new_s", "s"),
    ("paged.capacity_blocks", "count"),
    ("kv.block_utilization", "ratio"),
    ("kv.preemptions", "count"),
    ("engine.simulate_s", "s"),
    ("engine.activation_estimate_s", "s"),
    ("engine.completed", "count"),
    ("engine.decode_steps", "count"),
    ("engine.prefills", "count"),
    ("engine.mean_decode_batch", "count"),
    ("engine.ns_per_decode_step", "ns"),
    ("engine.max_queue_depth", "count"),
    ("engine.peak_running", "count"),
    ("engine.padding_waste", "ratio"),
    ("engine.scaling_2x", "ratio"),
    ("exec.serial_s", "s"),
    ("exec.speedup", "ratio"),
    ("robustness.campaign_s", "s"),
    ("robustness.shed", "count"),
    ("robustness.timed_out", "count"),
    ("robustness.retries", "count"),
    ("robustness.requeued_tokens", "count"),
    ("robustness.restarts", "count"),
    ("robustness.checkpoint_bytes", "bytes"),
    ("robustness.restore_ms", "sim_ms"),
    ("robustness.recovered_tokens", "count"),
    ("cluster.simulate_s", "s"),
    ("cluster.cross_box_requests", "count"),
    ("cluster.imbalance", "ratio"),
    ("cost.plan_hits", "count"),
    ("cost.plan_misses", "count"),
    ("cost.plan_hit_ratio", "ratio"),
    ("cost.recipe_compiles", "count"),
    ("cost.compile_cold_minus_warm_s", "s"),
    ("hw.table2_s", "s"),
    ("hw.table2_err_2048", "ratio"),
    ("compiler.compile_s", "s"),
    ("compiler.memplan_s", "s"),
    ("compiler.fused_attention_sites", "count"),
    ("compiler.arena_over_naive", "ratio"),
    ("runtime.run_shape_s", "s"),
    ("runtime.run_full_s", "s"),
    ("tpc.vm_s", "s"),
    ("tpc.vm_cycles.bmm", "cycles"),
    ("tpc.vm_cycles.softmax", "cycles"),
    ("tpc.vm_cycles.elementwise", "cycles"),
    ("tpc.vm_cycles.fused_attention", "cycles"),
    ("tpc.vm_cycles.fused_softmax_matmul", "cycles"),
    ("tpc.vm_cycles.unfused_softmax_matmul", "cycles"),
    ("tpc.vm_over_analytic.bmm", "ratio"),
    ("tpc.vm_over_analytic.softmax", "ratio"),
    ("tpc.vm_over_analytic.elementwise", "ratio"),
    ("tpc.vm_over_analytic.fused_attention", "ratio"),
    ("profiler.analysis_s", "s"),
    ("profiler.mme_idle_frac", "ratio"),
    ("profiler.mme_idle_frac_unfused", "ratio"),
    ("profiler.longest_mme_gap_ms", "sim_ms"),
    ("trace.overhead_s", "s"),
    ("bench.host_wall_s", "s"),
    ("bench.reference_s", "s"),
];

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Every metric in `catalogue` is printed; a missing one reads 0.
pub fn result_line(
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn same_results_compares_to_the_bit() {
        let mut a = Iteration::new(1.0);
        a.sim.insert("sim_makespan_ms", 0.1 + 0.2);
        let mut b = a.clone();
        b.wall_s = 2.0;
        assert!(a.same_results(&b), "host time is not a simulated result");
        b.sim.insert("sim_makespan_ms", 0.3);
        assert!(
            !a.same_results(&b),
            "0.1 + 0.2 and 0.3 differ in the last bit"
        );
        let mut c = a.clone();
        c.digest = 1;
        assert!(!a.same_results(&c));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_prints_every_metric() {
        let values = BTreeMap::from([("setup_s".to_string(), 0.5)]);
        let line = result_line(3, 0, END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"table2_err_max\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
    }
}
