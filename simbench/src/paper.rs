//! The `paper_kernels` workload: the paper's own path, with no serving.
//!
//! One iteration regenerates Table 2, compiles and simulates the Fig. 4-6
//! layers fused and unfused, compiles and simulates the §3.4 GPT prefill
//! and decode phases and BERT-MLM, runs the TPC-VM kernel cells, and
//! checks one full-numerics fused-vs-unfused graph pair.

use crate::report::{fnv1a, Iteration};
use crate::spans::Tracer;
use crate::Workload;
use gaudi_bench::experiments::layer_figs::{paper_options, FAVOR_FEATURES};
use gaudi_bench::experiments::table2::table2;
use gaudi_compiler::{fuse_attention, plan_memory, CompilerOptions, GraphCompiler};
use gaudi_exec::ExecPool;
use gaudi_graph::{Graph, OpKind};
use gaudi_hw::config::TpcConfig;
use gaudi_hw::{EngineId, GaudiConfig, TpcCostModel, TpcOpClass};
use gaudi_models::attention::AttentionKind;
use gaudi_models::bert::build_bert_mlm;
use gaudi_models::config::TransformerLayerConfig;
use gaudi_models::{
    build_decode_step, build_prefill, build_transformer_layer, BertConfig, LlmConfig,
};
use gaudi_profiler::TraceAnalysis;
use gaudi_runtime::{Feeds, NumericsMode, Runtime};
use gaudi_tensor::{ops, SeededRng, Tensor};
use gaudi_tpc::{kernels, LaunchError, LaunchResult};
use std::collections::BTreeMap;

/// Table 2 check and calibration error: the largest relative error of
/// `T_MME` and `T_TPC` against the paper over all rows, and over the 2048
/// row alone. Failures record a broken Table 2 shape.
pub fn table2_check(failures: &mut Vec<String>) -> (f64, f64) {
    let rows = table2();
    let mut err_max = 0.0f64;
    let mut err_2048 = 0.0f64;
    for r in &rows {
        let (pt_mme, _, pt_tpc, ..) = r.paper;
        let err = ((r.t_mme_ms - pt_mme).abs() / pt_mme).max((r.t_tpc_ms - pt_tpc).abs() / pt_tpc);
        err_max = err_max.max(err);
        if r.size == 2048 {
            err_2048 = err;
        }
        if !(1.5..2.5).contains(&r.f_tpc) {
            failures.push(format!(
                "Table 2 size {}: TPC {} TFLOPS is not flat near 2",
                r.size, r.f_tpc
            ));
        }
    }
    // The paper's shape: five rows in size order, a monotone MME ramp, and
    // a TPC/MME speedup that climbs from about 1x to about 7x.
    let ordered = rows.len() == 5 && rows.windows(2).all(|w| w[0].size < w[1].size);
    let ramp = rows.windows(2).all(|w| w[0].f_mme <= w[1].f_mme + 0.3);
    let speedups = rows.first().is_some_and(|r| r.speedup < 2.0)
        && rows[1..].iter().all(|r| (4.5..8.0).contains(&r.speedup));
    if !(ordered && ramp && speedups) {
        failures
            .push("Table 2 lost the paper's shape (row order, MME ramp or speedup band)".into());
    }
    (err_max, err_2048)
}

/// Inputs of the TPC-VM kernel cells.
struct VmInputs {
    bmm: (Tensor, Tensor),
    softmax: Tensor,
    elementwise: (Tensor, Tensor),
    /// `q [1, 64, 64]`, `k, v [1, 1024, 64]`: one head over a 1024-token
    /// context.
    attention: (Tensor, Tensor, Tensor),
    /// `x [1, 64, 1024]`, `v [1, 1024, 64]`: the P·V tail of that head.
    softmax_matmul: (Tensor, Tensor),
}

const ATTENTION_SCALE: f32 = 0.125;

pub struct PaperKernels {
    /// Fig. 4-6 single-layer graphs at the §3.3 configuration.
    layers: Vec<(&'static str, Graph)>,
    /// §3.4 GPT prefill b1 s128, decode b8 ctx1024, and BERT-MLM.
    phases: Vec<(&'static str, Graph)>,
    /// Tiny GPT prefill and decode graphs with full-numerics feeds.
    numerics: Vec<(Graph, Feeds)>,
    vm: VmInputs,
    nodes: usize,
}

/// Names what was being built in a graph-construction error.
fn err(what: &'static str) -> impl Fn(gaudi_graph::GraphError) -> String {
    move |e| format!("{what}: {e}")
}

/// Deterministic feeds for every `Input` node of a serving-phase graph:
/// token ids, a causal mask, and Gaussian KV caches.
fn phase_feeds(g: &Graph, vocab: usize, rng: &mut SeededRng, seed: u64) -> Result<Feeds, String> {
    let mut feeds = Feeds::auto(seed);
    for node in g.nodes().iter().filter(|n| matches!(n.kind, OpKind::Input)) {
        let dims = node.shape.dims().to_vec();
        let t = match node.name.as_str() {
            "ids" => {
                let n: usize = dims.iter().product();
                let ids = (0..n).map(|_| {
                    (rng.uniform() * vocab as f32)
                        .floor()
                        .min(vocab as f32 - 1.0)
                });
                Tensor::from_vec(&dims, ids.collect())
            }
            "causal_mask" => {
                let (n, m) = (dims[0], dims[1]);
                let mask =
                    (0..n).flat_map(|i| (0..m).map(move |j| if j <= i { 0.0 } else { -1e9 }));
                Tensor::from_vec(&dims, mask.collect())
            }
            _ => Tensor::randn(&dims, 0.5, rng),
        }
        .map_err(|e| format!("feed '{}': {e}", node.name))?;
        feeds = feeds.with_input(&node.name, t);
    }
    Ok(feeds)
}

impl PaperKernels {
    pub fn setup(seed: u64, tr: &Tracer) -> Result<Self, String> {
        let (built, _) = tr.span("models.build", || -> Result<_, String> {
            let base = TransformerLayerConfig::paper_section_3_3();
            let mut layers = Vec::new();
            for (name, kind) in [
                ("fig4-softmax", AttentionKind::Softmax),
                ("fig5-linear", AttentionKind::Linear),
                (
                    "fig6-performer",
                    AttentionKind::Favor {
                        features: FAVOR_FEATURES,
                    },
                ),
            ] {
                let (g, _) = build_transformer_layer(&base.clone().with_attention(kind))
                    .map_err(err(name))?;
                layers.push((name, g));
            }
            let mut gpt = LlmConfig::paper_section_3_4(50257);
            gpt.training = false;
            let phases = vec![
                (
                    "gpt-prefill",
                    build_prefill(&gpt, 1, 128).map_err(err("gpt prefill"))?.0,
                ),
                (
                    "gpt-decode",
                    build_decode_step(&gpt, 8, 1024)
                        .map_err(err("gpt decode"))?
                        .0,
                ),
                (
                    "bert-mlm",
                    build_bert_mlm(&BertConfig::paper()).map_err(err("bert"))?.0,
                ),
            ];
            let tiny = LlmConfig::tiny(97);
            let mut rng = SeededRng::new(seed);
            let mut numerics = Vec::new();
            for g in [
                build_prefill(&tiny, 2, 32).map_err(err("tiny prefill"))?.0,
                build_decode_step(&tiny, 3, 32)
                    .map_err(err("tiny decode"))?
                    .0,
            ] {
                let feeds = phase_feeds(&g, tiny.vocab, &mut rng, seed)?;
                numerics.push((g, feeds));
            }
            Ok((layers, phases, numerics, rng))
        });
        let (layers, phases, numerics, mut rng) = built?;
        let mut randn = |dims: &[usize], std: f32| {
            Tensor::randn(dims, std, &mut rng).map_err(|e| format!("VM input {dims:?}: {e}"))
        };
        let vm = VmInputs {
            bmm: (randn(&[2, 128, 128], 0.5)?, randn(&[2, 128, 128], 0.5)?),
            softmax: randn(&[256, 512], 1.0)?,
            elementwise: (randn(&[64 * 1024], 1.0)?, randn(&[64 * 1024], 1.0)?),
            attention: (
                randn(&[1, 64, 64], 0.5)?,
                randn(&[1, 1024, 64], 0.5)?,
                randn(&[1, 1024, 64], 0.5)?,
            ),
            softmax_matmul: (randn(&[1, 64, 1024], 1.0)?, randn(&[1, 1024, 64], 0.5)?),
        };
        let nodes = layers
            .iter()
            .chain(&phases)
            .map(|(_, g)| g.len())
            .sum::<usize>()
            + numerics.iter().map(|(g, _)| g.len()).sum::<usize>();
        Ok(PaperKernels {
            layers,
            phases,
            numerics,
            vm,
            nodes,
        })
    }

    /// The TPC-VM cells: cycles per kernel class and the ratio of VM time
    /// to the analytic TPC cost model's time for the same work, each
    /// launch's output checked against a host reference.
    fn vm_cells(&self, tr: &Tracer, acc: &mut Acc) {
        let cfg = TpcConfig::default();
        let model = TpcCostModel::new(cfg.clone());
        let terr = |e: gaudi_tensor::TensorError| e.to_string();

        let (a, b) = &self.vm.bmm;
        let (batch, m, k, n) = (a.dims()[0], a.dims()[1], a.dims()[2], b.dims()[2]);
        let flops = 2.0 * (batch * m * k * n) as f64;
        let launch = acc.call(tr, "tpc.vm", || kernels::bmm_tpc(a, b, &cfg));
        VmCell {
            class: "bmm",
            cycles_key: "tpc.vm_cycles.bmm",
            analytic: Some(("tpc.vm_over_analytic.bmm", model.matmul_time_ns(flops))),
            tol: 1e-3,
        }
        .record(acc, launch, ops::bmm(a, b).map_err(terr));

        let x = &self.vm.softmax;
        let elems = x.numel() as f64;
        let launch = acc.call(tr, "tpc.vm", || kernels::softmax_rows(x, &cfg));
        let analytic = model.class_time_ns(TpcOpClass::Softmax, elems, 8.0 * elems);
        VmCell {
            class: "softmax",
            cycles_key: "tpc.vm_cycles.softmax",
            analytic: Some(("tpc.vm_over_analytic.softmax", analytic)),
            tol: 1e-5,
        }
        .record(acc, launch, ops::softmax_last_axis(x).map_err(terr));

        let (a, b) = &self.vm.elementwise;
        let n = a.numel() as f64;
        let launch = acc.call(tr, "tpc.vm", || kernels::kvec_add(a, b, &cfg));
        let analytic = model.class_time_ns(TpcOpClass::Elementwise(1.0), n, 12.0 * n);
        VmCell {
            class: "elementwise",
            cycles_key: "tpc.vm_cycles.elementwise",
            analytic: Some(("tpc.vm_over_analytic.elementwise", analytic)),
            tol: 1e-6,
        }
        .record(acc, launch, ops::add(a, b).map_err(terr));

        // Analytic twin of the fused kernel on the TPC: both GEMMs at the
        // TPC matmul rate plus a softmax over the score tile that moves
        // only the real operands through global memory.
        let (q, kk, v) = &self.vm.attention;
        let (bq, nq, d) = (q.dims()[0], q.dims()[1], q.dims()[2]);
        let (mk, dv) = (kk.dims()[1], v.dims()[2]);
        let gemm_flops = 2.0 * (bq * nq * d * mk + bq * nq * mk * dv) as f64;
        let io_bytes = 4.0 * (q.numel() + kk.numel() + v.numel() + bq * nq * dv) as f64;
        let analytic = model.matmul_time_ns(gemm_flops)
            + model.class_time_ns(TpcOpClass::Softmax, (bq * nq * mk) as f64, io_bytes);
        let reference = (|| -> Result<Tensor, gaudi_tensor::TensorError> {
            let scores = ops::bmm(q, &kk.transpose_last2()?)?;
            let p = ops::softmax_last_axis(&ops::scalar_mul(&scores, ATTENTION_SCALE))?;
            ops::bmm(&p, v)
        })()
        .map_err(terr);
        let launch = acc.call(tr, "tpc.vm", || {
            kernels::fused_attention_rows(q, kk, v, None, ATTENTION_SCALE, &cfg)
        });
        VmCell {
            class: "fused_attention",
            cycles_key: "tpc.vm_cycles.fused_attention",
            analytic: Some(("tpc.vm_over_analytic.fused_attention", analytic)),
            tol: 1e-5,
        }
        .record(acc, launch, reference);

        // Fused softmax·matmul against the unfused softmax + bmm pipeline
        // it replaces, on the same operands.
        let (x, v) = &self.vm.softmax_matmul;
        let unfused = acc.call(tr, "tpc.vm", || {
            kernels::unfused_softmax_matmul_cycles(x, v, &cfg)
        });
        let reference = match unfused {
            Ok((out, cycles)) => {
                acc.sim.push(cycles);
                acc.it
                    .counters
                    .insert("tpc.vm_cycles.unfused_softmax_matmul", cycles);
                Ok(out)
            }
            Err(e) => Err(e.to_string()),
        };
        let launch = acc.call(tr, "tpc.vm", || {
            kernels::fused_softmax_matmul_rows(x, v, &cfg)
        });
        VmCell {
            class: "fused_softmax_matmul",
            cycles_key: "tpc.vm_cycles.fused_softmax_matmul",
            analytic: None,
            tol: 1e-5,
        }
        .record(acc, launch, reference);
    }
}

/// One TPC-VM launch cell: the kernel class and its counters, the analytic
/// model's time for the same work (if it prices this class), and the
/// tolerance against the host reference.
struct VmCell {
    class: &'static str,
    cycles_key: &'static str,
    /// Where the VM-over-analytic ratio goes, with the analytic time.
    analytic: Option<(&'static str, f64)>,
    tol: f32,
}

impl VmCell {
    fn record(
        &self,
        acc: &mut Acc,
        launch: Result<LaunchResult, LaunchError>,
        reference: Result<Tensor, String>,
    ) {
        let r = match launch {
            Ok(r) => r,
            Err(e) => return acc.fail(format!("{} launch: {e}", self.class)),
        };
        match reference {
            Ok(expect) if r.output.max_abs_diff(&expect) <= self.tol => {}
            Ok(expect) => acc.fail(format!(
                "{}: VM output off the reference by {}",
                self.class,
                r.output.max_abs_diff(&expect)
            )),
            Err(e) => acc.fail(format!("{} reference: {e}", self.class)),
        }
        acc.sim.push(r.critical_cycles);
        acc.it.counters.insert(self.cycles_key, r.critical_cycles);
        if let Some((key, analytic_ns)) = self.analytic {
            acc.it.counters.insert(key, r.time_ns / analytic_ns);
        }
    }
}

/// Accumulates one iteration: its timed host seconds, failures and
/// counters in `it`, and every simulated number, in a fixed order, in
/// `sim` for the cross-iteration digest.
struct Acc {
    it: Iteration,
    sim: Vec<f64>,
}

impl Acc {
    /// Time `f` as one public call into `layer`.
    fn call<T>(&mut self, tr: &Tracer, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = tr.span(layer, f);
        self.it.wall_s += secs;
        out
    }

    fn fail(&mut self, why: String) {
        self.it.failures.push(why);
    }
}

impl PaperKernels {
    fn table2(&self, tr: &Tracer, acc: &mut Acc) {
        let mut failures = Vec::new();
        let (err_max, err_2048) = acc.call(tr, "hw.table2", || table2_check(&mut failures));
        acc.it.failures.extend(failures);
        acc.it.sim.insert("table2_err_max", err_max);
        acc.it.counters.insert("hw.table2_err_2048", err_2048);
        acc.sim.extend([err_max, err_2048]);
    }

    /// Fig. 4-6 layers, unfused (the paper's SynapseAI pipeline) and fused
    /// (the compiler default), through the runtime and the profiler.
    /// Returns the cells that ran.
    fn layer_figures(&self, tr: &Tracer, acc: &mut Acc) -> usize {
        // (makespan ms, MME utilization, longest MME gap ms) per cell.
        let mut fig: BTreeMap<(&str, bool), (f64, f64, f64)> = BTreeMap::new();
        for (name, g) in &self.layers {
            for fused in [false, true] {
                let opts = if fused {
                    CompilerOptions::default()
                } else {
                    paper_options()
                };
                let rt = Runtime::new(GaudiConfig::hls1(), opts);
                let run = acc.call(tr, "runtime.run_shape", || {
                    rt.run(g, &Feeds::auto(0), NumericsMode::ShapeOnly)
                });
                let report = match run {
                    Ok(r) => r,
                    Err(e) => {
                        acc.fail(format!("{name} Runtime::run: {e}"));
                        continue;
                    }
                };
                if report.trace.check_no_overlap().is_some() {
                    acc.fail(format!("{name}: overlapping events on one engine lane"));
                }
                let analysis =
                    acc.call(tr, "profiler.analysis", || TraceAnalysis::of(&report.trace));
                let mme = analysis.engine(EngineId::Mme);
                let util = mme.map_or(0.0, |e| e.utilization);
                let gap_ms = mme
                    .and_then(|e| e.gaps.first())
                    .map_or(0.0, |g| g.dur_ns / 1e6);
                acc.sim.extend([report.makespan_ms, util, gap_ms]);
                fig.insert((name, fused), (report.makespan_ms, util, gap_ms));
            }
        }
        // The fusion pass is surgical: layers without softmax attention
        // come out of it unchanged.
        for name in ["fig5-linear", "fig6-performer"] {
            if let (Some(u), Some(f)) = (fig.get(&(name, false)), fig.get(&(name, true))) {
                if u.0.to_bits() != f.0.to_bits() {
                    acc.fail(format!("{name}: fusion changed a pattern-free layer"));
                }
            }
        }
        let fig4 = fig
            .get(&("fig4-softmax", true))
            .copied()
            .unwrap_or_default();
        let fig4_unfused = fig
            .get(&("fig4-softmax", false))
            .copied()
            .unwrap_or_default();
        let it = &mut acc.it;
        it.sim.insert("sim_makespan_ms", fig4.0);
        it.sim.insert("sim_mme_util", fig4.1);
        it.counters.insert("profiler.mme_idle_frac", 1.0 - fig4.1);
        it.counters
            .insert("profiler.mme_idle_frac_unfused", 1.0 - fig4_unfused.1);
        it.counters.insert("profiler.longest_mme_gap_ms", fig4.2);
        fig.len()
    }

    /// §3.4 phases through the default compiler with its memory plan, then
    /// through the runtime's shape-only simulation. Returns the cells that
    /// ran.
    fn phases(&self, tr: &Tracer, acc: &mut Acc) -> usize {
        let compiler = GraphCompiler::new(GaudiConfig::hls1(), CompilerOptions::default());
        let rt = Runtime::new(GaudiConfig::hls1(), CompilerOptions::default());
        let (mut arena, mut naive) = (0u64, 0u64);
        let mut makespan: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, g) in &self.phases {
            let compiled = acc.call(tr, "compiler.compile", || compiler.compile_with_memplan(g));
            let (cg, plan, mem) = match compiled {
                Ok(c) => c,
                Err(e) => {
                    acc.fail(format!("{name} compile_with_memplan: {e}"));
                    continue;
                }
            };
            let replanned = acc.call(tr, "compiler.memplan", || plan_memory(&cg));
            let footprint =
                |m: &gaudi_compiler::MemoryPlan| (m.arena_bytes, m.naive_bytes, m.peak_bytes);
            if footprint(&replanned) != footprint(&mem) {
                acc.fail(format!("{name}: plan_memory is not deterministic"));
            }
            arena += mem.arena_bytes;
            naive += mem.naive_bytes;
            let run = acc.call(tr, "runtime.run_shape", || {
                rt.run(g, &Feeds::auto(0), NumericsMode::ShapeOnly)
            });
            match run {
                Ok(r) if r.makespan_ms.to_bits() == (plan.makespan_ns / 1e6).to_bits() => {
                    acc.sim.extend([
                        r.makespan_ms,
                        mem.arena_bytes as f64,
                        mem.naive_bytes as f64,
                    ]);
                    makespan.insert(name, r.makespan_ms);
                }
                Ok(r) => acc.fail(format!(
                    "{name}: runtime makespan {} ms differs from the compiled plan's {} ms",
                    r.makespan_ms,
                    plan.makespan_ns / 1e6
                )),
                Err(e) => acc.fail(format!("{name} Runtime::run: {e}")),
            }
            if *name == "gpt-prefill" {
                let fusion = acc.call(tr, "compiler.compile", || fuse_attention(g));
                let in_compiled = cg
                    .nodes()
                    .iter()
                    .filter(|n| matches!(n.kind, OpKind::FusedAttention { .. }))
                    .count();
                match fusion {
                    Ok((_, stats)) if stats.attention == in_compiled && stats.attention > 0 => {
                        acc.it
                            .counters
                            .insert("compiler.fused_attention_sites", stats.attention as f64);
                    }
                    Ok((_, stats)) => acc.fail(format!(
                        "fuse_attention found {} sites, the compiled prefill holds {in_compiled}",
                        stats.attention
                    )),
                    Err(e) => acc.fail(format!("fuse_attention: {e}")),
                }
            }
        }
        let it = &mut acc.it;
        it.counters.insert(
            "compiler.arena_over_naive",
            arena as f64 / naive.max(1) as f64,
        );
        // A single request's view of the §3.4 GPT: TTFT is the b1 s128
        // prefill, one decode step of the b8 ctx1024 batch emits 8 tokens.
        let prefill = makespan.get("gpt-prefill").copied().unwrap_or(0.0);
        let decode = makespan.get("gpt-decode").copied().unwrap_or(0.0);
        it.sim.insert("sim_ttft_p50_ms", prefill);
        it.sim.insert("sim_ttft_p99_ms", prefill);
        it.sim.insert("sim_tpot_p99_ms", decode);
        let goodput = if decode > 0.0 {
            8.0 / (decode / 1e3)
        } else {
            0.0
        };
        it.sim.insert("sim_goodput_tok_s", goodput);
        makespan.len()
    }

    /// Full numerics: fused and unfused compilations of the same tiny GPT
    /// phases must agree exactly.
    fn numerics(&self, tr: &Tracer, acc: &mut Acc) {
        for (g, feeds) in &self.numerics {
            let mut outputs = Vec::new();
            for opts in [paper_options(), CompilerOptions::default()] {
                let rt = Runtime::new(GaudiConfig::hls1(), opts);
                match acc.call(tr, "runtime.run_full", || {
                    rt.run(g, feeds, NumericsMode::Full)
                }) {
                    Ok(r) => outputs.push(r.outputs),
                    Err(e) => acc.fail(format!("full-numerics Runtime::run: {e}")),
                }
            }
            if let [unfused, fused] = outputs.as_slice() {
                let worst = unfused
                    .iter()
                    .zip(fused)
                    .map(|(a, b)| a.max_abs_diff(b))
                    .fold(0.0f32, f32::max);
                if unfused.len() != fused.len() || worst != 0.0 {
                    acc.fail(format!(
                        "fused vs unfused max_abs_diff {worst} (must be 0.0)"
                    ));
                }
            }
        }
    }
}

impl Workload for PaperKernels {
    fn iterate(&self, _pool: &ExecPool, tr: &Tracer) -> Iteration {
        let mut acc = Acc {
            it: Iteration::new(0.0),
            sim: Vec::new(),
        };
        self.table2(tr, &mut acc);
        let ran = self.layer_figures(tr, &mut acc) + self.phases(tr, &mut acc);
        self.vm_cells(tr, &mut acc);
        self.numerics(tr, &mut acc);

        let Acc { mut it, sim } = acc;
        let cells = self.layers.len() * 2 + self.phases.len();
        it.sim
            .insert("sim_completed_frac", ran as f64 / cells as f64);
        it.sim.insert("sim_availability", 1.0);
        it.counters.insert("models.nodes", self.nodes as f64);
        it.digest = fnv1a(sim.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        it.report_digest = it.digest;
        it
    }
}
