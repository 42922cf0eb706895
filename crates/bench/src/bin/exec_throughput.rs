//! `exec_throughput` — wall-clock Gpts/s of the sten-exec executor tiers.
//!
//! Measures jacobi-1d / heat-2d / heat-3d and CG's `axpy` (a runtime
//! scalar coefficient, set before every step) on both executor tiers
//! (`eval` → `template-jit`) and through the persistent worker pool,
//! each comparison as alternating paired bursts
//! ([`sten_bench::instrument`]), and writes `BENCH_exec.json` plus a
//! Chrome trace of one short pool run per kernel beside it.
//!
//! ```text
//! cargo run --release -p sten-bench --bin exec_throughput            # full
//! cargo run --release -p sten-bench --bin exec_throughput -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks the grids and the bursts; its numbers are *not*
//! meaningful throughput. Before any timing, every tier's output is
//! compared bit-for-bit with the `eval` reference, serially and on the
//! pool. Gates: template-JIT over `eval` (the fast path against the
//! fallback it would otherwise land on) ≥ 7.5× on every kernel — in smoke
//! runs ≥ 3× in up to 3 attempts, since tiny grids are dominated by
//! per-row dispatch.

use std::time::Duration;
use sten_bench::instrument::{paired, time, write_trace, Args, Gate, Report};
use sten_bench::obj;
use stencil_core::exec::{Pipeline, Runner, TierKind};
use stencil_core::ir::Pass as _;
use stencil_core::prelude::*;

/// The kernels: `(name, function, module)`.
fn cases(smoke: bool) -> [(&'static str, &'static str, Module); 4] {
    let mut jacobi = stencil_core::stencil::samples::jacobi_1d(if smoke { 4096 } else { 1 << 21 });
    let mut heat2d = stencil_core::stencil::samples::heat_2d(if smoke { 48 } else { 1024 }, 0.1);
    stencil_core::stencil::ShapeInference.run(&mut jacobi).unwrap();
    stencil_core::stencil::ShapeInference.run(&mut heat2d).unwrap();
    // 3D heat comes through the Devito frontend (no 3D hand-built
    // sample): `step` updates u(t+1) from u(t) with a 7-point star.
    let n3 = if smoke { 12 } else { 64 };
    let heat3d = stencil_core::devito::problems::heat(&[n3, n3, n3], 2, 0.5)
        .expect("heat-3d operator")
        .compile()
        .expect("heat-3d compiles");
    // The scalar lane: `out = a + α·b`, α a function argument.
    let na = if smoke { 64 } else { 1024 };
    let field = Bounds::new(vec![(0, na), (0, na)]);
    let mut axpy = stencil_core::stencil::samples::axpy(field.clone(), field);
    stencil_core::stencil::ShapeInference.run(&mut axpy).unwrap();
    [
        ("jacobi-1d", "jacobi", jacobi),
        ("heat-2d", "heat", heat2d),
        ("heat-3d", "step", heat3d),
        ("axpy", "axpy", axpy),
    ]
}

/// One runner over freshly seeded arguments, so every variant sees the
/// same data.
struct Bench {
    runner: Runner,
    args: Vec<Vec<f64>>,
    stepped: usize,
    burst: usize,
}

impl Bench {
    fn new(pipeline: &Pipeline, tier: Option<TierKind>, threads: usize) -> Bench {
        let mut p = pipeline.clone();
        p.respecialize(tier);
        let args = p
            .arg_shapes
            .iter()
            .map(|s| {
                (0..s.iter().product::<i64>().max(0)).map(|i| (i as f64 * 0.001).sin()).collect()
            })
            .collect();
        Bench { runner: Runner::new(p, threads), args, stepped: 0, burst: 0 }
    }

    fn traced(mut self, tracer: &Tracer, pid: u32) -> Bench {
        self.runner = self.runner.with_trace(tracer, pid);
        self
    }

    /// One timestep, every runtime scalar argument set first — to a
    /// value that differs from the previous step's, as a solver's α does.
    fn step(&mut self) {
        for k in 0..self.runner.pipeline.scalar_inputs.len() {
            self.runner.set_scalar(k, 0.25 + 0.125 * ((self.stepped + k) % 5) as f64);
        }
        self.runner.step(&mut self.args).expect("step");
        self.stepped += 1;
    }

    /// The time per step over one burst. The first call (the paired
    /// warm-up) sizes the burst to about `budget`.
    fn burst(&mut self, budget: Duration) -> Duration {
        if self.burst == 0 {
            let one = time(|| self.step()).as_secs_f64().max(1e-9);
            self.burst = (budget.as_secs_f64() / one).ceil().clamp(1.0, 1000.0) as usize;
        }
        let burst = self.burst;
        time(|| (0..burst).for_each(|_| self.step())) / burst as u32
    }
}

/// Asserts every non-eval tier leaves bit-for-bit the buffers the `eval`
/// reference leaves after three steps, serially and on the pool.
fn check_bit_identity(pipeline: &Pipeline, threads: usize, kernel: &str) {
    let bits = |tier, threads| {
        let mut b = Bench::new(pipeline, Some(tier), threads);
        (0..3).for_each(|_| b.step());
        b.args.iter().map(|a| a.iter().map(|x| x.to_bits()).collect()).collect::<Vec<Vec<_>>>()
    };
    let reference = bits(TierKind::Eval, 1);
    for &tier in &TierKind::ALL[1..] {
        for thr in [1, threads] {
            let got = bits(tier, thr);
            let at = reference.iter().zip(&got).enumerate().find_map(|(b, (r, g))| {
                (r != g).then(|| (b, r.iter().zip(g).position(|(x, y)| x != y)))
            });
            assert!(
                reference.len() == got.len() && at.is_none(),
                "{kernel}: tier {} (threads={thr}) diverged from eval at (buffer, index) {at:?}",
                tier.name()
            );
        }
    }
}

fn main() {
    let args = Args::parse("BENCH_exec.json", Some(0));
    // Floor at 2 so the worker-pool path is exercised even on
    // single-CPU CI boxes (oversubscribed, but correctness-relevant).
    let threads = match args.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()).max(2),
        n => n,
    };
    let (pairs, budget) =
        if args.smoke { (5, Duration::from_millis(1)) } else { (15, Duration::from_millis(20)) };
    let jit_gate = |name: &str| match args.smoke {
        true => Gate::floor(format!("template-jit over eval, {name}"), 3.0).attempts(3),
        false => Gate::floor(format!("template-jit over eval, {name}"), 7.5),
    };
    let mut report = Report::new(&args);
    let mut traces = Vec::new();
    for (name, func, module) in cases(args.smoke) {
        let pipeline = compile_pipeline(&module, func).expect("pipeline compiles");
        check_bit_identity(&pipeline, threads, name);
        let mut eval = Bench::new(&pipeline, Some(TierKind::Eval), 1);
        let mut jit = Bench::new(&pipeline, Some(TierKind::TemplateJit), 1);
        let mut pool = Bench::new(&pipeline, None, threads);
        let jit_vs_eval = report
            .gate(&jit_gate(name), || paired(|| jit.burst(budget), || eval.burst(budget), pairs));
        let pool_vs_serial = paired(|| pool.burst(budget), || jit.burst(budget), pairs);
        let gpts = |step: Duration| pipeline.points_per_step() as f64 / step.as_secs_f64() / 1e9;
        report.case(obj! {
            "name": name, "func": func, "grid": pipeline.arg_shapes[0].clone(),
            "points_per_step": pipeline.points_per_step(), "bit_identical": true,
            "eval_gpts_per_s": gpts(jit_vs_eval.b), "jit_gpts_per_s": gpts(jit_vs_eval.a),
            "pool_threads": pool.runner.effective_threads(),
            "pool_gpts_per_s": gpts(pool_vs_serial.a),
            "jit_vs_eval": jit_vs_eval, "pool_vs_serial": pool_vs_serial,
        });

        // A short traced pool run per kernel feeds the trace artifact
        // (worker lanes as sub-tracks).
        let tracer = Tracer::new();
        let mut traced = Bench::new(&pipeline, None, threads.min(4)).traced(&tracer, 0);
        (0..2).for_each(|_| traced.step());
        traces.push((name.to_string(), tracer.events()));
    }
    write_trace(&args.out, &traces);
    report.write(&args.out);
}
