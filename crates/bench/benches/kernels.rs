//! Micro-benchmarks: real measured execution of the stack's code paths on
//! this machine (complementing the figure binaries, which model the
//! paper's machines).
//!
//! Runs under `cargo bench` with a minimal self-contained harness (the
//! build environment has no crates.io access, so no criterion): each case
//! is warmed up, then timed over enough iterations to fill ~200 ms, and
//! the mean/min wall time per iteration is reported.

use std::time::{Duration, Instant};
use stencil_core::prelude::*;

/// Times `f`, returning (mean, min) per-iteration durations.
fn measure(mut f: impl FnMut()) -> (Duration, Duration) {
    f(); // warm-up
    let budget = Duration::from_millis(200);
    let probe = Instant::now();
    f();
    let once = probe.elapsed().max(Duration::from_micros(1));
    let iters = (budget.as_secs_f64() / once.as_secs_f64()).clamp(1.0, 1000.0) as u32;
    let mut min = Duration::MAX;
    let total_start = Instant::now();
    for _ in 0..iters {
        let start = Instant::now();
        f();
        min = min.min(start.elapsed());
    }
    (total_start.elapsed() / iters, min)
}

fn report(group: &str, case: &str, elements: Option<u64>, mut f: impl FnMut()) {
    let (mean, min) = measure(&mut f);
    let throughput = elements
        .map(|e| format!("  {:>8.1} Melem/s", e as f64 / mean.as_secs_f64() / 1e6))
        .unwrap_or_default();
    println!(
        "{group:<28} {case:<12} mean {:>10.3} ms  min {:>10.3} ms{throughput}",
        mean.as_secs_f64() * 1e3,
        min.as_secs_f64() * 1e3,
    );
}

/// One compiled-executor timestep of heat diffusion per space order
/// (the Fig. 7 kernels, measured locally at reduced size).
fn bench_heat_kernels() {
    for so in [2usize, 4, 6] {
        let n = 256i64;
        let op = problems::heat(&[n, n], so, 0.5).unwrap();
        let module = op.compile().unwrap();
        let pipeline = compile_pipeline(&module, "step").unwrap();
        let shape = op.field_shape();
        let len: i64 = shape.iter().product();
        let init: Vec<f64> = (0..len).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut runner = Runner::new(pipeline, 1);
        let mut args = vec![init.clone(), init];
        report("heat2d_step", &format!("so{so}"), Some((n * n) as u64), || {
            runner.step(&mut args).unwrap();
        });
    }
}

/// 3D wave kernel, serial vs threaded executor.
fn bench_wave3d_threads() {
    let n = 64i64;
    let op = problems::acoustic_wave(&[n, n, n], 4, 1.0).unwrap();
    let module = op.compile().unwrap();
    let pipeline = compile_pipeline(&module, "step").unwrap();
    let shape = op.field_shape();
    let len: i64 = shape.iter().product();
    let init: Vec<f64> = (0..len).map(|i| (i as f64 * 0.01).cos()).collect();
    for threads in [1usize, 4, 8] {
        let mut runner = Runner::new(pipeline.clone(), threads);
        let mut args = vec![init.clone(), init.clone(), init.clone()];
        report("wave3d_step", &format!("{threads}thr"), Some((n * n * n) as u64), || {
            runner.step(&mut args).unwrap();
        });
    }
}

/// Interpreter versus compiled executor on the same lowered module.
fn bench_interp_vs_exec() {
    let n = 4096i64;
    let mut m = stencil_core::stencil::samples::jacobi_1d(n);
    stencil_core::stencil::ShapeInference.run(&mut m).unwrap();
    let init: Vec<f64> = (0..n).map(|i| (i as f64 * 0.001).sin()).collect();

    let mut lowered = m.clone();
    stencil_core::stencil::StencilToLoops.run(&mut lowered).unwrap();
    report("jacobi1d", "interpreter", Some(n as u64), || {
        let src = BufView::from_data(vec![n], init.clone());
        let dst = BufView::from_data(vec![n], init.clone());
        Interpreter::new(&lowered)
            .call_function("jacobi", vec![RtValue::Buffer(src), RtValue::Buffer(dst)])
            .unwrap();
    });

    let pipeline = compile_pipeline(&m, "jacobi").unwrap();
    let mut runner = Runner::new(pipeline, 1);
    let mut args = vec![init.clone(), init];
    report("jacobi1d", "compiled", Some(n as u64), || {
        runner.step(&mut args).unwrap();
    });
}

/// The full shared-stack compilation pipeline (shape inference through
/// cleanup) — compile-time cost, cold versus warm cache.
fn bench_compile_pipeline() {
    report("compile", "heat2d_cold", None, || {
        let m = stencil_core::stencil::samples::heat_2d(64, 0.1);
        compile(m, &CompileOptions::shared_cpu().with_cache(false)).unwrap();
    });
    report("compile", "heat2d_warm", None, || {
        let m = stencil_core::stencil::samples::heat_2d(64, 0.1);
        compile(m, &CompileOptions::shared_cpu()).unwrap();
    });
    report("compile", "jacobi_dist", None, || {
        let m = stencil_core::stencil::samples::jacobi_1d(128);
        compile(m, &CompileOptions::distributed(vec![2]).with_cache(false)).unwrap();
    });
}

/// SimMPI halo-exchange latency: one full round between two rank threads.
fn bench_simmpi_halo() {
    for elems in [64usize, 4096] {
        report("simmpi_halo", &format!("{elems}elem"), None, || {
            let world = SimWorld::new(2);
            launch(&world, |rank| {
                let (rank, peer) = (rank as i32, 1 - rank as i32);
                world.send(rank, peer, 7, vec![f64::from(rank); elems]);
                world.recv(rank, peer, 7).map_err(|e| e.to_string())
            })
            .unwrap();
        });
    }
}

/// PW advection: fused vs unfused execution (the §6.2 fusion effect,
/// measured).
fn bench_pw_fusion() {
    let fused = stencil_core::psyclone::kernels::pw_advection(48, 48, 24).unwrap();
    let sub =
        stencil_core::psyclone::parse_fortran(stencil_core::psyclone::kernels::PW_ADVECTION_SRC)
            .unwrap();
    let cfg = std::collections::HashMap::from([
        ("nx".to_string(), 48i64),
        ("ny".to_string(), 48i64),
        ("nz".to_string(), 24i64),
    ]);
    let scalars = std::collections::HashMap::from([
        ("tcx".to_string(), 0.1f64),
        ("tcy".to_string(), 0.1f64),
        ("tcz".to_string(), 0.05f64),
    ]);
    let kernel = stencil_core::psyclone::recognize_stencils(&sub, &cfg).unwrap();
    let unfused = stencil_core::psyclone::lower_subroutine(&kernel, &scalars).unwrap();
    for (label, module) in [("fused", &fused.module), ("unfused", &unfused)] {
        let pipeline = compile_pipeline(module, "pw_advection").unwrap();
        let f = module.lookup_symbol("pw_advection").unwrap();
        let fty = stencil_core::dialects::func::FuncOp(f).function_type().clone();
        let init: Vec<Vec<f64>> = fty
            .inputs
            .iter()
            .map(|t| {
                let stencil_core::ir::Type::Field(fld) = t else { panic!() };
                let len: i64 = fld.bounds.shape().iter().product();
                (0..len).map(|x| (x as f64 * 0.004).sin()).collect()
            })
            .collect();
        let mut runner = Runner::new(pipeline, 1);
        let mut args = init;
        report("pw_advection", label, None, || {
            runner.step(&mut args).unwrap();
        });
    }
}

fn main() {
    println!("kernels microbenchmarks (self-contained harness)");
    bench_heat_kernels();
    bench_wave3d_threads();
    bench_interp_vs_exec();
    bench_compile_pipeline();
    bench_simmpi_halo();
    bench_pw_fusion();
}
