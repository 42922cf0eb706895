//! Micro-benchmarks: real measured execution of the stack's code paths on
//! this machine (complementing the figure binaries, which model the
//! paper's machines).
//!
//! Runs under `cargo bench` with the bench instrument of `sten-bench`
//! (the build environment has no crates.io access, so no criterion):
//! every row compares two variants of one code path in alternating
//! bursts ([`paired`]) and reports each side's median burst and the
//! ratio `b / a` with its quartiles.

use std::time::Duration;
use sten_bench::instrument::{paired, time, Ratio};
use sten_bench::{field_args, pw_unfused};
use stencil_core::prelude::*;

const PAIRS: usize = 11;

/// The time per call over a burst of `calls` calls of `f`.
fn burst(calls: u32, mut f: impl FnMut()) -> Duration {
    time(|| (0..calls).for_each(|_| f())) / calls
}

fn report(group: &str, a: &str, b: &str, r: Ratio) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "{group:<14} {a:>12} {:>9.3} ms  {b:>12} {:>9.3} ms  {b} / {a}: {r}",
        ms(r.a),
        ms(r.b)
    );
}

/// A runner of `func` over `module`'s fields, seeded from `f`.
fn runner(
    module: &Module,
    func: &str,
    threads: usize,
    f: fn(i64) -> f64,
) -> (Runner, Vec<Vec<f64>>) {
    let pipeline = compile_pipeline(module, func).unwrap();
    let args = field_args(module, func, f).into_iter().map(|(_, data)| data).collect();
    (Runner::new(pipeline, threads), args)
}

fn step((runner, args): &mut (Runner, Vec<Vec<f64>>)) -> Duration {
    burst(1, || runner.step(args).unwrap())
}

/// One compiled-executor timestep of heat diffusion per space order
/// against space order 2 (the Fig. 7 kernels, measured locally at
/// reduced size).
fn bench_heat_kernels() {
    let heat = |so| {
        let module = problems::heat(&[256, 256], so, 0.5).unwrap().compile().unwrap();
        runner(&module, "step", 1, |i| (i as f64 * 0.01).sin())
    };
    let mut so2 = heat(2);
    for so in [4usize, 6] {
        let mut other = heat(so);
        report(
            "heat2d_step",
            "so2",
            &format!("so{so}"),
            paired(|| step(&mut so2), || step(&mut other), PAIRS),
        );
    }
}

/// 3D wave kernel, threaded executor against serial.
fn bench_wave3d_threads() {
    let module = problems::acoustic_wave(&[64, 64, 64], 4, 1.0).unwrap().compile().unwrap();
    let wave = |threads| runner(&module, "step", threads, |i| (i as f64 * 0.01).cos());
    for threads in [4usize, 8] {
        let (mut serial, mut pool) = (wave(1), wave(threads));
        let r = paired(|| step(&mut pool), || step(&mut serial), PAIRS);
        report("wave3d_step", &format!("{threads}thr"), "1thr", r);
    }
}

/// Compiled executor against the interpreter on the same module.
fn bench_interp_vs_exec() {
    let n = 4096i64;
    let mut m = stencil_core::stencil::samples::jacobi_1d(n);
    stencil_core::stencil::ShapeInference.run(&mut m).unwrap();
    let init: Vec<f64> = (0..n).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut lowered = m.clone();
    stencil_core::stencil::StencilToLoops.run(&mut lowered).unwrap();
    let mut compiled =
        (Runner::new(compile_pipeline(&m, "jacobi").unwrap(), 1), vec![init.clone(); 2]);
    let interpret = || {
        burst(1, || {
            let [src, dst] =
                [0, 1].map(|_| RtValue::Buffer(BufView::from_data(vec![n], init.clone())));
            Interpreter::new(&lowered).call_function("jacobi", vec![src, dst]).unwrap();
        })
    };
    report("jacobi1d", "compiled", "interpreter", paired(|| step(&mut compiled), interpret, PAIRS));
}

/// The shared-stack compilation pipeline: a warm cache against a cold
/// compile, and the distributed target against the shared-memory one.
fn bench_compile_pipeline() {
    let heat = |opts: CompileOptions| {
        burst(10, || {
            drop(compile(stencil_core::stencil::samples::heat_2d(64, 0.1), &opts).unwrap())
        })
    };
    let r = paired(
        || heat(CompileOptions::shared_cpu()),
        || heat(CompileOptions::shared_cpu().with_cache(false)),
        PAIRS,
    );
    report("compile heat2d", "warm", "cold", r);
    let jacobi = |opts: CompileOptions| {
        burst(10, || drop(compile(stencil_core::stencil::samples::jacobi_1d(128), &opts).unwrap()))
    };
    let r = paired(
        || jacobi(CompileOptions::shared_cpu().with_cache(false)),
        || jacobi(CompileOptions::distributed(vec![2]).with_cache(false)),
        PAIRS,
    );
    report("compile jacobi", "shared-cpu", "distributed", r);
}

/// SimMPI halo exchange: one full round between two rank threads, a
/// 4096-element message against a 64-element one.
fn bench_simmpi_halo() {
    let round = |elems: usize| {
        burst(10, || {
            let world = SimWorld::new(2);
            launch(&world, |rank| {
                let (rank, peer) = (rank as i32, 1 - rank as i32);
                world.send(rank, peer, 7, vec![f64::from(rank); elems]);
                world.recv(rank, peer, 7).map_err(|e| e.to_string())
            })
            .unwrap();
        })
    };
    report("simmpi_halo", "64elem", "4096elem", paired(|| round(64), || round(4096), PAIRS));
}

/// PW advection: fused against unfused execution (the §6.2 fusion
/// effect, measured).
fn bench_pw_fusion() {
    let fused = stencil_core::psyclone::kernels::pw_advection(48, 48, 24).unwrap();
    let pw = |module: &Module| runner(module, "pw_advection", 1, |x| (x as f64 * 0.004).sin());
    let (mut fused, mut unfused) = (pw(&fused.module), pw(&pw_unfused(48, 48, 24)));
    report(
        "pw_advection",
        "fused",
        "unfused",
        paired(|| step(&mut fused), || step(&mut unfused), PAIRS),
    );
}

fn main() {
    println!("kernels microbenchmarks (paired bursts, {PAIRS} pairs per row)");
    bench_heat_kernels();
    bench_wave3d_threads();
    bench_interp_vs_exec();
    bench_compile_pipeline();
    bench_simmpi_halo();
    bench_pw_fusion();
}
