//! The seven workloads and the pieces they share: the set-up path from
//! IR text to a runner, the references the gate compares against, and
//! the slab scatter/gather of the 2-rank workloads.

pub mod cg;
pub mod ckpt;
pub mod compile;
pub mod ranks2;
pub mod serial;

use std::sync::Barrier;
use std::time::{Duration, Instant};

use stencil_core::dialects::func::FuncOp;
use stencil_core::dmp::DistributeStencil;
use stencil_core::exec::{self, Pipeline, Runner, Step, TierKind};
use stencil_core::interp::{BufView, Interpreter, RtValue};
use stencil_core::ir::{parse_module, Module, Pass as _, Type};
use stencil_core::stencil::ShapeInference;
use stencil_core::trace::Tracer;

use crate::harness::{Metrics, SetupTimes, Workload};
use crate::stats::Digest;

/// Workload names in report order, each with the reason it is here.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "heat3d-serial",
        "plain 1-thread baseline, out of L2: the op is >=90% exec apply; roofline and time-tiling claims land here",
    ),
    (
        "jacobi1d-pool-2t",
        "same exec layer through the chain<3> template and the 2-worker pool: task hand-off, wake-up and two workers sharing the memory bandwidth",
    ),
    (
        "heat2d-halo-2r",
        "communication-bound: pack, SimMPI send/recv and unpack are most of the op, apply little; bypasses kernel speed-ups",
    ),
    (
        "heat2d-overlap-2r",
        "the paper's mechanism: interior compute hides a 200 us message latency (begin / interior / wait / shells)",
    ),
    (
        "cg-2r",
        "time to a solution of stated accuracy: reductions and bytecode axpy/dot dominate, the JIT apply does not; per-layer numbers are a model (the solver's kernels stand-alone): the API takes no tracer",
    ),
    (
        "jacobi1d-ckpt-2r",
        "third exchange protocol (reliable frames) plus snapshot, store put and digest barrier: writes beside the others' reads",
    ),
    (
        "compile-cold",
        "the shared stack itself: parser, verifier, pass driver, dmp and mpi lowering, exec specialize; nothing runs",
    ),
];

/// Builds a workload by name with inputs generated from `seed`.
pub fn make(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "heat3d-serial" => Box::new(serial::Serial::heat3d(seed, smoke)?),
        "jacobi1d-pool-2t" => Box::new(serial::Serial::jacobi_pool(seed, smoke)),
        "heat2d-halo-2r" => Box::new(ranks2::Ranks2::halo(seed, smoke)),
        "heat2d-overlap-2r" => Box::new(ranks2::Ranks2::overlap(seed, smoke)),
        "cg-2r" => Box::new(cg::Cg::new(smoke)?),
        "jacobi1d-ckpt-2r" => Box::new(ckpt::Ckpt::new(seed, smoke)),
        "compile-cold" => Box::new(compile::CompileCold::new(smoke)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Allocation shapes of the field arguments of `func`.
pub fn field_shapes(module: &Module, func: &str) -> Vec<Vec<i64>> {
    let f = module.lookup_symbol(func).unwrap_or_else(|| panic!("no function '{func}'"));
    FuncOp(f)
        .function_type()
        .inputs
        .iter()
        .filter_map(|ty| match ty {
            Type::Field(fld) => Some(fld.bounds.shape()),
            _ => None,
        })
        .collect()
}

pub fn len_of(shape: &[i64]) -> usize {
    shape.iter().product::<i64>().max(0) as usize
}

/// The set-up path shared by every stencil workload, with a stopwatch at
/// each layer boundary: text → `parse_module` → `ShapeInference` →
/// `lower` (the workload's distribution step, which keeps its own
/// stopwatch) →
/// `exec::compile_module`.
pub fn text_to_pipeline(
    text: &str,
    func: &str,
    lower: impl FnOnce(&mut Module, &mut SetupTimes) -> Result<(), String>,
    times: &mut SetupTimes,
) -> Result<Pipeline, String> {
    let t0 = Instant::now();
    let mut m = parse_module(text).map_err(|e| e.to_string())?;
    times.parse += secs_since(t0);
    let t0 = Instant::now();
    ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
    times.shape_inference += secs_since(t0);
    lower(&mut m, times)?;
    let t0 = Instant::now();
    let p = exec::compile_module(&m, func)?;
    times.exec_compile += secs_since(t0);
    Ok(p)
}

/// The distribution step of a 2-rank set-up, for [`text_to_pipeline`]:
/// `DistributeStencil` over a `[2]` grid — for `rank`, or rank-generic
/// (identical on an even split) for `None` — then shape re-inference.
pub fn distribute(
    rank: Option<usize>,
    overlap: bool,
) -> impl FnOnce(&mut Module, &mut SetupTimes) -> Result<(), String> {
    move |m, times| {
        let t0 = Instant::now();
        let mut pass = DistributeStencil::new(vec![ranks2::RANKS as i64]).with_overlap(overlap);
        if let Some(r) = rank {
            pass = pass.for_rank(r as i64);
        }
        pass.run(m).map_err(|e| e.to_string())?;
        times.distribute += secs_since(t0);
        let t0 = Instant::now();
        ShapeInference.run(m).map_err(|e| e.to_string())?;
        times.shape_inference += secs_since(t0);
        Ok(())
    }
}

/// `Runner::new`, traced when the sink is on (an untraced set-up must
/// not pay the pool re-spawn `with_trace` does).
pub fn new_runner(
    p: Pipeline,
    threads: usize,
    tracer: &Tracer,
    pid: u32,
    times: &mut SetupTimes,
) -> Runner {
    let t0 = Instant::now();
    let mut r = Runner::new(p, threads);
    if tracer.is_enabled() {
        r = r.with_trace(tracer, pid);
    }
    times.runner_new += secs_since(t0);
    r
}

/// `n` serial steps, rotating the time buffers after each; their
/// wall-clock time.
pub fn step_n(runner: &mut Runner, args: &mut [Vec<f64>], n: usize) -> Result<Duration, String> {
    let t0 = Instant::now();
    for _ in 0..n {
        runner.step(args)?;
        args.rotate_left(1);
    }
    Ok(t0.elapsed())
}

/// Runs `body(rank, state)` on one thread per element of `states`, rank
/// 0 on the calling thread. The ranks meet on a barrier first; the
/// returned time is rank 0's, from the barrier to the end of its body.
pub fn spmd<S: Send>(
    states: &mut [S],
    body: impl Fn(usize, &mut S) -> Result<(), String> + Sync,
) -> Result<Duration, String> {
    let barrier = Barrier::new(states.len());
    let (first, rest) = states.split_first_mut().ok_or("no ranks to run")?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, state)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    barrier.wait();
                    body(i + 1, state)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut result = body(0, first);
        let elapsed = t0.elapsed();
        for h in handles {
            let r = h.join().map_err(|_| "rank thread panicked".to_string()).and_then(|r| r);
            result = result.and(r);
        }
        result.map(|()| elapsed)
    })
}

/// Reference for the gate: `steps` ping-pong steps of `func` on one
/// thread through the `eval` tier — no JIT, no pool, no distribution.
pub fn eval_reference(
    text: &str,
    func: &str,
    init: &[Vec<f64>],
    steps: usize,
) -> Result<Vec<Vec<f64>>, String> {
    let mut p = text_to_pipeline(text, func, |_, _| Ok(()), &mut SetupTimes::default())?;
    p.respecialize(Some(TierKind::Eval));
    let mut args = init.to_vec();
    step_n(&mut Runner::new(p, 1), &mut args, steps)?;
    Ok(args)
}

/// Second reference, on a reduced grid: the tree-walking interpreter on
/// the stencil-level module (the semantics every tier is defined by).
pub fn interp_reference(
    module: &Module,
    func: &str,
    init: &[Vec<f64>],
    steps: usize,
) -> Result<Vec<Vec<f64>>, String> {
    let mut module = module.clone();
    ShapeInference.run(&mut module).map_err(|e| e.to_string())?;
    let module = &module;
    let shapes = field_shapes(module, func);
    let mut args = init.to_vec();
    for _ in 0..steps {
        let bufs: Vec<BufView> = args
            .iter()
            .zip(&shapes)
            .map(|(a, s)| BufView::from_data(s.clone(), a.clone()))
            .collect();
        Interpreter::new(module)
            .call_function(func, bufs.iter().cloned().map(RtValue::Buffer).collect())
            .map_err(|e| e.to_string())?;
        args = bufs.iter().map(BufView::to_vec).collect();
        args.rotate_left(1);
    }
    Ok(args)
}

/// A side measurement for probes (not the timed pass): median ms per op
/// over about `secs` of ~30 ms batches. `run(ops)` restores the seeded
/// state, runs `ops` ops and returns their seconds.
pub fn probe_op_ms(
    secs: f64,
    mut run: impl FnMut(usize) -> Result<f64, String>,
) -> Result<f64, String> {
    let per_op = (run(3)? / 3.0).max(1e-9);
    let ops = ((0.030 / per_op).round() as usize).max(1);
    let started = Instant::now();
    let mut samples = Vec::new();
    while secs_since(started) < secs {
        samples.push(run(ops)? * 1e3 / ops as f64);
    }
    Ok(crate::stats::median(&samples))
}

pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn digest_f64s(values: &[f64]) -> u64 {
    let mut d = Digest::new();
    d.f64s(values);
    d.finish()
}

/// Geometry of an even slab decomposition of dimension 0 over `ranks`:
/// a global buffer of `core + 2` rows of `row` elements (1-cell halo),
/// each rank holding `core / ranks + 2` consecutive rows.
#[derive(Clone, Copy)]
pub struct Slabs {
    pub ranks: usize,
    pub core: usize,
    pub row: usize,
}

impl Slabs {
    pub fn local_rows(&self) -> usize {
        self.core / self.ranks + 2
    }

    /// Rank `rank`'s local view of `global`, halo rows included.
    pub fn scatter<'a>(&self, global: &'a [f64], rank: usize) -> &'a [f64] {
        let start = rank * (self.core / self.ranks) * self.row;
        &global[start..start + self.local_rows() * self.row]
    }

    /// Writes rank `rank`'s owned rows of `local` into `global`.
    pub fn gather(&self, global: &mut [f64], rank: usize, local: &[f64]) {
        let owned = self.core / self.ranks * self.row;
        let start = (rank * (self.core / self.ranks) + 1) * self.row;
        global[start..start + owned].copy_from_slice(&local[self.row..self.row + owned]);
    }
}

/// The set-up side of the `exec` layer, from the pipelines a workload
/// built (each with how often an op runs it): apply-step count, the
/// share of them on template-JIT, computed bytes per point — one 8-byte
/// read per input buffer and one write per output, neighbours assumed
/// cached — and the time to re-specialize the first pipeline.
pub fn exec_probes<'a>(
    pipelines: impl IntoIterator<Item = (&'a Pipeline, u64)>,
    out: &mut Metrics,
) {
    let (mut applies, mut jit, mut points, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut first = None;
    for (p, calls) in pipelines {
        first.get_or_insert(p);
        for step in &p.steps {
            if let Step::Apply { kernel, inputs, outputs, region } = step {
                applies += 1;
                jit += u64::from(kernel.tier_kind() == TierKind::TemplateJit);
                let pts = calls * region.points(&kernel.range).max(0) as u64;
                points += pts;
                bytes += 8 * (inputs.len() + outputs.len()) as u64 * pts;
            }
        }
    }
    out.set("exec.kernels", applies as f64, "count");
    out.set("exec.top_tier_share", jit as f64 / applies.max(1) as f64, "ratio");
    out.set("exec.bytes_per_point_computed", bytes as f64 / points.max(1) as f64, "B");
    if let Some(p) = first {
        let mut p = p.clone();
        let t0 = Instant::now();
        p.respecialize(None);
        out.set("exec.respecialize_ms", secs_since(t0) * 1e3, "ms");
    }
}
