//! `cg-2r`: one op is a whole matrix-free CG solve of `(I − λ∇²)x = b`
//! on 2 ranks to `tol = 1e-10` through `cg::solve_distributed`, per-solve
//! pipeline compile included — the API imposes it.
//!
//! All three end-to-end metrics are taken on the solver itself; `setup_s`
//! is the part of a solve that does not depend on the iteration count,
//! `solve_distributed` with `max_iters = 0`.
//!
//! The solver takes no tracer and no right-hand side, so (a) its input is
//! the library's fixed `cg::rhs`, not a seeded field, and (b) the layer
//! numbers are a **model**, not a trace of the solve: the solver's
//! constituent kernels built stand-alone from IR text — the heat apply,
//! `dot`, `norm2` and `axpy` at the rank-local size — run in the solver's
//! order with fixed scalars on two traced rank threads. A change inside
//! `cg` moves `op_ms_p50` and `setup_s` and leaves the model where it
//! was; a tracer parameter on `solve_distributed` would let `Kernels`,
//! `reduce_text` and `traced_ops` go.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stencil_core::cg::{self, CgConfig, CgReport};
use stencil_core::dialects::func;
use stencil_core::dmp;
use stencil_core::exec::Runner;
use stencil_core::interp::SimWorld;
use stencil_core::ir::{print_module, Bounds, FieldType, Module, Type};
use stencil_core::stencil::{ops, samples};
use stencil_core::trace::Tracer;

use super::ranks2::RANKS;
use super::{
    bits_eq, distribute, exec_probes, len_of, new_runner, probe_op_ms, spmd, text_to_pipeline,
};
use crate::harness::{Gate, Metrics, SetupTimes, Workload};
use crate::stats::Digest;

/// One rank's stand-alone kernels and the five CG vectors.
struct Kernels {
    op: Runner,
    dot: Runner,
    norm: Runner,
    axpy: Runner,
    /// x, r, p, ap, scratch.
    v: [Vec<f64>; 5],
}

impl Kernels {
    /// The kernel calls of one CG iteration, in the solver's order: the
    /// operator apply, `p·Ap`, two `axpy` updates, `‖r‖²`, and the
    /// search-direction `axpy`. The scalars are fixed (0.01, 0.5): the
    /// sequence and its data movement are the solver's, the values are
    /// not, and stay bounded.
    fn iteration(&mut self, world: &Arc<SimWorld>, rank: i64) -> Result<(), String> {
        let [x, r, p, ap, s] = [0, 1, 2, 3, 4];
        let v = &mut self.v;
        let step =
            |runner: &mut Runner, v: &mut [Vec<f64>; 5], which: &[usize]| -> Result<(), String> {
                let mut args: Vec<Vec<f64>> =
                    which.iter().map(|&i| std::mem::take(&mut v[i])).collect();
                let result = runner.step_distributed(&mut args, world, rank);
                for (&i, a) in which.iter().zip(args) {
                    v[i] = a;
                }
                result
            };
        step(&mut self.op, v, &[p, ap])?;
        step(&mut self.dot, v, &[p, ap])?;
        for (alpha, a, b) in [(0.01, x, p), (-0.01, r, ap)] {
            self.axpy.set_scalar(0, alpha);
            step(&mut self.axpy, v, &[a, b, s])?;
            v.swap(a, s);
        }
        step(&mut self.norm, v, &[r])?;
        self.axpy.set_scalar(0, 0.5);
        step(&mut self.axpy, v, &[r, p, s])?;
        v.swap(p, s);
        Ok(())
    }
}

/// IR text of one rank's four kernels.
struct RankTexts {
    dot: String,
    norm: String,
    axpy: String,
    /// Local field length and the rank's slab of `cg::rhs`.
    b_local: Vec<f64>,
}

pub struct Cg {
    cfg: CgConfig,
    expected_iterations: Option<usize>,
    /// IR text of the model's kernels.
    op_text: String,
    rank_texts: Vec<RankTexts>,
    /// The sink of the last set-up, for the model run.
    tracer: Tracer,
    last: Option<CgReport>,
}

/// `@name(a[, b]) -> f64`: an exact dot product over `range`, merged
/// across ranks (what `cg`'s private `reduce_module` builds).
fn reduce_text(name: &str, arity: usize, field: &Bounds, range: &Bounds) -> String {
    let mut m = Module::new();
    let fty = Type::Field(FieldType::new(field.clone(), Type::F64));
    let (mut f, args) = func::definition(&mut m.values, name, vec![fty; arity], vec![Type::F64]);
    let mut loaded = Vec::new();
    for &a in &args {
        let ld = ops::load(&mut m.values, a);
        loaded.push(ld.result(0));
        f.region_block_mut(0).ops.push(ld);
    }
    let operands = if arity == 1 { vec![loaded[0], loaded[0]] } else { loaded };
    let rd = ops::reduce(&mut m.values, "dot", operands, range.lower(), range.upper());
    let local = rd.result(0);
    let ar = dmp::ops::allreduce(&mut m.values, local, "sum");
    let out = ar.result(0);
    f.region_block_mut(0).ops.extend([rd, ar, func::ret(vec![out])]);
    m.body_mut().ops.push(f);
    print_module(&m)
}

impl Cg {
    pub fn new(smoke: bool) -> Result<Cg, String> {
        let n: i64 = if smoke { 48 } else { 512 };
        let cfg = CgConfig::new(n);
        let b = cg::rhs(n);
        let ext = (n + 2) as usize;
        let half = n / RANKS as i64;
        let rank_texts = (0..RANKS as i64)
            .map(|r| {
                let core = Bounds::new(vec![(r * half, (r + 1) * half), (0, n)]);
                let field = Bounds::new(core.0.iter().map(|&(lo, hi)| (lo - 1, hi + 1)).collect());
                let rows = (r * half) as usize..((r + 1) * half + 2) as usize;
                RankTexts {
                    dot: reduce_text("dot", 2, &field, &core),
                    norm: reduce_text("norm2", 1, &field, &core),
                    axpy: print_module(&samples::axpy(field, core)),
                    b_local: b[rows.start * ext..rows.end * ext].to_vec(),
                }
            })
            .collect();
        let op_text = print_module(&samples::heat_2d(n, -cfg.lam));
        Ok(Cg {
            cfg,
            // 19 iterations reach 1e-10 at n = 512; a change in that
            // count is a change in the arithmetic, not in speed.
            expected_iterations: (!smoke).then_some(19),
            op_text,
            rank_texts,
            tracer: Tracer::disabled(),
            last: None,
        })
    }

    fn solve_distributed(cfg: &CgConfig) -> Result<CgReport, String> {
        cg::solve_distributed(cfg, "standard-slicing", None, vec![RANKS as i64], true)
            .map_err(|e| e.to_string())
    }

    fn solve(&self) -> Result<CgReport, String> {
        let report = Cg::solve_distributed(&self.cfg)?;
        if !report.converged {
            return Err(format!("no convergence in {} iterations", report.iterations));
        }
        if self.expected_iterations.is_some_and(|want| want != report.iterations) {
            return Err(format!("{} iterations, expected 19", report.iterations));
        }
        Ok(report)
    }

    fn build_kernels(
        &self,
        tracer: &Tracer,
        times: &mut SetupTimes,
    ) -> Result<Vec<Kernels>, String> {
        let mut out = Vec::new();
        for (rank, texts) in self.rank_texts.iter().enumerate() {
            let op = text_to_pipeline(&self.op_text, "heat", distribute(Some(rank), true), times)?;
            if len_of(&op.arg_shapes[0]) != texts.b_local.len() {
                return Err(format!("rank {rank}: local box differs from the operator's"));
            }
            let mut plain = |text: &str, func: &str| -> Result<Runner, String> {
                let p = text_to_pipeline(text, func, |_, _| Ok(()), times)?;
                Ok(new_runner(p, 1, tracer, rank as u32, times))
            };
            let (dot, norm, axpy) = (
                plain(&texts.dot, "dot")?,
                plain(&texts.norm, "norm2")?,
                plain(&texts.axpy, "axpy")?,
            );
            let b = &texts.b_local;
            out.push(Kernels {
                op: new_runner(op, 1, tracer, rank as u32, times),
                dot,
                norm,
                axpy,
                v: [
                    vec![0.0; b.len()],
                    b.clone(),
                    b.clone(),
                    vec![0.0; b.len()],
                    vec![0.0; b.len()],
                ],
            });
        }
        Ok(out)
    }

    /// Runs `iters` kernel-sequence iterations on both rank threads;
    /// returns rank 0's wall-clock.
    fn iterate(
        kernels: &mut [Kernels],
        world: &Arc<SimWorld>,
        iters: usize,
    ) -> Result<Duration, String> {
        spmd(kernels, |rank, k| (0..iters).try_for_each(|_| k.iteration(world, rank as i64)))
    }
}

impl Workload for Cg {
    fn name(&self) -> &'static str {
        "cg-2r"
    }

    fn ranks(&self) -> usize {
        RANKS
    }

    fn points_per_op(&self) -> u64 {
        self.last.as_ref().map_or(0, |r| r.apply_points(self.cfg.n))
    }

    fn ir_texts(&self) -> Vec<&str> {
        let mut texts = vec![self.op_text.as_str()];
        for t in &self.rank_texts {
            texts.extend([t.dot.as_str(), t.norm.as_str(), t.axpy.as_str()]);
        }
        texts
    }

    fn teardown(&mut self) {}

    /// The solver's own set-up, which it repeats inside every solve: with
    /// `max_iters = 0` `solve_distributed` builds each rank's four
    /// pipelines and the world, scatters the right-hand side, spawns the
    /// rank threads, takes the initial residual norm and gathers. It has
    /// no stopwatch of its own; the per-boundary times are the model's.
    fn setup(&mut self, tracer: &Tracer) -> Result<SetupTimes, String> {
        let report = Cg::solve_distributed(&CgConfig { max_iters: 0, ..self.cfg.clone() })?;
        if report.iterations != 0 {
            return Err(format!("{} iterations with max_iters = 0", report.iterations));
        }
        self.tracer = tracer.clone();
        Ok(SetupTimes::default())
    }

    fn reset(&mut self) {}

    fn run(&mut self, ops: usize) -> Result<Duration, String> {
        let t0 = Instant::now();
        for _ in 0..ops {
            self.last = Some(self.solve()?);
        }
        Ok(t0.elapsed())
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        if let Some(r) = &self.last {
            d.f64s(&r.residuals);
            d.f64s(&r.x);
        }
        d.finish()
    }

    fn digest_ops(&self) -> usize {
        1
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::default();
        // The serial solve: one rank, no world, no decomposition.
        match (cg::solve(&self.cfg), self.solve()) {
            (Ok(serial), Ok(dist)) => {
                let mut d = Digest::new();
                d.f64s(&serial.residuals);
                d.f64s(&serial.x);
                gate.reference_digest = d.finish();
                gate.expect(serial.converged && serial.iterations == dist.iterations, || {
                    format!(
                        "cg: serial {} vs 2-rank {} iterations",
                        serial.iterations, dist.iterations
                    )
                });
                gate.expect(bits_eq(&serial.residuals, &dist.residuals), || {
                    "cg: residual trajectory differs from the serial solve".to_string()
                });
                gate.expect(bits_eq(&serial.x, &dist.x), || {
                    "cg: solution differs from the serial solve".to_string()
                });
            }
            (s, d) => gate.expect(false, || {
                format!("cg: solve failed: serial {:?}, 2-rank {:?}", s.err(), d.err())
            }),
        }
        gate
    }

    fn probes(&mut self, op_ms: f64, out: &mut Metrics) -> Result<(), String> {
        let report = self.last.as_ref().ok_or("probes before the first solve")?;
        let iterations = report.iterations as f64;
        out.set("core.cg_iterations", iterations, "count");
        out.set("core.cg_iter_ms", op_ms / iterations, "ms");
        out.set("core.cg_final_residual", *report.residuals.last().unwrap_or(&0.0), "norm");

        // The model: the per-boundary set-up times of its kernels (median
        // of 5 builds) …
        let mut parts = Vec::new();
        let mut kernels = Vec::new();
        for _ in 0..5 {
            let mut times = SetupTimes::default();
            kernels = self.build_kernels(&Tracer::disabled(), &mut times)?;
            parts.push(times);
        }
        SetupTimes::median_of(&parts).report(out);
        // … their tiers (per iteration a rank runs the operator once and
        // axpy three times) …
        exec_probes(kernels.iter().flat_map(|k| [(&k.op.pipeline, 1), (&k.axpy.pipeline, 3)]), out);
        // … and one iteration of them, untraced, on 2 ranks: what the
        // solve would cost per iteration with a free driver.
        let world = SimWorld::new(RANKS);
        let kernel_sum =
            probe_op_ms(0.4, |n| Ok(Cg::iterate(&mut kernels, &world, n)?.as_secs_f64()))?;
        out.set("core.cg_kernel_sum_ms", kernel_sum, "ms");
        out.set(
            "core.cg_driver_overhead_pct",
            100.0 * (op_ms - iterations * kernel_sum) / op_ms,
            "%",
        );
        Ok(())
    }

    fn traced_ops(&mut self) -> Result<Option<f64>, String> {
        let mut kernels = self.build_kernels(&self.tracer, &mut SetupTimes::default())?;
        let world = SimWorld::new_traced(RANKS, Duration::ZERO, self.tracer.clone());
        let iterations = self.last.as_ref().map_or(19, |r| r.iterations);
        Cg::iterate(&mut kernels, &world, 2 * iterations)?;
        Ok(Some(2.0))
    }
}
