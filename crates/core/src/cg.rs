//! Matrix-free conjugate gradients on the shared stack — the first
//! *implicit* workload (ROADMAP "implicit solvers").
//!
//! Solves `A x = b` for the 2D implicit-Euler heat operator
//! `A = I − λ∇²` (SPD for `λ > 0`) without ever materialising a matrix.
//! The whole iteration is one stencil function, [`samples::cg`]'s
//! `@cg_iter`: the operator apply (`ap = A·p`), the global reductions
//! `p·Ap` and `‖r‖²`, α and β, and the three vector updates. A solve
//! compiles it once — through `distribute-stencil` first when
//! distributed, which inserts the halo exchange and every allreduce —
//! and steps it once per iteration on one runner per rank; α and β run
//! as `Step::Scalar`s inside the step. The host only sets `rsold`,
//! rotates the five field roles and checks `(p·Ap, ‖r‖²)` for
//! convergence and breakdown. A distributed solve runs its ranks on the
//! SPMD launcher ([`sten_interp::spmd`]): a rank that fails or panics
//! poisons the world, so its peers stop instead of hanging, and the
//! solve reports that rank's error.
//!
//! Determinism guarantee: dot products are folded through the exact
//! superaccumulator ([`sten_interp::ReduceAcc`]), so every reduction is
//! bit-identical across worker-thread counts, rank counts, and
//! decomposition strategies. α and β are therefore identical on every
//! rank with no broadcast, and the whole residual trajectory of a
//! distributed solve matches the serial reference bit for bit — the
//! property [`solve_distributed`] asserts on every run.

use std::sync::Arc;

use sten_dmp::{make_strategy, DistributeStencil};
use sten_exec::specialize::TierKind;
use sten_exec::{compile_module_tiered, Pipeline, Runner};
use sten_interp::{launch_with, Layout, RankBox, RankPanic, SimWorld};
use sten_ir::{Bounds, Module, Pass as _};
use sten_stencil::{samples, ShapeInference};
use sten_trace::Tracer;

/// A CG solve that failed *gracefully*: every variant carries the
/// residual trajectory walked so far, so a caller can inspect how the
/// solve degraded (diverged, flat-lined, lost positive-definiteness)
/// instead of facing a panic or an iteration loop that never ends.
#[derive(Clone, Debug, PartialEq)]
pub enum CgError {
    /// A residual or curvature term became NaN/∞ — the iteration can
    /// only produce garbage from here.
    NonFiniteResidual {
        /// Iteration at which the non-finite value appeared.
        iteration: usize,
        /// `‖r_k‖` for k = 0 through the failure.
        residuals: Vec<f64>,
    },
    /// The residual stopped improving long before `tol`: no progress in
    /// `window` consecutive iterations.
    Stagnation {
        /// Iterations completed when stagnation was diagnosed.
        iteration: usize,
        /// The best residual reached.
        best: f64,
        /// The no-progress window that triggered the diagnosis.
        window: usize,
        /// `‖r_k‖` for k = 0 through the failure.
        residuals: Vec<f64>,
    },
    /// `p·Ap ≤ 0` with a residual still above `tol`: the operator is not
    /// positive-definite on this subspace (or precision is exhausted).
    Breakdown {
        /// Iteration at which the curvature failed.
        iteration: usize,
        /// The offending `p·Ap` value.
        pap: f64,
        /// `‖r_k‖` for k = 0 through the failure.
        residuals: Vec<f64>,
    },
    /// The execution substrate failed (compilation, communication,
    /// shape errors) before the iteration could degrade numerically.
    Exec(String),
    /// A rank's thread panicked (reported by the SPMD launcher).
    Panicked(RankPanic),
}

impl std::fmt::Display for CgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CgError::NonFiniteResidual { iteration, residuals } => write!(
                f,
                "CG produced a non-finite residual at iteration {iteration} (last finite \
                 ‖r‖ = {:?})",
                residuals.last()
            ),
            CgError::Stagnation { iteration, best, window, .. } => write!(
                f,
                "CG stagnated at iteration {iteration}: no progress below ‖r‖ = {best:e} \
                 for {window} consecutive iterations"
            ),
            CgError::Breakdown { iteration, pap, .. } => {
                write!(f, "CG broke down at iteration {iteration}: p·Ap = {pap:e} is not positive")
            }
            CgError::Exec(msg) => f.write_str(msg),
            CgError::Panicked(p) => write!(f, "{p}"),
        }
    }
}

impl std::error::Error for CgError {}

impl From<RankPanic> for CgError {
    fn from(p: RankPanic) -> CgError {
        CgError::Panicked(p)
    }
}

impl From<String> for CgError {
    fn from(msg: String) -> CgError {
        CgError::Exec(msg)
    }
}

impl CgError {
    /// The residual trajectory walked before the failure (empty for
    /// substrate errors).
    pub fn residuals(&self) -> &[f64] {
        match self {
            CgError::NonFiniteResidual { residuals, .. }
            | CgError::Stagnation { residuals, .. }
            | CgError::Breakdown { residuals, .. } => residuals,
            CgError::Exec(_) | CgError::Panicked(_) => &[],
        }
    }
}

/// Problem and solver parameters for [`solve`] / [`solve_distributed`].
#[derive(Clone, Debug)]
pub struct CgConfig {
    /// Interior points per dimension (fields span `[-1, n+1)²`).
    pub n: i64,
    /// Diffusion coefficient λ of `A = I − λ∇²`.
    pub lam: f64,
    /// Convergence threshold on `‖r‖` (the 2-norm of the residual).
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Worker threads per rank (1 = serial in-thread execution).
    pub threads: usize,
    /// Executor tier pin (`None` = auto specialization).
    pub tier: Option<TierKind>,
    /// Where every runner (and the world) of the solve records its
    /// spans, rank `r` on process track `r`; disabled by default.
    pub tracer: Tracer,
}

impl CgConfig {
    /// Defaults tuned for tests and smoke runs: λ = 0.25, tol = 1e-10.
    pub fn new(n: i64) -> CgConfig {
        CgConfig {
            n,
            lam: 0.25,
            tol: 1e-10,
            max_iters: 200,
            threads: 1,
            tier: None,
            tracer: Tracer::disabled(),
        }
    }
}

/// Outcome of a CG solve.
#[derive(Clone, Debug)]
pub struct CgReport {
    /// `‖r_k‖` for k = 0 (initial) through the last iteration.
    pub residuals: Vec<f64>,
    /// Whether `‖r‖ < tol` was reached within `max_iters`.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
    /// The solution on the global field `[-1, n+1)²`, row-major
    /// (boundary ring included, held at zero).
    pub x: Vec<f64>,
}

impl CgReport {
    /// Stencil points swept by the operator applies (`n² ·
    /// iterations`) — the numerator of the conventional Gpts/s metric.
    pub fn apply_points(&self, n: i64) -> u64 {
        (n * n) as u64 * self.iterations as u64
    }
}

/// The deterministic right-hand side used by both entry points: a
/// smooth product of sinusoids over the interior, zero on the boundary
/// ring (homogeneous Dirichlet).
pub fn rhs(n: i64) -> Vec<f64> {
    let ext = (n + 2) as usize;
    let mut b = vec![0.0; ext * ext];
    for i in 0..n {
        for j in 0..n {
            let v = ((i as f64 + 1.0) * 0.17).sin() * ((j as f64 + 1.0) * 0.23).cos();
            b[(i + 1) as usize * ext + (j + 1) as usize] = v;
        }
    }
    b
}

/// The two pipelines one rank of a solve steps, compiled from
/// [`samples::cg`] over the box the rank stores.
pub struct SolverPipelines {
    /// `@cg_norm`: the initial `‖r‖²` over the owned core (allreduced
    /// when distributed).
    pub norm2: Pipeline,
    /// `@cg_iter`: one whole iteration — `ap = A·p` (with the halo
    /// exchange when distributed), `p·Ap` and `‖r‖²` (allreduced when
    /// distributed), α and β as scalar steps, and the three updates.
    pub iteration: Pipeline,
    /// The rank's owned core and the box it stores (the core plus the
    /// 1-cell halo/boundary ring the operator reads), in global
    /// coordinates.
    pub rank_box: RankBox,
}

impl SolverPipelines {
    /// The pipelines, in the order a solve first steps them.
    pub fn all(&self) -> [&Pipeline; 2] {
        [&self.norm2, &self.iteration]
    }

    /// Shape-infers `m` — the global module, or one rank's distributed
    /// module — and compiles both functions. The stored box is the
    /// fields' type, which distribution rewrote to the rank's box.
    fn compile(mut m: Module, tier: Option<TierKind>) -> Result<SolverPipelines, CgError> {
        ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
        Ok(SolverPipelines {
            norm2: compile_module_tiered(&m, "cg_norm", tier)?,
            iteration: compile_module_tiered(&m, "cg_iter", tier)?,
            rank_box: RankBox::of(&m, "cg_iter")?,
        })
    }

    /// The pipelines of the serial reference solve: one rank owning the
    /// whole domain.
    ///
    /// # Errors
    /// Compilation/shape failures surface as [`CgError::Exec`].
    pub fn serial(cfg: &CgConfig) -> Result<SolverPipelines, CgError> {
        SolverPipelines::compile(samples::cg(cfg.n, cfg.lam), cfg.tier)
    }

    /// The pipelines of `rank` in a distributed solve over `grid`: the
    /// global module through `distribute-stencil` for that rank
    /// (`DistributeStencil::for_rank`, so uneven decompositions work),
    /// which localizes every reduction and inserts its allreduce.
    ///
    /// # Errors
    /// Compilation/shape failures surface as [`CgError::Exec`].
    pub fn for_rank(
        cfg: &CgConfig,
        strategy: &str,
        factors: Option<Vec<i64>>,
        grid: &[i64],
        overlap: bool,
        rank: i64,
    ) -> Result<SolverPipelines, CgError> {
        let mut m = samples::cg(cfg.n, cfg.lam);
        ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
        DistributeStencil::with_strategy(grid.to_vec(), make_strategy(strategy, factors)?)
            .for_rank(rank)
            .with_overlap(overlap)
            .run(&mut m)
            .map_err(|e| e.to_string())?;
        SolverPipelines::compile(m, cfg.tier)
    }
}

/// Iterations without any residual improvement before the solve is
/// diagnosed as stagnated (well above CG's usual oscillation span, well
/// below a runaway loop).
const STAGNATION_WINDOW: usize = 50;

/// Watches the residual trajectory for a flat-line: `observe` returns
/// `true` when `window` consecutive residuals failed to improve on the
/// best seen — the no-progress signal [`CgError::Stagnation`] reports.
/// (On this stack's exact-reduction CG the recurrence residual descends
/// monotonically to literal zero, so the detector guards against
/// *future* operators and preconditioners, and is exercised directly by
/// unit tests.)
struct StagnationTracker {
    best: f64,
    since_best: usize,
    window: usize,
}

impl StagnationTracker {
    fn new(initial: f64, window: usize) -> StagnationTracker {
        StagnationTracker { best: initial, since_best: 0, window }
    }

    fn observe(&mut self, residual: f64) -> bool {
        if residual < self.best {
            self.best = residual;
            self.since_best = 0;
        } else {
            self.since_best += 1;
        }
        self.since_best >= self.window
    }
}

/// One rank's CG solve: `@cg_norm` once, then `@cg_iter` once per
/// iteration on one runner, α and β computed inside the step on every
/// rank — safe because the reductions they derive from are
/// bit-identical everywhere.
///
/// Degrades gracefully instead of looping or panicking: a NaN/∞
/// residual, a non-positive curvature `p·Ap`, or a residual that stops
/// improving for [`STAGNATION_WINDOW`] iterations each surface as the
/// matching [`CgError`], carrying the trajectory walked so far.
fn cg_iterate(
    pipelines: SolverPipelines,
    b: Vec<f64>,
    cfg: &CgConfig,
    world: Option<(&Arc<SimWorld>, i64)>,
) -> Result<(Vec<f64>, Vec<f64>, bool, usize), CgError> {
    let pid = world.map_or(0, |(_, rank)| rank as u32);
    let runner = |p: Pipeline| Runner::new(p, cfg.threads).with_trace(&cfg.tracer, pid);
    let (mut norm2, mut iteration) = (runner(pipelines.norm2), runner(pipelines.iteration));
    let step = |runner: &mut Runner, args: &mut [Vec<f64>]| -> Result<Vec<f64>, String> {
        match world {
            Some((w, rank)) => runner.step_distributed(args, w, rank)?,
            None => runner.step(args)?,
        }
        Ok(runner.scalar_outputs())
    };
    let len = b.len();
    // @cg_iter's fields by role: x, r, p, ap, s.
    let mut v = [vec![0.0; len], b.clone(), b, vec![0.0; len], vec![0.0; len]];

    let mut rsold = step(&mut norm2, &mut v[1..2])?[0];
    if !rsold.is_finite() {
        return Err(CgError::NonFiniteResidual { iteration: 0, residuals: vec![] });
    }
    let mut residuals = vec![rsold.sqrt()];
    let mut converged = rsold.sqrt() < cfg.tol;
    let mut iters = 0;
    let mut tracker = StagnationTracker::new(rsold.sqrt(), STAGNATION_WINDOW);
    while !converged && iters < cfg.max_iters {
        iteration.set_scalar(0, rsold);
        let out = step(&mut iteration, &mut v)?;
        // The step left the new x in s, the new r in x and the new p
        // in r; old p becomes the next step's scratch.
        let [x, r, p, ap, s] = v;
        v = [s, x, r, ap, p];
        let (pap, rsnew) = (out[0], out[1]);
        if !pap.is_finite() {
            return Err(CgError::NonFiniteResidual { iteration: iters, residuals });
        }
        if pap <= 0.0 {
            // The residual is still above tol (the loop guard), yet the
            // search direction has no positive curvature: A is not SPD
            // on this subspace, or precision is exhausted.
            return Err(CgError::Breakdown { iteration: iters, pap, residuals });
        }
        iters += 1;
        if !rsnew.is_finite() {
            return Err(CgError::NonFiniteResidual { iteration: iters, residuals });
        }
        residuals.push(rsnew.sqrt());
        if rsnew.sqrt() < cfg.tol {
            converged = true;
            break;
        }
        if tracker.observe(rsnew.sqrt()) {
            return Err(CgError::Stagnation {
                iteration: iters,
                best: tracker.best,
                window: tracker.window,
                residuals,
            });
        }
        rsold = rsnew;
    }
    let [x, ..] = v;
    Ok((x, residuals, converged, iters))
}

/// Serial reference solve: one rank owning the whole domain, no world.
///
/// # Errors
/// Compilation/shape failures surface as [`CgError::Exec`]; numerical
/// degradation as the matching typed variant with its residual
/// trajectory.
pub fn solve(cfg: &CgConfig) -> Result<CgReport, CgError> {
    let (x, residuals, converged, iterations) =
        cg_iterate(SolverPipelines::serial(cfg)?, rhs(cfg.n), cfg, None)?;
    Ok(CgReport { residuals, converged, iterations, x })
}

/// A distributed solve over `grid.iter().product()` simulated ranks.
///
/// Each rank gets its own locally-shaped pipelines
/// (`DistributeStencil::for_rank`, so uneven decompositions work), the
/// operator apply exchanges halos through [`SimWorld`], and every dot
/// product merges exact partial accumulators across ranks. The ranks run
/// on the [`launch_with`] launcher, and the rank boxes the pipelines were
/// compiled for ([`Layout`]) scatter `b` and gather `x`. The returned
/// report's residual trajectory is asserted bit-identical across ranks;
/// callers compare it against [`solve`] for the full determinism check.
///
/// # Errors
/// As [`solve`], reported by the rank that failed first: its failure
/// poisons the world, so no peer waits on it. A panicking rank is
/// [`CgError::Panicked`], naming the rank and its message.
pub fn solve_distributed(
    cfg: &CgConfig,
    strategy: &str,
    factors: Option<Vec<i64>>,
    grid: Vec<i64>,
    overlap: bool,
) -> Result<CgReport, CgError> {
    let ranks = grid.iter().product::<i64>();
    if ranks < 1 {
        return Err(CgError::Exec("rank grid must be non-empty".into()));
    }

    // Per-rank setup (done up front so compile errors surface before
    // any rank starts).
    let setups = (0..ranks)
        .map(|rank| SolverPipelines::for_rank(cfg, strategy, factors.clone(), &grid, overlap, rank))
        .collect::<Result<Vec<_>, _>>()?;
    let global = Bounds::new(vec![(-1, cfg.n + 1); 2]);
    let layout = Layout { global, ranks: setups.iter().map(|p| p.rank_box.clone()).collect() };
    // Each rank's view of b, halo included: the neighbouring values are
    // what an exchange would deliver.
    let b_local = layout.scatter(&rhs(cfg.n));

    let world = SimWorld::new_traced(ranks as usize, std::time::Duration::ZERO, cfg.tracer.clone());
    let results = launch_with(&world, setups.into_iter().zip(b_local), |rank, (pipelines, b)| {
        cg_iterate(pipelines, b, cfg, Some((&world, rank as i64)))
    })?;

    // Every rank must have walked the same trajectory, bit for bit.
    let (_, ref residuals0, converged, iterations) = results[0];
    for (rank, (_, res, ..)) in results.iter().enumerate().skip(1) {
        let same = res.len() == residuals0.len()
            && res.iter().zip(residuals0).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(CgError::Exec(format!(
                "rank {rank} residual trajectory diverged from rank 0 — determinism bug"
            )));
        }
    }
    let residuals = residuals0.clone();
    let xs: Vec<Vec<f64>> = results.into_iter().map(|(x, ..)| x).collect();
    let mut x = vec![0.0; layout.global.num_points() as usize];
    layout.gather_into(&xs, &mut x);
    Ok(CgReport { residuals, converged, iterations, x })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_cg_converges_on_heat_operator() {
        let cfg = CgConfig::new(24);
        let report = solve(&cfg).unwrap();
        assert!(report.converged, "residuals: {:?}", report.residuals);
        assert!(report.iterations > 2, "A = I − λ∇² should not converge instantly");
        assert!(report.residuals.last().unwrap() < &cfg.tol);
        // The solution actually solves the system: ‖b − A x‖ small.
        let n = cfg.n;
        let ext = (n + 2) as usize;
        let b = rhs(n);
        let mut worst: f64 = 0.0;
        for i in 1..=n as usize {
            for j in 1..=n as usize {
                let c = report.x[i * ext + j];
                let nb = report.x[(i - 1) * ext + j]
                    + report.x[(i + 1) * ext + j]
                    + report.x[i * ext + j - 1]
                    + report.x[i * ext + j + 1];
                let ax = c - cfg.lam * (nb - 4.0 * c);
                worst = worst.max((b[i * ext + j] - ax).abs());
            }
        }
        assert!(worst < 1e-9, "‖b − Ax‖∞ = {worst}");
    }

    #[test]
    fn distributed_cg_matches_serial_bit_for_bit() {
        let cfg = CgConfig::new(24);
        let serial = solve(&cfg).unwrap();
        for (strategy, factors, grid) in [
            ("standard-slicing", None, vec![2]),
            ("recursive-bisection", None, vec![4]),
            ("custom-grid", Some(vec![1, 2]), vec![2]),
        ] {
            let dist = solve_distributed(&cfg, strategy, factors, grid, true).unwrap();
            assert_eq!(dist.residuals.len(), serial.residuals.len(), "{strategy}");
            for (a, b) in dist.residuals.iter().zip(&serial.residuals) {
                assert_eq!(a.to_bits(), b.to_bits(), "{strategy}: {a} != {b}");
            }
            assert_eq!(dist.x, serial.x, "{strategy}: gathered solution differs");
        }
    }

    #[test]
    fn traced_solve_records_every_fold_and_changes_no_bit() {
        use sten_trace::SpanKind;
        let cfg = CgConfig::new(24);
        let plain = solve_distributed(&cfg, "standard-slicing", None, vec![2], true).unwrap();
        let traced_cfg = CgConfig { tracer: Tracer::new(), ..cfg };
        let traced =
            solve_distributed(&traced_cfg, "standard-slicing", None, vec![2], true).unwrap();
        assert_eq!(traced.iterations, plain.iterations);
        for (a, b) in traced.residuals.iter().zip(&plain.residuals) {
            assert_eq!(a.to_bits(), b.to_bits(), "tracing moved a residual: {a} != {b}");
        }
        // ‖r₀‖², then p·Ap and ‖r‖² per iteration — on each rank.
        let events = traced_cfg.tracer.events();
        for rank in 0..2 {
            let folds = events
                .iter()
                .filter(|e| e.pid == rank)
                .filter(|e| matches!(e.kind, SpanKind::Reduce { phase: "partial", .. }))
                .count();
            assert_eq!(folds, 2 * traced.iterations + 1, "rank {rank}");
        }
        assert!(events.iter().any(|e| matches!(e.kind, SpanKind::Apply { .. })));
        assert!(events.iter().any(|e| matches!(e.kind, SpanKind::MsgRecv { .. })));
    }

    #[test]
    fn indefinite_operator_degrades_to_a_typed_breakdown() {
        // λ < 0 with |λ| large makes A = I − λ∇² indefinite: CG's
        // curvature term goes non-positive. The solve must return a
        // typed breakdown carrying the trajectory — not loop or panic.
        let cfg = CgConfig { lam: -2.0, ..CgConfig::new(16) };
        match solve(&cfg) {
            Err(CgError::Breakdown { pap, residuals, .. }) => {
                assert!(pap <= 0.0, "breakdown must carry the offending curvature");
                assert!(!residuals.is_empty(), "trajectory travels with the error");
            }
            other => panic!("expected a typed breakdown, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_operator_degrades_to_a_typed_error() {
        // A NaN diffusion coefficient contaminates the first operator
        // apply; the solve must report it with the trajectory so far.
        let cfg = CgConfig { lam: f64::NAN, ..CgConfig::new(12) };
        match solve(&cfg) {
            Err(CgError::NonFiniteResidual { residuals, .. }) => {
                assert_eq!(residuals.len(), 1, "only the (finite) initial ‖r‖ was walked");
            }
            other => panic!("expected a non-finite diagnosis, got {other:?}"),
        }
    }

    #[test]
    fn stagnation_detector_fires_on_a_flat_line_only() {
        // Steady improvement never triggers, a plateau triggers after
        // exactly `window` non-improving observations, and any
        // improvement resets the count.
        let mut t = StagnationTracker::new(1.0, 3);
        for r in [0.5, 0.25, 0.125] {
            assert!(!t.observe(r), "improving residuals are progress");
        }
        assert!(!t.observe(0.2), "1 flat observation: below the window");
        assert!(!t.observe(0.2), "2 flat observations: below the window");
        assert!(t.observe(0.2), "3 flat observations: stagnated");
        let mut t = StagnationTracker::new(1.0, 3);
        assert!(!t.observe(0.9));
        assert!(!t.observe(0.95));
        assert!(!t.observe(0.95));
        assert!(!t.observe(0.5), "an improvement resets the window");
        assert!(!t.observe(0.6));
        assert!(!t.observe(0.6));
        assert!(t.observe(0.6));
    }

    /// FNV-1a over the bits of every residual, then of every `x` entry.
    fn trajectory_digest(report: &CgReport) -> u64 {
        report
            .residuals
            .iter()
            .chain(&report.x)
            .fold(0xcbf2_9ce4_8422_2325, |h, v| (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn solves_are_pinned_to_their_recorded_bits() {
        // Recorded from the solver before any restructuring: a change in
        // how the iteration is compiled must not move a single bit.
        let cfg = CgConfig::new(24);
        let serial = solve(&cfg).unwrap();
        let dist = solve_distributed(&cfg, "standard-slicing", None, vec![2], true).unwrap();
        for (who, report) in [("serial", &serial), ("2-rank", &dist)] {
            assert_eq!(report.iterations, 19, "{who}");
            assert_eq!(trajectory_digest(report), 12_704_088_252_234_627_211, "{who}");
        }
    }

    #[test]
    fn reference_interpreter_walks_the_same_bits() {
        // The undistributed module through the tree-walking interpreter,
        // with the solver's role rotation over shared buffers: the
        // compiled solve's residuals and `x` are the reference's bits.
        use sten_interp::{BufView, Interpreter, RtValue};
        let cfg = CgConfig { max_iters: 5, ..CgConfig::new(16) };
        let want = solve(&cfg).unwrap();
        assert_eq!(want.iterations, 5);
        let mut m = samples::cg(cfg.n, cfg.lam);
        ShapeInference.run(&mut m).unwrap();
        let b = rhs(cfg.n);
        let field = |data: Vec<f64>| BufView::from_data(vec![cfg.n + 2; 2], data);
        let zeros = || field(vec![0.0; b.len()]);
        let mut v = [zeros(), field(b.clone()), field(b.clone()), zeros(), zeros()];
        let float = |out: &RtValue| match out {
            RtValue::Float(f) => *f,
            other => panic!("expected a scalar, got {other:?}"),
        };
        let mut interp = Interpreter::new(&m);
        let out = interp.call_function("cg_norm", vec![RtValue::Buffer(v[1].clone())]).unwrap();
        let mut rsold = float(&out[0]);
        let mut residuals = vec![rsold.sqrt()];
        for _ in 0..5 {
            let mut args: Vec<RtValue> = v.iter().cloned().map(RtValue::Buffer).collect();
            args.push(RtValue::Float(rsold));
            let out = interp.call_function("cg_iter", args).unwrap();
            let [x, r, p, ap, s] = v;
            v = [s, x, r, ap, p];
            rsold = float(&out[1]);
            residuals.push(rsold.sqrt());
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&residuals), bits(&want.residuals));
        assert_eq!(bits(&v[0].to_vec()), bits(&want.x));
    }

    #[test]
    fn an_iteration_is_one_program_without_temporaries() {
        use sten_exec::Step;
        let cfg = CgConfig::new(24);
        let serial = SolverPipelines::serial(&cfg).unwrap();
        let rank1 =
            SolverPipelines::for_rank(&cfg, "standard-slicing", None, &[2], true, 1).unwrap();
        for (who, p) in [("serial", &serial), ("rank 1", &rank1)] {
            let it = &p.iteration;
            assert!(it.tmp_shapes.is_empty(), "{who}: every apply is store-forwarded");
            let scalars = it.steps.iter().filter(|s| matches!(s, Step::Scalar { .. })).count();
            assert_eq!(scalars, 3, "{who}: α, −α and β");
            assert_eq!(it.num_reduce_steps().0, 2, "{who}: p·Ap and ‖r‖²");
            assert_eq!((it.scalar_inputs.len(), it.scalar_outputs.len()), (1, 2), "{who}");
        }
        // Distribution placed the halo exchange and every allreduce.
        assert_eq!(serial.iteration.swaps.len(), 0);
        assert_eq!(rank1.iteration.swaps.len(), 1);
        assert!(rank1.iteration.is_overlapped());
        assert_eq!(rank1.iteration.num_reduce_steps(), (2, 2));
        assert_eq!(rank1.norm2.num_reduce_steps(), (1, 1));
        assert_eq!(rank1.rank_box.core, Bounds::new(vec![(12, 24), (0, 24)]));
        assert_eq!(rank1.rank_box.stored, Bounds::new(vec![(11, 25), (-1, 25)]));
    }

    #[test]
    fn uneven_decomposition_still_bit_identical() {
        // 25 does not divide by 3: balanced slabs differ in size, so
        // for_rank-compiled pipelines are genuinely heterogeneous.
        let cfg = CgConfig { max_iters: 40, ..CgConfig::new(25) };
        let serial = solve(&cfg).unwrap();
        let dist = solve_distributed(&cfg, "standard-slicing", None, vec![3], false).unwrap();
        assert_eq!(dist.residuals.len(), serial.residuals.len());
        for (a, b) in dist.residuals.iter().zip(&serial.residuals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
