//! The `Operator`: from solved update equations to stencil IR and
//! execution.
//!
//! Mirrors Devito's `Operator(Eq(u.forward, update))`: validates the
//! update, derives the halo from the access offsets (paper Fig. 5 — "we
//! parse info on read and write accesses [...] and use this information to
//! construct expressions using the stencil dialect"), emits a single-step
//! `func.func @step` over time-buffered `!stencil.field` arguments, and
//! optionally the `scf.for` time-loop form with iter-arg buffer rotation.
//!
//! [`OptLevel::Advanced`] applies Devito's flop-reduction factorization:
//! accesses sharing a coefficient are summed once and multiplied once,
//! which is what makes the native-Devito baseline of §6.1 strong at high
//! space orders.

use crate::expr::{Access, Eq, Expr};
use crate::grid::Grid;
use std::collections::BTreeMap;
use sten_dialects::{arith, func, scf};
use sten_ir::{Bounds, FieldType, Module, Op, Pass as _, TempType, Type, Value, ValueTable};

/// Devito-style optimization level.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Straightforward term-by-term code generation.
    Noop,
    /// Coefficient factorization (flop reduction), Devito's `advanced`
    /// mode.
    #[default]
    Advanced,
}

/// A compiled stencil operator over one `TimeFunction`.
#[derive(Clone, Debug)]
pub struct Operator {
    /// The field being updated.
    pub func_name: String,
    /// The grid.
    pub grid: Grid,
    /// Time levels read below the forward level (1 or 2).
    pub time_order: usize,
    /// The solved update: `u[t+1, 0] = update`.
    pub update: Expr,
    /// Optimization level.
    pub opt: OptLevel,
    /// Halo width below/above per dimension.
    pub halo_lo: Vec<i64>,
    /// Halo width above per dimension.
    pub halo_hi: Vec<i64>,
}

impl Operator {
    /// Builds an operator from update equations. Currently one equation
    /// over one `TimeFunction` is supported (the paper's benchmarks are of
    /// this shape; multi-field pipelines live in the PSyclone frontend).
    ///
    /// # Errors
    /// Reports malformed updates (non-forward LHS, reads of times outside
    /// `{0, -1}`, or several equations).
    pub fn new(eqs: Vec<Eq>) -> Result<Operator, String> {
        Self::with_opt(eqs, OptLevel::Advanced)
    }

    /// Builds an operator at a specific optimization level.
    ///
    /// # Errors
    /// As [`Operator::new`].
    pub fn with_opt(eqs: Vec<Eq>, opt: OptLevel) -> Result<Operator, String> {
        let [eq] = eqs.as_slice() else {
            return Err("exactly one update equation is supported".into());
        };
        if eq.lhs.num_terms() != 1 || eq.lhs.constant != 0.0 {
            return Err("LHS must be a single forward access (use solve())".into());
        }
        let (target, &tc) = eq.lhs.terms.iter().next().expect("one term");
        if tc != 1.0 || target.time != 1 || target.offsets.iter().any(|&o| o != 0) {
            return Err("LHS must be u.forward()".into());
        }
        let update = eq.rhs.clone();
        let mut time_order = 1;
        for a in update.terms.keys() {
            if a.func != target.func {
                return Err("all accesses must be to the updated function".into());
            }
            match a.time {
                0 => {}
                -1 => time_order = 2,
                t => return Err(format!("unsupported relative time {t}")),
            }
        }
        let rank = target.offsets.len();
        let mut halo_lo = vec![0i64; rank];
        let mut halo_hi = vec![0i64; rank];
        for a in update.terms.keys() {
            for d in 0..rank {
                halo_lo[d] = halo_lo[d].max(-a.offsets[d]);
                halo_hi[d] = halo_hi[d].max(a.offsets[d]);
            }
        }
        // The grid (shape/spacing/dt) is attached with `on_grid`; the
        // `problems` builders do this automatically. A 1-point default
        // keeps the value well-formed until then.
        Ok(Operator {
            func_name: target.func.clone(),
            grid: Grid::new(vec![2; rank]),
            time_order,
            update,
            opt,
            halo_lo,
            halo_hi,
        })
    }

    /// Attaches the grid (shape and spacing) — required before
    /// compilation when using [`Operator::with_opt`] directly. The
    /// [`crate::problems`] builders do this automatically.
    pub fn on_grid(mut self, grid: Grid) -> Operator {
        self.grid = grid;
        self
    }

    /// Number of time-level buffers (time_order + 1).
    pub fn num_buffers(&self) -> usize {
        self.time_order + 1
    }

    /// Local field bounds: core `[0, n)` grown by the halo.
    pub fn field_bounds(&self) -> Bounds {
        Bounds::from_shape(&self.grid.shape).grown_asymmetric(&self.halo_lo, &self.halo_hi)
    }

    /// Allocation shape of each time buffer.
    pub fn field_shape(&self) -> Vec<i64> {
        self.field_bounds().shape()
    }

    /// Flop count per grid point at the configured optimization level.
    pub fn flops_per_point(&self) -> usize {
        let t = self.update.num_terms();
        let has_const = self.update.constant != 0.0;
        match self.opt {
            OptLevel::Noop => {
                // one mul per term + (t-1) adds (+1 for the constant).
                t + t.saturating_sub(1) + usize::from(has_const)
            }
            OptLevel::Advanced => {
                let groups = self.coefficient_groups();
                let adds_inside: usize =
                    groups.iter().map(|(_, accs)| accs.len().saturating_sub(1)).sum();
                let muls = groups.iter().filter(|(c, _)| (c.abs() - 1.0).abs() > 1e-15).count();
                adds_inside + muls + groups.len().saturating_sub(1) + usize::from(has_const)
            }
        }
    }

    /// Distinct stencil points read per output point.
    pub fn stencil_points(&self) -> usize {
        self.update.num_terms()
    }

    /// Groups accesses by (bit-exact) coefficient, ordered
    /// deterministically.
    fn coefficient_groups(&self) -> Vec<(f64, Vec<Access>)> {
        let mut groups: BTreeMap<u64, (f64, Vec<Access>)> = BTreeMap::new();
        for (a, &c) in &self.update.terms {
            groups.entry(c.to_bits()).or_insert((c, Vec::new())).1.push(a.clone());
        }
        groups.into_values().collect()
    }

    /// Emits the apply-body ops for one output point; returns the ops and
    /// the result value. `access_of` maps a symbolic access to IR.
    fn emit_update(
        &self,
        vt: &mut ValueTable,
        args_by_time: &BTreeMap<i64, Value>,
    ) -> (Vec<Op>, Value) {
        let mut ops: Vec<Op> = Vec::new();
        let mut acc: Option<Value> = None;
        let mut push_acc = |vt: &mut ValueTable, ops: &mut Vec<Op>, v: Value| match acc {
            None => acc = Some(v),
            Some(prev) => {
                let add = arith::addf(vt, prev, v);
                acc = Some(add.result(0));
                ops.push(add);
            }
        };
        let emit_access = |vt: &mut ValueTable, ops: &mut Vec<Op>, a: &Access| -> Value {
            let arg = args_by_time[&a.time];
            let op = sten_stencil::ops::access(vt, arg, a.offsets.clone());
            let v = op.result(0);
            ops.push(op);
            v
        };
        match self.opt {
            OptLevel::Noop => {
                for (a, &c) in &self.update.terms {
                    let av = emit_access(&mut *vt, &mut ops, a);
                    let cv = arith::const_f64(vt, c);
                    let cval = cv.result(0);
                    ops.push(cv);
                    let mul = arith::mulf(vt, cval, av);
                    let mv = mul.result(0);
                    ops.push(mul);
                    push_acc(vt, &mut ops, mv);
                }
            }
            OptLevel::Advanced => {
                for (c, accesses) in self.coefficient_groups() {
                    let mut group_sum: Option<Value> = None;
                    for a in &accesses {
                        let av = emit_access(&mut *vt, &mut ops, a);
                        group_sum = Some(match group_sum {
                            None => av,
                            Some(prev) => {
                                let add = arith::addf(vt, prev, av);
                                let v = add.result(0);
                                ops.push(add);
                                v
                            }
                        });
                    }
                    let gv = group_sum.expect("non-empty group");
                    let scaled = if (c - 1.0).abs() < 1e-300 {
                        gv
                    } else {
                        let cv = arith::const_f64(vt, c);
                        let cval = cv.result(0);
                        ops.push(cv);
                        let mul = arith::mulf(vt, cval, gv);
                        let v = mul.result(0);
                        ops.push(mul);
                        v
                    };
                    push_acc(vt, &mut ops, scaled);
                }
            }
        }
        if self.update.constant != 0.0 {
            let cv = arith::const_f64(vt, self.update.constant);
            let cval = cv.result(0);
            ops.push(cv);
            let prev = acc.expect("terms exist");
            let add = arith::addf(vt, prev, cval);
            acc = Some(add.result(0));
            ops.push(add);
        }
        let out = acc.expect("update has at least one term");
        ops.push(sten_stencil::ops::ret(vec![out]));
        (ops, out)
    }

    /// Compiles the single-step function `@step` at the stencil level,
    /// shape-inferred and ready for the shared stack.
    ///
    /// Argument order: `[u(t-1),] u(t), u(t+1)` — the driver rotates
    /// buffers between steps (time buffering).
    ///
    /// # Errors
    /// Reports inconsistent geometry.
    pub fn compile(&self) -> Result<Module, String> {
        let mut m = Module::new();
        let bounds = self.field_bounds();
        let field_ty = Type::Field(FieldType::new(bounds, Type::F64));
        let n_args = self.num_buffers();
        let (mut f, args) = func::definition(&mut m.values, "step", vec![field_ty; n_args], vec![]);
        // args: [t-1,] t, t+1.
        let mut args_by_time: BTreeMap<i64, Value> = BTreeMap::new();
        let read_times: Vec<i64> = if self.time_order == 2 { vec![-1, 0] } else { vec![0] };
        // Load each read time level.
        let mut loaded: BTreeMap<i64, Value> = BTreeMap::new();
        for (i, &t) in read_times.iter().enumerate() {
            let ld = sten_stencil::ops::load(&mut m.values, args[i]);
            loaded.insert(t, ld.result(0));
            f.region_block_mut(0).ops.push(ld);
        }
        let target_field = args[n_args - 1];

        let operands: Vec<Value> = read_times.iter().map(|t| loaded[t]).collect();
        let rank = self.grid.rank();
        let apply = sten_stencil::ops::apply(
            &mut m.values,
            operands,
            vec![Type::Temp(TempType::unknown(rank, Type::F64))],
            |vt, region_args| {
                for (i, &t) in read_times.iter().enumerate() {
                    args_by_time.insert(t, region_args[i]);
                }
                let (ops, _) = self.emit_update(vt, &args_by_time);
                ops
            },
        );
        let out = apply.result(0);
        f.region_block_mut(0).ops.push(apply);
        f.region_block_mut(0).ops.push(sten_stencil::ops::store(
            out,
            target_field,
            vec![0; rank],
            self.grid.shape.clone(),
        ));
        f.region_block_mut(0).ops.push(func::ret(vec![]));
        m.body_mut().ops.push(f);
        sten_stencil::ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
        Ok(m)
    }

    /// Compiles the rank-local distributed form over `topology`, with
    /// `dmp.swap` halo exchanges inserted and redundant swaps removed.
    ///
    /// # Errors
    /// Reports indivisible decompositions.
    pub fn compile_distributed(&self, topology: &[i64]) -> Result<Module, String> {
        let mut m = self.compile()?;
        sten_dmp::DistributeStencil::new(topology.to_vec())
            .run(&mut m)
            .map_err(|e| e.to_string())?;
        sten_stencil::ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
        sten_dmp::EliminateRedundantSwaps.run(&mut m).map_err(|e| e.to_string())?;
        Ok(m)
    }

    /// Compiles a whole-run function `@run` containing the `scf.for` time
    /// loop with iter-arg buffer rotation (the IR-level time-buffering the
    /// paper describes: "we add the temporal and spatial loops, including
    /// time-buffering").
    ///
    /// # Errors
    /// Reports inconsistent geometry.
    pub fn compile_with_time_loop(&self, timesteps: i64) -> Result<Module, String> {
        let mut m = self.compile()?;
        let bounds = self.field_bounds();
        let field_ty = Type::Field(FieldType::new(bounds, Type::F64));
        let n = self.num_buffers();
        let (mut f, args) =
            func::definition(&mut m.values, "run", vec![field_ty.clone(); n], vec![]);
        let lo = arith::const_index(&mut m.values, 0);
        let hi = arith::const_index(&mut m.values, timesteps);
        let one = arith::const_index(&mut m.values, 1);
        let (lov, hiv, onev) = (lo.result(0), hi.result(0), one.result(0));
        for op in [lo, hi, one] {
            f.region_block_mut(0).ops.push(op);
        }
        let update = self.update.clone();
        let opt = self.opt;
        let shape = self.grid.shape.clone();
        let rank = self.grid.rank();
        let time_order = self.time_order;
        let this = self.clone();
        let loop_op = scf::for_loop(&mut m.values, lov, hiv, onev, args.clone(), |vt, _t, bufs| {
            let _ = (&update, opt);
            let mut ops: Vec<Op> = Vec::new();
            // Roles: bufs = [t-1,] t, t+1 at this iteration.
            let read_times: Vec<i64> = if time_order == 2 { vec![-1, 0] } else { vec![0] };
            let mut loaded = Vec::new();
            for (i, _) in read_times.iter().enumerate() {
                let ld = sten_stencil::ops::load(vt, bufs[i]);
                loaded.push(ld.result(0));
                ops.push(ld);
            }
            let mut args_by_time = BTreeMap::new();
            let apply = sten_stencil::ops::apply(
                vt,
                loaded.clone(),
                vec![Type::Temp(TempType::unknown(rank, Type::F64))],
                |vt2, region_args| {
                    for (i, &t) in read_times.iter().enumerate() {
                        args_by_time.insert(t, region_args[i]);
                    }
                    let (body, _) = this.emit_update(vt2, &args_by_time);
                    body
                },
            );
            let outv = apply.result(0);
            ops.push(apply);
            ops.push(sten_stencil::ops::store(
                outv,
                bufs[bufs.len() - 1],
                vec![0; rank],
                shape.clone(),
            ));
            // Rotate: new (t-1) = old t, new t = old t+1 (just
            // written), new t+1 = oldest buffer (recycled).
            let rotated: Vec<Value> = (0..bufs.len()).map(|i| bufs[(i + 1) % bufs.len()]).collect();
            ops.push(scf::yield_op(rotated));
            ops
        });
        f.region_block_mut(0).ops.push(loop_op);
        f.region_block_mut(0).ops.push(func::ret(vec![]));
        m.body_mut().ops.push(f);
        sten_stencil::ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
        Ok(m)
    }

    /// Runs `timesteps` steps on `buffers` (length [`Self::num_buffers`],
    /// each of [`Self::field_shape`] elements) using the compiled-kernel
    /// executor with `threads` workers. Returns the index of the buffer
    /// holding the final field.
    ///
    /// # Errors
    /// Reports compilation or shape problems.
    pub fn run(
        &self,
        buffers: &mut [Vec<f64>],
        timesteps: usize,
        threads: usize,
    ) -> Result<usize, String> {
        let module = self.compile()?;
        self.run_module(&module, buffers, timesteps, threads, None, 0)
    }

    /// Distributed variant of [`Operator::run`]: executes as `rank` of a
    /// SimMPI `world` on the rank-local `module` (from
    /// [`Operator::compile_distributed`]).
    ///
    /// # Errors
    /// Reports compilation, shape, or communication problems.
    pub fn run_distributed(
        &self,
        module: &Module,
        buffers: &mut [Vec<f64>],
        timesteps: usize,
        threads: usize,
        world: &std::sync::Arc<sten_interp::SimWorld>,
        rank: i64,
    ) -> Result<usize, String> {
        self.run_module(module, buffers, timesteps, threads, Some(world), rank)
    }

    fn run_module(
        &self,
        module: &Module,
        buffers: &mut [Vec<f64>],
        timesteps: usize,
        threads: usize,
        world: Option<&std::sync::Arc<sten_interp::SimWorld>>,
        rank: i64,
    ) -> Result<usize, String> {
        let nb = self.num_buffers();
        if buffers.len() != nb {
            return Err(format!("need {nb} time buffers, got {}", buffers.len()));
        }
        let pipeline = sten_exec::compile_module(module, "step")?;
        let mut runner = sten_exec::Runner::new(pipeline, threads);
        for k in 0..timesteps {
            let mut args: Vec<Vec<f64>> =
                (0..nb).map(|i| std::mem::take(&mut buffers[(k + i) % nb])).collect();
            match world {
                Some(w) => runner.step_distributed(&mut args, w, rank)?,
                None => runner.step(&mut args)?,
            }
            for (i, a) in args.into_iter().enumerate() {
                buffers[(k + i) % nb] = a;
            }
        }
        Ok(if timesteps == 0 { nb - 1 } else { (timesteps - 1 + nb - 1) % nb })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;

    #[test]
    fn heat_operator_compiles_and_verifies() {
        let op = problems::heat(&[32, 32], 4, 0.5).unwrap();
        let m = op.compile().unwrap();
        let mut reg = sten_ir::DialectRegistry::new();
        sten_dialects::register_all(&mut reg);
        sten_stencil::register(&mut reg);
        sten_dmp::register(&mut reg);
        sten_ir::verify_module(&m, Some(&reg)).unwrap();
        let text = sten_ir::print_module(&m);
        assert!(text.contains("stencil.apply"));
        // so4 2D: 9-point stencil.
        assert_eq!(op.stencil_points(), 9);
        assert_eq!(op.halo_lo, vec![2, 2]);
    }

    #[test]
    fn factorization_reduces_flops_but_not_results() {
        let fac = problems::heat(&[30], 8, 0.5).unwrap();
        let noop = problems::heat_with_opt(&[30], 8, 0.5, OptLevel::Noop).unwrap();
        assert!(
            fac.flops_per_point() < noop.flops_per_point(),
            "{} vs {}",
            fac.flops_per_point(),
            noop.flops_per_point()
        );
        let shape = fac.field_shape();
        let len: i64 = shape.iter().product();
        let init: Vec<f64> = (0..len).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut a = vec![init.clone(), init.clone()];
        let mut b = vec![init.clone(), init];
        let ia = fac.run(&mut a, 5, 1).unwrap();
        let ib = noop.run(&mut b, 5, 1).unwrap();
        assert_eq!(ia, ib);
        for (x, y) in a[ia].iter().zip(&b[ib]) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn heat_diffusion_decays_peak() {
        let op = problems::heat(&[64], 2, 0.5).unwrap();
        let shape = op.field_shape();
        let len: i64 = shape.iter().product();
        let mut init = vec![0.0; len as usize];
        init[32] = 1.0; // a spike
        let mut bufs = vec![init.clone(), init];
        let last = op.run(&mut bufs, 10, 1).unwrap();
        let peak = bufs[last].iter().cloned().fold(0.0f64, f64::max);
        assert!(peak < 1.0 && peak > 0.0, "diffusion spreads the spike: {peak}");
        // Mass is approximately conserved in the interior.
        let mass: f64 = bufs[last].iter().sum();
        assert!((mass - 1.0).abs() < 1e-6, "mass {mass}");
    }

    #[test]
    fn wave_operator_uses_three_buffers() {
        let op = problems::acoustic_wave(&[32, 32], 4, 1.0).unwrap();
        assert_eq!(op.time_order, 2);
        assert_eq!(op.num_buffers(), 3);
        let m = op.compile().unwrap();
        let f = m.lookup_symbol("step").unwrap();
        assert_eq!(func::FuncOp(f).function_type().inputs.len(), 3);
    }

    #[test]
    fn driver_rotation_matches_ir_time_loop() {
        let op = problems::heat(&[24], 2, 0.5).unwrap();
        let shape = op.field_shape();
        let len: i64 = shape.iter().product();
        let init: Vec<f64> = (0..len).map(|i| (i as f64 * 0.4).cos()).collect();
        let steps = 6usize;

        // Driver-rotated execution.
        let mut bufs = vec![init.clone(), init.clone()];
        let last = op.run(&mut bufs, steps, 1).unwrap();
        let driver_result = bufs[last].clone();

        // IR time loop, interpreted.
        let m = op.compile_with_time_loop(steps as i64).unwrap();
        let b0 = sten_interp::BufView::from_data(shape.clone(), init.clone());
        let b1 = sten_interp::BufView::from_data(shape.clone(), init);
        sten_interp::Interpreter::new(&m)
            .call_function(
                "run",
                vec![
                    sten_interp::RtValue::Buffer(b0.clone()),
                    sten_interp::RtValue::Buffer(b1.clone()),
                ],
            )
            .unwrap();
        // After `steps` iterations the final field sits in the buffer the
        // driver reports; the IR loop rotated in the same pattern.
        let ir_result = if last == 0 { b0.to_vec() } else { b1.to_vec() };
        for (a, b) in driver_result.iter().zip(&ir_result) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn distributed_heat_matches_serial() {
        let op = problems::heat(&[64], 2, 0.5).unwrap();
        let shape = op.field_shape(); // [66]
        let len = shape[0];
        let init: Vec<f64> = (0..len).map(|i| (i as f64 * 0.13).sin()).collect();
        let steps = 4usize;

        let mut serial = vec![init.clone(), init.clone()];
        let last = op.run(&mut serial, steps, 1).unwrap();
        let want = serial[last].clone();

        let dist = op.compile_distributed(&[2]).unwrap();
        let layout = sten_interp::Layout::of_spmd(op.field_bounds(), &dist, "step").unwrap();
        let world = sten_interp::SimWorld::new(2);
        let outs = sten_interp::launch_with(&world, layout.scatter(&init), |rank, local| {
            let mut bufs = vec![local.clone(), local];
            let last = op.run_distributed(&dist, &mut bufs, steps, 1, &world, rank as i64)?;
            Ok::<_, String>(bufs.swap_remove(last))
        })
        .unwrap();
        let mut got = init.clone();
        layout.gather_into(&outs, &mut got);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-12, "mismatch at {i}: {a} vs {b}");
        }
    }
}
