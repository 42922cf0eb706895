//! Randomized whole-stack equivalence: arbitrary generated stencil
//! programs (random offsets, coefficients, dimensionality) produce
//! identical fields at every level — stencil-dialect reference
//! interpretation, the optimized shared-CPU pipeline, the compiled
//! bytecode executor, and (for 1D programs with divisible cores) a 2-rank
//! distributed run over SimMPI. Cases are seeded and deterministic (see
//! `common::Rng`).

mod common;

use common::Rng;
use stencil_stack::dialects::{arith, func};
use stencil_stack::ir::{FieldType, TempType, Type};
use stencil_stack::prelude::*;
use stencil_stack::stencil::ops;

#[derive(Clone, Debug)]
struct RandStencil {
    /// (offset per dim, coefficient) terms.
    terms: Vec<(Vec<i64>, f64)>,
    dims: usize,
    /// When set, the mirrored half of `terms` is emitted as one scaled
    /// group `s · (Σ c·u)` instead of inline — or, in Devito's form, the
    /// scale of its group.
    group_scale: Option<f64>,
    /// Devito's form, when set.
    devito: Option<DevitoForm>,
    /// Coefficient positions that are `f64` function arguments instead
    /// of constants: indices into `terms`, `terms.len()` for the group
    /// scale. Entry `k` is scalar argument `k`.
    runtime: Vec<usize>,
    /// A construct outside the template-JIT grammar applied to the
    /// result, when set.
    outside: Option<Outside>,
}

/// The constructs the template-JIT rejects, each applied to an in-grammar
/// result `r`: the kernel then runs on the `eval` fallback.
#[derive(Clone, Debug)]
enum Outside {
    /// `r + f64(index[dim] + offset)`.
    Index { dim: usize, offset: i64 },
    /// `−r`.
    Neg,
    /// `r / c`.
    Div(f64),
    /// `r + u[a] · u[b]`.
    Product(Vec<i64>, Vec<i64>),
}

impl Outside {
    /// Construct `kind` (0–3, in the order above) for a `dims`-dimensional
    /// stencil of radius 2.
    fn draw(kind: usize, dims: usize, rng: &mut Rng) -> Outside {
        let offset = |rng: &mut Rng| (0..dims).map(|_| rng.range_i64(-2, 3)).collect();
        match kind {
            0 => Outside::Index { dim: rng.range_usize(0, dims), offset: rng.range_i64(-3, 4) },
            1 => Outside::Neg,
            2 => Outside::Div(rng.range_f64(0.5, 2.0)),
            _ => Outside::Product(offset(rng), offset(rng)),
        }
    }

    /// Why the template-JIT rejects it, as `tier_label` names it.
    fn reason(&self) -> &'static str {
        match self {
            Outside::Index { .. } => "stencil.index term",
            Outside::Neg => "negation",
            Outside::Div(_) => "division",
            Outside::Product(..) => "load·load product",
        }
    }
}

/// The shape a Devito space-order-2 operator takes:
/// `s·(u₁ ⊕ … ⊕ u_T) ⊕ c·u_centre [⊕ c′·u′]`. The first `group` terms
/// are plain taps (their coefficient is ignored) folded into a group that
/// `group_scale` scales; the rest are `c·u` taps folded in after it.
#[derive(Clone, Debug)]
struct DevitoForm {
    group: usize,
    /// Per term: folded in with `−` instead of `+` (the first ignored).
    subs: Vec<bool>,
    /// The scale is the right multiplication operand.
    scale_right: bool,
}

impl RandStencil {
    /// Moves the mirrored half into a scaled group (half the time; a
    /// Devito-form stencil has its group already) and turns 0–2
    /// coefficients — tap coefficients or the group scale — into runtime
    /// scalars.
    fn with_runtime_scalars(mut self, rng: &mut Rng) -> RandStencil {
        if self.devito.is_none() && rng.chance(1, 2) {
            self.group_scale = Some(rng.range_f64(-2.0, 2.0));
        }
        // A Devito group's taps carry no coefficient; its scale is a
        // runtime scalar half the time.
        let first = self.devito.as_ref().map_or(0, |d| d.group);
        if first > 0 && rng.chance(1, 2) {
            self.runtime.push(self.terms.len());
        }
        let positions = self.terms.len() + usize::from(self.group_scale.is_some());
        for _ in 0..rng.range_usize(0, 3) {
            let at = rng.range_usize(first, positions);
            if !self.runtime.contains(&at) {
                self.runtime.push(at);
            }
        }
        self
    }

    /// `(offset, coefficient)` of every tap of the built kernel, its
    /// scale and fold signs multiplied in (the group scale of the
    /// mul-add form is not: the stencils compared against
    /// [`reference`] never draw one).
    fn effective_terms(&self) -> Vec<(Vec<i64>, f64)> {
        let Some(dv) = &self.devito else { return self.terms.clone() };
        let s = self.group_scale.unwrap();
        let sign = |i: usize| if dv.subs[i] { -1.0 } else { 1.0 };
        let coeff = |i: usize, c: f64| if i < dv.group { s * sign(i) } else { c * sign(i) };
        self.terms.iter().enumerate().map(|(i, (off, c))| (off.clone(), coeff(i, *c))).collect()
    }

    /// The value of runtime scalar `k` at `step`: the generated
    /// coefficient, then a different one each step.
    fn scalar(&self, k: usize, step: usize) -> f64 {
        let at = self.runtime[k];
        let c = self.terms.get(at).map_or_else(|| self.group_scale.unwrap(), |t| t.1);
        c + 0.375 * step as f64
    }
}

fn rand_stencil(dims: usize, rng: &mut Rng) -> RandStencil {
    let num_terms = rng.range_usize(1, 6);
    let mut terms: Vec<(Vec<i64>, f64)> = (0..num_terms)
        .map(|_| {
            let offset: Vec<i64> = (0..dims).map(|_| rng.range_i64(-2, 3)).collect();
            (offset, rng.range_f64(-2.0, 2.0))
        })
        .collect();
    // The dmp exchange is a symmetric pairwise swap (as in the paper),
    // so keep the generated halo symmetric: mirror every term.
    let mirrored: Vec<(Vec<i64>, f64)> =
        terms.iter().map(|(o, c)| (o.iter().map(|x| -x).collect(), 0.5 * c)).collect();
    terms.extend(mirrored);
    let mut st = RandStencil {
        terms,
        dims,
        group_scale: None,
        devito: None,
        runtime: Vec::new(),
        outside: None,
    };
    if rng.chance(1, 3) {
        // Devito's form over the same symmetric star: the star as the
        // plain-tap group, then the centre and (sometimes) the first
        // star point again as scaled trailing taps.
        let group = st.terms.len();
        st.terms.push((vec![0; dims], rng.range_f64(-2.0, 2.0)));
        if rng.chance(1, 2) {
            st.terms.push((st.terms[0].0.clone(), rng.range_f64(-2.0, 2.0)));
        }
        let subs = (0..st.terms.len()).map(|i| i > 0 && rng.chance(1, 3)).collect();
        st.group_scale = Some(rng.range_f64(-2.0, 2.0));
        st.devito = Some(DevitoForm { group, subs, scale_right: rng.chance(1, 2) });
    }
    st
}

/// Builds `out = Σ c_i · u[x + o_i]` over an interior store range (the
/// mirrored half as `s · (Σ c_i · u[x + o_i])` when the stencil has a
/// group scale; in Devito's form when it has one), runtime coefficients
/// as trailing `f64` arguments, and the result passed through the
/// stencil's construct outside the grammar, if it has one.
fn build(st: &RandStencil, n: i64) -> Module {
    let dims = st.dims;
    let radius = 2i64;
    let mut m = Module::new();
    let bounds = Bounds::from_shape(&vec![n; dims]).grown(radius);
    let fld = Type::Field(FieldType::new(bounds, Type::F64));
    let mut arg_types = vec![fld.clone(), fld];
    arg_types.extend(st.runtime.iter().map(|_| Type::F64));
    let (mut f, args) = func::definition(&mut m.values, "rand", arg_types, vec![]);
    let (src, dst) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src);
    let mut operands = vec![ld.result(0)];
    operands.extend(&args[2..]);
    f.region_block_mut(0).ops.push(ld);
    let st = st.clone();
    let ap = ops::apply(
        &mut m.values,
        operands,
        vec![Type::Temp(TempType::unknown(dims, Type::F64))],
        move |vt, a| {
            use stencil_stack::ir::{Op, Value};
            let mut body: Vec<Op> = Vec::new();
            let mut emit = |op: Op| {
                let v = op.result(0);
                body.push(op);
                v
            };
            // The scalar argument feeding coefficient position `at`, if
            // it is a runtime one.
            let runtime = |at: usize| st.runtime.iter().position(|&r| r == at).map(|k| a[1 + k]);
            let out = if let Some(dv) = &st.devito {
                let fold = |vt: &mut _, sub: bool, acc, v| {
                    if sub {
                        arith::subf(vt, acc, v)
                    } else {
                        arith::addf(vt, acc, v)
                    }
                };
                let mut group = None;
                for (i, (off, _)) in st.terms[..dv.group].iter().enumerate() {
                    let av = emit(ops::access(vt, a[0], off.clone()));
                    group = Some(match group {
                        None => av,
                        Some(prev) => emit(fold(vt, dv.subs[i], prev, av)),
                    });
                }
                let group = group.expect("a non-empty star");
                let s = st.group_scale.unwrap();
                let sv = runtime(st.terms.len()).unwrap_or_else(|| emit(arith::const_f64(vt, s)));
                let (l, r) = if dv.scale_right { (group, sv) } else { (sv, group) };
                let mut out = emit(arith::mulf(vt, l, r));
                for (i, (off, c)) in st.terms.iter().enumerate().skip(dv.group) {
                    let av = emit(ops::access(vt, a[0], off.clone()));
                    let cv = runtime(i).unwrap_or_else(|| emit(arith::const_f64(vt, *c)));
                    let mv = emit(arith::mulf(vt, cv, av));
                    out = emit(fold(vt, dv.subs[i], out, mv));
                }
                out
            } else {
                let inline =
                    if st.group_scale.is_some() { st.terms.len() / 2 } else { st.terms.len() };
                // [inline fold, group fold]
                let mut accs: [Option<Value>; 2] = [None, None];
                for (i, (off, c)) in st.terms.iter().enumerate() {
                    let av = emit(ops::access(vt, a[0], off.clone()));
                    let cv = runtime(i).unwrap_or_else(|| emit(arith::const_f64(vt, *c)));
                    let mv = emit(arith::mulf(vt, cv, av));
                    let acc = &mut accs[usize::from(i >= inline)];
                    *acc = Some(match *acc {
                        None => mv,
                        Some(prev) => emit(arith::addf(vt, prev, mv)),
                    });
                }
                let mut out = accs[0].expect("at least one term");
                if let (Some(s), Some(group)) = (st.group_scale, accs[1]) {
                    let sv =
                        runtime(st.terms.len()).unwrap_or_else(|| emit(arith::const_f64(vt, s)));
                    let scaled = emit(arith::mulf(vt, sv, group));
                    out = emit(arith::addf(vt, out, scaled));
                }
                out
            };
            let out = match &st.outside {
                None => out,
                Some(Outside::Index { dim, offset }) => {
                    let i = emit(ops::index(vt, *dim, *offset));
                    let f = emit(arith::sitofp(vt, i, Type::F64));
                    emit(arith::addf(vt, out, f))
                }
                Some(Outside::Neg) => emit(arith::negf(vt, out)),
                Some(Outside::Div(c)) => {
                    let cv = emit(arith::const_f64(vt, *c));
                    emit(arith::divf(vt, out, cv))
                }
                Some(Outside::Product(l, r)) => {
                    let lv = emit(ops::access(vt, a[0], l.clone()));
                    let rv = emit(ops::access(vt, a[0], r.clone()));
                    let p = emit(arith::mulf(vt, lv, rv));
                    emit(arith::addf(vt, out, p))
                }
            };
            body.push(ops::ret(vec![out]));
            body
        },
    );
    let out = ap.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.push(ap);
    body.push(ops::store(out, dst, vec![0; dims], vec![n; dims]));
    body.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    stencil_stack::stencil::ShapeInference.run(&mut m).unwrap();
    m
}

fn reference(st: &RandStencil, n: i64, input: &[f64]) -> Vec<f64> {
    // Direct evaluation, independent of the whole stack.
    let radius = 2i64;
    let ext = n + 2 * radius;
    let dims = st.dims;
    let mut out = input.to_vec();
    let idx = |p: &[i64]| -> usize {
        let mut flat = 0i64;
        for &pv in p {
            flat = flat * ext + (pv + radius);
        }
        flat as usize
    };
    let terms = st.effective_terms();
    let mut p = vec![0i64; dims];
    loop {
        let mut v = 0.0;
        for (off, c) in &terms {
            let q: Vec<i64> = (0..dims).map(|d| p[d] + off[d]).collect();
            v += c * input[idx(&q)];
        }
        out[idx(&p)] = v;
        let mut d = dims;
        let mut done = false;
        loop {
            if d == 0 {
                done = true;
                break;
            }
            d -= 1;
            p[d] += 1;
            if p[d] < n {
                break;
            }
            p[d] = 0;
        }
        if done {
            return out;
        }
    }
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-9 * (1.0 + x.abs()))
}

#[test]
fn random_1d_stencils_agree_at_all_levels() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed);
        let st = rand_stencil(1, &mut rng);
        let n = 16i64;
        let m = build(&st, n);
        let ext = (n + 4) as usize;
        let input: Vec<f64> =
            (0..ext).map(|i| ((i as f64) * 0.37 + seed as f64 * 0.11).sin()).collect();
        let want = reference(&st, n, &input);

        // Level A: stencil-dialect interpretation.
        let run = |m: &Module| {
            let src = BufView::from_data(vec![n + 4], input.clone());
            let dst = BufView::from_data(vec![n + 4], input.clone());
            Interpreter::new(m)
                .call_function("rand", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
                .unwrap();
            dst.to_vec()
        };
        let a = run(&m);
        assert!(close(&a, &want), "seed {seed}: stencil level vs direct reference");

        // Level B: full optimized shared-CPU pipeline.
        let compiled = compile(m.clone(), &CompileOptions::shared_cpu()).unwrap();
        assert!(close(&run(&compiled.module), &want), "seed {seed}: optimized pipeline");

        // Level C: compiled bytecode executor.
        let pipeline = compile_pipeline(&m, "rand").unwrap();
        let mut args = vec![input.clone(), input.clone()];
        Runner::new(pipeline, 1).step(&mut args).unwrap();
        assert!(close(&args[1], &want), "seed {seed}: bytecode executor");

        // Level D: 2-rank distributed over SimMPI (n divisible by 2).
        let layout = common::spmd_layout(m.clone(), "rand", vec![2]);
        let dist = compile(m, &CompileOptions::distributed(vec![2])).unwrap();
        let parts = layout.scatter(&input);
        let (results, _) =
            run_spmd(&dist.module, "rand", 2, &|rank| common::buffer_pair(&layout, &parts, rank))
                .unwrap();
        let outs: Vec<Vec<f64>> = results.into_iter().map(|r| r.buffers[1].clone()).collect();
        let mut got = input.clone();
        layout.gather_into(&outs, &mut got);
        assert!(close(&got, &want), "seed {seed}: 2-rank distributed");
    }
}

/// Every specialized executor tier must be **bit-for-bit** identical to
/// the seed `KernelProgram::eval` path — serial and through the worker
/// pool at 2 and 4 threads — on random stencils of every rank the
/// monomorphized row walkers cover (1D/2D/3D), with 0–2 of their
/// coefficients (tap coefficients, the group scale) fed at run time and
/// changed between steps.
#[test]
fn specialized_tiers_bit_identical_to_eval() {
    let mut with_scalars = 0;
    // Devito-form stencils, and those of them with a runtime scale.
    let (mut devito, mut runtime_scale) = (0, 0);
    for (dims, n, seeds) in [(1usize, 24i64, 10u64), (2, 12, 10), (3, 6, 6)] {
        for seed in 0..seeds {
            let mut rng = Rng::new(9000 + seed * 37 + dims as u64);
            let st = rand_stencil(dims, &mut rng).with_runtime_scalars(&mut rng);
            with_scalars += usize::from(!st.runtime.is_empty());
            if st.devito.is_some() {
                devito += 1;
                runtime_scale += usize::from(st.runtime.contains(&st.terms.len()));
            }
            let m = build(&st, n);
            let ext: usize = ((n + 4) as usize).pow(dims as u32);
            let input: Vec<f64> =
                (0..ext).map(|i| ((i as f64) * 0.19 + seed as f64 * 0.05).sin()).collect();
            let pipeline = compile_pipeline(&m, "rand").unwrap();
            assert_eq!(pipeline.scalar_inputs.len(), st.runtime.len());

            // Three steps on one runner, the runtime scalars different
            // at each: the outputs after every step.
            let run = |tier: TierKind, threads: usize| -> Vec<Vec<f64>> {
                let mut p = pipeline.clone();
                p.respecialize(Some(tier));
                let mut runner = Runner::new(p, threads);
                let mut args = vec![input.clone(), input.clone()];
                (0..3)
                    .map(|step| {
                        for k in 0..st.runtime.len() {
                            runner.set_scalar(k, st.scalar(k, step));
                        }
                        runner.step(&mut args).unwrap();
                        args[1].clone()
                    })
                    .collect()
            };

            // Reference: the seed eval interpreter, serial.
            let want = run(TierKind::Eval, 1);
            for tier in common::tiers() {
                for threads in [1usize, 2, 4] {
                    assert_eq!(
                        run(tier, threads),
                        want,
                        "dims {dims} seed {seed} tier {tier:?} threads {threads}"
                    );
                }
            }
            // Random mul-add chains are flat scaled-tap folds, plus at
            // most one scaled group, well inside the template-JIT
            // grammar (<= 12 terms) whether a coefficient is a constant
            // or a runtime scalar, so automatic
            // selection must reach the top tier (unless the run pins one
            // through the environment).
            // A Devito-form stencil must reach the flattened group kernel.
            if TierKind::from_env().is_none() {
                let lines = pipeline.tier_summary();
                assert!(
                    lines.iter().all(|l| l.contains("template-jit")),
                    "dims {dims} seed {seed}: {lines:?}"
                );
                if let Some(dv) = &st.devito {
                    let label = format!("group<{}>+{}", dv.group, st.terms.len() - dv.group);
                    assert!(
                        lines.iter().all(|l| l.contains(&label)),
                        "dims {dims} seed {seed}: {lines:?} is not {label}"
                    );
                }
            }
        }
    }
    assert!(with_scalars >= 8, "only {with_scalars} of 26 kernels drew a runtime scalar");
    assert!(
        devito >= 4 && runtime_scale >= 2,
        "{devito} Devito-form kernels, {runtime_scale} with a runtime scale"
    );
}

/// Kernels outside the template-JIT grammar — an `Index` term, a `negf`,
/// a `divf` or a `load·load` product after a random mul-add chain —
/// select the `eval` fallback, which names the construct, and match the
/// tree-walking interpreter bit-for-bit, serially and through the worker
/// pool at 2 and 4 threads, on 1D/2D/3D grids.
#[test]
fn kernels_outside_the_grammar_run_on_eval_and_match_the_interpreter() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (dims, n) in [(1usize, 24i64), (2, 12), (3, 6)] {
        for kind in 0..4 {
            for seed in 0..2u64 {
                let mut rng = Rng::new(7000 + seed * 53 + 4 * dims as u64 + kind as u64);
                let mut st = rand_stencil(dims, &mut rng);
                let outside = Outside::draw(kind, dims, &mut rng);
                let reason = outside.reason();
                st.outside = Some(outside);
                let m = build(&st, n);
                let case = format!("dims {dims} seed {seed} {:?}", st.outside);

                let shape = vec![n + 4; dims];
                let len = shape.iter().product::<i64>() as usize;
                let input: Vec<f64> =
                    (0..len).map(|i| ((i as f64) * 0.29 + seed as f64 * 0.13).sin()).collect();
                let dst = BufView::from_data(shape.clone(), input.clone());
                let src = RtValue::Buffer(BufView::from_data(shape, input.clone()));
                Interpreter::new(&m)
                    .call_function("rand", vec![src, RtValue::Buffer(dst.clone())])
                    .unwrap();
                let want = bits(&dst.to_vec());

                let pipeline = compile_pipeline_tiered(&m, "rand", None).unwrap();
                let label = "apply#0: eval (";
                let rejected = format!("; template-jit rejected: {reason})");
                assert!(
                    pipeline
                        .tier_summary()
                        .iter()
                        .all(|l| l.starts_with(label) && l.contains(&rejected)),
                    "{case}: {:?}",
                    pipeline.tier_summary()
                );
                for tier in common::tiers() {
                    let mut p = pipeline.clone();
                    p.respecialize(Some(tier));
                    for threads in [1usize, 2, 4] {
                        let mut args = vec![input.clone(), input.clone()];
                        Runner::new(p.clone(), threads).step(&mut args).unwrap();
                        assert!(
                            bits(&args[1]) == want,
                            "{case}: tier {tier:?} threads {threads} != interpreter"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn random_2d_stencils_agree() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(5000 + seed);
        let st = rand_stencil(2, &mut rng);
        let n = 10i64;
        let m = build(&st, n);
        let ext = ((n + 4) * (n + 4)) as usize;
        let input: Vec<f64> =
            (0..ext).map(|i| ((i as f64) * 0.23 + seed as f64 * 0.07).cos()).collect();
        let want = reference(&st, n, &input);

        let run = |m: &Module| {
            let src = BufView::from_data(vec![n + 4, n + 4], input.clone());
            let dst = BufView::from_data(vec![n + 4, n + 4], input.clone());
            Interpreter::new(m)
                .call_function("rand", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
                .unwrap();
            dst.to_vec()
        };
        assert!(close(&run(&m), &want), "seed {seed}: stencil level");
        let compiled = compile(m.clone(), &CompileOptions::shared_cpu()).unwrap();
        assert!(close(&run(&compiled.module), &want), "seed {seed}: optimized pipeline");
        let pipeline = compile_pipeline(&m, "rand").unwrap();
        let mut args = vec![input.clone(), input.clone()];
        Runner::new(pipeline, 4).step(&mut args).unwrap();
        assert!(close(&args[1], &want), "seed {seed}: threaded executor");
    }
}
