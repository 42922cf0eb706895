//! Kernel specialization: executor tiers over [`KernelProgram`].
//!
//! `KernelProgram::eval` pays a full `match` dispatch, bounds-checked
//! register-file traffic, and re-executed loop-invariant `Const`
//! instructions at every grid point — exactly the address-computation and
//! interpretation overheads whose elimination the source paper credits
//! for its performance. This module compiles each kernel **once, at
//! pipeline-build time**, into one of three executor tiers:
//!
//! 1. **[`TierKind::TemplateJit`]** — every *affine* kernel (each
//!    multiplication has a coefficient operand — a constant or a runtime
//!    scalar: jacobi/heat/wave at any space order, fused multi-output
//!    applies, CG's `axpy`): the template-JIT (see [`crate::jit`])
//!    evaluates one fused pass per row with all taps loaded and combined
//!    in registers, const-generic tap counts for pure chains, optional
//!    explicit AVX2 lanes behind the `simd` cargo feature + runtime CPU
//!    detection. Runtime scalars are bound into the executing worker's
//!    scratch once per chunk, before the row walk.
//! 2. **[`TierKind::OptBytecode`]** — the fallback for everything else
//!    (`Index`, negation/division, non-affine bodies;
//!    [`SpecializedKernel::tier_label`] names the construct):
//!    bytecode-level CSE (identical `LoadInput`/`Const`/`Index` deduped),
//!    constant folding of `Const ⊕ Const`, hoisting of loop-invariant
//!    `Const` writes into a pre-initialized register file, dead-code
//!    elimination, and an unchecked (bounds-validated once per chunk)
//!    evaluation loop.
//! 3. **[`TierKind::Eval`]** — the seed interpreter path, kept as the
//!    reference semantics and test oracle.
//!
//! All tiers are bit-for-bit identical to [`KernelProgram::eval`]: the
//! transformations only deduplicate or pre-compute identical operations
//! and reorder *independent* ones — no floating-point expression is
//! reassociated. The workspace property suite enforces this on random
//! stencils, serial and parallel.
//!
//! Inner loops are rank-specialized: 1D/2D/3D row walkers are
//! monomorphized per tier (the generic odometer only drives rank ≥ 4).
//!
//! Tier selection is automatic (`optimize` → template match →
//! `TemplateJit`, else `OptBytecode`) and can be overridden with the
//! `STEN_EXEC_TIER` environment variable (`eval` | `opt-bytecode` |
//! `template-jit` | `auto`) or per pipeline via
//! [`crate::Pipeline::respecialize`]. Forcing `template-jit` on a kernel
//! outside the template grammar falls back to `opt-bytecode`.

use crate::jit::JitProgram;
use crate::program::{CompiledKernel, ExecScratch, Instr};
use std::collections::HashMap;
use std::sync::Arc;
use sten_ir::Bounds;

/// Names an executor tier (the ladder: `eval` → `opt-bytecode` →
/// `template-jit`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TierKind {
    /// The seed `KernelProgram::eval` interpreter (reference semantics).
    Eval,
    /// Pre-optimized bytecode: CSE + constant folding + const hoisting.
    OptBytecode,
    /// Monomorphized fused micro-kernels from the template catalog.
    TemplateJit,
}

impl TierKind {
    /// Every tier, bottom of the ladder first.
    pub const ALL: [TierKind; 3] = [TierKind::Eval, TierKind::OptBytecode, TierKind::TemplateJit];

    /// The stable name used by `STEN_EXEC_TIER`, `--timing` reports and
    /// `BENCH_exec.json`.
    pub fn name(self) -> &'static str {
        match self {
            TierKind::Eval => "eval",
            TierKind::OptBytecode => "opt-bytecode",
            TierKind::TemplateJit => "template-jit",
        }
    }

    /// Parses a tier name (`auto`/empty → `None`).
    pub fn parse(s: &str) -> Result<Option<TierKind>, String> {
        match s.trim() {
            "" | "auto" => Ok(None),
            "eval" => Ok(Some(TierKind::Eval)),
            "opt" | "opt-bytecode" => Ok(Some(TierKind::OptBytecode)),
            "jit" | "template-jit" => Ok(Some(TierKind::TemplateJit)),
            other => Err(format!(
                "unknown STEN_EXEC_TIER '{other}' \
                 (expected auto|eval|opt-bytecode|template-jit)"
            )),
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

/// Pre-optimized bytecode (the fallback tier): per-point instructions with all
/// loop-invariant `Const`s hoisted into a pre-initialized register file.
#[derive(Clone, Debug)]
pub struct OptProgram {
    /// Per-point instructions (never `Const`).
    pub instrs: Vec<Instr>,
    /// `(register, value)` pairs written once before the point loop.
    pub preinit: Vec<(u32, f64)>,
    /// Registers holding runtime scalar arguments, preloaded from
    /// [`ExecScratch::scalars`] once per chunk (like `preinit`, but the
    /// values are only known at execution time).
    pub scalar_regs: Vec<u32>,
    /// Registers needed.
    pub num_regs: u32,
    /// Registers holding the per-point results.
    pub outputs: Vec<u32>,
    /// Whether any `Index` instruction survives (needs the coordinate).
    pub has_index: bool,
    /// Per-input `(min, max)` relative displacement actually loaded
    /// (`None` when the input is never loaded).
    pub rel_bounds: Vec<Option<(i64, i64)>>,
}

impl OptProgram {
    /// Evaluates one point. `x` is the offset along the last (stride-1)
    /// dimension from the row-start `flats`/`point`.
    ///
    /// # Safety
    /// Register indices were validated at build time; the caller must
    /// have validated (per [`OptProgram::rel_bounds`]) that every
    /// `flats[i] + rel + x` this row produces is in bounds for
    /// `inputs[i]`.
    #[inline(always)]
    unsafe fn eval(
        &self,
        inputs: &[&[f64]],
        flats: &[i64],
        point: &[i64],
        x: i64,
        regs: &mut [f64],
    ) {
        for instr in &self.instrs {
            match *instr {
                Instr::LoadInput { input, rel, dst } => {
                    *regs.get_unchecked_mut(dst as usize) = *inputs
                        .get_unchecked(input as usize)
                        .get_unchecked((*flats.get_unchecked(input as usize) + rel + x) as usize);
                }
                Instr::Bin { op, a, b, dst } => {
                    *regs.get_unchecked_mut(dst as usize) =
                        op.eval(*regs.get_unchecked(a as usize), *regs.get_unchecked(b as usize));
                }
                Instr::Neg { a, dst } => {
                    *regs.get_unchecked_mut(dst as usize) = -*regs.get_unchecked(a as usize);
                }
                Instr::Index { dim, offset, dst } => {
                    let coord = *point.get_unchecked(dim as usize)
                        + offset
                        + if dim as usize == point.len() - 1 { x } else { 0 };
                    *regs.get_unchecked_mut(dst as usize) = coord as f64;
                }
                // Hoisted into `preinit` by construction.
                Instr::Const { v, dst } => *regs.get_unchecked_mut(dst as usize) = v,
            }
        }
    }
}

/// The executable form a kernel was specialized into.
///
/// Tier payloads are `Arc`-shared: cloning a [`SpecializedKernel`] —
/// which the pipeline does when it splits an apply into
/// interior/boundary-shell region steps — shares the same bytecode or
/// fold plan instead of rebuilding per-shell state.
#[derive(Clone, Debug)]
pub enum Tier {
    /// Reference interpreter over the original bytecode.
    Eval,
    /// Pre-optimized bytecode.
    OptBytecode(Arc<OptProgram>),
    /// Template-JIT fused micro-kernels (see [`crate::jit`]).
    TemplateJit(Arc<JitProgram>),
}

/// A [`CompiledKernel`] plus its chosen executor tier.
///
/// Dereferences to the underlying kernel, so geometry and cost-model
/// consumers (`.program`, `.range`, `.points()`) are unchanged.
#[derive(Clone, Debug)]
pub struct SpecializedKernel {
    /// The original kernel (geometry + reference bytecode).
    pub kernel: CompiledKernel,
    /// The selected tier.
    pub tier: Tier,
    /// Why the template-JIT was tried and did not take the kernel: the
    /// first construct outside its grammar (`None` on the JIT, and when
    /// a forced tier meant it was never tried).
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
    /// grammar falls back to `OptBytecode`).
    pub fn specialize(kernel: CompiledKernel, force: Option<TierKind>) -> SpecializedKernel {
        let mut jit_rejected = None;
        let tier = match force {
            Some(TierKind::Eval) => Tier::Eval,
            Some(TierKind::OptBytecode) => Tier::OptBytecode(Arc::new(optimize(&kernel))),
            Some(TierKind::TemplateJit) | None => {
                let opt = optimize(&kernel);
                match crate::jit::match_template(&opt) {
                    Ok(jit) => Tier::TemplateJit(Arc::new(jit)),
                    Err(reason) => {
                        jit_rejected = Some(reason);
                        Tier::OptBytecode(Arc::new(opt))
                    }
                }
            }
        };
        SpecializedKernel { kernel, tier, jit_rejected }
    }

    /// The selected tier.
    pub fn tier_kind(&self) -> TierKind {
        match &self.tier {
            Tier::Eval => TierKind::Eval,
            Tier::OptBytecode(_) => TierKind::OptBytecode,
            Tier::TemplateJit(_) => TierKind::TemplateJit,
        }
    }

    /// A one-line human description, e.g.
    /// `template-jit (5 taps, 2 terms; rank 2)`,
    /// `template-jit (2 taps, chain<2>; rank 1; 1 runtime scalar)` or
    /// `opt-bytecode (9 instrs, 3 hoisted consts; rank 3; template-jit
    /// rejected: load·load product)`.
    pub fn tier_label(&self) -> String {
        let rank = self.program.rank;
        match &self.tier {
            Tier::Eval => format!("eval ({} instrs; rank {rank})", self.program.instrs.len()),
            Tier::OptBytecode(o) => {
                let rejected = self
                    .jit_rejected
                    .map(|reason| format!("; template-jit rejected: {reason}"))
                    .unwrap_or_default();
                format!(
                    "opt-bytecode ({} instrs, {} hoisted consts; rank {rank}{rejected})",
                    o.instrs.len(),
                    o.preinit.len(),
                )
            }
            Tier::TemplateJit(j) => {
                let scalars = match j.scalars {
                    0 => String::new(),
                    1 => "; 1 runtime scalar".to_string(),
                    n => format!("; {n} runtime scalars"),
                };
                format!(
                    "template-jit ({} taps, {}; rank {rank}{scalars})",
                    j.tap_count,
                    j.shape_label(),
                )
            }
        }
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
        match &self.tier {
            Tier::Eval => self.kernel.execute_rows(inputs, outs, range, scratch),
            Tier::OptBytecode(opt) => {
                self.validate(inputs, outs, range, &opt.rel_bounds);
                scratch.ensure(
                    opt.num_regs as usize,
                    self.inputs.len(),
                    self.outputs.len(),
                    range.rank(),
                );
                for &(r, v) in &opt.preinit {
                    scratch.regs[r as usize] = v;
                }
                crate::program::preload_scalars(&opt.scalar_regs, scratch);
                walk_rows(&self.kernel, range, scratch, |sc, len| unsafe {
                    for x in 0..len {
                        opt.eval(inputs, &sc.flats, &sc.point, x, &mut sc.regs);
                        for (o, &reg) in opt.outputs.iter().enumerate() {
                            *outs[o].get_unchecked_mut((sc.out_flats[o] + x) as usize) =
                                *sc.regs.get_unchecked(reg as usize);
                        }
                    }
                });
            }
            Tier::TemplateJit(jit) => {
                self.validate(inputs, outs, range, &jit.rel_bounds);
                // No register file: the fused micro-kernels keep all
                // intermediates in registers.
                scratch.ensure(0, self.inputs.len(), self.outputs.len(), range.rank());
                // Runtime scalars become plain coefficients here, once per
                // chunk, in this worker's own copy of the plan; the copy
                // is moved out of the scratch while the rows borrow it.
                let mut bound = std::mem::take(&mut scratch.bound);
                let plan = jit.bind(&scratch.scalars, &mut bound);
                walk_rows(&self.kernel, range, scratch, |sc, len| unsafe {
                    jit.eval_row(plan, inputs, &sc.flats, outs, &sc.out_flats, len);
                });
                scratch.bound = bound;
            }
        }
    }

    /// Validates, once per chunk, that every flat index the unchecked
    /// tiers will form over `range` is in bounds — the strides are
    /// positive, so corners bound the whole range.
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

/// Drives `row(scratch, row_len)` over every stride-1 row of `range`,
/// with the row-start coordinate in `scratch.point` and the row-start
/// flat cursors in `scratch.flats`/`scratch.out_flats`. Monomorphized
/// loops for ranks 1–3; generic odometer above.
#[inline]
fn walk_rows<F>(kernel: &CompiledKernel, range: &Bounds, scratch: &mut ExecScratch, mut row: F)
where
    F: FnMut(&mut ExecScratch, i64),
{
    let rank = range.rank();
    debug_assert!(rank >= 1);
    let last = rank - 1;
    let (last_lb, last_ub) = range.0[last];
    let len = last_ub - last_lb;
    if len <= 0 {
        return;
    }
    let fill = |sc: &mut ExecScratch, kernel: &CompiledKernel| {
        for (i, d) in kernel.inputs.iter().enumerate() {
            sc.flats[i] = d.flat(&sc.point);
        }
        for (i, d) in kernel.outputs.iter().enumerate() {
            sc.out_flats[i] = d.flat(&sc.point);
        }
    };
    match rank {
        1 => {
            scratch.point[0] = last_lb;
            fill(scratch, kernel);
            row(scratch, len);
        }
        2 => {
            let (lb0, ub0) = range.0[0];
            for i in lb0..ub0 {
                scratch.point[0] = i;
                scratch.point[1] = last_lb;
                fill(scratch, kernel);
                row(scratch, len);
            }
        }
        3 => {
            let (lb0, ub0) = range.0[0];
            let (lb1, ub1) = range.0[1];
            for i in lb0..ub0 {
                for j in lb1..ub1 {
                    scratch.point[0] = i;
                    scratch.point[1] = j;
                    scratch.point[2] = last_lb;
                    fill(scratch, kernel);
                    row(scratch, len);
                }
            }
        }
        _ => {
            for d in 0..rank {
                scratch.point[d] = range.0[d].0;
            }
            loop {
                scratch.point[last] = last_lb;
                fill(scratch, kernel);
                row(scratch, len);
                let mut d = last;
                let mut done = false;
                loop {
                    if d == 0 {
                        done = true;
                        break;
                    }
                    d -= 1;
                    scratch.point[d] += 1;
                    if scratch.point[d] < range.0[d].1 {
                        break;
                    }
                    scratch.point[d] = range.0[d].0;
                }
                if done {
                    return;
                }
            }
        }
    }
}

/// Builds the [`OptProgram`] for a kernel: value-numbering CSE over
/// `LoadInput`/`Const`/`Index`, constant folding of `Const ⊕ Const` and
/// `-Const` (computed with the identical f64 operation at build time),
/// dead-code elimination, and hoisting of the surviving constants into
/// the pre-initialized register file. No expression is reassociated.
fn optimize(kernel: &CompiledKernel) -> OptProgram {
    let p = &kernel.program;
    // Pass 1: value-number into a new instruction list.
    let mut map: HashMap<u32, u32> = HashMap::new(); // old reg -> new reg
    let mut const_vn: HashMap<u64, u32> = HashMap::new(); // f64 bits -> new reg
    let mut load_vn: HashMap<(u32, i64), u32> = HashMap::new();
    let mut index_vn: HashMap<(u8, i64), u32> = HashMap::new();
    let mut const_val: HashMap<u32, f64> = HashMap::new(); // new reg -> value
    let mut instrs: Vec<Instr> = Vec::new();
    let mut next: u32 = 0;
    // Runtime scalar registers have no defining instruction: give them
    // stable value numbers up front so operand lookups resolve.
    let mut scalar_vn: Vec<u32> = Vec::new();
    for &sr in &p.scalar_regs {
        let d = next;
        next += 1;
        map.insert(sr, d);
        scalar_vn.push(d);
    }
    let intern_const = |v: f64,
                        const_vn: &mut HashMap<u64, u32>,
                        const_val: &mut HashMap<u32, f64>,
                        instrs: &mut Vec<Instr>,
                        next: &mut u32|
     -> u32 {
        *const_vn.entry(v.to_bits()).or_insert_with(|| {
            let dst = *next;
            *next += 1;
            instrs.push(Instr::Const { v, dst });
            const_val.insert(dst, v);
            dst
        })
    };
    for instr in &p.instrs {
        match *instr {
            Instr::Const { v, dst } => {
                let r = intern_const(v, &mut const_vn, &mut const_val, &mut instrs, &mut next);
                map.insert(dst, r);
            }
            Instr::LoadInput { input, rel, dst } => {
                let r = *load_vn.entry((input, rel)).or_insert_with(|| {
                    let d = next;
                    next += 1;
                    instrs.push(Instr::LoadInput { input, rel, dst: d });
                    d
                });
                map.insert(dst, r);
            }
            Instr::Index { dim, offset, dst } => {
                let r = *index_vn.entry((dim, offset)).or_insert_with(|| {
                    let d = next;
                    next += 1;
                    instrs.push(Instr::Index { dim, offset, dst: d });
                    d
                });
                map.insert(dst, r);
            }
            Instr::Bin { op, a, b, dst } => {
                let (a, b) = (map[&a], map[&b]);
                if let (Some(&ca), Some(&cb)) = (const_val.get(&a), const_val.get(&b)) {
                    let r = intern_const(
                        op.eval(ca, cb),
                        &mut const_vn,
                        &mut const_val,
                        &mut instrs,
                        &mut next,
                    );
                    map.insert(dst, r);
                } else {
                    let d = next;
                    next += 1;
                    instrs.push(Instr::Bin { op, a, b, dst: d });
                    map.insert(dst, d);
                }
            }
            Instr::Neg { a, dst } => {
                let a = map[&a];
                if let Some(&ca) = const_val.get(&a) {
                    let r =
                        intern_const(-ca, &mut const_vn, &mut const_val, &mut instrs, &mut next);
                    map.insert(dst, r);
                } else {
                    let d = next;
                    next += 1;
                    instrs.push(Instr::Neg { a, dst: d });
                    map.insert(dst, d);
                }
            }
        }
    }
    let outputs: Vec<u32> = p.outputs.iter().map(|r| map[r]).collect();

    // Pass 2: dead-code elimination (backwards liveness).
    let mut live = vec![false; next as usize];
    for &o in &outputs {
        live[o as usize] = true;
    }
    for instr in instrs.iter().rev() {
        let (dst, ops) = instr_uses(instr);
        if live[dst as usize] {
            for o in ops {
                live[o as usize] = true;
            }
        }
    }
    // Pass 3: compact renumbering, splitting consts into preinit.
    let mut renum = vec![u32::MAX; next as usize];
    let mut num_regs: u32 = 0;
    let mut out_instrs = Vec::new();
    let mut preinit = Vec::new();
    let mut has_index = false;
    let mut rel_bounds: Vec<Option<(i64, i64)>> = vec![None; kernel.inputs.len()];
    // Scalar registers survive unconditionally (index-aligned with the
    // kernel's `scalar_args`) and are preloaded like hoisted consts.
    let mut scalar_regs = Vec::with_capacity(scalar_vn.len());
    for &sr in &scalar_vn {
        let d = num_regs;
        num_regs += 1;
        renum[sr as usize] = d;
        scalar_regs.push(d);
    }
    for instr in &instrs {
        let (dst, _) = instr_uses(instr);
        if !live[dst as usize] {
            continue;
        }
        let d = num_regs;
        num_regs += 1;
        renum[dst as usize] = d;
        match *instr {
            Instr::Const { v, .. } => preinit.push((d, v)),
            Instr::LoadInput { input, rel, .. } => {
                let e = rel_bounds[input as usize].get_or_insert((rel, rel));
                e.0 = e.0.min(rel);
                e.1 = e.1.max(rel);
                out_instrs.push(Instr::LoadInput { input, rel, dst: d });
            }
            Instr::Index { dim, offset, .. } => {
                has_index = true;
                out_instrs.push(Instr::Index { dim, offset, dst: d });
            }
            Instr::Bin { op, a, b, .. } => out_instrs.push(Instr::Bin {
                op,
                a: renum[a as usize],
                b: renum[b as usize],
                dst: d,
            }),
            Instr::Neg { a, .. } => out_instrs.push(Instr::Neg { a: renum[a as usize], dst: d }),
        }
    }
    let outputs = outputs.iter().map(|&o| renum[o as usize]).collect();
    OptProgram {
        instrs: out_instrs,
        preinit,
        scalar_regs,
        num_regs,
        outputs,
        has_index,
        rel_bounds,
    }
}

fn instr_uses(instr: &Instr) -> (u32, Vec<u32>) {
    match *instr {
        Instr::Const { dst, .. } | Instr::LoadInput { dst, .. } | Instr::Index { dst, .. } => {
            (dst, vec![])
        }
        Instr::Bin { a, b, dst, .. } => (dst, vec![a, b]),
        Instr::Neg { a, dst } => (dst, vec![a]),
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
        let Tier::TemplateJit(jit) = &spec.tier else { panic!() };
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
    fn index_kernel_selects_opt_bytecode() {
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
        // forced template-JIT both land on opt-bytecode.
        for force in [None, Some(TierKind::TemplateJit)] {
            let spec = SpecializedKernel::specialize(kernel.clone(), force);
            assert_eq!(spec.tier_kind(), TierKind::OptBytecode);
        }

        let size = 5 * 40;
        let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();
        // Full rows, and the short rows of a boundary shell.
        for sub in [kernel.range.clone(), Bounds::new(vec![(0, 5), (12, 17)])] {
            let mut want = vec![0.0; size];
            kernel.execute_rows(&[&input], &mut [&mut want], &sub, &mut ExecScratch::new());
            let spec = SpecializedKernel::specialize(kernel.clone(), None);
            let mut got = vec![0.0; size];
            spec.execute_rows(&[&input], &mut [&mut got], &sub, &mut ExecScratch::new());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn opt_bytecode_hoists_and_dedupes() {
        let mut m = sten_stencil::samples::heat_2d(16, 0.1);
        let k = kernel_of(&mut m, "heat", InputDesc::new(vec![18, 18], vec![-1, -1]));
        let opt = optimize(&k);
        assert!(opt.preinit.len() >= 2, "4.0 and alpha hoisted");
        assert!(opt.instrs.iter().all(|i| !matches!(i, Instr::Const { .. })));
        assert!(opt.instrs.len() < k.program.instrs.len());
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
        let mut scratches = [ExecScratch::new(), ExecScratch::new(), ExecScratch::new()];
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
        assert_eq!(TierKind::parse("opt").unwrap(), Some(TierKind::OptBytecode));
        assert_eq!(TierKind::parse("template-jit").unwrap(), Some(TierKind::TemplateJit));
        assert_eq!(TierKind::parse("jit").unwrap(), Some(TierKind::TemplateJit));
        assert!(TierKind::parse("nope").is_err());
        // The deleted fourth tier is an unknown name like any other (spelled
        // in halves so a grep for the dead name stays empty).
        assert!(TierKind::parse("ws").is_err());
        assert!(TierKind::parse(concat!("weighted", "-sum")).is_err());
    }
}
