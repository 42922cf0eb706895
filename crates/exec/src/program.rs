//! Bytecode compilation of `stencil.apply` regions.
//!
//! The apply body (straight-line `arith` + `stencil.access`/`index` ops)
//! compiles to register bytecode; relative access offsets become constant
//! flat-index displacements, the compiled analogue of the paper's
//! observation that type-carried bounds "enable constant-folding of most
//! of the memory access address computations".

use std::collections::HashMap;
use sten_ir::{Attribute, Bounds, Op, Type, Value};

/// One bytecode instruction; `dst`/`a`/`b` are register indices.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `regs[dst] = input[i].data[center_flat[i] + rel]`.
    LoadInput {
        /// Which apply input.
        input: u32,
        /// Constant flat displacement from the centre point.
        rel: i64,
        /// Destination register.
        dst: u32,
    },
    /// `regs[dst] = v`.
    Const {
        /// Literal value.
        v: f64,
        /// Destination register.
        dst: u32,
    },
    /// `regs[dst] = a ⊕ b`.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
        /// Destination register.
        dst: u32,
    },
    /// `regs[dst] = -a`.
    Neg {
        /// Operand register.
        a: u32,
        /// Destination register.
        dst: u32,
    },
    /// `regs[dst] = current logical coordinate along dim (+offset)`.
    Index {
        /// Dimension.
        dim: u8,
        /// Constant offset.
        offset: i64,
        /// Destination register.
        dst: u32,
    },
}

/// Binary float operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinOp {
    /// The operator of an `arith.{addf,subf,mulf,divf}` op name.
    pub fn from_arith(name: &str) -> Option<BinOp> {
        let name = name.strip_prefix("arith.")?;
        [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div].into_iter().find(|op| op.name() == name)
    }

    /// The `arith` op name without its dialect prefix.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "addf",
            BinOp::Sub => "subf",
            BinOp::Mul => "mulf",
            BinOp::Div => "divf",
        }
    }

    /// Applies the operator.
    #[inline(always)]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }
}

/// Memory layout of one apply input: the buffer it aliases.
///
/// Construct through [`InputDesc::new`] so the row-major strides are
/// computed once instead of on every [`InputDesc::flat`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct InputDesc {
    /// Allocation shape (row-major).
    pub shape: Vec<i64>,
    /// Logical coordinate of element `[0, ...]`.
    pub lb: Vec<i64>,
    /// Cached row-major strides (derived from `shape`).
    strides: Vec<i64>,
}

impl InputDesc {
    /// Builds a descriptor, caching the row-major strides.
    pub fn new(shape: Vec<i64>, lb: Vec<i64>) -> InputDesc {
        let rank = shape.len();
        let mut strides = vec![1i64; rank];
        for d in (0..rank.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1];
        }
        InputDesc { shape, lb, strides }
    }

    /// Row-major strides.
    pub fn strides(&self) -> &[i64] {
        &self.strides
    }

    /// Flat index of logical point `p`.
    #[inline]
    pub fn flat(&self, p: &[i64]) -> i64 {
        p.iter().zip(&self.lb).zip(&self.strides).map(|((&x, &lb), &s)| (x - lb) * s).sum()
    }

    /// Flat indices of the first and the last point of a non-empty
    /// `range` — with positive strides, the least and greatest flat index
    /// of any point in it.
    pub(crate) fn corner_flats(&self, range: &Bounds) -> (i64, i64) {
        let corner = |d: usize, p: i64| (p - self.lb[d]) * self.strides[d];
        range
            .0
            .iter()
            .enumerate()
            .fold((0, 0), |(lo, hi), (d, &(lb, ub))| (lo + corner(d, lb), hi + corner(d, ub - 1)))
    }
}

/// Reusable per-thread execution scratch: the register file and the
/// flat-index cursors. Hoisted out of the per-chunk execution calls so worker threads stop reallocating
/// them on every apply of every timestep.
#[derive(Clone, Debug, Default)]
pub struct ExecScratch {
    /// Bytecode register file.
    pub regs: Vec<f64>,
    /// Runtime scalar arguments for the current apply (one per entry of
    /// [`CompiledKernel::scalar_args`]), set by the caller before
    /// execution and preloaded into the scalar registers once per chunk.
    pub scalars: Vec<f64>,
    /// Per-input centre flat index of the current row start.
    pub flats: Vec<i64>,
    /// Per-output flat index of the current row start.
    pub out_flats: Vec<i64>,
    /// Current logical coordinate (for `Index` instructions).
    pub point: Vec<i64>,
    /// This worker's copy of the template-JIT plan being executed, with
    /// the runtime-scalar coefficients resolved for the current chunk
    /// (see [`crate::jit::JitProgram::bind`]; untouched by kernels that
    /// take no runtime scalar).
    pub(crate) bound: crate::jit::JitPlan,
}

impl ExecScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// Resizes the buffers for a kernel's geometry. Cheap when the sizes
    /// already match (the steady state inside a timestep loop).
    pub fn ensure(&mut self, regs: usize, inputs: usize, outputs: usize, rank: usize) {
        self.regs.resize(regs, 0.0);
        self.flats.resize(inputs, 0);
        self.out_flats.resize(outputs, 0);
        self.point.resize(rank, 0);
    }
}

/// Splits `range` into at most `parts` contiguous sub-ranges along its
/// longest dimension. Any iteration dimension is safe to split: each grid
/// point writes only its own output cells, so chunks of any dimension
/// write disjoint cells. Returns fewer than `parts` chunks when the
/// longest extent is too small to give every chunk at least two rows.
/// Extent ties break toward the *outermost* dimension, so square domains
/// keep the cache-friendly outer-slab chunking and stride-1 rows stay
/// whole.
pub fn split_longest_dim(range: &Bounds, parts: usize) -> Vec<Bounds> {
    let rank = range.rank();
    if rank == 0 || parts <= 1 {
        return vec![range.clone()];
    }
    let dim =
        (0..rank).max_by_key(|&d| (range.0[d].1 - range.0[d].0, std::cmp::Reverse(d))).unwrap_or(0);
    let (lb, ub) = range.0[dim];
    let n = ub - lb;
    let parts = (parts as i64).min(n / 2).max(1);
    if parts <= 1 {
        return vec![range.clone()];
    }
    let chunk = (n + parts - 1) / parts;
    let mut subs = Vec::new();
    let mut start = lb;
    while start < ub {
        let end = (start + chunk).min(ub);
        let mut sub = range.clone();
        sub.0[dim] = (start, end);
        subs.push(sub);
        start = end;
    }
    subs
}

/// A compiled apply body with its cost model.
#[derive(Clone, Debug)]
pub struct KernelProgram {
    /// The instructions, in dependency order.
    pub instrs: Vec<Instr>,
    /// Registers needed.
    pub num_regs: u32,
    /// Registers holding the per-point results.
    pub outputs: Vec<u32>,
    /// Registers holding runtime scalar arguments (entry `k` is loaded
    /// from `ExecScratch::scalars[k]` before the point loop — no
    /// instruction writes them, so the values persist across points).
    pub scalar_regs: Vec<u32>,
    /// Dimensionality.
    pub rank: usize,
    /// Floating-point operations per grid point.
    pub flops: usize,
    /// Input loads per grid point.
    pub loads: usize,
    /// Number of *distinct* (input, offset) pairs — the stencil's point
    /// count (e.g. 5 for a 2D 5-point star).
    pub stencil_points: usize,
    /// The distinct (input, per-dimension offset) pairs themselves,
    /// sorted. Unlike the flattened `Instr::LoadInput` displacements,
    /// these preserve dimensionality, so consumers (e.g. the performance
    /// model) can recover the true per-axis radius.
    pub offsets: Vec<(u32, Vec<i64>)>,
}

impl KernelProgram {
    /// The stencil radius: the largest per-dimension offset magnitude
    /// over every access (e.g. 1 for a space-order-2 star).
    pub fn radius(&self) -> i64 {
        self.offsets
            .iter()
            .flat_map(|(_, offset)| offset.iter().map(|c| c.abs()))
            .max()
            .unwrap_or(0)
    }
}

impl KernelProgram {
    /// Evaluates the program at one point. `flats[i]` is the centre flat
    /// index into input `i`; `point` is the logical coordinate (for
    /// `Index` instructions).
    #[inline]
    pub fn eval(&self, inputs: &[&[f64]], flats: &[i64], point: &[i64], regs: &mut [f64]) {
        for instr in &self.instrs {
            match *instr {
                Instr::LoadInput { input, rel, dst } => {
                    regs[dst as usize] =
                        inputs[input as usize][(flats[input as usize] + rel) as usize];
                }
                Instr::Const { v, dst } => regs[dst as usize] = v,
                Instr::Bin { op, a, b, dst } => {
                    regs[dst as usize] = op.eval(regs[a as usize], regs[b as usize]);
                }
                Instr::Neg { a, dst } => regs[dst as usize] = -regs[a as usize],
                Instr::Index { dim, offset, dst } => {
                    regs[dst as usize] = (point[dim as usize] + offset) as f64;
                }
            }
        }
    }
}

/// A fully described kernel: program + geometry.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// The bytecode.
    pub program: KernelProgram,
    /// Iteration range in logical coordinates.
    pub range: Bounds,
    /// Input buffer layouts (parallel to the apply operands that are
    /// temps).
    pub inputs: Vec<InputDesc>,
    /// Output buffer layout (one per result).
    pub outputs: Vec<InputDesc>,
    /// Pipeline scalar-slot index feeding each entry of
    /// [`KernelProgram::scalar_regs`] (empty for fully constant kernels).
    /// The runner copies slot values into [`ExecScratch::scalars`] before
    /// each execution.
    pub scalar_args: Vec<usize>,
}

impl CompiledKernel {
    /// Grid points per execution.
    pub fn points(&self) -> i64 {
        self.range.num_points()
    }

    /// Executes over `inputs` into `outs`, serially.
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the descriptors.
    pub fn execute(&self, inputs: &[&[f64]], outs: &mut [&mut [f64]]) {
        let mut scratch = ExecScratch::new();
        self.execute_rows(inputs, outs, &self.range.clone(), &mut scratch);
    }

    /// Executes rows of `range` (which must be a sub-range of
    /// `self.range`) reusing `scratch` across calls.
    pub fn execute_rows(
        &self,
        inputs: &[&[f64]],
        outs: &mut [&mut [f64]],
        range: &Bounds,
        scratch: &mut ExecScratch,
    ) {
        let rank = range.rank();
        debug_assert!(rank >= 1);
        scratch.ensure(self.program.num_regs as usize, self.inputs.len(), self.outputs.len(), rank);
        preload_scalars(&self.program.scalar_regs, scratch);
        let ExecScratch { regs, flats, out_flats, point, .. } = scratch;
        for_each_row(range, |p, len| {
            point.copy_from_slice(p);
            self.row_flats(p, flats, out_flats);
            for _ in 0..len {
                self.program.eval(inputs, flats, point, regs);
                for (o, &reg) in self.program.outputs.iter().enumerate() {
                    outs[o][out_flats[o] as usize] = regs[reg as usize];
                }
                // Advance one element along the (stride-1) last dimension.
                flats.iter_mut().for_each(|f| *f += 1);
                out_flats.iter_mut().for_each(|f| *f += 1);
                point[rank - 1] += 1;
            }
        });
    }

    /// The flat index of point `p` in every input and every output.
    #[inline]
    pub(crate) fn row_flats(&self, p: &[i64], flats: &mut [i64], out_flats: &mut [i64]) {
        for (f, d) in flats.iter_mut().zip(&self.inputs) {
            *f = d.flat(p);
        }
        for (f, d) in out_flats.iter_mut().zip(&self.outputs) {
            *f = d.flat(p);
        }
    }
}

/// Drives `row(point, len)` over every stride-1 row of `range` in
/// row-major order: `point` is the row's first coordinate, `len` its
/// length. The crate's one row walker — kernel tiers, copies, reductions
/// and halo pack/unpack all walk their ranges through it. Ranks 1–3 are
/// plain nested loops over a stack point; higher ranks run an odometer.
/// An empty range (or rank 0) visits nothing.
#[inline]
pub(crate) fn for_each_row(range: &Bounds, mut row: impl FnMut(&[i64], usize)) {
    let b = &range.0;
    if b.is_empty() || b.iter().any(|&(lb, ub)| ub <= lb) {
        return;
    }
    let last = b.len() - 1;
    let (lb, ub) = b[last];
    let len = (ub - lb) as usize;
    match b.len() {
        1 => row(&[lb], len),
        2 => (b[0].0..b[0].1).for_each(|i| row(&[i, lb], len)),
        3 => {
            for i in b[0].0..b[0].1 {
                for j in b[1].0..b[1].1 {
                    row(&[i, j, lb], len);
                }
            }
        }
        _ => {
            let mut p = range.lower();
            loop {
                row(&p, len);
                // Advance the outer dimensions, innermost first.
                let Some(d) = (0..last).rev().find(|&d| p[d] + 1 < b[d].1) else { return };
                p[d] += 1;
                p[d + 1..last].iter_mut().zip(&b[d + 1..last]).for_each(|(x, r)| *x = r.0);
            }
        }
    }
}

/// Copies the runtime scalar arguments from `scratch.scalars` into their
/// registers (no instruction writes them, so one preload per chunk
/// suffices).
///
/// # Panics
/// Panics if the caller did not provide every scalar argument.
pub(crate) fn preload_scalars(scalar_regs: &[u32], scratch: &mut ExecScratch) {
    assert_scalars_provided(scalar_regs.len(), scratch.scalars.len());
    for (k, &r) in scalar_regs.iter().enumerate() {
        scratch.regs[r as usize] = scratch.scalars[k];
    }
}

/// The once-per-chunk check every tier makes before reading
/// [`ExecScratch::scalars`].
///
/// # Panics
/// Panics if the caller did not provide every scalar argument.
pub(crate) fn assert_scalars_provided(taken: usize, provided: usize) {
    assert!(
        provided >= taken,
        "kernel takes {taken} runtime scalar argument(s) but only {provided} were provided"
    );
}

/// Raw output pointers that may cross thread boundaries (the pooled
/// parallel execution path); safety rests on the
/// chunks being disjoint slabs of one dimension, with each grid point
/// writing only its own output cells.
pub(crate) struct SendPtr(pub *mut f64, pub usize);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Re-materializes the output slices behind `ptrs` for one worker.
///
/// # Safety
/// Callers must guarantee the workers' write sets are disjoint at the
/// cell level (disjoint range chunks) and that the pointers outlive the
/// worker (the parallel driver joins before returning).
// The `&mut` slices intentionally alias across workers at the buffer
// level (never at the cell level) — that aliasing contract, not the
// input borrow, is what the safety comment governs.
#[allow(clippy::mut_from_ref)]
pub(crate) unsafe fn rematerialize_outs(ptrs: &[SendPtr]) -> Vec<&mut [f64]> {
    ptrs.iter().map(|p| std::slice::from_raw_parts_mut(p.0, p.1)).collect()
}

/// Compiles a `stencil.apply` op into a [`CompiledKernel`].
///
/// `input_descs` gives the buffer layout for each temp operand. Scalar
/// operands are either `arith.constant`-defined (looked up in
/// `scalar_consts` and baked into the bytecode) or *runtime* scalars
/// (looked up in `scalar_slots` — pipeline scalar slots holding function
/// arguments or earlier reduction results — and loaded from
/// [`ExecScratch::scalars`] at execution time); `output_descs` gives the
/// layout each result is written to.
///
/// # Errors
/// Reports unsupported body ops (e.g. `dyn_access`, `select`) and unknown
/// scalar operands.
pub fn compile_apply(
    apply: &Op,
    vt: &sten_ir::ValueTable,
    input_descs: Vec<Option<InputDesc>>,
    output_descs: Vec<InputDesc>,
    scalar_consts: &HashMap<Value, f64>,
    scalar_slots: &HashMap<Value, usize>,
) -> Result<CompiledKernel, String> {
    let range = {
        let lb = apply.attr("lb").and_then(Attribute::as_dense).ok_or("apply missing lb")?;
        let ub = apply.attr("ub").and_then(Attribute::as_dense).ok_or("apply missing ub")?;
        Bounds::new(lb.iter().copied().zip(ub.iter().copied()).collect())
    };
    let block = apply.region_block(0);
    // Map temp args to compact input indices; scalars to constants.
    let mut temp_inputs: Vec<InputDesc> = Vec::new();
    let mut arg_input: HashMap<Value, u32> = HashMap::new();
    let mut arg_const: HashMap<Value, f64> = HashMap::new();
    // Runtime scalar operands: (block arg, pipeline slot), registers
    // allocated below.
    let mut arg_scalars: Vec<(Value, usize)> = Vec::new();
    for ((&operand, &arg), desc) in apply.operands.iter().zip(&block.args).zip(input_descs) {
        match vt.ty(operand) {
            Type::Temp(_) => {
                let desc = desc.ok_or("missing input descriptor for temp operand")?;
                arg_input.insert(arg, temp_inputs.len() as u32);
                temp_inputs.push(desc);
            }
            _ => {
                if let Some(&v) = scalar_consts.get(&operand) {
                    arg_const.insert(arg, v);
                } else if let Some(&slot) = scalar_slots.get(&operand) {
                    arg_scalars.push((arg, slot));
                } else {
                    return Err("scalar apply operand is not a known constant".into());
                }
            }
        }
    }

    let mut regs: HashMap<Value, u32> = HashMap::new();
    let mut next_reg: u32 = 0;
    let alloc = |v: Value, regs: &mut HashMap<Value, u32>, next: &mut u32| {
        let r = *next;
        regs.insert(v, r);
        *next += 1;
        r
    };
    // Runtime scalars live in registers preloaded once per chunk (no
    // instruction writes them).
    let mut scalar_regs: Vec<u32> = Vec::new();
    let mut scalar_args: Vec<usize> = Vec::new();
    for &(arg, slot) in &arg_scalars {
        scalar_regs.push(alloc(arg, &mut regs, &mut next_reg));
        scalar_args.push(slot);
    }
    let mut instrs = Vec::new();
    let mut flops = 0usize;
    let mut loads = 0usize;
    let mut seen_offsets: std::collections::HashSet<(u32, Vec<i64>)> =
        std::collections::HashSet::new();
    let mut outputs = Vec::new();

    let reg_of = |v: Value,
                  regs: &HashMap<Value, u32>,
                  arg_const: &HashMap<Value, f64>|
     -> Result<Result<u32, f64>, String> {
        if let Some(&r) = regs.get(&v) {
            Ok(Ok(r))
        } else if let Some(&c) = arg_const.get(&v) {
            Ok(Err(c))
        } else {
            Err(format!("value {v:?} not materialised in kernel"))
        }
    };

    for op in &block.ops {
        match op.name.as_str() {
            "arith.constant" => {
                let v = op
                    .attr("value")
                    .and_then(Attribute::as_f64)
                    .ok_or("non-float constant in apply body")?;
                let dst = alloc(op.result(0), &mut regs, &mut next_reg);
                instrs.push(Instr::Const { v, dst });
            }
            "stencil.access" => {
                let input =
                    *arg_input.get(&op.operand(0)).ok_or("access to a non-argument temp")?;
                let offset: Vec<i64> = op
                    .attr("offset")
                    .and_then(Attribute::as_dense)
                    .ok_or("access without offset")?
                    .to_vec();
                let strides = temp_inputs[input as usize].strides();
                let rel: i64 = offset.iter().zip(strides).map(|(o, s)| o * s).sum();
                let dst = alloc(op.result(0), &mut regs, &mut next_reg);
                instrs.push(Instr::LoadInput { input, rel, dst });
                loads += 1;
                seen_offsets.insert((input, offset));
            }
            "stencil.index" => {
                let dim = op.attr("dim").and_then(Attribute::as_int).unwrap_or(0) as u8;
                let offset = op.attr("offset").and_then(Attribute::as_int).unwrap_or(0);
                let dst = alloc(op.result(0), &mut regs, &mut next_reg);
                instrs.push(Instr::Index { dim, offset, dst });
            }
            // `stencil.index` already yields its coordinate as an f64.
            "arith.sitofp" => {
                let r = reg_of(op.operand(0), &regs, &arg_const)?
                    .map_err(|_| "sitofp of a constant")?;
                regs.insert(op.result(0), r);
            }
            name if BinOp::from_arith(name).is_some() => {
                let bin = BinOp::from_arith(name).expect("guarded");
                let fetch = |v: Value, instrs: &mut Vec<Instr>, next: &mut u32| match reg_of(
                    v, &regs, &arg_const,
                )? {
                    Ok(r) => Ok::<u32, String>(r),
                    Err(c) => {
                        let dst = *next;
                        *next += 1;
                        instrs.push(Instr::Const { v: c, dst });
                        Ok(dst)
                    }
                };
                let a = fetch(op.operand(0), &mut instrs, &mut next_reg)?;
                let b = fetch(op.operand(1), &mut instrs, &mut next_reg)?;
                let dst = alloc(op.result(0), &mut regs, &mut next_reg);
                instrs.push(Instr::Bin { op: bin, a, b, dst });
                flops += 1;
            }
            "arith.negf" => {
                let a = match reg_of(op.operand(0), &regs, &arg_const)? {
                    Ok(r) => r,
                    Err(c) => {
                        let dst = next_reg;
                        next_reg += 1;
                        instrs.push(Instr::Const { v: c, dst });
                        dst
                    }
                };
                let dst = alloc(op.result(0), &mut regs, &mut next_reg);
                instrs.push(Instr::Neg { a, dst });
                flops += 1;
            }
            "stencil.return" => {
                for &v in &op.operands {
                    match reg_of(v, &regs, &arg_const)? {
                        Ok(r) => outputs.push(r),
                        Err(c) => {
                            let dst = next_reg;
                            next_reg += 1;
                            instrs.push(Instr::Const { v: c, dst });
                            outputs.push(dst);
                        }
                    }
                }
            }
            other => return Err(format!("unsupported op in apply body: {other}")),
        }
    }
    let rank = range.rank();
    let mut offsets: Vec<(u32, Vec<i64>)> = seen_offsets.into_iter().collect();
    offsets.sort();
    Ok(CompiledKernel {
        program: KernelProgram {
            instrs,
            num_regs: next_reg,
            outputs,
            scalar_regs,
            rank,
            flops,
            loads,
            stencil_points: offsets.len(),
            offsets,
        },
        range,
        inputs: temp_inputs,
        outputs: output_descs,
        scalar_args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(shape: Vec<i64>, lb: Vec<i64>) -> InputDesc {
        InputDesc::new(shape, lb)
    }

    #[test]
    fn strides_and_flat_are_row_major() {
        let d = desc(vec![4, 5, 6], vec![0, 0, 0]);
        assert_eq!(d.strides(), &[30, 6, 1]);
        assert_eq!(d.flat(&[1, 2, 3]), 45);
        let with_halo = desc(vec![6], vec![-1]);
        assert_eq!(with_halo.flat(&[0]), 1);
    }

    #[test]
    fn for_each_row_visits_every_point_once_in_row_major_order() {
        // Every rank 1–5, each extent 0, 1 or 3 wide, from a shifted
        // lower bound (negative in some dimensions).
        let mut ranges = Vec::new();
        for rank in 1..=5u32 {
            for code in 0..3usize.pow(rank) {
                let dims = (0..rank as usize).map(|d| {
                    let width = [0, 1, 3][code / 3usize.pow(d as u32) % 3];
                    let lb = d as i64 - 2;
                    (lb, lb + width)
                });
                ranges.push(Bounds::new(dims.collect()));
            }
        }
        for range in &ranges {
            let mut got = Vec::new();
            for_each_row(range, |p, len| {
                assert_eq!(p.len(), range.rank());
                assert!(len > 0, "{range:?}: empty row");
                got.extend((0..len as i64).map(|x| {
                    let mut q = p.to_vec();
                    q[range.rank() - 1] += x;
                    q
                }));
            });
            // Point `k` of the range, counted in row-major order.
            let widths: Vec<i64> = range.0.iter().map(|&(lb, ub)| (ub - lb).max(0)).collect();
            let want: Vec<Vec<i64>> = (0..widths.iter().product::<i64>())
                .map(|k| {
                    let mut rest = k;
                    let mut q = vec![0; widths.len()];
                    for d in (0..widths.len()).rev() {
                        q[d] = range.0[d].0 + rest % widths[d];
                        rest /= widths[d];
                    }
                    q
                })
                .collect();
            assert_eq!(got, want, "{range:?}");
        }
    }

    #[test]
    fn hand_built_program_evaluates() {
        // out = in[x-1] + in[x+1] - 2*in[x]
        let prog = KernelProgram {
            instrs: vec![
                Instr::LoadInput { input: 0, rel: -1, dst: 0 },
                Instr::LoadInput { input: 0, rel: 1, dst: 1 },
                Instr::LoadInput { input: 0, rel: 0, dst: 2 },
                Instr::Const { v: 2.0, dst: 3 },
                Instr::Bin { op: BinOp::Add, a: 0, b: 1, dst: 4 },
                Instr::Bin { op: BinOp::Mul, a: 3, b: 2, dst: 5 },
                Instr::Bin { op: BinOp::Sub, a: 4, b: 5, dst: 6 },
            ],
            num_regs: 7,
            outputs: vec![6],
            scalar_regs: vec![],
            rank: 1,
            flops: 3,
            loads: 3,
            stencil_points: 3,
            offsets: vec![(0, vec![-1]), (0, vec![0]), (0, vec![1])],
        };
        assert_eq!(prog.radius(), 1);
        let input = [1.0, 2.0, 4.0, 8.0];
        let mut regs = vec![0.0; 7];
        prog.eval(&[&input], &[1], &[1], &mut regs);
        assert_eq!(regs[6], 1.0 + 4.0 - 2.0 * 2.0);
    }

    #[test]
    fn compiled_jacobi_matches_interp() {
        use sten_ir::Pass as _;
        let mut m = sten_stencil::samples::jacobi_1d(64);
        sten_stencil::ShapeInference.run(&mut m).unwrap();
        let func = m.lookup_symbol("jacobi").unwrap();
        let apply = func.region_block(0).ops.iter().find(|o| o.name == "stencil.apply").unwrap();
        let kernel = compile_apply(
            apply,
            &m.values,
            vec![Some(desc(vec![64], vec![0]))],
            vec![desc(vec![64], vec![0])],
            &HashMap::new(),
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(kernel.program.flops, 3);
        assert_eq!(kernel.program.loads, 3);
        assert_eq!(kernel.program.stencil_points, 3);
        assert_eq!(kernel.points(), 62);

        let input: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let mut out = input.clone();
        kernel.execute(&[&input], &mut [&mut out]);

        // Reference.
        let mut want = input.clone();
        for i in 1..63 {
            want[i] = input[i - 1] + input[i + 1] - 2.0 * input[i];
        }
        assert_eq!(out, want);
    }

    #[test]
    fn chunked_cover_matches_serial() {
        use sten_ir::Pass as _;
        let n = 64i64;
        let mut m = sten_stencil::samples::heat_2d(n, 0.1);
        sten_stencil::ShapeInference.run(&mut m).unwrap();
        let func = m.lookup_symbol("heat").unwrap();
        let apply = func.region_block(0).ops.iter().find(|o| o.name == "stencil.apply").unwrap();
        let d = desc(vec![n + 2, n + 2], vec![-1, -1]);
        let kernel = compile_apply(
            apply,
            &m.values,
            vec![Some(d.clone())],
            vec![d],
            &HashMap::new(),
            &HashMap::new(),
        )
        .unwrap();
        let size = ((n + 2) * (n + 2)) as usize;
        let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut serial = vec![0.0; size];
        let mut chunked = vec![0.0; size];
        kernel.execute(&[&input], &mut [&mut serial]);
        // The chunks the worker pool hands out cover the range disjointly.
        let subs = split_longest_dim(&kernel.range, 4);
        assert_eq!(subs.len(), 4);
        for sub in &subs {
            kernel.execute_rows(&[&input], &mut [&mut chunked], sub, &mut ExecScratch::new());
        }
        assert_eq!(serial, chunked);
    }

    #[test]
    fn rejects_unsupported_bodies() {
        use sten_ir::Pass as _;
        let mut m = sten_stencil::samples::jacobi_1d(64);
        sten_stencil::ShapeInference.run(&mut m).unwrap();
        // Inject a dyn_access into the body.
        let func = m.lookup_symbol_mut("jacobi").unwrap();
        let apply =
            func.region_block_mut(0).ops.iter_mut().find(|o| o.name == "stencil.apply").unwrap();
        apply.region_block_mut(0).ops[0].name = "stencil.dyn_access".into();
        let apply = apply.clone();
        let err = compile_apply(
            &apply,
            &m.values,
            vec![Some(desc(vec![64], vec![0]))],
            vec![desc(vec![64], vec![0])],
            &HashMap::new(),
            &HashMap::new(),
        )
        .unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn runtime_scalar_arg_compiles_and_evaluates() {
        use sten_ir::Pass as _;
        let n = 16i64;
        let full = Bounds::new(vec![(0, n)]);
        let mut m = sten_stencil::samples::axpy(full.clone(), full);
        sten_stencil::ShapeInference.run(&mut m).unwrap();
        let func = m.lookup_symbol("axpy").unwrap();
        let apply = func.region_block(0).ops.iter().find(|o| o.name == "stencil.apply").unwrap();
        // The alpha operand is the function's F64 argument — a runtime
        // scalar assigned pipeline slot 0.
        let alpha_value =
            *func.region_block(0).args.iter().find(|&&a| *m.values.ty(a) == Type::F64).unwrap();
        let slots: HashMap<Value, usize> = HashMap::from([(alpha_value, 0)]);
        let d = desc(vec![n], vec![0]);
        let kernel = compile_apply(
            apply,
            &m.values,
            vec![Some(d.clone()), Some(d.clone()), None],
            vec![d],
            &HashMap::new(),
            &slots,
        )
        .unwrap();
        assert_eq!(kernel.scalar_args, vec![0]);
        assert_eq!(kernel.program.scalar_regs.len(), 1);

        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let alpha = 1.5;
        let mut out = vec![0.0; n as usize];
        let mut scratch = ExecScratch::new();
        scratch.scalars = vec![alpha];
        let range = kernel.range.clone();
        kernel.execute_rows(&[&a, &b], &mut [&mut out], &range, &mut scratch);
        let want: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x + alpha * y).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn missing_runtime_scalar_is_reported() {
        use sten_ir::Pass as _;
        let full = Bounds::new(vec![(0, 16)]);
        let mut m = sten_stencil::samples::axpy(full.clone(), full);
        sten_stencil::ShapeInference.run(&mut m).unwrap();
        let func = m.lookup_symbol("axpy").unwrap();
        let apply = func.region_block(0).ops.iter().find(|o| o.name == "stencil.apply").unwrap();
        let d = desc(vec![16], vec![0]);
        let err = compile_apply(
            apply,
            &m.values,
            vec![Some(d.clone()), Some(d.clone()), None],
            vec![d],
            &HashMap::new(),
            &HashMap::new(),
        )
        .unwrap_err();
        assert!(err.contains("not a known constant"), "{err}");
    }
}
