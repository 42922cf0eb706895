//! Template-JIT executor tier: monomorphized fused micro-kernels.
//!
//! Real stencil compilers (Devito's generated C, the paper's LLVM path)
//! emit **one fused loop per kernel**, whatever the space order: all
//! taps are loaded into registers, combined in registers, and stored
//! once. This tier does the same for every *affine* kernel (each
//! multiplication has a coefficient operand — a constant, or a runtime
//! scalar); everything else runs on the opt-bytecode fallback (see
//! [`crate::specialize`]).
//!
//! True runtime codegen needs a backend (cranelift) this repo cannot
//! depend on, so this module does the next-best thing — a **template
//! JIT**: a catalog of pre-compiled, monomorphized `#[inline(never)]`
//! micro-kernels covering the stencil shapes the specializer actually
//! sees, selected at pipeline-build time by matching the optimized
//! bytecode's combine DAG. The catalog is parameterized by runtime data
//! (taps, coefficients, strides) but its *shape* — tap counts (const
//! generics), fold structure, lane width — is fixed at compile time, so
//! the inner loops carry no interpretation dispatch at all.
//!
//! The matched shape is a two-level fold mirroring how frontends emit
//! stencils (`out = Σ groups, group = [c ·] Σ elements`):
//!
//! ```text
//! out   := term₁ ⊕ term₂ ⊕ … ⊕ term_G         (left fold, ⊕ ∈ {+,−})
//! term  := elem                                (plain element)
//!        | [c ·] (elem₁ ⊕ … ⊕ elem_T)         (coefficient-scaled group fold)
//! elem  := tap | tap ⊕ tap | c
//! tap   := load | c · load | load · c          (one grid load)
//! c     := const | runtime scalar              (a coefficient)
//! ```
//!
//! jacobi-1d matches as a pure 3-tap chain, the hand-built heat-2d as
//! `c + s·(((u+d)+(l+r)) − k·c)` (one plain term + one scaled group),
//! the Devito space-order-2 operators as one scaled group plus trailing
//! taps (heat-3d: `s·(a+b+c+d+e+f) + g·centre`; wave-3d adds a second
//! scaled tap), CG's `axpy` (`a + α·b`, α a function argument) as a
//! 2-tap chain with one late-bound coefficient. Kernels outside the grammar (`Index`
//! terms, negation or division, `load · load`, arithmetic between
//! coefficients, nesting deeper than two levels) stay on the
//! opt-bytecode tier — tier selection is a pure win-or-fall-back, and
//! [`match_template`] names the first construct that caused the fall.
//!
//! **Binding.** A runtime scalar is a constant that arrives late: the
//! matcher records its [`Slot`] where a constant would record its value,
//! and the matched [`JitPlan`] stays immutable inside the shared
//! [`JitProgram`]. [`JitProgram::bind`] resolves the slots **once per
//! chunk**, before the row walk: it copies the plan (a few hundred
//! bytes) into the executing worker's [`crate::ExecScratch`], reusing
//! the allocations of the copy it made there the time before, and writes
//! the current scalar values into the copy. The evaluators only ever see
//! resolved `f64` coefficients, so they are the same code, with the same
//! per-point op sequence, for both kinds — and [`Slot`] is two bytes in
//! what was padding, so the structs they stride over keep their size. A
//! kernel with no runtime scalar is evaluated straight from the shared
//! plan, with no copy.
//!
//! **Flattened outputs.** Most shipped kernels are one shape: an
//! optionally scaled group of `T` taps followed by up to [`MAX_TRAIL`]
//! trailing taps, `[s ·] (tap₁ ⊕ … ⊕ tap_T) [⊕ tap′ [⊕ tap″]]` — every
//! Devito space-order-2 operator, and, with no scale and no trailing
//! tap, every pure tap chain (jacobi-1d, axpy). The matcher records it a
//! second time, flattened into a [`JitFlat`], and it runs on
//! [`flat_row`]: one const-generic row kernel per group length, which
//! resolves the row's tap base pointers once per row, before its block
//! loop, instead of re-deriving them and walking the fold plan's enums
//! on every block as [`fold_row`] does.
//!
//! **Caps.** The general evaluator ([`fold_row`]) loops over `Vec`s, so
//! fold lengths are bounded only to keep the matcher and the per-point
//! work finite: [`MAX_FOLD`] (terms per output, elements per group)
//! covers a space-order-16 star in 3D (49 taps) with room to spare, and
//! [`MAX_OPS`] bounds the
//! recomputation a shared sub-expression costs (a fold re-evaluates it at
//! every use). Only [`flat_row`] is monomorphized per length, so a
//! flattened group stops at [`MAX_GROUP`] taps; longer ones take the
//! general evaluator.
//!
//! **Bit-exactness.** Evaluation replays exactly the operation sequence
//! of the matched DAG per point: every tap is scaled with the recorded
//! operand order, every fold applies the recorded operator with the
//! accumulator on the recorded side, no expression is reassociated and
//! no FMA contraction is introduced (products and sums stay separate
//! instructions). Vectorization only batches *across* points — each lane
//! executes the same scalar op sequence — so results are bit-for-bit
//! identical to `KernelProgram::eval`, which the random-stencil property
//! suite enforces across strategies, overlap, halo depth and threads.
//!
//! **Lanes.** Rows are evaluated eight points at a time through the
//! [`Lanes`] abstraction: a portable `[f64; 8]` implementation whose
//! fixed-width loops the compiler auto-vectorizes on any target, and —
//! behind the `simd` cargo feature on x86_64, gated at runtime by
//! `is_x86_feature_detected!("avx2")` — an explicit AVX2 implementation
//! (two `__m256d` halves per block). Row remainders run the scalar path,
//! which is bit-identical by construction.

use crate::program::{BinOp, Instr};
use crate::specialize::OptProgram;

/// Maximum length of one fold: top-level terms, or elements of a group.
const MAX_FOLD: usize = 64;
/// Maximum evaluated operations per output (guards the recomputation
/// that DAG sharing introduces).
const MAX_OPS: usize = 512;
/// Longest group with a monomorphized [`flat_row`] kernel.
const MAX_GROUP: usize = 16;
/// Most trailing taps a [`JitFlat`] folds in after its group.
const MAX_TRAIL: usize = 2;

/// Where a coefficient's value comes from: recorded at match time (a
/// constant), or read from runtime scalar `k` once per chunk by
/// [`JitProgram::bind`]. Two bytes, so it rides in the padding of the
/// structs the evaluators stride over and leaves their layout alone.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Slot(u16);

impl Slot {
    /// The coefficient is a constant.
    pub const CONST: Slot = Slot(u16::MAX);

    /// The kernel's `k`-th runtime scalar
    /// ([`crate::ExecScratch::scalars`]`[k]`), if any.
    pub fn scalar(self) -> Option<usize> {
        (self != Slot::CONST).then_some(self.0 as usize)
    }
}

/// A coefficient of the grammar as the matcher sees it: its value (NaN
/// until bound, for a runtime scalar) and where the value comes from.
#[derive(Copy, Clone)]
struct Coeff {
    value: f64,
    slot: Slot,
}

/// One grid load, optionally fused with a coefficient.
#[derive(Copy, Clone, Debug)]
pub struct JitTap {
    /// Which apply input the tap reads.
    pub input: u32,
    /// Constant flat displacement from the centre point.
    pub rel: i64,
    /// Coefficient (ignored unless `scaled`).
    pub coeff: f64,
    /// Where `coeff` comes from.
    pub slot: Slot,
    /// Whether the coefficient was the left multiplication operand.
    pub coeff_left: bool,
    /// Whether the tap is multiplied by `coeff`.
    pub scaled: bool,
}

impl JitTap {
    /// Operations one evaluation costs (the load, plus the scaling).
    fn ops(&self) -> usize {
        1 + usize::from(self.scaled)
    }
}

/// A leaf value of the fold grammar.
#[derive(Copy, Clone, Debug)]
pub enum JitValue {
    /// A (possibly scaled) tap.
    Tap(JitTap),
    /// `a ⊕ b` over two (possibly scaled) taps.
    Pair {
        /// `Add` or `Sub`.
        op: BinOp,
        /// Left tap.
        a: JitTap,
        /// Right tap.
        b: JitTap,
    },
    /// A loop-invariant coefficient and where it comes from.
    Const(f64, Slot),
}

impl JitValue {
    fn for_each_coeff(&mut self, f: &mut impl FnMut(&mut f64, Slot)) {
        match self {
            JitValue::Tap(t) => f(&mut t.coeff, t.slot),
            JitValue::Pair { a, b, .. } => {
                f(&mut a.coeff, a.slot);
                f(&mut b.coeff, b.slot);
            }
            JitValue::Const(c, slot) => f(c, *slot),
        }
    }
}

/// One element of a group fold: `acc = acc ⊕ value`.
#[derive(Copy, Clone, Debug)]
pub struct JitElem {
    /// `Add` or `Sub` (the first element ignores it and seeds the fold).
    pub op: BinOp,
    /// The element value.
    pub value: JitValue,
}

/// What one top-level term evaluates.
#[derive(Debug)]
pub enum JitTermValue {
    /// A plain element.
    Elem(JitValue),
    /// `[c ·] (elem₁ ⊕ … ⊕ elem_T)`.
    Group {
        /// Coefficient applied to the folded group (value, coefficient
        /// on the left).
        scale: Option<(f64, bool)>,
        /// Where the scale comes from.
        scale_slot: Slot,
        /// The group fold.
        elems: Vec<JitElem>,
    },
}

/// One top-level fold term: `acc = acc ⊕ value`.
#[derive(Debug)]
pub struct JitTerm {
    /// `Add` or `Sub` (the first term ignores it and seeds the fold).
    pub op: BinOp,
    /// The term value.
    pub value: JitTermValue,
}

/// The fold plan for one output.
#[derive(Debug, Default)]
pub struct JitOut {
    /// Top-level terms, applied left to right.
    pub terms: Vec<JitTerm>,
    /// The same fold flattened, when it has the [`JitFlat`] shape. The
    /// terms stay the reference: row remainders evaluate them.
    pub flat: Option<JitFlat>,
}

/// An output of the shape `[s ·] (tap₁ ⊕ … ⊕ tap_T) [⊕ tap′ [⊕ tap″]]`:
/// an optionally scaled group of `T` taps, then at most [`MAX_TRAIL`]
/// trailing taps. With no scale there is no trailing tap either — the
/// output is a pure chain of `T` taps. Only [`JitFlat::of`] builds one,
/// so `T ≤ MAX_GROUP` and the trailing taps fit [`flat_row`]'s array.
#[derive(Debug)]
pub struct JitFlat {
    /// The group's taps, then the trailing ones, each with the op that
    /// folds it into the accumulator (the first tap's is ignored: it
    /// seeds the fold).
    taps: Vec<(BinOp, JitTap)>,
    /// `T`: how many of `taps` form the group.
    group: usize,
    /// Coefficient applied to the folded group (value, coefficient on
    /// the left).
    scale: Option<(f64, bool)>,
    /// Where the scale comes from.
    scale_slot: Slot,
}

impl JitFlat {
    /// Flattens `terms` if they have the shape: a scaled group of taps
    /// followed by at most [`MAX_TRAIL`] taps, or a pure tap chain.
    fn of(terms: &[JitTerm]) -> Option<JitFlat> {
        let tap = |t: &JitTerm| match t.value {
            JitTermValue::Elem(JitValue::Tap(tap)) => Some((t.op, tap)),
            _ => None,
        };
        let (first, trail) = terms.split_first()?;
        let flat = match &first.value {
            JitTermValue::Group { scale: scale @ Some(_), scale_slot, elems } => {
                if trail.len() > MAX_TRAIL {
                    return None;
                }
                let group = elems.iter().map(|e| match e.value {
                    JitValue::Tap(tap) => Some((e.op, tap)),
                    _ => None,
                });
                JitFlat {
                    taps: group.chain(trail.iter().map(tap)).collect::<Option<_>>()?,
                    group: elems.len(),
                    scale: *scale,
                    scale_slot: *scale_slot,
                }
            }
            _ => JitFlat {
                taps: terms.iter().map(tap).collect::<Option<_>>()?,
                group: terms.len(),
                scale: None,
                scale_slot: Slot::CONST,
            },
        };
        (flat.group <= MAX_GROUP).then_some(flat)
    }

    /// Label fragment: `chain<T>` for a pure chain, else `group<T>+k`
    /// (`k` trailing taps).
    fn label(&self) -> String {
        match self.scale {
            None => format!("chain<{}>", self.group),
            Some(_) => format!("group<{}>+{}", self.group, self.taps.len() - self.group),
        }
    }

    fn for_each_coeff(&mut self, f: &mut impl FnMut(&mut f64, Slot)) {
        for (_, tap) in &mut self.taps {
            f(&mut tap.coeff, tap.slot);
        }
        if let Some((c, _)) = &mut self.scale {
            f(c, self.scale_slot);
        }
    }
}

// `clone_from` down the plan reuses every allocation of a destination
// of the same shape: `JitProgram::bind` re-copies the plan into the same
// scratch every chunk, and must not allocate doing so.
impl Clone for JitTermValue {
    fn clone(&self) -> JitTermValue {
        match self {
            JitTermValue::Elem(v) => JitTermValue::Elem(*v),
            JitTermValue::Group { scale, scale_slot, elems } => {
                JitTermValue::Group { scale: *scale, scale_slot: *scale_slot, elems: elems.clone() }
            }
        }
    }

    fn clone_from(&mut self, source: &JitTermValue) {
        match (self, source) {
            (
                JitTermValue::Group { scale, scale_slot, elems },
                JitTermValue::Group { scale: s, scale_slot: ss, elems: e },
            ) => {
                (*scale, *scale_slot) = (*s, *ss);
                elems.clone_from(e);
            }
            (this, source) => *this = source.clone(),
        }
    }
}

impl Clone for JitTerm {
    fn clone(&self) -> JitTerm {
        JitTerm { op: self.op, value: self.value.clone() }
    }

    fn clone_from(&mut self, source: &JitTerm) {
        self.op = source.op;
        self.value.clone_from(&source.value);
    }
}

impl Clone for JitOut {
    fn clone(&self) -> JitOut {
        JitOut { terms: self.terms.clone(), flat: self.flat.clone() }
    }

    fn clone_from(&mut self, source: &JitOut) {
        self.terms.clone_from(&source.terms);
        self.flat.clone_from(&source.flat);
    }
}

impl Clone for JitFlat {
    fn clone(&self) -> JitFlat {
        JitFlat { taps: self.taps.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &JitFlat) {
        self.taps.clone_from(&source.taps);
        (self.group, self.scale, self.scale_slot) = (source.group, source.scale, source.scale_slot);
    }
}

/// Every part of a matched kernel that holds a coefficient: what the
/// evaluators read, and what [`JitProgram::bind`] copies.
#[derive(Clone, Debug, Default)]
pub struct JitPlan {
    /// One fold plan per apply output.
    pub outs: Vec<JitOut>,
}

impl JitPlan {
    fn for_each_coeff(&mut self, mut f: impl FnMut(&mut f64, Slot)) {
        for flat in self.outs.iter_mut().filter_map(|o| o.flat.as_mut()) {
            flat.for_each_coeff(&mut f);
        }
        for term in self.outs.iter_mut().flat_map(|o| &mut o.terms) {
            match &mut term.value {
                JitTermValue::Elem(v) => v.for_each_coeff(&mut f),
                JitTermValue::Group { scale, scale_slot, elems } => {
                    if let Some((c, _)) = scale {
                        f(c, *scale_slot);
                    }
                    for elem in elems {
                        elem.value.for_each_coeff(&mut f);
                    }
                }
            }
        }
    }
}

/// A kernel matched against the template catalog. Immutable once
/// matched (and shared between region steps and pool workers): runtime
/// scalars are resolved into a per-worker copy of the plan, never here.
#[derive(Clone, Debug)]
pub struct JitProgram {
    /// The matched fold plan. Its runtime-scalar coefficients are
    /// unresolved (NaN): evaluate the plan [`JitProgram::bind`] returns.
    pub plan: JitPlan,
    /// Distinct grid loads of the kernel (label only).
    pub tap_count: usize,
    /// Runtime scalars the kernel takes (index-aligned with
    /// `CompiledKernel::scalar_args`); `0` means the plan is fully
    /// constant and is evaluated in place.
    pub scalars: usize,
    /// Per-input `(min, max)` relative displacement loaded.
    pub rel_bounds: Vec<Option<(i64, i64)>>,
    /// Whether the explicit AVX2 lane path is compiled in *and* the CPU
    /// supports it (detected once at build time).
    pub use_avx2: bool,
}

impl JitProgram {
    /// Human label fragment: a single flattened output's shape
    /// (`chain<3>`, `group<6>+1`), else the longest fold (`3 terms`).
    pub fn shape_label(&self) -> String {
        match &self.plan.outs[..] {
            [JitOut { flat: Some(flat), .. }] => flat.label(),
            outs => format!("{} terms", outs.iter().map(|o| o.terms.len()).max().unwrap_or(0)),
        }
    }

    /// Resolves the runtime-scalar coefficients against `scalars` and
    /// returns the plan to evaluate: the shared plan itself when the
    /// kernel takes no runtime scalar, otherwise `bound` — overwritten
    /// with a copy of the plan (no allocation when it last held a plan
    /// of this shape, as a runner's scratch does from its second step
    /// on) whose every scalar coefficient holds the scalar's current
    /// value. Called once per chunk, so a scalar changed between steps,
    /// or between two executions on one worker, is always seen.
    ///
    /// # Panics
    /// Panics if `scalars` provides fewer values than the kernel takes.
    pub(crate) fn bind<'a>(&'a self, scalars: &[f64], bound: &'a mut JitPlan) -> &'a JitPlan {
        if self.scalars == 0 {
            return &self.plan;
        }
        crate::program::assert_scalars_provided(self.scalars, scalars.len());
        bound.outs.clone_from(&self.plan.outs);
        bound.for_each_coeff(|value, slot| {
            if let Some(k) = slot.scalar() {
                *value = scalars[k];
            }
        });
        bound
    }
}

/// Whether the AVX2 lane path is available on this build and CPU.
fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", feature = "simd"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", feature = "simd")))]
    {
        false
    }
}

// ---------------------------------------------------------------------
// Template matching
// ---------------------------------------------------------------------

/// Why a kernel is outside the template grammar: the first construct the
/// matcher could not place (shown by `SpecializedKernel::tier_label`).
pub type Reject = &'static str;

const REJECT_PRODUCT: Reject = "load·load product";
const REJECT_NESTING: Reject = "nesting deeper than two fold levels";

/// What an optimized-bytecode register holds during matching.
#[derive(Copy, Clone)]
enum Def {
    Load { input: u32, rel: i64 },
    Coeff(Coeff),
    Bin { op: BinOp, a: u32, b: u32 },
}

struct Matcher {
    /// Definition of every register of the optimized program.
    defs: Vec<Option<Def>>,
    /// Operations charged to the current output.
    ops: usize,
}

impl Matcher {
    fn def(&self, r: u32) -> Result<Def, Reject> {
        self.defs[r as usize].ok_or("read of an undefined register")
    }

    /// The coefficient register `r` holds, if it holds one.
    fn coeff(&self, r: u32) -> Option<Coeff> {
        match self.defs[r as usize] {
            Some(Def::Coeff(c)) => Some(c),
            _ => None,
        }
    }

    fn charge(&mut self, n: usize) -> Result<(), Reject> {
        self.ops += n;
        if self.ops > MAX_OPS {
            return Err("more than 512 ops per output");
        }
        Ok(())
    }

    /// Splits `a · b` into `(coefficient, other operand, coefficient on
    /// the left)`.
    fn scaled(&self, a: u32, b: u32) -> Result<(Coeff, u32, bool), Reject> {
        match (self.coeff(a), self.coeff(b)) {
            (Some(c), _) => Ok((c, b, true)),
            (_, Some(c)) => Ok((c, a, false)),
            _ => Err(REJECT_PRODUCT),
        }
    }

    /// Matches `load`, `c · load` or `load · c`.
    fn tap(&self, r: u32) -> Result<JitTap, Reject> {
        let (load, scale) = match self.def(r)? {
            Def::Load { .. } => (r, None),
            Def::Bin { op: BinOp::Mul, a, b } => {
                let (c, load, left) = self.scaled(a, b)?;
                (load, Some((c, left)))
            }
            _ => return Err(REJECT_NESTING),
        };
        let Def::Load { input, rel } = self.def(load)? else { return Err(REJECT_NESTING) };
        let (c, coeff_left) = scale.unwrap_or((Coeff { value: 1.0, slot: Slot::CONST }, false));
        Ok(JitTap { input, rel, coeff: c.value, slot: c.slot, coeff_left, scaled: scale.is_some() })
    }

    /// Matches a leaf: a tap, `tap ⊕ tap`, or a coefficient.
    fn value(&mut self, r: u32) -> Result<JitValue, Reject> {
        let (value, ops) = match self.def(r)? {
            Def::Coeff(c) => (JitValue::Const(c.value, c.slot), 1),
            Def::Bin { op: op @ (BinOp::Add | BinOp::Sub), a, b } => {
                let (a, b) = (self.tap(a)?, self.tap(b)?);
                let ops = a.ops() + b.ops() + 1;
                (JitValue::Pair { op, a, b }, ops)
            }
            _ => {
                let tap = self.tap(r)?;
                let ops = tap.ops();
                (JitValue::Tap(tap), ops)
            }
        };
        self.charge(ops)?;
        Ok(value)
    }

    /// Linearizes the left spine of `Add`/`Sub` nodes rooted at `r` into
    /// `(seed, [(op, term), …])`, mirroring the DAG's exact association;
    /// rejects folds longer than [`MAX_FOLD`].
    fn linearize(&self, r: u32) -> Result<(u32, Vec<(BinOp, u32)>), Reject> {
        let mut rev: Vec<(BinOp, u32)> = Vec::new();
        let mut cur = r;
        while let Def::Bin { op: op @ (BinOp::Add | BinOp::Sub), a, b } = self.def(cur)? {
            if rev.len() + 2 > MAX_FOLD {
                return Err("fold longer than 64");
            }
            rev.push((op, b));
            cur = a;
        }
        rev.reverse();
        Ok((cur, rev))
    }

    /// Matches a group fold (second fold level): every term must be a
    /// leaf value.
    fn group_elems(&mut self, r: u32) -> Result<Vec<JitElem>, Reject> {
        let (seed, folds) = self.linearize(r)?;
        let mut elems = vec![JitElem { op: BinOp::Add, value: self.value(seed)? }];
        for (op, r) in folds {
            self.charge(1)?;
            elems.push(JitElem { op, value: self.value(r)? });
        }
        Ok(elems)
    }

    /// Matches one top-level term: a leaf, or a (possibly
    /// coefficient-scaled) group fold.
    fn term_value(&mut self, r: u32) -> Result<JitTermValue, Reject> {
        let not_a_leaf = match self.value(r) {
            Ok(v) => return Ok(JitTermValue::Elem(v)),
            Err(reason) => reason,
        };
        match self.def(r)? {
            Def::Bin { op: BinOp::Mul, a, b } => {
                let (c, inner, left) = self.scaled(a, b)?;
                self.charge(1)?;
                Ok(JitTermValue::Group {
                    scale: Some((c.value, left)),
                    scale_slot: c.slot,
                    elems: self.group_elems(inner)?,
                })
            }
            Def::Bin { op: BinOp::Add | BinOp::Sub, .. } => Ok(JitTermValue::Group {
                scale: None,
                scale_slot: Slot::CONST,
                elems: self.group_elems(r)?,
            }),
            _ => Err(not_a_leaf),
        }
    }

    fn out(&mut self, r: u32) -> Result<JitOut, Reject> {
        self.ops = 0;
        let (seed, folds) = self.linearize(r)?;
        let mut terms = vec![JitTerm { op: BinOp::Add, value: self.term_value(seed)? }];
        for (op, r) in folds {
            self.charge(1)?;
            terms.push(JitTerm { op, value: self.term_value(r)? });
        }
        Ok(JitOut { flat: JitFlat::of(&terms), terms })
    }
}

/// Tries to match an optimized program against the template catalog:
/// every output must be an affine function of its loads — coefficients
/// being constants or runtime scalars — in the two-level fold shape of
/// the module docs. On the first construct outside the grammar it
/// returns that construct's name, and the caller stays on opt-bytecode.
pub(crate) fn match_template(opt: &OptProgram) -> Result<JitProgram, Reject> {
    if opt.outputs.is_empty() {
        return Err("no outputs");
    }
    if opt.scalar_regs.len() >= Slot::CONST.0 as usize {
        return Err("more than 65534 runtime scalars");
    }
    let constant = |value| Some(Def::Coeff(Coeff { value, slot: Slot::CONST }));
    let mut m = Matcher { defs: vec![None; opt.num_regs as usize], ops: 0 };
    for &(r, v) in &opt.preinit {
        m.defs[r as usize] = constant(v);
    }
    for (k, &r) in opt.scalar_regs.iter().enumerate() {
        m.defs[r as usize] = Some(Def::Coeff(Coeff { value: f64::NAN, slot: Slot(k as u16) }));
    }
    for instr in &opt.instrs {
        match *instr {
            Instr::LoadInput { input, rel, dst } => {
                m.defs[dst as usize] = Some(Def::Load { input, rel });
            }
            Instr::Const { v, dst } => m.defs[dst as usize] = constant(v),
            Instr::Bin { op: BinOp::Div, .. } => return Err("division"),
            Instr::Bin { op, a, b, dst } => {
                // `optimize` folded const ⊕ const, so this is a new
                // coefficient computed from a runtime scalar per point.
                if m.coeff(a).is_some() && m.coeff(b).is_some() {
                    return Err("arithmetic on a runtime scalar");
                }
                m.defs[dst as usize] = Some(Def::Bin { op, a, b });
            }
            Instr::Neg { .. } => return Err("negation"),
            Instr::Index { .. } => return Err("stencil.index term"),
        }
    }
    let outs: Vec<JitOut> = opt.outputs.iter().map(|&o| m.out(o)).collect::<Result<_, _>>()?;
    Ok(JitProgram {
        plan: JitPlan { outs },
        tap_count: opt.instrs.iter().filter(|i| matches!(i, Instr::LoadInput { .. })).count(),
        scalars: opt.scalar_regs.len(),
        rel_bounds: opt.rel_bounds.clone(),
        use_avx2: avx2_available(),
    })
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// A block of `W` consecutive grid points processed together. Every
/// operation applies the identical scalar IEEE op per lane — lane width
/// only batches points, it never changes any point's op sequence.
trait Lanes: Copy {
    /// Points per block.
    const W: usize;
    /// # Safety
    /// `p .. p + W` must be readable.
    unsafe fn load(p: *const f64) -> Self;
    fn splat(c: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    /// # Safety
    /// `p .. p + W` must be writable.
    unsafe fn store(self, p: *mut f64);
}

/// Portable lanes: fixed-width loops the compiler auto-vectorizes.
#[derive(Copy, Clone)]
struct Portable([f64; 8]);

impl Lanes for Portable {
    const W: usize = 8;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        let mut v = [0.0; 8];
        std::ptr::copy_nonoverlapping(p, v.as_mut_ptr(), 8);
        Portable(v)
    }
    #[inline(always)]
    fn splat(c: f64) -> Self {
        Portable([c; 8])
    }
    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        for i in 0..8 {
            self.0[i] += o.0[i];
        }
        self
    }
    #[inline(always)]
    fn sub(mut self, o: Self) -> Self {
        for i in 0..8 {
            self.0[i] -= o.0[i];
        }
        self
    }
    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        for i in 0..8 {
            self.0[i] *= o.0[i];
        }
        self
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        std::ptr::copy_nonoverlapping(self.0.as_ptr(), p, 8);
    }
}

/// Explicit AVX2 lanes (two `__m256d` halves). `vaddpd`/`vsubpd`/
/// `vmulpd` are lane-wise IEEE ops — no FMA contraction, so results
/// match the scalar path bit for bit.
///
/// These stay hand-written: portable `[f64; 8]` lanes under
/// `#[target_feature(enable = "avx2")]`, in place of both `Lanes` impls
/// (this and `sten_interp::exact`'s), were bit-identical but slower in
/// paired e2e_bench runs on a 2-core AVX2 Xeon: `cg-2r` 44–47 ms against
/// 35–37 ms (4 pairs), `heat3d-serial` +10 % (6 pairs, seed 3, won 1).
#[cfg(all(target_arch = "x86_64", feature = "simd"))]
mod avx2 {
    use super::Lanes;
    use std::arch::x86_64::*;

    #[derive(Copy, Clone)]
    pub struct Avx2(__m256d, __m256d);

    impl Lanes for Avx2 {
        const W: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Avx2(_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)))
        }
        #[inline(always)]
        fn splat(c: f64) -> Self {
            unsafe { Avx2(_mm256_set1_pd(c), _mm256_set1_pd(c)) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_add_pd(self.0, o.0), _mm256_add_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_sub_pd(self.0, o.0), _mm256_sub_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_mul_pd(self.0, o.0), _mm256_mul_pd(self.1, o.1)) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0);
            _mm256_storeu_pd(p.add(4), self.1);
        }
    }
}

/// Row-start base pointer of a tap.
///
/// # Safety
/// Caller validated `flats[input] + rel` (and the row extent) per
/// [`JitProgram::rel_bounds`].
#[inline(always)]
unsafe fn tap_base(t: &JitTap, inputs: &[&[f64]], flats: &[i64]) -> *const f64 {
    let f = *flats.get_unchecked(t.input as usize);
    inputs.get_unchecked(t.input as usize).as_ptr().offset((f + t.rel) as isize)
}

#[inline(always)]
fn fold_op<L: Lanes>(op: BinOp, acc: L, v: L) -> L {
    match op {
        BinOp::Sub => acc.sub(v),
        // Only Add/Sub folds are matched.
        _ => acc.add(v),
    }
}

/// Scales a block loaded for tap `t` by its coefficient, on the
/// recorded side.
#[inline(always)]
fn scale_block<L: Lanes>(t: &JitTap, v: L) -> L {
    if !t.scaled {
        v
    } else if t.coeff_left {
        L::splat(t.coeff).mul(v)
    } else {
        v.mul(L::splat(t.coeff))
    }
}

/// Loads and scales one tap for the block at `x`.
///
/// # Safety
/// See [`tap_base`]; `x .. x + W` must be within the validated row.
#[inline(always)]
unsafe fn tap_block<L: Lanes>(t: &JitTap, inputs: &[&[f64]], flats: &[i64], x: i64) -> L {
    scale_block(t, L::load(tap_base(t, inputs, flats).offset(x as isize)))
}

/// # Safety
/// See [`tap_block`].
#[inline(always)]
unsafe fn value_block<L: Lanes>(v: &JitValue, inputs: &[&[f64]], flats: &[i64], x: i64) -> L {
    match v {
        JitValue::Tap(t) => tap_block(t, inputs, flats, x),
        JitValue::Pair { op, a, b } => {
            fold_op(*op, tap_block::<L>(a, inputs, flats, x), tap_block::<L>(b, inputs, flats, x))
        }
        JitValue::Const(c, _) => L::splat(*c),
    }
}

/// # Safety
/// See [`tap_block`].
#[inline(always)]
unsafe fn term_block<L: Lanes>(t: &JitTermValue, inputs: &[&[f64]], flats: &[i64], x: i64) -> L {
    match t {
        JitTermValue::Elem(v) => value_block(v, inputs, flats, x),
        JitTermValue::Group { scale, elems, .. } => {
            let mut acc = value_block::<L>(&elems[0].value, inputs, flats, x);
            for e in &elems[1..] {
                acc = fold_op(e.op, acc, value_block(&e.value, inputs, flats, x));
            }
            match *scale {
                Some((c, true)) => L::splat(c).mul(acc),
                Some((c, false)) => acc.mul(L::splat(c)),
                None => acc,
            }
        }
    }
}

/// General fused row kernel over `L`-blocks; the scalar remainder runs
/// [`eval_point`] (bit-identical by construction).
///
/// Generic core only — the callable micro-kernels are the
/// monomorphizing wrappers below ([`fold_row_portable`],
/// [`avx2::fold_row_avx2`]). It must inline into them: a `std::arch`
/// intrinsic only compiles to its instruction inside a function carrying
/// the matching `#[target_feature]`; an out-of-line generic body would
/// turn every lane op of the AVX2 instantiation into a real function
/// call with `__m256d` operands spilled through memory (measured ~9×
/// slower on jacobi-1d).
///
/// # Safety
/// Caller validated the row per [`JitProgram::rel_bounds`]; `out` must
/// cover `of .. of + len`.
#[inline(always)]
unsafe fn fold_row<L: Lanes>(
    plan: &JitOut,
    inputs: &[&[f64]],
    flats: &[i64],
    out: &mut [f64],
    of: i64,
    len: i64,
) {
    let w = L::W as i64;
    let mut x = 0i64;
    while x + w <= len {
        let mut acc = term_block::<L>(&plan.terms[0].value, inputs, flats, x);
        for t in &plan.terms[1..] {
            acc = fold_op(t.op, acc, term_block(&t.value, inputs, flats, x));
        }
        acc.store(out.as_mut_ptr().offset((of + x) as isize));
        x += w;
    }
    for x in x..len {
        *out.get_unchecked_mut((of + x) as usize) = eval_point(plan, inputs, flats, x);
    }
}

/// One tap of a [`JitFlat`] resolved for a row: its base pointer,
/// computed once per row, before the block loop.
#[derive(Copy, Clone)]
struct RowTap {
    base: *const f64,
    tap: JitTap,
    op: BinOp,
}

impl RowTap {
    /// # Safety
    /// See [`tap_base`].
    #[inline(always)]
    unsafe fn new(&(op, tap): &(BinOp, JitTap), inputs: &[&[f64]], flats: &[i64]) -> Self {
        RowTap { base: tap_base(&tap, inputs, flats), tap, op }
    }

    /// Loads and scales the tap for the block at `x`, as [`tap_block`].
    ///
    /// # Safety
    /// `x .. x + W` must be within the validated row.
    #[inline(always)]
    unsafe fn block<L: Lanes>(&self, x: i64) -> L {
        scale_block(&self.tap, L::load(self.base.offset(x as isize)))
    }
}

/// Row kernel of a flattened output whose group has `T` taps: the
/// group folded left to right (fully unrolled), scaled on the recorded
/// side, then the trailing taps folded in — the op sequence of the
/// output's fold plan, with every tap's base pointer hoisted out of the
/// block loop. The remainder runs [`eval_point`].
/// Generic core — see [`fold_row`] on why it must inline into the
/// per-ISA wrappers.
///
/// # Safety
/// Same contract as [`fold_row`]; `flat` is `plan.flat` and
/// `flat.group == T`.
#[inline(always)]
unsafe fn flat_row<L: Lanes, const T: usize>(
    plan: &JitOut,
    flat: &JitFlat,
    inputs: &[&[f64]],
    flats: &[i64],
    out: &mut [f64],
    of: i64,
    len: i64,
) {
    debug_assert_eq!(flat.group, T);
    let tap = |i: usize| RowTap::new(&flat.taps[i], inputs, flats);
    let group: [RowTap; T] = std::array::from_fn(&tap);
    let trailing = flat.taps.len() - T;
    // Slots past `trailing` hold a copy of a group tap and are never read.
    let trail: [RowTap; MAX_TRAIL] =
        std::array::from_fn(|i| if i < trailing { tap(T + i) } else { group[0] });
    let trail = &trail[..trailing];
    let scale = flat.scale.map(|(c, left)| (L::splat(c), left));
    let w = L::W as i64;
    let mut x = 0i64;
    while x + w <= len {
        let mut acc = group[0].block::<L>(x);
        for t in &group[1..] {
            acc = fold_op(t.op, acc, t.block(x));
        }
        acc = match scale {
            Some((c, true)) => c.mul(acc),
            Some((c, false)) => acc.mul(c),
            None => acc,
        };
        for t in trail {
            acc = fold_op(t.op, acc, t.block(x));
        }
        acc.store(out.as_mut_ptr().offset((of + x) as isize));
        x += w;
    }
    for x in x..len {
        *out.get_unchecked_mut((of + x) as usize) = eval_point(plan, inputs, flats, x);
    }
}

/// # Safety
/// See [`tap_block`] (single-point form).
#[inline(always)]
unsafe fn tap_point(t: &JitTap, inputs: &[&[f64]], flats: &[i64], x: i64) -> f64 {
    let v = *tap_base(t, inputs, flats).offset(x as isize);
    // The multiplication operand order is semantic (NaN payload
    // propagation matches the bytecode).
    #[allow(clippy::if_same_then_else)]
    if !t.scaled {
        v
    } else if t.coeff_left {
        t.coeff * v
    } else {
        v * t.coeff
    }
}

/// # Safety
/// See [`tap_point`].
#[inline(always)]
unsafe fn value_point(v: &JitValue, inputs: &[&[f64]], flats: &[i64], x: i64) -> f64 {
    match v {
        JitValue::Tap(t) => tap_point(t, inputs, flats, x),
        JitValue::Pair { op, a, b } => {
            op.eval(tap_point(a, inputs, flats, x), tap_point(b, inputs, flats, x))
        }
        JitValue::Const(c, _) => *c,
    }
}

/// Scalar single-point evaluation — the reference op sequence every lane
/// path reproduces.
///
/// # Safety
/// See [`tap_point`].
#[inline(always)]
unsafe fn eval_point(plan: &JitOut, inputs: &[&[f64]], flats: &[i64], x: i64) -> f64 {
    let term = |t: &JitTermValue| -> f64 {
        match t {
            JitTermValue::Elem(v) => value_point(v, inputs, flats, x),
            JitTermValue::Group { scale, elems, .. } => {
                let mut acc = value_point(&elems[0].value, inputs, flats, x);
                for e in &elems[1..] {
                    acc = e.op.eval(acc, value_point(&e.value, inputs, flats, x));
                }
                match *scale {
                    Some((c, true)) => c * acc,
                    Some((c, false)) => acc * c,
                    None => acc,
                }
            }
        }
    };
    let mut acc = term(&plan.terms[0].value);
    for t in &plan.terms[1..] {
        acc = t.op.eval(acc, term(&t.value));
    }
    acc
}

/// Expands to the `group` match dispatching a flattened output to the
/// const-generic monomorphizations of the named wrapper.
macro_rules! group_match {
    ($row:ident, $group:expr; $($arg:expr),*) => {
        match $group {
            1 => $row::<1>($($arg),*),
            2 => $row::<2>($($arg),*),
            3 => $row::<3>($($arg),*),
            4 => $row::<4>($($arg),*),
            5 => $row::<5>($($arg),*),
            6 => $row::<6>($($arg),*),
            7 => $row::<7>($($arg),*),
            8 => $row::<8>($($arg),*),
            9 => $row::<9>($($arg),*),
            10 => $row::<10>($($arg),*),
            11 => $row::<11>($($arg),*),
            12 => $row::<12>($($arg),*),
            13 => $row::<13>($($arg),*),
            14 => $row::<14>($($arg),*),
            15 => $row::<15>($($arg),*),
            16 => $row::<16>($($arg),*),
            _ => unreachable!("group length bounded by MAX_GROUP"),
        }
    };
}

/// Portable monomorphized micro-kernels: distinct `#[inline(never)]`
/// symbols per shape, auto-vectorized for the build's baseline ISA.
#[inline(never)]
unsafe fn fold_row_portable(
    plan: &JitOut,
    inputs: &[&[f64]],
    flats: &[i64],
    out: &mut [f64],
    of: i64,
    len: i64,
) {
    fold_row::<Portable>(plan, inputs, flats, out, of, len)
}

/// # Safety
/// Same contract as [`flat_row`].
#[inline(never)]
unsafe fn flat_row_portable<const T: usize>(
    plan: &JitOut,
    flat: &JitFlat,
    inputs: &[&[f64]],
    flats: &[i64],
    out: &mut [f64],
    of: i64,
    len: i64,
) {
    flat_row::<Portable, T>(plan, flat, inputs, flats, out, of, len)
}

/// AVX2 monomorphized micro-kernels. `#[target_feature]` compiles the
/// inlined generic cores (and the `_mm256_*` intrinsics inside them)
/// with AVX2 codegen, and is itself a hard inline boundary from the
/// non-AVX2 caller — these are the out-of-line kernel symbols of the
/// SIMD path.
#[cfg(all(target_arch = "x86_64", feature = "simd"))]
mod avx2_rows {
    use super::*;

    /// # Safety
    /// Caller checked `is_x86_feature_detected!("avx2")` (recorded in
    /// [`JitProgram::use_avx2`]) and validated the row per `rel_bounds`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_row_avx2(
        plan: &JitOut,
        inputs: &[&[f64]],
        flats: &[i64],
        out: &mut [f64],
        of: i64,
        len: i64,
    ) {
        fold_row::<avx2::Avx2>(plan, inputs, flats, out, of, len)
    }

    /// # Safety
    /// As [`fold_row_avx2`]; `flat` is `plan.flat` and `flat.group == T`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn flat_row_avx2<const T: usize>(
        plan: &JitOut,
        flat: &JitFlat,
        inputs: &[&[f64]],
        flats: &[i64],
        out: &mut [f64],
        of: i64,
        len: i64,
    ) {
        flat_row::<avx2::Avx2, T>(plan, flat, inputs, flats, out, of, len)
    }
}

impl JitProgram {
    /// Evaluates one stride-1 row of `len` points for every output,
    /// reading coefficients from `plan` — the plan [`JitProgram::bind`]
    /// returned for this chunk.
    ///
    /// # Safety
    /// The caller validated (per [`JitProgram::rel_bounds`]) that every
    /// `flats[i] + rel + x` for `x < len` is in bounds for `inputs[i]`
    /// and that `out_flats[o] .. out_flats[o] + len` is in bounds for
    /// `outs[o]`; `plan` is this program's plan or a bound copy of it.
    pub unsafe fn eval_row(
        &self,
        plan: &JitPlan,
        inputs: &[&[f64]],
        flats: &[i64],
        outs: &mut [&mut [f64]],
        out_flats: &[i64],
        len: i64,
    ) {
        for (oi, plan) in plan.outs.iter().enumerate() {
            let of = out_flats[oi];
            let out: &mut [f64] = outs[oi];
            #[cfg(all(target_arch = "x86_64", feature = "simd"))]
            if self.use_avx2 {
                use avx2_rows::{flat_row_avx2, fold_row_avx2};
                match &plan.flat {
                    Some(f) => {
                        group_match!(flat_row_avx2, f.group; plan, f, inputs, flats, out, of, len)
                    }
                    None => fold_row_avx2(plan, inputs, flats, out, of, len),
                }
                continue;
            }
            match &plan.flat {
                Some(f) => {
                    group_match!(flat_row_portable, f.group; plan, f, inputs, flats, out, of, len)
                }
                None => fold_row_portable(plan, inputs, flats, out, of, len),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::{SpecializedKernel, Tier, TierKind};

    fn heat_jit() -> SpecializedKernel {
        let mut m = sten_stencil::samples::heat_2d(16, 0.1);
        let k = crate::specialize::tests::kernel_of(
            &mut m,
            "heat",
            crate::program::InputDesc::new(vec![18, 18], vec![-1, -1]),
        );
        SpecializedKernel::specialize(k, Some(TierKind::TemplateJit))
    }

    #[test]
    fn heat_matches_term_template() {
        let spec = heat_jit();
        assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
        let Tier::TemplateJit(jit) = &spec.tier else { panic!() };
        // heat-2d: `c + s·(((u+d)+(l+r)) − k·c)` — one plain term plus
        // one scaled group. The group's left spine linearizes through
        // the leading tap pair: [tap, tap, pair, scaled tap], preserving
        // the exact left-nested association.
        assert_eq!(jit.plan.outs.len(), 1);
        assert_eq!(jit.plan.outs[0].terms.len(), 2);
        assert!(jit.plan.outs[0].flat.is_none(), "a tap pair is not a flat group");
        let JitTermValue::Group { scale: Some(_), elems, .. } = &jit.plan.outs[0].terms[1].value
        else {
            panic!("second term is a scaled group: {jit:?}");
        };
        assert_eq!(elems.len(), 4);
        assert!(matches!(elems[2].value, JitValue::Pair { .. }));
        assert!(matches!(elems[3].value, JitValue::Tap(JitTap { scaled: true, .. })));
        // Fully constant: evaluated in place, never copied.
        let mut bound = JitPlan::default();
        assert!(std::ptr::eq(jit.bind(&[], &mut bound), &jit.plan));
    }

    /// `load₀ + load₁ + … + loadₙ₋₁` as optimized bytecode.
    fn tap_chain(n: u32) -> OptProgram {
        let loads = (0..n).map(|i| Instr::LoadInput { input: 0, rel: i as i64, dst: i });
        let adds = (1..n).map(|i| Instr::Bin {
            op: BinOp::Add,
            a: if i == 1 { 0 } else { n + i - 2 },
            b: i,
            dst: n + i - 1,
        });
        OptProgram {
            instrs: loads.chain(adds).collect(),
            preinit: vec![],
            scalar_regs: vec![],
            num_regs: 2 * n - 1,
            outputs: vec![2 * n - 2],
            has_index: false,
            rel_bounds: vec![Some((0, n as i64 - 1))],
        }
    }

    #[test]
    fn caps_bound_the_chain_fast_path_and_the_fold() {
        let terms = |n| {
            match_template(&tap_chain(n)).map(|j| {
                let out = &j.plan.outs[0];
                (out.terms.len(), out.flat.as_ref().map(|f| f.group))
            })
        };
        assert_eq!(terms(MAX_GROUP as u32), Ok((MAX_GROUP, Some(MAX_GROUP))));
        // Longer pure chains match, on the general evaluator.
        assert_eq!(terms(MAX_GROUP as u32 + 1), Ok((MAX_GROUP + 1, None)));
        assert_eq!(terms(MAX_FOLD as u32), Ok((MAX_FOLD, None)));
        let too_long = terms(MAX_FOLD as u32 + 1).unwrap_err();
        assert_eq!(too_long, format!("fold longer than {MAX_FOLD}"));
    }

    /// The reason `instrs` (register 0 a runtime scalar, the last
    /// register the output) is rejected.
    fn rejection(instrs: Vec<Instr>, num_regs: u32) -> Reject {
        let out = num_regs - 1;
        let opt = OptProgram {
            instrs,
            preinit: vec![],
            scalar_regs: vec![0],
            num_regs,
            outputs: vec![out],
            has_index: false,
            rel_bounds: vec![Some((0, 1))],
        };
        match_template(&opt).map(|_| ()).unwrap_err()
    }

    #[test]
    fn rejections_name_the_first_construct_outside_the_grammar() {
        // Register 0 is a runtime scalar throughout.
        let load = |rel, dst| Instr::LoadInput { input: 0, rel, dst };
        let bin = |op, a, b, dst| Instr::Bin { op, a, b, dst };
        let two_loads = [load(0, 1), load(1, 2)];
        let with = |tail: Instr| two_loads.iter().cloned().chain([tail]).collect::<Vec<_>>();
        assert_eq!(rejection(with(bin(BinOp::Mul, 1, 2, 3)), 4), "load·load product");
        assert_eq!(rejection(with(bin(BinOp::Div, 1, 2, 3)), 4), "division");
        assert_eq!(rejection(with(Instr::Neg { a: 1, dst: 3 }), 4), "negation");
        assert_eq!(
            rejection(with(Instr::Index { dim: 0, offset: 0, dst: 3 }), 4),
            "stencil.index term"
        );
        assert_eq!(rejection(with(bin(BinOp::Mul, 0, 0, 3)), 4), "arithmetic on a runtime scalar");
        // α · (α · (l + r)): a scaled group inside a scaled group.
        let nested = vec![
            load(0, 1),
            load(1, 2),
            bin(BinOp::Add, 1, 2, 3),
            bin(BinOp::Mul, 0, 3, 4),
            bin(BinOp::Mul, 0, 4, 5),
        ];
        assert_eq!(rejection(nested, 6), "nesting deeper than two fold levels");
        // p + G + G + G + G with p = l + r and G = p + p + … (40 times):
        // a shared group, re-evaluated in full at each of its four uses.
        let mut shared = with(bin(BinOp::Add, 1, 2, 3));
        shared.push(bin(BinOp::Add, 3, 3, 4));
        shared.extend((5..43).map(|dst| bin(BinOp::Add, dst - 1, 3, dst)));
        shared.push(bin(BinOp::Add, 3, 42, 43));
        shared.extend((44..47).map(|dst| bin(BinOp::Add, dst - 1, 42, dst)));
        assert_eq!(rejection(shared, 47), format!("more than {MAX_OPS} ops per output"));
    }

    /// A slot must ride in padding: the evaluators stride over these.
    #[test]
    fn slots_leave_the_evaluated_structs_their_size() {
        assert_eq!(std::mem::size_of::<JitTap>(), 24);
        assert_eq!(std::mem::size_of::<JitElem>(), 64);
        assert_eq!(std::mem::size_of::<JitTerm>(), 64);
    }

    #[test]
    fn shape_label_reports_chain_and_terms() {
        let spec = heat_jit();
        let Tier::TemplateJit(jit) = &spec.tier else { panic!() };
        assert_eq!(jit.shape_label(), "2 terms");
        let labels: Vec<String> = row_cases()
            .iter()
            .map(|(_, opt, _, _)| match_template(opt).unwrap().shape_label())
            .collect();
        for label in ["chain<3>", "group<6>+1", "group<6>+2", "2 terms"] {
            assert!(labels.iter().any(|l| l == label), "no {label} among {labels:?}");
        }
    }

    /// Optimized bytecode written by hand, one input: registers are
    /// allocated in order, constants preloaded.
    #[derive(Default)]
    struct Prog {
        instrs: Vec<Instr>,
        preinit: Vec<(u32, f64)>,
        scalar_regs: Vec<u32>,
        regs: u32,
        rels: Option<(i64, i64)>,
    }

    impl Prog {
        fn reg(&mut self) -> u32 {
            self.regs += 1;
            self.regs - 1
        }

        fn load(&mut self, rel: i64) -> u32 {
            let dst = self.reg();
            self.instrs.push(Instr::LoadInput { input: 0, rel, dst });
            self.rels = Some(self.rels.map_or((rel, rel), |(lo, hi)| (lo.min(rel), hi.max(rel))));
            dst
        }

        fn c(&mut self, v: f64) -> u32 {
            let dst = self.reg();
            self.preinit.push((dst, v));
            dst
        }

        fn scalar(&mut self) -> u32 {
            let dst = self.reg();
            self.scalar_regs.push(dst);
            dst
        }

        fn bin(&mut self, op: BinOp, a: u32, b: u32) -> u32 {
            let dst = self.reg();
            self.instrs.push(Instr::Bin { op, a, b, dst });
            dst
        }

        fn finish(self, out: u32) -> OptProgram {
            OptProgram {
                instrs: self.instrs,
                preinit: self.preinit,
                scalar_regs: self.scalar_regs,
                num_regs: self.regs,
                outputs: vec![out],
                has_index: false,
                rel_bounds: vec![self.rels],
            }
        }
    }

    /// One kernel of every shape the row functions serve: (name, program,
    /// runtime scalars, expected flat shape as `(T, trailing taps)`).
    #[allow(clippy::type_complexity)]
    fn row_cases() -> Vec<(String, OptProgram, Vec<f64>, Option<(usize, usize)>)> {
        use BinOp::{Add, Mul, Sub};
        let mut cases = Vec::new();
        // Pure chains with `−` folds and scaled taps: the coefficient on
        // the left (a constant) or on the right (a runtime scalar).
        for t in [1usize, 2, 3, 6, MAX_GROUP] {
            let mut p = Prog::default();
            let alpha = p.scalar();
            let half = t as i64 / 2;
            let mut acc = p.load(-half);
            for i in 1..t {
                let l = p.load(i as i64 - half);
                let tap = match i % 3 {
                    0 => l,
                    1 => {
                        let c = p.c(0.3);
                        p.bin(Mul, c, l)
                    }
                    _ => p.bin(Mul, l, alpha),
                };
                acc = p.bin(if i % 2 == 0 { Sub } else { Add }, acc, tap);
            }
            cases.push((format!("chain of {t}"), p.finish(acc), vec![1.7], Some((t, 0))));
        }
        // Scaled groups with a `−` fold and a scaled tap inside: the scale
        // on either side, constant or a runtime scalar, then 0–2 trailing
        // taps (the first scaled, the second folded with `−`).
        for (t, trail, left, runtime) in [
            (2, 0, true, false),
            (4, 1, true, false),
            (6, 1, false, true),
            (6, 2, true, true),
            (3, 2, false, false),
            (MAX_GROUP, 2, false, false),
        ] {
            let mut p = Prog::default();
            let s = if runtime { p.scalar() } else { p.c(0.0625) };
            let mut acc = p.load(-3);
            for i in 1..t {
                let mut tap = p.load(i as i64 - 3);
                if i == 3 {
                    let c = p.c(-2.5);
                    tap = p.bin(Mul, tap, c);
                }
                acc = p.bin(if i == 2 { Sub } else { Add }, acc, tap);
            }
            acc = if left { p.bin(Mul, s, acc) } else { p.bin(Mul, acc, s) };
            for j in 0..trail {
                let mut tap = p.load(j as i64);
                if j == 0 {
                    let c = p.c(-0.4);
                    tap = p.bin(Mul, c, tap);
                }
                acc = p.bin(if j == 1 { Sub } else { Add }, acc, tap);
            }
            let name =
                format!("{}-scaled group of {t} + {trail}", if left { "left" } else { "right" });
            let scalars = if runtime { vec![0.125] } else { vec![] };
            cases.push((name, p.finish(acc), scalars, Some((t, trail))));
        }
        // Outside the flat shape (the general fold): a plain tap, then a
        // scaled group holding tap pairs, a scaled tap and a constant.
        let mut p = Prog::default();
        let centre = p.load(0);
        let (u, d, l, r) = (p.load(-2), p.load(2), p.load(-1), p.load(1));
        let (ud, lr) = (p.bin(Add, u, d), p.bin(Sub, l, r));
        let star = p.bin(Add, ud, lr);
        let k = p.c(4.0);
        let kc = p.bin(Mul, k, centre);
        let inner = p.bin(Sub, star, kc);
        let half = p.c(0.5);
        let inner = p.bin(Add, inner, half);
        let s = p.c(0.1);
        let group = p.bin(Mul, s, inner);
        let out = p.bin(Add, centre, group);
        cases.push(("tap + scaled group of pairs".into(), p.finish(out), vec![], None));
        cases
    }

    /// A row function under test: `(inputs, flats, out, of, len)`.
    type RowFn<'a> = Box<dyn Fn(&[&[f64]], &[i64], &mut [f64], i64, i64) + 'a>;

    /// Every instantiation of a row kernel this host can run for `plan`,
    /// called directly (not through `eval_row`'s `use_avx2` switch):
    /// the general fold always, the flat kernel when the output has the
    /// shape. SAFETY (every closure): callers pass a row whose loads and
    /// stores lie inside `inputs` and `out`, asserted before each call.
    fn row_kernels(plan: &JitOut) -> Vec<(&'static str, RowFn<'_>)> {
        let mut v: Vec<(&'static str, RowFn<'_>)> = vec![(
            "fold_row_portable",
            Box::new(|i, f, o, of, len| unsafe { fold_row_portable(plan, i, f, o, of, len) }),
        )];
        if let Some(flat) = &plan.flat {
            v.push((
                "flat_row_portable",
                Box::new(move |i, f, o, of, len| unsafe {
                    group_match!(flat_row_portable, flat.group; plan, flat, i, f, o, of, len)
                }),
            ));
        }
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        if avx2_available() {
            use avx2_rows::{flat_row_avx2, fold_row_avx2};
            // SAFETY (both): AVX2 was detected on the line above.
            v.push((
                "fold_row_avx2",
                Box::new(|i, f, o, of, len| unsafe { fold_row_avx2(plan, i, f, o, of, len) }),
            ));
            if let Some(flat) = &plan.flat {
                v.push((
                    "flat_row_avx2",
                    Box::new(move |i, f, o, of, len| unsafe {
                        group_match!(flat_row_avx2, flat.group; plan, flat, i, f, o, of, len)
                    }),
                ));
            }
        }
        v
    }

    /// The portable and the AVX2 lanes of every row kernel reproduce the
    /// scalar reference bit for bit, on every row length around the
    /// block width and at unaligned input and output offsets.
    #[test]
    fn every_row_kernel_instantiation_matches_eval_point_bitwise() {
        // Mixed magnitudes, a negative zero and a subnormal.
        let buf: Vec<f64> = (0..64)
            .map(|i| match i % 11 {
                3 => -0.0,
                7 => f64::MIN_POSITIVE / 3.0,
                _ => (i as f64 * 0.731).sin() * 10f64.powi(i % 9 - 4),
            })
            .collect();
        for (name, opt, scalars, shape) in row_cases() {
            let jit = match_template(&opt).unwrap_or_else(|r| panic!("{name}: {r}"));
            let mut bound = JitPlan::default();
            let plan = &jit.bind(&scalars, &mut bound).outs[0];
            let flat_shape = plan.flat.as_ref().map(|f| (f.group, f.taps.len() - f.group));
            assert_eq!(flat_shape, shape, "{name}");
            let (rel_min, rel_max) = opt.rel_bounds[0].unwrap();
            for shift in 0..4 {
                let inputs: [&[f64]; 1] = [&buf[shift..]];
                let flats = [shift as i64 - rel_min];
                let of = 1 + shift as i64;
                for len in 0..=17 {
                    assert!(flats[0] + rel_max + len <= inputs[0].len() as i64);
                    let want: Vec<u64> = (0..len)
                        .map(|x| unsafe { eval_point(plan, &inputs, &flats, x) }.to_bits())
                        .collect();
                    for (kernel, row) in row_kernels(plan) {
                        let mut out = vec![7.0; (of + len + 1) as usize];
                        row(&inputs, &flats, &mut out, of, len);
                        let got: Vec<u64> = out[of as usize..][..len as usize]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        assert_eq!(got, want, "{name}: {kernel}, shift {shift}, len {len}");
                        assert!(
                            out[..of as usize].iter().chain(out.last()).all(|&v| v == 7.0),
                            "{name}: {kernel} wrote outside its row"
                        );
                    }
                }
            }
        }
    }
}
