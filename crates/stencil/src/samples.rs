//! Ready-made stencil-level modules used by tests, examples and benches.
//!
//! Each sample is a `func.func` over `!stencil.field` arguments in the shape
//! frontends produce: `load` → `apply` → `store`.

use crate::ops;
use sten_dialects::{arith, func};
use sten_ir::{Bounds, FieldType, Module, Op, TempType, Type, Value, ValueTable};

/// A classic 3-point 1D Jacobi: `out[i] = l + r - 2 c` over `[1, n-1)`
/// (the paper's Listing 1 with `n = 128`).
pub fn jacobi_1d(n: i64) -> Module {
    let mut m = Module::new();
    let field_ty = Type::Field(FieldType::new(Bounds::new(vec![(0, n)]), Type::F64));
    let (mut f, args) =
        func::definition(&mut m.values, "jacobi", vec![field_ty.clone(), field_ty], vec![]);
    let (src_field, dst_field) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src_field);
    let src = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let ap = ops::apply(
        &mut m.values,
        vec![src],
        vec![Type::Temp(TempType::unknown(1, Type::F64))],
        |vt, a| {
            let l = ops::access(vt, a[0], vec![-1]);
            let c = ops::access(vt, a[0], vec![0]);
            let r = ops::access(vt, a[0], vec![1]);
            let two = arith::const_f64(vt, 2.0);
            let lr = arith::addf(vt, l.result(0), r.result(0));
            let tc = arith::mulf(vt, two.result(0), c.result(0));
            let v = arith::subf(vt, lr.result(0), tc.result(0));
            let out = v.result(0);
            vec![l, c, r, two, lr, tc, v, ops::ret(vec![out])]
        },
    );
    let out = ap.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.push(ap);
    body.push(ops::store(out, dst_field, vec![1], vec![n - 1]));
    body.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    m
}

/// Builds the body ops of a 5-point 2D heat step
/// `out = c + a*(l + r + u + d - 4 c)` and returns them with the result.
fn heat5_body(vt: &mut ValueTable, arg: Value, alpha: f64) -> (Vec<sten_ir::Op>, Value) {
    let c = ops::access(vt, arg, vec![0, 0]);
    let l = ops::access(vt, arg, vec![-1, 0]);
    let r = ops::access(vt, arg, vec![1, 0]);
    let u = ops::access(vt, arg, vec![0, -1]);
    let d = ops::access(vt, arg, vec![0, 1]);
    let four = arith::const_f64(vt, 4.0);
    let a = arith::const_f64(vt, alpha);
    let s1 = arith::addf(vt, l.result(0), r.result(0));
    let s2 = arith::addf(vt, u.result(0), d.result(0));
    let s3 = arith::addf(vt, s1.result(0), s2.result(0));
    let fc = arith::mulf(vt, four.result(0), c.result(0));
    let lap = arith::subf(vt, s3.result(0), fc.result(0));
    let scaled = arith::mulf(vt, a.result(0), lap.result(0));
    let v = arith::addf(vt, c.result(0), scaled.result(0));
    let out = v.result(0);
    (vec![c, l, r, u, d, four, a, s1, s2, s3, fc, lap, scaled, v, ops::ret(vec![out])], out)
}

/// A 5-point 2D heat-diffusion step over an `n × n` interior with a 1-cell
/// halo: fields span `[-1, n+1)²`, the store range is `[0, n)²`.
pub fn heat_2d(n: i64, alpha: f64) -> Module {
    let mut m = Module::new();
    let field_ty =
        Type::Field(FieldType::new(Bounds::new(vec![(-1, n + 1), (-1, n + 1)]), Type::F64));
    let (mut f, args) =
        func::definition(&mut m.values, "heat", vec![field_ty.clone(), field_ty], vec![]);
    let (src_field, dst_field) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src_field);
    let src = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let ap = ops::apply(
        &mut m.values,
        vec![src],
        vec![Type::Temp(TempType::unknown(2, Type::F64))],
        |vt, a| heat5_body(vt, a[0], alpha).0,
    );
    let out = ap.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.push(ap);
    body.push(ops::store(out, dst_field, vec![0, 0], vec![n, n]));
    body.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    m
}

/// A module with `kernels` independent heat-step functions
/// (`@heat_0 … @heat_{kernels-1}`), each like [`heat_2d`]. Multi-kernel
/// modules are the common case for Devito operators and PSyclone
/// invokes, and what the per-function parallel pass scheduler speeds up.
pub fn heat_2d_many(kernels: usize, n: i64, alpha: f64) -> Module {
    let mut m = Module::new();
    let field_ty =
        Type::Field(FieldType::new(Bounds::new(vec![(-1, n + 1), (-1, n + 1)]), Type::F64));
    for k in 0..kernels {
        let name = format!("heat_{k}");
        let (mut f, args) = func::definition(
            &mut m.values,
            &name,
            vec![field_ty.clone(), field_ty.clone()],
            vec![],
        );
        let (src_field, dst_field) = (args[0], args[1]);
        let ld = ops::load(&mut m.values, src_field);
        let src = ld.result(0);
        f.region_block_mut(0).ops.push(ld);
        let ap = ops::apply(
            &mut m.values,
            vec![src],
            vec![Type::Temp(TempType::unknown(2, Type::F64))],
            |vt, a| heat5_body(vt, a[0], alpha).0,
        );
        let out = ap.result(0);
        let body = &mut f.region_block_mut(0).ops;
        body.push(ap);
        body.push(ops::store(out, dst_field, vec![0, 0], vec![n, n]));
        body.push(func::ret(vec![]));
        m.body_mut().ops.push(f);
    }
    m
}

/// A two-stage pipeline: `mid = shift-sum(src)` then `out = mid + src`
/// (producer/consumer applies, exercising fusion and shape inference).
pub fn two_stage_1d(n: i64) -> Module {
    let mut m = Module::new();
    let field_ty = Type::Field(FieldType::new(Bounds::new(vec![(-2, n + 2)]), Type::F64));
    let (mut f, args) =
        func::definition(&mut m.values, "two_stage", vec![field_ty.clone(), field_ty], vec![]);
    let (src_field, dst_field) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src_field);
    let src = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let producer = ops::apply(
        &mut m.values,
        vec![src],
        vec![Type::Temp(TempType::unknown(1, Type::F64))],
        |vt, a| {
            let l = ops::access(vt, a[0], vec![-1]);
            let r = ops::access(vt, a[0], vec![1]);
            let v = arith::addf(vt, l.result(0), r.result(0));
            let out = v.result(0);
            vec![l, r, v, ops::ret(vec![out])]
        },
    );
    let mid = producer.result(0);
    let consumer = ops::apply(
        &mut m.values,
        vec![mid, src],
        vec![Type::Temp(TempType::unknown(1, Type::F64))],
        |vt, a| {
            let pm = ops::access(vt, a[0], vec![-1]);
            let pc = ops::access(vt, a[0], vec![1]);
            let sc = ops::access(vt, a[1], vec![0]);
            let s = arith::addf(vt, pm.result(0), pc.result(0));
            let v = arith::addf(vt, s.result(0), sc.result(0));
            let out = v.result(0);
            vec![pm, pc, sc, s, v, ops::ret(vec![out])]
        },
    );
    let out = consumer.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.push(producer);
    body.push(consumer);
    body.push(ops::store(out, dst_field, vec![0], vec![n]));
    body.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    m
}

/// A single global reduction `@reduce(fields...) -> f64` over `range`:
/// two field operands for `dot`, one for `sum`/`min`/`max`. Fields span
/// `field_bounds` (any rank).
pub fn reduce_nd(kind: &str, field_bounds: Bounds, range: Bounds) -> Module {
    let mut m = Module::new();
    let fty = Type::Field(FieldType::new(field_bounds, Type::F64));
    let arity = if kind == "dot" { 2 } else { 1 };
    let (mut f, args) =
        func::definition(&mut m.values, "reduce", vec![fty; arity], vec![Type::F64]);
    let mut operands = Vec::new();
    let body = &mut f.region_block_mut(0).ops;
    for &a in &args {
        let ld = ops::load(&mut m.values, a);
        operands.push(ld.result(0));
        body.push(ld);
    }
    let rd = ops::reduce(&mut m.values, kind, operands, range.lower(), range.upper());
    let out = rd.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.push(rd);
    body.push(func::ret(vec![out]));
    m.body_mut().ops.push(f);
    m
}

/// A Jacobi step followed by a global residual: stores the smoothed field
/// *and* returns `‖out‖²` (a `dot` of the apply result with itself) — the
/// apply→reduce program shape implicit solvers produce every iteration.
pub fn jacobi_with_norm(n: i64) -> Module {
    let mut m = Module::new();
    let field_ty = Type::Field(FieldType::new(Bounds::new(vec![(0, n)]), Type::F64));
    let (mut f, args) = func::definition(
        &mut m.values,
        "jacobi_norm",
        vec![field_ty.clone(), field_ty],
        vec![Type::F64],
    );
    let (src_field, dst_field) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src_field);
    let src = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let ap = ops::apply(
        &mut m.values,
        vec![src],
        vec![Type::Temp(TempType::unknown(1, Type::F64))],
        |vt, a| {
            let l = ops::access(vt, a[0], vec![-1]);
            let c = ops::access(vt, a[0], vec![0]);
            let r = ops::access(vt, a[0], vec![1]);
            let two = arith::const_f64(vt, 2.0);
            let lr = arith::addf(vt, l.result(0), r.result(0));
            let tc = arith::mulf(vt, two.result(0), c.result(0));
            let v = arith::subf(vt, lr.result(0), tc.result(0));
            let out = v.result(0);
            vec![l, c, r, two, lr, tc, v, ops::ret(vec![out])]
        },
    );
    let out = ap.result(0);
    let rd = ops::reduce(&mut m.values, "dot", vec![out, out], vec![1], vec![n - 1]);
    let norm = rd.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.push(ap);
    body.push(ops::store(out, dst_field, vec![1], vec![n - 1]));
    body.push(rd);
    body.push(func::ret(vec![norm]));
    m.body_mut().ops.push(f);
    m
}

/// `a + s·b` pointwise over rank-`rank` temps, `s` a runtime scalar:
/// the update shape the template-JIT binds its coefficient late for.
fn axpy_apply(vt: &mut ValueTable, a: Value, b: Value, s: Value, rank: usize) -> Op {
    ops::apply(vt, vec![a, b, s], vec![Type::Temp(TempType::unknown(rank, Type::F64))], |vt, x| {
        let va = ops::access(vt, x[0], vec![0; rank]);
        let vb = ops::access(vt, x[1], vec![0; rank]);
        let scaled = arith::mulf(vt, x[2], vb.result(0));
        let v = arith::addf(vt, va.result(0), scaled.result(0));
        let out = v.result(0);
        vec![va, vb, scaled, v, ops::ret(vec![out])]
    })
}

/// The update step of iterative solvers (CG's `x += α p`):
/// `@axpy(a, b, alpha, out)` stores `a + alpha·b` on `core`, with `alpha`
/// a *runtime* `f64` argument rather than a compile-time constant.
pub fn axpy(field_bounds: Bounds, core: Bounds) -> Module {
    let mut m = Module::new();
    let fty = Type::Field(FieldType::new(field_bounds, Type::F64));
    let (mut f, args) = func::definition(
        &mut m.values,
        "axpy",
        vec![fty.clone(), fty.clone(), Type::F64, fty],
        vec![],
    );
    let (fa, fb, alpha, fout) = (args[0], args[1], args[2], args[3]);
    let la = ops::load(&mut m.values, fa);
    let lb = ops::load(&mut m.values, fb);
    let ap = axpy_apply(&mut m.values, la.result(0), lb.result(0), alpha, core.rank());
    let out = ap.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.extend([la, lb, ap]);
    body.push(ops::store(out, fout, core.lower(), core.upper()));
    body.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    m
}

/// Appends `op` to `body` and returns its (first) result.
fn emit(body: &mut Vec<Op>, op: Op) -> Value {
    let v = op.result(0);
    body.push(op);
    v
}

/// Conjugate gradients on `A = I − λ∇²` (the implicit heat operator,
/// [`heat_2d`]'s body with coefficient `−λ`) over fields `[-1, n+1)²`:
///
/// * `@cg_norm(r) -> f64`: `‖r‖²` over the core `[0, n)²`, once per
///   solve;
/// * `@cg_iter(x, r, p, ap, s, rsold: f64) -> (pap, rsnew)`: one whole
///   iteration — `ap = A·p`, `pap = p·ap`, `α = rsold / pap`,
///   `s = x + α·p`, `x = r + (−α)·ap`, `rsnew = ‖x‖²`,
///   `β = rsnew / rsold`, `r = x + β·p`.
///
/// After a step the five fields change roles: the next step's
/// `[x, r, p, ap, s]` are this step's `[s, x, r, ap, p]`. Each apply
/// result is used only by its store and later ops load the stored field
/// again, so every apply is store-forwarded and the iteration needs no
/// temporary; each update has [`axpy`]'s shape.
pub fn cg(n: i64, lam: f64) -> Module {
    let mut m = Module::new();
    let (lo, hi) = (vec![0, 0], vec![n, n]);
    let fty = Type::Field(FieldType::new(Bounds::new(vec![(-1, n + 1), (-1, n + 1)]), Type::F64));
    let vt = &mut m.values;
    let dot =
        |vt: &mut ValueTable, a, b| ops::reduce(vt, "dot", vec![a, b], lo.clone(), hi.clone());

    let (mut norm, args) = func::definition(vt, "cg_norm", vec![fty.clone()], vec![Type::F64]);
    let body = &mut norm.region_block_mut(0).ops;
    let r = emit(body, ops::load(vt, args[0]));
    let rr = emit(body, dot(vt, r, r));
    body.push(func::ret(vec![rr]));

    let mut inputs = vec![fty; 5];
    inputs.push(Type::F64);
    let (mut iter, args) = func::definition(vt, "cg_iter", inputs, vec![Type::F64, Type::F64]);
    let [x, r, p, ap, s, rsold] = args[..] else { unreachable!("six arguments") };
    let b = &mut iter.region_block_mut(0).ops;
    let store =
        |b: &mut Vec<Op>, temp, field| b.push(ops::store(temp, field, lo.clone(), hi.clone()));
    let pt = emit(b, ops::load(vt, p));
    let temp = Type::Temp(TempType::unknown(2, Type::F64));
    let apt = emit(b, ops::apply(vt, vec![pt], vec![temp], |vt, a| heat5_body(vt, a[0], -lam).0));
    store(b, apt, ap);
    let apt = emit(b, ops::load(vt, ap));
    let pap = emit(b, dot(vt, pt, apt));
    let alpha = emit(b, arith::divf(vt, rsold, pap));
    let xt = emit(b, ops::load(vt, x));
    let xnew = emit(b, axpy_apply(vt, xt, pt, alpha, 2));
    store(b, xnew, s);
    let neg_alpha = emit(b, arith::negf(vt, alpha));
    let rt = emit(b, ops::load(vt, r));
    let rnew = emit(b, axpy_apply(vt, rt, apt, neg_alpha, 2));
    store(b, rnew, x);
    let rt = emit(b, ops::load(vt, x)); // the new residual
    let rsnew = emit(b, dot(vt, rt, rt));
    let beta = emit(b, arith::divf(vt, rsnew, rsold));
    let pnew = emit(b, axpy_apply(vt, rt, pt, beta, 2));
    store(b, pnew, r);
    b.push(func::ret(vec![pap, rsnew]));
    m.body_mut().ops.extend([norm, iter]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use sten_ir::{verify_module, DialectRegistry};

    fn registry() -> DialectRegistry {
        let mut reg = DialectRegistry::new();
        crate::ops::register(&mut reg);
        sten_dialects::register_all(&mut reg);
        reg
    }

    #[test]
    fn samples_verify() {
        let b1 = Bounds::new(vec![(0, 64)]);
        let c1 = Bounds::new(vec![(1, 63)]);
        for m in [
            jacobi_1d(128),
            heat_2d(64, 0.1),
            two_stage_1d(32),
            reduce_nd("dot", b1.clone(), c1.clone()),
            reduce_nd("min", b1.clone(), c1.clone()),
            jacobi_with_norm(128),
            axpy(b1, c1),
            cg(16, 0.25),
        ] {
            verify_module(&m, Some(&registry())).unwrap();
        }
    }
}
