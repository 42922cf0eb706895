//! Semantics tests for the less-travelled corners of the dialect set:
//! `stencil.combine`, `stencil.dyn_access`/`stencil.index`, and execution
//! at the *mpi-dialect* level (before the func lowering).

mod common;

use stencil_stack::dialects::{arith, func};
use stencil_stack::ir::{FieldType, TempType, Type};
use stencil_stack::prelude::*;
use stencil_stack::stencil::ops;

fn registry() -> stencil_stack::ir::DialectRegistry {
    standard_registry()
}

/// out[i] = combine(dim 0 at 32): left half from (u+1), right half from
/// (u*2).
fn combine_module(n: i64, split: i64) -> Module {
    let mut m = Module::new();
    let fld = Type::Field(FieldType::new(Bounds::new(vec![(0, n)]), Type::F64));
    let (mut f, args) = func::definition(&mut m.values, "comb", vec![fld.clone(), fld], vec![]);
    let (src, dst) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src);
    let t = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let plus = ops::apply(
        &mut m.values,
        vec![t],
        vec![Type::Temp(TempType::unknown(1, Type::F64))],
        |vt, a| {
            let c = ops::access(vt, a[0], vec![0]);
            let one = arith::const_f64(vt, 1.0);
            let v = arith::addf(vt, c.result(0), one.result(0));
            let out = v.result(0);
            vec![c, one, v, ops::ret(vec![out])]
        },
    );
    let pv = plus.result(0);
    f.region_block_mut(0).ops.push(plus);
    let times = ops::apply(
        &mut m.values,
        vec![t],
        vec![Type::Temp(TempType::unknown(1, Type::F64))],
        |vt, a| {
            let c = ops::access(vt, a[0], vec![0]);
            let two = arith::const_f64(vt, 2.0);
            let v = arith::mulf(vt, c.result(0), two.result(0));
            let out = v.result(0);
            vec![c, two, v, ops::ret(vec![out])]
        },
    );
    let tv = times.result(0);
    f.region_block_mut(0).ops.push(times);
    let comb = ops::combine(&mut m.values, 0, split, pv, tv);
    let cv = comb.result(0);
    f.region_block_mut(0).ops.push(comb);
    f.region_block_mut(0).ops.push(ops::store(cv, dst, vec![0], vec![n]));
    f.region_block_mut(0).ops.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    stencil_stack::stencil::ShapeInference.run(&mut m).unwrap();
    m
}

#[test]
fn combine_selects_by_split_at_both_levels() {
    let (n, split) = (64i64, 32i64);
    let m = combine_module(n, split);
    verify_module(&m, Some(&registry())).unwrap();
    let input: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let run = |m: &Module| {
        let src = BufView::from_data(vec![n], input.clone());
        let dst = BufView::from_data(vec![n], vec![0.0; n as usize]);
        Interpreter::new(m)
            .call_function("comb", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
            .unwrap();
        dst.to_vec()
    };
    let got = run(&m);
    for i in 0..n as usize {
        let want = if (i as i64) < split { input[i] + 1.0 } else { input[i] * 2.0 };
        assert_eq!(got[i], want, "at {i}");
    }
    // The loop-level lowering agrees.
    let mut lowered = m.clone();
    stencil_stack::stencil::StencilToLoops.run(&mut lowered).unwrap();
    verify_module(&lowered, Some(&registry())).unwrap();
    assert_eq!(run(&lowered), got, "combine lowering preserves semantics");
}

/// out[i] = u[reversed index] via stencil.index + dyn_access.
#[test]
fn dyn_access_and_index_reverse_a_field() {
    let n = 32i64;
    let mut m = Module::new();
    let fld = Type::Field(FieldType::new(Bounds::new(vec![(0, n)]), Type::F64));
    let (mut f, args) = func::definition(&mut m.values, "rev", vec![fld.clone(), fld], vec![]);
    let (src, dst) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src);
    let t = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let ap = ops::apply(
        &mut m.values,
        vec![t],
        vec![Type::Temp(TempType::unknown(1, Type::F64))],
        |vt, a| {
            // idx = (n-1) - i
            let i = ops::index(vt, 0, 0);
            let iv = i.result(0);
            let nm1 = arith::const_index(vt, n - 1);
            let nv = nm1.result(0);
            let sub = arith::subi(vt, nv, iv);
            let sv = sub.result(0);
            let d = ops::dyn_access(vt, a[0], vec![sv]);
            let out = d.result(0);
            vec![i, nm1, sub, d, ops::ret(vec![out])]
        },
    );
    let av = ap.result(0);
    f.region_block_mut(0).ops.push(ap);
    f.region_block_mut(0).ops.push(ops::store(av, dst, vec![0], vec![n]));
    f.region_block_mut(0).ops.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    stencil_stack::stencil::ShapeInference.run(&mut m).unwrap();
    verify_module(&m, Some(&registry())).unwrap();

    let input: Vec<f64> = (0..n).map(|i| (i as f64).exp2().min(1e6)).collect();
    let run = |m: &Module| {
        let src = BufView::from_data(vec![n], input.clone());
        let dst = BufView::from_data(vec![n], vec![0.0; n as usize]);
        Interpreter::new(m)
            .call_function("rev", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
            .unwrap();
        dst.to_vec()
    };
    let got = run(&m);
    for i in 0..n as usize {
        assert_eq!(got[i], input[n as usize - 1 - i], "reversed at {i}");
    }
    // And at the loop level.
    let mut lowered = m.clone();
    stencil_stack::stencil::StencilToLoops.run(&mut lowered).unwrap();
    assert_eq!(run(&lowered), got);
}

/// Distributed execution at the *mpi dialect* level (DmpToMpi applied but
/// MpiToFunc not): the interpreter executes mpi.* ops directly against
/// SimMPI.
#[test]
fn mpi_dialect_level_execution_matches_func_level() {
    let n = 128i64;
    let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
    let build = |to_func: bool| {
        let mut m = stencil_stack::stencil::samples::jacobi_1d(n);
        stencil_stack::stencil::ShapeInference.run(&mut m).unwrap();
        stencil_stack::dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        stencil_stack::stencil::ShapeInference.run(&mut m).unwrap();
        stencil_stack::stencil::StencilToLoops.run(&mut m).unwrap();
        stencil_stack::mpi::DmpToMpi.run(&mut m).unwrap();
        if to_func {
            stencil_stack::mpi::MpiToFunc.run(&mut m).unwrap();
        }
        m
    };
    let layout =
        common::spmd_layout(stencil_stack::stencil::samples::jacobi_1d(n), "jacobi", vec![2]);
    let parts = layout.scatter(&input);
    let run = |m: &Module| {
        let (results, _) =
            run_spmd(m, "jacobi", 2, &|rank| common::buffer_pair(&layout, &parts, rank)).unwrap();
        results.into_iter().map(|r| r.buffers[1].clone()).collect::<Vec<_>>()
    };
    let at_mpi_level = run(&build(false));
    let at_func_level = run(&build(true));
    assert_eq!(at_mpi_level, at_func_level);
}

/// Collectives through the mpi dialect: a 4-rank allreduce and bcast
/// round-trip (exercising the interpreter's collective argument
/// marshalling and SimMPI's rendezvous).
#[test]
fn mpi_collectives_execute() {
    use stencil_stack::ir::MemRefType;
    let mut m = Module::new();
    let (mut f, _args) = func::definition(&mut m.values, "coll", vec![], vec![]);
    let buf =
        stencil_stack::dialects::memref::alloc(&mut m.values, MemRefType::new(vec![2], Type::F64));
    let bufv = buf.result(0);
    // buf = [rank, 1.0]
    let rank_op = stencil_stack::mpi::ops::comm_rank(&mut m.values);
    let rv = rank_op.result(0);
    let rank_idx = arith::sitofp(&mut m.values, rv, Type::F64);
    let rf = rank_idx.result(0);
    let zero = arith::const_index(&mut m.values, 0);
    let one_i = arith::const_index(&mut m.values, 1);
    let one_f = arith::const_f64(&mut m.values, 1.0);
    let (zv, ov, ofv) = (zero.result(0), one_i.result(0), one_f.result(0));
    let st0 = stencil_stack::dialects::memref::store(rf, bufv, vec![zv]);
    let st1 = stencil_stack::dialects::memref::store(ofv, bufv, vec![ov]);
    let unwrap = stencil_stack::mpi::ops::unwrap_memref(&mut m.values, bufv);
    let (ptr, cnt, dt) = (unwrap.result(0), unwrap.result(1), unwrap.result(2));
    let allreduce = stencil_stack::mpi::ops::allreduce(ptr, ptr, cnt, dt, "sum");
    for op in [buf, rank_op, rank_idx, zero, one_i, one_f, st0, st1, unwrap, allreduce] {
        f.region_block_mut(0).ops.push(op);
    }
    // Read back the reduced values and return them.
    let ld0 = stencil_stack::dialects::memref::load(&mut m.values, bufv, vec![zv]);
    let ld1 = stencil_stack::dialects::memref::load(&mut m.values, bufv, vec![ov]);
    let (r0, r1) = (ld0.result(0), ld1.result(0));
    f.region_block_mut(0).ops.push(ld0);
    f.region_block_mut(0).ops.push(ld1);
    f.region_block_mut(0).ops.push(func::ret(vec![r0, r1]));
    // Fix the signature (two f64 results).
    f.set_attr(
        "function_type",
        stencil_stack::ir::Attribute::Type(Type::Function(Box::new(
            stencil_stack::ir::FunctionType::new(vec![], vec![Type::F64, Type::F64]),
        ))),
    );
    m.body_mut().ops.push(f);
    verify_module(&m, Some(&registry())).unwrap();

    let world = SimWorld::new(4);
    let results = launch(&world, |rank| {
        let env = stencil_stack::interp::MpiEnv::new(std::sync::Arc::clone(&world), rank as i32);
        let out = Interpreter::with_externals(&m, Box::new(env)).call_function("coll", vec![])?;
        Ok::<_, stencil_stack::interp::InterpError>((
            out[0].as_float().unwrap(),
            out[1].as_float().unwrap(),
        ))
    })
    .unwrap();
    for (sum_ranks, sum_ones) in results {
        assert_eq!(sum_ranks, 0.0 + 1.0 + 2.0 + 3.0);
        assert_eq!(sum_ones, 4.0);
    }
}
