//! The stack's core semantic guarantee: the same program produces the
//! same field at every lowering level and on every execution substrate.
//!
//! Levels compared: stencil-dialect reference interpretation, lowered
//! scf+memref interpretation, the fully optimized shared-CPU pipeline,
//! the compiled bytecode executor (serial and multithreaded), and SPMD
//! distributed execution over SimMPI (dmp level and func/MPI level).

mod common;

use stencil_stack::prelude::*;

fn run_interp(m: &Module, func: &str, shapes: &[Vec<i64>], init: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let bufs: Vec<BufView> =
        shapes.iter().zip(init).map(|(s, d)| BufView::from_data(s.clone(), d.clone())).collect();
    let args: Vec<RtValue> = bufs.iter().map(|b| RtValue::Buffer(b.clone())).collect();
    Interpreter::new(m).call_function(func, args).expect("interpretation succeeds");
    bufs.iter().map(BufView::to_vec).collect()
}

#[test]
fn heat2d_all_levels_agree() {
    let n = 20i64;
    let shape = vec![n + 2, n + 2];
    let size = ((n + 2) * (n + 2)) as usize;
    let init: Vec<f64> = (0..size).map(|i| (i as f64 * 0.043).sin()).collect();
    let shapes = vec![shape.clone(), shape.clone()];
    let inits = vec![init.clone(), init.clone()];

    // Level 1: stencil dialect reference semantics.
    let mut reference = stencil_stack::stencil::samples::heat_2d(n, 0.1);
    stencil_stack::stencil::ShapeInference.run(&mut reference).unwrap();
    let want = run_interp(&reference, "heat", &shapes, &inits)[1].clone();

    // Level 2: loops over memrefs.
    let mut loops = reference.clone();
    stencil_stack::stencil::StencilToLoops.run(&mut loops).unwrap();
    assert_eq!(run_interp(&loops, "heat", &shapes, &inits)[1], want);

    // Level 3: the full optimized shared-CPU pipeline (tiling, folding,
    // LICM, CSE, DCE).
    let compiled =
        compile(stencil_stack::stencil::samples::heat_2d(n, 0.1), &CompileOptions::shared_cpu())
            .unwrap();
    assert_eq!(run_interp(&compiled.module, "heat", &shapes, &inits)[1], want);

    // Level 4: compiled bytecode execution, serial and multithreaded.
    for threads in [1usize, 6] {
        let pipeline = compile_pipeline(&reference, "heat").unwrap();
        let mut args = inits.clone();
        Runner::new(pipeline, threads).step(&mut args).unwrap();
        assert_eq!(args[1], want, "executor with {threads} threads");
    }
}

#[test]
fn jacobi_distributed_func_level_matches_reference_on_many_rank_counts() {
    let n = 128i64;
    let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();

    let mut reference = stencil_stack::stencil::samples::jacobi_1d(n);
    stencil_stack::stencil::ShapeInference.run(&mut reference).unwrap();
    let want =
        run_interp(&reference, "jacobi", &[vec![n], vec![n]], &[input.clone(), input.clone()])[1]
            .clone();

    for ranks in [2i64, 3, 6, 9] {
        // global core 126 divides by 2, 3, 6, 9.
        let compiled = compile(
            stencil_stack::stencil::samples::jacobi_1d(n),
            &CompileOptions::distributed(vec![ranks]),
        )
        .unwrap();
        let layout = common::spmd_layout(
            stencil_stack::stencil::samples::jacobi_1d(n),
            "jacobi",
            vec![ranks],
        );
        let parts = layout.scatter(&input);
        let (results, _) = run_spmd(&compiled.module, "jacobi", ranks as usize, &|rank| {
            common::buffer_pair(&layout, &parts, rank)
        })
        .unwrap();
        let outs: Vec<Vec<f64>> = results.into_iter().map(|r| r.buffers[1].clone()).collect();
        let mut got = input.clone();
        layout.gather_into(&outs, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-12, "{ranks} ranks, point {i}: {g} vs {w}");
        }
    }
}

#[test]
fn multi_step_wave_exec_vs_interp_time_loop() {
    // The devito operator's driver rotation against the IR-level scf.for
    // time loop, over several steps of a wave (three time buffers).
    let op = problems::acoustic_wave(&[48], 2, 1.0).unwrap();
    let shape = op.field_shape();
    let len: i64 = shape.iter().product();
    let init: Vec<f64> = (0..len)
        .map(|i| {
            let x = i as f64 / len as f64 - 0.5;
            (-x * x * 150.0).exp()
        })
        .collect();
    let steps = 7usize;

    let mut bufs = vec![init.clone(), init.clone(), init.clone()];
    let last = op.run(&mut bufs, steps, 1).unwrap();
    let from_driver = bufs[last].clone();

    let m = op.compile_with_time_loop(steps as i64).unwrap();
    let views: Vec<BufView> =
        (0..3).map(|_| BufView::from_data(shape.clone(), init.clone())).collect();
    Interpreter::new(&m)
        .call_function("run", views.iter().map(|b| RtValue::Buffer(b.clone())).collect())
        .unwrap();
    // The driver reports which buffer index holds the final field; the IR
    // loop rotated identically.
    let from_ir = views[last].to_vec();
    for (a, b) in from_driver.iter().zip(&from_ir) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
}

#[test]
fn distributed_multi_step_heat_2x2_matches_serial() {
    let op = problems::heat(&[32, 32], 2, 0.5).unwrap();
    let len: i64 = op.field_shape().iter().product();
    let init: Vec<f64> = (0..len).map(|i| (i as f64 * 0.031).sin()).collect();
    let steps = 5usize;

    let mut serial = vec![init.clone(), init.clone()];
    let last = op.run(&mut serial, steps, 1).unwrap();
    let want = serial[last].clone();

    let dist = op.compile_distributed(&[2, 2]).unwrap();
    let layout = Layout::of_spmd(op.field_bounds(), &dist, "step").unwrap();
    let world = SimWorld::new(4);
    let outs = launch_with(&world, layout.scatter(&init), |rank, data| {
        let mut bufs = vec![data.clone(), data];
        let last = op.run_distributed(&dist, &mut bufs, steps, 1, &world, rank as i64)?;
        Ok::<_, String>(bufs.swap_remove(last))
    })
    .unwrap();

    assert!(world.total_sent_messages() > 0);

    let mut got = init.clone();
    layout.gather_into(&outs, &mut got);
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert!((a - b).abs() < 1e-12, "cell {i}: {a} vs {b}");
    }
}

#[test]
fn psyclone_kernel_fused_vs_unfused_execution() {
    // PW advection with and without fusion produces identical fields.
    let fused = stencil_stack::psyclone::kernels::pw_advection(16, 16, 8).unwrap();
    // Rebuild without fusion by re-lowering.
    let sub =
        stencil_stack::psyclone::parse_fortran(stencil_stack::psyclone::kernels::PW_ADVECTION_SRC)
            .unwrap();
    let cfg = std::collections::HashMap::from([
        ("nx".to_string(), 16i64),
        ("ny".to_string(), 16i64),
        ("nz".to_string(), 8i64),
    ]);
    let scalars = std::collections::HashMap::from([
        ("tcx".to_string(), 0.1f64),
        ("tcy".to_string(), 0.1f64),
        ("tcz".to_string(), 0.05f64),
    ]);
    let kernel = stencil_stack::psyclone::recognize_stencils(&sub, &cfg).unwrap();
    let unfused = stencil_stack::psyclone::lower_subroutine(&kernel, &scalars).unwrap();

    let f = unfused.lookup_symbol("pw_advection").unwrap();
    let fty = stencil_stack::dialects::func::FuncOp(f).function_type().clone();
    let shapes: Vec<Vec<i64>> = fty
        .inputs
        .iter()
        .map(|t| {
            let stencil_stack::ir::Type::Field(fld) = t else { panic!() };
            fld.bounds.shape()
        })
        .collect();
    let inits: Vec<Vec<f64>> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let len: i64 = s.iter().product();
            (0..len).map(|x| ((x + i as i64) as f64 * 0.013).cos()).collect()
        })
        .collect();
    let a = run_interp(&unfused, "pw_advection", &shapes, &inits);
    let b = run_interp(&fused.module, "pw_advection", &shapes, &inits);
    assert_eq!(a, b, "fusion preserves PW advection semantics");
}
