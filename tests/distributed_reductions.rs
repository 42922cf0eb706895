//! Distributed global reductions: the determinism acceptance suite.
//!
//! `stencil.reduce` folds through exact accumulators (superaccumulated
//! sums, total-order min/max lattices), so a distributed reduction —
//! local partial over each rank's owned core, then `dmp.allreduce` —
//! must be *bit-identical* to the serial interpreter, for every
//! decomposition strategy, executor tier, and worker-thread count, over
//! random fields of every supported rank (each with a row too wide in
//! exponent for the exact sum's block fold, so both of its paths run).
//! The CG end-to-end test closes
//! the loop: a full implicit solve's residual trajectory (dozens of
//! dependent reductions, α/β scalar feedback, a convergence predicate)
//! matches the serial reference bit for bit.
//!
//! CI reruns the suite across the strategy matrix via
//! `STEN_DECOMP_STRATEGY`; `STEN_EXEC_TIER` pins the executor tier the
//! same way (unset = all three in one process).

mod common;

use common::Rng;
use stencil_stack::cg;
use stencil_stack::dmp::{make_strategy, DistributeStencil};
use stencil_stack::exec::{compile_module_tiered, Runner};
use stencil_stack::interp::{
    launch_with, BufView, ExactSum, Interpreter, Layout, RtValue, SimWorld,
};
use stencil_stack::ir::{Bounds, Module, Pass as _};
use stencil_stack::stencil::{samples, ShapeInference};

fn factors_for(strategy: &str) -> Option<Vec<i64>> {
    (strategy == "custom-grid").then(|| vec![2])
}

#[test]
fn distributed_reduce_matches_serial_interpreter_bit_for_bit() {
    for dims in 1..=3usize {
        for kind in ["sum", "dot", "min", "max"] {
            let mut rng = Rng::new(0xD07 + dims as u64 * 31 + kind.len() as u64);
            // Random field box (nonzero lower bounds included) and a
            // reduce range inset from it — big enough along dim 0 for
            // two ranks.
            let field = Bounds::new(
                (0..dims)
                    .map(|_| {
                        let lo = rng.range_i64(-2, 3);
                        (lo, lo + rng.range_i64(7, 11))
                    })
                    .collect(),
            );
            let range = Bounds::new(field.0.iter().map(|&(lo, hi)| (lo + 1, hi - 1)).collect());
            let gsize = field.0.iter().map(|&(l, h)| (h - l) as usize).product::<usize>();
            let arity = if kind == "dot" { 2 } else { 1 };
            // One stride-1 row (in 1-D, the upper half of the only row)
            // steps through 2^-100 / 1 / 2^100: too wide for the exact
            // sum's vector stage, so that row takes its per-point escape
            // while the others stay on the fast path.
            let ext: Vec<usize> = field.0.iter().map(|&(l, h)| (h - l) as usize).collect();
            let wide = |flat: usize| {
                if dims == 1 {
                    return flat >= gsize / 2;
                }
                // The row through the middle of every leading dimension.
                let mut rest = flat / ext[dims - 1];
                (0..dims - 1).rev().all(|d| {
                    let coord = rest % ext[d];
                    rest /= ext[d];
                    coord == ext[d] / 2
                })
            };
            let data: Vec<Vec<f64>> = (0..arity)
                .map(|_| {
                    (0..gsize)
                        .map(|flat| {
                            let x = rng.range_f64(-1e6, 1e6);
                            if wide(flat) {
                                x * 2f64.powi(100 * (flat % 3) as i32 - 100)
                            } else {
                                x
                            }
                        })
                        .collect()
                })
                .collect();
            let wide_row: Vec<f64> =
                (0..gsize).filter(|&flat| wide(flat)).map(|flat| data[0][flat]).collect();
            assert_eq!(ExactSum::new().extend(&wide_row[1..wide_row.len() - 1]), 1);

            // Serial interpreter reference.
            let mut serial_m = samples::reduce_nd(kind, field.clone(), range.clone());
            ShapeInference.run(&mut serial_m).unwrap();
            let gshape: Vec<i64> = field.0.iter().map(|&(l, h)| h - l).collect();
            let rt_args: Vec<RtValue> = data
                .iter()
                .map(|d| RtValue::Buffer(BufView::from_data(gshape.clone(), d.clone())))
                .collect();
            let want = match Interpreter::new(&serial_m)
                .call_function("reduce", rt_args)
                .unwrap()
                .as_slice()
            {
                [RtValue::Float(v)] => *v,
                other => panic!("expected one float, got {other:?}"),
            };

            for strategy in common::strategies() {
                // Per-rank modules (uneven extents make them heterogeneous).
                let per_rank: Vec<Module> = (0..2)
                    .map(|rank| {
                        let mut m = samples::reduce_nd(kind, field.clone(), range.clone());
                        ShapeInference.run(&mut m).unwrap();
                        DistributeStencil::with_strategy(
                            vec![2],
                            make_strategy(strategy, factors_for(strategy)).unwrap(),
                        )
                        .for_rank(rank)
                        .run(&mut m)
                        .unwrap();
                        ShapeInference.run(&mut m).unwrap();
                        m
                    })
                    .collect();
                let layout = Layout::of_modules(field.clone(), &per_rank, "reduce").unwrap();
                // Every rank's operands, scattered out of the global ones.
                let mut operands: Vec<Vec<Vec<f64>>> = vec![Vec::new(); 2];
                for global in &data {
                    for (args, part) in operands.iter_mut().zip(layout.scatter(global)) {
                        args.push(part);
                    }
                }
                for tier in common::tiers() {
                    for threads in [1usize, 2] {
                        let world = SimWorld::new(2);
                        let got = launch_with(&world, operands.clone(), |rank, mut args| {
                            let p = compile_module_tiered(&per_rank[rank], "reduce", Some(tier))?;
                            let mut runner = Runner::new(p, threads);
                            runner.step_distributed(&mut args, &world, rank as i64)?;
                            Ok::<_, String>(runner.scalar_outputs()[0])
                        })
                        .unwrap();
                        for (rank, v) in got.iter().enumerate() {
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "{dims}D {kind} × {strategy} × {} × {threads} threads, \
                                 rank {rank}: {v} != serial {want}",
                                tier.name(),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn cg_residual_trajectory_matches_serial_bit_for_bit() {
    for tier in common::tiers() {
        let cfg = cg::CgConfig { tier: Some(tier), ..cg::CgConfig::new(20) };
        let serial = cg::solve(&cfg).unwrap();
        assert!(serial.converged, "{}: {:?}", tier.name(), serial.residuals);
        for strategy in common::strategies() {
            for threads in [1usize, 2] {
                let cfg = cg::CgConfig { threads, ..cfg.clone() };
                let dist =
                    cg::solve_distributed(&cfg, strategy, factors_for(strategy), vec![2], true)
                        .unwrap();
                assert_eq!(
                    dist.residuals.len(),
                    serial.residuals.len(),
                    "{strategy} × {} × {threads} threads",
                    tier.name()
                );
                for (k, (a, b)) in dist.residuals.iter().zip(&serial.residuals).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{strategy} × {} × {threads} threads, iteration {k}: {a} != {b}",
                        tier.name()
                    );
                }
                assert_eq!(dist.x, serial.x, "{strategy}: gathered solution differs");
            }
        }
    }
}
