//! Distributed end-to-end runs across the decomposition-strategy matrix.
//!
//! The acceptance bar for pluggable decomposition: a 127×127
//! (non-divisible) domain distributes onto a 2×2 grid under every
//! strategy, lowers to the func/MPI level, runs over SimMPI with one
//! module per rank, and matches the single-rank stencil-level result
//! bit-for-bit.
//!
//! CI runs this suite once per strategy by setting
//! `STEN_DECOMP_STRATEGY=standard-slicing|recursive-bisection|custom-grid`,
//! each with overlapped halo exchange on and off (`STEN_OVERLAP=1|0`)
//! and a temporal-blocking halo depth (`STEN_HALO_DEPTH=1|2|4`); without
//! the variables every strategy × overlap combination runs at depths 1
//! and 2 in one process. On this func/MPI path a deep halo is exchanged
//! every step (same messages, more volume) — the depth axis checks the
//! widened buffers and exchanges stay bit-correct end to end.
//!
//! A second matrix leg runs the same uneven domain through the compiled
//! executor (`Runner::step_distributed`) on every executor tier, or the
//! one `STEN_EXEC_TIER` pins.

mod common;

use std::sync::Arc;
use stencil_stack::prelude::*;

fn overlap_modes() -> Vec<bool> {
    match std::env::var("STEN_OVERLAP") {
        Ok(v) if matches!(v.as_str(), "1" | "on" | "true") => vec![true],
        Ok(v) if matches!(v.as_str(), "0" | "off" | "false") => vec![false],
        Ok(other) => panic!("unknown STEN_OVERLAP '{other}' (expected 0|1)"),
        Err(_) => vec![false, true],
    }
}

fn halo_depths() -> Vec<i64> {
    match std::env::var("STEN_HALO_DEPTH") {
        Ok(v) => {
            let k = v.parse::<i64>().ok().filter(|&k| k >= 1);
            vec![k.unwrap_or_else(|| panic!("bad STEN_HALO_DEPTH '{v}' (expected 1|2|4)"))]
        }
        Err(_) => vec![1, 2],
    }
}

fn strategy_names() -> Vec<&'static str> {
    const ALL: [&str; 3] = ["standard-slicing", "recursive-bisection", "custom-grid"];
    match std::env::var("STEN_DECOMP_STRATEGY") {
        Ok(name) => {
            let name = ALL
                .iter()
                .find(|s| **s == name)
                .unwrap_or_else(|| panic!("unknown STEN_DECOMP_STRATEGY '{name}'"));
            vec![name]
        }
        Err(_) => ALL.to_vec(),
    }
}

/// Compiles heat-2d once per rank through the textual pipeline (the same
/// strings `sten-opt -p` takes), returning the per-rank modules and the
/// layout the strategy chose.
fn compile_per_rank(
    n: i64,
    strategy: &str,
    ranks: i64,
    overlap: bool,
    depth: i64,
) -> (Vec<Module>, Vec<i64>) {
    let driver = Driver::new().with_verify_each(true);
    // custom-grid takes an explicit factorization: 1x4 refactors the 2x2
    // request into column slabs, exercising a layout neither of the other
    // strategies produces here.
    let factors = if strategy == "custom-grid" { "factors=1x4 " } else { "" };
    let overlap_opt = if overlap { "overlap=true " } else { "" };
    // depth>1 on a multi-dimensionally decomposed grid requires corner
    // exchanges; diagonals=true is a no-op on single-dim layouts.
    let depth_opt =
        if depth > 1 { format!("depth={depth} diagonals=true ") } else { String::new() };
    let modules: Vec<Module> = (0..ranks)
        .map(|rank| {
            let pipeline = format!(
                "shape-inference,distribute-stencil{{{depth_opt}{factors}grid=2x2 \
                 {overlap_opt}rank={rank} strategy={strategy}}},shape-inference,\
                 dmp-eliminate-redundant-swaps,convert-stencil-to-loops,dmp-to-mpi,mpi-to-func"
            );
            driver
                .run_str(stencil_stack::stencil::samples::heat_2d(n, 0.1), &pipeline)
                .unwrap_or_else(|e| panic!("{strategy} rank {rank}: {e}"))
                .module
        })
        .collect();
    let func = modules[0].lookup_symbol("heat").unwrap();
    let layout = func
        .attr("dmp.grid")
        .and_then(stencil_stack::ir::Attribute::as_grid)
        .expect("distributed module records its rank layout")
        .to_vec();
    (modules, layout)
}

#[test]
fn uneven_heat127_matches_single_rank_for_every_strategy() {
    let n = 127i64; // 127 is prime: no 2x2 grid divides it
    let shape = vec![n + 2, n + 2];
    let size = ((n + 2) * (n + 2)) as usize;
    let global: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();

    // Single-rank stencil-level reference.
    let mut serial = stencil_stack::stencil::samples::heat_2d(n, 0.1);
    stencil_stack::stencil::ShapeInference.run(&mut serial).unwrap();
    let src = BufView::from_data(shape.clone(), global.clone());
    let dst = BufView::from_data(shape.clone(), global.clone());
    Interpreter::new(&serial)
        .call_function("heat", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
        .unwrap();
    let want = dst.to_vec();

    for strategy in strategy_names() {
        for overlap in overlap_modes() {
            for depth in halo_depths() {
                let (modules, layout) = compile_per_rank(n, strategy, 4, overlap, depth);
                assert_eq!(layout.iter().product::<i64>(), 4, "{strategy}");
                let chunk =
                    |d: usize, coord: i64| stencil_stack::dmp::balanced_chunk(n, layout[d], coord);
                let coords_of =
                    |rank: i64| stencil_stack::dmp::decomposition::rank_to_coords(rank, &layout);
                // Local halo width per dimension: depth cells along
                // decomposed dims, 1 elsewhere (cells past the global pad
                // are dead and zero-filled).
                let halo = |d: usize| if layout[d] > 1 { depth } else { 1 };
                let (hy, hx) = (halo(0), halo(1));

                let g = &global;
                let full = n + 2;
                let (results, world) = run_spmd_modules(&modules, "heat", &move |rank| {
                    let c = coords_of(rank as i64);
                    let (oy, sy) = chunk(0, c[0]);
                    let (ox, sx) = chunk(1, *c.get(1).unwrap_or(&0));
                    let mut data = Vec::with_capacity(((sy + 2 * hy) * (sx + 2 * hx)) as usize);
                    for y in 0..sy + 2 * hy {
                        for x in 0..sx + 2 * hx {
                            let gy = oy + y - (hy - 1);
                            let gx = ox + x - (hx - 1);
                            let ok = gy >= 0 && gy < full && gx >= 0 && gx < full;
                            data.push(if ok { g[(gy * full + gx) as usize] } else { 0.0 });
                        }
                    }
                    vec![
                        ArgSpec::Buffer {
                            shape: vec![sy + 2 * hy, sx + 2 * hx],
                            data: data.clone(),
                        },
                        ArgSpec::Buffer { shape: vec![sy + 2 * hy, sx + 2 * hx], data },
                    ]
                })
                .unwrap();
                assert!(world.total_sent_messages() > 0, "{strategy}: halo exchange happened");

                let mut got = global.clone();
                for (rank, res) in results.iter().enumerate() {
                    let c = coords_of(rank as i64);
                    let (oy, sy) = chunk(0, c[0]);
                    let (ox, sx) = chunk(1, *c.get(1).unwrap_or(&0));
                    let out = &res.buffers[1];
                    for y in hy..hy + sy {
                        for x in hx..hx + sx {
                            got[((oy + 1 + y - hy) * full + ox + 1 + x - hx) as usize] =
                                out[(y * (sx + 2 * hx) + x) as usize];
                        }
                    }
                }
                assert_eq!(
                    got, want,
                    "{strategy} overlap={overlap} depth={depth}: distributed run must match \
                     single-rank bit-for-bit"
                );
            }
        }
    }
}

/// The same uneven domain through the *compiled* executor: per-rank
/// stencil-level modules (halo exchanges still `dmp.swap`) run on
/// [`Runner::step_distributed`] over SimMPI, once per executor
/// tier, and must match the single-rank interpreter bit-for-bit. This
/// is the strategy-matrix leg of the tier coverage — the template-JIT
/// tier has to survive every decomposition layout, not just the square
/// grids the bench kernels use.
#[test]
fn uneven_heat127_exec_tiers_match_single_rank_for_every_strategy() {
    let n = 127i64;
    let full = n + 2;
    let size = (full * full) as usize;
    let global: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();

    // Single-rank stencil-level reference.
    let mut serial = stencil_stack::stencil::samples::heat_2d(n, 0.1);
    stencil_stack::stencil::ShapeInference.run(&mut serial).unwrap();
    let src = BufView::from_data(vec![full, full], global.clone());
    let dst = BufView::from_data(vec![full, full], global.clone());
    Interpreter::new(&serial)
        .call_function("heat", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
        .unwrap();
    let want = dst.to_vec();

    let driver = Driver::new().with_verify_each(true);
    for strategy in strategy_names() {
        let factors = if strategy == "custom-grid" { "factors=1x4 " } else { "" };
        let modules: Vec<Module> = (0..4)
            .map(|rank| {
                let pipeline = format!(
                    "shape-inference,distribute-stencil{{{factors}grid=2x2 rank={rank} \
                     strategy={strategy}}},shape-inference,dmp-eliminate-redundant-swaps"
                );
                driver
                    .run_str(stencil_stack::stencil::samples::heat_2d(n, 0.1), &pipeline)
                    .unwrap_or_else(|e| panic!("{strategy} rank {rank}: {e}"))
                    .module
            })
            .collect();
        let layout = modules[0]
            .lookup_symbol("heat")
            .unwrap()
            .attr("dmp.grid")
            .and_then(stencil_stack::ir::Attribute::as_grid)
            .expect("distributed module records its rank layout")
            .to_vec();
        let chunk = |d: usize, coord: i64| stencil_stack::dmp::balanced_chunk(n, layout[d], coord);
        let coords_of =
            |rank: i64| stencil_stack::dmp::decomposition::rank_to_coords(rank, &layout);

        for tier in common::tiers() {
            let world = SimWorld::new(4);
            let mut outs: Vec<Vec<f64>> = vec![Vec::new(); 4];
            std::thread::scope(|scope| {
                for (rank, out) in outs.iter_mut().enumerate() {
                    let world = Arc::clone(&world);
                    let module = &modules[rank];
                    let (chunk, coords_of, global) = (&chunk, &coords_of, &global);
                    scope.spawn(move || {
                        let mut pipeline = compile_pipeline(module, "heat").unwrap();
                        pipeline.respecialize(Some(tier));
                        let c = coords_of(rank as i64);
                        let (oy, sy) = chunk(0, c[0]);
                        let (ox, sx) = chunk(1, *c.get(1).unwrap_or(&0));
                        // Local field = core + the 1-cell pad; local
                        // (y, x) sits at global (oy + y, ox + x).
                        assert_eq!(
                            pipeline.arg_shapes[0],
                            vec![sy + 2, sx + 2],
                            "{strategy} rank {rank}: local field shape"
                        );
                        let mut data = Vec::with_capacity(((sy + 2) * (sx + 2)) as usize);
                        for y in 0..sy + 2 {
                            for x in 0..sx + 2 {
                                data.push(global[((oy + y) * full + ox + x) as usize]);
                            }
                        }
                        let mut args = vec![data.clone(), data];
                        let mut runner = Runner::new(pipeline, 1);
                        runner.step_distributed(&mut args, &world, rank as i64).unwrap();
                        *out = args[1].clone();
                    });
                }
            });
            assert!(world.total_sent_messages() > 0, "{strategy}: halo exchange happened");

            let mut got = global.clone();
            for (rank, res) in outs.iter().enumerate() {
                let c = coords_of(rank as i64);
                let (oy, sy) = chunk(0, c[0]);
                let (ox, sx) = chunk(1, *c.get(1).unwrap_or(&0));
                for y in 1..=sy {
                    for x in 1..=sx {
                        got[((oy + y) * full + ox + x) as usize] = res[(y * (sx + 2) + x) as usize];
                    }
                }
            }
            assert_eq!(
                got, want,
                "{strategy} tier {tier:?}: compiled distributed run must match \
                 single-rank bit-for-bit"
            );
        }
    }
}

#[test]
fn strategies_share_results_but_not_cache_entries() {
    // The same module under distinct strategies must compile to distinct
    // cache keys (the strategy is part of the canonical pipeline), while
    // an even decomposition produces the same numbers under both.
    let opts_std = CompileOptions::distributed(vec![2, 2]);
    let opts_rb =
        CompileOptions::distributed_with_strategy(vec![2, 2], DecompStrategy::RecursiveBisection);
    assert_ne!(opts_std.pipeline_string(), opts_rb.pipeline_string());

    let m = || stencil_stack::stencil::samples::heat_2d(32, 0.1);
    let cold_std = compile(m(), &opts_std).unwrap();
    let cold_rb = compile(m(), &opts_rb).unwrap();
    // Second compiles hit their own entries — the strategies did not
    // collide in the cache.
    assert!(compile(m(), &opts_std).unwrap().cache_hit);
    assert!(compile(m(), &opts_rb).unwrap().cache_hit);

    // On an even 32×32 domain both lower to the same 2x2 layout and the
    // executed results agree.
    let init: Vec<f64> = (0..34 * 34).map(|i| (i as f64 * 0.07).cos()).collect();
    let run = |module: &Module| {
        let core = 16i64;
        let local = core + 2;
        let g = init.clone();
        let (results, _) = run_spmd(module, "heat", 4, &move |rank| {
            let (ry, rx) = ((rank as i64) / 2, (rank as i64) % 2);
            let mut data = Vec::new();
            for y in 0..local {
                for x in 0..local {
                    data.push(g[((ry * core + y) * 34 + rx * core + x) as usize]);
                }
            }
            vec![
                ArgSpec::Buffer { shape: vec![local, local], data: data.clone() },
                ArgSpec::Buffer { shape: vec![local, local], data },
            ]
        })
        .unwrap();
        results.into_iter().map(|r| r.buffers[1].clone()).collect::<Vec<_>>()
    };
    assert_eq!(run(&cold_std.module), run(&cold_rb.module));
}
