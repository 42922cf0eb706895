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

use stencil_stack::ir::Type;
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

/// The global heat-2d field of an `n`-point core: the core plus the
/// 1-cell boundary ring.
fn heat_field(n: i64) -> Bounds {
    Bounds::new(vec![(-1, n + 1); 2])
}

/// The `distribute-stencil` pass options of one rank: custom-grid takes
/// an explicit factorization (1x4 refactors the 2x2 request into column
/// slabs, a layout neither other strategy produces here), and depth>1
/// on a multi-dimensionally decomposed grid requires corner exchanges
/// (diagonals=true is a no-op on single-dim layouts).
fn distribute_options(strategy: &str, rank: i64, overlap: bool, depth: i64) -> String {
    let factors = if strategy == "custom-grid" { "factors=1x4 " } else { "" };
    let overlap_opt = if overlap { "overlap=true " } else { "" };
    let depth_opt =
        if depth > 1 { format!("depth={depth} diagonals=true ") } else { String::new() };
    format!("{depth_opt}{factors}grid=2x2 {overlap_opt}rank={rank} strategy={strategy}")
}

/// Distributes heat-2d for every rank through the textual pipeline (the
/// same strings `sten-opt -p` takes), stopping at the stencil level
/// where the field types still hold each rank's box.
fn distribute_per_rank(
    driver: &Driver,
    n: i64,
    strategy: &str,
    overlap: bool,
    depth: i64,
) -> Vec<Module> {
    (0..4)
        .map(|rank| {
            let options = distribute_options(strategy, rank, overlap, depth);
            let pipeline = format!(
                "shape-inference,distribute-stencil{{{options}}},shape-inference,\
                 dmp-eliminate-redundant-swaps"
            );
            driver
                .run_str(stencil_stack::stencil::samples::heat_2d(n, 0.1), &pipeline)
                .unwrap_or_else(|e| panic!("{strategy} rank {rank}: {e}"))
                .module
        })
        .collect()
}

/// The rank layout the strategy chose, as the distributed module records
/// it.
fn rank_grid(module: &Module) -> Vec<i64> {
    module
        .lookup_symbol("heat")
        .unwrap()
        .attr("dmp.grid")
        .and_then(stencil_stack::ir::Attribute::as_grid)
        .expect("distributed module records its rank layout")
        .to_vec()
}

/// The single-rank stencil-level reference: one heat-2d step of `global`.
fn serial_heat(n: i64, global: &[f64]) -> Vec<f64> {
    let mut serial = stencil_stack::stencil::samples::heat_2d(n, 0.1);
    stencil_stack::stencil::ShapeInference.run(&mut serial).unwrap();
    let shape = vec![n + 2, n + 2];
    let src = BufView::from_data(shape.clone(), global.to_vec());
    let dst = BufView::from_data(shape, global.to_vec());
    Interpreter::new(&serial)
        .call_function("heat", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
        .unwrap();
    dst.to_vec()
}

#[test]
fn uneven_heat127_matches_single_rank_for_every_strategy() {
    let n = 127i64; // 127 is prime: no 2x2 grid divides it
    let size = ((n + 2) * (n + 2)) as usize;
    let global: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();
    let want = serial_heat(n, &global);

    let driver = Driver::new().with_verify_each(true);
    for strategy in common::strategies() {
        for overlap in overlap_modes() {
            for depth in halo_depths() {
                // Lay the ranks out at the stencil level, then lower each
                // module to the func/MPI level. On this path a deep halo
                // is exchanged every step; its cells past the global pad
                // are dead and scatter as zeros.
                let distributed = distribute_per_rank(&driver, n, strategy, overlap, depth);
                assert_eq!(rank_grid(&distributed[0]).iter().product::<i64>(), 4, "{strategy}");
                let layout = Layout::of_modules(heat_field(n), &distributed, "heat").unwrap();
                let modules: Vec<Module> = distributed
                    .into_iter()
                    .map(|m| {
                        let lower = "convert-stencil-to-loops,dmp-to-mpi,mpi-to-func";
                        driver.run_str(m, lower).unwrap().module
                    })
                    .collect();
                let parts = layout.scatter(&global);
                let (results, world) = run_spmd_modules(&modules, "heat", &|rank| {
                    common::buffer_pair(&layout, &parts, rank)
                })
                .unwrap();
                assert!(world.total_sent_messages() > 0, "{strategy}: halo exchange happened");

                let outs: Vec<Vec<f64>> =
                    results.into_iter().map(|r| r.buffers[1].clone()).collect();
                let mut got = global.clone();
                layout.gather_into(&outs, &mut got);
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
    let size = ((n + 2) * (n + 2)) as usize;
    let global: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();
    let want = serial_heat(n, &global);

    let driver = Driver::new().with_verify_each(true);
    for strategy in common::strategies() {
        let modules = distribute_per_rank(&driver, n, strategy, false, 1);
        let layout = Layout::of_modules(heat_field(n), &modules, "heat").unwrap();
        for tier in common::tiers() {
            let world = SimWorld::new(4);
            let outs = launch_with(&world, layout.scatter(&global), |rank, data| {
                let mut pipeline = compile_pipeline(&modules[rank], "heat")?;
                pipeline.respecialize(Some(tier));
                assert_eq!(
                    pipeline.arg_shapes[0],
                    layout.ranks[rank].stored.shape(),
                    "{strategy} rank {rank}: local field shape"
                );
                let mut args = vec![data.clone(), data];
                Runner::new(pipeline, 1).step_distributed(&mut args, &world, rank as i64)?;
                Ok::<_, String>(args.swap_remove(1))
            })
            .unwrap();
            assert!(world.total_sent_messages() > 0, "{strategy}: halo exchange happened");

            let mut got = global.clone();
            layout.gather_into(&outs, &mut got);
            assert_eq!(
                got, want,
                "{strategy} tier {tier:?}: compiled distributed run must match \
                 single-rank bit-for-bit"
            );
        }
    }
}

/// The launcher's layout against what distribution and compilation
/// produce: on the uneven 127² domain under every strategy (and a
/// depth-2 deep halo), each rank's stored box is its module's field
/// type and its pipeline's argument shape, the cores tile the global
/// core, and a scatter/gather round trip restores every owned cell. On
/// an even domain the shared-module layout, placed by the pass's own
/// decomposition, equals the per-rank modules' boxes under every
/// strategy.
#[test]
fn layout_boxes_are_the_distributed_field_types() {
    let n = 127i64;
    let size = ((n + 2) * (n + 2)) as usize;
    let global: Vec<f64> = (0..size).map(|i| (i as f64 * 0.37).cos() + 2.0).collect();
    let driver = Driver::new();
    let mut cases: Vec<(&str, i64)> = common::strategies().into_iter().map(|s| (s, 1)).collect();
    cases.push(("standard-slicing", 2));
    for (strategy, depth) in cases {
        let modules = distribute_per_rank(&driver, n, strategy, false, depth);
        let layout = Layout::of_modules(heat_field(n), &modules, "heat").unwrap();
        let case = format!("{strategy} depth {depth}");
        assert_eq!(layout.ranks.len(), 4, "{case}");
        let mut owned = 0;
        for (rank, (module, rank_box)) in modules.iter().zip(&layout.ranks).enumerate() {
            let f = module.lookup_symbol("heat").unwrap();
            for &arg in &f.region_block(0).args {
                let Type::Field(fld) = module.values.ty(arg) else { panic!("{case}: field") };
                assert_eq!(fld.bounds, rank_box.stored, "{case} rank {rank}: field type");
            }
            let pipeline = compile_pipeline(module, "heat").unwrap();
            for shape in &pipeline.arg_shapes {
                assert_eq!(*shape, rank_box.stored.shape(), "{case} rank {rank}: arg shape");
            }
            assert!(rank_box.stored.contains(&rank_box.core), "{case} rank {rank}");
            owned += rank_box.core.num_points();
        }
        assert_eq!(owned, n * n, "{case}: the cores tile the global core");

        let parts = layout.scatter(&global);
        let mut back = vec![f64::NAN; size];
        layout.gather_into(&parts, &mut back);
        let core = Bounds::new(vec![(0, n); 2]);
        for p in core.points() {
            let flat = ((p[0] + 1) * (n + 2) + p[1] + 1) as usize;
            assert_eq!(back[flat], global[flat], "{case}: owned cell {p:?}");
        }
    }

    for strategy in common::strategies() {
        let even = distribute_per_rank(&driver, 128, strategy, false, 1);
        let per_rank = Layout::of_modules(heat_field(128), &even, "heat").unwrap();
        let shared = Layout::of_spmd(heat_field(128), &even[0], "heat").unwrap();
        assert_eq!(shared, per_rank, "{strategy}: the decomposition places every rank's box");
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
    let distributed = distribute_per_rank(&Driver::new(), 32, "standard-slicing", false, 1);
    let layout = Layout::of_spmd(heat_field(32), &distributed[0], "heat").unwrap();
    let init: Vec<f64> = (0..34 * 34).map(|i| (i as f64 * 0.07).cos()).collect();
    let parts = layout.scatter(&init);
    let run = |module: &Module| {
        let (results, _) =
            run_spmd(module, "heat", 4, &|rank| common::buffer_pair(&layout, &parts, rank))
                .unwrap();
        results.into_iter().map(|r| r.buffers[1].clone()).collect::<Vec<_>>()
    };
    assert_eq!(run(&cold_std.module), run(&cold_rb.module));
}
