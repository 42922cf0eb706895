//! Overlapped halo exchange ≡ synchronous execution, bit for bit.
//!
//! The acceptance bar for communication/computation overlap: on random
//! 1D/2D/3D stencils over *uneven* domains, across every decomposition
//! strategy and every executor tier, the overlapped pipeline
//! (`distribute-stencil{overlap=true}` → `SwapBegin` / interior /
//! `SwapWait` / boundary shells) produces exactly the bytes of the
//! synchronous pipeline — and diagonal exchanges
//! (`diagonals=true`) make corner-touching stencils match the serial
//! reference, where face-only exchanges silently read stale corners.

mod common;

use common::Rng;
use stencil_stack::dialects::{arith, func};
use stencil_stack::dmp::{make_strategy, DistributeStencil};
use stencil_stack::ir::{FieldType, TempType, Type};
use stencil_stack::prelude::*;
use stencil_stack::stencil::ops;
use stencil_stack::stencil::ShapeInference;

#[derive(Clone, Debug)]
struct RandStencil {
    /// (offset per dim, coefficient) terms.
    terms: Vec<(Vec<i64>, f64)>,
    dims: usize,
    radius: i64,
}

/// Random symmetric stencil (the dmp exchange is a symmetric pairwise
/// swap, so every term is mirrored). `corners=false` keeps offsets on the
/// axes (face exchanges suffice); `corners=true` allows full-box offsets.
fn rand_stencil(dims: usize, radius: i64, corners: bool, rng: &mut Rng) -> RandStencil {
    let num_terms = rng.range_usize(1, 5);
    let mut terms: Vec<(Vec<i64>, f64)> = (0..num_terms)
        .map(|_| {
            let offset: Vec<i64> = if corners {
                (0..dims).map(|_| rng.range_i64(-radius, radius + 1)).collect()
            } else {
                // One random axis gets the displacement; the rest are 0.
                let axis = rng.range_usize(0, dims);
                (0..dims)
                    .map(|d| if d == axis { rng.range_i64(-radius, radius + 1) } else { 0 })
                    .collect()
            };
            (offset, rng.range_f64(-2.0, 2.0))
        })
        .collect();
    let mirrored: Vec<(Vec<i64>, f64)> =
        terms.iter().map(|(o, c)| (o.iter().map(|x| -x).collect(), 0.5 * c)).collect();
    terms.extend(mirrored);
    RandStencil { terms, dims, radius }
}

/// Builds `dst[core] = Σ c_i · src[x + o_i]` over an `n^dims` core with a
/// `radius`-cell halo.
fn build(st: &RandStencil, n: i64) -> Module {
    let dims = st.dims;
    let mut m = Module::new();
    let bounds = Bounds::from_shape(&vec![n; dims]).grown(st.radius);
    let fld = Type::Field(FieldType::new(bounds, Type::F64));
    let (mut f, args) = func::definition(&mut m.values, "rand", vec![fld.clone(), fld], vec![]);
    let (src, dst) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src);
    let t = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let terms = st.terms.clone();
    let ap = ops::apply(
        &mut m.values,
        vec![t],
        vec![Type::Temp(TempType::unknown(dims, Type::F64))],
        move |vt, a| {
            let mut body = Vec::new();
            let mut acc: Option<stencil_stack::ir::Value> = None;
            for (off, c) in &terms {
                let access = ops::access(vt, a[0], off.clone());
                let av = access.result(0);
                body.push(access);
                let cv_op = arith::const_f64(vt, *c);
                let cv = cv_op.result(0);
                body.push(cv_op);
                let mul = arith::mulf(vt, cv, av);
                let mv = mul.result(0);
                body.push(mul);
                acc = Some(match acc {
                    None => mv,
                    Some(prev) => {
                        let add = arith::addf(vt, prev, mv);
                        let v = add.result(0);
                        body.push(add);
                        v
                    }
                });
            }
            body.push(ops::ret(vec![acc.expect("at least one term")]));
            body
        },
    );
    let out = ap.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.push(ap);
    body.push(ops::store(out, dst, vec![0; dims], vec![n; dims]));
    body.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    ShapeInference.run(&mut m).unwrap();
    m
}

/// Compiles one module per rank and runs `timesteps` ping-pong steps of
/// the SPMD pipeline over SimMPI from `global` (laid out by `layout`);
/// returns every rank's final `src` buffer (post-swap, so halos are
/// compared too).
fn run_distributed(
    modules: &[Module],
    layout: &Layout,
    global: &[f64],
    tier: Option<TierKind>,
    threads: usize,
    timesteps: usize,
) -> Vec<Vec<f64>> {
    let world = SimWorld::new(modules.len());
    launch_with(&world, layout.scatter(global), |rank, data| {
        let mut pipeline = compile_pipeline(&modules[rank], "rand")?;
        pipeline.respecialize(tier);
        assert_eq!(
            pipeline.arg_shapes[0],
            layout.ranks[rank].stored.shape(),
            "rank {rank}: scatter shape must match the distributed field"
        );
        let mut args = vec![data.clone(), data];
        let mut runner = Runner::new(pipeline, threads);
        for _ in 0..timesteps {
            runner.step_distributed(&mut args, &world, rank as i64)?;
            args.swap(0, 1);
        }
        Ok::<_, String>(args.swap_remove(0))
    })
    .unwrap()
}

/// Distributes `make()` once per rank under `strategy` (with optional
/// overlap/diagonals), returning the modules, each one's rank grid, and
/// the layout of the ranks' boxes over the undistributed field.
#[allow(clippy::type_complexity)]
#[allow(clippy::too_many_arguments)] // test driver threads its full configuration
fn per_rank_modules(
    make: &dyn Fn() -> Module,
    grid: &[i64],
    strategy: &str,
    factors: Option<Vec<i64>>,
    overlap: bool,
    diagonals: bool,
    depth: i64,
) -> (Vec<Module>, Vec<Vec<i64>>, Layout) {
    let field = RankBox::of(&make(), "rand").unwrap().stored;
    let ranks: i64 = grid.iter().product();
    let mut modules = Vec::new();
    let mut layouts = Vec::new();
    for rank in 0..ranks {
        let mut m = make();
        DistributeStencil::with_strategy(
            grid.to_vec(),
            make_strategy(strategy, factors.clone()).unwrap(),
        )
        .for_rank(rank)
        .with_overlap(overlap)
        .with_diagonals(diagonals)
        .with_depth(stencil_stack::dmp::HaloDepth::Fixed(depth))
        .run(&mut m)
        .unwrap();
        ShapeInference.run(&mut m).unwrap();
        let f = m.lookup_symbol("rand").unwrap();
        let layout = f
            .attr("dmp.grid")
            .and_then(stencil_stack::ir::Attribute::as_grid)
            .expect("distributed module records its layout")
            .to_vec();
        layouts.push(layout);
        modules.push(m);
    }
    let placement = Layout::of_modules(field, &modules, "rand").unwrap();
    (modules, layouts, placement)
}

#[test]
fn overlap_equals_sync_bitwise_across_strategies_and_tiers() {
    // Uneven domains: no strategy divides these extents evenly.
    #[allow(clippy::type_complexity)] // (dims, n, grid, custom-grid factors) rows
    let cases: [(usize, i64, Vec<i64>, Option<Vec<i64>>); 3] = [
        (1, 13, vec![2], Some(vec![2])),
        (2, 10, vec![2, 2], Some(vec![1, 4])),
        (3, 7, vec![2, 2], Some(vec![2, 2, 1])),
    ];
    for (dims, n, grid, factors) in cases {
        for seed in 0..2u64 {
            let mut rng = Rng::new(4200 + seed * 31 + dims as u64);
            let radius = 1 + (seed as i64 % 2); // halo width 1 or 2
            let st = rand_stencil(dims, radius, dims > 1, &mut rng);
            let gsize = ((n + 2 * radius) as usize).pow(dims as u32);
            let global: Vec<f64> =
                (0..gsize).map(|i| ((i as f64) * 0.21 + seed as f64 * 0.13).sin()).collect();
            for (strategy, factors) in [
                ("standard-slicing", None),
                ("recursive-bisection", None),
                ("custom-grid", factors.clone()),
            ] {
                let make = || build(&st, n);
                let (sync_m, layouts, placement) =
                    per_rank_modules(&make, &grid, strategy, factors.clone(), false, false, 1);
                let (over_m, layouts2, placement2) =
                    per_rank_modules(&make, &grid, strategy, factors.clone(), true, false, 1);
                assert_eq!((&layouts, &placement), (&layouts2, &placement2));
                for tier in common::tiers() {
                    for threads in [1usize, 2] {
                        let a =
                            run_distributed(&sync_m, &placement, &global, Some(tier), threads, 3);
                        let b =
                            run_distributed(&over_m, &placement, &global, Some(tier), threads, 3);
                        assert_eq!(
                            a, b,
                            "dims {dims} seed {seed} {strategy} tier {tier:?} threads {threads}: \
                             overlap must be bit-identical to sync"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn deep_halo_onions_are_disjoint_and_covering() {
    use stencil_stack::dmp::{deep_phase_regions, HaloRegionSplit};
    let inside = |b: &Bounds, p: &[i64]| b.0.iter().zip(p).all(|(&(l, u), &x)| l <= x && x < u);
    let mut rng = Rng::new(2026);
    for round in 0..30usize {
        let dims = 1 + round % 3;
        let core = Bounds::new(
            (0..dims)
                .map(|_| {
                    let lo = rng.range_i64(-3, 3);
                    (lo, lo + rng.range_i64(2, 9))
                })
                .collect(),
        );
        let lo_w: Vec<i64> = (0..dims).map(|_| rng.range_i64(0, 3)).collect();
        let mut hi_w: Vec<i64> = (0..dims).map(|_| rng.range_i64(0, 3)).collect();
        if lo_w.iter().chain(&hi_w).all(|&w| w == 0) {
            hi_w[0] = 1;
        }
        for k in 1..=4i64 {
            let regions = deep_phase_regions(&core, &lo_w, &hi_w, k);
            assert_eq!(regions.len(), k as usize);
            assert_eq!(*regions.last().unwrap(), core, "round {round} k {k}: last phase is core");
            // Phases nest: each later region sits inside the previous
            // one (the onion shrinks by one halo width per step).
            for j in 1..regions.len() {
                assert!(
                    regions[j - 1].contains(&regions[j]),
                    "round {round} k {k}: phase {j} must nest in phase {}",
                    j - 1
                );
            }
            // The phase-0 split against the full k-wide exchange is a
            // partition: every point lands in exactly one of interior +
            // shells, and nothing leaks outside phase 0.
            let deep_lo: Vec<i64> = lo_w.iter().map(|w| w * k).collect();
            let deep_hi: Vec<i64> = hi_w.iter().map(|w| w * k).collect();
            let split = HaloRegionSplit::compute(&regions[0], &deep_lo, &deep_hi);
            for p in regions[0].points() {
                let hits = usize::from(inside(&split.interior, &p))
                    + split.shells.iter().filter(|s| inside(&s.bounds, &p)).count();
                assert_eq!(hits, 1, "round {round} k {k}: point {p:?} covered exactly once");
            }
            assert!(regions[0].contains(&split.interior));
            for s in &split.shells {
                assert!(regions[0].contains(&s.bounds), "round {round} k {k}: shell inside");
            }
        }
    }
}

#[test]
fn temporal_blocking_depths_are_bit_identical_across_strategies_and_tiers() {
    // Owned cores after any number of steps must not depend on the
    // exchange cadence: depth=k (one width-k·r exchange per k steps, with
    // redundant shell compute) ≡ depth=1 overlap ≡ synchronous, across
    // every strategy and executor tier. Multi-dimensional decompositions
    // need diagonals=true at depth>1 (trapezoid phases read corner halo
    // cells), so the 2D baseline runs with diagonals too.
    #[allow(clippy::type_complexity)] // (dims, n, grid, custom-grid factors) rows
    let cases: [(usize, i64, Vec<i64>, Option<Vec<i64>>); 2] =
        [(1, 24, vec![2], Some(vec![2])), (2, 12, vec![2, 2], Some(vec![2, 2]))];
    for (dims, n, grid, factors) in cases {
        let mut rng = Rng::new(777 + dims as u64);
        let radius = 1i64;
        let st = rand_stencil(dims, radius, dims > 1, &mut rng);
        let diagonals = dims > 1;
        let gsize = ((n + 2 * radius) as usize).pow(dims as u32);
        let global: Vec<f64> = (0..gsize).map(|i| ((i as f64) * 0.19).sin()).collect();
        for (strategy, factors) in [
            ("standard-slicing", None),
            ("recursive-bisection", None),
            ("custom-grid", factors.clone()),
        ] {
            let make = || build(&st, n);
            let (sync_m, layouts, placement) =
                per_rank_modules(&make, &grid, strategy, factors.clone(), false, diagonals, 1);
            for tier in common::tiers() {
                let owned = |layout: &Layout, outs: Vec<Vec<f64>>| {
                    let mut g = vec![0.0; gsize];
                    layout.gather_into(&outs, &mut g);
                    g
                };
                let base = owned(
                    &placement,
                    run_distributed(&sync_m, &placement, &global, Some(tier), 1, 4),
                );
                for (depth, overlap) in [(1, true), (2, true), (4, true), (4, false)] {
                    let (deep_m, dl, deep) = per_rank_modules(
                        &make,
                        &grid,
                        strategy,
                        factors.clone(),
                        overlap,
                        diagonals,
                        depth,
                    );
                    assert_eq!(layouts, dl);
                    let got =
                        owned(&deep, run_distributed(&deep_m, &deep, &global, Some(tier), 1, 4));
                    assert_eq!(
                        got, base,
                        "dims {dims} {strategy} tier {tier:?} depth {depth} overlap {overlap}: \
                         owned cores must be bit-identical to the synchronous baseline"
                    );
                }
            }
        }
    }
}

/// Serial reference: `timesteps` ping-pong steps of the same function on
/// the undistributed module.
fn run_serial(module: &Module, n: i64, radius: i64, global: &[f64], timesteps: usize) -> Vec<f64> {
    let dims = {
        let f = module.lookup_symbol("rand").unwrap();
        match &stencil_stack::dialects::func::FuncOp(f).function_type().inputs[0] {
            Type::Field(fl) => fl.bounds.rank(),
            other => panic!("unexpected arg {other:?}"),
        }
    };
    let shape = vec![n + 2 * radius; dims];
    let mut bufs = [
        BufView::from_data(shape.clone(), global.to_vec()),
        BufView::from_data(shape, global.to_vec()),
    ];
    for _ in 0..timesteps {
        Interpreter::new(module)
            .call_function(
                "rand",
                vec![RtValue::Buffer(bufs[0].clone()), RtValue::Buffer(bufs[1].clone())],
            )
            .unwrap();
        bufs.swap(0, 1);
    }
    bufs[0].to_vec()
}

#[test]
fn diagonal_exchanges_fix_corner_reading_stencils() {
    // A stencil that reads the (-1,-1)/(1,1) corners: face-only
    // exchanges leave rank-corner halo cells stale.
    let st = RandStencil {
        terms: vec![
            (vec![1, 1], 0.4),
            (vec![-1, -1], 0.2),
            (vec![1, 0], -0.3),
            (vec![-1, 0], -0.15),
        ],
        dims: 2,
        radius: 1,
    };
    let n = 9i64; // uneven on a 2x2 grid: 5+4 per dimension
    let gsize = ((n + 2) * (n + 2)) as usize;
    let global: Vec<f64> = (0..gsize).map(|i| (i as f64 * 0.17).cos()).collect();
    let serial = build(&st, n);
    let want = run_serial(&serial, n, 1, &global, 2);

    let make = || build(&st, n);
    let run = |diagonals: bool, overlap: bool| {
        let (modules, _, placement) =
            per_rank_modules(&make, &[2, 2], "standard-slicing", None, overlap, diagonals, 1);
        let outs = run_distributed(&modules, &placement, &global, None, 1, 2);
        let mut got = global.clone();
        placement.gather_into(&outs, &mut got);
        got
    };

    // With corner exchanges the distributed run matches serial exactly —
    // overlapped or not.
    assert_eq!(run(true, false), want, "diagonals=true matches serial bit-for-bit");
    assert_eq!(run(true, true), want, "diagonals+overlap matches serial bit-for-bit");
    // Without them the second step reads stale corners: the silent wrong
    // answer this option exists to fix.
    assert_ne!(run(false, false), want, "face-only exchanges leave corners stale");
}

#[test]
fn overlapped_mpi_lowering_matches_serial_interpreted() {
    // The dmp→mpi overlap path (begin / interior loop / per-receive wait
    // / shells) interpreted over SimMPI, against the serial reference.
    let n = 16i64;
    let shape = vec![n + 2, n + 2];
    let size = ((n + 2) * (n + 2)) as usize;
    let global: Vec<f64> = (0..size).map(|i| (i as f64 * 0.05).cos()).collect();

    let mut serial = stencil_stack::stencil::samples::heat_2d(n, 0.1);
    ShapeInference.run(&mut serial).unwrap();
    let src = BufView::from_data(shape.clone(), global.clone());
    let dst = BufView::from_data(shape.clone(), global.clone());
    Interpreter::new(&serial)
        .call_function("heat", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
        .unwrap();
    let want = dst.to_vec();

    let mut m = stencil_stack::stencil::samples::heat_2d(n, 0.1);
    ShapeInference.run(&mut m).unwrap();
    DistributeStencil::new(vec![2, 2]).with_overlap(true).run(&mut m).unwrap();
    ShapeInference.run(&mut m).unwrap();
    let layout = Layout::of_spmd(Bounds::new(vec![(-1, n + 1); 2]), &m, "heat").unwrap();
    stencil_stack::stencil::StencilToLoops.run(&mut m).unwrap();
    stencil_stack::mpi::DmpToMpi.run(&mut m).unwrap();
    stencil_stack::mpi::MpiToFunc.run(&mut m).unwrap();
    let text = sten_ir_text(&m);
    assert!(text.contains("MPI_Wait"), "split barrier survives to func level: {text}");

    let parts = layout.scatter(&global);
    let (results, _) =
        run_spmd(&m, "heat", 4, &|rank| common::buffer_pair(&layout, &parts, rank)).unwrap();
    let outs: Vec<Vec<f64>> = results.into_iter().map(|r| r.buffers[1].clone()).collect();
    let mut got = global.clone();
    layout.gather_into(&outs, &mut got);
    assert_eq!(got, want, "overlapped MPI lowering must match serial bit-for-bit");
}

fn sten_ir_text(m: &Module) -> String {
    stencil_stack::ir::print_module(m)
}
