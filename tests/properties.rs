//! Property-based tests of the stack's core invariants, driven by the
//! seeded deterministic generator in `common::Rng`.

mod common;

use common::Rng;
use stencil_stack::dmp::decomposition::{
    coords_to_rank, neighbor_rank, rank_to_coords, CustomGrid, DecompositionStrategy,
    RecursiveBisection, StandardSlicing,
};
use stencil_stack::prelude::*;

/// For random (possibly uneven) domains and grids, every strategy's
/// per-rank cores tile the global core exactly: disjoint and covering,
/// with per-dimension sizes differing by at most one cell.
#[test]
fn decomposition_partitions_the_domain() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed);
        let dims_n = rng.range_usize(1, 4);
        let grid: Vec<i64> =
            (0..rng.range_usize(1, dims_n + 1)).map(|_| rng.range_i64(1, 5)).collect();
        let lb = rng.range_i64(-10, 10);
        // Uneven on purpose: extents need not divide by the grid, only
        // fit at least one cell per rank along each decomposed dim.
        let mut dims = Vec::new();
        for d in 0..dims_n {
            let g = grid.get(d).copied().unwrap_or(1);
            dims.push((lb, lb + g + rng.range_i64(0, 20)));
        }
        let global = Bounds::new(dims);
        let ranks: i64 = grid.iter().product();

        let strategies: Vec<Box<dyn DecompositionStrategy>> = vec![
            Box::new(StandardSlicing::new()),
            Box::new(RecursiveBisection::new()),
            Box::new(CustomGrid::new(grid.clone())),
        ];
        for s in &strategies {
            let Ok(layout) = s.layout(&global, &grid) else {
                // recursive-bisection may refuse grids it cannot place
                // (more ranks than cells in every splittable dim).
                continue;
            };
            assert_eq!(layout.iter().product::<i64>(), ranks, "seed {seed} {}", s.name());
            let mut covered = std::collections::HashSet::new();
            let mut per_dim_sizes: Vec<std::collections::HashSet<i64>> =
                vec![std::collections::HashSet::new(); global.rank()];
            for r in 0..ranks {
                let coords = rank_to_coords(r, &layout);
                let local = s
                    .local_core(&global, &layout, &coords)
                    .unwrap_or_else(|e| panic!("seed {seed} {}: rank {r}: {e}", s.name()));
                assert!(global.contains(&local), "seed {seed} {}", s.name());
                assert!(local.num_points() > 0, "seed {seed} {}: empty rank", s.name());
                for (d, sizes) in per_dim_sizes.iter_mut().enumerate() {
                    sizes.insert(local.size(d));
                }
                // Mark every owned cell: disjointness is exact.
                for pt in local.points() {
                    assert!(
                        covered.insert(pt.clone()),
                        "seed {seed} {}: cell {pt:?} owned twice",
                        s.name()
                    );
                }
            }
            // Disjoint (asserted above) + full count ⟹ covering.
            assert_eq!(covered.len() as i64, global.num_points(), "seed {seed} {}", s.name());
            // Balanced: sizes along each dim differ by at most one.
            for (d, sizes) in per_dim_sizes.iter().enumerate() {
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "seed {seed} {} dim {d}: {sizes:?}", s.name());
            }
        }
    }
}

/// Exchange declarations mirror between neighbours: what rank r sends
/// toward direction +d is exactly what rank r+1 expects to receive in
/// its low halo (same size; send region of one maps onto the receive
/// region of the other under the core-size translation).
#[test]
fn exchanges_mirror_between_neighbors() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed);
        let core_size = rng.range_i64(2, 12);
        let halo = rng.range_i64(1, 3);
        let grid0 = rng.range_i64(2, 5);

        let core = Bounds::new(vec![(0, core_size)]);
        let field = core.grown(halo);
        let s = StandardSlicing::new();
        let ex = s.exchanges(&field, &core, &[grid0], &[halo], &[halo]);
        assert_eq!(ex.len(), 2, "seed {seed}");
        let low = ex.iter().find(|e| e.to == vec![-1]).unwrap();
        let high = ex.iter().find(|e| e.to == vec![1]).unwrap();
        assert_eq!(&low.size, &high.size, "seed {seed}");
        // The upper neighbour's low-halo receive region, shifted by the
        // core size, equals this rank's high-side send region.
        let send_at_high = high.send_at()[0];
        let recv_at_low = low.at[0];
        assert_eq!(send_at_high, recv_at_low + core_size, "seed {seed}");
        // Tags match: the tag used to send toward +1 equals the tag the
        // neighbour uses to receive from -1.
        let send_tag = stencil_stack::mpi::dmp_to_mpi::tag_for_direction(&high.to);
        let neg: Vec<i64> = low.to.iter().map(|t| -t).collect();
        let recv_tag = stencil_stack::mpi::dmp_to_mpi::tag_for_direction(&neg);
        assert_eq!(send_tag, recv_tag, "seed {seed}");
    }
}

/// Rank ↔ coordinate mappings are inverse bijections, and neighbour
/// lookups respect grid boundaries.
#[test]
fn rank_coordinate_bijection() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed);
        let grid: Vec<i64> = (0..rng.range_usize(1, 4)).map(|_| rng.range_i64(1, 5)).collect();
        let total: i64 = grid.iter().product();
        let mut seen = std::collections::HashSet::new();
        for r in 0..total {
            let c = rank_to_coords(r, &grid);
            assert_eq!(coords_to_rank(&c, &grid), Some(r), "seed {seed}");
            assert!(seen.insert(c.clone()), "seed {seed}");
            for d in 0..grid.len() {
                let mut dir = vec![0i64; grid.len()];
                dir[d] = 1;
                match neighbor_rank(r, &grid, &dir).unwrap() {
                    Some(n) => {
                        let mut back = vec![0i64; grid.len()];
                        back[d] = -1;
                        assert_eq!(neighbor_rank(n, &grid, &back).unwrap(), Some(r), "seed {seed}");
                    }
                    None => assert_eq!(c[d], grid[d] - 1, "seed {seed}"),
                }
            }
        }
    }
}

/// Fornberg weights reproduce the derivative of polynomials exactly
/// (degree < number of points).
#[test]
fn fornberg_weights_are_exact_on_polynomials() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed);
        let radius = rng.range_usize(1, 4);
        let m = rng.range_usize(1, 3);
        let scale = rng.range_f64(0.1, 2.0);

        let xs: Vec<f64> = (-(radius as i64)..=radius as i64).map(|i| i as f64 * scale).collect();
        if m >= xs.len() {
            continue;
        }
        let w = stencil_stack::devito::fd_weights(0.0, &xs, m);
        // Differentiate x^k for k = 0..xs.len(): d^m/dx^m x^k at 0 is
        // k!/(k-m)! · 0^(k-m) — nonzero only at k = m, where it is m!.
        for k in 0..xs.len() {
            let got: f64 = xs.iter().zip(&w).map(|(x, wi)| wi * x.powi(k as i32)).sum();
            let want = if k == m { (1..=m).product::<usize>() as f64 } else { 0.0 };
            let tol = 1e-7 * (1.0 + w.iter().map(|x| x.abs()).sum::<f64>());
            assert!((got - want).abs() < tol, "seed {seed} k={k}: {got} vs {want}");
        }
    }
}

/// Bounds algebra: grow/translate/intersect behave like interval
/// arithmetic.
#[test]
fn bounds_algebra() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed);
        let lb = rng.range_i64(-50, 50);
        let size = rng.range_i64(1, 40);
        let shift = rng.range_i64(-20, 20);
        let grow = rng.range_i64(0, 6);

        let b = Bounds::new(vec![(lb, lb + size)]);
        assert_eq!(b.grown(grow).num_points(), size + 2 * grow, "seed {seed}");
        let t = b.translated(&[shift]);
        assert_eq!(t.num_points(), b.num_points(), "seed {seed}");
        let self_inter = b.intersect(&b);
        assert_eq!(self_inter.as_ref(), Some(&b), "seed {seed}");
        let disjoint = b.translated(&[size + 1]);
        assert!(b.intersect(&disjoint).is_none(), "seed {seed}");
        // Intersection with a translate has the expected size.
        if shift.abs() < size {
            let inter = b.intersect(&t).unwrap();
            assert_eq!(inter.num_points(), size - shift.abs(), "seed {seed}");
        }
    }
}

/// Redundant-swap elimination never changes distributed results.
#[test]
fn swap_dedup_preserves_semantics() {
    for seed in 0..12u64 {
        let n = 64i64;
        let input: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.1 + seed as f64).sin()).collect();

        // Build a distributed jacobi with a duplicated swap, then dedup.
        let mut m = stencil_stack::stencil::samples::jacobi_1d(n);
        stencil_stack::stencil::ShapeInference.run(&mut m).unwrap();
        stencil_stack::dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        stencil_stack::stencil::ShapeInference.run(&mut m).unwrap();
        // Duplicate every dmp.swap.
        {
            let f = m.lookup_symbol_mut("jacobi").unwrap();
            let block = f.region_block_mut(0);
            let mut ops = Vec::new();
            for op in block.ops.drain(..) {
                let dup = (op.name == "dmp.swap").then(|| op.clone());
                ops.push(op);
                if let Some(d) = dup {
                    ops.push(d);
                }
            }
            block.ops = ops;
        }
        let layout =
            common::spmd_layout(stencil_stack::stencil::samples::jacobi_1d(n), "jacobi", vec![2]);
        let run = |m: &Module, input: &[f64]| {
            let parts = layout.scatter(input);
            let (results, world) =
                run_spmd(m, "jacobi", 2, &|rank| common::buffer_pair(&layout, &parts, rank))
                    .unwrap();
            let outs: Vec<Vec<f64>> = results.into_iter().map(|r| r.buffers[1].clone()).collect();
            (outs, world.total_sent_messages())
        };
        let (with_dup, msgs_dup) = run(&m, &input);
        stencil_stack::dmp::EliminateRedundantSwaps.run(&mut m).unwrap();
        let (deduped, msgs_dedup) = run(&m, &input);
        assert_eq!(with_dup, deduped, "seed {seed}");
        assert!(
            msgs_dedup < msgs_dup,
            "seed {seed}: dedup reduced traffic: {msgs_dup} -> {msgs_dedup}"
        );
    }
}

#[test]
fn solve_round_trips_through_equations() {
    // Substituting the solved update back into the equation satisfies it:
    // with diff = lhs − rhs = a·u_forward + rest, solve returns
    // update = −rest/a, so a·update + rest must vanish identically.
    for dt in [0.1, 0.25, 0.5] {
        for alpha in [0.1, 1.0, 2.5] {
            let grid = Grid::new(vec![30]).with_dt(dt);
            let u = TimeFunction::new("u", &grid, 2);
            let eqn = Eq::new(u.dt(), u.laplace() * alpha);
            let update = solve(&eqn, &u.forward()).unwrap();
            let mut diff = eqn.lhs.clone() - eqn.rhs.clone();
            let fwd = u.forward();
            let (fwd_access, _) = fwd.terms.iter().next().unwrap();
            let a = diff.coeff(fwd_access);
            assert!(a != 0.0);
            diff.terms.remove(fwd_access);
            let residual = update * a + diff;
            let scale: f64 = residual.terms.values().map(|c| c.abs()).fold(a.abs(), f64::max);
            for (acc, c) in residual.terms {
                assert!(c.abs() < 1e-9 * scale, "{acc}: {c}");
            }
        }
    }
}
