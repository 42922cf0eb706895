//! The one schedule builder: the order in which a rank runs a pipeline's
//! steps, timestep by timestep.
//!
//! Overlap (Devito's interior, wait, shells) and temporal blocking (OPS's
//! deep-halo onion) split an apply by the same
//! [`sten_dmp::HaloRegionSplit`] the `dmp → mpi` lowering uses, so results
//! stay bit-for-bit identical to the synchronous path. An overlapped
//! exchange runs as
//!
//! ```text
//! SwapBegin…           pack + buffered sends
//! Apply(Interior)      on the worker pool, messages in flight
//! SwapWait…            receive + unpack the halos
//! Apply(Boundary(dir)) one step per halo shell
//! ```
//!
//! and a depth-`k` swap exchanges a width-`k·r` halo once per `k`-step
//! block: phase 0 runs the deep exchange (split as above when marked) and
//! computes the core grown by `(k-1)·r` toward every live neighbour;
//! phases `1..k` run exchange-free on the shrinking regions of
//! [`sten_dmp::deep_phase_regions`], buying `k×` fewer messages with
//! redundant computation on the outer shells.

use crate::step::{ApplyRegion, Step, Swap};
use sten_dmp::HaloRegionSplit;

/// The schedule of a pipeline's `steps` (in program order) over its
/// `swaps`: phase `t % len` runs at timestep `t`.
///
/// Without a deep swap the schedule is one phase, the same on every rank.
/// A deep block grows only toward the sides where `rank` has a neighbour
/// (growing toward a physical boundary would read unexchanged cells and
/// clobber fixed boundary data), so its `k` phases need the rank; without
/// one, the schedule is the synchronous wide exchange every step, correct
/// on any rank. Only `distribute-stencil` emits a deep swap, once its
/// legality analysis has found the one-swap, one-apply ping-pong shape
/// whose apply writes only argument buffers.
///
/// # Errors
/// Reports a deep swap whose exchange directions do not fit its grid.
pub(crate) fn build(
    steps: &[Step],
    swaps: &[Swap],
    rank: Option<i64>,
) -> Result<Vec<Vec<Step>>, String> {
    let depth = swaps.iter().map(|s| s.depth).max().unwrap_or(1);
    let core = steps.iter().find_map(Step::kernel_range);
    let (Some(rank), Some(core)) = (rank.filter(|_| depth > 1), core) else {
        return Ok(vec![if depth > 1 { steps.to_vec() } else { overlap(steps, swaps, None) }]);
    };
    let dims = core.rank();
    let (mut lo, mut hi) = (vec![0i64; dims], vec![0i64; dims]);
    for swap in swaps {
        let (l, h) = swap.halo_widths(dims, Some(rank))?;
        for d in 0..dims {
            lo[d] = lo[d].max(l[d] / depth);
            hi[d] = hi[d].max(h[d] / depth);
        }
    }
    let regions = sten_dmp::deep_phase_regions(core, &lo, &hi, depth);
    Ok(regions
        .into_iter()
        .enumerate()
        .map(|(j, region)| {
            let phase: Vec<Step> = steps
                .iter()
                .filter(|s| j == 0 || matches!(s, Step::Apply { .. }))
                .map(|s| match s {
                    Step::Apply { .. } => restrict(s, ApplyRegion::Phase(j, region.clone())),
                    _ => s.clone(),
                })
                .collect();
            if j == 0 {
                overlap(&phase, swaps, Some(rank))
            } else {
                phase
            }
        })
        .collect())
}

/// `steps` with every run of adjacent overlap-marked begin/wait pairs
/// split around the apply right after it: every begin, the interior,
/// every wait, then one step per non-empty boundary shell. A run that
/// cannot split keeps its first pair synchronous and is scanned again
/// from the next pair.
fn overlap(steps: &[Step], swaps: &[Swap], rank: Option<i64>) -> Vec<Step> {
    let mut out = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        let mut ids: Vec<usize> = Vec::new();
        while let [Step::SwapBegin { id }, Step::SwapWait { id: w }, ..] =
            &steps[i + 2 * ids.len()..]
        {
            if id != w || !swaps[*id].overlap {
                break;
            }
            ids.push(*id);
        }
        let j = i + 2 * ids.len();
        let split = steps.get(j).filter(|_| !ids.is_empty()).and_then(|apply| {
            split_for(apply, ids.iter().map(|&id| &swaps[id]), rank).map(|split| (apply, split))
        });
        let Some((apply, split)) = split else {
            let n = if ids.is_empty() { 1 } else { 2 };
            out.extend_from_slice(&steps[i..i + n]);
            i += n;
            continue;
        };
        out.extend(ids.iter().map(|&id| Step::SwapBegin { id }));
        out.push(restrict(apply, ApplyRegion::Interior(split.interior)));
        out.extend(ids.iter().map(|&id| Step::SwapWait { id }));
        for shell in split.shells.into_iter().filter(|s| s.bounds.num_points() > 0) {
            out.push(restrict(apply, ApplyRegion::Boundary(shell.dir, shell.bounds)));
        }
        i = j + 1;
    }
    out
}

/// How `apply` splits around `swaps`: its region cut by the widest halo
/// of every swap (toward `rank`'s neighbours, given a rank). `None` when
/// the step is not a whole apply (full range or one phase), a swap does
/// not feed it, or nothing would run while the messages are in flight.
fn split_for<'a>(
    apply: &Step,
    swaps: impl Iterator<Item = &'a Swap>,
    rank: Option<i64>,
) -> Option<HaloRegionSplit> {
    let Step::Apply {
        kernel,
        inputs,
        region: region @ (ApplyRegion::Full | ApplyRegion::Phase(..)),
        ..
    } = apply
    else {
        return None;
    };
    let dims = kernel.range.rank();
    let (mut lo, mut hi) = (vec![0i64; dims], vec![0i64; dims]);
    for swap in swaps {
        // Malformed exchanges (verifier territory) keep the pair
        // synchronous.
        let (l, h) = swap.halo_widths(dims, rank).ok().filter(|_| inputs.contains(&swap.buf))?;
        for d in 0..dims {
            lo[d] = lo[d].max(l[d]);
            hi[d] = hi[d].max(h[d]);
        }
    }
    let split = HaloRegionSplit::compute(region.bounds(&kernel.range), &lo, &hi);
    split.is_splittable().then_some(split)
}

/// `apply` (a [`Step::Apply`]) restricted to `region`.
fn restrict(apply: &Step, region: ApplyRegion) -> Step {
    let Step::Apply { kernel, inputs, outputs, .. } = apply else {
        unreachable!("only an apply step has a region")
    };
    Step::Apply { kernel: kernel.clone(), inputs: inputs.clone(), outputs: outputs.clone(), region }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile_module;
    use crate::program::BinOp;
    use crate::step::Pipeline;
    use sten_ir::{Bounds, Module, Pass as _};
    use sten_stencil::{samples, ShapeInference};

    /// What a rank runs at each timestep of `p`'s schedule.
    fn rank_phases(p: &Pipeline, rank: i64) -> Vec<Vec<Step>> {
        if p.swaps.iter().any(|s| s.depth > 1) {
            build(&p.steps, &p.swaps, Some(rank)).unwrap()
        } else {
            vec![p.steps.clone()]
        }
    }

    /// One line per step of a schedule, apply regions with their bounds.
    fn render_steps(steps: &[Step]) -> String {
        let mut out = String::new();
        for s in steps {
            let line = match s {
                Step::Apply { kernel, region, .. } => {
                    format!("apply {}{:?}", region.label(), region.bounds(&kernel.range).0)
                }
                Step::SwapBegin { id } => format!("swap#{id} begin"),
                Step::SwapWait { id } => format!("swap#{id} wait"),
                Step::Reduce { kind, range, allreduce, .. } => {
                    format!("reduce {} {:?} allreduce={allreduce}", kind.name(), range.0)
                }
                Step::Scalar { op, .. } => format!("scalar {}", op.map_or("negf", BinOp::name)),
                Step::Copy { range, .. } => format!("copy {:?}", range.0),
            };
            out += &format!("      {line}\n");
        }
        out
    }

    /// `name` compiled from `m` after `dist`, rendered: the step summary,
    /// the temporal summary, and every phase of every rank in `ranks`.
    fn render_schedules(
        name: &str,
        mut m: Module,
        func: &str,
        dist: sten_dmp::DistributeStencil,
        ranks: &[i64],
    ) -> String {
        ShapeInference.run(&mut m).unwrap();
        dist.run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let p = compile_module(&m, func).unwrap();
        let mut out = format!("== {name}: overlapped={}\n", p.is_overlapped());
        for line in p.step_summary().iter().chain(&p.temporal_summary()) {
            out += &format!("  {line}\n");
        }
        for &rank in ranks {
            for (j, phase) in rank_phases(&p, rank).iter().enumerate() {
                out += &format!("  rank {rank} phase {j}:\n{}", render_steps(phase));
            }
        }
        out
    }

    /// Every schedule shape the executor builds, pinned step by step:
    /// depth 1 sync and overlapped, depth 2 and 4 on boundary and
    /// interior ranks, a deep 2-D block with corners, one apply fed by
    /// seven adjacent swaps, and a CG iteration with reductions.
    #[test]
    fn schedules_are_pinned() {
        use sten_dmp::{DistributeStencil as D, HaloDepth};
        let mut got = String::new();
        for overlap in [false, true] {
            got += &render_schedules(
                &format!("heat-2d 2x2 overlap={overlap}"),
                samples::heat_2d(16, 0.1),
                "heat",
                D::new(vec![2, 2]).with_overlap(overlap),
                &[0, 1, 2, 3],
            );
        }
        for depth in [2, 4] {
            for overlap in [false, true] {
                got += &render_schedules(
                    &format!("jacobi-1d 4 ranks depth={depth} overlap={overlap}"),
                    samples::jacobi_1d(32),
                    "jacobi",
                    D::new(vec![4]).with_overlap(overlap).with_depth(HaloDepth::Fixed(depth)),
                    &[0, 1, 2, 3],
                );
            }
        }
        got += &render_schedules(
            "heat-2d 2x2 depth=2 diagonals overlap=true",
            samples::heat_2d(16, 0.1),
            "heat",
            D::new(vec![2, 2])
                .with_overlap(true)
                .with_diagonals(true)
                .with_depth(HaloDepth::Fixed(2)),
            &[0, 1, 2, 3],
        );
        got += &render_schedules(
            "pw_advection 2x2 overlap=true",
            sten_psyclone::kernels::pw_advection(8, 8, 4).unwrap().module,
            "pw_advection",
            D::new(vec![2, 2]).with_overlap(true),
            &[0, 1, 2, 3],
        );
        got += &render_schedules(
            "cg_iter rank 1 of 2 overlap=true",
            samples::cg(24, 0.25),
            "cg_iter",
            D::new(vec![2]).for_rank(1).with_overlap(true),
            &[1],
        );
        assert_eq!(got, include_str!("../tests/data/schedule_pins.txt"));
    }

    /// Whether two boxes share a point.
    fn intersects(a: &Bounds, b: &Bounds) -> bool {
        a.0.iter().zip(&b.0).all(|(&(al, ah), &(bl, bh))| al.max(bl) < ah.min(bh))
    }

    /// Whether `inner` lies inside `outer`.
    fn contains(outer: &Bounds, inner: &Bounds) -> bool {
        outer.0.iter().zip(&inner.0).all(|(&(ol, oh), &(il, ih))| ol <= il && ih <= oh)
    }

    /// Asserts that each phase's apply regions are pairwise disjoint and
    /// cover `want[j]`, and that only interior applies run between a
    /// swap's begin and its wait. Returns the interior applies seen.
    fn assert_tiles(case: &str, phases: &[Vec<Step>], want: &[Bounds]) -> usize {
        assert_eq!(phases.len(), want.len(), "{case}");
        let mut interiors = 0;
        for (j, (phase, want)) in phases.iter().zip(want).enumerate() {
            let mut open = Vec::new();
            let mut regions: Vec<&Bounds> = Vec::new();
            for s in phase {
                match s {
                    Step::SwapBegin { id } => open.push(*id),
                    Step::SwapWait { id } => open.retain(|o| o != id),
                    Step::Apply { kernel, region, .. } => {
                        let interior = matches!(region, ApplyRegion::Interior(_));
                        assert!(
                            open.is_empty() || interior,
                            "{case} phase {j}: {region:?} in flight"
                        );
                        interiors += usize::from(interior);
                        regions.push(region.bounds(&kernel.range));
                    }
                    _ => {}
                }
            }
            assert!(open.is_empty(), "{case} phase {j}: swaps {open:?} never waited");
            for (a, r) in regions.iter().enumerate() {
                assert!(contains(want, r), "{case} phase {j}: {r:?} outside {want:?}");
                for q in &regions[..a] {
                    assert!(!intersects(q, r), "{case} phase {j}: {q:?} and {r:?} overlap");
                }
            }
            let covered: i64 = regions.iter().map(|r| r.num_points()).sum();
            assert_eq!(covered, want.num_points(), "{case} phase {j}: gaps in {want:?}");
        }
        interiors
    }

    /// Every schedule tiles its regions: on 1-D and 2-D grids, at depth
    /// 1, 2 and 4, with and without overlap, on every rank of seeded
    /// uneven domains, each phase's apply regions are pairwise disjoint
    /// and cover that phase's region — the kernel range at depth 1, the
    /// rank's deep phase region at depth k — and between a swap's begin
    /// and its wait only interior applies run.
    #[test]
    fn schedules_tile_their_regions() {
        use sten_dmp::decomposition::rank_to_coords;
        use sten_dmp::{DistributeStencil, HaloDepth};
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |lo: i64, hi: i64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            lo + (seed % (hi - lo) as u64) as i64
        };
        let grids: [&[i64]; 6] = [&[2], &[3], &[4], &[2, 1], &[1, 3], &[2, 2]];
        let configs = grids.iter().flat_map(|g| [1, 2, 4].map(|depth| (*g, depth)));
        let mut interiors = 0;
        for (grid, depth) in configs.clone().chain(configs) {
            for overlap in [false, true] {
                let (m, func) = if grid.len() == 1 {
                    (samples::jacobi_1d(draw(18, 40)), "jacobi")
                } else {
                    (samples::heat_2d(draw(12, 24), 0.1), "heat")
                };
                for rank in 0..grid.iter().product::<i64>() {
                    let mut m = m.clone();
                    ShapeInference.run(&mut m).unwrap();
                    DistributeStencil::new(grid.to_vec())
                        .for_rank(rank)
                        .with_overlap(overlap)
                        .with_diagonals(grid.len() > 1)
                        .with_depth(HaloDepth::Fixed(depth))
                        .run(&mut m)
                        .unwrap();
                    ShapeInference.run(&mut m).unwrap();
                    let p = compile_module(&m, func).unwrap();
                    let core = p.steps.iter().find_map(Step::kernel_range).unwrap();
                    // Deep regions grow one cell (the stencils' radius)
                    // per phase toward each neighbour.
                    let coords = rank_to_coords(rank, grid);
                    let (mut lo, mut hi) = (vec![0; core.rank()], vec![0; core.rank()]);
                    for d in 0..grid.len() {
                        lo[d] = i64::from(coords[d] > 0);
                        hi[d] = i64::from(coords[d] < grid[d] - 1);
                    }
                    let want = sten_dmp::deep_phase_regions(core, &lo, &hi, depth);
                    let case = format!("grid {grid:?} depth {depth} overlap {overlap} rank {rank}");
                    interiors += assert_tiles(&case, &rank_phases(&p, rank), &want);
                }
            }
        }
        assert!(interiors > 0, "no schedule overlapped anything");
    }
}
