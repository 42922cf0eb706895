//! SPMD execution driver: one interpreter per rank over a shared
//! [`SimWorld`], spawned by the [`launch`] launcher.
//!
//! This is the reproduction's equivalent of `mpirun -n N ./kernel` on
//! ARCHER2: every rank executes the same (rank-local) module; SimMPI
//! carries the halo exchanges. A rank whose function fails poisons the
//! world, so a peer blocked in a receive wakes instead of hanging, and
//! the caller gets the failing rank's error.

use crate::interp::{InterpError, Interpreter};
use crate::sim_mpi::{MpiEnv, SimWorld};
use crate::spmd::{check_rank_order, launch, rank_specialization};
use crate::value::{BufView, RtValue};
use std::sync::Arc;
use sten_ir::Module;
#[cfg(test)]
use sten_ir::Pass as _;

/// A plain-data argument specification (constructed per rank, inside the
/// rank's thread — runtime values are not `Send`).
#[derive(Clone, Debug)]
pub enum ArgSpec {
    /// A float scalar.
    F64(f64),
    /// An integer/index scalar.
    Int(i64),
    /// A buffer with initial contents.
    Buffer {
        /// Buffer shape.
        shape: Vec<i64>,
        /// Row-major initial data.
        data: Vec<f64>,
    },
}

/// The observable outcome of one rank: the final contents of every buffer
/// argument (in argument order).
#[derive(Clone, Debug)]
pub struct RankResult {
    /// Final buffer contents, one entry per `ArgSpec::Buffer`.
    pub buffers: Vec<Vec<f64>>,
    /// Ops executed by this rank.
    pub steps: u64,
}

/// Runs `func` on `world_size` ranks; `args_for_rank` builds each rank's
/// argument list. Returns per-rank results in rank order, along with
/// communication statistics from the shared world.
///
/// # Errors
/// Returns the error of the rank that failed first; its failure poisons
/// the world, so no peer hangs on it. A panicking rank reports
/// `rank N panicked: <message>`.
pub fn run_spmd(
    module: &Module,
    func: &str,
    world_size: usize,
    args_for_rank: &(dyn Fn(usize) -> Vec<ArgSpec> + Sync),
) -> Result<(Vec<RankResult>, Arc<SimWorld>), InterpError> {
    // A module carrying `dmp.coords` was specialised to one rank of an
    // uneven decomposition; running it SPMD would silently compute with
    // another rank's slab geometry.
    if world_size > 1 {
        if let Some((fname, coords, _)) = rank_specialization(module) {
            return Err(InterpError::msg(format!(
                "@{fname} is specialised to rank coordinates {coords:?} (uneven \
                 decomposition): compile one module per rank \
                 (distribute-stencil{{rank=N}}) and use run_spmd_modules"
            )));
        }
    }
    run_spmd_impl(&|_| module, func, world_size, args_for_rank)
}

/// Runs `func` with one module per rank — the uneven-decomposition case,
/// where balanced slabs make each rank's local program rank-specific
/// (`distribute-stencil{rank=N}` emits module N). Even decompositions are
/// congruent and can keep sharing one module via [`run_spmd`].
///
/// # Errors
/// As [`run_spmd`], and for modules handed over out of rank order.
pub fn run_spmd_modules(
    modules: &[Module],
    func: &str,
    args_for_rank: &(dyn Fn(usize) -> Vec<ArgSpec> + Sync),
) -> Result<(Vec<RankResult>, Arc<SimWorld>), InterpError> {
    // Rank-specialised modules carry their coordinates: catch a module
    // list handed over in the wrong order before it computes nonsense.
    check_rank_order(modules).map_err(InterpError::msg)?;
    run_spmd_impl(&|rank| &modules[rank], func, modules.len(), args_for_rank)
}

fn run_spmd_impl<'m>(
    module_for_rank: &(dyn Fn(usize) -> &'m Module + Sync),
    func: &str,
    world_size: usize,
    args_for_rank: &(dyn Fn(usize) -> Vec<ArgSpec> + Sync),
) -> Result<(Vec<RankResult>, Arc<SimWorld>), InterpError> {
    let world = SimWorld::new(world_size);
    let results = launch(&world, |rank| {
        run_rank(&world, rank, module_for_rank(rank), func, args_for_rank(rank))
    })?;
    Ok((results, world))
}

/// One rank's body: interprets `func` of `module` on `args` against
/// `world`.
fn run_rank(
    world: &Arc<SimWorld>,
    rank: usize,
    module: &Module,
    func: &str,
    args: Vec<ArgSpec>,
) -> Result<RankResult, InterpError> {
    let mut buffers: Vec<BufView> = Vec::new();
    let args: Vec<RtValue> = args
        .into_iter()
        .map(|spec| match spec {
            ArgSpec::F64(v) => RtValue::Float(v),
            ArgSpec::Int(v) => RtValue::Int(v),
            ArgSpec::Buffer { shape, data } => {
                let view = BufView::from_data(shape, data);
                buffers.push(view.clone());
                RtValue::Buffer(view)
            }
        })
        .collect();
    let env = MpiEnv::new(Arc::clone(world), rank as i32);
    let mut interp = Interpreter::with_externals(module, Box::new(env));
    interp.call_function(func, args)?;
    let steps = interp.steps();
    Ok(RankResult { buffers: buffers.iter().map(BufView::to_vec).collect(), steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::{Layout, RankBox};
    use crate::MpiError;
    use sten_ir::Bounds;
    use sten_stencil::{samples, ShapeInference, StencilToLoops};

    /// Runs `func` of the undistributed `module` on one copy of `global`
    /// as both arguments (`src`, `dst`) and returns `dst`.
    fn serial(module: sten_ir::Module, func: &str, shape: Vec<i64>, global: &[f64]) -> Vec<f64> {
        let mut m = module;
        ShapeInference.run(&mut m).unwrap();
        let src = BufView::from_data(shape.clone(), global.to_vec());
        let dst = BufView::from_data(shape, global.to_vec());
        Interpreter::new(&m)
            .call_function(func, vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
            .unwrap();
        dst.to_vec()
    }

    /// Both arguments of a rank: its scattered part of the global field.
    fn pair(layout: &Layout, parts: &[Vec<f64>], rank: usize) -> Vec<ArgSpec> {
        let shape = layout.ranks[rank].stored.shape();
        let buffer = ArgSpec::Buffer { shape, data: parts[rank].clone() };
        vec![buffer.clone(), buffer]
    }

    /// Gathers every rank's `dst` into a copy of `global`.
    fn gather(layout: &Layout, results: &[RankResult], global: &[f64]) -> Vec<f64> {
        let outs: Vec<Vec<f64>> = results.iter().map(|r| r.buffers[1].clone()).collect();
        let mut got = global.to_vec();
        layout.gather_into(&outs, &mut got);
        got
    }

    /// Distributes jacobi over `ranks` ranks, scatters a global input,
    /// runs one step at the chosen lowering level, gathers, and compares
    /// against the single-process stencil-level result.
    fn distributed_jacobi_matches_serial(ranks: i64, lower_to_func: bool) {
        let n = 128i64;
        let global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let want = serial(samples::jacobi_1d(n), "jacobi", vec![n], &global);

        let mut m = samples::jacobi_1d(n);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![ranks]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let layout = Layout::of_spmd(Bounds::new(vec![(0, n)]), &m, "jacobi").unwrap();
        StencilToLoops.run(&mut m).unwrap();
        if lower_to_func {
            sten_mpi::DmpToMpi.run(&mut m).unwrap();
            sten_mpi::MpiToFunc.run(&mut m).unwrap();
        }

        let parts = layout.scatter(&global);
        let (results, world) =
            run_spmd(&m, "jacobi", ranks as usize, &|rank| pair(&layout, &parts, rank)).unwrap();
        let got = gather(&layout, &results, &global);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-12, "mismatch at {i}: {g} vs {w}");
        }
        if ranks > 1 {
            assert!(world.total_sent_messages() > 0, "halo exchange happened");
        }
    }

    /// A rank woken by its peer's failure reports the poison as a typed
    /// [`MpiError`] at both lowering levels (the `dmp.swap` receive and
    /// the lowered `MPI_Wait`), while `run_spmd` reports the peer.
    #[test]
    fn a_rank_woken_by_poison_reports_a_typed_mpi_error() {
        let n = 64i64;
        let global: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for lower_to_func in [false, true] {
            let mut m = samples::jacobi_1d(n);
            ShapeInference.run(&mut m).unwrap();
            sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
            ShapeInference.run(&mut m).unwrap();
            let layout = Layout::of_spmd(Bounds::new(vec![(0, n)]), &m, "jacobi").unwrap();
            StencilToLoops.run(&mut m).unwrap();
            if lower_to_func {
                sten_mpi::DmpToMpi.run(&mut m).unwrap();
                sten_mpi::MpiToFunc.run(&mut m).unwrap();
            }
            let parts = layout.scatter(&global);
            // Rank 1 gets no arguments and fails at its call; rank 0
            // blocks on rank 1's halo until the poison wakes it.
            let args = |rank| if rank == 1 { vec![] } else { pair(&layout, &parts, rank) };
            let Err(err) = run_spmd(&m, "jacobi", 2, &args) else { panic!("rank 1 must fail") };
            assert!(err.message.contains("takes 2 arguments") && err.mpi.is_none(), "{err}");

            let world = SimWorld::new(2);
            let rank0 = std::sync::Mutex::new(None);
            let _ = launch(&world, |rank| {
                let out = run_rank(&world, rank, &m, "jacobi", args(rank));
                if rank == 0 {
                    *rank0.lock().unwrap() = Some(out.as_ref().map(|_| ()).map_err(Clone::clone));
                }
                out
            });
            let err = rank0.into_inner().unwrap().unwrap().unwrap_err();
            assert!(
                matches!(err.mpi, Some(MpiError::Poisoned { by_rank: 1, .. })),
                "rank 0 (func level: {lower_to_func}): {err:?}"
            );
        }
    }

    #[test]
    fn two_ranks_at_dmp_level() {
        distributed_jacobi_matches_serial(2, false);
    }

    #[test]
    fn two_ranks_at_func_level() {
        distributed_jacobi_matches_serial(2, true);
    }

    #[test]
    fn seven_ranks_at_func_level() {
        // 126 divides by 7.
        distributed_jacobi_matches_serial(7, true);
    }

    /// Distributes a module once per rank (balanced slabs are
    /// rank-dependent on uneven domains), lays the ranks out over the
    /// global field `global`, and fully lowers each module to the
    /// func/MPI level.
    fn per_rank_modules(
        make: &dyn Fn() -> sten_ir::Module,
        func: &str,
        grid: &[i64],
        global: Bounds,
    ) -> (Vec<sten_ir::Module>, Layout) {
        let ranks: i64 = grid.iter().product();
        let mut boxes = Vec::new();
        let modules = (0..ranks)
            .map(|rank| {
                let mut m = make();
                ShapeInference.run(&mut m).unwrap();
                sten_dmp::DistributeStencil::new(grid.to_vec()).for_rank(rank).run(&mut m).unwrap();
                ShapeInference.run(&mut m).unwrap();
                boxes.push(RankBox::of(&m, func).unwrap());
                StencilToLoops.run(&mut m).unwrap();
                sten_mpi::DmpToMpi.run(&mut m).unwrap();
                sten_mpi::MpiToFunc.run(&mut m).unwrap();
                m
            })
            .collect();
        (modules, Layout { global, ranks: boxes })
    }

    #[test]
    fn uneven_jacobi_per_rank_modules_match_serial() {
        // n = 129 → global core 127, which no rank count > 1 divides:
        // 2 ranks get balanced slabs of 64 and 63.
        let n = 129i64;
        let global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let want = serial(samples::jacobi_1d(n), "jacobi", vec![n], &global);

        let (modules, layout) =
            per_rank_modules(&|| samples::jacobi_1d(n), "jacobi", &[2], Bounds::new(vec![(0, n)]));
        let sizes: Vec<i64> = layout.ranks.iter().map(|r| r.core.size(0)).collect();
        assert_eq!(sizes, [64, 63], "balanced slabs");
        let parts = layout.scatter(&global);
        let (results, world) =
            run_spmd_modules(&modules, "jacobi", &|rank| pair(&layout, &parts, rank)).unwrap();
        assert!(world.total_sent_messages() > 0, "halo exchange happened");
        let got = gather(&layout, &results, &global);
        assert_eq!(got, want, "uneven distributed jacobi must match serial bit-for-bit");
    }

    #[test]
    fn spmd_guards_against_rank_specialised_modules() {
        let distribute = |rank: i64| {
            let mut m = samples::jacobi_1d(129); // core 127: uneven on 2 ranks
            ShapeInference.run(&mut m).unwrap();
            sten_dmp::DistributeStencil::new(vec![2]).for_rank(rank).run(&mut m).unwrap();
            ShapeInference.run(&mut m).unwrap();
            m
        };
        // One rank-specialised module must not run SPMD on many ranks.
        let err =
            run_spmd(&distribute(0), "jacobi", 2, &|_| Vec::new()).err().expect("must reject");
        assert!(err.message.contains("run_spmd_modules"), "{}", err.message);
        // Per-rank modules handed over out of order are caught, too.
        let swapped = vec![distribute(1), distribute(0)];
        let err = run_spmd_modules(&swapped, "jacobi", &|_| Vec::new()).err().expect("must reject");
        assert!(err.message.contains("rank order"), "{}", err.message);
        let global = Bounds::new(vec![(0, 129)]);
        let err = Layout::of_modules(global.clone(), &swapped, "jacobi").unwrap_err();
        assert!(err.contains("rank order"), "{err}");
        let err = Layout::of_spmd(global, &distribute(1), "jacobi").unwrap_err();
        assert!(err.contains("of_modules"), "{err}");
    }

    /// Rank 0 fails before its halo send while rank 1 blocks receiving
    /// it: the failure poisons the world, rank 1 wakes, and the caller
    /// gets rank 0's own error rather than the poison rank 1 saw.
    #[test]
    fn a_rank_failing_before_its_send_does_not_strand_its_peer() {
        let mut m = samples::jacobi_1d(64);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let layout = Layout::of_spmd(Bounds::new(vec![(0, 64)]), &m, "jacobi").unwrap();
        let parts = layout.scatter(&[1.0; 64]);
        let modules = vec![m.clone(), m];
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // Rank 0 gets no arguments: its call fails before any send.
            let args =
                |rank: usize| if rank == 0 { Vec::new() } else { pair(&layout, &parts, rank) };
            tx.send(run_spmd_modules(&modules, "jacobi", &args).map(|_| ())).ok();
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("rank 1 was stranded in its receive");
        let err = result.unwrap_err();
        assert!(err.message.contains("takes 2 arguments, got 0"), "{}", err.message);
        assert!(!err.message.contains("poisoned"), "{}", err.message);
    }

    #[test]
    fn uneven_heat2d_bitwise_matches_serial() {
        // A 15×15 core on a 2×2 grid: balanced slabs of 8 and 7 per dim.
        let n = 15i64;
        let size = ((n + 2) * (n + 2)) as usize;
        let global: Vec<f64> = (0..size).map(|i| (i as f64 * 0.05).cos()).collect();
        let want = serial(samples::heat_2d(n, 0.1), "heat", vec![n + 2, n + 2], &global);

        let field = Bounds::new(vec![(-1, n + 1); 2]);
        let (modules, layout) =
            per_rank_modules(&|| samples::heat_2d(n, 0.1), "heat", &[2, 2], field);
        let parts = layout.scatter(&global);
        let (results, _) =
            run_spmd_modules(&modules, "heat", &|rank| pair(&layout, &parts, rank)).unwrap();
        let got = gather(&layout, &results, &global);
        assert_eq!(got, want, "uneven distributed heat2d must match serial bit-for-bit");
    }

    #[test]
    fn heat2d_distributed_matches_serial() {
        let n = 16i64;
        let size = ((n + 2) * (n + 2)) as usize;
        let global: Vec<f64> = (0..size).map(|i| (i as f64 * 0.05).cos()).collect();
        let want = serial(samples::heat_2d(n, 0.1), "heat", vec![n + 2, n + 2], &global);

        // 2x2 distributed, fully lowered.
        let mut m = samples::heat_2d(n, 0.1);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2, 2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let field = Bounds::new(vec![(-1, n + 1); 2]);
        let layout = Layout::of_spmd(field, &m, "heat").unwrap();
        StencilToLoops.run(&mut m).unwrap();
        sten_mpi::DmpToMpi.run(&mut m).unwrap();
        sten_mpi::MpiToFunc.run(&mut m).unwrap();

        let parts = layout.scatter(&global);
        let (results, _) = run_spmd(&m, "heat", 4, &|rank| pair(&layout, &parts, rank)).unwrap();
        let got = gather(&layout, &results, &global);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-12, "mismatch at {i}: {a} vs {b}");
        }
    }
}
