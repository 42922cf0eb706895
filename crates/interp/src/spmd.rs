//! The one SPMD launcher. [`launch`] runs one OS thread per rank of a
//! [`SimWorld`]; a rank that fails or panics poisons the world at once,
//! so no peer hangs, and the caller gets that rank's error, never a
//! peer's poison echo. [`Layout`] scatters a global field into the ranks
//! and gathers it back, with every box read off the distributed module.

use crate::sim_mpi::SimWorld;
use std::sync::Arc;
use sten_dmp::decomposition::{coords_to_rank, rank_to_coords};
use sten_dmp::{DecompositionStrategy as _, StandardSlicing};
use sten_ir::{Attribute, Bounds, Module};

/// A rank thread that panicked: which rank, and its panic message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankPanic {
    /// The rank whose thread panicked.
    pub rank: usize,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankPanic {}

impl From<RankPanic> for String {
    fn from(p: RankPanic) -> String {
        p.to_string()
    }
}

/// Poisons the world if its rank's thread unwinds, so peers wake while
/// the panic is still propagating rather than after the join.
struct PoisonOnPanic<'w>(&'w SimWorld, usize);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison(self.1 as i32, format!("rank {} panicked", self.1));
        }
    }
}

/// Runs `body(rank)` on every rank of `world`, one OS thread each, and
/// returns the ranks' results in rank order.
///
/// # Errors
/// When any rank fails, the error of the rank that failed first — the
/// one that poisoned the world — after every rank has joined. A rank's
/// error poisons the world as it returns, and a panic poisons it while
/// unwinding and comes back as `E::from(RankPanic)`.
pub fn launch<T, E, F>(world: &Arc<SimWorld>, body: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: From<RankPanic> + std::fmt::Display + Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    launch_with(world, (0..world.size()).map(|_| ()), |rank, ()| body(rank))
}

/// [`launch`] with one input per rank, moved into its thread (a rank's
/// pipeline, its scattered buffers, or `&mut` state to update in place).
///
/// # Errors
/// As [`launch`].
///
/// # Panics
/// Panics if `inputs` does not hold exactly one item per rank.
pub fn launch_with<I, T, E, F>(
    world: &Arc<SimWorld>,
    inputs: impl IntoIterator<Item = I>,
    body: F,
) -> Result<Vec<T>, E>
where
    I: Send,
    T: Send,
    E: From<RankPanic> + std::fmt::Display + Send,
    F: Fn(usize, I) -> Result<T, E> + Sync,
{
    let inputs: Vec<I> = inputs.into_iter().collect();
    assert_eq!(inputs.len(), world.size(), "launch needs one input per rank");
    let (body, w): (&F, &SimWorld) = (&body, world);
    let mut joined: Vec<Result<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (inputs.into_iter().enumerate())
            .map(|(rank, input)| {
                scope.spawn(move || {
                    let _guard = PoisonOnPanic(w, rank);
                    let out = body(rank, input);
                    if let Err(e) = &out {
                        w.poison(rank as i32, e.to_string());
                    }
                    out
                })
            })
            .collect();
        (handles.into_iter().enumerate())
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|payload| {
                    let message = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    Err(E::from(RankPanic { rank, message }))
                })
            })
            .collect()
    });
    // The first rank to fail poisoned the world; its peers' errors are
    // echoes of that poison.
    let poisoner = world.poison_info().and_then(|(rank, _)| usize::try_from(rank).ok());
    let root = (poisoner.filter(|&r| joined.get(r).is_some_and(Result::is_err)))
        .or_else(|| joined.iter().position(Result::is_err));
    match root {
        Some(rank) => Err(joined.swap_remove(rank).err().expect("the root rank failed")),
        None => joined.into_iter().collect(),
    }
}

/// The `(function, dmp.coords, dmp.grid)` of a rank-specialised module's
/// first function carrying coordinates, if any.
pub(crate) fn rank_specialization(module: &Module) -> Option<(String, Vec<i64>, Vec<i64>)> {
    let mut found = None;
    module.walk(|op| match op.attr("dmp.coords").and_then(Attribute::as_dense) {
        Some(coords) if found.is_none() && op.name == "func.func" => {
            let name = op.attr("sym_name").and_then(Attribute::as_str).unwrap_or("<unnamed>");
            let grid = op.attr("dmp.grid").and_then(Attribute::as_grid).unwrap_or_default();
            found = Some((name.to_string(), coords.to_vec(), grid.to_vec()));
        }
        _ => {}
    });
    found
}

/// Rejects per-rank modules handed over out of rank order: a
/// rank-specialised module's coordinates must map back to its index.
pub(crate) fn check_rank_order<'m>(
    modules: impl IntoIterator<Item = &'m Module>,
) -> Result<(), String> {
    for (rank, module) in modules.into_iter().enumerate() {
        let Some((fname, coords, grid)) = rank_specialization(module) else { continue };
        let linear = coords_to_rank(&coords, &grid);
        if linear != Some(rank as i64) {
            return Err(format!(
                "modules[{rank}]: @{fname} is specialised to coordinates {coords:?} \
                 (rank {linear:?} of grid {grid:?}) — pass modules in rank order"
            ));
        }
    }
    Ok(())
}

/// One rank's share of a field, in global coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankBox {
    /// The box the rank stores: its core plus halo, the field type
    /// `distribute-stencil` gave the function's arguments.
    pub stored: Bounds,
    /// The cells the rank owns: the hull of its store and reduce ranges.
    pub core: Bounds,
}

impl RankBox {
    /// The box `func` stores (its first field argument's type) and the
    /// core it owns, read off a stencil-level module: one rank's
    /// distributed module, or an undistributed one (the whole domain).
    ///
    /// # Errors
    /// Reports a missing function, one without field arguments (a module
    /// lowered past the stencil level), or one that owns no cells.
    pub fn of(module: &Module, func: &str) -> Result<RankBox, String> {
        let f = module.lookup_symbol(func).ok_or_else(|| format!("no function @{func}"))?;
        let stored = (f.region_block(0).args.iter())
            .find_map(|&a| module.values.ty(a).as_field().map(|fld| fld.bounds.clone()))
            .ok_or_else(|| format!("@{func} takes no !stencil.field argument"))?;
        let core = sten_dmp::owned_box(f)?
            .ok_or_else(|| format!("@{func} stores and reduces nothing: it owns no cells"))?;
        Ok(RankBox { stored, core })
    }
}

/// Where every rank's data lives in a global field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// The box of the global buffer the ranks' data is cut from.
    pub global: Bounds,
    /// Every rank's box, in rank order.
    pub ranks: Vec<RankBox>,
}

impl Layout {
    /// The layout of per-rank modules (`distribute-stencil{rank=N}`, one
    /// per rank, in rank order): each rank's box is its own module's.
    ///
    /// # Errors
    /// As [`RankBox::of`], and for modules out of rank order.
    pub fn of_modules<'m>(
        global: Bounds,
        modules: impl IntoIterator<Item = &'m Module> + Clone,
        func: &str,
    ) -> Result<Layout, String> {
        check_rank_order(modules.clone())?;
        let ranks = modules.into_iter().map(|m| RankBox::of(m, func)).collect::<Result<_, _>>()?;
        Ok(Layout { global, ranks })
    }

    /// The layout of one distributed module every rank runs (an even
    /// decomposition, whose rank programs are congruent): rank 0's box
    /// is the module's, and the pass's balanced decomposition places
    /// every other rank's core over the `dmp.grid`, each storing the same
    /// halo around it. A module without `dmp.grid` is one rank's.
    ///
    /// # Errors
    /// As [`RankBox::of`], and for a rank-specialised module (one
    /// carrying `dmp.coords`), which only its own rank can run.
    pub fn of_spmd(global: Bounds, module: &Module, func: &str) -> Result<Layout, String> {
        let rank0 = RankBox::of(module, func)?;
        if let Some((f, coords, _)) = rank_specialization(module) {
            return Err(format!(
                "@{f} is specialised to rank coordinates {coords:?}: use Layout::of_modules"
            ));
        }
        let f = module.lookup_symbol(func).expect("RankBox::of found it");
        let grid = f.attr("dmp.grid").and_then(Attribute::as_grid).unwrap_or(&[1]);
        // Congruent slabs: the global core is rank 0's core repeated
        // along every decomposed dimension.
        let whole = Bounds::new(
            (rank0.core.0.iter().enumerate())
                .map(|(d, &(lo, hi))| (lo, lo + (hi - lo) * grid.get(d).copied().unwrap_or(1)))
                .collect(),
        );
        let ranks = (0..grid.iter().product::<i64>())
            .map(|rank| {
                let core = StandardSlicing.local_core(&whole, grid, &rank_to_coords(rank, grid))?;
                let shift: Vec<i64> =
                    core.lower().iter().zip(rank0.core.lower()).map(|(c, c0)| c - c0).collect();
                Ok(RankBox { stored: rank0.stored.translated(&shift), core })
            })
            .collect::<Result<_, String>>()?;
        Ok(Layout { global, ranks })
    }

    /// Cuts each rank's stored box out of `global` (row-major over
    /// [`Layout::global`]). Stored cells outside the global buffer (a
    /// deep halo past the domain edge) are never read into an owned
    /// result and start as `0.0`.
    ///
    /// # Panics
    /// Panics if `global` does not hold one value per global cell.
    pub fn scatter(&self, global: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(global.len() as i64, self.global.num_points(), "global buffer size");
        (self.ranks.iter())
            .map(|rank| {
                let mut local = vec![0.0; rank.stored.num_points() as usize];
                if let Some(cells) = rank.stored.intersect(&self.global) {
                    copy_cells(global, &self.global, &mut local, &rank.stored, &cells);
                }
                local
            })
            .collect()
    }

    /// Writes every rank's owned core from `parts` (one buffer per rank,
    /// row-major over its stored box) into `global`; cells no rank owns
    /// keep their values.
    ///
    /// # Panics
    /// Panics on a buffer count or size that does not match the layout.
    pub fn gather_into(&self, parts: &[Vec<f64>], global: &mut [f64]) {
        assert_eq!(parts.len(), self.ranks.len(), "one buffer per rank");
        assert_eq!(global.len() as i64, self.global.num_points(), "global buffer size");
        for (rank, part) in self.ranks.iter().zip(parts) {
            assert_eq!(part.len() as i64, rank.stored.num_points(), "rank buffer size");
            if let Some(cells) = rank.core.intersect(&self.global) {
                copy_cells(part, &rank.stored, global, &self.global, &cells);
            }
        }
    }
}

/// Copies `cells` from `src` (row-major over `src_box`) into `dst`
/// (row-major over `dst_box`), one contiguous row at a time.
fn copy_cells(src: &[f64], src_box: &Bounds, dst: &mut [f64], dst_box: &Bounds, cells: &Bounds) {
    let Some(&(first, last)) = cells.0.last() else { return };
    let flat = |b: &Bounds, p: &[i64]| {
        p.iter().zip(&b.0).fold(0i64, |acc, (&x, &(lo, hi))| acc * (hi - lo) + x - lo) as usize
    };
    let mut rows = cells.clone();
    *rows.0.last_mut().expect("a non-empty box") = (first, first + 1);
    let row = (last - first) as usize;
    for p in rows.points() {
        let (s, d) = (flat(src_box, &p), flat(dst_box, &p));
        dst[d..d + row].copy_from_slice(&src[s..s + row]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_mpi::MpiError;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test if it has not
    /// finished within a generous budget — a stranded rank then fails
    /// instead of hanging the suite.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()).ok());
        rx.recv_timeout(Duration::from_secs(60)).expect("a rank was stranded: no result in 60 s")
    }

    #[derive(Debug, PartialEq)]
    enum Failure {
        Mpi(MpiError),
        Panic(RankPanic),
    }

    impl std::fmt::Display for Failure {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Failure::Mpi(e) => write!(f, "{e}"),
                Failure::Panic(p) => write!(f, "{p}"),
            }
        }
    }

    impl From<RankPanic> for Failure {
        fn from(p: RankPanic) -> Failure {
            Failure::Panic(p)
        }
    }

    #[test]
    fn results_come_back_in_rank_order() {
        let world = SimWorld::new(3);
        let got = launch(&world, |rank| Ok::<_, RankPanic>(rank * 10)).unwrap();
        assert_eq!(got, vec![0, 10, 20]);
        let inputs = vec!["a", "b", "c"];
        let got = launch_with(&world, inputs, |rank, s| Ok::<_, RankPanic>(format!("{rank}{s}")));
        assert_eq!(got.unwrap(), ["0a", "1b", "2c"]);
    }

    #[test]
    fn a_panic_mid_exchange_names_the_rank_and_wakes_its_peer() {
        let result = within_deadline(|| {
            let world = SimWorld::new(2);
            launch(&world, |rank| {
                // Rank 0 waits for a message rank 1 never sends.
                if rank == 1 {
                    panic!("boom before the send");
                }
                world.recv(0, 1, 5).map_err(Failure::Mpi)
            })
        });
        assert_eq!(
            result,
            Err(Failure::Panic(RankPanic { rank: 1, message: "boom before the send".into() }))
        );
    }

    #[test]
    fn the_first_failure_is_the_root_cause_not_its_echo() {
        let result = within_deadline(|| {
            let world = SimWorld::new(3);
            launch(&world, |rank| match rank {
                2 => Err(format!("rank {rank} could not start")),
                _ => world.exchange_all(rank, vec![1.0]).map_err(|e| e.to_string()),
            })
        });
        assert_eq!(result, Err("rank 2 could not start".to_string()));
    }

    #[test]
    fn copy_cells_moves_rows_between_boxes() {
        let global = Bounds::new(vec![(-1, 3), (-1, 3)]);
        let data: Vec<f64> = (0..16).map(f64::from).collect();
        let left = RankBox {
            stored: Bounds::new(vec![(-1, 3), (-1, 2)]),
            core: Bounds::new(vec![(0, 2), (0, 1)]),
        };
        let right = RankBox {
            stored: Bounds::new(vec![(-1, 3), (0, 3)]),
            core: Bounds::new(vec![(0, 2), (1, 2)]),
        };
        let layout = Layout { global, ranks: vec![left, right] };
        let parts = layout.scatter(&data);
        assert_eq!(parts[0], [0., 1., 2., 4., 5., 6., 8., 9., 10., 12., 13., 14.]);
        assert_eq!(parts[1], [1., 2., 3., 5., 6., 7., 9., 10., 11., 13., 14., 15.]);
        let mut back = vec![-1.0; 16];
        layout.gather_into(&parts, &mut back);
        let owned = [5, 6, 9, 10];
        for (i, v) in back.iter().enumerate() {
            let want = if owned.contains(&i) { i as f64 } else { -1.0 };
            assert_eq!(*v, want, "cell {i}");
        }
    }
}
