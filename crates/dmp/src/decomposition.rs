//! Decomposition strategies: global domain → rank-local domain.
//!
//! §4.2: "Internally, a decomposition strategy is represented by a class
//! that exposes an interface that allows a rewrite pass to calculate the
//! local domain from the global domain. It also provides the rank layout
//! (the dmp.grid attribute) and generates the halo exchange declarations
//! (the dmp.exchange attributes) from the stencil access patterns."
//!
//! Three strategies implement the interface:
//!
//! * [`StandardSlicing`] — the paper's "standard slicing strategy that
//!   supports 1D, 2D, and 3D decomposition": the leading `grid.len()`
//!   dimensions of the domain are cut into *balanced* slabs (remainder
//!   cells spread across the leading ranks, as Devito and OPS do);
//!   trailing dimensions stay whole (e.g. the 2D decomposition of 3D
//!   ocean models "due to tight coupling in the vertical dimension",
//!   §6.2).
//! * [`RecursiveBisection`] — takes only the *rank count* from the
//!   requested grid and derives its own per-dimension layout by
//!   repeatedly splitting the longest remaining local extent, minimizing
//!   the surface-to-volume ratio of each rank's slab.
//! * [`CustomGrid`] — an explicit per-dimension factorization supplied by
//!   the user (`factors=1x1x4`), decoupling rank placement from the
//!   requested grid shape.
//!
//! All three are tensor-product decompositions: a rank's core is the
//! cartesian product of one contiguous interval per dimension, so
//! neighbouring ranks always agree on the shape of the face they
//! exchange — even when extents do not divide evenly.

use sten_ir::{Bounds, ExchangeAttr};

/// The registered strategy names, as accepted by
/// `distribute-stencil{strategy=…}` (and by [`make_strategy`]).
pub const STRATEGY_NAMES: [&str; 3] = ["standard-slicing", "recursive-bisection", "custom-grid"];

/// The contiguous chunk of `0..extent` owned by `coord` of `parts`
/// balanced parts, as `(offset, size)`: the first `extent % parts`
/// coordinates get one extra cell, so sizes differ by at most one. Every
/// in-tree strategy places its cores this way; drivers read the result
/// off the distributed module (`sten_interp::Layout`).
fn balanced_chunk(extent: i64, parts: i64, coord: i64) -> (i64, i64) {
    let base = extent / parts;
    let rem = extent % parts;
    let offset = coord * base + coord.min(rem);
    let size = base + i64::from(coord < rem);
    (offset, size)
}

/// Computes rank-local domains and halo exchange declarations.
///
/// A strategy first maps the requested rank grid to a per-dimension
/// *layout* ([`DecompositionStrategy::layout`]), then positions each
/// rank's core inside the global core from its cartesian coordinates in
/// that layout ([`DecompositionStrategy::local_core`]). The default
/// `local_core` and `exchanges` implementations realise balanced
/// tensor-product slabs, which all in-tree strategies share — a strategy
/// only has to decide *where the parts go*.
pub trait DecompositionStrategy {
    /// Human-readable strategy name (for diagnostics and reports).
    fn name(&self) -> &'static str;

    /// The per-dimension rank layout realising `grid` over `global_core`
    /// (the `dmp.grid` attribute). The product of the layout always
    /// equals the product of `grid`; the shape may differ (e.g.
    /// [`RecursiveBisection`] refactors `4` into `2x2` on a square
    /// domain).
    ///
    /// # Errors
    /// Returns a message if `grid` cannot be laid out on the domain
    /// (more grid dimensions than domain dimensions, non-positive
    /// extents, or more ranks along a dimension than cells).
    fn layout(&self, global_core: &Bounds, grid: &[i64]) -> Result<Vec<i64>, String>;

    /// The core (stored) domain of the rank at cartesian `coords` in
    /// `layout`, in global coordinates. The per-rank cores tile the
    /// global core exactly: disjoint and covering.
    ///
    /// # Errors
    /// Returns a clear message only when a grid extent exceeds the domain
    /// extent in some dimension (an empty rank) — non-divisible extents
    /// decompose into balanced slabs.
    fn local_core(
        &self,
        global_core: &Bounds,
        layout: &[i64],
        coords: &[i64],
    ) -> Result<Bounds, String> {
        if layout.len() > global_core.rank() {
            return Err(format!(
                "grid rank {} exceeds domain rank {}",
                layout.len(),
                global_core.rank()
            ));
        }
        let mut dims = Vec::with_capacity(global_core.rank());
        for d in 0..global_core.rank() {
            let (lb, ub) = global_core.0[d];
            let p = layout.get(d).copied().unwrap_or(1);
            let c = coords.get(d).copied().unwrap_or(0);
            let size = ub - lb;
            if p < 1 {
                return Err(format!("grid extent {p} in dim {d} must be >= 1"));
            }
            if p > size {
                return Err(format!("grid extent {p} exceeds domain extent {size} in dim {d}"));
            }
            if c < 0 || c >= p {
                return Err(format!("rank coordinate {c} outside grid extent {p} in dim {d}"));
            }
            let (offset, chunk) = balanced_chunk(size, p, c);
            dims.push((lb + offset, lb + offset + chunk));
        }
        Ok(Bounds::new(dims))
    }

    /// Generates the halo exchanges for a rank-local buffer.
    ///
    /// * `local_field` — the halo-extended rank-local buffer bounds;
    /// * `local_core` — the owned (stored) region inside it;
    /// * `lo_halo`/`hi_halo` — halo widths actually read by the stencil.
    ///
    /// Exchange coordinates are 0-based buffer coordinates. The default
    /// implementation emits one face exchange per decomposed dimension
    /// and direction (no diagonal/corner exchanges — the paper lists
    /// diagonal exchanges as future work, §8); boundary ranks skip the
    /// missing neighbours at runtime.
    fn exchanges(
        &self,
        local_field: &Bounds,
        local_core: &Bounds,
        layout: &[i64],
        lo_halo: &[i64],
        hi_halo: &[i64],
    ) -> Vec<ExchangeAttr> {
        let rank = local_field.rank();
        let mut out = Vec::new();
        // Buffer-local coordinate of a logical coordinate.
        let to_buf = |logical: i64, d: usize| logical - local_field.0[d].0;
        for d in 0..layout.len().min(rank) {
            if layout[d] < 2 {
                continue; // no neighbours along this dimension
            }
            // The exchanged region spans the core extent in the other
            // dimensions.
            let base_at: Vec<i64> = (0..rank).map(|e| to_buf(local_core.0[e].0, e)).collect();
            let base_size: Vec<i64> = (0..rank).map(|e| local_core.size(e)).collect();
            if lo_halo[d] > 0 {
                // Receive the low halo from the lower neighbour; send the
                // first owned rows in exchange.
                let mut at = base_at.clone();
                let mut size = base_size.clone();
                at[d] = to_buf(local_core.0[d].0 - lo_halo[d], d);
                size[d] = lo_halo[d];
                let mut source_offset = vec![0; rank];
                source_offset[d] = lo_halo[d];
                let mut to = vec![0; rank];
                to[d] = -1;
                out.push(ExchangeAttr::new(at, size, source_offset, to));
            }
            if hi_halo[d] > 0 {
                // Receive the high halo from the upper neighbour; send the
                // last owned rows in exchange.
                let mut at = base_at.clone();
                let mut size = base_size.clone();
                at[d] = to_buf(local_core.0[d].1, d);
                size[d] = hi_halo[d];
                let mut source_offset = vec![0; rank];
                source_offset[d] = -hi_halo[d];
                let mut to = vec![0; rank];
                to[d] = 1;
                out.push(ExchangeAttr::new(at, size, source_offset, to));
            }
        }
        out
    }
}

/// Common validation shared by the layout implementations.
fn check_grid(global_core: &Bounds, grid: &[i64]) -> Result<(), String> {
    if grid.len() > global_core.rank() {
        return Err(format!("grid rank {} exceeds domain rank {}", grid.len(), global_core.rank()));
    }
    for (d, &p) in grid.iter().enumerate() {
        if p < 1 {
            return Err(format!("grid extent {p} in dim {d} must be >= 1"));
        }
    }
    Ok(())
}

/// Balanced slabs along the leading `grid.len()` dimensions.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardSlicing;

impl StandardSlicing {
    /// Creates the strategy.
    pub fn new() -> Self {
        StandardSlicing
    }
}

impl DecompositionStrategy for StandardSlicing {
    fn name(&self) -> &'static str {
        "standard-slicing"
    }

    fn layout(&self, global_core: &Bounds, grid: &[i64]) -> Result<Vec<i64>, String> {
        check_grid(global_core, grid)?;
        Ok(grid.to_vec())
    }
}

/// Splits the longest remaining local extent at each level: the requested
/// grid contributes only its rank count, and the per-dimension layout is
/// chosen to minimize the surface-to-volume ratio of each rank's slab.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecursiveBisection;

impl RecursiveBisection {
    /// Creates the strategy.
    pub fn new() -> Self {
        RecursiveBisection
    }
}

/// Prime factors of `n` in descending order (largest splits first, so the
/// coarsest cuts land on the longest dimensions).
fn prime_factors_desc(mut n: i64) -> Vec<i64> {
    let mut out = Vec::new();
    let mut p = 2;
    while p * p <= n {
        while n % p == 0 {
            out.push(p);
            n /= p;
        }
        p += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

impl DecompositionStrategy for RecursiveBisection {
    fn name(&self) -> &'static str {
        "recursive-bisection"
    }

    fn layout(&self, global_core: &Bounds, grid: &[i64]) -> Result<Vec<i64>, String> {
        check_grid(global_core, grid)?;
        let ranks: i64 = grid.iter().product();
        let dims = global_core.rank();
        let mut layout = vec![1i64; dims];
        for f in prime_factors_desc(ranks) {
            // Split the dimension with the longest current local extent
            // that can still absorb the factor without empty ranks.
            let best =
                (0..dims).filter(|&d| layout[d] * f <= global_core.size(d)).max_by(|&a, &b| {
                    let ea = global_core.size(a) * layout[b];
                    let eb = global_core.size(b) * layout[a];
                    // Longest local extent wins; ties go to the lower dim.
                    ea.cmp(&eb).then(b.cmp(&a))
                });
            match best {
                Some(d) => layout[d] *= f,
                None => {
                    return Err(format!(
                        "cannot bisect {ranks} ranks onto domain {global_core}: \
                         no dimension can absorb a factor of {f}"
                    ))
                }
            }
        }
        Ok(layout)
    }
}

/// An explicit per-dimension factorization (`factors=1x1x4`): the user
/// decides exactly how many ranks cut each dimension, independent of the
/// requested grid's shape (only the rank counts must agree).
#[derive(Debug, Clone, Default)]
pub struct CustomGrid {
    /// Ranks along each (leading) domain dimension.
    pub factors: Vec<i64>,
}

impl CustomGrid {
    /// Creates the strategy from an explicit per-dimension factorization.
    pub fn new(factors: Vec<i64>) -> Self {
        CustomGrid { factors }
    }
}

impl DecompositionStrategy for CustomGrid {
    fn name(&self) -> &'static str {
        "custom-grid"
    }

    fn layout(&self, global_core: &Bounds, grid: &[i64]) -> Result<Vec<i64>, String> {
        check_grid(global_core, &self.factors)?;
        let requested: i64 = grid.iter().product();
        let provided: i64 = self.factors.iter().product();
        if requested != provided {
            return Err(format!(
                "custom-grid factors {:?} place {provided} ranks but the grid requests \
                 {requested}",
                self.factors
            ));
        }
        Ok(self.factors.clone())
    }
}

/// Instantiates a strategy by registered name (see [`STRATEGY_NAMES`]).
/// `factors` is required by (and only valid for) `custom-grid`.
///
/// # Errors
/// Returns a message for unknown names and factor misuse; the pass
/// registry attaches a did-you-mean suggestion on top.
pub fn make_strategy(
    name: &str,
    factors: Option<Vec<i64>>,
) -> Result<Box<dyn DecompositionStrategy + Send + Sync>, String> {
    match name {
        "standard-slicing" => {
            if factors.is_some() {
                return Err("option 'factors' is only valid with strategy=custom-grid".into());
            }
            Ok(Box::new(StandardSlicing::new()))
        }
        "recursive-bisection" => {
            if factors.is_some() {
                return Err("option 'factors' is only valid with strategy=custom-grid".into());
            }
            Ok(Box::new(RecursiveBisection::new()))
        }
        "custom-grid" => {
            let factors = factors.ok_or_else(|| {
                "strategy=custom-grid requires option 'factors' (e.g. factors=1x4)".to_string()
            })?;
            Ok(Box::new(CustomGrid::new(factors)))
        }
        other => Err(format!(
            "unknown decomposition strategy '{other}' (expected one of: {})",
            STRATEGY_NAMES.join(", ")
        )),
    }
}

/// Maps a linear rank id to cartesian grid coordinates (row-major: the
/// last dimension varies fastest), mirroring `MPI_Cart_coords`.
pub fn rank_to_coords(rank: i64, grid: &[i64]) -> Vec<i64> {
    let mut coords = vec![0; grid.len()];
    let mut rest = rank;
    for d in (0..grid.len()).rev() {
        coords[d] = rest % grid[d];
        rest /= grid[d];
    }
    coords
}

/// Maps cartesian grid coordinates to the linear rank id (inverse of
/// [`rank_to_coords`]); returns `None` if any coordinate is outside the
/// grid (non-periodic topology).
pub fn coords_to_rank(coords: &[i64], grid: &[i64]) -> Option<i64> {
    let mut rank = 0;
    for d in 0..grid.len() {
        if coords[d] < 0 || coords[d] >= grid[d] {
            return None;
        }
        rank = rank * grid[d] + coords[d];
    }
    Some(rank)
}

/// The neighbour rank at relative position `to`, or `Ok(None)` at the
/// domain boundary.
///
/// # Errors
/// Rejects a `to` vector that does not cover the grid, or that moves
/// along an undecomposed trailing dimension — a truncated or misaligned
/// exchange attribute would otherwise silently resolve to a wrong
/// neighbour.
pub fn neighbor_rank(rank: i64, grid: &[i64], to: &[i64]) -> Result<Option<i64>, String> {
    if to.len() < grid.len() {
        return Err(format!(
            "exchange direction {to:?} has {} components but the grid has {} dimensions",
            to.len(),
            grid.len()
        ));
    }
    if let Some(d) = (grid.len()..to.len()).find(|&d| to[d] != 0) {
        return Err(format!(
            "exchange direction {to:?} moves along dimension {d}, which the grid {grid:?} \
             does not decompose"
        ));
    }
    let coords = rank_to_coords(rank, grid);
    let moved: Vec<i64> = coords.iter().zip(to.iter()).map(|(c, t)| c + t).collect();
    Ok(coords_to_rank(&moved, grid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_decomposition_divides_evenly() {
        let s = StandardSlicing::new();
        let core = Bounds::new(vec![(1, 127), (0, 64)]);
        let local = s.local_core(&core, &[2], &[0]).unwrap();
        assert_eq!(local, Bounds::new(vec![(1, 64), (0, 64)]));
        let local2d = s.local_core(&core, &[2, 2], &[0, 0]).unwrap();
        assert_eq!(local2d, Bounds::new(vec![(1, 64), (0, 32)]));
        // The second rank's slab starts where the first ends.
        let hi = s.local_core(&core, &[2], &[1]).unwrap();
        assert_eq!(hi, Bounds::new(vec![(64, 127), (0, 64)]));
    }

    #[test]
    fn indivisible_domains_get_balanced_slabs() {
        let s = StandardSlicing::new();
        let core = Bounds::new(vec![(0, 10)]);
        // 10 over 3 ranks: 4 + 3 + 3.
        let sizes: Vec<i64> =
            (0..3).map(|c| s.local_core(&core, &[3], &[c]).unwrap().size(0)).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        // The slabs tile [0, 10) exactly.
        let mut cursor = 0;
        for c in 0..3 {
            let b = s.local_core(&core, &[3], &[c]).unwrap();
            assert_eq!(b.0[0].0, cursor, "slab {c} starts where the previous ended");
            cursor = b.0[0].1;
        }
        assert_eq!(cursor, 10);
    }

    #[test]
    fn balanced_chunk_spreads_the_remainder() {
        // 127 over 4: 32, 32, 32, 31 — offsets contiguous.
        let chunks: Vec<(i64, i64)> = (0..4).map(|c| balanced_chunk(127, 4, c)).collect();
        assert_eq!(chunks, vec![(0, 32), (32, 32), (64, 32), (96, 31)]);
    }

    #[test]
    fn empty_ranks_are_rejected() {
        let s = StandardSlicing::new();
        let core = Bounds::new(vec![(0, 3)]);
        let err = s.local_core(&core, &[4], &[0]).unwrap_err();
        assert!(err.contains("exceeds domain extent"), "{err}");
    }

    #[test]
    fn grid_rank_must_fit_domain() {
        let s = StandardSlicing::new();
        let core = Bounds::new(vec![(0, 8)]);
        assert!(s.layout(&core, &[2, 2]).is_err());
        assert!(s.local_core(&core, &[2, 2], &[0, 0]).is_err());
    }

    #[test]
    fn recursive_bisection_refactors_the_rank_count() {
        let s = RecursiveBisection::new();
        let square = Bounds::new(vec![(0, 127), (0, 127)]);
        // 4 ranks on a square: 2x2 beats 4x1 on surface-to-volume.
        assert_eq!(s.layout(&square, &[4]).unwrap(), vec![2, 2]);
        assert_eq!(s.layout(&square, &[2, 2]).unwrap(), vec![2, 2]);
        // A long domain takes all splits in its long dimension.
        let long = Bounds::new(vec![(0, 1024), (0, 4)]);
        assert_eq!(s.layout(&long, &[4]).unwrap(), vec![4, 1]);
        // 6 ranks on a square: 3x2 (largest factor on the first cut).
        assert_eq!(s.layout(&square, &[6]).unwrap(), vec![3, 2]);
    }

    #[test]
    fn recursive_bisection_rejects_oversubscription() {
        let s = RecursiveBisection::new();
        let tiny = Bounds::new(vec![(0, 2), (0, 2)]);
        let err = s.layout(&tiny, &[8]).unwrap_err();
        assert!(err.contains("cannot bisect"), "{err}");
    }

    #[test]
    fn custom_grid_places_ranks_explicitly() {
        let s = CustomGrid::new(vec![1, 4]);
        let core = Bounds::new(vec![(0, 64), (0, 64)]);
        assert_eq!(s.layout(&core, &[4]).unwrap(), vec![1, 4]);
        // Rank counts must agree with the requested grid.
        let err = s.layout(&core, &[2]).unwrap_err();
        assert!(err.contains("requests 2"), "{err}");
    }

    #[test]
    fn make_strategy_resolves_names() {
        assert_eq!(make_strategy("standard-slicing", None).unwrap().name(), "standard-slicing");
        assert_eq!(
            make_strategy("recursive-bisection", None).unwrap().name(),
            "recursive-bisection"
        );
        assert_eq!(make_strategy("custom-grid", Some(vec![1, 2])).unwrap().name(), "custom-grid");
        let err = make_strategy("custom-grid", None).err().expect("factors required");
        assert!(err.contains("factors"), "{err}");
        assert!(make_strategy("standard-slicing", Some(vec![2])).is_err());
        let err = make_strategy("diagonal", None).err().expect("unknown name");
        assert!(err.contains("unknown"), "{err}");
    }

    #[test]
    fn exchanges_match_paper_figure3_shape() {
        // A 2D local core of 100x100 with 4-cell halos on a 2x2 grid,
        // buffer 108x108 — the paper's Fig. 3 numbers.
        let s = StandardSlicing::new();
        let field = Bounds::new(vec![(-4, 104), (-4, 104)]);
        let core = Bounds::new(vec![(0, 100), (0, 100)]);
        let ex = s.exchanges(&field, &core, &[2, 2], &[4, 4], &[4, 4]);
        assert_eq!(ex.len(), 4);
        // The dim-1 low-halo exchange is the paper's example:
        // at [4, 0] size [100, 4] source offset [0, 4] to [0, -1].
        let e = ex.iter().find(|e| e.to == vec![0, -1]).unwrap();
        assert_eq!(e.at, vec![4, 0]);
        assert_eq!(e.size, vec![100, 4]);
        assert_eq!(e.source_offset, vec![0, 4]);
        // And its mirror:
        let e2 = ex.iter().find(|e| e.to == vec![0, 1]).unwrap();
        assert_eq!(e2.at, vec![4, 104]);
        assert_eq!(e2.source_offset, vec![0, -4]);
    }

    #[test]
    fn no_exchanges_along_undivided_dims() {
        let s = StandardSlicing::new();
        let field = Bounds::new(vec![(-1, 65), (-1, 65)]);
        let core = Bounds::new(vec![(0, 64), (0, 64)]);
        let ex = s.exchanges(&field, &core, &[2, 1], &[1, 1], &[1, 1]);
        assert_eq!(ex.len(), 2, "only dim 0 has neighbours");
        assert!(ex.iter().all(|e| e.to[1] == 0));
    }

    #[test]
    fn zero_width_halos_generate_no_exchange() {
        let s = StandardSlicing::new();
        let field = Bounds::new(vec![(0, 64)]);
        let core = Bounds::new(vec![(0, 64)]);
        let ex = s.exchanges(&field, &core, &[4], &[0], &[0]);
        assert!(ex.is_empty());
    }

    #[test]
    fn rank_coordinate_mapping_round_trips() {
        let grid = [2, 3, 4];
        for rank in 0..24 {
            let coords = rank_to_coords(rank, &grid);
            assert_eq!(coords_to_rank(&coords, &grid), Some(rank));
        }
        assert_eq!(rank_to_coords(0, &grid), vec![0, 0, 0]);
        assert_eq!(rank_to_coords(23, &grid), vec![1, 2, 3]);
    }

    #[test]
    fn neighbor_lookup_respects_boundaries() {
        let grid = [2, 2];
        // Rank 0 is at (0,0): no lower neighbours.
        assert_eq!(neighbor_rank(0, &grid, &[-1, 0]).unwrap(), None);
        assert_eq!(neighbor_rank(0, &grid, &[0, -1]).unwrap(), None);
        assert_eq!(neighbor_rank(0, &grid, &[1, 0]).unwrap(), Some(2));
        assert_eq!(neighbor_rank(0, &grid, &[0, 1]).unwrap(), Some(1));
        // Rank 3 is at (1,1): no upper neighbours.
        assert_eq!(neighbor_rank(3, &grid, &[1, 0]).unwrap(), None);
        assert_eq!(neighbor_rank(3, &grid, &[-1, 0]).unwrap(), Some(1));
    }

    #[test]
    fn neighbor_lookup_rejects_truncated_directions() {
        // A `to` shorter than the grid must not zero-pad its way to a
        // wrong neighbour.
        let err = neighbor_rank(0, &[2, 2], &[1]).unwrap_err();
        assert!(err.contains("components"), "{err}");
        // Extra trailing components are fine when zero (undecomposed
        // buffer dimensions)…
        assert_eq!(neighbor_rank(0, &[2], &[1, 0]).unwrap(), Some(1));
        // …but a move along an undecomposed dimension is a bug.
        let err = neighbor_rank(0, &[2], &[0, 1]).unwrap_err();
        assert!(err.contains("does not decompose"), "{err}");
    }

    #[test]
    fn every_strategy_tiles_uneven_domains_exactly() {
        // Disjoint-and-covering over a brutally uneven 3D domain.
        let core = Bounds::new(vec![(2, 19), (-3, 10), (0, 7)]);
        let strategies: Vec<Box<dyn DecompositionStrategy>> = vec![
            Box::new(StandardSlicing::new()),
            Box::new(RecursiveBisection::new()),
            Box::new(CustomGrid::new(vec![2, 3, 1])),
        ];
        for s in &strategies {
            let layout = s.layout(&core, &[2, 3]).unwrap();
            let ranks: i64 = layout.iter().product();
            assert_eq!(ranks, 6, "{}", s.name());
            let mut covered = std::collections::HashSet::new();
            for r in 0..ranks {
                let coords = rank_to_coords(r, &layout);
                let local = s.local_core(&core, &layout, &coords).unwrap();
                for pt in local.points() {
                    assert!(covered.insert(pt.clone()), "{}: {pt:?} owned twice", s.name());
                }
            }
            assert_eq!(
                covered.len() as i64,
                core.num_points(),
                "{}: cores must cover the global core",
                s.name()
            );
        }
    }
}
