//! The distribute-stencil pass: global program → rank-local SPMD program.
//!
//! §4.2: "we offer a shared pass that automatically prepares stencil
//! programs for distributed execution. This pass is parameterized by
//! information on the topology of MPI ranks in the computation, along with
//! a decomposition strategy. [...] Subsequently, dmp.swap operations are
//! inserted before each load, ensuring that neighboring ranks hold the
//! updated data before proceeding to the following stencil computation."
//!
//! The pass consumes a shape-inferred module (temp bounds are read straight
//! off the types — the payoff of the bounds-in-types redesign) and produces
//! a module in which:
//!
//! * every `!stencil.field` is re-bounded to the rank-local domain
//!   (local core plus the original halo widths);
//! * every `stencil.store` range is mapped into the local domain;
//! * a `dmp.swap` with the grid topology and the minimal exchange set is
//!   inserted before each `stencil.load` that reads across rank
//!   boundaries;
//! * every `stencil.reduce` range is mapped into the local domain (the
//!   rank's partial covers exactly its owned points) and a
//!   `dmp.allreduce` combining the partials is inserted after it, with
//!   downstream uses rewired to the global value — apply→reduce→apply
//!   programs distribute as a sequence of segments, each reduce a
//!   program-wide sequence point;
//! * temp types are reset to unknown — rerun shape inference afterwards.
//!
//! **Rank-dependence.** The pass is parameterized by the rank whose local
//! program it emits ([`DistributeStencil::for_rank`], default rank 0).
//! When the decomposition is *even* (every decomposed extent divisible by
//! its grid extent) all ranks' programs are congruent and rank 0's module
//! runs SPMD everywhere, exactly as in the paper. When extents do not
//! divide, the balanced slabs are rank-dependent: compile one module per
//! rank (the driver's `rank=N` pass option) — such modules carry their
//! cartesian coordinates in a `dmp.coords` attribute. Runtime
//! rank-dependent behaviour (boundary ranks skipping exchanges) is still
//! introduced by the `dmp → mpi` lowering.

use crate::decomposition::{rank_to_coords, DecompositionStrategy};
use crate::ops::swap;
use std::collections::HashMap;
use sten_ir::{
    Attribute, Block, Bounds, FieldType, FunctionType, Module, Op, Pass, PassError, TempType, Type,
    Value, ValueTable,
};

/// Temporal-blocking depth request for [`DistributeStencil`]
/// (`distribute-stencil{depth=k|auto}`): exchange one width-`k·r` halo
/// every `k` timesteps instead of a width-`r` halo every step — same
/// bytes on the wire, `k×` fewer messages (the OPS run-time loop-tiling
/// result; Devito's "haloupdate hoisting").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaloDepth {
    /// Exchange every `k` steps; `Fixed(1)` (the default) is the classic
    /// one-exchange-per-step schedule.
    Fixed(i64),
    /// Pick `k` from the kernel radius and a message-budget heuristic
    /// (wider stencils recompute more per skipped exchange, so they get
    /// shallower blocks), clamped so `k·r` fits every rank's chunk.
    /// Falls back to `1` when the program shape does not support
    /// temporal blocking.
    Auto,
}

impl Default for HaloDepth {
    fn default() -> Self {
        HaloDepth::Fixed(1)
    }
}

/// The distribute-stencil pass. See the module docs.
pub struct DistributeStencil {
    /// Cartesian rank topology (e.g. `[2, 2]`). The strategy may refactor
    /// its shape (keeping the rank count) — see
    /// [`DecompositionStrategy::layout`].
    pub grid: Vec<i64>,
    /// The rank whose local program is emitted (default 0; only material
    /// when the decomposition is uneven).
    pub rank: i64,
    /// Mark the emitted `dmp.swap` ops for communication/computation
    /// overlap: downstream lowerings split the exchange into
    /// begin / interior-compute / wait / boundary-compute phases
    /// (`distribute-stencil{overlap=true}`).
    pub overlap: bool,
    /// Also exchange diagonal/corner halo blocks (paper §8), so kernels
    /// with corner-touching offsets read valid corners
    /// (`distribute-stencil{diagonals=true}`).
    pub diagonals: bool,
    /// Temporal-blocking depth (`distribute-stencil{depth=k}`).
    pub depth: HaloDepth,
    /// How the domain is split across ranks.
    pub strategy: Box<dyn DecompositionStrategy + Send + Sync>,
}

impl DistributeStencil {
    /// Creates the pass with the standard slicing strategy.
    pub fn new(grid: Vec<i64>) -> Self {
        DistributeStencil {
            grid,
            rank: 0,
            overlap: false,
            diagonals: false,
            depth: HaloDepth::default(),
            strategy: Box::new(crate::StandardSlicing::new()),
        }
    }

    /// Creates the pass with a custom strategy.
    pub fn with_strategy(
        grid: Vec<i64>,
        strategy: Box<dyn DecompositionStrategy + Send + Sync>,
    ) -> Self {
        DistributeStencil {
            grid,
            rank: 0,
            overlap: false,
            diagonals: false,
            depth: HaloDepth::default(),
            strategy,
        }
    }

    /// Selects the rank whose local program is emitted (builder style).
    #[must_use]
    pub fn for_rank(mut self, rank: i64) -> Self {
        self.rank = rank;
        self
    }

    /// Marks the emitted swaps for overlapped execution (builder style).
    #[must_use]
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Enables diagonal/corner exchanges (builder style).
    #[must_use]
    pub fn with_diagonals(mut self, on: bool) -> Self {
        self.diagonals = on;
        self
    }

    /// Sets the temporal-blocking depth (builder style).
    #[must_use]
    pub fn with_depth(mut self, depth: HaloDepth) -> Self {
        self.depth = depth;
        self
    }

    /// Total number of ranks in the topology.
    pub fn num_ranks(&self) -> i64 {
        self.grid.iter().product()
    }
}

fn hull(a: &Bounds, b: &Bounds) -> Bounds {
    Bounds::new(
        a.0.iter()
            .zip(&b.0)
            .map(|(&(alb, aub), &(blb, bub))| (alb.min(blb), aub.max(bub)))
            .collect(),
    )
}

/// Collects the hull of all `stencil.store` and `stencil.reduce` ranges
/// in a function — the set of points the function owns: the global core
/// the pass decomposes, or, after distribution, one rank's local core.
/// Reduce-only programs (a dot product, a norm) decompose over their
/// reduction range exactly as store programs do over theirs.
///
/// # Errors
/// Reports malformed ops (missing bounds attributes) instead of
/// panicking, so `sten-opt` can attribute the failure to the function.
pub fn owned_box(func: &Op) -> Result<Option<Bounds>, String> {
    let mut core: Option<Bounds> = None;
    let mut malformed = None;
    func.walk(&mut |op| {
        if matches!(op.name.as_str(), "stencil.store" | "stencil.reduce") && malformed.is_none() {
            if op.attr("lb").and_then(Attribute::as_dense).is_none()
                || op.attr("ub").and_then(Attribute::as_dense).is_none()
            {
                malformed = Some(format!(
                    "{} without dense lb/ub bounds attributes — run the verifier to locate it",
                    op.name
                ));
                return;
            }
            let range = if op.name == "stencil.store" {
                sten_stencil::ops::StoreOp(op).range()
            } else {
                sten_stencil::ops::ReduceOp(op).range()
            };
            core = Some(match &core {
                Some(c) => hull(c, &range),
                None => range,
            });
        }
    });
    match malformed {
        Some(m) => Err(m),
        None => Ok(core),
    }
}

/// Maps a global range to the rank-local one: offsets relative to the
/// global core are preserved around the local core.
fn localize(b: &Bounds, core: &Bounds, local_core: &Bounds) -> Bounds {
    let lo: Vec<i64> = core.0.iter().zip(&b.0).map(|(&(clb, _), &(blb, _))| clb - blb).collect();
    let hi: Vec<i64> = core.0.iter().zip(&b.0).map(|(&(_, cub), &(_, bub))| bub - cub).collect();
    local_core.grown_asymmetric(&lo, &hi)
}

/// Legality analysis + depth resolution for temporal blocking.
///
/// The rewrite is legal for the ping-pong time-step shape: exactly one
/// `stencil.load`, one single-result `stencil.apply` reading it, and one
/// `stencil.store` of that result into a *different* field, stored over
/// the full core. The caller's time loop swaps the two fields between
/// steps, so the dependence distance of `k` chained steps is exactly
/// `k·r` cells per decomposed side — a width-`k·r` halo exchanged once
/// per `k`-step block feeds the whole block. Constraints:
///
/// * every decomposed chunk must span at least `k·r` cells (the deep
///   slab a rank sends must be entirely its own freshly-computed data);
/// * when two or more decomposed dimensions exchange halos, the grown
///   per-phase trapezoids read *corner* halo cells even for star
///   stencils, so `diagonals=true` is required.
///
/// Returns the resolved depth; an explicit illegal `depth=k` is an error
/// (the diagnostic names the violated constraint) while `depth=auto`
/// silently falls back to `1`.
fn resolve_depth(
    requested: &HaloDepth,
    func: &Op,
    core: &Bounds,
    layout: &[i64],
    load_halos: &HashMap<Value, (Vec<i64>, Vec<i64>)>,
    diagonals: bool,
) -> Result<i64, String> {
    if let HaloDepth::Fixed(k) = requested {
        if *k < 1 {
            return Err(format!("depth must be at least 1, got {k}"));
        }
        if *k == 1 {
            return Ok(1);
        }
    }
    // Pattern-match the ping-pong shape; any deviation is a legality
    // failure (the block rewrite assumes one kernel advancing one step).
    let mut loads = Vec::new();
    let mut applies = Vec::new();
    let mut stores = Vec::new();
    let mut reduces = 0usize;
    func.walk(&mut |o| match o.name.as_str() {
        "stencil.load" => loads.push((o.operands.first().copied(), o.results.first().copied())),
        "stencil.apply" => applies.push((o.operands.clone(), o.results.clone())),
        "stencil.store" => stores.push(o.operands.clone()),
        "stencil.reduce" => reduces += 1,
        _ => {}
    });
    let legality = (|| {
        if reduces > 0 {
            // A global reduction is a sequence point every rank must pass
            // together; no k-step block can straddle it.
            return Err(format!(
                "the program contains {reduces} global reduction(s) — a stencil.reduce is a \
                 rank-wide sequence point, so multi-step blocks cannot cross it"
            ));
        }
        let [(load_field, load_temp)] = loads[..] else {
            return Err(format!("needs exactly one stencil.load, found {}", loads.len()));
        };
        let [(apply_ins, apply_outs)] = &applies[..] else {
            return Err(format!("needs exactly one stencil.apply, found {}", applies.len()));
        };
        let [store_ops] = &stores[..] else {
            return Err(format!("needs exactly one stencil.store, found {}", stores.len()));
        };
        let [apply_out] = apply_outs[..] else {
            return Err("needs a single-result stencil.apply".to_string());
        };
        if load_temp.is_none() || !apply_ins.contains(&load_temp.unwrap()) {
            return Err("the apply must read the loaded temp".to_string());
        }
        if store_ops.first() != Some(&apply_out) {
            return Err("the store must write the apply result".to_string());
        }
        if store_ops.get(1) == load_field.as_ref() {
            return Err(
                "the store must target a different field than the load (ping-pong)".to_string()
            );
        }
        let (lo, hi) = load_halos
            .get(&load_temp.unwrap())
            .ok_or_else(|| "load halos unavailable".to_string())?;
        // Per-step halo widths along the decomposed dimensions (symmetric
        // by the earlier asymmetry check).
        let radii: Vec<(usize, i64)> = (0..core.rank().min(layout.len()))
            .filter(|&d| layout[d] > 1 && lo[d].max(hi[d]) > 0)
            .map(|d| (d, lo[d].max(hi[d])))
            .collect();
        if radii.len() >= 2 && !diagonals {
            return Err("more than one decomposed dimension exchanges halos — the grown \
                        per-phase regions read corner halo cells, so depth>1 requires \
                        diagonals=true"
                .to_string());
        }
        // Max depth the chunk geometry allows: the deep slab a rank
        // sends must be its own freshly-computed data, so k·r may not
        // exceed the smallest chunk extent (floor of the balanced split,
        // making the cap rank-independent).
        let cap =
            radii.iter().map(|&(d, r)| (core.size(d) / layout[d]) / r).min().unwrap_or(i64::MAX);
        let r_max = radii.iter().map(|&(_, r)| r).max().unwrap_or(0);
        Ok((cap, r_max))
    })();
    match (requested, legality) {
        (HaloDepth::Fixed(_), Err(m)) => Err(format!("temporal blocking (depth>1) illegal: {m}")),
        (HaloDepth::Auto, Err(_)) => Ok(1),
        (HaloDepth::Fixed(k), Ok((cap, _))) => {
            if *k > cap {
                return Err(format!(
                    "depth {k} exceeds the chunk capacity: k·r must fit the smallest \
                     decomposed chunk (max legal depth {cap})"
                ));
            }
            Ok(*k)
        }
        (HaloDepth::Auto, Ok((cap, r_max))) => {
            if r_max == 0 {
                return Ok(1); // no decomposed halos: nothing to amortize
            }
            // Message-budget heuristic: spend at most ~4 cells of
            // redundant recompute per side and block, so radius-1
            // kernels get k=4, radius-2 get k=2, radius-4+ stay at 1.
            Ok((4 / r_max).clamp(1, 4).min(cap).max(1))
        }
    }
}

struct Distributor<'a> {
    vt: &'a mut ValueTable,
    layout: Vec<i64>,
    strategy: &'a (dyn DecompositionStrategy + Send + Sync),
    core: Bounds,
    local_core: Bounds,
    overlap: bool,
    diagonals: bool,
    /// Resolved temporal-blocking depth (1 = exchange every step).
    depth: i64,
    /// Extra per-side field growth for depth>1: `(depth-1)·r` along
    /// decomposed dimensions, so the buffer holds the full `k·r` halo.
    extra_lo: Vec<i64>,
    extra_hi: Vec<i64>,
    /// Per-load halo widths, captured from the global shape inference
    /// before temps are reset (keyed by the load's result value).
    load_halos: HashMap<Value, (Vec<i64>, Vec<i64>)>,
    /// Value substitutions accumulated by the rewrite: each
    /// `stencil.reduce` result (a rank-local partial) is replaced in all
    /// downstream uses by the `dmp.allreduce` result (the global value).
    rename: HashMap<Value, Value>,
}

impl<'a> Distributor<'a> {
    fn localize_value(&mut self, v: Value) -> Result<(), String> {
        match self.vt.ty(v).clone() {
            Type::Field(f) => {
                if !f.bounds.contains(&self.core) {
                    return Err(format!(
                        "field bounds {} do not contain the stored core {}",
                        f.bounds, self.core
                    ));
                }
                let local = localize(&f.bounds, &self.core, &self.local_core)
                    .grown_asymmetric(&self.extra_lo, &self.extra_hi);
                self.vt.set_ty(v, Type::Field(FieldType::new(local, (*f.elem).clone())));
            }
            Type::Temp(t) => {
                self.vt.set_ty(v, Type::Temp(TempType::unknown(t.rank, (*t.elem).clone())));
            }
            _ => {}
        }
        Ok(())
    }

    fn process_block(&mut self, block: &mut Block) -> Result<(), String> {
        for &arg in block.args.clone().iter() {
            self.localize_value(arg)?;
        }
        let ops = std::mem::take(&mut block.ops);
        for mut op in ops {
            for operand in &mut op.operands {
                if let Some(&global) = self.rename.get(operand) {
                    *operand = global;
                }
            }
            match op.name.as_str() {
                "stencil.load" => {
                    if op.operands.is_empty() || op.results.is_empty() {
                        return Err("malformed stencil.load: expected one field operand and \
                                    one temp result"
                            .to_string());
                    }
                    // Insert the halo exchange before the load.
                    let field = op.operand(0);
                    let (lo_halo, hi_halo) =
                        self.load_halos.get(&op.result(0)).cloned().unwrap_or_else(|| {
                            (vec![0; self.core.rank()], vec![0; self.core.rank()])
                        });
                    // The operand field was already localized (defined
                    // earlier in the program).
                    let local_field = match self.vt.ty(field) {
                        Type::Field(f) => f.bounds.clone(),
                        other => {
                            return Err(format!(
                                "stencil.load reads a non-field operand of type {other:?} — \
                                 distribute-stencil requires !stencil.field arguments"
                            ))
                        }
                    };
                    // Exchange widths: the per-step halo scaled to the
                    // full `k·r` block depth along decomposed dimensions.
                    let scale = |w: &[i64]| -> Vec<i64> {
                        w.iter()
                            .enumerate()
                            .map(|(d, &x)| {
                                if self.layout.get(d).is_some_and(|&p| p > 1) {
                                    x * self.depth
                                } else {
                                    x
                                }
                            })
                            .collect()
                    };
                    let (ex_lo, ex_hi) = (scale(&lo_halo), scale(&hi_halo));
                    let mut exchanges = self.strategy.exchanges(
                        &local_field,
                        &self.local_core,
                        &self.layout,
                        &ex_lo,
                        &ex_hi,
                    );
                    if self.diagonals {
                        exchanges.extend(crate::overlap::corner_exchanges(
                            &local_field,
                            &self.local_core,
                            &self.layout,
                            &ex_lo,
                            &ex_hi,
                        )?);
                    }
                    if !exchanges.is_empty() {
                        let mut s = swap(field, self.layout.clone(), exchanges);
                        if self.overlap {
                            s.set_attr("overlap", Attribute::Unit);
                        }
                        if self.depth > 1 {
                            s.set_attr("depth", Attribute::DenseI64(vec![self.depth]));
                        }
                        block.ops.push(s);
                    }
                    self.localize_value(op.result(0))?;
                    block.ops.push(op);
                }
                "stencil.store" => {
                    let range = sten_stencil::ops::StoreOp(&op).range();
                    let local = localize(&range, &self.core, &self.local_core);
                    op.set_attr("lb", Attribute::DenseI64(local.lower()));
                    op.set_attr("ub", Attribute::DenseI64(local.upper()));
                    block.ops.push(op);
                }
                "stencil.reduce" => {
                    // The rank folds exactly its owned points (the
                    // localized range), then an allreduce combines the
                    // per-rank partials into the global value every rank
                    // reads. Dot partials combine as sums.
                    let view = sten_stencil::ops::ReduceOp(&op);
                    let range = view.range();
                    let combine =
                        if view.kind() == "dot" { "sum" } else { view.kind() }.to_string();
                    let local = localize(&range, &self.core, &self.local_core);
                    op.set_attr("lb", Attribute::DenseI64(local.lower()));
                    op.set_attr("ub", Attribute::DenseI64(local.upper()));
                    let partial = op.result(0);
                    block.ops.push(op);
                    let ar = crate::ops::allreduce(self.vt, partial, &combine);
                    self.rename.insert(partial, ar.result(0));
                    block.ops.push(ar);
                }
                _ => {
                    // Stale bounds hints from global shape inference.
                    if op.name == "stencil.apply" {
                        op.attrs.remove("lb");
                        op.attrs.remove("ub");
                    }
                    for &r in op.results.clone().iter() {
                        self.localize_value(r)?;
                    }
                    for region in &mut op.regions {
                        for inner in &mut region.blocks {
                            self.process_block(inner)?;
                        }
                    }
                    block.ops.push(op);
                }
            }
        }
        Ok(())
    }
}

impl Pass for DistributeStencil {
    fn name(&self) -> &'static str {
        "distribute-stencil"
    }

    fn run(&self, module: &mut Module) -> Result<(), PassError> {
        let err = |m: String| PassError::new("distribute-stencil", m);
        let mut regions = std::mem::take(&mut module.op.regions);
        let mut failure = None;
        'outer: for region in &mut regions {
            for block in &mut region.blocks {
                for op in &mut block.ops {
                    if op.name != "func.func" {
                        continue;
                    }
                    // Attribute every failure to the function it arose in
                    // — `sten-opt` reports a location instead of aborting.
                    let fname = op
                        .attr("sym_name")
                        .and_then(Attribute::as_str)
                        .unwrap_or("<unnamed>")
                        .to_string();
                    let in_func = |m: String| format!("in @{fname}: {m}");
                    let core = match owned_box(op) {
                        Ok(Some(c)) => c,
                        Ok(None) => continue, // no stencil stores: nothing to distribute
                        Err(m) => {
                            failure = Some(in_func(m));
                            break 'outer;
                        }
                    };
                    if self.grid.len() > core.rank() {
                        failure = Some(in_func(format!(
                            "grid rank {} exceeds domain rank {}",
                            self.grid.len(),
                            core.rank()
                        )));
                        break 'outer;
                    }
                    let layout = match self.strategy.layout(&core, &self.grid) {
                        Ok(l) => l,
                        Err(m) => {
                            failure = Some(in_func(m));
                            break 'outer;
                        }
                    };
                    let ranks: i64 = layout.iter().product();
                    if self.rank < 0 || self.rank >= ranks {
                        failure = Some(in_func(format!(
                            "rank {} outside the {ranks}-rank topology {layout:?}",
                            self.rank
                        )));
                        break 'outer;
                    }
                    let coords = rank_to_coords(self.rank, &layout);
                    let local_core = match self.strategy.local_core(&core, &layout, &coords) {
                        Ok(c) => c,
                        Err(m) => {
                            failure = Some(in_func(m));
                            break 'outer;
                        }
                    };
                    // Capture per-load halo widths from the global bounds.
                    let mut load_halos = HashMap::new();
                    let mut halo_err = None;
                    op.walk(&mut |o| {
                        if o.name == "stencil.load" {
                            if o.results.is_empty() {
                                halo_err =
                                    Some("malformed stencil.load without a result".to_string());
                                return;
                            }
                            match module.values.ty(o.result(0)) {
                                Type::Temp(TempType { bounds: Some(b), .. }) => {
                                    let lo: Vec<i64> = core
                                        .0
                                        .iter()
                                        .zip(&b.0)
                                        .map(|(&(clb, _), &(blb, _))| (clb - blb).max(0))
                                        .collect();
                                    let hi: Vec<i64> = core
                                        .0
                                        .iter()
                                        .zip(&b.0)
                                        .map(|(&(_, cub), &(_, bub))| (bub - cub).max(0))
                                        .collect();
                                    for d in 0..layout.len().min(lo.len()) {
                                        if layout[d] > 1 && lo[d] != hi[d] {
                                            halo_err = Some(format!(
                                                "asymmetric halo ({} below / {} above) in \
                                                 decomposed dimension {d}: the swap-based \
                                                 exchange is a symmetric pairwise swap (as \
                                                 in the paper); symmetrize the stencil or \
                                                 use an undecomposed dimension",
                                                lo[d], hi[d]
                                            ));
                                        }
                                    }
                                    load_halos.insert(o.result(0), (lo, hi));
                                }
                                _ => {
                                    halo_err = Some(
                                        "stencil.load has unknown bounds — run shape \
                                         inference before distribute-stencil"
                                            .to_string(),
                                    );
                                }
                            }
                        }
                    });
                    if let Some(m) = halo_err {
                        failure = Some(in_func(m));
                        break 'outer;
                    }
                    let depth = match resolve_depth(
                        &self.depth,
                        op,
                        &core,
                        &layout,
                        &load_halos,
                        self.diagonals,
                    ) {
                        Ok(k) => k,
                        Err(m) => {
                            failure = Some(in_func(m));
                            break 'outer;
                        }
                    };
                    // Deep blocks keep `(k-1)·r` extra field halo beyond
                    // the per-step width along decomposed dimensions.
                    let (extra_lo, extra_hi) = if depth > 1 {
                        let (lo, hi) = load_halos.values().next().cloned().unwrap_or_default();
                        let grow = |w: &[i64]| -> Vec<i64> {
                            (0..core.rank())
                                .map(|d| {
                                    if layout.get(d).is_some_and(|&p| p > 1) {
                                        (depth - 1) * w.get(d).copied().unwrap_or(0)
                                    } else {
                                        0
                                    }
                                })
                                .collect()
                        };
                        (grow(&lo), grow(&hi))
                    } else {
                        (vec![0; core.rank()], vec![0; core.rank()])
                    };
                    // Rank-dependent modules record their coordinates; the
                    // even SPMD case stays coordinate-free (and
                    // byte-identical to the congruent-slab output).
                    let uneven = (0..core.rank())
                        .any(|d| layout.get(d).is_some_and(|&p| p > 1 && core.size(d) % p != 0));
                    let mut distributor = Distributor {
                        vt: &mut module.values,
                        layout: layout.clone(),
                        strategy: self.strategy.as_ref(),
                        core: core.clone(),
                        local_core,
                        overlap: self.overlap,
                        diagonals: self.diagonals,
                        depth,
                        extra_lo,
                        extra_hi,
                        load_halos,
                        rename: HashMap::new(),
                    };
                    for func_region in &mut op.regions {
                        for func_block in &mut func_region.blocks {
                            if let Err(m) = distributor.process_block(func_block) {
                                failure = Some(in_func(m));
                                break 'outer;
                            }
                        }
                    }
                    // Refresh the signature from the retyped block args.
                    if let Some(Attribute::Type(Type::Function(fty))) =
                        op.attr("function_type").cloned()
                    {
                        let args = op.region_block(0).args.clone();
                        let inputs: Vec<Type> =
                            args.iter().map(|&a| module.values.ty(a).clone()).collect();
                        let new = FunctionType::new(inputs, fty.results.clone());
                        op.set_attr(
                            "function_type",
                            Attribute::Type(Type::Function(Box::new(new))),
                        );
                    }
                    op.set_attr("dmp.grid", Attribute::Grid(layout));
                    if uneven || self.rank != 0 {
                        op.set_attr("dmp.coords", Attribute::DenseI64(coords));
                    }
                }
            }
        }
        module.op.regions = regions;
        match failure {
            Some(m) => Err(err(m)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sten_ir::{verify_module, DialectRegistry};
    use sten_stencil::{samples, ShapeInference};

    fn registry() -> DialectRegistry {
        let mut reg = DialectRegistry::new();
        sten_dialects::register_all(&mut reg);
        sten_stencil::register(&mut reg);
        crate::ops::register(&mut reg);
        reg
    }

    fn distributed_jacobi(grid: Vec<i64>) -> Module {
        let mut m = samples::jacobi_1d(128);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(grid).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        m
    }

    fn field_bounds(m: &Module, func: &str) -> Bounds {
        let f = m.lookup_symbol(func).unwrap();
        let fty = sten_dialects::func::FuncOp(f).function_type().clone();
        match &fty.inputs[0] {
            Type::Field(f) => f.bounds.clone(),
            other => panic!("expected a !stencil.field argument, got {other:?}"),
        }
    }

    #[test]
    fn jacobi_on_two_ranks_matches_figure4() {
        let m = distributed_jacobi(vec![2]);
        verify_module(&m, Some(&registry())).unwrap();
        // Global core [1,127) of 126 points → local core [1,64); field
        // keeps its 1-cell halo → [0,65).
        assert_eq!(field_bounds(&m, "jacobi"), Bounds::new(vec![(0, 65)]));
        // A swap precedes the load, with the Fig. 4 exchange pair.
        let func = m.lookup_symbol("jacobi").unwrap();
        let body_names: Vec<&str> =
            func.region_block(0).ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(body_names[0], "dmp.swap");
        assert_eq!(body_names[1], "stencil.load");
        let swap_view = crate::ops::SwapOp(&func.region_block(0).ops[0]);
        assert_eq!(swap_view.grid(), &[2]);
        let ex = swap_view.exchanges();
        assert_eq!(ex.len(), 2);
        let low = ex.iter().find(|e| e.to == vec![-1]).unwrap();
        assert_eq!((low.at[0], low.size[0], low.source_offset[0]), (0, 1, 1));
        let high = ex.iter().find(|e| e.to == vec![1]).unwrap();
        assert_eq!((high.at[0], high.size[0], high.source_offset[0]), (64, 1, -1));
    }

    #[test]
    fn store_range_is_localized() {
        let m = distributed_jacobi(vec![2]);
        let func = m.lookup_symbol("jacobi").unwrap();
        let store = func.region_block(0).ops.iter().find(|o| o.name == "stencil.store").unwrap();
        assert_eq!(sten_stencil::ops::StoreOp(store).range(), Bounds::new(vec![(1, 64)]));
    }

    #[test]
    fn heat2d_on_2x2_grid() {
        let mut m = samples::heat_2d(64, 0.1);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(vec![2, 2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        verify_module(&m, Some(&registry())).unwrap();
        // Global core [0,64)², halo 1 → local [−1,33)².
        assert_eq!(field_bounds(&m, "heat"), Bounds::new(vec![(-1, 33), (-1, 33)]));
        let func = m.lookup_symbol("heat").unwrap();
        let swap = func.region_block(0).ops.iter().find(|o| o.name == "dmp.swap").unwrap();
        assert_eq!(crate::ops::SwapOp(swap).exchanges().len(), 4, "two dims × two dirs");
        // Even SPMD decomposition: no rank coordinates recorded.
        assert!(func.attr("dmp.coords").is_none());
    }

    #[test]
    fn overlap_marks_swaps_and_diagonals_add_corners() {
        let mut m = samples::heat_2d(64, 0.1);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(vec![2, 2])
            .with_overlap(true)
            .with_diagonals(true)
            .run(&mut m)
            .unwrap();
        ShapeInference.run(&mut m).unwrap();
        verify_module(&m, Some(&registry())).unwrap();
        let func = m.lookup_symbol("heat").unwrap();
        let swap = func.region_block(0).ops.iter().find(|o| o.name == "dmp.swap").unwrap();
        assert!(swap.attr("overlap").is_some(), "swap carries the overlap marker");
        // 4 faces + 4 corners on a 2x2 grid with unit halos.
        let view = crate::ops::SwapOp(swap);
        let ex = view.exchanges();
        assert_eq!(ex.len(), 8);
        assert_eq!(ex.iter().filter(|e| e.to.iter().filter(|&&t| t != 0).count() == 2).count(), 4);
        // The marked module round-trips through the printer.
        let text = sten_ir::print_module(&m);
        assert!(text.contains("overlap"), "{text}");
        let re = sten_ir::parse_module(&text).unwrap();
        assert_eq!(sten_ir::print_module(&re), text);
    }

    #[test]
    fn default_swaps_are_unmarked_and_face_only() {
        let m = distributed_jacobi(vec![2]);
        let func = m.lookup_symbol("jacobi").unwrap();
        let swap = func.region_block(0).ops.iter().find(|o| o.name == "dmp.swap").unwrap();
        assert!(swap.attr("overlap").is_none());
        assert_eq!(crate::ops::SwapOp(swap).exchanges().len(), 2);
    }

    #[test]
    fn one_rank_grid_inserts_no_swaps() {
        let m = distributed_jacobi(vec![1]);
        let mut swaps = 0;
        m.walk(|op| {
            if op.name == "dmp.swap" {
                swaps += 1;
            }
        });
        assert_eq!(swaps, 0, "single rank needs no exchanges");
    }

    #[test]
    fn uneven_domains_get_balanced_rank_dependent_slabs() {
        // Core 126 over 4 ranks: 32, 32, 31, 31 — rank-dependent modules.
        let mut sizes = Vec::new();
        for rank in 0..4 {
            let mut m = samples::jacobi_1d(128);
            ShapeInference.run(&mut m).unwrap();
            DistributeStencil::new(vec![4]).for_rank(rank).run(&mut m).unwrap();
            ShapeInference.run(&mut m).unwrap();
            verify_module(&m, Some(&registry())).unwrap();
            let func = m.lookup_symbol("jacobi").unwrap();
            assert_eq!(
                func.attr("dmp.coords").and_then(Attribute::as_dense),
                Some(&[rank][..]),
                "uneven decomposition records the rank coordinates"
            );
            let store =
                func.region_block(0).ops.iter().find(|o| o.name == "stencil.store").unwrap();
            let range = sten_stencil::ops::StoreOp(store).range();
            sizes.push(range.size(0));
            // The field keeps its 1-cell halo around the local core.
            assert_eq!(field_bounds(&m, "jacobi"), range.grown(1));
        }
        assert_eq!(sizes, vec![32, 32, 31, 31]);
    }

    #[test]
    fn recursive_bisection_refactors_the_grid_attr() {
        let mut m = samples::heat_2d(64, 0.1);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::with_strategy(vec![4], Box::new(crate::RecursiveBisection::new()))
            .run(&mut m)
            .unwrap();
        ShapeInference.run(&mut m).unwrap();
        verify_module(&m, Some(&registry())).unwrap();
        let func = m.lookup_symbol("heat").unwrap();
        assert_eq!(
            func.attr("dmp.grid").and_then(Attribute::as_grid),
            Some(&[2i64, 2][..]),
            "4 ranks on a square domain bisect into 2x2"
        );
        assert_eq!(field_bounds(&m, "heat"), Bounds::new(vec![(-1, 33), (-1, 33)]));
    }

    #[test]
    fn out_of_range_rank_is_rejected() {
        let mut m = samples::jacobi_1d(128);
        ShapeInference.run(&mut m).unwrap();
        let err = DistributeStencil::new(vec![2]).for_rank(2).run(&mut m).unwrap_err();
        assert!(err.message.contains("outside the 2-rank topology"), "{err}");
        assert!(err.message.contains("in @jacobi"), "failures name the function: {err}");
    }

    #[test]
    fn oversubscribed_grid_is_rejected_with_location() {
        let mut m = samples::jacobi_1d(4); // core of 2 points
        ShapeInference.run(&mut m).unwrap();
        let err = DistributeStencil::new(vec![4]).run(&mut m).unwrap_err();
        assert!(err.message.contains("exceeds domain extent"), "{err}");
        assert!(err.message.contains("in @jacobi"), "{err}");
    }

    #[test]
    fn requires_shape_inference_first() {
        let mut m = samples::jacobi_1d(128);
        let err = DistributeStencil::new(vec![2]).run(&mut m).unwrap_err();
        assert!(err.message.contains("shape inference"), "{err}");
    }

    #[test]
    fn lowered_distributed_module_verifies() {
        // The full stencil-level → loop-level path with dmp.swap present:
        // swap's field operand is substituted to a memref by the lowering.
        let mut m = distributed_jacobi(vec![2]);
        sten_stencil::StencilToLoops.run(&mut m).unwrap();
        verify_module(&m, Some(&registry())).unwrap();
        let text = sten_ir::print_module(&m);
        assert!(text.contains("dmp.swap"));
        assert!(text.contains("memref<65xf64>"), "{text}");
    }

    #[test]
    fn depth_widens_exchanges_and_field_halos() {
        let mut m = samples::jacobi_1d(128);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(vec![2]).with_depth(HaloDepth::Fixed(2)).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        verify_module(&m, Some(&registry())).unwrap();
        // Local core [1,64) keeps a 2-cell halo: [-1,66).
        assert_eq!(field_bounds(&m, "jacobi"), Bounds::new(vec![(-1, 66)]));
        let func = m.lookup_symbol("jacobi").unwrap();
        let swap = func.region_block(0).ops.iter().find(|o| o.name == "dmp.swap").unwrap();
        let view = crate::ops::SwapOp(swap);
        assert_eq!(view.depth(), 2);
        let ex = view.exchanges();
        let low = ex.iter().find(|e| e.to == vec![-1]).unwrap();
        assert_eq!((low.at[0], low.size[0], low.source_offset[0]), (0, 2, 2));
        let high = ex.iter().find(|e| e.to == vec![1]).unwrap();
        assert_eq!((high.at[0], high.size[0], high.source_offset[0]), (65, 2, -2));
        // The deep swap round-trips through the printer.
        let text = sten_ir::print_module(&m);
        assert!(text.contains("depth"), "{text}");
        let re = sten_ir::parse_module(&text).unwrap();
        assert_eq!(sten_ir::print_module(&re), text);
    }

    #[test]
    fn depth_auto_picks_from_radius_and_chunk() {
        // Radius-1 jacobi: the message-budget heuristic picks k=4.
        let mut m = samples::jacobi_1d(128);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(vec![2]).with_depth(HaloDepth::Auto).run(&mut m).unwrap();
        let func = m.lookup_symbol("jacobi").unwrap();
        let swap = func.region_block(0).ops.iter().find(|o| o.name == "dmp.swap").unwrap();
        assert_eq!(crate::ops::SwapOp(swap).depth(), 4);
        // On a single-rank grid auto quietly stays at 1 (no exchanges).
        let mut m1 = samples::jacobi_1d(128);
        ShapeInference.run(&mut m1).unwrap();
        DistributeStencil::new(vec![1]).with_depth(HaloDepth::Auto).run(&mut m1).unwrap();
        assert!(!sten_ir::print_module(&m1).contains("dmp.swap"));
    }

    #[test]
    fn illegal_depth_is_a_diagnostic_not_a_wrong_answer() {
        // k·r exceeding the chunk: 126/16 = 7-cell chunks cap depth at 7.
        let mut m = samples::jacobi_1d(128);
        ShapeInference.run(&mut m).unwrap();
        let err = DistributeStencil::new(vec![16])
            .with_depth(HaloDepth::Fixed(8))
            .run(&mut m)
            .unwrap_err();
        assert!(err.message.contains("max legal depth 7"), "{err}");
        // Two decomposed dimensions without diagonals: the trapezoid
        // phases would read unexchanged corner halo cells.
        let mut m2 = samples::heat_2d(64, 0.1);
        ShapeInference.run(&mut m2).unwrap();
        let err = DistributeStencil::new(vec![2, 2])
            .with_depth(HaloDepth::Fixed(2))
            .run(&mut m2)
            .unwrap_err();
        assert!(err.message.contains("diagonals=true"), "{err}");
        // With diagonals the same request is legal; corners carry the
        // full k·r blocks.
        let mut m3 = samples::heat_2d(64, 0.1);
        ShapeInference.run(&mut m3).unwrap();
        DistributeStencil::new(vec![2, 2])
            .with_depth(HaloDepth::Fixed(2))
            .with_diagonals(true)
            .run(&mut m3)
            .unwrap();
        let func = m3.lookup_symbol("heat").unwrap();
        let swap = func.region_block(0).ops.iter().find(|o| o.name == "dmp.swap").unwrap();
        let view = crate::ops::SwapOp(swap);
        assert_eq!(view.depth(), 2);
        let ex = view.exchanges();
        let corner = ex.iter().find(|e| e.to == vec![-1, -1]).unwrap();
        assert_eq!(corner.size, vec![2, 2]);
    }

    #[test]
    fn dot_program_distributes_with_allreduce_and_no_swaps() {
        // @reduce(a, b) -> f64 over core [1,15): no halos are read, so the
        // distribution is swap-free — each rank folds its owned half and
        // the partials meet in a dmp.allreduce.
        let mut m =
            samples::reduce_nd("dot", Bounds::new(vec![(0, 16)]), Bounds::new(vec![(1, 15)]));
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        verify_module(&m, Some(&registry())).unwrap();
        let func = m.lookup_symbol("reduce").unwrap();
        let names: Vec<&str> = func.region_block(0).ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["stencil.load", "stencil.load", "stencil.reduce", "dmp.allreduce", "func.return"]
        );
        let body = &func.region_block(0).ops;
        let rd = sten_stencil::ops::ReduceOp(&body[2]);
        assert_eq!(rd.range(), Bounds::new(vec![(1, 8)]), "rank 0 owns the low half");
        let ar = crate::ops::AllreduceOp(&body[3]);
        assert_eq!(ar.op_name(), "sum", "dot partials combine as sums");
        assert_eq!(ar.value(), body[2].result(0));
        assert_eq!(
            body[4].operands,
            vec![body[3].result(0)],
            "the return reads the global value, not the rank-local partial"
        );
        let text = sten_ir::print_module(&m);
        let re = sten_ir::parse_module(&text).unwrap();
        assert_eq!(sten_ir::print_module(&re), text);
    }

    #[test]
    fn apply_then_reduce_distributes_as_segments() {
        // jacobi_with_norm: apply → store → reduce in one program. The
        // apply segment still swaps its halo; the reduce segment localizes
        // and allreduces.
        let mut m = samples::jacobi_with_norm(128);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        verify_module(&m, Some(&registry())).unwrap();
        let func = m.lookup_symbol("jacobi_norm").unwrap();
        let names: Vec<&str> = func.region_block(0).ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "dmp.swap",
                "stencil.load",
                "stencil.apply",
                "stencil.store",
                "stencil.reduce",
                "dmp.allreduce",
                "func.return"
            ]
        );
        let body = &func.region_block(0).ops;
        assert_eq!(
            sten_stencil::ops::ReduceOp(&body[4]).range(),
            Bounds::new(vec![(1, 64)]),
            "reduce folds exactly the owned core"
        );
        assert_eq!(body[6].operands, vec![body[5].result(0)]);
    }

    #[test]
    fn reductions_are_sequence_points_for_temporal_blocking() {
        let mut m = samples::jacobi_with_norm(128);
        ShapeInference.run(&mut m).unwrap();
        let err = DistributeStencil::new(vec![2])
            .with_depth(HaloDepth::Fixed(2))
            .run(&mut m)
            .unwrap_err();
        assert!(err.message.contains("sequence point"), "{err}");
        // Auto quietly falls back to the every-step schedule.
        let mut m2 = samples::jacobi_with_norm(128);
        ShapeInference.run(&mut m2).unwrap();
        DistributeStencil::new(vec![2]).with_depth(HaloDepth::Auto).run(&mut m2).unwrap();
        let func = m2.lookup_symbol("jacobi_norm").unwrap();
        let swap = func.region_block(0).ops.iter().find(|o| o.name == "dmp.swap").unwrap();
        assert_eq!(crate::ops::SwapOp(swap).depth(), 1);
    }

    #[test]
    fn uneven_distributed_module_round_trips() {
        let mut m = samples::heat_2d(15, 0.1);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(vec![2, 2]).for_rank(3).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let text = sten_ir::print_module(&m);
        assert!(text.contains("dmp.coords"), "{text}");
        let re = sten_ir::parse_module(&text).unwrap();
        assert_eq!(sten_ir::print_module(&re), text);
    }
}
