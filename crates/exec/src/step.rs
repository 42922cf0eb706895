//! The step program: what a compiled stencil function executes.
//!
//! A [`Pipeline`] is the function's buffers, its [`Step`]s in program
//! order and one [`Swap`] record per `dmp.swap`. `compile_module`
//! (`pipeline.rs`) builds it, the schedule builder (`schedule.rs`)
//! orders its steps for a rank, and the [`Runner`](crate::Runner)
//! executes them.

use crate::program::{BinOp, InputDesc};
use crate::specialize::{SpecializedKernel, TierKind};
use std::collections::HashMap;
use sten_dmp::decomposition::neighbor_rank;
use sten_interp::ReduceKind;
use sten_ir::{Bounds, ExchangeAttr};

/// Identifies a buffer in a pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BufId {
    /// The n-th function argument.
    Arg(usize),
    /// The n-th intermediate (pipeline-allocated) buffer.
    Tmp(usize),
}

/// Which part of its iteration space an apply step executes.
#[derive(Clone, Debug, PartialEq)]
pub enum ApplyRegion {
    /// The kernel's whole range (the synchronous path).
    Full,
    /// The interior core — independent of halo cells, safe to run while
    /// halo messages are in flight.
    Interior(Bounds),
    /// One boundary shell, labelled with the halo side it depends on
    /// (one-hot direction, e.g. `[0, -1]`).
    Boundary(Vec<i64>, Bounds),
    /// One temporal-blocking phase: phase `j` of a `k`-step block runs
    /// the kernel over the core grown `(k-1-j)·r` toward every
    /// exchanging side (redundant compute on the outer shells).
    Phase(usize, Bounds),
}

impl ApplyRegion {
    /// The executed sub-range (`kernel_range` for [`ApplyRegion::Full`]).
    pub fn bounds<'a>(&'a self, kernel_range: &'a Bounds) -> &'a Bounds {
        match self {
            ApplyRegion::Full => kernel_range,
            ApplyRegion::Interior(b) | ApplyRegion::Boundary(_, b) | ApplyRegion::Phase(_, b) => b,
        }
    }

    /// Grid points this region executes.
    pub fn points(&self, kernel_range: &Bounds) -> i64 {
        self.bounds(kernel_range).num_points()
    }

    /// Human-readable label for `--timing`/step summaries.
    pub fn label(&self) -> String {
        match self {
            ApplyRegion::Full => String::new(),
            ApplyRegion::Interior(_) => "interior ".to_string(),
            ApplyRegion::Boundary(dir, _) => format!("boundary{dir:?} "),
            ApplyRegion::Phase(j, _) => format!("phase{j} "),
        }
    }

    /// `kernel`'s tier and this region's points, e.g.
    /// `template-jit (5 taps, 2 terms; rank 2) [interior 3600 pts]`.
    fn summary(&self, kernel: &SpecializedKernel) -> String {
        format!("{} [{}{} pts]", kernel.tier_label(), self.label(), self.points(&kernel.range))
    }
}

/// One executable step.
// Steps are built once per pipeline and held in a short Vec; the size
// skew from the inline kernel never touches a per-point path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Step {
    /// Run a compiled kernel through its specialized executor tier.
    Apply {
        /// The kernel, specialized at pipeline-build time.
        kernel: SpecializedKernel,
        /// Input buffers (parallel to the kernel's inputs).
        inputs: Vec<BufId>,
        /// Output buffers (parallel to the kernel's outputs).
        outputs: Vec<BufId>,
        /// Which part of the iteration space this step covers.
        region: ApplyRegion,
    },
    /// Launch a halo exchange: pack the outgoing slabs into persistent
    /// per-exchange buffers and post the (buffered, non-blocking) sends.
    SwapBegin {
        /// Index into [`Pipeline::swaps`].
        id: usize,
    },
    /// Complete the exchange launched by the matching
    /// [`Step::SwapBegin`]: receive every neighbour's message (blocking
    /// only on messages still in flight) and unpack the halo slabs.
    SwapWait {
        /// Index into [`Pipeline::swaps`].
        id: usize,
    },
    /// Global reduction: fold the ranged points of the input buffer(s)
    /// into one scalar slot. The local fold is thread-chunked and merged
    /// through an order-invariant accumulator
    /// ([`ReduceAcc`](sten_interp::ReduceAcc): an exact
    /// superaccumulator for `sum`/`dot`, a `total_cmp` lattice for
    /// `min`/`max`), so any chunking — and any rank decomposition, when
    /// `allreduce` exchanges the accumulators — produces bit-identical
    /// results.
    Reduce {
        /// The reduction kind.
        kind: ReduceKind,
        /// Input buffer(s) with their layouts (two for `dot`).
        inputs: Vec<(BufId, InputDesc)>,
        /// Logical range to fold (rank-local after distribution).
        range: Bounds,
        /// Scalar slot receiving the rounded result.
        dst_slot: usize,
        /// Whether to merge accumulators across all ranks (a folded
        /// `dmp.allreduce`; the identity when running single-process).
        allreduce: bool,
    },
    /// Function-level scalar arithmetic over scalar slots:
    /// `slots[dst] = args[0] ⊕ args[1]` (`arith.{addf,subf,mulf,divf}`),
    /// or `-args[0]` (`arith.negf`, `op = None`). A few flops, so it
    /// records no span. Its operands are arguments or (allreduced)
    /// reduction results, identical on every rank, so every rank computes
    /// the same bits and nothing is broadcast.
    Scalar {
        /// The binary operator; `None` negates.
        op: Option<BinOp>,
        /// Operand slots: two for a binary operator, one for `negf`.
        args: Vec<usize>,
        /// Slot receiving the result.
        dst: usize,
    },
    /// Range copy between buffers (non-forwarded stores).
    Copy {
        /// Source buffer.
        src: BufId,
        /// Source layout.
        src_desc: InputDesc,
        /// Destination buffer.
        dst: BufId,
        /// Destination layout.
        dst_desc: InputDesc,
        /// Logical range to copy.
        range: Bounds,
    },
}

impl Step {
    /// The kernel range of an apply step.
    pub(crate) fn kernel_range(&self) -> Option<&Bounds> {
        match self {
            Step::Apply { kernel, .. } => Some(&kernel.range),
            _ => None,
        }
    }
}

/// One `dmp.swap` of a [`Pipeline`]: what its
/// [`Step::SwapBegin`]/[`Step::SwapWait`] pair exchanges, and how the
/// schedule treats it.
#[derive(Clone, Debug)]
pub struct Swap {
    /// The buffer to exchange.
    pub buf: BufId,
    /// Rank topology.
    pub grid: Vec<i64>,
    /// Exchange declarations (buffer coordinates).
    pub exchanges: Vec<ExchangeAttr>,
    /// The `overlap` marker: hide the exchange behind interior compute.
    pub overlap: bool,
    /// Temporal-blocking depth (1 = exchange every step).
    pub depth: i64,
}

impl Swap {
    /// The per-dimension halo widths this swap receives on the low and
    /// high sides of a rank-`dims` buffer ([`sten_dmp::halo_widths`]);
    /// with a `rank`, only the sides where that rank has a neighbour.
    pub(crate) fn halo_widths(
        &self,
        dims: usize,
        rank: Option<i64>,
    ) -> Result<(Vec<i64>, Vec<i64>), String> {
        let Some(rank) = rank else { return sten_dmp::halo_widths(&self.exchanges, dims) };
        let mut live = Vec::with_capacity(self.exchanges.len());
        for e in &self.exchanges {
            if neighbor_rank(rank, &self.grid, &e.to)?.is_some() {
                live.push(e.clone());
            }
        }
        sten_dmp::halo_widths(&live, dims)
    }
}

/// What the slot of an `f64` function argument holds until
/// [`Runner::set_scalar`](crate::Runner::set_scalar) writes it: a
/// signalling NaN whose payload no arithmetic produces. Kept in the slot
/// itself — not beside it — so a [`RankSnapshot`](crate::RankSnapshot)
/// carries "set or not" along with the value, in the same bytes as
/// before, and a restored runner knows as much as the one the snapshot
/// was taken from.
pub(crate) const SCALAR_UNSET: u64 = 0x7ff4_756e_7365_7421;

/// A compiled stencil function.
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// The function the pipeline was compiled from.
    pub name: String,
    /// Number of buffer arguments the caller must provide.
    pub num_args: usize,
    /// Shapes of caller-provided buffers.
    pub arg_shapes: Vec<Vec<i64>>,
    /// Shapes of pipeline-allocated intermediates.
    pub tmp_shapes: Vec<Vec<i64>>,
    /// Steps in program order.
    pub steps: Vec<Step>,
    /// One record per swap (begin/wait pair), indexed by the steps' `id`.
    pub swaps: Vec<Swap>,
    /// Number of scalar slots (runtime `f64` arguments plus reduction
    /// results) the runner must hold.
    pub num_slots: usize,
    /// Slot index of each scalar (`f64`) function argument, in argument
    /// order. Set them per step via
    /// [`Runner::set_scalar`](crate::Runner::set_scalar).
    pub scalar_inputs: Vec<usize>,
    /// Slots returned by `func.return`, in operand order. Read them
    /// after a step via
    /// [`Runner::scalar_outputs`](crate::Runner::scalar_outputs).
    pub scalar_outputs: Vec<usize>,
}

impl Pipeline {
    /// The scalar slots of a runner that has not run yet: reduction
    /// results zero, every `f64` function argument marked "never set".
    pub fn initial_scalar_slots(&self) -> Vec<f64> {
        let mut slots = vec![0.0; self.num_slots];
        for &s in &self.scalar_inputs {
            slots[s] = f64::from_bits(SCALAR_UNSET);
        }
        slots
    }

    /// Total floating-point ops per executed timestep.
    pub fn flops_per_step(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Apply { kernel, region, .. } => {
                    kernel.program.flops as u64 * region.points(&kernel.range) as u64
                }
                // One rounded product per point; the exact accumulation
                // itself is integer limb work.
                Step::Reduce { kind: ReduceKind::Dot, range, .. } => {
                    range.num_points().max(0) as u64
                }
                _ => 0,
            })
            .sum()
    }

    /// Grid points written per timestep (over all applies; a fused apply
    /// with several results writes several points per iteration point).
    pub fn points_per_step(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Apply { kernel, outputs, region, .. } => {
                    region.points(&kernel.range) as u64 * outputs.len().max(1) as u64
                }
                _ => 0,
            })
            .sum()
    }

    /// Number of apply steps (the "stencil regions" count of §6.2; an
    /// overlapped apply contributes one interior plus one step per
    /// boundary shell).
    pub fn num_apply_steps(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, Step::Apply { .. })).count()
    }

    /// Number of reduction steps, and how many of them rendezvous across
    /// ranks — the `--timing` reduction report.
    pub fn num_reduce_steps(&self) -> (usize, usize) {
        let total = self.steps.iter().filter(|s| matches!(s, Step::Reduce { .. })).count();
        let global =
            self.steps.iter().filter(|s| matches!(s, Step::Reduce { allreduce: true, .. })).count();
        (total, global)
    }

    /// Whether any exchange is overlapped with interior computation
    /// (some step separates a begin from its wait, or a deep swap
    /// overlaps its phase-0 exchange).
    pub fn is_overlapped(&self) -> bool {
        if self.swaps.iter().any(|s| s.depth > 1 && s.overlap) {
            return true;
        }
        self.steps.iter().enumerate().any(|(i, s)| match s {
            Step::SwapBegin { id } => !matches!(
                self.steps.get(i + 1),
                Some(Step::SwapWait { id: wid }) if wid == id
            ),
            _ => false,
        })
    }

    /// Elements exchanged per timestep when every neighbour is present.
    pub fn exchanged_elements_per_step(&self) -> u64 {
        self.swaps.iter().flat_map(|s| &s.exchanges).map(|e| e.num_elements() as u64).sum()
    }

    /// Re-specializes every apply kernel (`None` = automatic selection).
    /// Lets benchmarks and tests pin an executor tier per pipeline
    /// without touching the process-wide `STEN_EXEC_TIER` override.
    ///
    /// Region-split steps (one interior + several boundary shells from
    /// an overlapped or deep-halo schedule) all derive from one compiled
    /// apply; they are specialized once and share the resulting tier's
    /// `Arc`'d program, so the short-row boundary path never rebuilds
    /// per-shell state. Keyed by the kernel's debug rendering, which
    /// distinguishes every semantic detail including `-0.0` vs `0.0`
    /// constants (plain f64 equality would conflate them).
    pub fn respecialize(&mut self, tier: Option<TierKind>) {
        let mut cache: HashMap<String, SpecializedKernel> = HashMap::new();
        for step in &mut self.steps {
            if let Step::Apply { kernel, .. } = step {
                let key = format!("{:?}", kernel.kernel);
                let spec = cache
                    .entry(key)
                    .or_insert_with(|| SpecializedKernel::specialize(kernel.kernel.clone(), tier));
                *kernel = spec.clone();
            }
        }
    }

    /// One line per apply step describing the selected executor tier,
    /// e.g. `apply#0: template-jit (5 taps, 2 terms; rank 2) [3844 pts]`;
    /// region-split steps carry their region, e.g. `[interior 3600 pts]`.
    pub fn tier_summary(&self) -> Vec<String> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Apply { kernel, region, .. } => Some(region.summary(kernel)),
                _ => None,
            })
            .enumerate()
            .map(|(i, l)| format!("apply#{i}: {l}"))
            .collect()
    }

    /// One line per step — the full interior/boundary structure of the
    /// pipeline, as reported by `sten-opt --timing`.
    pub fn step_summary(&self) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Apply { kernel, region, .. } => format!("apply {}", region.summary(kernel)),
                Step::SwapBegin { id } => format!(
                    "swap#{id} begin [{} elems, {} exchanges]",
                    self.swaps[*id].exchanges.iter().map(ExchangeAttr::num_elements).sum::<i64>(),
                    self.swaps[*id].exchanges.len()
                ),
                Step::SwapWait { id } => format!("swap#{id} wait"),
                Step::Reduce { kind, range, allreduce, .. } => format!(
                    "reduce {} [{} pts{}]",
                    kind.name(),
                    range.num_points(),
                    if *allreduce { ", allreduce" } else { "" }
                ),
                Step::Scalar { op, .. } => format!("scalar {}", op.map_or("negf", BinOp::name)),
                Step::Copy { range, .. } => format!("copy [{} pts]", range.num_points()),
            })
            .collect()
    }

    /// Temporal-blocking report for `sten-opt --timing`: the chosen
    /// depth, message count per block (vs. the every-step schedule), and
    /// the redundant-compute points the deep block pays for them. Counts
    /// assume every neighbour is present (interior ranks); boundary
    /// ranks skip the clamped sides. Empty when the pipeline exchanges
    /// every step.
    pub fn temporal_summary(&self) -> Vec<String> {
        let Some(swap) = self.swaps.iter().find(|s| s.depth > 1) else { return Vec::new() };
        let Some(core) = self.steps.iter().find_map(Step::kernel_range) else { return Vec::new() };
        let Ok((lo, hi)) = swap.halo_widths(core.rank(), None) else { return Vec::new() };
        let depth = swap.depth;
        let per_step = |w: Vec<i64>| w.into_iter().map(|w| w / depth).collect::<Vec<_>>();
        let regions = sten_dmp::deep_phase_regions(core, &per_step(lo), &per_step(hi), depth);
        let redundant: i64 =
            regions.iter().map(|r| (r.num_points() - core.num_points()).max(0)).sum();
        let msgs = swap.exchanges.len();
        let elems: i64 = swap.exchanges.iter().map(ExchangeAttr::num_elements).sum();
        let (core_pts, every_step) = (core.num_points(), msgs * depth as usize);
        let share = 100.0 * redundant as f64 / (core_pts.max(1) * depth) as f64;
        vec![format!(
            "temporal blocking: depth={depth}, {msgs} msgs/block ({every_step} at depth=1, same \
             {elems} elems), redundant compute {redundant} pts/block ({share:.2}% of {core_pts} \
             core pts)"
        )]
    }
}
