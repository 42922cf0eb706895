//! Compiling whole stencil functions into executable pipelines.
//!
//! A stencil-level function (after shape inference, optionally after
//! distribution) has the shape `loads* (applies | swaps)* stores*`; this
//! module compiles it into a [`Pipeline`] of [`Step`]s and executes
//! timesteps through a [`Runner`] — serially, with thread parallelism, or
//! SPMD-distributed over SimMPI.
//!
//! **Overlapped halo exchange.** Every `dmp.swap` compiles into one
//! [`Swap`] record and a [`Step::SwapBegin`]/[`Step::SwapWait`] pair,
//! which the runner executes through the one exchange protocol of
//! `exchange.rs` (sequence-numbered frames, persistent pack buffers).
//! On the synchronous path the pair is adjacent (pack + send, then
//! receive + unpack). When the swap is marked `overlap`
//! (`distribute-stencil{overlap=true}`) and the apply reading the
//! exchanged buffer can be split, the pipeline instead runs
//!
//! ```text
//! SwapBegin            pack + buffered sends
//! Apply(Interior)      on the worker pool, messages in flight
//! SwapWait             receive + unpack the halos
//! Apply(Boundary(dir)) one step per halo shell
//! ```
//!
//! with the interior/shell geometry from [`sten_dmp::HaloRegionSplit`] —
//! the same analysis the `dmp → mpi` lowering uses — so results stay
//! bit-for-bit identical to the synchronous path on every strategy and
//! executor tier (enforced by `tests/halo_overlap.rs`).
//!
//! **Temporal blocking.** A swap carrying `depth=k`
//! (`distribute-stencil{depth=k}`) exchanges a width-`k·r` halo once per
//! `k`-step block. The pipeline records the block shape in
//! [`TemporalBlock`]; the [`Runner`] expands it into a per-phase step
//! schedule on first distributed step (the growth is clamped per side to
//! directions with a live neighbour, which depends on the rank): phase 0
//! performs the deep exchange and computes the core grown by `(k-1)·r`
//! toward every exchanging side, and phases `1..k` run exchange-free on
//! progressively shrinking regions ([`sten_dmp::deep_phase_regions`]) —
//! redundant computation on the outer shells buys `k×` fewer messages at
//! the same total volume.

use crate::exchange::Exchange;
use crate::pool::{Job, WorkerPool};
use crate::program::{
    compile_apply, rematerialize_outs, split_longest_dim, BinOp, ExecScratch, InputDesc, SendPtr,
};
use crate::resilient::RankSnapshot;
use crate::specialize::{SpecializedKernel, TierKind};
use std::collections::HashMap;
use std::sync::Arc;
use sten_interp::{FaultAction, MpiError, RankPanic, ReduceAcc, ReduceKind, SimWorld};
use sten_ir::{Attribute, Bounds, ExchangeAttr, Module, Type, Value};
use sten_trace::{Counter, SpanKind, TraceLane, Tracer};

/// A structured executor failure. Distributed steps surface one instead
/// of panicking or hanging: communication failures carry the SimMPI
/// diagnosis, retry-budget exhaustion names the swap and neighbour, and
/// an injected crash identifies the rank and step (the resilient driver
/// keys recovery on these).
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The communication substrate failed (poison, timeout, protocol
    /// violation).
    Mpi(MpiError),
    /// A halo exchange on a world with a `Reliability` exhausted its
    /// retry budget.
    SwapTimeout {
        /// The waiting rank.
        rank: i64,
        /// Swap id within the pipeline.
        swap: usize,
        /// The neighbour whose halo never arrived.
        neighbor: i64,
        /// The expected message tag.
        tag: i32,
        /// Retries attempted (each with doubled timeout).
        attempts: u32,
        /// Total time waited across attempts, milliseconds.
        waited_ms: u64,
    },
    /// A scheduled rank crash fired on this rank at this step.
    InjectedCrash {
        /// The crashed rank.
        rank: i64,
        /// The timestep it crashed at.
        step: u64,
    },
    /// Any other executor failure (shape mismatches, unsupported
    /// structure) — the legacy string diagnostics.
    Exec(String),
    /// A rank's thread panicked (reported by the SPMD launcher).
    Panicked(RankPanic),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Mpi(e) => write!(f, "{e}"),
            ExecError::SwapTimeout { rank, swap, neighbor, tag, attempts, waited_ms } => write!(
                f,
                "rank {rank}: swap#{swap} halo from rank {neighbor} (tag {tag}) still missing \
                 after {attempts} retries ({waited_ms} ms)"
            ),
            ExecError::InjectedCrash { rank, step } => {
                write!(f, "rank {rank}: injected crash at step {step}")
            }
            ExecError::Exec(msg) => f.write_str(msg),
            ExecError::Panicked(p) => write!(f, "{p}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MpiError> for ExecError {
    fn from(e: MpiError) -> ExecError {
        ExecError::Mpi(e)
    }
}

impl From<RankPanic> for ExecError {
    fn from(p: RankPanic) -> ExecError {
        ExecError::Panicked(p)
    }
}

impl From<String> for ExecError {
    fn from(msg: String) -> ExecError {
        ExecError::Exec(msg)
    }
}

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
    /// through an order-invariant accumulator ([`ReduceAcc`]: an exact
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

/// Temporal-blocking metadata attached to a [`Pipeline`] whose single
/// swap carries `depth=k`: one deep exchange feeds a block of `k`
/// timesteps. The base `steps` keep the synchronous wide-exchange
/// schedule (correct at every step, used when no schedule can be built);
/// the [`Runner`] expands this into the per-phase schedule.
#[derive(Clone, Debug)]
pub struct TemporalBlock {
    /// Steps per exchange block (`k >= 2`).
    pub depth: i64,
    /// Per-dimension *per-step* halo read widths on the low/high sides
    /// (the swap's exchange widths divided by `depth`).
    pub lo: Vec<i64>,
    pub hi: Vec<i64>,
    /// Whether phase 0 overlaps the deep exchange with interior compute
    /// (the swap's `overlap` marker).
    pub overlap: bool,
}

/// What the slot of an `f64` function argument holds until
/// [`Runner::set_scalar`] writes it: a signalling NaN whose payload no
/// arithmetic produces. Kept in the slot itself — not beside it — so
/// a [`RankSnapshot`] carries "set or not" along with the value, in the
/// same bytes as before, and a restored runner knows as much as the one
/// the snapshot was taken from.
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
    /// order. Set them per step via [`Runner::set_scalar`].
    pub scalar_inputs: Vec<usize>,
    /// Slots returned by `func.return`, in operand order. Read them
    /// after a step via [`Runner::scalar_outputs`].
    pub scalar_outputs: Vec<usize>,
    /// Temporal-blocking block shape, when the function matches the
    /// deep-halo pattern (`None` = exchange every step).
    pub temporal: Option<TemporalBlock>,
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
    /// (some step separates a begin from its wait, or a temporal block
    /// overlaps its phase-0 deep exchange).
    pub fn is_overlapped(&self) -> bool {
        if self.temporal.as_ref().is_some_and(|t| t.overlap) {
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
                Step::Apply { kernel, region, .. } => Some(format!(
                    "{} [{}{} pts]",
                    kernel.tier_label(),
                    region.label(),
                    region.points(&kernel.range)
                )),
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
                Step::Apply { kernel, region, .. } => format!(
                    "apply {} [{}{} pts]",
                    kernel.tier_label(),
                    region.label(),
                    region.points(&kernel.range)
                ),
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
        let Some(tb) = &self.temporal else { return Vec::new() };
        let exchanges = self.swaps.first().map(|s| &s.exchanges);
        let core = self.steps.iter().find_map(|s| match s {
            Step::Apply { kernel, .. } => Some(&kernel.range),
            _ => None,
        });
        let (Some(exchanges), Some(core)) = (exchanges, core) else { return Vec::new() };
        let regions = sten_dmp::deep_phase_regions(core, &tb.lo, &tb.hi, tb.depth);
        let redundant: i64 =
            regions.iter().map(|r| (r.num_points() - core.num_points()).max(0)).sum();
        let msgs = exchanges.len();
        let elems: i64 = exchanges.iter().map(ExchangeAttr::num_elements).sum();
        vec![format!(
            "temporal blocking: depth={}, {} msgs/block ({} at depth=1, same {} elems), \
             redundant compute {} pts/block ({:.2}% of {} core pts)",
            tb.depth,
            msgs,
            msgs * tb.depth as usize,
            elems,
            redundant,
            100.0 * redundant as f64 / (core.num_points().max(1) * tb.depth) as f64,
            core.num_points()
        )]
    }
}

/// Executes a [`Pipeline`].
///
/// A runner owns a persistent [`WorkerPool`] (when `threads > 1`):
/// workers are spawned once and reused across every apply of every
/// timestep, each holding a long-lived [`ExecScratch`], instead of the
/// seed's `thread::scope` spawn-per-apply. Swap steps likewise reuse
/// persistent per-exchange message buffers.
pub struct Runner {
    /// The compiled pipeline.
    pub pipeline: Pipeline,
    /// Worker threads for apply steps (1 = serial).
    pub threads: usize,
    tmps: Vec<Vec<f64>>,
    pool: Option<WorkerPool>,
    scratch: ExecScratch,
    /// Scalar slots: runtime `f64` arguments (set via
    /// [`Runner::set_scalar`]) and reduction results, persisted across
    /// steps so later steps (and the caller) can read them.
    scalar_slots: Vec<f64>,
    exchange: Exchange,
    copy_scratch: Vec<f64>,
    /// Per-phase step schedules for temporal blocking, built lazily on
    /// the first distributed step: the phase-region growth is clamped
    /// per side to directions with a live neighbour, which depends on
    /// the rank this runner executes as.
    phase_schedule: Option<Vec<Vec<Step>>>,
    /// Main-thread recording lane (disabled unless
    /// [`Runner::with_trace`] attached a sink).
    lane: TraceLane,
    tracer: Tracer,
    /// Timesteps executed so far (the trace's timestep index).
    timestep: u64,
}

impl Runner {
    /// Creates a runner, allocating the intermediates and (for
    /// `threads > 1`) spawning the worker pool.
    pub fn new(pipeline: Pipeline, threads: usize) -> Runner {
        let tmps = pipeline
            .tmp_shapes
            .iter()
            .map(|s| vec![0.0; s.iter().product::<i64>().max(0) as usize])
            .collect();
        let pool = (threads > 1).then(|| WorkerPool::new(threads));
        let exchange = Exchange::new(pipeline.swaps.len());
        let scalar_slots = pipeline.initial_scalar_slots();
        Runner {
            pipeline,
            threads,
            tmps,
            pool,
            scratch: ExecScratch::new(),
            scalar_slots,
            exchange,
            copy_scratch: Vec::new(),
            phase_schedule: None,
            lane: TraceLane::disabled(),
            tracer: Tracer::disabled(),
            timestep: 0,
        }
    }

    /// Attaches a trace sink: every subsequent step records one span per
    /// executed [`Step`] (tagged with tier, region, and payload bytes)
    /// plus one enclosing timestep span, on process track `pid` (the
    /// rank). Worker-pool jobs record task spans on per-worker lanes.
    /// Tracing never changes what executes — outputs stay bit-identical
    /// (enforced by `tests/trace_identity.rs`). A disabled sink leaves
    /// the runner as it is (no worker pool is rebuilt for it).
    #[must_use]
    pub fn with_trace(mut self, tracer: &Tracer, pid: u32) -> Runner {
        if !tracer.is_enabled() {
            return self;
        }
        self.lane = tracer.lane(pid, 0);
        self.tracer = tracer.clone();
        if self.threads > 1 {
            self.pool = Some(WorkerPool::new_traced(self.threads, tracer, pid));
        }
        self
    }

    /// The executor-tier lines of the underlying pipeline.
    pub fn tier_summary(&self) -> Vec<String> {
        self.pipeline.tier_summary()
    }

    /// The number of OS threads that actually execute apply steps: the
    /// worker-pool size when one was spawned, otherwise 1 (the runner
    /// itself, serially). `threads <= 1` requests never spawn a pool, so
    /// this can differ from the `threads` constructor argument — report
    /// this, not the request, in benchmarks.
    pub fn effective_threads(&self) -> usize {
        self.pool.as_ref().map(|p| p.threads()).unwrap_or(1)
    }

    /// Sets the `i`-th scalar (`f64`) function argument for subsequent
    /// steps (CG's α/β change every iteration). Stepping before every
    /// scalar argument has been set is an error.
    ///
    /// # Panics
    /// Panics if the pipeline has fewer scalar arguments.
    pub fn set_scalar(&mut self, i: usize, v: f64) {
        let slot = self.pipeline.scalar_inputs[i];
        self.scalar_slots[slot] = v;
    }

    /// The scalars `func.return` produced on the most recent step, in
    /// operand order (reduction results such as a residual norm).
    pub fn scalar_outputs(&self) -> Vec<f64> {
        self.pipeline.scalar_outputs.iter().map(|&s| self.scalar_slots[s]).collect()
    }

    /// Runs one timestep on single-process data.
    ///
    /// # Errors
    /// Reports swap steps (they need a world) and shape mismatches.
    ///
    /// # Panics
    /// Panics if `args` count differs from the pipeline's `num_args`.
    pub fn step(&mut self, args: &mut [Vec<f64>]) -> Result<(), String> {
        self.step_inner(args, None, 0).map_err(|e| e.to_string())
    }

    /// Runs one timestep as `rank` of a SimMPI world.
    ///
    /// # Errors
    /// Reports shape mismatches and communication failures.
    pub fn step_distributed(
        &mut self,
        args: &mut [Vec<f64>],
        world: &Arc<SimWorld>,
        rank: i64,
    ) -> Result<(), String> {
        self.step_inner(args, Some(world), rank).map_err(|e| e.to_string())
    }

    /// [`Runner::step_distributed`] with the structured error, plus
    /// failure propagation: any error other than an incoming poison
    /// poisons the world, so peers blocked in receives or collective
    /// rendezvous wake with [`MpiError::Poisoned`] instead of hanging on
    /// the failed rank.
    ///
    /// # Errors
    /// Reports shape mismatches, communication failures, exhausted retry
    /// budgets, and injected crashes as a typed [`ExecError`].
    pub fn step_distributed_checked(
        &mut self,
        args: &mut [Vec<f64>],
        world: &Arc<SimWorld>,
        rank: i64,
    ) -> Result<(), ExecError> {
        let result = self.step_inner(args, Some(world), rank);
        if let Err(e) = &result {
            if !matches!(e, ExecError::Mpi(MpiError::Poisoned { .. })) {
                world.poison(rank as i32, e.to_string());
            }
        }
        result
    }

    /// Captures this rank's restartable state (timestep, field args,
    /// scalar slots) as a [`RankSnapshot`], digested in place so
    /// identical states share one content address.
    pub fn snapshot(&self, args: &[Vec<f64>]) -> RankSnapshot {
        self.snapshot_into(args, Vec::new())
    }

    /// [`Runner::snapshot`] into recycled buffers: each argument is
    /// copied into one of `bufs` (a new one once they run out), so a
    /// deposit writes into warm pages instead of fresh ones.
    pub fn snapshot_into(&self, args: &[Vec<f64>], mut bufs: Vec<Vec<f64>>) -> RankSnapshot {
        let copies = args
            .iter()
            .map(|a| {
                let mut buf = bufs.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(a);
                buf
            })
            .collect();
        RankSnapshot::new(self.timestep, copies, self.scalar_slots.clone())
    }

    /// Rolls this rank back to `snap`: overwrites `args` and the scalar
    /// slots, and rewinds the timestep counter (so temporal-blocking
    /// phase alignment and trace indices resume consistently).
    ///
    /// # Panics
    /// Panics if the snapshot's shape disagrees with the pipeline's.
    pub fn restore(&mut self, args: &mut [Vec<f64>], snap: &RankSnapshot) {
        assert_eq!(args.len(), snap.args.len(), "snapshot argument count mismatch");
        for (a, s) in args.iter_mut().zip(&snap.args) {
            assert_eq!(a.len(), s.len(), "snapshot argument shape mismatch");
            a.clone_from(s);
        }
        self.scalar_slots.clone_from(&snap.scalar_slots);
        self.timestep = snap.step;
        // A restore accompanies a fresh world (rollback discards all
        // in-flight messages); the exchange state restarts with it.
        self.exchange.reset();
    }

    fn step_inner(
        &mut self,
        args: &mut [Vec<f64>],
        world: Option<&Arc<SimWorld>>,
        rank: i64,
    ) -> Result<(), ExecError> {
        assert_eq!(args.len(), self.pipeline.num_args, "argument count mismatch");
        let unset = |&s: &usize| self.scalar_slots[s].to_bits() == SCALAR_UNSET;
        if let Some(i) = self.pipeline.scalar_inputs.iter().position(unset) {
            return Err(ExecError::Exec(format!(
                "scalar argument {i} of @{} was never set",
                self.pipeline.name
            )));
        }
        let index = self.timestep;
        self.timestep += 1;
        if let Some(world) = world {
            if let Some(action) = world.fault_plan().and_then(|p| p.on_step(rank as i32, index)) {
                let tracer = world.tracer();
                tracer.count(Counter::FaultsInjected, 1);
                tracer.record_instant(rank.max(0) as u32, 0, || SpanKind::Fault {
                    fault: action.name(),
                    rank: rank as i32,
                    detail: format!("step {index}"),
                });
                match action {
                    FaultAction::RankStall { for_ms } => {
                        std::thread::sleep(std::time::Duration::from_millis(for_ms));
                    }
                    FaultAction::RankCrash => {
                        return Err(ExecError::InjectedCrash { rank, step: index });
                    }
                    _ => {}
                }
            }
        }
        if self.pipeline.temporal.is_some() && self.phase_schedule.is_none() && world.is_some() {
            self.phase_schedule = Some(build_phase_schedule(&self.pipeline, rank)?);
        }
        let pipeline = &self.pipeline;
        let tmps = &mut self.tmps;
        let pool = &mut self.pool;
        let scratch = &mut self.scratch;
        let scalar_slots = &mut self.scalar_slots;
        let exchange = &mut self.exchange;
        let copy_scratch = &mut self.copy_scratch;
        let lane = &mut self.lane;
        let steps: &[Step] = match &self.phase_schedule {
            Some(sched) => &sched[(index % sched.len() as u64) as usize],
            None => &pipeline.steps,
        };
        let t_step = lane.start();
        // Steps are executed in order; buffers are disjoint Vec<f64>s.
        for step in steps {
            let t0 = lane.start();
            match step {
                Step::Apply { kernel, inputs, outputs, region } => {
                    // Collect raw pointers to sidestep simultaneous
                    // &/&mut borrows of the args/tmps arrays; inputs and
                    // outputs never alias (value semantics: applies read
                    // source buffers and write freshly produced ones).
                    let input_slices: Vec<&[f64]> = inputs
                        .iter()
                        .map(|&b| match b {
                            BufId::Arg(i) => unsafe {
                                std::slice::from_raw_parts(args[i].as_ptr(), args[i].len())
                            },
                            BufId::Tmp(i) => unsafe {
                                std::slice::from_raw_parts(tmps[i].as_ptr(), tmps[i].len())
                            },
                        })
                        .collect();
                    let mut out_slices: Vec<&mut [f64]> = outputs
                        .iter()
                        .map(|&b| match b {
                            BufId::Arg(i) => unsafe {
                                std::slice::from_raw_parts_mut(
                                    args[i].as_ptr() as *mut f64,
                                    args[i].len(),
                                )
                            },
                            BufId::Tmp(i) => unsafe {
                                std::slice::from_raw_parts_mut(
                                    tmps[i].as_ptr() as *mut f64,
                                    tmps[i].len(),
                                )
                            },
                        })
                        .collect();
                    let range = region.bounds(&kernel.range);
                    let kernel_scalars: Vec<f64> =
                        kernel.scalar_args.iter().map(|&s| scalar_slots[s]).collect();
                    run_apply(
                        kernel,
                        range,
                        &kernel_scalars,
                        &input_slices,
                        &mut out_slices,
                        pool.as_mut(),
                        scratch,
                    );
                }
                Step::Reduce { kind, inputs, range, dst_slot, allreduce } => {
                    let input_slices: Vec<(&[f64], &InputDesc)> = inputs
                        .iter()
                        .map(|(b, desc)| {
                            let data: &[f64] = match *b {
                                BufId::Arg(i) => &args[i],
                                BufId::Tmp(i) => &tmps[i],
                            };
                            (data, desc)
                        })
                        .collect();
                    let t_partial = lane.start();
                    let Folded { mut acc, chunks, escaped } =
                        run_reduce(*kind, &input_slices, range, pool.as_mut());
                    lane.span(t_partial, || SpanKind::Reduce {
                        phase: "partial",
                        bytes: 8 * range.num_points().max(0) as u64,
                        parts: chunks as u32,
                        escaped,
                    });
                    if *allreduce {
                        if let Some(world) = world {
                            // Exchange accumulator wire payloads with every
                            // rank and merge in ascending rank order. The
                            // merge is order-invariant (exact sum, lattice
                            // min/max), so the result is identical on every
                            // rank and to any other decomposition.
                            let t_wait = lane.start();
                            let wire = acc.to_wire();
                            let bytes = 8 * wire.len() as u64;
                            let parts = world.exchange_all(rank as usize, wire)?;
                            let nparts = parts.len();
                            let mut merged = ReduceAcc::new(*kind);
                            for part in &parts {
                                merged.merge(ReduceAcc::from_wire(*kind, part)?);
                            }
                            acc = merged;
                            lane.span(t_wait, || SpanKind::Reduce {
                                phase: "allreduce",
                                bytes,
                                parts: nparts as u32,
                                escaped: 0,
                            });
                        }
                        // Single-process execution: the allreduce is the
                        // identity (one rank owns the whole domain).
                    }
                    scalar_slots[*dst_slot] = acc.finish();
                }
                Step::Scalar { op, args, dst } => {
                    let arg = |i: usize| scalar_slots[args[i]];
                    scalar_slots[*dst] = op.map_or_else(|| -arg(0), |op| op.eval(arg(0), arg(1)));
                }
                Step::SwapBegin { id } | Step::SwapWait { id } => {
                    let Some(world) = world else {
                        return Err(ExecError::Exec(
                            "pipeline contains dmp.swap steps — use step_distributed".into(),
                        ));
                    };
                    let swap = &pipeline.swaps[*id];
                    let (shape, data) = match swap.buf {
                        BufId::Arg(i) => (&pipeline.arg_shapes[i], &mut args[i]),
                        BufId::Tmp(i) => (&pipeline.tmp_shapes[i], &mut tmps[i]),
                    };
                    match step {
                        Step::SwapBegin { .. } => {
                            exchange.begin(world, rank, *id, swap, shape, data, lane)?
                        }
                        _ => exchange.wait(world, rank, *id, swap, shape, data, lane)?,
                    }
                }
                Step::Copy { src, src_desc, dst, dst_desc, range } if range.num_points() > 0 => {
                    if src == dst {
                        // Self-copy with potentially overlapping layouts:
                        // stage only the ranged elements (not the whole
                        // buffer) through the persistent scratch.
                        let data: &mut [f64] = match *src {
                            BufId::Arg(i) => &mut args[i],
                            BufId::Tmp(i) => &mut tmps[i],
                        };
                        copy_scratch.clear();
                        for_each_row(range, |p, len| {
                            let s = src_desc.flat(p) as usize;
                            copy_scratch.extend_from_slice(&data[s..s + len]);
                        });
                        let mut at = 0usize;
                        for_each_row(range, |p, len| {
                            let d = dst_desc.flat(p) as usize;
                            data[d..d + len].copy_from_slice(&copy_scratch[at..at + len]);
                            at += len;
                        });
                    } else {
                        // Distinct buffers never alias: copy row-by-row
                        // without cloning anything.
                        let src_data: &[f64] = match *src {
                            BufId::Arg(i) => unsafe {
                                std::slice::from_raw_parts(args[i].as_ptr(), args[i].len())
                            },
                            BufId::Tmp(i) => unsafe {
                                std::slice::from_raw_parts(tmps[i].as_ptr(), tmps[i].len())
                            },
                        };
                        let dst_data: &mut [f64] = match *dst {
                            BufId::Arg(i) => &mut args[i],
                            BufId::Tmp(i) => &mut tmps[i],
                        };
                        for_each_row(range, |p, len| {
                            let s = src_desc.flat(p) as usize;
                            let d = dst_desc.flat(p) as usize;
                            dst_data[d..d + len].copy_from_slice(&src_data[s..s + len]);
                        });
                    }
                }
                // Empty copies execute nothing (but still trace below,
                // keeping one span per step).
                Step::Copy { .. } => {}
            }
            match step {
                // Reduce steps record their own per-phase spans above
                // (partial fold, allreduce rendezvous); scalar steps none.
                Step::Reduce { .. } | Step::Scalar { .. } => {}
                _ => lane.span(t0, || match step {
                    Step::Apply { kernel, region, .. } => SpanKind::Apply {
                        tier: kernel.tier_kind().name(),
                        region: region.label().trim_end().to_string(),
                        points: region.points(&kernel.range),
                    },
                    Step::SwapBegin { id } => SpanKind::SwapBegin {
                        swap: *id,
                        bytes: 8 * pipeline.swaps[*id]
                            .exchanges
                            .iter()
                            .map(|e| e.num_elements().max(0) as u64)
                            .sum::<u64>(),
                    },
                    Step::SwapWait { id } => SpanKind::SwapWait { swap: *id },
                    Step::Copy { range, .. } => SpanKind::Copy { points: range.num_points() },
                    Step::Reduce { .. } | Step::Scalar { .. } => unreachable!(),
                }),
            }
        }
        lane.span(t_step, || SpanKind::Timestep { index });
        lane.flush();
        Ok(())
    }
}

/// Drives `row(point, len)` over every stride-1 row of `range` (the
/// row-start coordinate and the contiguous row length). Both buffers of a
/// [`Step::Copy`] are row-major with unit stride in the last dimension,
/// so ranged copies move whole rows at a time.
pub(crate) fn for_each_row(range: &Bounds, mut row: impl FnMut(&[i64], usize)) {
    let rank = range.rank();
    if rank == 0 || range.num_points() <= 0 {
        return;
    }
    let last = rank - 1;
    let len = (range.0[last].1 - range.0[last].0) as usize;
    let mut p = range.lower();
    loop {
        row(&p, len);
        let mut d = last;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            p[d] += 1;
            if p[d] < range.0[d].1 {
                break;
            }
            p[d] = range.0[d].0;
        }
    }
}

/// Executes one apply step over `range` (the step's region — the full
/// kernel range, the interior core, or one boundary shell): serially
/// (reusing the runner's scratch) when there is no pool, else chunked
/// over the longest dimension onto the persistent workers.
fn run_apply(
    kernel: &SpecializedKernel,
    range: &Bounds,
    scalars: &[f64],
    inputs: &[&[f64]],
    outs: &mut [&mut [f64]],
    pool: Option<&mut WorkerPool>,
    scratch: &mut ExecScratch,
) {
    let set_scalars = |sc: &mut ExecScratch| {
        sc.scalars.clear();
        sc.scalars.extend_from_slice(scalars);
    };
    let Some(pool) = pool else {
        set_scalars(scratch);
        kernel.execute_rows(inputs, outs, range, scratch);
        return;
    };
    let subs = split_longest_dim(range, pool.threads());
    if subs.len() <= 1 {
        set_scalars(scratch);
        kernel.execute_rows(inputs, outs, range, scratch);
        return;
    }
    let out_ptrs: Vec<SendPtr> =
        outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr(), o.len())).collect();
    let out_ptrs = &out_ptrs;
    let jobs: Vec<Job> = subs
        .into_iter()
        .map(|sub| {
            Box::new(move |scratch: &mut ExecScratch| {
                // SAFETY: the chunks are disjoint slabs of one dimension
                // and each point writes only its own output cells;
                // `WorkerPool::run` joins every job before returning.
                let mut outs = unsafe { rematerialize_outs(out_ptrs) };
                set_scalars(scratch);
                kernel.execute_rows(inputs, &mut outs, &sub, scratch);
            }) as Job
        })
        .collect();
    pool.run(jobs);
}

/// One fold's result: the accumulator, the chunks it was folded in, and
/// the blocks that left the exact sum's vector stage for its per-point
/// path ([`sten_interp::ExactSum::extend`]).
struct Folded {
    acc: ReduceAcc,
    chunks: usize,
    escaped: u32,
}

/// Folds the ranged points of `inputs` into one [`ReduceAcc`]: serially,
/// or chunked over the longest dimension onto the worker pool, with the
/// per-chunk partials merged in chunk order. Every accumulator operation
/// is order-invariant, so the chunking never changes the result bits.
fn run_reduce(
    kind: ReduceKind,
    inputs: &[(&[f64], &InputDesc)],
    range: &Bounds,
    pool: Option<&mut WorkerPool>,
) -> Folded {
    let serial = || {
        let (acc, escaped) = reduce_partial(kind, inputs, range);
        Folded { acc, chunks: 1, escaped }
    };
    let Some(pool) = pool else {
        return serial();
    };
    let subs = split_longest_dim(range, pool.threads());
    if subs.len() <= 1 {
        return serial();
    }
    // One slot per chunk, each borrowed by exactly one job.
    let mut partials = vec![(ReduceAcc::new(kind), 0); subs.len()];
    let jobs: Vec<Job> = subs
        .into_iter()
        .zip(&mut partials)
        .map(|(sub, slot)| {
            Box::new(move |_: &mut ExecScratch| *slot = reduce_partial(kind, inputs, &sub)) as Job
        })
        .collect();
    pool.run(jobs);
    let mut folded = Folded { acc: ReduceAcc::new(kind), chunks: partials.len(), escaped: 0 };
    for (partial, escaped) in partials {
        folded.acc.merge(partial);
        folded.escaped += escaped;
    }
    folded
}

/// The serial fold of one chunk, row-major over stride-1 rows: sums and
/// dots hand each row to the exact sum's block fold (for `dot`, the
/// per-point product is rounded once before accumulation — the
/// deterministic part — and the accumulation itself is exact); min/max
/// fold point by point. Returns the partial and the escaped blocks.
fn reduce_partial(
    kind: ReduceKind,
    inputs: &[(&[f64], &InputDesc)],
    range: &Bounds,
) -> (ReduceAcc, u32) {
    let mut acc = ReduceAcc::new(kind);
    let mut escaped = 0;
    let (a, da) = inputs[0];
    match (&mut acc, kind) {
        (ReduceAcc::Exact(sum), ReduceKind::Dot) => {
            let (b, db) = inputs[1];
            for_each_row(range, |p, len| {
                let (fa, fb) = (da.flat(p) as usize, db.flat(p) as usize);
                escaped += sum.extend_products(&a[fa..fa + len], &b[fb..fb + len]);
            });
        }
        (ReduceAcc::Exact(sum), _) => for_each_row(range, |p, len| {
            let fa = da.flat(p) as usize;
            escaped += sum.extend(&a[fa..fa + len]);
        }),
        (lattice, _) => for_each_row(range, |p, len| {
            let fa = da.flat(p) as usize;
            a[fa..fa + len].iter().for_each(|&x| lattice.add(x));
        }),
    }
    (acc, escaped)
}

/// Compiles the function `func` of a shape-inferred stencil-level module
/// into a [`Pipeline`], specializing every apply kernel into its
/// executor tier (honouring the `STEN_EXEC_TIER` override).
///
/// # Errors
/// Reports unsupported structure (time loops must be driven by the
/// caller; apply bodies must be compilable — see
/// [`crate::program::compile_apply`]).
pub fn compile_module(module: &Module, func: &str) -> Result<Pipeline, String> {
    compile_module_tiered(module, func, TierKind::from_env())
}

/// Like [`compile_module`] with an explicit tier pin (`None` = auto).
pub fn compile_module_tiered(
    module: &Module,
    func: &str,
    tier: Option<TierKind>,
) -> Result<Pipeline, String> {
    let f = module.lookup_symbol(func).ok_or_else(|| format!("no function '{func}'"))?;
    let block = f.region_block(0);

    // Buffer table: value -> (BufId, layout). Scalar (f64) arguments and
    // reduction results live in scalar slots instead.
    let mut bufs: HashMap<Value, (BufId, InputDesc)> = HashMap::new();
    let mut arg_shapes = Vec::new();
    let mut scalar_slots: HashMap<Value, usize> = HashMap::new();
    let mut scalar_inputs: Vec<usize> = Vec::new();
    let mut num_slots = 0usize;
    for &arg in block.args.iter() {
        match module.values.ty(arg) {
            Type::Field(fld) => {
                let desc = InputDesc::new(fld.bounds.shape(), fld.bounds.lower());
                arg_shapes.push(desc.shape.clone());
                bufs.insert(arg, (BufId::Arg(arg_shapes.len() - 1), desc));
            }
            Type::F64 => {
                scalar_slots.insert(arg, num_slots);
                scalar_inputs.push(num_slots);
                num_slots += 1;
            }
            other => return Err(format!("unsupported argument type {other:?}")),
        }
    }
    let num_args = arg_shapes.len();

    // Which apply results are store-forwarded.
    let counts = module.op.use_counts();
    let mut forwarded: HashMap<Value, Value> = HashMap::new();
    for op in &block.ops {
        if op.name == "stencil.store" {
            let temp = op.operand(0);
            if counts.get(&temp).copied().unwrap_or(0) == 1 {
                if let Type::Temp(t) = module.values.ty(temp) {
                    if let Some(b) = &t.bounds {
                        if *b == sten_stencil::ops::StoreOp(op).range() {
                            forwarded.insert(temp, op.operand(1));
                        }
                    }
                }
            }
        }
    }

    let mut tmp_shapes: Vec<Vec<i64>> = Vec::new();
    let mut steps = Vec::new();
    let mut scalar_consts: HashMap<Value, f64> = HashMap::new();
    let mut scalar_outputs: Vec<usize> = Vec::new();
    let mut swaps: Vec<Swap> = Vec::new();

    for op in &block.ops {
        match op.name.as_str() {
            "arith.constant" => {
                if let Some(v) = op.attr("value").and_then(Attribute::as_f64) {
                    scalar_consts.insert(op.result(0), v);
                }
            }
            "stencil.load" | "stencil.buffer" => {
                let parent = bufs.get(&op.operand(0)).cloned().ok_or("load from unknown buffer")?;
                bufs.insert(op.result(0), parent);
            }
            "stencil.cast" => {
                let (id, _) = bufs.get(&op.operand(0)).cloned().ok_or("cast of unknown")?;
                let Type::Field(fld) = module.values.ty(op.result(0)) else {
                    return Err("cast to non-field".into());
                };
                bufs.insert(
                    op.result(0),
                    (id, InputDesc::new(fld.bounds.shape(), fld.bounds.lower())),
                );
            }
            "dmp.swap" => {
                let (buf, _desc) = bufs.get(&op.operand(0)).cloned().ok_or("swap of unknown")?;
                let grid = op
                    .attr("grid")
                    .and_then(Attribute::as_grid)
                    .ok_or("swap without grid")?
                    .to_vec();
                let exchanges: Vec<ExchangeAttr> = op
                    .attr("swaps")
                    .and_then(Attribute::as_array)
                    .map(|a| a.iter().filter_map(Attribute::as_exchange).cloned().collect())
                    .unwrap_or_default();
                let id = swaps.len();
                swaps.push(Swap {
                    buf,
                    grid,
                    exchanges,
                    overlap: op.attr("overlap").is_some(),
                    depth: sten_dmp::ops::SwapOp(op).depth(),
                });
                steps.push(Step::SwapBegin { id });
                steps.push(Step::SwapWait { id });
            }
            "stencil.apply" => {
                let input_descs: Vec<Option<InputDesc>> =
                    op.operands.iter().map(|o| bufs.get(o).map(|(_, d)| d.clone())).collect();
                let input_ids: Vec<BufId> =
                    op.operands.iter().filter_map(|o| bufs.get(o).map(|(id, _)| *id)).collect();
                let mut output_ids = Vec::new();
                let mut output_descs = Vec::new();
                for &r in &op.results {
                    let Type::Temp(t) = module.values.ty(r) else {
                        return Err("apply result is not a temp".into());
                    };
                    let b = t.bounds.clone().ok_or("apply result bounds unknown")?;
                    if let Some(&field) = forwarded.get(&r) {
                        let (id, desc) =
                            bufs.get(&field).cloned().ok_or("forward to unknown field")?;
                        output_ids.push(id);
                        output_descs.push(desc.clone());
                        bufs.insert(r, (id, desc));
                    } else {
                        let desc = InputDesc::new(b.shape(), b.lower());
                        let id = BufId::Tmp(tmp_shapes.len());
                        tmp_shapes.push(desc.shape.clone());
                        output_ids.push(id);
                        output_descs.push(desc.clone());
                        bufs.insert(r, (id, desc));
                    }
                }
                let kernel = compile_apply(
                    op,
                    &module.values,
                    input_descs,
                    output_descs,
                    &scalar_consts,
                    &scalar_slots,
                )?;
                let kernel = SpecializedKernel::specialize(kernel, tier);
                steps.push(Step::Apply {
                    kernel,
                    inputs: input_ids,
                    outputs: output_ids,
                    region: ApplyRegion::Full,
                });
            }
            "stencil.store" => {
                if forwarded.contains_key(&op.operand(0)) {
                    continue;
                }
                let (src, src_desc) =
                    bufs.get(&op.operand(0)).cloned().ok_or("store of unknown temp")?;
                let (dst, dst_desc) =
                    bufs.get(&op.operand(1)).cloned().ok_or("store to unknown field")?;
                let range = sten_stencil::ops::StoreOp(op).range();
                steps.push(Step::Copy { src, src_desc, dst, dst_desc, range });
            }
            "stencil.reduce" => {
                let view = sten_stencil::ops::ReduceOp(op);
                let kind = ReduceKind::parse(view.kind())
                    .ok_or_else(|| format!("unknown reduce kind '{}'", view.kind()))?;
                let inputs: Vec<(BufId, InputDesc)> = op
                    .operands
                    .iter()
                    .map(|o| bufs.get(o).cloned().ok_or("reduce of unknown buffer"))
                    .collect::<Result<_, _>>()?;
                let slot = num_slots;
                num_slots += 1;
                scalar_slots.insert(op.result(0), slot);
                steps.push(Step::Reduce {
                    kind,
                    inputs,
                    range: view.range(),
                    dst_slot: slot,
                    allreduce: false,
                });
            }
            "dmp.allreduce" => {
                // Fold into the producing reduce step: the local partial
                // and the cross-rank merge execute as one step, and the
                // allreduce result shares the reduction's slot.
                let &slot = scalar_slots
                    .get(&op.operand(0))
                    .ok_or("dmp.allreduce of a value that is not a pipeline reduction")?;
                let produced = steps.iter_mut().rev().find_map(|s| match s {
                    Step::Reduce { dst_slot, allreduce, .. } if *dst_slot == slot => {
                        Some(allreduce)
                    }
                    _ => None,
                });
                match produced {
                    Some(allreduce) => *allreduce = true,
                    None => {
                        return Err("dmp.allreduce source is not produced by a reduce step".into())
                    }
                }
                scalar_slots.insert(op.result(0), slot);
            }
            name if name == "arith.negf" || BinOp::from_arith(name).is_some() => {
                let args = op
                    .operands
                    .iter()
                    .enumerate()
                    .map(|(i, o)| {
                        scalar_slots.get(o).copied().ok_or_else(|| {
                            format!("{name} operand {i} is not a scalar argument or result")
                        })
                    })
                    .collect::<Result<_, _>>()?;
                scalar_slots.insert(op.result(0), num_slots);
                steps.push(Step::Scalar { op: BinOp::from_arith(name), args, dst: num_slots });
                num_slots += 1;
            }
            "func.return" => {
                // A returned f64 without a slot (a constant) would shift
                // every later index of `scalar_outputs()`.
                for (i, o) in op.operands.iter().enumerate() {
                    match scalar_slots.get(o) {
                        Some(&s) => scalar_outputs.push(s),
                        None if *module.values.ty(*o) == Type::F64 => {
                            return Err(format!(
                                "@{func} returns operand {i}, an f64 that is not a scalar \
                                 argument or result"
                            ))
                        }
                        None => {}
                    }
                }
                break;
            }
            other => return Err(format!("unsupported op at function level: {other}")),
        }
    }
    // Temporal blocking: when the step sequence matches the deep-halo
    // pattern, keep the synchronous base steps (correct fallback: a wide
    // exchange every step) and record the block shape for the Runner.
    // Otherwise apply the within-step overlap rewrite as usual.
    let temporal = detect_temporal(&steps, &swaps);
    let steps = if temporal.is_some() { steps } else { overlap_steps(steps, &swaps) };
    Ok(Pipeline {
        name: func.to_string(),
        num_args,
        arg_shapes,
        tmp_shapes,
        steps,
        swaps,
        num_slots,
        scalar_inputs,
        scalar_outputs,
        temporal,
    })
}

/// Pattern-matches a compiled step sequence against the temporal-blocking
/// shape: exactly one `depth>1` swap followed by one full apply that
/// reads the exchanged buffer and writes only *argument* buffers (the
/// store-forwarded ping-pong — deep phases write outside the core, which
/// only the widened field buffers can hold). Returns the block metadata
/// or `None` (the synchronous wide-exchange schedule stays correct).
fn detect_temporal(steps: &[Step], swaps: &[Swap]) -> Option<TemporalBlock> {
    let [Swap { buf, exchanges, overlap, depth, .. }] = swaps else { return None };
    let depth = *depth;
    if depth <= 1 {
        return None;
    }
    let [Step::SwapBegin { .. }, Step::SwapWait { .. }, Step::Apply { kernel, inputs, outputs, region: ApplyRegion::Full }] =
        steps
    else {
        return None;
    };
    if !inputs.contains(buf) || outputs.iter().any(|o| matches!(o, BufId::Tmp(_))) {
        return None;
    }
    let rank = kernel.range.rank();
    let (lo, hi) = sten_dmp::halo_widths(exchanges, rank).ok()?;
    // The exchange carries the full k·r block width; the per-phase step
    // width is the depth-th part.
    if lo.iter().chain(&hi).any(|w| w % depth != 0) {
        return None;
    }
    let lo: Vec<i64> = lo.iter().map(|w| w / depth).collect();
    let hi: Vec<i64> = hi.iter().map(|w| w / depth).collect();
    if lo.iter().chain(&hi).all(|&w| w == 0) {
        return None;
    }
    Some(TemporalBlock { depth, lo, hi, overlap: *overlap })
}

/// Expands a temporal-blocking pipeline into its per-phase schedules for
/// one rank. Phase 0 runs the deep exchange (optionally overlapped via
/// the usual interior/shell split, now with `k·r` widths); phases `1..k`
/// run a single exchange-free apply over the shrinking onion regions.
/// Growth is clamped per dimension side to directions that both exchange
/// and have a live neighbour — growing toward a physical boundary would
/// read unexchanged cells and clobber fixed boundary data.
fn build_phase_schedule(p: &Pipeline, rank: i64) -> Result<Vec<Vec<Step>>, String> {
    use sten_dmp::decomposition::neighbor_rank;
    let tb = p.temporal.as_ref().expect("temporal metadata");
    let [Step::SwapBegin { id }, Step::SwapWait { .. }, apply @ Step::Apply { kernel, .. }] =
        &p.steps[..]
    else {
        return Err("temporal pipeline must be swap-begin, swap-wait, apply".into());
    };
    let swap = &p.swaps[*id];
    let core = &kernel.range;
    let dims = core.rank();
    let mut step_lo = vec![0i64; dims];
    let mut step_hi = vec![0i64; dims];
    for e in &swap.exchanges {
        let nonzero: Vec<usize> = (0..e.to.len()).filter(|&d| e.to[d] != 0).collect();
        let [d] = nonzero[..] else { continue }; // corners follow their faces
        if d >= dims || neighbor_rank(rank, &swap.grid, &e.to)?.is_none() {
            continue;
        }
        if e.to[d] < 0 {
            step_lo[d] = tb.lo[d];
        } else {
            step_hi[d] = tb.hi[d];
        }
    }
    let regions = sten_dmp::deep_phase_regions(core, &step_lo, &step_hi, tb.depth);
    let mut schedule = Vec::with_capacity(regions.len());
    for (j, region) in regions.into_iter().enumerate() {
        if j > 0 {
            schedule.push(vec![restrict(apply, ApplyRegion::Phase(j, region))]);
            continue;
        }
        // Phase 0 owns the deep exchange. With the overlap marker the
        // usual four-phase split applies, with the full k·r widths: the
        // interior is exactly the points whose footprint stays in owned
        // data while the deep messages are in flight.
        let deep_lo: Vec<i64> = step_lo.iter().map(|w| w * tb.depth).collect();
        let deep_hi: Vec<i64> = step_hi.iter().map(|w| w * tb.depth).collect();
        let split = sten_dmp::HaloRegionSplit::compute(&region, &deep_lo, &deep_hi);
        schedule.push(if tb.overlap && split.is_splittable() {
            split_around(&[*id], apply, &split)
        } else {
            let phase = restrict(apply, ApplyRegion::Phase(0, region));
            vec![Step::SwapBegin { id: *id }, Step::SwapWait { id: *id }, phase]
        });
    }
    Ok(schedule)
}

/// Rewrites overlap-marked exchanges into the four-phase step order:
/// a run of adjacent begin/wait pairs immediately followed by an apply
/// that reads every swapped buffer becomes [`split_around`] that apply,
/// split by [`sten_dmp::HaloRegionSplit`]. Unmarked or unsplittable
/// swaps keep the synchronous pair.
fn overlap_steps(steps: Vec<Step>, swaps: &[Swap]) -> Vec<Step> {
    let mut out = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        // A maximal run of adjacent overlap-marked begin/wait pairs.
        let mut ids: Vec<usize> = Vec::new();
        while let [Step::SwapBegin { id }, Step::SwapWait { id: w }, ..] =
            &steps[i + 2 * ids.len()..]
        {
            if id != w || !swaps[*id].overlap {
                break;
            }
            ids.push(*id);
        }
        if ids.is_empty() {
            out.push(steps[i].clone());
            i += 1;
            continue;
        }
        let j = i + 2 * ids.len();
        let split = match &steps.get(j) {
            Some(Step::Apply { kernel, inputs, region: ApplyRegion::Full, .. }) => {
                let rank = kernel.range.rank();
                let mut lo = vec![0i64; rank];
                let mut hi = vec![0i64; rank];
                let mut feeds_apply = true;
                for swap in ids.iter().map(|&id| &swaps[id]) {
                    feeds_apply &= inputs.contains(&swap.buf);
                    // Malformed exchanges (verifier territory) simply
                    // keep the pair synchronous.
                    let Ok((l, h)) = sten_dmp::halo_widths(&swap.exchanges, rank) else {
                        feeds_apply = false;
                        continue;
                    };
                    for d in 0..rank {
                        lo[d] = lo[d].max(l[d]);
                        hi[d] = hi[d].max(h[d]);
                    }
                }
                let split = sten_dmp::HaloRegionSplit::compute(&kernel.range, &lo, &hi);
                (feeds_apply && split.is_splittable()).then_some(split)
            }
            _ => None,
        };
        let Some(split) = split else {
            // Unsplittable: keep the first pair synchronous and rescan.
            out.extend_from_slice(&steps[i..i + 2]);
            i += 2;
            continue;
        };
        out.extend(split_around(&ids, &steps[j], &split));
        i = j + 1;
    }
    out
}

/// The overlapped order of the swaps `ids` around the apply they feed:
/// every begin, the interior, every wait, then one step per non-empty
/// boundary shell of `split`.
fn split_around(ids: &[usize], apply: &Step, split: &sten_dmp::HaloRegionSplit) -> Vec<Step> {
    let mut out: Vec<Step> = ids.iter().map(|&id| Step::SwapBegin { id }).collect();
    out.push(restrict(apply, ApplyRegion::Interior(split.interior.clone())));
    out.extend(ids.iter().map(|&id| Step::SwapWait { id }));
    for shell in split.shells.iter().filter(|s| s.bounds.num_points() > 0) {
        out.push(restrict(apply, ApplyRegion::Boundary(shell.dir.clone(), shell.bounds.clone())));
    }
    out
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
    use sten_interp::{launch, launch_with, Layout};
    use sten_ir::Pass as _;
    use sten_stencil::{samples, ShapeInference};

    fn prepare(mut m: Module) -> Module {
        ShapeInference.run(&mut m).unwrap();
        m
    }

    #[test]
    fn pipeline_matches_interpreter_on_heat2d() {
        let n = 24i64;
        let m = prepare(samples::heat_2d(n, 0.1));
        let pipeline = compile_module(&m, "heat").unwrap();
        assert_eq!(pipeline.num_args, 2);
        assert_eq!(pipeline.num_apply_steps(), 1);
        assert!(pipeline.flops_per_step() > 0);

        let size = ((n + 2) * (n + 2)) as usize;
        let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.07).sin()).collect();
        let mut args = vec![input.clone(), input.clone()];
        Runner::new(pipeline, 1).step(&mut args).unwrap();

        // Interpreter reference.
        let src = sten_interp::BufView::from_data(vec![n + 2, n + 2], input.clone());
        let dst = sten_interp::BufView::from_data(vec![n + 2, n + 2], input);
        sten_interp::Interpreter::new(&m)
            .call_function(
                "heat",
                vec![sten_interp::RtValue::Buffer(src), sten_interp::RtValue::Buffer(dst.clone())],
            )
            .unwrap();
        assert_eq!(args[1], dst.to_vec(), "compiled == interpreted, bit for bit");
    }

    #[test]
    fn multithreaded_step_matches_serial() {
        let n = 48i64;
        let m = prepare(samples::heat_2d(n, 0.1));
        let size = ((n + 2) * (n + 2)) as usize;
        let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.03).cos()).collect();

        let mut serial_args = vec![input.clone(), input.clone()];
        Runner::new(compile_module(&m, "heat").unwrap(), 1).step(&mut serial_args).unwrap();
        let mut par_args = vec![input.clone(), input];
        Runner::new(compile_module(&m, "heat").unwrap(), 8).step(&mut par_args).unwrap();
        assert_eq!(serial_args[1], par_args[1]);
    }

    #[test]
    fn two_stage_pipeline_has_intermediate() {
        let m = prepare(samples::two_stage_1d(32));
        let p = compile_module(&m, "two_stage").unwrap();
        assert_eq!(p.num_apply_steps(), 2);
        assert_eq!(p.tmp_shapes.len(), 1, "intermediate temp materialised");
    }

    #[test]
    fn distributed_pipeline_matches_serial() {
        let n = 128i64;
        let global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();

        // Serial.
        let serial = prepare(samples::jacobi_1d(n));
        let mut serial_args = vec![global.clone(), global.clone()];
        Runner::new(compile_module(&serial, "jacobi").unwrap(), 1).step(&mut serial_args).unwrap();

        // Distributed on 2 ranks at the dmp level.
        let mut m = samples::jacobi_1d(n);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let pipeline = compile_module(&m, "jacobi").unwrap();
        assert!(pipeline.exchanged_elements_per_step() > 0);
        let layout = Layout::of_spmd(Bounds::new(vec![(0, n)]), &m, "jacobi").unwrap();

        let world = SimWorld::new(2);
        let outs = launch_with(&world, layout.scatter(&global), |rank, data| {
            let mut args = vec![data.clone(), data];
            let mut runner = Runner::new(pipeline.clone(), 1);
            runner.step_distributed(&mut args, &world, rank as i64)?;
            Ok::<_, String>(args.swap_remove(1))
        })
        .unwrap();
        let mut got = global.clone();
        layout.gather_into(&outs, &mut got);
        assert_eq!(got, serial_args[1]);
    }

    /// The layout of jacobi-1d on `n` points split over 2 ranks.
    fn jacobi_2r_layout(n: i64) -> Layout {
        let mut m = samples::jacobi_1d(n);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        Layout::of_spmd(Bounds::new(vec![(0, n)]), &m, "jacobi").unwrap()
    }

    /// Runs `timesteps` of a 2-rank distributed jacobi from `global` and
    /// returns every rank's final buffer.
    fn run_jacobi_2ranks(pipeline: &Pipeline, global: &[f64], timesteps: usize) -> Vec<Vec<f64>> {
        let parts = jacobi_2r_layout(global.len() as i64).scatter(global);
        let world = SimWorld::new(2);
        launch_with(&world, parts, |rank, data| {
            let mut args = vec![data.clone(), data];
            let mut runner = Runner::new(pipeline.clone(), 1);
            for _ in 0..timesteps {
                runner.step_distributed(&mut args, &world, rank as i64)?;
                // Ping-pong so the exchange matters every step.
                args.swap(0, 1);
            }
            Ok::<_, String>(args.swap_remove(0))
        })
        .unwrap()
    }

    #[test]
    fn overlapped_pipeline_matches_sync_bit_for_bit() {
        let n = 128i64;
        let global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let compile_dist = |overlap: bool| {
            let mut m = samples::jacobi_1d(n);
            ShapeInference.run(&mut m).unwrap();
            sten_dmp::DistributeStencil::new(vec![2]).with_overlap(overlap).run(&mut m).unwrap();
            ShapeInference.run(&mut m).unwrap();
            compile_module(&m, "jacobi").unwrap()
        };
        let sync = compile_dist(false);
        let over = compile_dist(true);
        assert!(!sync.is_overlapped());
        assert!(over.is_overlapped());
        // Overlapped step order: begin, interior, wait, two shells.
        let kinds: Vec<String> = over
            .steps
            .iter()
            .map(|s| match s {
                Step::Apply { region, .. } => format!("apply:{}", region.label().trim()),
                Step::SwapBegin { .. } => "begin".into(),
                Step::SwapWait { .. } => "wait".into(),
                Step::Copy { .. } => "copy".into(),
                Step::Reduce { .. } => "reduce".into(),
                Step::Scalar { .. } => "scalar".into(),
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["begin", "apply:interior", "wait", "apply:boundary[-1]", "apply:boundary[1]"]
        );
        // Both pipelines compute the same points overall.
        assert_eq!(sync.points_per_step(), over.points_per_step());
        assert_eq!(sync.flops_per_step(), over.flops_per_step());
        assert_eq!(sync.exchanged_elements_per_step(), over.exchanged_elements_per_step());
        // Multi-step runs agree bit-for-bit (the persistent pack buffers
        // recycle across steps).
        let a = run_jacobi_2ranks(&sync, &global, 5);
        let b = run_jacobi_2ranks(&over, &global, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn overlap_reports_interior_in_summaries() {
        let mut m = samples::heat_2d(64, 0.1);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2, 2]).with_overlap(true).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let p = compile_module(&m, "heat").unwrap();
        // Interior + 4 shells on a 2x2 grid.
        assert_eq!(p.num_apply_steps(), 5);
        let tiers = p.tier_summary();
        assert!(tiers[0].contains("interior"), "{tiers:?}");
        assert!(tiers.iter().skip(1).all(|l| l.contains("boundary")), "{tiers:?}");
        let steps = p.step_summary();
        assert!(steps[0].starts_with("swap#0 begin"), "{steps:?}");
        assert!(steps.iter().any(|l| l == "swap#0 wait"), "{steps:?}");
    }

    #[test]
    fn region_split_steps_share_specialized_tables() {
        use crate::specialize::Tier;
        let mut m = samples::heat_2d(64, 0.1);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2, 2]).with_overlap(true).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let mut p = compile_module(&m, "heat").unwrap();
        assert_eq!(p.num_apply_steps(), 5, "interior + 4 shells");
        // Both at compile time (the split clones one specialized kernel)
        // and after respecialize (the dedup cache), the interior and the
        // boundary shells must share one program, not per-shell copies.
        for tier in [None, Some(TierKind::OptBytecode), Some(TierKind::TemplateJit)] {
            p.respecialize(tier);
            let applies: Vec<_> = p
                .steps
                .iter()
                .filter_map(|s| match s {
                    Step::Apply { kernel, .. } => Some(kernel),
                    _ => None,
                })
                .collect();
            assert_eq!(applies.len(), 5);
            let shared = applies.windows(2).all(|w| match (&w[0].tier, &w[1].tier) {
                (Tier::TemplateJit(a), Tier::TemplateJit(b)) => Arc::ptr_eq(a, b),
                (Tier::OptBytecode(a), Tier::OptBytecode(b)) => Arc::ptr_eq(a, b),
                _ => false,
            });
            assert!(shared, "tier {tier:?}: shells rebuilt per-shell state");
        }
    }

    #[test]
    fn reduce_pipeline_matches_interpreter() {
        let bounds = Bounds::new(vec![(0, 9), (0, 7)]);
        let range = Bounds::new(vec![(1, 8), (1, 6)]);
        let size = (9 * 7) as usize;
        let a: Vec<f64> = (0..size).map(|i| (i as f64 * 0.13).sin() * 3.0).collect();
        let b: Vec<f64> = (0..size).map(|i| (i as f64 * 0.07).cos() - 0.4).collect();
        for kind in ["sum", "dot", "min", "max"] {
            let m = prepare(samples::reduce_nd(kind, bounds.clone(), range.clone()));
            let pipeline = compile_module(&m, "reduce").unwrap();
            assert_eq!(pipeline.num_reduce_steps(), (1, 0));
            let mut args = if kind == "dot" { vec![a.clone(), b.clone()] } else { vec![a.clone()] };
            let mut runner = Runner::new(pipeline, 1);
            runner.step(&mut args).unwrap();
            let got = runner.scalar_outputs();

            let rt_args = args
                .iter()
                .map(|d| {
                    sten_interp::RtValue::Buffer(sten_interp::BufView::from_data(
                        vec![9, 7],
                        d.clone(),
                    ))
                })
                .collect();
            let want = match sten_interp::Interpreter::new(&m)
                .call_function("reduce", rt_args)
                .unwrap()
                .as_slice()
            {
                [sten_interp::RtValue::Float(v)] => *v,
                other => panic!("expected one float, got {other:?}"),
            };
            assert_eq!(got, vec![want], "compiled {kind} == interpreted, bit for bit");
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_thread_counts() {
        // Rows longer than one fold block; row 5 spans 300 binades, so
        // its blocks escape the vector stage while the others stay on it.
        let (rows, cols) = (24i64, 700i64);
        let bounds = Bounds::new(vec![(0, rows), (0, cols)]);
        let range = Bounds::new(vec![(1, rows - 1), (3, cols - 2)]);
        let field = |phase: f64, scale: f64| -> Vec<f64> {
            (0..rows * cols)
                .map(|i| {
                    let x = (i as f64 * phase).sin() * scale;
                    if i / cols == 5 {
                        x * 2f64.powi((i % 300) as i32 - 150)
                    } else {
                        x
                    }
                })
                .collect()
        };
        let (a, b) = (field(0.31, 1e8), field(0.17, 1e-8));
        for kind in ["sum", "dot"] {
            let mut want = sten_interp::ExactSum::new();
            for i in 1..rows - 1 {
                for j in 3..cols - 2 {
                    let at = (i * cols + j) as usize;
                    want.add(if kind == "dot" { a[at] * b[at] } else { a[at] });
                }
            }
            let m = prepare(samples::reduce_nd(kind, bounds.clone(), range.clone()));
            for threads in [1, 2, 3, 8] {
                let tracer = Tracer::new();
                let mut runner = Runner::new(compile_module(&m, "reduce").unwrap(), threads)
                    .with_trace(&tracer, 0);
                let mut args =
                    if kind == "dot" { vec![a.clone(), b.clone()] } else { vec![a.clone()] };
                runner.step(&mut args).unwrap();
                assert_eq!(
                    runner.scalar_outputs()[0].to_bits(),
                    want.round().to_bits(),
                    "{kind} on {threads} threads != per-point exact sum"
                );
                drop(runner);
                let escaped: Vec<u32> = tracer
                    .events()
                    .iter()
                    .filter_map(|e| match e.kind {
                        SpanKind::Reduce { phase: "partial", escaped, .. } => Some(escaped),
                        _ => None,
                    })
                    .collect();
                assert_eq!(escaped.len(), 1, "one partial span per reduce step");
                assert!(escaped[0] > 0, "{kind}: the wide row never left the vector stage");
            }
        }
    }

    #[test]
    fn distributed_norm_matches_serial_bit_for_bit() {
        let n = 128i64;
        let global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin() * 100.0).collect();

        // Serial reference.
        let serial = prepare(samples::jacobi_with_norm(n));
        let mut serial_args = vec![global.clone(), global.clone()];
        let mut serial_runner = Runner::new(compile_module(&serial, "jacobi_norm").unwrap(), 1);
        serial_runner.step(&mut serial_args).unwrap();
        let want = serial_runner.scalar_outputs()[0];
        assert!(want > 0.0);

        // Distributed on 2 ranks: each rank folds its partial, then the
        // allreduce merges exact accumulators — identical on every rank
        // and to the serial run, bit for bit.
        let mut m = samples::jacobi_with_norm(n);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let pipeline = compile_module(&m, "jacobi_norm").unwrap();
        assert_eq!(pipeline.num_reduce_steps(), (1, 1));
        let layout = Layout::of_spmd(Bounds::new(vec![(0, n)]), &m, "jacobi_norm").unwrap();

        let world = SimWorld::new(2);
        let norms = launch_with(&world, layout.scatter(&global), |rank, data| {
            let mut args = vec![data.clone(), data];
            let mut runner = Runner::new(pipeline.clone(), 1);
            runner.step_distributed(&mut args, &world, rank as i64)?;
            Ok::<_, String>(runner.scalar_outputs()[0])
        })
        .unwrap();
        assert_eq!(norms[0].to_bits(), norms[1].to_bits(), "ranks disagree: {norms:?}");
        assert_eq!(norms[0].to_bits(), want.to_bits(), "distributed {} != serial {want}", norms[0]);
    }

    /// `@f(%0, %1: f64) -> (f64, f64)` returning `body`'s last two values.
    fn scalar_fn(body: &str, ret: &str) -> Result<Pipeline, String> {
        let text = format!(
            r#""builtin.module"() ({{
  "func.func"() {{function_type = (f64, f64) -> (f64, f64), sym_name = "f"}} ({{
  ^bb0(%0: f64, %1: f64):
{body}    "func.return"({ret}) : (f64, f64) -> ()
  }}) : () -> ()
}}) : () -> ()
"#
        );
        compile_module(&sten_ir::parse_module(&text).map_err(|e| e.to_string())?, "f")
    }

    const DIV_NEG: &str = r#"    %2 = "arith.divf"(%0, %1) : (f64, f64) -> (f64)
    %3 = "arith.negf"(%0) : (f64) -> (f64)
"#;

    #[test]
    fn scalar_steps_divide_and_negate_bit_exactly() {
        let p = scalar_fn(DIV_NEG, "%2, %3").unwrap();
        assert_eq!(p.step_summary(), ["scalar divf", "scalar negf"]);
        let mut runner = Runner::new(p, 1);
        for (a, b) in [(1.0, 3.0), (0.0, 2.0), (-0.0, 5.0), (1.0, -0.0), (f64::NAN, 1.0)] {
            runner.set_scalar(0, a);
            runner.set_scalar(1, b);
            runner.step(&mut []).unwrap();
            let [q, n] = runner.scalar_outputs()[..] else { panic!("two outputs") };
            assert_eq!(q.to_bits(), (a / b).to_bits(), "{a} / {b}");
            assert_eq!(n.to_bits(), (-a).to_bits(), "-{a}");
        }
        // `negf` is a sign flip, not `0 − a`: it turns 0.0 into −0.0.
        runner.set_scalar(0, 0.0);
        runner.step(&mut []).unwrap();
        assert_eq!(runner.scalar_outputs()[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn scalar_step_operands_must_be_slots() {
        let body = r#"    %2 = "arith.constant"() {value = 2.0 : f64} : () -> (f64)
    %3 = "arith.mulf"(%0, %2) : (f64, f64) -> (f64)
"#;
        let err = scalar_fn(body, "%3, %1").unwrap_err();
        assert!(err.contains("arith.mulf operand 1"), "{err}");
    }

    #[test]
    fn a_returned_constant_is_rejected_not_dropped() {
        // Skipping the constant would make `scalar_outputs()[0]` the
        // argument returned second.
        let body = r#"    %2 = "arith.constant"() {value = 1.0 : f64} : () -> (f64)
"#;
        let err = scalar_fn(body, "%2, %0").unwrap_err();
        assert!(err.contains("returns operand 0"), "{err}");
    }

    #[test]
    fn scalar_steps_match_across_thread_counts() {
        // A CG iteration: reductions feed scalar steps feed runtime
        // scalars of the updates, on 1 and 2 worker threads.
        let n = 20i64;
        let m = prepare(samples::cg(n, 0.25));
        let ext = (n + 2) as usize;
        let f = |k: usize| (0..ext * ext).map(|i| ((i * k) as f64 * 0.37).sin()).collect();
        let run = |threads| {
            let mut runner = Runner::new(compile_module(&m, "cg_iter").unwrap(), threads);
            let mut args: Vec<Vec<f64>> = (1..=5).map(f).collect();
            runner.set_scalar(0, 1.5);
            runner.step(&mut args).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(&runner.scalar_outputs()), args.iter().map(|a| bits(a)).collect::<Vec<_>>())
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn runtime_scalar_flows_through_pipeline() {
        let n = 32i64;
        let full = Bounds::new(vec![(0, n)]);
        let m = prepare(samples::axpy(full.clone(), full));
        let pipeline = compile_module(&m, "axpy").unwrap();
        // Three field buffers; alpha arrives via a scalar slot instead.
        assert_eq!(pipeline.num_args, 3);
        assert_eq!(pipeline.scalar_inputs.len(), 1);

        let a: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut runner = Runner::new(pipeline, 1);
        for alpha in [0.0, -1.75, 3.5] {
            let mut args = vec![a.clone(), b.clone(), vec![0.0; n as usize]];
            runner.set_scalar(0, alpha);
            runner.step(&mut args).unwrap();
            let want: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x + alpha * y).collect();
            assert_eq!(args[2], want, "alpha = {alpha}");
        }
    }

    #[test]
    fn stepping_with_an_unset_scalar_is_reported() {
        let n = 32i64;
        let full = Bounds::new(vec![(0, n)]);
        let m = prepare(samples::axpy(full.clone(), full));
        let pipeline = compile_module(&m, "axpy").unwrap();
        let ones = vec![1.0; n as usize];
        let mut args = vec![ones.clone(), ones.clone(), vec![0.0; n as usize]];

        // Never set: an error, not `out = a + 0·b`.
        let mut runner = Runner::new(pipeline.clone(), 1);
        let unset = runner.snapshot(&args);
        let err = runner.step(&mut args).unwrap_err();
        assert_eq!(err, "scalar argument 0 of @axpy was never set");
        assert_eq!(args[2], vec![0.0; n as usize], "nothing ran");
        let world = SimWorld::new(1);
        let err = runner.step_distributed_checked(&mut args, &world, 0).unwrap_err();
        assert!(matches!(err, ExecError::Exec(msg) if msg.contains("was never set")));

        runner.set_scalar(0, 0.0);
        runner.step(&mut args).unwrap();
        assert_eq!(args[2], ones, "an explicit zero is a value like any other");
        runner.set_scalar(0, 2.5);
        let set = runner.snapshot(&args);

        // A snapshot carries whether the scalar was set: restoring one
        // taken after `set_scalar` needs no second call, restoring one
        // taken before it still refuses to step.
        let mut restored = Runner::new(pipeline, 1);
        restored.restore(&mut args, &set);
        restored.step(&mut args).unwrap();
        assert_eq!(args[2], vec![3.5; n as usize]);
        restored.restore(&mut args, &RankSnapshot::from_bytes(&unset.to_bytes()).unwrap());
        assert!(restored.step(&mut args).unwrap_err().contains("was never set"));
    }

    /// jacobi-1d on `n` points split over 2 ranks, and a zeroed argument
    /// pair of one rank's local shape.
    fn jacobi_2r(n: i64) -> (Pipeline, Vec<Vec<f64>>) {
        let mut m = samples::jacobi_1d(n);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let pipeline = compile_module(&m, "jacobi").unwrap();
        let len = pipeline.arg_shapes[0].iter().product::<i64>() as usize;
        (pipeline, vec![vec![0.0; len], vec![0.0; len]])
    }

    /// Steps both ranks of a fresh runner `steps` times over `world`
    /// and returns the runners.
    fn step_both_ranks(
        pipeline: &Pipeline,
        args: &[Vec<f64>],
        world: &Arc<SimWorld>,
        steps: usize,
    ) -> Vec<Runner> {
        launch(world, |rank| {
            let mut args = args.to_vec();
            let mut runner = Runner::new(pipeline.clone(), 1);
            for _ in 0..steps {
                runner.step_distributed(&mut args, world, rank as i64)?;
                args.swap(0, 1);
            }
            Ok::<_, String>(runner)
        })
        .unwrap()
    }

    fn reliable_world() -> Arc<SimWorld> {
        SimWorld::new_resilient(
            2,
            std::time::Duration::ZERO,
            sten_trace::Tracer::disabled(),
            None,
            Some(sten_interp::Reliability::default()),
        )
    }

    #[test]
    fn swap_free_lists_stay_bounded() {
        // Each rank of the 1-D split has one neighbour. A world with a
        // `Reliability` keeps one frame per neighbour and sends a copy,
        // so at most two recycle; one without keeps nothing.
        let (pipeline, args) = jacobi_2r(128);
        for (world, bound) in [(reliable_world(), 2), (SimWorld::new(2), 1)] {
            for (rank, runner) in step_both_ranks(&pipeline, &args, &world, 64).iter().enumerate() {
                let free = runner.exchange.free_frames();
                assert!(free.iter().all(|&n| n <= bound), "rank {rank}: {free:?} after 64 rounds");
            }
        }
    }

    /// `run_resilient` starts a first attempt on fresh runners instead of
    /// restoring the step-0 baseline they just deposited.
    #[test]
    fn a_fresh_runner_is_one_restored_from_its_baseline() {
        let (pipeline, args) = jacobi_2r(128);
        let fresh = Runner::new(pipeline.clone(), 1);
        let baseline = fresh.snapshot(&args);
        assert!(fresh.exchange.is_idle());
        for mut runner in step_both_ranks(&pipeline, &args, &reliable_world(), 3) {
            assert!(!runner.exchange.is_idle() && runner.timestep == 3);
            runner.restore(&mut args.clone(), &baseline);
            assert!(runner.exchange.is_idle());
            assert_eq!(runner.timestep, fresh.timestep);
            assert_eq!(runner.snapshot(&args), baseline);
        }
    }

    #[test]
    fn swap_without_world_is_reported() {
        let (pipeline, mut args) = jacobi_2r(128);
        let err = Runner::new(pipeline, 1).step(&mut args).unwrap_err();
        assert!(err.contains("step_distributed"), "{err}");
    }
}
