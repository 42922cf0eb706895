//! # sten-exec — compiled kernel execution
//!
//! The paper's stack hands its lowered IR to LLVM and runs vendor-compiled
//! binaries on ARCHER2/Cirrus. This crate is the reproduction's native
//! execution engine standing in for that JIT path:
//!
//! * [`program`] — compiles `stencil.apply` regions into register-based
//!   bytecode ([`program::KernelProgram`]), with exact flop/load counts
//!   per grid point (consumed by `sten-perf` to compute arithmetic
//!   intensities from *real* IR rather than hand-waved estimates);
//! * [`specialize`] — the kernel specialization engine: compiles each
//!   [`program::KernelProgram`] into one of two executor tiers at
//!   pipeline-build time — `template-jit` for every affine kernel,
//!   `eval` (the bytecode interpreter) as the reference and the fallback
//!   for the rest — bit-for-bit identical to each other. Both tiers, the
//!   copies, the reductions and the halo pack/unpack walk their ranges
//!   through one row walker, `program::for_each_row`;
//! * [`jit`] — the template-JIT tier: its matcher over the kernel
//!   bytecode and its catalog of monomorphized fused micro-kernels
//!   (const-generic tap chains, two-level fold templates,
//!   optional explicit AVX2 lanes behind the `simd` cargo feature +
//!   runtime CPU detection);
//! * [`step`] — the step program: a compiled function's buffers, its
//!   [`Step`]s and one [`step::Swap`] per `dmp.swap`, in a [`Pipeline`];
//! * `schedule` — the one schedule builder: a rank's steps phase by
//!   phase (the overlap split and the depth-`k` phases);
//! * [`pipeline`] — [`pipeline::compile_module`] compiles a whole
//!   stencil-level function (`load`/`apply`/`store`/`dmp.swap`
//!   sequences) into a [`Pipeline`]; [`pipeline::Runner`] executes
//!   timesteps serially, on a persistent [`pool::WorkerPool`] (the
//!   OpenMP substitute: longest-dimension chunks onto long-lived workers
//!   with reusable scratch), or SPMD-distributed over a
//!   [`sten_interp::SimWorld`] (ranks-as-threads, the mpirun
//!   substitute);
//! * `exchange` — the one halo-exchange protocol every distributed
//!   pipeline runs: sequence-numbered frames ([`FRAME_HEADER`] words in
//!   front of each payload) with duplicate suppression. A world's
//!   `Reliability` only arms receive timeouts with bounded-backoff
//!   re-request/re-send, surfacing [`pipeline::ExecError`] instead of
//!   hanging;
//! * [`resilient`] — checkpoint/restart on top of the distributed
//!   runner: [`resilient::RankSnapshot`] (one rank's state, digested in
//!   place), a content-addressed [`resilient::CheckpointStore`] plus
//!   [`resilient::run_resilient`], the cohort driver that rolls every
//!   rank back to the latest consistent checkpoint when a rank crashes.
//!   A rollback never targets anything older than the newest certified
//!   cut, so the store retires every older one and deposits copy into
//!   the retired buffers: a fault-free run holds one cut.
//!
//! Numerical results are bit-identical to the `sten-interp` tree-walker on
//! the same module, on every executor tier — the workspace tests enforce
//! this, in-place stores (`load %u → apply → store → %u`) included.

mod exchange;
pub mod jit;
pub mod pipeline;
pub mod pool;
pub mod program;
pub mod resilient;
mod schedule;
pub mod specialize;
pub mod step;

pub use exchange::FRAME_HEADER;
pub use pipeline::{compile_module, compile_module_tiered, ExecError, Runner};
pub use pool::WorkerPool;
pub use program::{split_longest_dim, BinOp, CompiledKernel, ExecScratch, Instr, KernelProgram};
pub use resilient::{
    run_resilient, CheckpointStore, RankSnapshot, ResilientConfig, ResilientReport,
};
pub use specialize::{SpecializedKernel, TierKind};
pub use step::{ApplyRegion, BufId, Pipeline, Step};
