//! # sten-interp — executing the IR, at every lowering level
//!
//! The paper compiles its IR through LLVM and runs on ARCHER2 with mpich.
//! This crate is the corresponding execution substrate of the
//! reproduction: a tree-walking interpreter ([`interp::Interpreter`]) that
//! executes modules at **any** lowering level — stencil-level reference
//! semantics, `scf`+`memref` loop nests, `dmp.swap` exchanges, `mpi.*`
//! operations, and the final `func.call @MPI_*` form — plus **SimMPI**
//! ([`sim_mpi`]), a simulated message-passing runtime where ranks are OS
//! threads and messages travel through FIFO mailboxes, honouring MPI's
//! non-overtaking ordering and the mpich ABI constants the lowering
//! substitutes. Every rank driver spawns its ranks through [`spmd`]'s
//! launcher and moves global fields in and out with its [`Layout`].
//!
//! Running the same program at every level and comparing the resulting
//! fields is the core semantic test of the stack (see `tests/` at the
//! workspace root).

pub mod distributed;
pub mod exact;
pub mod fault;
pub mod interp;
pub mod sim_mpi;
pub mod spmd;
pub mod sync_shim;
pub mod value;

pub use distributed::{run_spmd, run_spmd_modules, ArgSpec, RankResult};
pub use exact::{ExactSum, ReduceAcc, ReduceKind};
pub use fault::{FaultAction, FaultPlan, Reliability};
pub use interp::{InterpError, Interpreter};
pub use sim_mpi::{ExternalError, MpiEnv, MpiError, SimWorld};
pub use spmd::{launch, launch_with, Layout, RankBox, RankPanic};
pub use value::{BufView, RtValue};
