//! # sten-dmp — the `dmp` dialect: an IR for domain decomposition
//!
//! The paper's §4.2 contribution: "dmp is used to express parallel
//! communication patterns as modular building blocks [...] offering a
//! mechanism for describing the exchange of rectangular subsections of data
//! among nodes."
//!
//! * [`ops`] — the declarative [`dmp.swap`](ops::swap) operation carrying
//!   `#dmp.grid` and `#dmp.exchange` attributes (Listing 2);
//! * [`decomposition`] — the [`DecompositionStrategy`] interface: "a class
//!   that exposes an interface that allows a rewrite pass to calculate the
//!   local domain from the global domain [...] this extensible design
//!   allows adopters to supplement our default slicing strategy with their
//!   own" — with three implementations: balanced standard slicing
//!   ([`StandardSlicing`]), surface-minimizing [`RecursiveBisection`], and
//!   explicit per-dimension [`CustomGrid`] factorizations;
//! * [`distribute`] — the shared pass that "automatically prepares stencil
//!   programs for distributed execution": global domain → rank-local domain
//!   with `dmp.swap` inserted before each `stencil.load`;
//! * [`dedup`] — the pass that removes redundant exchanges "via a further
//!   pass analyzing the SSA data flow";
//! * [`overlap`] — the interior/boundary split behind overlapped halo
//!   exchanges ([`HaloRegionSplit`]) and the diagonal/corner exchange
//!   generation (paper §8), shared by the `dmp → mpi` lowering and the
//!   compiled executor.
//!
//! Nothing here is MPI-specific; the `sten-mpi` crate lowers `dmp.swap`
//! into message-passing calls, and other communication substrates could be
//! targeted instead (as the paper notes).

pub mod decomposition;
pub mod dedup;
pub mod distribute;
pub mod ops;
pub mod overlap;

pub use decomposition::{
    make_strategy, CustomGrid, DecompositionStrategy, RecursiveBisection, StandardSlicing,
    STRATEGY_NAMES,
};
pub use dedup::EliminateRedundantSwaps;
pub use distribute::{owned_box, DistributeStencil, HaloDepth};
pub use ops::register;
pub use overlap::{corner_exchanges, deep_phase_regions, halo_widths, HaloRegionSplit, Shell};
