//! # stencil-core — the shared compilation stack
//!
//! The paper's central artifact (Fig. 1b): one compilation stack that
//! multiple stencil DSL frontends share. This crate composes the
//! workspace into that stack:
//!
//! * [`standard_registry`] — every dialect of the ecosystem registered
//!   together (builtin/func/arith/scf/memref/llvm + stencil + dmp + mpi);
//! * [`Target`] / [`CompileOptions`] / [`compile`] — the lowering
//!   pipelines of §5: shared-memory CPU (tiling), distributed CPU
//!   (distribute → dmp → mpi → func with the mpich ABI), GPU
//!   (parallel-loop mapping metadata), FPGA (dataflow marking);
//! * re-exports of every layer under stable names (`ir`, `dialects`,
//!   `stencil`, `dmp`, `mpi`, `interp`, `exec`, `devito`, `psyclone`,
//!   `perf`).
//!
//! ```
//! use stencil_core::{compile, CompileOptions};
//!
//! let module = stencil_core::stencil::samples::heat_2d(32, 0.1);
//! let compiled = compile(module, &CompileOptions::shared_cpu()).unwrap();
//! assert!(compiled.text.contains("scf.parallel"));
//! assert!(!compiled.text.contains("stencil.apply"), "fully lowered");
//! ```

pub use sten_devito as devito;
pub use sten_dialects as dialects;
pub use sten_dmp as dmp;
pub use sten_exec as exec;
pub use sten_interp as interp;
pub use sten_ir as ir;
pub use sten_mpi as mpi;
pub use sten_opt as opt;
pub use sten_perf as perf;
pub use sten_psyclone as psyclone;
pub use sten_stencil as stencil;
pub use sten_trace as trace;

pub use sten_dmp::HaloDepth;

pub mod cg;

use sten_ir::{DialectRegistry, FuncTiming, Module, PassTiming};
use sten_opt::{CompileCache, Driver, PipelineError};

/// Errors of [`compile`]: pipeline resolution or pass failures.
pub type CompileError = PipelineError;

/// The full dialect registry of the shared ecosystem.
pub fn standard_registry() -> DialectRegistry {
    let mut reg = DialectRegistry::new();
    sten_dialects::register_all(&mut reg);
    sten_stencil::register(&mut reg);
    sten_dmp::register(&mut reg);
    sten_mpi::register(&mut reg);
    reg
}

/// How the distributed target splits the global domain across ranks
/// (§4.2's pluggable decomposition strategies; resolved to a
/// `distribute-stencil{strategy=…}` pass option).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum DecompStrategy {
    /// Balanced slabs along the leading topology dimensions (the default;
    /// non-divisible extents spread their remainder over leading ranks).
    #[default]
    StandardSlicing,
    /// Split the longest remaining dimension at each level, minimizing
    /// the surface-to-volume ratio; only the rank *count* of the topology
    /// is kept.
    RecursiveBisection,
    /// An explicit per-dimension factorization (its product must equal
    /// the topology's rank count).
    CustomGrid(Vec<i64>),
}

impl DecompStrategy {
    /// The registered strategy name (`distribute-stencil{strategy=…}`).
    pub fn name(&self) -> &'static str {
        match self {
            DecompStrategy::StandardSlicing => "standard-slicing",
            DecompStrategy::RecursiveBisection => "recursive-bisection",
            DecompStrategy::CustomGrid(_) => "custom-grid",
        }
    }

    /// The explicit factorization, when this is a custom grid.
    pub fn factors(&self) -> Option<&[i64]> {
        match self {
            DecompStrategy::CustomGrid(f) => Some(f),
            _ => None,
        }
    }
}

/// Compilation targets (the paper's §6 configurations).
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// Single node, shared-memory parallelism with loop tiling (§4.1's
    /// CPU pipeline).
    SharedCpu {
        /// Tile sizes (outermost first; last entry repeats).
        tile: Vec<i64>,
    },
    /// Multi-node: distribute → dmp.swap → mpi → func.call @MPI_* (§4.2,
    /// §4.3).
    DistributedCpu {
        /// Cartesian rank topology.
        topology: Vec<i64>,
        /// How the domain is decomposed over the topology.
        strategy: DecompStrategy,
        /// Overlap halo exchanges with interior computation
        /// (`distribute-stencil{overlap=true}`): the lowering and the
        /// compiled executor split every exchange into begin /
        /// interior-compute / wait / boundary-compute phases.
        overlap: bool,
        /// Exchange diagonal/corner halo blocks as well (paper §8), for
        /// kernels with corner-touching access offsets.
        diagonals: bool,
        /// Temporal-blocking depth (`distribute-stencil{depth=k}`):
        /// exchange a width-`k·r` halo once per `k`-step block.
        depth: HaloDepth,
    },
    /// GPU: parallel loops annotated for kernel mapping (executed through
    /// the V100 model; §6.1's CUDA lowering).
    Gpu,
    /// FPGA: stencil regions annotated as dataflow kernels (§6.2's HLS
    /// path; executed through the U280 model).
    Fpga {
        /// Whether the shift-buffer dataflow optimization is applied.
        optimized: bool,
    },
}

/// Options for [`compile`].
#[derive(Clone, Debug, PartialEq)]
pub struct CompileOptions {
    /// The lowering target.
    pub target: Target,
    /// Run vertical + horizontal stencil fusion before lowering.
    pub fuse: bool,
    /// Run canonicalize/LICM/CSE/DCE cleanups after lowering.
    pub optimize: bool,
    /// Verify the module after every pass.
    pub verify_each: bool,
    /// Print a per-pass timing report to stderr after compiling.
    pub timing: bool,
    /// Consult the content-addressed compilation cache: a repeated
    /// compile of the same module under the same pipeline returns the
    /// cached result without executing a single pass.
    pub cache: bool,
    /// Worker threads for `func.func`-anchored pass groups: `0` = one per
    /// core (default), `1` = serial — the `--no-parallel` escape hatch
    /// for deterministic timing. Results are byte-identical either way.
    pub threads: usize,
}

impl CompileOptions {
    fn with_target(target: Target) -> CompileOptions {
        CompileOptions {
            target,
            fuse: true,
            optimize: true,
            verify_each: true,
            timing: false,
            cache: true,
            threads: 0,
        }
    }

    /// Shared-memory CPU with default tiling.
    pub fn shared_cpu() -> CompileOptions {
        CompileOptions::with_target(Target::SharedCpu { tile: vec![32, 4] })
    }

    /// Distributed CPU over `topology` with the default standard-slicing
    /// decomposition.
    pub fn distributed(topology: Vec<i64>) -> CompileOptions {
        CompileOptions::distributed_with_strategy(topology, DecompStrategy::StandardSlicing)
    }

    /// Distributed CPU over `topology` with an explicit decomposition
    /// strategy. Distinct strategies resolve to distinct pipeline strings
    /// and therefore distinct compile-cache keys.
    pub fn distributed_with_strategy(
        topology: Vec<i64>,
        strategy: DecompStrategy,
    ) -> CompileOptions {
        CompileOptions::with_target(Target::DistributedCpu {
            topology,
            strategy,
            overlap: false,
            diagonals: false,
            depth: HaloDepth::default(),
        })
    }

    /// Enables overlapped halo exchange on a distributed target (builder
    /// style): the compiled pipeline splits every exchange into
    /// begin / interior / wait / boundary phases. No effect on other
    /// targets. The flag becomes a `distribute-stencil{overlap=true}`
    /// pass option and therefore a distinct compile-cache key.
    #[must_use]
    pub fn with_overlap(mut self, on: bool) -> CompileOptions {
        if let Target::DistributedCpu { overlap, .. } = &mut self.target {
            *overlap = on;
        }
        self
    }

    /// Enables diagonal/corner halo exchanges on a distributed target
    /// (builder style). No effect on other targets.
    #[must_use]
    pub fn with_diagonals(mut self, on: bool) -> CompileOptions {
        if let Target::DistributedCpu { diagonals, .. } = &mut self.target {
            *diagonals = on;
        }
        self
    }

    /// Sets the temporal-blocking depth on a distributed target (builder
    /// style): `HaloDepth::Fixed(k)` exchanges one width-`k·r` halo
    /// every `k` timesteps; `HaloDepth::Auto` picks `k` from the kernel
    /// radius and a message-budget heuristic. No effect on other
    /// targets. Non-default depths become a `distribute-stencil{depth=…}`
    /// pass option and therefore a distinct compile-cache key.
    #[must_use]
    pub fn with_halo_depth(mut self, d: HaloDepth) -> CompileOptions {
        if let Target::DistributedCpu { depth, .. } = &mut self.target {
            *depth = d;
        }
        self
    }

    /// GPU mapping.
    pub fn gpu() -> CompileOptions {
        CompileOptions::with_target(Target::Gpu)
    }

    /// FPGA dataflow mapping.
    pub fn fpga(optimized: bool) -> CompileOptions {
        CompileOptions::with_target(Target::Fpga { optimized })
    }

    /// Enables the per-pass timing report (builder style).
    #[must_use]
    pub fn with_timing(mut self, on: bool) -> CompileOptions {
        self.timing = on;
        self
    }

    /// Enables or disables the compile cache (builder style).
    #[must_use]
    pub fn with_cache(mut self, on: bool) -> CompileOptions {
        self.cache = on;
        self
    }

    /// Caps the worker threads of function-anchored pass groups (builder
    /// style): `0` = one per core, `1` = serial (`--no-parallel`).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> CompileOptions {
        self.threads = threads;
        self
    }

    /// The textual pass pipeline this target compiles through — the §5
    /// pipeline strings, resolved against [`sten_opt::PassRegistry`].
    pub fn pipeline_string(&self) -> String {
        match &self.target {
            Target::SharedCpu { tile } => {
                sten_opt::pipelines::shared_cpu(tile, self.fuse, self.optimize)
            }
            Target::DistributedCpu { topology, strategy, overlap, diagonals, depth } => {
                let depth_opt = match depth {
                    HaloDepth::Fixed(1) => None,
                    HaloDepth::Fixed(k) => Some(k.to_string()),
                    HaloDepth::Auto => Some("auto".to_string()),
                };
                sten_opt::pipelines::distributed_ext(
                    topology,
                    strategy.name(),
                    strategy.factors(),
                    *overlap,
                    *diagonals,
                    depth_opt.as_deref(),
                    self.fuse,
                    self.optimize,
                )
            }
            Target::Gpu => sten_opt::pipelines::gpu(self.fuse, self.optimize),
            Target::Fpga { optimized } => sten_opt::pipelines::fpga(*optimized, self.fuse),
        }
    }
}

/// The result of running the stack.
#[derive(Debug)]
pub struct Compiled {
    /// The lowered module.
    pub module: Module,
    /// Its textual form.
    pub text: String,
    /// Canonical names of the passes that ran, in order.
    pub pipeline: Vec<&'static str>,
    /// The textual pipeline the target resolved to.
    pub pipeline_string: String,
    /// Per-pass wall-clock timings (the cold run's timings on a cache
    /// hit).
    pub timings: Vec<PassTiming>,
    /// Per-(pass, function) timings of the function-anchored groups run
    /// by the parallel scheduler.
    pub func_timings: Vec<FuncTiming>,
    /// Whether the result came from the compile cache without executing
    /// any pass.
    pub cache_hit: bool,
}

/// Runs the shared stack on a stencil-level module.
///
/// The target's pipeline string ([`CompileOptions::pipeline_string`]) is
/// resolved through [`sten_opt::PassRegistry::global`] and driven by
/// [`sten_opt::Driver`], consulting the content-addressed compile cache
/// unless `options.cache` is off.
///
/// # Errors
/// Propagates the first failing pass (including per-pass verification
/// failures when `verify_each` is set) and pipeline-resolution errors.
pub fn compile(module: Module, options: &CompileOptions) -> Result<Compiled, CompileError> {
    let pipeline_string = options.pipeline_string();
    // Driver::new() shares one process-wide dialect registry
    // (sten_opt::driver::standard_dialects — the same content as
    // [`standard_registry`]), so the warm path pays no construction.
    let driver = Driver::new()
        .with_verify_each(options.verify_each)
        .with_parallelism(options.threads)
        .with_cache(options.cache.then(CompileCache::global));
    let out = driver.run_str(module, &pipeline_string)?;
    if options.timing {
        sten_opt::eprint_timing_summary(&out);
        if options.cache {
            sten_opt::eprint_cache_stats(&CompileCache::global().stats());
        }
    }
    Ok(Compiled {
        module: out.module,
        text: out.text,
        pipeline: out.pipeline,
        pipeline_string,
        timings: out.timings,
        func_timings: out.func_timings,
        cache_hit: out.cache_hit,
    })
}

/// Commonly used items for examples and downstream code.
pub mod prelude {
    pub use crate::{
        compile, standard_registry, CompileError, CompileOptions, Compiled, DecompStrategy,
        HaloDepth, Target,
    };
    pub use sten_devito::{problems, solve, Eq, Grid, Operator, OptLevel, TimeFunction};
    pub use sten_exec::{
        compile_module as compile_pipeline, compile_module_tiered as compile_pipeline_tiered,
        Runner, TierKind,
    };
    pub use sten_interp::{
        launch, launch_with, run_spmd, run_spmd_modules, ArgSpec, BufView, Interpreter, Layout,
        RankBox, RankPanic, RtValue, SimWorld,
    };
    pub use sten_ir::{parse_module, print_module, verify_module, Bounds, Module, Pass};
    pub use sten_opt::{CompileCache, Driver, PassRegistry, PipelineSpec};
    pub use sten_trace::{SpanKind, TraceReport, Tracer};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_cpu_pipeline_lowers_and_optimizes() {
        let m = sten_stencil::samples::heat_2d(32, 0.1);
        let out = compile(m, &CompileOptions::shared_cpu()).unwrap();
        assert!(out.text.contains("scf.parallel"));
        assert!(out.text.contains("scf.for"), "tiled loops present");
        assert!(!out.text.contains("stencil."));
        assert!(out.pipeline.contains(&"tile-parallel-loops"));
        assert!(out.pipeline.contains(&"cse"));
    }

    #[test]
    fn distributed_pipeline_reaches_func_level() {
        let m = sten_stencil::samples::jacobi_1d(128);
        let out = compile(m, &CompileOptions::distributed(vec![2])).unwrap();
        assert!(out.text.contains("@MPI_Isend") || out.text.contains("MPI_Isend"));
        assert!(out.text.contains("1140850688"), "mpich MPI_COMM_WORLD constant");
        assert!(!out.text.contains("dmp.swap"));
    }

    #[test]
    fn overlap_option_threads_through_to_the_pipeline_and_cache_key() {
        let plain = CompileOptions::distributed(vec![2, 2]);
        let overlapped = CompileOptions::distributed(vec![2, 2]).with_overlap(true);
        assert!(overlapped.pipeline_string().contains("overlap=true"));
        assert_ne!(plain.pipeline_string(), overlapped.pipeline_string());
        let diag = CompileOptions::distributed(vec![2, 2]).with_diagonals(true);
        assert!(diag.pipeline_string().contains("diagonals=true"));
        // The overlapped pipeline compiles end-to-end and splits the
        // barrier into per-receive waits.
        let m = sten_stencil::samples::heat_2d(32, 0.1);
        let out = compile(m, &overlapped).unwrap();
        assert!(out.text.contains("MPI_Wait"), "per-receive waits survive to func level");
        // On non-distributed targets the builders are no-ops.
        let cpu = CompileOptions::shared_cpu().with_overlap(true);
        assert_eq!(cpu.pipeline_string(), CompileOptions::shared_cpu().pipeline_string());
    }

    #[test]
    fn halo_depth_option_threads_through_to_the_pipeline_and_cache_key() {
        let plain = CompileOptions::distributed(vec![2]);
        let deep = CompileOptions::distributed(vec![2]).with_halo_depth(HaloDepth::Fixed(2));
        assert!(deep.pipeline_string().contains("depth=2"));
        assert_ne!(plain.pipeline_string(), deep.pipeline_string());
        let auto = CompileOptions::distributed(vec![2]).with_halo_depth(HaloDepth::Auto);
        assert!(auto.pipeline_string().contains("depth=auto"));
        // The default depth keeps the legacy spelling (and cache key).
        let explicit = CompileOptions::distributed(vec![2]).with_halo_depth(HaloDepth::Fixed(1));
        assert_eq!(plain.pipeline_string(), explicit.pipeline_string());
        // A deep pipeline compiles end-to-end to MPI calls.
        let m = sten_stencil::samples::jacobi_1d(128);
        let out = compile(m, &deep).unwrap();
        assert!(out.text.contains("MPI_Isend"));
        // On non-distributed targets the builder is a no-op.
        let cpu = CompileOptions::shared_cpu().with_halo_depth(HaloDepth::Fixed(4));
        assert_eq!(cpu.pipeline_string(), CompileOptions::shared_cpu().pipeline_string());
    }

    #[test]
    fn gpu_pipeline_annotates_kernels() {
        let m = sten_stencil::samples::heat_2d(32, 0.1);
        let out = compile(m, &CompileOptions::gpu()).unwrap();
        assert!(out.text.contains("gpu.kernel"));
    }

    #[test]
    fn fpga_pipeline_marks_dataflow_style() {
        let m = sten_stencil::samples::jacobi_1d(64);
        let initial = compile(m.clone(), &CompileOptions::fpga(false)).unwrap();
        assert!(initial.text.contains("von-neumann"));
        let optimized = compile(m, &CompileOptions::fpga(true)).unwrap();
        assert!(optimized.text.contains("shift-buffer"));
    }

    #[test]
    fn compiled_modules_execute_correctly() {
        // Compile through the full shared-CPU pipeline and compare the
        // executed result against the stencil-level reference.
        let n = 24i64;
        let mut reference = sten_stencil::samples::heat_2d(n, 0.1);
        sten_ir::Pass::run(&sten_stencil::ShapeInference, &mut reference).unwrap();
        let size = ((n + 2) * (n + 2)) as usize;
        let init: Vec<f64> = (0..size).map(|i| (i as f64 * 0.09).sin()).collect();

        let run = |m: &Module| {
            let src = sten_interp::BufView::from_data(vec![n + 2, n + 2], init.clone());
            let dst = sten_interp::BufView::from_data(vec![n + 2, n + 2], init.clone());
            sten_interp::Interpreter::new(m)
                .call_function(
                    "heat",
                    vec![
                        sten_interp::RtValue::Buffer(src),
                        sten_interp::RtValue::Buffer(dst.clone()),
                    ],
                )
                .unwrap();
            dst.to_vec()
        };
        let want = run(&reference);
        let compiled =
            compile(sten_stencil::samples::heat_2d(n, 0.1), &CompileOptions::shared_cpu()).unwrap();
        let got = run(&compiled.module);
        assert_eq!(got, want, "optimized pipeline preserves semantics");
    }

    #[test]
    fn registry_covers_all_dialects() {
        let reg = standard_registry();
        for d in ["arith", "builtin", "dmp", "func", "llvm", "memref", "mpi", "scf", "stencil"] {
            assert!(reg.dialects().contains(&d), "missing {d}");
        }
        assert!(reg.len() > 55, "got {}", reg.len());
    }
}
