//! `sten-opt` — the stack's `mlir-opt`/`xdsl-opt`: textual IR in, a pass
//! pipeline over it, textual IR out.
//!
//! ```text
//! sten-opt [FILE] -p "shape-inference,convert-stencil-to-loops,canonicalize"
//! sten-opt kernel.ir --target distributed --timing -o lowered.ir
//! sten-opt --list-passes
//! ```

use std::io::{Read as _, Write as _};
use std::process::ExitCode;

use sten_opt::{pipelines, CompileCache, Driver, PassRegistry};

const USAGE: &str = "\
usage: sten-opt [FILE|-] [options]

Reads a module in the stack's textual IR (stdin when FILE is absent or
'-'), runs a pass pipeline over it, and prints the resulting IR.

options:
  -p, --pipeline <str>     comma-separated pass pipeline, e.g.
                           \"shape-inference,tile-parallel-loops{tile=32:4}\"
      --target <name>      use a registered target pipeline instead of -p:
                           shared-cpu | distributed | gpu | fpga | fpga-optimized
  -o, --output <file>      write the lowered IR to <file> instead of stdout
      --verify-each        verify the module after every pass (whole-module
                           after module-anchored passes, per-function after
                           func.func-anchored ones)
      --timing             print a per-pass timing report (with per-function
                           breakdown, executor-tier selection for every
                           compilable stencil function, and cache counters)
                           to stderr; on distributed pipelines the step
                           structure gains measured per-step durations and
                           an aggregated comm/compute overlap report from a
                           short traced SPMD execution
      --trace-out <file>   write a Chrome trace (Perfetto-loadable JSON) of
                           the compile — one span per executed pass, plus
                           the traced SPMD execution when --timing runs a
                           distributed pipeline — to <file>; a warm compile
                           records one compile-cache-hit span (pass
                           --no-cache to force per-pass spans)
      --threads <n>        worker threads for func.func-anchored pass groups:
                           0 = one per core (default; or $STEN_OPT_THREADS)
      --no-parallel        shorthand for --threads 1 (deterministic timing;
                           results are identical either way)
      --print-ir-after-all print the IR after every pass to stderr
      --no-cache           bypass the content-addressed compilation cache
      --cache-stats        print cache hit/miss counters to stderr
      --show-pipeline      print the resolved pipeline string and exit
      --list-passes        list registered passes and exit
  -h, --help               show this help
";

struct Args {
    input: Option<String>,
    output: Option<String>,
    pipeline: Option<String>,
    target: Option<String>,
    threads: Option<usize>,
    trace_out: Option<String>,
    verify_each: bool,
    timing: bool,
    print_ir_after_all: bool,
    no_cache: bool,
    cache_stats: bool,
    show_pipeline: bool,
    list_passes: bool,
    help: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        input: None,
        output: None,
        pipeline: None,
        target: None,
        threads: None,
        trace_out: None,
        verify_each: false,
        timing: false,
        print_ir_after_all: false,
        no_cache: false,
        cache_stats: false,
        show_pipeline: false,
        list_passes: false,
        help: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value_of =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "-p" | "--pipeline" => args.pipeline = Some(value_of(arg)?),
            "--target" => args.target = Some(value_of(arg)?),
            "-o" | "--output" => args.output = Some(value_of(arg)?),
            "--threads" => {
                let v = value_of(arg)?;
                args.threads = Some(
                    v.parse().map_err(|_| format!("--threads expects an integer, got '{v}'"))?,
                );
            }
            "--no-parallel" => args.threads = Some(1),
            "--trace-out" => args.trace_out = Some(value_of(arg)?),
            "--verify-each" => args.verify_each = true,
            "--timing" => args.timing = true,
            "--print-ir-after-all" => args.print_ir_after_all = true,
            "--no-cache" => args.no_cache = true,
            "--cache-stats" => args.cache_stats = true,
            "--show-pipeline" => args.show_pipeline = true,
            "--list-passes" => args.list_passes = true,
            "-h" | "--help" => args.help = true,
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown option '{other}'"));
            }
            other => {
                if args.input.is_some() {
                    return Err(format!("unexpected extra input '{other}'"));
                }
                args.input = Some(other.to_string());
            }
        }
    }
    Ok(args)
}

fn resolve_pipeline(args: &Args) -> Result<String, String> {
    match (&args.pipeline, &args.target) {
        (Some(_), Some(_)) => Err("-p/--pipeline and --target are mutually exclusive".into()),
        (Some(p), None) => Ok(p.clone()),
        (None, Some(t)) => pipelines::named(t).ok_or_else(|| {
            format!(
                "unknown target '{t}' (expected one of: {})",
                pipelines::TARGET_NAMES.join(", ")
            )
        }),
        (None, None) => Err("no pipeline: pass -p/--pipeline or --target".into()),
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    if args.help {
        print!("{USAGE}");
        return Ok(());
    }

    if args.list_passes {
        println!("registered passes (with their operation anchor):");
        for (name, summary) in PassRegistry::global().passes() {
            let anchor = PassRegistry::global().anchor(name).map_or("", sten_ir::PassKind::anchor);
            println!("  {name:<32} [{anchor:<14}] {summary}");
        }
        println!("\nregistered target pipelines:");
        for target in pipelines::TARGET_NAMES {
            println!("  {target:<16} {}", pipelines::named(target).expect("registered"));
        }
        return Ok(());
    }

    let pipeline = resolve_pipeline(&args)?;
    if args.show_pipeline {
        println!("{pipeline}");
        return Ok(());
    }
    let pipeline_for_report = pipeline.clone();

    let source = match args.input.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
    };
    let module = sten_ir::parse_module(&source).map_err(|e| format!("parse error: {e}"))?;
    // Tier selection happens at the (pre-lowering) stencil level, so the
    // `--timing` report derives it from the input module.
    let tier_module = if args.timing { Some(module.clone()) } else { None };

    // Flag > env > default, so CI can pin the scheduler without
    // rewriting every invocation.
    let threads = match args.threads {
        Some(n) => n,
        None => match std::env::var("STEN_OPT_THREADS") {
            Ok(v) => {
                v.parse().map_err(|_| format!("STEN_OPT_THREADS expects an integer, got '{v}'"))?
            }
            Err(_) => 0,
        },
    };
    let tracer = if args.trace_out.is_some() {
        sten_trace::Tracer::new()
    } else {
        sten_trace::Tracer::disabled()
    };
    let driver = Driver::new()
        .with_verify_each(args.verify_each)
        .with_print_ir_after_all(args.print_ir_after_all)
        .with_parallelism(threads)
        .with_trace(&tracer)
        .with_cache(if args.no_cache { None } else { Some(CompileCache::global()) });
    let out = driver.run_str(module, &pipeline).map_err(|e| e.to_string())?;

    for (pass, ir) in &out.ir_after {
        eprintln!("// -----// IR Dump After {pass} //----- //");
        eprintln!("{ir}");
    }
    if args.timing {
        sten_opt::eprint_timing_summary(&out);
        eprint_tier_report(tier_module, &pipeline_for_report, &tracer);
    }
    if args.cache_stats || (args.timing && !args.no_cache) {
        sten_opt::eprint_cache_stats(&CompileCache::global().stats());
    }
    if let Some(path) = args.trace_out.as_deref() {
        let json = sten_trace::chrome::to_json(&tracer.events(), &[]);
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    }

    match args.output.as_deref() {
        None => {
            std::io::stdout()
                .write_all(out.text.as_bytes())
                .map_err(|e| format!("writing stdout: {e}"))?;
        }
        Some(path) => {
            std::fs::write(path, &out.text).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Prints the executor tier each compilable stencil function would run
/// under (`sten-exec` kernel specialization). Functions that don't
/// compile to a pipeline (already lowered, or unsupported bodies) are
/// silently skipped — the report covers whatever the input still exposes
/// at the stencil level.
///
/// For distributed pipelines the report first replays the pipeline's own
/// `distribute-stencil` invocation (plus shape inference) on the input
/// copy, so the executable steps — including the interior/boundary split
/// of `overlap=true` swaps — are reported exactly as a `Runner` would
/// execute them. It then actually executes a few traced SPMD timesteps
/// over a SimMPI world on synthetic data, folding measured per-step
/// durations into the step lines plus the aggregated comm/compute
/// overlap report ([`sten_trace::report::TraceReport`]). The traced
/// events land in `tracer` (the `--trace-out` sink) when it is enabled.
fn eprint_tier_report(
    module: Option<sten_ir::Module>,
    pipeline: &str,
    tracer: &sten_trace::Tracer,
) {
    use sten_ir::Pass as _;
    let Some(mut m) = module else { return };
    if sten_stencil::ShapeInference.run(&mut m).is_err() {
        return;
    }
    let undistributed = m.clone();
    let mut distribute_invocation = None;
    let mut distributed = false;
    if let Ok(spec) = sten_opt::PipelineSpec::parse(pipeline) {
        if let Some(invocation) = spec
            .invocations()
            .into_iter()
            .find(|i| PassRegistry::global().canonical_name(&i.name) == "distribute-stencil")
        {
            let ctx =
                sten_opt::PassContext { registry: std::sync::Arc::clone(Driver::new().dialects()) };
            if let Ok(pass) = PassRegistry::global().instantiate(invocation, &ctx) {
                if pass.run(&mut m).is_ok() && sten_stencil::ShapeInference.run(&mut m).is_ok() {
                    distributed = true;
                    distribute_invocation = Some(invocation.clone());
                }
            }
        }
    }
    let mut lines = Vec::new();
    for op in &m.body().ops {
        if op.name != "func.func" {
            continue;
        }
        let Some(name) = op.attr("sym_name").and_then(sten_ir::Attribute::as_str) else {
            continue;
        };
        if let Ok(p) = sten_exec::compile_module(&m, name) {
            // Distributed modules report the full step structure (swap
            // begin/wait phases, interior/boundary splits); plain ones
            // keep the compact tier lines.
            if distributed {
                let timed = distribute_invocation
                    .as_ref()
                    .and_then(|inv| traced_smoke_run(&undistributed, inv, name, tracer));
                match timed {
                    Some((avgs, report)) => {
                        for (i, l) in p.step_summary().into_iter().enumerate() {
                            match avgs.get(i) {
                                Some(ns) => lines.push(format!(
                                    "  @{name} {l}  — avg {:.1} µs/step",
                                    *ns as f64 / 1000.0
                                )),
                                None => lines.push(format!("  @{name} {l}")),
                            }
                        }
                        for rl in format!("{report}").lines() {
                            lines.push(format!("  @{name} {rl}"));
                        }
                    }
                    None => {
                        for l in p.step_summary() {
                            lines.push(format!("  @{name} {l}"));
                        }
                    }
                }
                for l in p.temporal_summary() {
                    lines.push(format!("  @{name} {l}"));
                }
            } else {
                for l in p.tier_summary() {
                    lines.push(format!("  @{name} {l}"));
                }
            }
            // Reduction census: how many steps fold to a scalar, and how
            // many of those rendezvous across ranks.
            let (reduces, allreduces) = p.num_reduce_steps();
            if reduces > 0 {
                lines.push(format!(
                    "  @{name} reductions: {reduces} per timestep ({allreduces} allreduced)"
                ));
            }
        }
    }
    if !lines.is_empty() {
        eprintln!("  --- executor tiers (sten-exec kernel specialization) ---");
        for l in lines {
            eprintln!("{l}");
        }
    }
}

/// Runs a few timesteps of `func` as a full traced SPMD execution over a
/// SimMPI world on synthetic data: every rank's module comes from the
/// pipeline's own `distribute-stencil` invocation re-instantiated with
/// `rank=r`. Returns the mean per-step durations (nanoseconds, in step
/// order, averaged over timesteps and ranks) and the aggregated overlap
/// report. `None` when the function has no swaps, the world would be
/// unreasonably large, or anything fails — callers fall back to the
/// unannotated step listing.
fn traced_smoke_run(
    undistributed: &sten_ir::Module,
    invocation: &sten_opt::PassInvocation,
    func: &str,
    tracer: &sten_trace::Tracer,
) -> Option<(Vec<u64>, sten_trace::report::TraceReport)> {
    use sten_ir::Pass as _;
    const TIMESTEPS: usize = 3;
    // Record into the --trace-out sink when present so the execution
    // rides along in the exported trace; otherwise into a private one.
    let tracer = if tracer.is_enabled() { tracer.clone() } else { sten_trace::Tracer::new() };
    let ctx = sten_opt::PassContext { registry: std::sync::Arc::clone(Driver::new().dialects()) };

    // One compile per rank (rank 0 also tells us the world size).
    let compile_rank = |rank: i64| {
        let mut m = undistributed.clone();
        let inv = invocation.clone().with_option("rank", rank.to_string());
        PassRegistry::global().instantiate(&inv, &ctx).ok()?.run(&mut m).ok()?;
        sten_stencil::ShapeInference.run(&mut m).ok()?;
        sten_exec::compile_module(&m, func).ok()
    };
    let probe = compile_rank(0)?;
    let grid = probe.swaps.first()?.grid.clone();
    let ranks = grid.iter().product::<i64>();
    if !(2..=8).contains(&ranks) {
        return None;
    }
    let mut pipelines = vec![probe];
    for r in 1..ranks {
        pipelines.push(compile_rank(r)?);
    }

    let steps_per_rank: Vec<usize> = pipelines.iter().map(|p| p.steps.len()).collect();
    let world = sten_interp::SimWorld::new_traced(
        ranks as usize,
        std::time::Duration::from_micros(20),
        tracer.clone(),
    );
    sten_interp::launch_with(&world, pipelines, |r, p| {
        let mut args: Vec<Vec<f64>> = p
            .arg_shapes
            .iter()
            .map(|s| {
                let len = s.iter().product::<i64>().max(0) as usize;
                (0..len).map(|i| (i as f64 * 0.01).sin()).collect()
            })
            .collect();
        let mut runner = sten_exec::Runner::new(p, 1).with_trace(&tracer, r as u32);
        // Scalar arguments get a made-up value like the fields do.
        for k in 0..runner.pipeline.scalar_inputs.len() {
            runner.set_scalar(k, 0.5);
        }
        for _ in 0..TIMESTEPS {
            runner.step_distributed(&mut args, &world, r as i64)?;
        }
        Ok::<_, String>(())
    })
    .ok()?;

    let events = tracer.events();
    let report = sten_trace::report::TraceReport::from_events(&events);
    // Mean duration per step position: rank r's main-lane step spans
    // arrive in execution order, TIMESTEPS repetitions of its step list.
    let mut sums: Vec<(u64, u64)> = vec![(0, 0); steps_per_rank[0]];
    for (r, &nsteps) in steps_per_rank.iter().enumerate() {
        let mut spans = events
            .iter()
            .filter(|e| {
                e.pid == r as u32
                    && e.tid == 0
                    && matches!(
                        e.kind,
                        sten_trace::SpanKind::Apply { .. }
                            | sten_trace::SpanKind::SwapBegin { .. }
                            | sten_trace::SpanKind::SwapWait { .. }
                            | sten_trace::SpanKind::Copy { .. }
                    )
            })
            .collect::<Vec<_>>();
        spans.sort_by_key(|e| e.start_ns);
        for (i, e) in spans.iter().enumerate() {
            let pos = i % nsteps;
            if pos < sums.len() {
                sums[pos].0 += e.dur_ns;
                sums[pos].1 += 1;
            }
        }
    }
    let avgs = sums.into_iter().map(|(total, n)| total.checked_div(n).unwrap_or(0)).collect();
    Some((avgs, report))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
