//! `cg_bench` — matrix-free CG on the heat operator, end to end through
//! distribute + overlap + specialize.
//!
//! Runs the serial reference once per executor tier, then the
//! distributed solve (4 simulated ranks, overlapped halo exchange) for
//! every decomposition strategy × tier, checking the residual
//! trajectory is bit-identical to serial every time and recording the
//! trajectory plus operator-sweep throughput in `BENCH_cg.json`.
//!
//! ```text
//! cargo run --release -p sten-bench --bin cg_bench            # full
//! cargo run --release -p sten-bench --bin cg_bench -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks the grid so the solver, the determinism assertion
//! and the JSON emitter stay exercised in CI; smoke numbers are *not*
//! meaningful throughput. Two more checks run in the binary:
//!
//! * under `tier = template-jit` every apply of both solver pipelines
//!   (`@cg_norm` and `@cg_iter`: the operator and the three updates —
//!   serial, and every rank of every strategy) must report
//!   [`TierKind::TemplateJit`]: a vector update that falls back to
//!   `eval` is most of a solve;
//! * in the full run the serial `template-jit` solve must be at least
//!   7.5x faster than the serial `eval` one.
//!
//! The `folds` object says what the exact reductions cost at the serial
//! size: a stand-alone `dot` fold (`samples::reduce_nd`) and the solver's
//! `@cg_norm` pipeline (median Mpts/s), and the share of a traced serial
//! `template-jit` solve spent inside `Reduce{partial}` spans.

use std::fmt::Write as _;
use std::time::Instant;
use stencil_core::cg::{rhs, solve, solve_distributed, CgConfig, CgReport, SolverPipelines};
use stencil_core::exec::{compile_module_tiered, Pipeline, Runner, Step, TierKind};
use stencil_core::ir::Pass as _;
use stencil_core::stencil::{samples, ShapeInference};
use stencil_core::trace::{TraceReport, Tracer};

struct Args {
    smoke: bool,
    out: String,
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, out: "BENCH_cg.json".into(), threads: 1 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--threads" => {
                args.threads = it.next().and_then(|v| v.parse().ok()).expect("--threads <n>")
            }
            other => panic!("unknown argument '{other}' (expected --smoke | --out | --threads)"),
        }
    }
    args
}

fn bit_identical(a: &CgReport, b: &CgReport) -> bool {
    a.residuals.len() == b.residuals.len()
        && a.residuals.iter().zip(&b.residuals).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Asserts no apply of the solver's pipelines fell off the template-JIT.
fn assert_all_template_jit(pipelines: &SolverPipelines, whose: &str) {
    for p in pipelines.all() {
        for step in &p.steps {
            let Step::Apply { kernel, .. } = step else { continue };
            assert!(
                kernel.tier_kind() == TierKind::TemplateJit,
                "{whose} @{}: {} under tier = template-jit",
                p.name,
                kernel.tier_label()
            );
        }
    }
}

/// Median Mpts/s of a reduce pipeline, stepped stand-alone over `arity`
/// copies of the right-hand side.
fn fold_mpts_per_s(pipeline: Pipeline, arity: usize, cfg: &CgConfig) -> f64 {
    let mut runner = Runner::new(pipeline, cfg.threads);
    let mut fields = vec![rhs(cfg.n); arity];
    let mut rates: Vec<f64> = (0..31)
        .map(|_| {
            let t0 = Instant::now();
            runner.step(&mut fields).expect("reduce step");
            (cfg.n * cfg.n) as f64 / t0.elapsed().as_secs_f64().max(1e-9) / 1e6
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// The `folds` object: reduce throughput at the serial size and the
/// share of a traced serial solve spent folding partials.
fn folds_json(cfg: &CgConfig) -> String {
    let p = SolverPipelines::serial(cfg).expect("pipelines");
    let mut dot = samples::reduce_nd("dot", p.rank_box.stored, p.rank_box.core);
    ShapeInference.run(&mut dot).expect("shape inference");
    let dot = compile_module_tiered(&dot, "reduce", cfg.tier).expect("dot pipeline");
    let dot = fold_mpts_per_s(dot, 2, cfg);
    let norm2 = fold_mpts_per_s(p.norm2, 1, cfg);
    let traced = CgConfig { tracer: Tracer::new(), ..cfg.clone() };
    let t0 = Instant::now();
    solve(&traced).expect("traced serial solve");
    let solve_ns = t0.elapsed().as_nanos().max(1) as f64;
    let fold_ns = TraceReport::from_events(&traced.tracer.events()).reduce_partial_ns as f64;
    let share = fold_ns / solve_ns;
    println!(
        "exact folds at {n}×{n}: dot {dot:.0} Mpts/s, norm2 {norm2:.0} Mpts/s, \
         {:.1}% of the serial {} solve",
        100.0 * share,
        TierKind::TemplateJit.name(),
        n = cfg.n
    );
    format!(
        "  \"folds\": {{\"dot_mpts_per_s\": {dot:.1}, \"norm2_mpts_per_s\": {norm2:.1}, \
         \"share_of_serial_solve\": {share:.4}}},\n"
    )
}

fn main() {
    let args = parse_args();
    let n = if args.smoke { 24 } else { 192 };
    let strategies: [(&str, Option<Vec<i64>>); 3] = [
        ("standard-slicing", None),
        ("recursive-bisection", None),
        ("custom-grid", Some(vec![2, 2])),
    ];

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"sten-cg/v2\",");
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"ranks\": 4,");
    let _ = writeln!(json, "  \"threads_per_rank\": {},", args.threads);

    println!("matrix-free CG, {n}×{n} interior, 4 simulated ranks, overlap on");
    println!(
        "{:<22} {:>6} {:>10} {:>12} {:>10}",
        "configuration", "iters", "‖r‖ final", "bitwise==", "Gpts/s"
    );

    let mut all_identical = true;
    let mut runs = String::new();
    let mut serial_json = String::new();
    let mut serial_secs = Vec::new();
    for (ti, tier) in TierKind::ALL.into_iter().enumerate() {
        let tname = tier.name();
        let cfg = CgConfig { threads: args.threads, tier: Some(tier), ..CgConfig::new(n) };
        if tier == TierKind::TemplateJit {
            assert_all_template_jit(&SolverPipelines::serial(&cfg).expect("pipelines"), "serial");
            for &(sname, ref factors) in &strategies {
                for rank in 0..4 {
                    let p = SolverPipelines::for_rank(
                        &cfg,
                        sname,
                        factors.clone(),
                        &[2, 2],
                        true,
                        rank,
                    )
                    .expect("pipelines");
                    assert_all_template_jit(&p, &format!("{sname} rank {rank}"));
                }
            }
        }
        let t0 = Instant::now();
        let serial = solve(&cfg).expect("serial solve");
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        let gpts = serial.apply_points(n) as f64 / secs / 1e9;
        assert!(serial.converged, "serial CG must converge");
        serial_secs.push(secs);
        println!(
            "{:<22} {:>6} {:>10.3e} {:>12} {:>10.3}",
            format!("serial/{tname}"),
            serial.iterations,
            serial.residuals.last().unwrap(),
            "-",
            gpts
        );
        if ti == 0 {
            // The residual trajectory is identical across tiers-with-
            // reductions by construction; record it once.
            let traj: Vec<String> = serial.residuals.iter().map(|r| format!("{r:e}")).collect();
            let _ = writeln!(serial_json, "  \"iterations\": {},", serial.iterations);
            let _ = writeln!(serial_json, "  \"converged\": {},", serial.converged);
            let _ = writeln!(serial_json, "  \"residuals\": [{}],", traj.join(", "));
        }
        let _ = writeln!(runs, "    {{");
        let _ = writeln!(runs, "      \"mode\": \"serial\", \"tier\": \"{tname}\",");
        let _ = writeln!(runs, "      \"iterations\": {},", serial.iterations);
        let _ = writeln!(runs, "      \"seconds\": {secs:.6}, \"gpts_per_s\": {gpts:.6}");
        let _ = writeln!(runs, "    }},");

        for &(sname, ref factors) in &strategies {
            let t0 = Instant::now();
            let dist = solve_distributed(&cfg, sname, factors.clone(), vec![2, 2], true)
                .expect("distributed solve");
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            let gpts = dist.apply_points(n) as f64 / secs / 1e9;
            let same = bit_identical(&serial, &dist) && dist.x == serial.x;
            all_identical &= same;
            println!(
                "{:<22} {:>6} {:>10.3e} {:>12} {:>10.3}",
                format!("{sname}/{tname}"),
                dist.iterations,
                dist.residuals.last().unwrap(),
                same,
                gpts
            );
            let _ = writeln!(runs, "    {{");
            let _ = writeln!(
                runs,
                "      \"mode\": \"distributed\", \"strategy\": \"{sname}\", \"tier\": \"{tname}\","
            );
            let _ = writeln!(runs, "      \"iterations\": {},", dist.iterations);
            let _ = writeln!(runs, "      \"bit_identical_to_serial\": {same},");
            let _ = writeln!(runs, "      \"seconds\": {secs:.6}, \"gpts_per_s\": {gpts:.6}");
            let _ = writeln!(runs, "    }},");
        }
    }
    json.push_str(&serial_json);
    json.push_str(&folds_json(&CgConfig {
        threads: args.threads,
        tier: Some(TierKind::TemplateJit),
        ..CgConfig::new(n)
    }));
    let _ = writeln!(json, "  \"runs\": [");
    json.push_str(runs.trim_end().trim_end_matches(','));
    let _ = writeln!(json);
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"all_bit_identical\": {all_identical}");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH_cg.json");
    println!("\nwrote {}", args.out);
    assert!(all_identical, "a distributed trajectory diverged from serial — determinism bug");
    // `TierKind::ALL` is bottom of the ladder first: eval, template-jit.
    let jit_speedup = serial_secs[0] / serial_secs[1];
    println!("serial template-jit vs eval: {jit_speedup:.2}x");
    assert!(
        args.smoke || jit_speedup >= 7.5,
        "the serial template-jit solve must be >= 7.5x faster than eval ({jit_speedup:.2}x)"
    );
}
