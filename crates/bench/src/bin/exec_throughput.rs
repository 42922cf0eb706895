//! `exec_throughput` — wall-clock Gpts/s of the sten-exec executor tiers.
//!
//! Measures jacobi-1d / heat-2d / heat-3d and CG's `axpy` (a runtime
//! scalar coefficient, set before every step) through both executor
//! tiers (`eval` → `template-jit`) plus one
//! multi-threaded run through the persistent worker pool, prints a
//! table, and emits `BENCH_exec.json` so the perf trajectory is
//! recorded in-repo.
//!
//! ```text
//! cargo run --release -p sten-bench --bin exec_throughput            # full
//! cargo run --release -p sten-bench --bin exec_throughput -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks the grids and pins 1 rep so tier selection and the
//! JSON emitter stay exercised in CI without burning minutes; numbers
//! from smoke mode are *not* meaningful throughput. Two checks run in
//! both modes:
//!
//! * every tier's output is compared bit-for-bit against the `eval`
//!   reference before timing (recorded as `"bit_identical"` per
//!   kernel);
//! * a template-JIT vs `eval` gate (the fast path against the fallback
//!   it would otherwise land on): at least 7.5x on every kernel in full
//!   mode; in smoke mode a 3x floor (re-measured best-of-3 before
//!   failing) since tiny grids are dominated by per-row dispatch noise.

use std::fmt::Write as _;
use std::time::Instant;
use stencil_core::exec::{Pipeline, Runner, Step, TierKind};
use stencil_core::ir::Pass as _;
use stencil_core::prelude::*;
use stencil_core::trace::chrome;

struct Args {
    smoke: bool,
    out: String,
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, out: "BENCH_exec.json".into(), threads: 0 };
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
    if args.threads == 0 {
        // Floor at 2 so the worker-pool path is exercised even on
        // single-CPU CI boxes (oversubscribed, but correctness-relevant).
        args.threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
    }
    args
}

struct Case {
    name: &'static str,
    func: &'static str,
    module: Module,
}

fn cases(smoke: bool) -> Vec<Case> {
    let mut jacobi = stencil_core::stencil::samples::jacobi_1d(if smoke { 4096 } else { 1 << 21 });
    let mut heat2d = stencil_core::stencil::samples::heat_2d(if smoke { 48 } else { 1024 }, 0.1);
    stencil_core::stencil::ShapeInference.run(&mut jacobi).unwrap();
    stencil_core::stencil::ShapeInference.run(&mut heat2d).unwrap();
    // 3D heat comes through the Devito frontend (no 3D hand-built
    // sample): `step` updates u(t+1) from u(t) with a 7-point star.
    let n3 = if smoke { 12 } else { 64 };
    let heat3d = stencil_core::devito::problems::heat(&[n3, n3, n3], 2, 0.5)
        .expect("heat-3d operator")
        .compile()
        .expect("heat-3d compiles");
    // The scalar lane: `out = a + α·b`, α a function argument.
    let na = if smoke { 64 } else { 1024 };
    let field = Bounds::new(vec![(0, na), (0, na)]);
    let mut axpy = stencil_core::stencil::samples::axpy(field.clone(), field);
    stencil_core::stencil::ShapeInference.run(&mut axpy).unwrap();
    vec![
        Case { name: "jacobi-1d", func: "jacobi", module: jacobi },
        Case { name: "heat-2d", func: "heat", module: heat2d },
        Case { name: "heat-3d", func: "step", module: heat3d },
        Case { name: "axpy", func: "axpy", module: axpy },
    ]
}

/// One timestep, every runtime scalar argument set first — to a value
/// that differs from the previous step's, as a solver's α does.
fn step(runner: &mut Runner, args: &mut [Vec<f64>], index: usize) -> Result<(), String> {
    for k in 0..runner.pipeline.scalar_inputs.len() {
        runner.set_scalar(k, 0.25 + 0.125 * ((index + k) % 5) as f64);
    }
    runner.step(args)
}

fn selected_tier(p: &Pipeline) -> &'static str {
    p.steps
        .iter()
        .find_map(|s| match s {
            Step::Apply { kernel, .. } => Some(kernel.tier_kind().name()),
            _ => None,
        })
        .unwrap_or("none")
}

fn seed_args(p: &Pipeline) -> Vec<Vec<f64>> {
    p.arg_shapes
        .iter()
        .map(|s| {
            let len = s.iter().product::<i64>().max(0) as usize;
            (0..len).map(|i| (i as f64 * 0.001).sin()).collect()
        })
        .collect()
}

/// Runs `steps` timesteps of the pipeline under `tier` and returns the
/// final argument buffers (fresh-seeded; used for bit-identity checks).
fn run_for_bits(
    pipeline: &Pipeline,
    tier: Option<TierKind>,
    threads: usize,
    steps: usize,
) -> Vec<Vec<f64>> {
    let mut p = pipeline.clone();
    p.respecialize(tier);
    let mut args = seed_args(&p);
    let mut runner = Runner::new(p, threads);
    for i in 0..steps {
        step(&mut runner, &mut args, i).expect("bit-identity step");
    }
    args
}

/// Asserts every non-eval tier produces bit-for-bit the buffers the
/// `eval` reference produces, serially and through the worker pool.
fn check_bit_identity(
    pipeline: &Pipeline,
    tiers: &[(&'static str, Option<TierKind>)],
    threads: usize,
    kernel: &str,
) {
    let reference = run_for_bits(pipeline, Some(TierKind::Eval), 1, 3);
    for &(name, tier) in tiers {
        for thr in [1, threads] {
            let got = run_for_bits(pipeline, tier, thr, 3);
            assert_eq!(reference.len(), got.len());
            for (b, (r, g)) in reference.iter().zip(&got).enumerate() {
                for (i, (x, y)) in r.iter().zip(g).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "{kernel}: tier {name} (threads={thr}) diverged from eval \
                         at buffer {b} index {i}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }
}

struct Measurement {
    requested: &'static str,
    selected: &'static str,
    threads: usize,
    reps: usize,
    seconds: f64,
    gpts_per_s: f64,
}

/// Runs `reps` timesteps (after one warm-up step) and returns the
/// measurement. Buffers are re-seeded per tier so every tier sees the
/// same data. The reported thread count is [`Runner::effective_threads`]
/// — the actual pool size, not the request (a `threads <= 1` request
/// never spawns a pool).
fn measure(
    pipeline: &Pipeline,
    requested: &'static str,
    tier: Option<TierKind>,
    threads: usize,
    smoke: bool,
    tracer: Option<(&Tracer, u32)>,
) -> Measurement {
    let mut p = pipeline.clone();
    p.respecialize(tier);
    let selected = selected_tier(&p);
    let points = p.points_per_step();
    let mut args = seed_args(&p);
    let mut runner = Runner::new(p, threads);
    if let Some((t, pid)) = tracer {
        runner = runner.with_trace(t, pid);
    }
    let threads = runner.effective_threads();
    step(&mut runner, &mut args, 0).expect("warm-up step");
    let reps = if smoke {
        1
    } else {
        // Calibrate to ~0.5 s per tier.
        let t0 = Instant::now();
        step(&mut runner, &mut args, 1).expect("calibration step");
        let per = t0.elapsed().as_secs_f64().max(1e-6);
        ((0.5 / per).ceil() as usize).clamp(1, 10_000)
    };
    let t0 = Instant::now();
    for i in 0..reps {
        step(&mut runner, &mut args, 2 + i).expect("timed step");
    }
    let seconds = t0.elapsed().as_secs_f64().max(1e-9);
    Measurement {
        requested,
        selected,
        threads,
        reps,
        seconds,
        gpts_per_s: points as f64 * reps as f64 / seconds / 1e9,
    }
}

fn main() {
    let args = parse_args();
    let tiers = TierKind::ALL.map(|t| (t.name(), Some(t)));
    let jit_floor = if args.smoke { 3.0 } else { 7.5 };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"sten-exec-throughput/v4\",");
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    // Actual pool size for the auto-parallel rows: requests <= 1 run
    // serially (no pool), larger requests spawn exactly that many.
    let parallel_threads = if args.threads > 1 { args.threads } else { 1 };
    let _ = writeln!(json, "  \"parallel_threads\": {parallel_threads},");
    let _ = writeln!(json, "  \"kernels\": [");
    let mut rows = Vec::new();
    let mut trace_overhead = None;
    let mut jit_vs_eval: Vec<(&'static str, f64)> = Vec::new();
    let artifact_tracer = Tracer::new();
    let mut trace_names: Vec<(u32, String)> = Vec::new();
    let cases = cases(args.smoke);
    for (ci, case) in cases.iter().enumerate() {
        let pipeline = compile_pipeline(&case.module, case.func).expect("pipeline compiles");
        let grid = pipeline.arg_shapes[0].clone();
        let points = pipeline.points_per_step();
        check_bit_identity(&pipeline, &tiers[1..], args.threads, case.name);
        let mut ms: Vec<Measurement> = tiers
            .iter()
            .map(|&(name, tier)| measure(&pipeline, name, tier, 1, args.smoke, None))
            .collect();
        let eval_gpts = ms[0].gpts_per_s;
        ms.push(measure(&pipeline, "auto-parallel", None, args.threads, args.smoke, None));

        // Template-JIT perf gate vs the fallback tier, `eval`. Smoke
        // grids are dispatch-noise dominated, so the smoke floor is lower
        // and re-measured best-of-3 before failing.
        let mut ratio = ms[1].gpts_per_s / ms[0].gpts_per_s;
        let retries = if args.smoke { 3 } else { 0 };
        for _ in 0..retries {
            if ratio >= jit_floor {
                break;
            }
            let [eval, jit] =
                tiers.map(|(name, tier)| measure(&pipeline, name, tier, 1, true, None));
            ratio = ratio.max(jit.gpts_per_s / eval.gpts_per_s);
        }
        assert!(
            ratio >= jit_floor,
            "{}: template-jit must stay >= {jit_floor}x over eval ({ratio:.2}x)",
            case.name
        );
        jit_vs_eval.push((case.name, ratio));

        // A short traced re-run per kernel feeds the trace
        // artifact (one pid per kernel, worker lanes as sub-tracks).
        let _ = measure(
            &pipeline,
            "auto-parallel",
            None,
            args.threads.min(4),
            true,
            Some((&artifact_tracer, ci as u32)),
        );
        trace_names.push((ci as u32, case.name.to_string()));
        if case.name == "heat-2d" {
            // Disabled-sink overhead: attaching a disabled tracer to the
            // runner must not cost throughput. Reps are interleaved
            // (baseline, attached, baseline, ...) so slow machine drift
            // lands on both sides; best-of-N drops scheduler noise.
            let overhead_reps = if args.smoke { 1 } else { 5 };
            let disabled = Tracer::disabled();
            let run = |tr: Option<(&Tracer, u32)>| {
                measure(&pipeline, "auto", None, 1, args.smoke, tr).gpts_per_s
            };
            let mut baseline = 0.0f64;
            let mut attached = 0.0f64;
            for _ in 0..overhead_reps {
                baseline = baseline.max(run(None));
                attached = attached.max(run(Some((&disabled, 0))));
            }
            let delta_pct = ((baseline - attached) / baseline * 100.0).max(0.0);
            trace_overhead = Some((baseline, attached, delta_pct));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", case.name);
        let _ = writeln!(json, "      \"func\": \"{}\",", case.func);
        let _ = writeln!(
            json,
            "      \"grid\": [{}],",
            grid.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(", ")
        );
        let _ = writeln!(json, "      \"points_per_step\": {points},");
        let _ = writeln!(json, "      \"bit_identical\": true,");
        let _ = writeln!(json, "      \"jit_vs_eval\": {ratio:.3},");
        let _ = writeln!(json, "      \"measurements\": [");
        for (mi, m) in ms.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"requested\": \"{}\", \"selected\": \"{}\", \"threads\": {}, \
                 \"reps\": {}, \"seconds\": {:.6}, \"gpts_per_s\": {:.6}, \
                 \"speedup_vs_eval\": {:.3}}}{}",
                m.requested,
                m.selected,
                m.threads,
                m.reps,
                m.seconds,
                m.gpts_per_s,
                m.gpts_per_s / eval_gpts,
                if mi + 1 == ms.len() { "" } else { "," }
            );
            rows.push(vec![
                case.name.to_string(),
                m.requested.to_string(),
                m.selected.to_string(),
                m.threads.to_string(),
                m.reps.to_string(),
                format!("{:.4}", m.gpts_per_s),
                format!("{:.2}x", m.gpts_per_s / eval_gpts),
            ]);
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(json, "    }}{}", if ci + 1 == cases.len() { "" } else { "," });
    }
    let _ = writeln!(json, "  ],");
    let (ov_base, ov_attached, ov_delta) = trace_overhead.expect("heat-2d case measured");
    let _ = writeln!(
        json,
        "  \"trace_overhead\": {{\"baseline_gpts_per_s\": {ov_base:.6}, \
         \"disabled_sink_gpts_per_s\": {ov_attached:.6}, \"delta_pct\": {ov_delta:.3}}}"
    );
    let _ = writeln!(json, "}}");
    sten_bench::print_table(
        &format!(
            "sten-exec executor-tier throughput ({})",
            if args.smoke { "SMOKE — numbers not meaningful" } else { "full" }
        ),
        &["kernel", "requested", "selected", "thr", "reps", "Gpts/s", "vs eval"],
        &rows,
    );
    println!();
    for (name, r) in &jit_vs_eval {
        println!("{name} template-jit vs eval (serial): {r:.2}x");
    }
    println!(
        "disabled-sink trace overhead on heat-2d (auto tier): {ov_delta:.2}% \
         ({ov_base:.4} vs {ov_attached:.4} Gpts/s)"
    );
    if !args.smoke {
        assert!(
            ov_delta <= 2.0,
            "a disabled trace sink must cost <= 2% throughput, measured {ov_delta:.2}%"
        );
    }
    std::fs::write(&args.out, json).expect("write BENCH_exec.json");
    println!("wrote {}", args.out);

    let trace_path = format!("{}.trace.json", args.out.strip_suffix(".json").unwrap_or(&args.out));
    let trace_json = chrome::to_json(&artifact_tracer.events(), &trace_names);
    let stats = chrome::validate(&trace_json).expect("emitted trace validates");
    std::fs::write(&trace_path, trace_json).expect("write trace file");
    println!(
        "wrote {trace_path} ({} spans, {} tracks — load in Perfetto)",
        stats.spans,
        stats.tracks.len()
    );
}
