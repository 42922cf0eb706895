//! `cg_bench` — matrix-free CG on the heat operator, end to end through
//! distribute + overlap + specialize.
//!
//! Solves serially once per executor tier, then distributed (4 simulated
//! ranks, overlapped halo exchange) for every decomposition strategy ×
//! tier, asserting each residual trajectory and solution bit-identical to
//! the serial one, and times each distributed solve against the serial
//! solve of its tier in alternating pairs ([`sten_bench::instrument`]).
//! Writes `BENCH_cg.json`.
//!
//! ```text
//! cargo run --release -p sten-bench --bin cg_bench            # full
//! cargo run --release -p sten-bench --bin cg_bench -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks the grid and the pairs so the solver, the
//! determinism assertion and the JSON stay exercised in CI; smoke numbers
//! are *not* meaningful throughput. Two more checks:
//!
//! * under `tier = template-jit` every apply of both solver pipelines
//!   (`@cg_norm` and `@cg_iter`: the operator and the three updates —
//!   serial, and every rank of every strategy) must report
//!   [`TierKind::TemplateJit`]: a vector update that falls back to
//!   `eval` is most of a solve;
//! * full runs gate the serial `template-jit` solve at ≥ 7.5× faster than
//!   the serial `eval` one.
//!
//! The `folds` case says what the exact reductions cost at the serial
//! size: a stand-alone `dot` fold (`samples::reduce_nd`) and the solver's
//! `@cg_norm` pipeline (Mpts/s), and the share of a traced serial
//! `template-jit` solve spent inside `Reduce{partial}` spans.

use std::time::Duration;
use sten_bench::instrument::{paired, time, Args, Gate, Report, Value};
use sten_bench::obj;
use stencil_core::cg::{rhs, solve, solve_distributed, CgConfig, CgReport, SolverPipelines};
use stencil_core::exec::{compile_module_tiered, Runner, Step, TierKind};
use stencil_core::ir::Pass as _;
use stencil_core::stencil::{samples, ShapeInference};
use stencil_core::trace::{TraceReport, Tracer};

type Strategy = (&'static str, Option<Vec<i64>>);

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

/// One solve: serial, or on a 2×2 rank grid under `strategy`.
fn run(cfg: &CgConfig, strategy: Option<&Strategy>) -> CgReport {
    match strategy {
        None => solve(cfg).expect("serial solve"),
        Some((name, factors)) => solve_distributed(cfg, name, factors.clone(), vec![2, 2], true)
            .expect("distributed solve"),
    }
}

/// The `folds` case: reduce throughput at the serial size and the share
/// of a traced serial solve spent folding partials.
fn folds(cfg: &CgConfig, pairs: usize) -> Value {
    let p = SolverPipelines::serial(cfg).expect("pipelines");
    let mut dot = samples::reduce_nd("dot", p.rank_box.stored, p.rank_box.core);
    ShapeInference.run(&mut dot).expect("shape inference");
    let dot = compile_module_tiered(&dot, "reduce", cfg.tier).expect("dot pipeline");
    let [mut dot, mut norm2] = [(dot, 2), (p.norm2, 1)]
        .map(|(pipeline, arity)| (Runner::new(pipeline, cfg.threads), vec![rhs(cfg.n); arity]));
    let burst = |(runner, fields): &mut (Runner, Vec<Vec<f64>>)| {
        time(|| (0..10).for_each(|_| runner.step(fields).expect("reduce step"))) / 10
    };
    let r = paired(|| burst(&mut dot), || burst(&mut norm2), pairs);
    let mpts = |t: Duration| (cfg.n * cfg.n) as f64 / t.as_secs_f64() / 1e6;
    let traced = CgConfig { tracer: Tracer::new(), ..cfg.clone() };
    let solve_ns = time(|| drop(solve(&traced).expect("traced serial solve"))).as_nanos().max(1);
    let fold_ns = TraceReport::from_events(&traced.tracer.events()).reduce_partial_ns;
    let share = fold_ns as f64 / solve_ns as f64;
    obj! {
        "name": "folds", "dot_mpts_per_s": mpts(r.a), "norm2_mpts_per_s": mpts(r.b),
        "norm2_vs_dot": r, "share_of_serial_solve": share,
    }
}

fn main() {
    let args = Args::parse("BENCH_cg.json", Some(1));
    let n = if args.smoke { 24 } else { 192 };
    let pairs = if args.smoke { 3 } else { 5 };
    let strategies: [Strategy; 3] = [
        ("standard-slicing", None),
        ("recursive-bisection", None),
        ("custom-grid", Some(vec![2, 2])),
    ];
    let [eval_cfg, jit_cfg] = TierKind::ALL.map(|tier| CgConfig {
        threads: args.threads,
        tier: Some(tier),
        ..CgConfig::new(n)
    });
    assert_all_template_jit(&SolverPipelines::serial(&jit_cfg).expect("pipelines"), "serial");
    for (sname, factors) in &strategies {
        for rank in 0..4 {
            let p =
                SolverPipelines::for_rank(&jit_cfg, sname, factors.clone(), &[2, 2], true, rank)
                    .expect("pipelines");
            assert_all_template_jit(&p, &format!("{sname} rank {rank}"));
        }
    }

    let mut report = Report::new(&args);
    let gate = Gate::floor("serial template-jit solve over eval", 7.5);
    let jit_vs_eval = report.full_gate(&gate, || {
        paired(|| time(|| drop(run(&jit_cfg, None))), || time(|| drop(run(&eval_cfg, None))), pairs)
    });
    for (cfg, serial_secs) in [(&eval_cfg, jit_vs_eval.b), (&jit_cfg, jit_vs_eval.a)] {
        let tname = cfg.tier.expect("pinned tier").name();
        let serial = run(cfg, None);
        assert!(serial.converged, "serial CG must converge");
        let gpts = |secs: Duration| serial.apply_points(n) as f64 / secs.as_secs_f64() / 1e9;
        report.case(obj! {
            "name": format!("serial/{tname}"), "n": n, "iterations": serial.iterations,
            "converged": serial.converged, "residuals": serial.residuals.clone(),
            "seconds": serial_secs, "gpts_per_s": gpts(serial_secs),
        });
        for strategy in &strategies {
            let dist = run(cfg, Some(strategy));
            let name = format!("{}/{tname}", strategy.0);
            let bits = |r: &CgReport| r.residuals.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&serial) == bits(&dist) && serial.x == dist.x,
                "{name}: the distributed trajectory diverged from serial — determinism bug"
            );
            let r = paired(
                || time(|| drop(run(cfg, None))),
                || time(|| drop(run(cfg, Some(strategy)))),
                pairs,
            );
            report.case(obj! {
                "name": name, "ranks": 4usize, "iterations": dist.iterations,
                "bit_identical_to_serial": true, "seconds": r.b, "gpts_per_s": gpts(r.b),
                "vs_serial": r,
            });
        }
    }
    report.case(folds(&jit_cfg, 31));
    report.write(&args.out);
}
