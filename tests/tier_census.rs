//! Tier census: which executor tier every shipped kernel selects.
//!
//! The two-rung ladder rests on one claim — the template-JIT serves
//! every affine kernel the frontends produce, at any space order — so
//! the claim is a test: every `stencil.apply` of every sample, Devito
//! operator (heat and acoustic wave, space orders 2–16, 2D and 3D) and
//! PSyclone kernel, before and after the two fusion passes, and of the
//! CG solver's four pipelines, must select `template-jit`, except an
//! explicit allow-list that lands on the `eval` fallback — and every
//! entry of that list must still land there.

use std::collections::{BTreeSet, HashMap};
use stencil_stack::cg::{CgConfig, SolverPipelines};
use stencil_stack::exec::{compile_module_tiered, Pipeline, Runner, Step, TierKind};
use stencil_stack::ir::{Attribute, Bounds, Module, Pass as _};
use stencil_stack::stencil::{samples, HorizontalFusion, ShapeInference, StencilFusion};
use stencil_stack::{devito, psyclone};

/// Functions whose applies may fall back to `eval`, and the reason the
/// template-JIT gives for rejecting them.
const EVAL_FALLBACK: [(&str, &str); 1] = [("pw_advection", "load·load product")];

const SPACE_ORDERS: [usize; 5] = [2, 4, 8, 12, 16];

fn devito_ops(so: usize) -> Vec<(String, devito::Operator)> {
    let mut ops = Vec::new();
    for (dims, shape) in [(2, vec![32i64, 32]), (3, vec![24i64, 24, 24])] {
        ops.push((format!("heat-{dims}d-so{so}"), devito::problems::heat(&shape, so, 0.5)));
        ops.push((
            format!("wave-{dims}d-so{so}"),
            devito::problems::acoustic_wave(&shape, so, 1.5),
        ));
    }
    ops.into_iter().map(|(n, op)| (n, op.unwrap())).collect()
}

/// Every shipped stencil-level module, shape-inferred.
fn shipped_modules() -> Vec<(String, Module)> {
    let line = |n| Bounds::new(vec![(0, n)]);
    let mut modules: Vec<(String, Module)> = vec![
        ("jacobi_1d".into(), samples::jacobi_1d(64)),
        ("heat_2d".into(), samples::heat_2d(32, 0.1)),
        ("heat_2d_many".into(), samples::heat_2d_many(3, 32, 0.1)),
        ("two_stage_1d".into(), samples::two_stage_1d(64)),
        ("reduce_nd".into(), samples::reduce_nd("dot", line(64), line(64))),
        ("jacobi_with_norm".into(), samples::jacobi_with_norm(64)),
        ("axpy".into(), samples::axpy(line(64), line(64))),
    ];
    for so in SPACE_ORDERS {
        for (name, op) in devito_ops(so) {
            modules.push((name, op.compile().unwrap()));
        }
    }
    // The PSyclone builders return the fused module; re-lower the
    // recognized kernel for the unfused one.
    let pw = psyclone::kernels::pw_advection(16, 16, 16).unwrap();
    let tra = psyclone::kernels::tracer_advection(16, 16, 16).unwrap();
    let scalars = |kv: &[(&str, f64)]| -> HashMap<String, f64> {
        kv.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    };
    for (bench, scalars) in [
        (&pw, scalars(&[("tcx", 0.1), ("tcy", 0.1), ("tcz", 0.05)])),
        (&tra, scalars(&[("cfl", 0.2), ("dlim", 0.05)])),
    ] {
        let unfused = psyclone::lower_subroutine(&bench.kernel, &scalars).unwrap();
        modules.push((bench.kernel.name.clone(), unfused));
    }
    for (_, m) in &mut modules {
        ShapeInference.run(m).unwrap();
    }
    modules
}

fn fused(mut m: Module) -> Module {
    StencilFusion.run(&mut m).unwrap();
    HorizontalFusion.run(&mut m).unwrap();
    ShapeInference.run(&mut m).unwrap();
    m
}

/// Auto-selected pipelines of every function of `m`.
fn pipelines(m: &Module) -> Vec<(String, Pipeline)> {
    m.body()
        .ops
        .iter()
        .filter_map(|op| op.attr("sym_name").and_then(Attribute::as_str))
        .map(|f| (f.to_string(), compile_module_tiered(m, f, None).unwrap()))
        .collect()
}

/// The two pipelines of a CG solve as `cg::solve_distributed` builds
/// them for rank 0 of a 2-rank world: `@cg_norm`, and `@cg_iter` with
/// the operator on its rank-local box (overlapped: interior + shells)
/// and the three updates.
fn cg_pipelines() -> Vec<(String, Pipeline)> {
    let p =
        SolverPipelines::for_rank(&CgConfig::new(32), "standard-slicing", None, &[2, 1], true, 0)
            .unwrap();
    [("cg_norm", p.norm2), ("cg_iter", p.iteration)].map(|(f, p)| (f.to_string(), p)).into()
}

#[test]
fn every_shipped_kernel_selects_template_jit_or_is_allow_listed() {
    // (where the pipeline comes from, its function, the pipeline)
    let mut census: Vec<(String, String, Pipeline)> = Vec::new();
    for (name, module) in shipped_modules() {
        for (stage, m) in [("unfused", module.clone()), ("fused", fused(module))] {
            for (func, p) in pipelines(&m) {
                census.push((format!("{name} ({stage})"), func, p));
            }
        }
    }
    census.extend(cg_pipelines().into_iter().map(|(func, p)| ("cg".to_string(), func, p)));

    let mut jit = 0;
    let mut fell_back = BTreeSet::new();
    for (origin, func, p) in &census {
        for step in &p.steps {
            let Step::Apply { kernel, .. } = step else { continue };
            let label = kernel.tier_label();
            if kernel.tier_kind() == TierKind::TemplateJit {
                jit += 1;
                continue;
            }
            let Some(&(listed, reason)) = EVAL_FALLBACK.iter().find(|(f, _)| f == func) else {
                panic!("{origin} @{func}: {label} is off the fast path and not allow-listed");
            };
            assert_eq!(kernel.tier_kind(), TierKind::Eval, "{origin} @{func}: {label}");
            assert!(
                label.starts_with("eval (")
                    && label.ends_with(&format!("; template-jit rejected: {reason})")),
                "{origin} @{func}: {label} does not give the allow-listed reason"
            );
            fell_back.insert(listed);
        }
    }
    // The census covers real traffic, and no allow-list entry is stale:
    // each one was seen on the fallback.
    assert!(jit >= 80, "only {jit} template-jit applies counted");
    for (func, _) in EVAL_FALLBACK {
        assert!(fell_back.contains(func), "@{func} is allow-listed but no longer falls back");
    }
}

/// CG's vector update carries a runtime scalar; it is a late-bound
/// coefficient to the template-JIT, not a reason to fall back.
#[test]
fn axpy_selects_template_jit_with_a_late_bound_coefficient() {
    let line = Bounds::new(vec![(0, 64)]);
    let mut m = samples::axpy(line.clone(), line);
    ShapeInference.run(&mut m).unwrap();
    let p = compile_module_tiered(&m, "axpy", None).unwrap();
    let [Step::Apply { kernel, .. }] = &p.steps[..] else { panic!("one apply: {:?}", p.steps) };
    assert_eq!(kernel.tier_label(), "template-jit (2 taps, chain<2>; rank 1; 1 runtime scalar)");
}

/// Devito's space-order-2 operators are one scaled group of plain taps
/// followed by scaled trailing taps — the shape the flattened group
/// kernel serves. (At some grid sizes the frontend's two half-stars get
/// scales one ulp apart, e.g. heat-2d at 32², and the kernel is two
/// groups on the general fold instead.)
#[test]
fn devito_so2_operators_select_the_flat_group_kernel() {
    for (op, label) in [
        (devito::problems::heat(&[24, 24], 2, 0.5), "template-jit (5 taps, group<4>+1; rank 2)"),
        (
            devito::problems::heat(&[24, 24, 24], 2, 0.5),
            "template-jit (7 taps, group<6>+1; rank 3)",
        ),
        (
            devito::problems::acoustic_wave(&[24, 24, 24], 2, 1.5),
            "template-jit (8 taps, group<6>+2; rank 3)",
        ),
    ] {
        let mut m = op.unwrap().compile().unwrap();
        ShapeInference.run(&mut m).unwrap();
        let p = compile_module_tiered(&m, "step", None).unwrap();
        let [Step::Apply { kernel, .. }] = &p.steps[..] else { panic!("one apply: {:?}", p.steps) };
        assert_eq!(kernel.tier_label(), label);
    }
}

/// The high space orders are the kernels the lifted caps brought onto
/// the template-JIT: they must stay bit-identical to the reference.
#[test]
fn high_order_kernels_match_eval_bitwise() {
    for so in [12, 16] {
        for (name, op) in devito_ops(so) {
            let mut m = op.compile().unwrap();
            ShapeInference.run(&mut m).unwrap();
            for (func, p) in pipelines(&m) {
                let run = |tier| {
                    let mut p = p.clone();
                    p.respecialize(tier);
                    let mut args: Vec<Vec<f64>> = p
                        .arg_shapes
                        .iter()
                        .enumerate()
                        .map(|(a, s)| {
                            let len = s.iter().product::<i64>() as usize;
                            (0..len).map(|i| ((i + 7 * a) as f64 * 0.013).sin()).collect()
                        })
                        .collect();
                    let mut runner = Runner::new(p, 1);
                    for _ in 0..2 {
                        runner.step(&mut args).unwrap();
                        // Feed the step's output back in as an input.
                        args.rotate_right(1);
                    }
                    args
                };
                let want = run(Some(TierKind::Eval));
                let got = run(None);
                for (w, g) in want.iter().zip(&got) {
                    assert!(
                        w.iter().zip(g).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{name} @{func}: template-jit diverged from eval"
                    );
                }
            }
        }
    }
}
