//! Tier census: which executor tier every shipped kernel selects.
//!
//! The three-rung ladder rests on one claim — the template-JIT serves
//! every affine kernel the frontends produce, at any space order — so
//! the claim is a test: every `stencil.apply` of every sample, Devito
//! operator (heat and acoustic wave, space orders 2–16, 2D and 3D) and
//! PSyclone kernel, before and after the two fusion passes, must select
//! `template-jit`, except an explicit allow-list that lands on the
//! `opt-bytecode` fallback.

use std::collections::HashMap;
use stencil_stack::exec::{compile_module_tiered, Pipeline, Runner, Step, TierKind};
use stencil_stack::ir::{Attribute, Bounds, Module, Pass as _};
use stencil_stack::stencil::{samples, HorizontalFusion, ShapeInference, StencilFusion};
use stencil_stack::{devito, psyclone};

/// Functions whose applies may select the fallback tier, and why.
const OPT_BYTECODE: [(&str, &str); 2] =
    [("axpy", "runtime scalar coefficient"), ("pw_advection", "non-affine load · load terms")];

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

#[test]
fn every_shipped_kernel_selects_template_jit_or_is_allow_listed() {
    let (mut jit, mut opt) = (0, 0);
    for (name, module) in shipped_modules() {
        for (stage, m) in [("unfused", module.clone()), ("fused", fused(module))] {
            for (func, p) in pipelines(&m) {
                for step in &p.steps {
                    let Step::Apply { kernel, .. } = step else { continue };
                    match kernel.tier_kind() {
                        TierKind::TemplateJit => jit += 1,
                        tier => {
                            assert!(
                                tier == TierKind::OptBytecode
                                    && OPT_BYTECODE.iter().any(|&(f, _)| f == func),
                                "{name} ({stage}) @{func}: {} is off the fast path and \
                                 not allow-listed",
                                kernel.tier_label()
                            );
                            opt += 1;
                        }
                    }
                }
            }
        }
    }
    // The census covers real traffic, and the allow-list is not stale.
    assert!(jit >= 80, "only {jit} template-jit applies counted");
    assert!(opt >= OPT_BYTECODE.len(), "allow-list entries no longer hit the fallback");
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
