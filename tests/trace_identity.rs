//! Tracing must never perturb results.
//!
//! Every configuration runs twice — once with a disabled tracer, once
//! with a recording one threaded through `SimWorld` and every rank's
//! `Runner` (worker threads included) — and the final buffers must be
//! bit-identical. The recording run must also actually record: a trace
//! that silently drops events would pass the identity check while
//! breaking the observability contract, so the span inventory is
//! asserted alongside.

mod common;

use common::Rng;
use std::time::Duration;
use stencil_stack::dialects::{arith, func};
use stencil_stack::dmp::{make_strategy, DistributeStencil};
use stencil_stack::ir::{FieldType, TempType, Type};
use stencil_stack::prelude::*;
use stencil_stack::stencil::ops;
use stencil_stack::stencil::ShapeInference;

#[derive(Clone, Debug)]
struct RandStencil {
    /// (offset per dim, coefficient) terms.
    terms: Vec<(Vec<i64>, f64)>,
    dims: usize,
    radius: i64,
}

/// Random symmetric axis-aligned stencil (face exchanges suffice).
fn rand_stencil(dims: usize, radius: i64, rng: &mut Rng) -> RandStencil {
    let num_terms = rng.range_usize(1, 4);
    let mut terms: Vec<(Vec<i64>, f64)> = (0..num_terms)
        .map(|_| {
            let axis = rng.range_usize(0, dims);
            let offset: Vec<i64> = (0..dims)
                .map(|d| if d == axis { rng.range_i64(-radius, radius + 1) } else { 0 })
                .collect();
            (offset, rng.range_f64(-2.0, 2.0))
        })
        .collect();
    // At least one off-center tap, so every case actually exchanges
    // halos (otherwise no comm events exist to assert on).
    if terms.iter().all(|(o, _)| o.iter().all(|&x| x == 0)) {
        terms[0].0[0] = radius;
    }
    let mirrored: Vec<(Vec<i64>, f64)> =
        terms.iter().map(|(o, c)| (o.iter().map(|x| -x).collect(), 0.5 * c)).collect();
    terms.extend(mirrored);
    RandStencil { terms, dims, radius }
}

/// Builds `dst[core] = Σ c_i · src[x + o_i]` over an `n^dims` core with a
/// `radius`-cell halo.
fn build(st: &RandStencil, n: i64) -> Module {
    let dims = st.dims;
    let mut m = Module::new();
    let bounds = Bounds::from_shape(&vec![n; dims]).grown(st.radius);
    let fld = Type::Field(FieldType::new(bounds, Type::F64));
    let (mut f, args) = func::definition(&mut m.values, "rand", vec![fld.clone(), fld], vec![]);
    let (src, dst) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src);
    let t = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let terms = st.terms.clone();
    let ap = ops::apply(
        &mut m.values,
        vec![t],
        vec![Type::Temp(TempType::unknown(dims, Type::F64))],
        move |vt, a| {
            let mut body = Vec::new();
            let mut acc: Option<stencil_stack::ir::Value> = None;
            for (off, c) in &terms {
                let access = ops::access(vt, a[0], off.clone());
                let av = access.result(0);
                body.push(access);
                let cv_op = arith::const_f64(vt, *c);
                let cv = cv_op.result(0);
                body.push(cv_op);
                let mul = arith::mulf(vt, cv, av);
                let mv = mul.result(0);
                body.push(mul);
                acc = Some(match acc {
                    None => mv,
                    Some(prev) => {
                        let add = arith::addf(vt, prev, mv);
                        let v = add.result(0);
                        body.push(add);
                        v
                    }
                });
            }
            body.push(ops::ret(vec![acc.expect("at least one term")]));
            body
        },
    );
    let out = ap.result(0);
    let body = &mut f.region_block_mut(0).ops;
    body.push(ap);
    body.push(ops::store(out, dst, vec![0; dims], vec![n; dims]));
    body.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    ShapeInference.run(&mut m).unwrap();
    m
}

/// Distributes `make()` once per rank under `strategy`, returning the
/// modules and the layout of their boxes over the undistributed field.
fn per_rank_modules(
    make: &dyn Fn() -> Module,
    grid: &[i64],
    strategy: &str,
    factors: Option<Vec<i64>>,
    overlap: bool,
) -> (Vec<Module>, Layout) {
    let field = RankBox::of(&make(), "rand").unwrap().stored;
    let ranks: i64 = grid.iter().product();
    let mut modules = Vec::new();
    for rank in 0..ranks {
        let mut m = make();
        DistributeStencil::with_strategy(
            grid.to_vec(),
            make_strategy(strategy, factors.clone()).unwrap(),
        )
        .for_rank(rank)
        .with_overlap(overlap)
        .run(&mut m)
        .unwrap();
        ShapeInference.run(&mut m).unwrap();
        modules.push(m);
    }
    let layout = Layout::of_modules(field, &modules, "rand").unwrap();
    (modules, layout)
}

/// Compiles one module per rank and runs `timesteps` ping-pong steps of
/// the SPMD pipeline over SimMPI. With `Some(tracer)`, the world and
/// every runner (2 worker threads) record into it; with `None` the run
/// is completely untraced.
fn run_distributed(
    modules: &[Module],
    layout: &Layout,
    global: &[f64],
    tier: TierKind,
    timesteps: usize,
    tracer: Option<&Tracer>,
) -> Vec<Vec<f64>> {
    let ranks = modules.len();
    let world = match tracer {
        Some(t) => SimWorld::new_traced(ranks, Duration::from_micros(20), t.clone()),
        None => SimWorld::new(ranks),
    };
    launch_with(&world, layout.scatter(global), |rank, data| {
        let mut pipeline = compile_pipeline(&modules[rank], "rand")?;
        pipeline.respecialize(Some(tier));
        let mut args = vec![data.clone(), data];
        let mut runner = Runner::new(pipeline, 2);
        if let Some(t) = tracer {
            runner = runner.with_trace(t, rank as u32);
        }
        for _ in 0..timesteps {
            runner.step_distributed(&mut args, &world, rank as i64)?;
            args.swap(0, 1);
        }
        Ok::<_, String>(args.swap_remove(0))
    })
    .unwrap()
}

#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    // Uneven domains: no strategy divides these extents evenly.
    #[allow(clippy::type_complexity)] // (dims, n, grid, custom-grid factors) rows
    let cases: [(usize, i64, Vec<i64>, Option<Vec<i64>>); 3] = [
        (1, 13, vec![2], Some(vec![2])),
        (2, 10, vec![2, 2], Some(vec![1, 4])),
        (3, 7, vec![2, 2], Some(vec![2, 2, 1])),
    ];
    for (dims, n, grid, factors) in cases {
        let mut rng = Rng::new(9100 + dims as u64);
        let radius = 1 + (dims as i64 % 2);
        let st = rand_stencil(dims, radius, &mut rng);
        let gsize = ((n + 2 * radius) as usize).pow(dims as u32);
        let global: Vec<f64> = (0..gsize).map(|i| ((i as f64) * 0.19 + 0.07).sin()).collect();
        for (strategy, factors) in [
            ("standard-slicing", None),
            ("recursive-bisection", None),
            ("custom-grid", factors.clone()),
        ] {
            let make = || build(&st, n);
            for overlap in [false, true] {
                let (modules, layout) =
                    per_rank_modules(&make, &grid, strategy, factors.clone(), overlap);
                for tier in common::tiers() {
                    let plain = run_distributed(&modules, &layout, &global, tier, 3, None);
                    let tracer = Tracer::new();
                    let traced =
                        run_distributed(&modules, &layout, &global, tier, 3, Some(&tracer));
                    assert_eq!(
                        plain, traced,
                        "dims {dims} {strategy} overlap {overlap} tier {tier:?}: \
                         tracing must not perturb results"
                    );

                    // The recording run really recorded: executor spans
                    // from every rank, comm events from the sim world,
                    // and task spans from the worker lanes.
                    let events = tracer.events();
                    let ranks = modules.len() as u32;
                    for rank in 0..ranks {
                        assert!(
                            events
                                .iter()
                                .any(|e| e.pid == rank && matches!(e.kind, SpanKind::Apply { .. })),
                            "rank {rank} recorded apply spans"
                        );
                        assert!(
                            events
                                .iter()
                                .any(|e| e.pid == rank
                                    && matches!(e.kind, SpanKind::Timestep { .. })),
                            "rank {rank} recorded timestep spans"
                        );
                    }
                    assert!(
                        events.iter().any(|e| matches!(e.kind, SpanKind::MsgSend { .. })),
                        "sim world recorded send instants"
                    );
                    assert!(
                        events.iter().any(|e| matches!(e.kind, SpanKind::MsgRecv { .. })),
                        "sim world recorded recv spans"
                    );
                    assert!(
                        events.iter().any(|e| e.tid > 0 && matches!(e.kind, SpanKind::Task)),
                        "worker lanes recorded task spans"
                    );
                }
            }
        }
    }
}
