//! Fault-injection property suite: self-healing distributed execution.
//!
//! The acceptance bar for the resilience plane: random 1D stencils,
//! across every decomposition strategy and executor tier, driven through
//! [`run_resilient`] under random seeded fault schedules (drops,
//! duplicates, reorders, delay spikes, rank stalls, rank crashes) must
//! either finish **bit-identical** to the fault-free run or return a
//! structured [`ExecError`] — never hang, never panic, never silently
//! produce wrong bytes. Plans with no timing-sensitive faults (pure
//! drop/duplicate/reorder, or a crash the checkpoint/restart driver can
//! roll back) are required to succeed outright.
//!
//! CI reruns the matrix via `STEN_FAULT_SEED` (pin one schedule seed),
//! `STEN_DECOMP_STRATEGY`, and `STEN_EXEC_TIER`.

mod common;

use common::Rng;
use std::sync::Arc;
use std::time::Duration;
use stencil_stack::dialects::{arith, func};
use stencil_stack::dmp::decomposition::neighbor_rank;
use stencil_stack::dmp::{make_strategy, DistributeStencil};
use stencil_stack::exec::{
    run_resilient, CheckpointStore, ExecError, Pipeline, ResilientConfig, ResilientReport,
};
use stencil_stack::interp::sim_mpi::Externals as _;
use stencil_stack::interp::{FaultAction, FaultPlan, MpiEnv, MpiError, Reliability};
use stencil_stack::ir::{ExchangeAttr, FieldType, TempType, Type};
use stencil_stack::mpi::dmp_to_mpi::tag_for_direction;
use stencil_stack::prelude::*;
use stencil_stack::stencil::{ops, ShapeInference};

const RANKS: usize = 2;
const RADIUS: i64 = 1;

/// Fault-schedule seeds: `STEN_FAULT_SEED` pins one, otherwise six per
/// matrix cell (3 strategies × 2 tiers × 6 seeds = 36 runs ≥ the
/// 30-schedule acceptance floor).
fn fault_seeds() -> Vec<u64> {
    match std::env::var("STEN_FAULT_SEED") {
        Ok(s) => {
            vec![s.parse().unwrap_or_else(|_| panic!("STEN_FAULT_SEED '{s}' is not an integer"))]
        }
        Err(_) => vec![1, 2, 3, 4, 5, 6],
    }
}

/// Builds `dst[0..n) = Σ c_i · src[x + o_i]` over an `n`-cell 1D core
/// with a 1-cell halo, from random mirrored radius-1 terms.
fn rand_module(rng: &mut Rng, n: i64) -> Module {
    let mut terms: Vec<(i64, f64)> = (0..rng.range_usize(1, 4))
        .map(|_| (rng.range_i64(-RADIUS, RADIUS + 1), rng.range_f64(-2.0, 2.0)))
        .collect();
    let mirrored: Vec<(i64, f64)> = terms.iter().map(|&(o, c)| (-o, 0.5 * c)).collect();
    terms.extend(mirrored);

    let mut m = Module::new();
    let bounds = Bounds::from_shape(&[n]).grown(RADIUS);
    let fld = Type::Field(FieldType::new(bounds, Type::F64));
    let (mut f, args) = func::definition(&mut m.values, "rand", vec![fld.clone(), fld], vec![]);
    let (src, dst) = (args[0], args[1]);
    let ld = ops::load(&mut m.values, src);
    let t = ld.result(0);
    f.region_block_mut(0).ops.push(ld);
    let ap = ops::apply(
        &mut m.values,
        vec![t],
        vec![Type::Temp(TempType::unknown(1, Type::F64))],
        move |vt, a| {
            let mut body = Vec::new();
            let mut acc: Option<stencil_stack::ir::Value> = None;
            for &(off, c) in &terms {
                let access = ops::access(vt, a[0], vec![off]);
                let av = access.result(0);
                body.push(access);
                let cv_op = arith::const_f64(vt, c);
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
    body.push(ops::store(out, dst, vec![0], vec![n]));
    body.push(func::ret(vec![]));
    m.body_mut().ops.push(f);
    ShapeInference.run(&mut m).unwrap();
    m
}

/// Distributes `m` over [`RANKS`] ranks under `strategy` and compiles it
/// at `tier`. The even 1D split makes one pipeline valid on every rank
/// (boundary exchanges resolve to `None` at runtime); the layout places
/// each rank's box in the `n + 2`-cell global field.
fn distributed_pipeline(mut m: Module, strategy: &str, tier: TierKind) -> (Pipeline, Layout) {
    let global = RankBox::of(&m, "rand").unwrap().stored;
    let factors = (strategy == "custom-grid").then(|| vec![RANKS as i64]);
    DistributeStencil::with_strategy(vec![RANKS as i64], make_strategy(strategy, factors).unwrap())
        .run(&mut m)
        .unwrap();
    ShapeInference.run(&mut m).unwrap();
    let mut pipeline = compile_pipeline(&m, "rand").unwrap();
    pipeline.respecialize(Some(tier));
    (pipeline, Layout::of_spmd(global, &m, "rand").unwrap())
}

/// Each rank's initial `[src, dst]` argument pair, scattered out of
/// `global`.
fn initial_args(layout: &Layout, global: &[f64]) -> Vec<Vec<Vec<f64>>> {
    layout.scatter(global).into_iter().map(|data| vec![data.clone(), data]).collect()
}

/// Fault-free reference: `steps` ping-pong timesteps per rank on a plain
/// [`SimWorld`]; returns each rank's final `[src, dst]` argument pair.
fn reference_run(
    pipeline: &Pipeline,
    layout: &Layout,
    global: &[f64],
    steps: usize,
) -> Vec<Vec<Vec<f64>>> {
    let world = SimWorld::new(RANKS);
    launch_with(&world, initial_args(layout, global), |rank, mut args| {
        let mut runner = Runner::new(pipeline.clone(), 1);
        for _ in 0..steps {
            runner.step_distributed(&mut args, &world, rank as i64)?;
            args.swap(0, 1);
        }
        Ok::<_, String>(args)
    })
    .unwrap()
}

fn resilient_run(
    pipeline: &Pipeline,
    layout: &Layout,
    global: &[f64],
    steps: usize,
    plan: Arc<FaultPlan>,
    interval: u64,
) -> (Vec<Vec<Vec<f64>>>, Result<ResilientReport, ExecError>) {
    let mut args_per_rank = initial_args(layout, global);
    let store = CheckpointStore::in_memory();
    let cfg = ResilientConfig {
        steps: steps as u64,
        checkpoint_interval: interval,
        max_recoveries: 3,
        reliability: Reliability::default(),
        threads: 1,
        rotate_args: true,
    };
    let result = run_resilient(pipeline, &mut args_per_rank, plan, &store, &cfg, &Tracer::new());
    (args_per_rank, result)
}

/// The tentpole property: every random fault schedule either heals to
/// the exact fault-free bytes or surfaces a structured error — and
/// schedules without timing-sensitive faults must heal.
#[test]
fn random_fault_schedules_heal_bitwise_or_fail_typed() {
    let n = 12i64;
    let steps = 6usize;
    let mut checked = 0u32;
    for (t, tier) in common::tiers().into_iter().enumerate() {
        for (s, strategy) in common::strategies().into_iter().enumerate() {
            for seed in fault_seeds() {
                let cell = seed ^ ((t as u64) << 17) ^ ((s as u64) << 9);
                let mut rng = Rng::new(0xFA17 ^ cell.wrapping_mul(0x9E3779B97F4A7C15));
                let global: Vec<f64> =
                    (0..(n + 2 * RADIUS)).map(|_| rng.range_f64(-10.0, 10.0)).collect();
                let (pipeline, layout) =
                    distributed_pipeline(rand_module(&mut rng, n), strategy, tier);
                let reference = reference_run(&pipeline, &layout, &global, steps);

                let faults = 1 + (rng.next_u64() % 3) as usize;
                let plan = Arc::new(FaultPlan::random(cell, RANKS, steps as u64, faults));
                let timing_sensitive = plan.actions().any(|a| {
                    matches!(a, FaultAction::DelaySpike { .. } | FaultAction::RankStall { .. })
                });
                let (healed, result) =
                    resilient_run(&pipeline, &layout, &global, steps, Arc::clone(&plan), 2);
                match result {
                    Ok(report) => {
                        assert_eq!(
                            healed, reference,
                            "fault schedule (seed {cell}, {faults} faults) healed to wrong \
                             bytes under {strategy}/{tier:?}"
                        );
                        if plan.has_crash() {
                            assert!(
                                report.recoveries >= 1,
                                "a crash plan that succeeded must have rolled back"
                            );
                        }
                    }
                    Err(e) => assert!(
                        timing_sensitive,
                        "schedule (seed {cell}) has no timing-sensitive fault yet failed \
                         under {strategy}/{tier:?}: {e}"
                    ),
                }
                checked += 1;
            }
        }
    }
    // One STEN_* pin narrows the matrix; the full run clears the floor.
    let pinned = std::env::var("STEN_FAULT_SEED").is_ok()
        || std::env::var("STEN_DECOMP_STRATEGY").is_ok()
        || TierKind::from_env().is_some();
    assert!(pinned || checked >= 30, "only {checked} schedules exercised");
}

/// A fault-free pass through the whole resilience plane (reliable
/// protocol, checkpoints, digest barriers) is bit-identical to the plain
/// distributed runner and performs no recoveries.
#[test]
fn fault_free_resilient_run_is_bit_identical() {
    let n = 12i64;
    let steps = 5usize;
    let mut rng = Rng::new(0xC1EA);
    let global: Vec<f64> = (0..(n + 2 * RADIUS)).map(|_| rng.range_f64(-10.0, 10.0)).collect();
    let (pipeline, layout) =
        distributed_pipeline(rand_module(&mut rng, n), "standard-slicing", TierKind::Eval);
    let reference = reference_run(&pipeline, &layout, &global, steps);
    let (healed, result) =
        resilient_run(&pipeline, &layout, &global, steps, Arc::new(FaultPlan::new()), 2);
    let report = result.expect("a fault-free run cannot fail");
    assert_eq!(healed, reference, "resilience plane must be invisible without faults");
    assert_eq!(report.recoveries, 0);
    assert!(report.checkpoints >= RANKS as u64, "step-0 baseline always deposited");
    assert_eq!(report.replayed_steps, 0);
}

/// Satellite: an injected crash poisons the world, so peers blocked in
/// an exchange return a structured error naming the culprit instead of
/// hanging forever.
#[test]
fn crash_poisons_peers_instead_of_hanging() {
    let n = 8i64;
    let mut rng = Rng::new(0xDEAD);
    let (pipeline, layout) =
        distributed_pipeline(rand_module(&mut rng, n), "standard-slicing", TierKind::Eval);
    let global: Vec<f64> = (0..(n + 2 * RADIUS)).map(|i| i as f64).collect();
    let plan = Arc::new(FaultPlan::new().with_rank_fault(1, 0, FaultAction::RankCrash));
    let rel = Reliability { swap_timeout_ms: 10, max_retries: 3, collective_timeout_ms: 500 };
    let world =
        SimWorld::new_resilient(RANKS, Duration::ZERO, Tracer::disabled(), Some(plan), Some(rel));
    // Each rank hands back the error it saw; the checked step poisons
    // the world itself.
    let errs = launch_with(&world, initial_args(&layout, &global), |rank, mut args| {
        let mut runner = Runner::new(pipeline.clone(), 1);
        Ok::<_, RankPanic>(runner.step_distributed_checked(&mut args, &world, rank as i64).err())
    })
    .unwrap();
    assert_eq!(
        errs[1],
        Some(ExecError::InjectedCrash { rank: 1, step: 0 }),
        "the crashed rank reports the injected fault"
    );
    match &errs[0] {
        Some(ExecError::Mpi(MpiError::Poisoned { by_rank: 1, .. })) => {}
        other => panic!("peer must observe rank 1's poison, got {other:?}"),
    }
}

/// A peer's poison reaches the caller typed on a world without a
/// `Reliability` too, so the checked step does not re-poison the world
/// as this rank's own failure.
#[test]
fn poison_is_typed_on_a_world_without_reliability() {
    let n = 8i64;
    let mut rng = Rng::new(0x9015);
    let (pipeline, _) =
        distributed_pipeline(rand_module(&mut rng, n), "standard-slicing", TierKind::Eval);
    let local = pipeline.arg_shapes[0][0];
    let world = SimWorld::new(RANKS);
    world.poison(1, "rank 1 failed");
    let data: Vec<f64> = (0..local).map(|i| i as f64).collect();
    let mut args = vec![data.clone(), data];
    match Runner::new(pipeline, 1).step_distributed_checked(&mut args, &world, 0) {
        Err(ExecError::Mpi(MpiError::Poisoned { by_rank: 1, .. })) => {}
        other => panic!("expected rank 1's poison, got {other:?}"),
    }
    assert_eq!(world.poison_info().map(|(rank, _)| rank), Some(1));
}

/// Satellite: a neighbour that never answers (tag mismatch, dead rank)
/// exhausts the bounded retry budget and surfaces [`ExecError::SwapTimeout`].
#[test]
fn absent_peer_is_a_swap_timeout_not_a_hang() {
    let n = 8i64;
    let mut rng = Rng::new(0xBEEF);
    let (pipeline, _) =
        distributed_pipeline(rand_module(&mut rng, n), "standard-slicing", TierKind::Eval);
    let local = pipeline.arg_shapes[0][0];
    let rel = Reliability { swap_timeout_ms: 5, max_retries: 2, collective_timeout_ms: 200 };
    let world = SimWorld::new_resilient(RANKS, Duration::ZERO, Tracer::disabled(), None, Some(rel));
    let data: Vec<f64> = (0..local).map(|i| i as f64).collect();
    let mut args = vec![data.clone(), data];
    let mut runner = Runner::new(pipeline, 1);
    // Rank 1 never participates.
    match runner.step_distributed_checked(&mut args, &world, 0) {
        Err(ExecError::SwapTimeout { rank: 0, neighbor: 1, attempts, waited_ms, .. }) => {
            assert_eq!(attempts, 2, "full retry budget consumed");
            assert!(waited_ms >= 5 + 10 + 20, "exponential backoff accumulated");
        }
        other => panic!("expected a swap timeout, got {other:?}"),
    }
}

/// Satellite: truncated or misaligned exchange direction vectors are
/// rejected by `neighbor_rank` instead of resolving to a wrong peer.
#[test]
fn malformed_direction_vectors_are_rejected() {
    let err = neighbor_rank(0, &[2, 2], &[1]).unwrap_err();
    assert!(err.contains("1 components") && err.contains("2 dimensions"), "got: {err}");
    let err = neighbor_rank(0, &[2], &[0, 1]).unwrap_err();
    assert!(err.contains("does not decompose"), "got: {err}");
    // The well-formed cases still resolve.
    assert_eq!(neighbor_rank(0, &[2], &[1]).unwrap(), Some(1));
    assert_eq!(neighbor_rank(0, &[2], &[-1]).unwrap(), None, "domain boundary");
}

/// Satellite: a halo message whose element count does not match the
/// declared receive region is a diagnosed error in the interpreter's
/// `dmp.swap`, naming ranks, tag, and region.
#[test]
fn wrong_size_halo_is_rejected_by_the_interpreter_swap() {
    let world = SimWorld::new(RANKS);
    let w = Arc::clone(&world);
    let sender = std::thread::spawn(move || {
        // Two elements where the receive region holds one.
        w.send(1, 0, tag_for_direction(&[-1]) as i32, vec![7.0, 8.0]);
        // Drain rank 0's outbound so nothing lingers.
        w.recv(1, 0, tag_for_direction(&[1]) as i32).unwrap()
    });
    let mut env = MpiEnv::new(Arc::clone(&world), 0);
    let view = BufView::from_data(vec![6], (0..6).map(|i| i as f64).collect());
    let exchanges = [ExchangeAttr::new(vec![5], vec![1], vec![-1], vec![1])];
    let err = env.dmp_swap(&view, &[2], &exchanges).unwrap_err();
    let err = err.to_string();
    assert!(err.contains("2 elements") && err.contains("expected 1"), "got: {err}");
    sender.join().unwrap();
}

/// Satellite: same guarantee in the compiled reliable protocol — a
/// correctly-framed payload of the wrong size is a structured unpack
/// error, not a buffer overrun or silent corruption.
#[test]
fn wrong_size_reliable_frame_is_rejected_by_the_executor() {
    let n = 8i64;
    let mut rng = Rng::new(0xF00D);
    let (pipeline, _) =
        distributed_pipeline(rand_module(&mut rng, n), "standard-slicing", TierKind::Eval);
    let local = pipeline.arg_shapes[0][0];
    let rel = Reliability { swap_timeout_ms: 20, max_retries: 1, collective_timeout_ms: 200 };
    let world = SimWorld::new_resilient(RANKS, Duration::ZERO, Tracer::disabled(), None, Some(rel));
    // Rank 1 frames swap 0 / sequence 1 correctly but ships two payload
    // words where the receive region holds one.
    world.send(1, 0, tag_for_direction(&[-1]) as i32, vec![0.0, 1.0, 9.0, 9.0]);
    let data: Vec<f64> = (0..local).map(|i| i as f64).collect();
    let mut args = vec![data.clone(), data];
    let mut runner = Runner::new(pipeline, 1);
    match runner.step_distributed_checked(&mut args, &world, 0) {
        Err(ExecError::Exec(msg)) => {
            assert!(msg.contains("does not match"), "got: {msg}");
        }
        other => panic!("expected a structured unpack error, got {other:?}"),
    }
}

/// A header word that is not an exact integer in `0..2^53` (here `-1`,
/// NaN and 0.5, in either position) rejects the frame on every world,
/// before anything is unpacked.
#[test]
fn malformed_frame_header_is_rejected_by_the_executor() {
    let n = 8i64;
    let mut rng = Rng::new(0xF00D);
    let (pipeline, _) =
        distributed_pipeline(rand_module(&mut rng, n), "standard-slicing", TierKind::Eval);
    let local = pipeline.arg_shapes[0][0];
    let halo = (local - 1) as usize;
    let tag = tag_for_direction(&[-1]) as i32;
    let rel = Reliability { swap_timeout_ms: 20, max_retries: 1, collective_timeout_ms: 200 };
    for reliability in [None, Some(rel)] {
        for pos in 0..2 {
            for bad in [-1.0, f64::NAN, 0.5] {
                let world = SimWorld::new_resilient(
                    RANKS,
                    Duration::ZERO,
                    Tracer::disabled(),
                    None,
                    reliability.clone(),
                );
                // Swap 0, round 1, one payload word — with one header
                // word replaced.
                let mut frame = vec![0.0, 1.0, 99.0];
                frame[pos] = bad;
                world.send(1, 0, tag, frame);
                let data: Vec<f64> = (0..local).map(|i| i as f64).collect();
                let mut args = vec![data.clone(), data];
                let case = format!("header[{pos}] = {bad}, reliability {}", reliability.is_some());
                match Runner::new(pipeline.clone(), 1)
                    .step_distributed_checked(&mut args, &world, 0)
                {
                    Err(ExecError::Exec(msg)) => assert!(
                        msg.contains("rank 0") && msg.contains("rank 1") && msg.contains("tag"),
                        "{case}: {msg}"
                    ),
                    other => panic!("{case}: expected a header error, got {other:?}"),
                }
                assert_eq!(args[0][halo], halo as f64, "{case}: the halo cell was written");
            }
        }
    }
}
