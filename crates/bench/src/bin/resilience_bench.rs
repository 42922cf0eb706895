//! `resilience_bench` — what fault tolerance costs when nothing fails,
//! and what recovery costs when something does.
//!
//! Three measurements over a 2-rank distributed jacobi on SimMPI, each a
//! comparison in alternating pairs ([`sten_bench::instrument`]):
//!
//! 1. **Fault-free cost of a `Reliability`** — the same framed exchange
//!    on a world with a `Reliability` (timeout-armed receives, kept
//!    re-send copies) vs one without (plain blocking receives), in short
//!    bursts on identical work. Gated at ≤2% in up to 3 attempts:
//!    resilience must be free when the network is healthy.
//! 2. **Checkpoint cost vs interval** — [`run_resilient`] with no faults
//!    at intervals {1, 2, 4, 8}, each paired with the run that deposits
//!    only its step-0 baseline (interval ∞): the cost, what the store
//!    retains (asserted: one cut, at most one snapshot per rank), and the
//!    deposit itself from the trace's checkpoint spans (snapshot, store
//!    `put`, digest barrier): µs per deposit and GB/s deposited. Full
//!    runs gate the median run's deposit rate at ≥0.75 GB/s.
//! 3. **Recovery overhead vs interval** — the same with a rank crash at
//!    mid-run: rollback count, replayed steps (shrinking as checkpoints
//!    tighten), and a bit-identity check of every healed result.
//!
//! ```text
//! cargo run --release -p sten-bench --bin resilience_bench            # full
//! cargo run --release -p sten-bench --bin resilience_bench -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks the grid, steps and pairs so CI exercises the
//! overhead gate and the bit-identity checks quickly; smoke timings are
//! *not* meaningful.

use std::sync::Arc;
use std::time::{Duration, Instant};
use sten_bench::instrument::{paired, ping_pong, Args, Gate, Ratio, Report};
use sten_bench::obj;
use stencil_core::exec::{
    run_resilient, CheckpointStore, Pipeline, ResilientConfig, ResilientReport,
};
use stencil_core::interp::{FaultAction, FaultPlan, Reliability};
use stencil_core::ir::Pass as _;
use stencil_core::prelude::*;
use stencil_core::stencil::ShapeInference;

const RANKS: usize = 2;

/// The 2-rank distributed jacobi pipeline (rank-generic: the even split
/// gives every rank the same local shape) and each rank's share of the
/// global field `global`.
fn jacobi_pipeline(global: &[f64]) -> (Pipeline, Vec<Vec<f64>>) {
    let n = global.len() as i64;
    let mut m = stencil_core::stencil::samples::jacobi_1d(n);
    ShapeInference.run(&mut m).unwrap();
    stencil_core::dmp::DistributeStencil::new(vec![RANKS as i64]).run(&mut m).unwrap();
    ShapeInference.run(&mut m).unwrap();
    let layout = Layout::of_spmd(Bounds::new(vec![(0, n)]), &m, "jacobi").unwrap();
    (compile_pipeline(&m, "jacobi").unwrap(), layout.scatter(global))
}

/// One [`run_resilient`]: its wall-clock, the store it filled and its
/// trace.
struct Resilient {
    wall: Duration,
    report: ResilientReport,
    store: CheckpointStore,
    trace: TraceReport,
}

fn main() {
    let args = Args::parse("BENCH_resilience.json", None);
    // Full mode runs a domain big enough that per-step compute dwarfs
    // the condvar wake jitter of the rank handshake — the overhead gate
    // measures the protocol, not the scheduler.
    let n: i64 = if args.smoke { 1 << 12 } else { 1 << 18 };
    let steps: usize = if args.smoke { 16 } else { 60 };
    // Overhead-gate bursts: a few steps each, so a pair spans only a few
    // milliseconds of the host; many of them, since the protocol's cost
    // is small next to the step.
    let gate_steps = if args.smoke { 8 } else { 6 };
    let gate_pairs = if args.smoke { 9 } else { 151 };
    let pairs = if args.smoke { 3 } else { 9 };
    let mut report = Report::new(&args);

    let global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.003).sin()).collect();
    let (pipeline, parts) = jacobi_pipeline(&global);
    let pipelines = std::slice::from_ref(&pipeline);

    // --- 1. fault-free overhead: without vs with a Reliability ------
    // A burst's time is the median of its steps after the first (cold
    // buffers, fresh world).
    let reliable_world = || {
        SimWorld::new_resilient(
            RANKS,
            Duration::ZERO,
            Tracer::disabled(),
            None,
            Some(Reliability::default()),
        )
    };
    let burst = |world: Arc<SimWorld>, outs: &mut Vec<Vec<Vec<f64>>>| {
        let run = ping_pong(world, pipelines, &parts, gate_steps, None);
        *outs = run.args;
        let secs = run.steps[1..].iter().map(Duration::as_secs_f64).collect();
        Duration::from_secs_f64(Ratio::of(secs).median)
    };
    let (mut plain_outs, mut reliable_outs) = (Vec::new(), Vec::new());
    // Even paired bursts have a ~±2% noise floor on a shared machine, so
    // the gate allows three independent measurements; a real
    // multi-percent protocol regression fails all three.
    let gate = Gate::ceiling("Reliability fault-free cost", 1.02).attempts(3);
    let overhead = report.gate(&gate, || {
        paired(
            || burst(SimWorld::new(RANKS), &mut plain_outs),
            || burst(reliable_world(), &mut reliable_outs),
            gate_pairs,
        )
    });
    assert_eq!(
        plain_outs, reliable_outs,
        "a world with a Reliability must compute the bytes of one without"
    );
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    report.case(obj! {
        "name": "fault-free overhead", "n": n, "ranks": RANKS, "burst_steps": gate_steps,
        "plain_step_us": us(overhead.a), "reliable_step_us": us(overhead.b),
        "reliable_vs_plain": overhead, "overhead_pct": overhead.pct(), "bit_identical": true,
    });

    // --- 2 and 3. checkpoint cost and recovery vs interval ----------
    // The bit-identity reference: a plain run over the full horizon.
    let plain_ref = ping_pong(SimWorld::new(RANKS), pipelines, &parts, steps, None).args;
    // A resilient run, fault-free or with rank 1 crashing at mid-run (off
    // every interval boundary, so sparse intervals roll back further
    // than tight ones). Healed or not, it ends with the plain run's
    // bytes; a fault-free run leaves one cut in the store: one snapshot
    // per rank at most (fewer where ranks share content).
    let crash_step = steps as u64 / 2 + 3;
    let resilient = |interval: u64, crash: bool| {
        let mut plan = FaultPlan::new();
        if crash {
            plan = plan.with_rank_fault(1, crash_step, FaultAction::RankCrash);
        }
        let cfg = ResilientConfig {
            steps: steps as u64,
            checkpoint_interval: interval,
            max_recoveries: 3,
            reliability: Reliability::default(),
            threads: 1,
            rotate_args: true,
        };
        let mut outs: Vec<_> = parts.iter().map(|p| vec![p.clone(), p.clone()]).collect();
        let (store, tracer) = (CheckpointStore::in_memory(), Tracer::new());
        let t0 = Instant::now();
        let report = run_resilient(&pipeline, &mut outs, Arc::new(plan), &store, &cfg, &tracer)
            .expect("a fault-free run, or a crash healed by rollback");
        let wall = t0.elapsed();
        assert_eq!(outs, plain_ref, "interval {interval}: healed result must be plain bytes");
        assert_eq!(report.recoveries, u32::from(crash), "one rollback per crash");
        let blobs = store.num_blobs();
        assert!(
            crash || blobs <= RANKS,
            "interval {interval}: the store holds {blobs} snapshots after a fault-free run, \
             more than one cut"
        );
        Resilient { wall, report, store, trace: TraceReport::from_events(&tracer.events()) }
    };
    // interval > steps: only the step-0 baseline is deposited.
    let no_ckpt = || resilient(steps as u64 + 1, false).wall;
    // One rank's deposit: its field arguments. Deposits are the traced
    // ones (the step-0 baseline is not one), summed over ranks.
    let deposit_bytes: u64 =
        pipeline.arg_shapes.iter().map(|s| 8 * s.iter().product::<i64>() as u64).sum();
    let gb_per_s = |deposits: u64, ns: u64| (deposit_bytes * deposits) as f64 / ns.max(1) as f64;
    let us_per_deposit = |deposits: u64, ns: u64| ns as f64 / 1e3 / deposits.max(1) as f64;
    let (mut all_deposits, mut all_deposit_ns, mut rates) = (0, 0, Vec::new());
    let mut replayed = Vec::new();
    for (crash, interval) in [false, true].into_iter().flat_map(|c| [1, 2, 4, 8].map(|i| (c, i))) {
        let mut last = None;
        let cost = paired(
            no_ckpt,
            || {
                let out = last.insert(resilient(interval, crash));
                if !crash {
                    all_deposits += out.trace.checkpoints;
                    all_deposit_ns += out.trace.checkpoint_ns;
                    rates.push(gb_per_s(out.trace.checkpoints, out.trace.checkpoint_ns));
                }
                out.wall
            },
            pairs,
        );
        let out = last.expect("a resilient run");
        let (deposits, ns) = (out.trace.checkpoints, out.trace.checkpoint_ns);
        let kind = if crash { "recovery" } else { "checkpoint" };
        if crash {
            replayed.push(out.report.replayed_steps);
        }
        report.case(obj! {
            "name": format!("{kind} interval {interval}"),
            "timesteps": steps, "crash_step": if crash { crash_step } else { 0 },
            "seconds": cost.b, "vs_no_checkpoints": cost, "cost_pct": cost.pct(),
            "checkpoints": out.report.checkpoints, "replayed_steps": out.report.replayed_steps,
            "store_blobs": out.store.num_blobs(), "store_bytes": out.store.bytes_stored(),
            "deposit_us": us_per_deposit(deposits, ns), "deposit_gb_per_s": gb_per_s(deposits, ns),
            "bit_identical": true,
        });
    }
    // Tighter checkpoints replay no more than sparser ones (both roll
    // back from the same crash step).
    assert!(
        replayed.windows(2).all(|w| w[0] <= w[1]),
        "replayed steps must grow (or hold) as checkpoints get sparser: {replayed:?}"
    );
    // The deposit rate of every fault-free checkpointed run. The store
    // keeps one cut and deposits copy into the retired one's buffers, so
    // after the first two cuts no deposit touches a fresh page.
    let gate = Gate::floor("checkpoint deposit GB/s", 0.75);
    let per_run = report.full_gate(&gate, || Ratio::of(rates.clone()));
    report.case(obj! {
        "name": "deposit", "bytes": deposit_bytes, "deposits": all_deposits,
        "us_per_deposit": us_per_deposit(all_deposits, all_deposit_ns),
        "gb_per_s": gb_per_s(all_deposits, all_deposit_ns), "per_run_gb_per_s": per_run,
    });
    report.write(&args.out);
}
