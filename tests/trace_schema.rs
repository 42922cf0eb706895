//! Chrome-trace export schema: a traced 2-rank overlapped heat-2d run
//! emits valid trace-event JSON (every event carries `ph`/`ts`/`pid`/
//! `tid`, spans nest properly, ranks map to distinct `pid` tracks), and
//! the aggregated report shows communication hidden behind interior
//! compute on the overlap path — and none on the synchronous path.

use std::time::Duration;
use stencil_stack::dmp::DistributeStencil;
use stencil_stack::interp::Reliability;
use stencil_stack::prelude::*;
use stencil_stack::stencil::{samples, ShapeInference};
use stencil_stack::trace::chrome;

const RANKS: usize = 2;
const TIMESTEPS: usize = 3;

/// Runs heat-2d on a 2x1 grid over SimMPI (with `reliability`, if any)
/// with a recording tracer and 2 worker threads per rank; returns the
/// merged event log.
fn run_traced(
    overlap: bool,
    reliability: Option<Reliability>,
    timesteps: usize,
) -> Vec<stencil_stack::trace::Event> {
    let n = 32i64;
    let mut modules = Vec::new();
    for rank in 0..RANKS {
        let mut m = samples::heat_2d(n, 0.1);
        ShapeInference.run(&mut m).unwrap();
        DistributeStencil::new(vec![2, 1])
            .for_rank(rank as i64)
            .with_overlap(overlap)
            .run(&mut m)
            .unwrap();
        ShapeInference.run(&mut m).unwrap();
        modules.push(m);
    }
    let tracer = Tracer::new();
    let world = SimWorld::new_resilient(
        RANKS,
        Duration::from_micros(200),
        tracer.clone(),
        None,
        reliability,
    );
    launch_with(&world, &modules, |rank, module| {
        let pipeline = compile_pipeline(module, "heat")?;
        let len: i64 = pipeline.arg_shapes[0].iter().product();
        let data: Vec<f64> = (0..len).map(|i| ((i + rank as i64) as f64 * 0.03).sin()).collect();
        let mut args = vec![data.clone(), data];
        let mut runner = Runner::new(pipeline, 2).with_trace(&tracer, rank as u32);
        for _ in 0..timesteps {
            runner.step_distributed(&mut args, &world, rank as i64)?;
            args.swap(0, 1);
        }
        Ok::<_, String>(())
    })
    .unwrap();
    tracer.events()
}

#[test]
fn overlapped_run_exports_a_valid_chrome_trace() {
    let events = run_traced(true, None, TIMESTEPS);
    let json = chrome::to_json(&events, &[]);
    let stats = chrome::validate(&json).expect("exported trace validates");

    assert!(stats.spans > 0, "trace contains duration events");
    assert!(stats.instants > 0, "trace contains send instants");
    for rank in 0..RANKS as u32 {
        assert!(stats.pids.contains(&rank), "rank {rank} has its own pid track");
    }
    assert!(
        stats.tracks.iter().any(|&(_, tid)| tid > 0),
        "worker lanes appear as sub-tracks: {:?}",
        stats.tracks
    );
    // Spot-check the labels that anchor the timeline in Perfetto.
    for needle in ["swap#0 begin", "swap#0 wait", "apply interior", "timestep 0", "send→"] {
        assert!(json.contains(needle), "trace JSON mentions {needle:?}");
    }
}

#[test]
fn report_shows_hidden_comm_on_overlap_and_none_on_sync() {
    let overlapped = TraceReport::from_events(&run_traced(true, None, TIMESTEPS));
    assert_eq!(overlapped.ranks, RANKS);
    assert_eq!(overlapped.timesteps, TIMESTEPS as u64);
    assert!(overlapped.msgs_sent > 0, "halo exchange sent messages");
    assert!(
        overlapped.comm_hidden_ns > 0,
        "interior compute overlaps the swap window: {overlapped}"
    );
    assert!(overlapped.overlap_efficiency() > 0.0);

    let sync = TraceReport::from_events(&run_traced(false, None, TIMESTEPS));
    assert_eq!(sync.comm_hidden_ns, 0, "synchronous pipeline waits before any apply: {sync}");
    assert!(sync.msgs_sent > 0);
}

/// `Pack` spans report payload bytes, not the frame header: one
/// synchronous step packs exactly the pipeline's exchanged elements
/// (both ranks together send each declared slab once).
#[test]
fn pack_spans_report_payload_bytes() {
    let mut m = samples::heat_2d(32, 0.1);
    ShapeInference.run(&mut m).unwrap();
    DistributeStencil::new(vec![2, 1]).run(&mut m).unwrap();
    ShapeInference.run(&mut m).unwrap();
    let elements = compile_pipeline(&m, "heat").unwrap().exchanged_elements_per_step();
    let events = run_traced(false, Some(Reliability::default()), 1);
    let packed: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            SpanKind::Pack { bytes, .. } => Some(bytes),
            _ => None,
        })
        .sum();
    assert!(elements > 0);
    assert_eq!(packed, 8 * elements);
}
