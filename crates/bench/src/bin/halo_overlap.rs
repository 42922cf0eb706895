//! `halo_overlap` — the sync-vs-overlap halo exchange gap over SimMPI.
//!
//! Runs the same distributed stencils twice — once with the synchronous
//! exchange (`SwapBegin` immediately followed by `SwapWait`) and once
//! overlapped (`distribute-stencil{overlap=true}`: begin / interior /
//! wait / boundary shells) — over a [`SimWorld`] with a simulated
//! per-message delivery latency standing in for network transit time.
//! Outputs are asserted **bit-identical** between the two variants; the
//! wall-clock gap and the receive counters (how many receives found
//! their message already delivered) land in `BENCH_halo.json`.
//!
//! ```text
//! cargo run --release -p sten-bench --bin halo_overlap            # full
//! cargo run --release -p sten-bench --bin halo_overlap -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks grids, steps, and the latency so the emitter and the
//! bit-identity assertion stay exercised in CI; smoke numbers are *not*
//! meaningful.
//!
//! Alongside the numbers, a short traced re-run of every case lands in
//! `BENCH_halo.trace.json` (Chrome trace-event format — load it in
//! Perfetto). The trace is asserted to show the overlap contract: comm
//! time hidden behind `Apply{Interior}` on the overlapped variant, zero
//! hidden time on the synchronous one.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stencil_core::dmp::{make_strategy, DistributeStencil};
use stencil_core::exec::{Pipeline, FRAME_HEADER};
use stencil_core::ir::Pass as _;
use stencil_core::prelude::*;
use stencil_core::stencil::ShapeInference;
use stencil_core::trace::chrome;

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, out: "BENCH_halo.json".into() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => panic!("unknown argument '{other}' (expected --smoke | --out)"),
        }
    }
    args
}

struct Case {
    name: &'static str,
    func: &'static str,
    /// Stencil-level module factory (pre-distribution).
    module: Module,
    grid: Vec<i64>,
    strategy: &'static str,
}

fn cases(smoke: bool) -> Vec<Case> {
    let mk = |m: Module| {
        let mut m = m;
        ShapeInference.run(&mut m).unwrap();
        m
    };
    vec![
        Case {
            name: "jacobi-1d-2ranks",
            func: "jacobi",
            module: mk(stencil_core::stencil::samples::jacobi_1d(if smoke {
                258
            } else {
                1 << 17
            })),
            grid: vec![2],
            strategy: "standard-slicing",
        },
        // The heat cases sit at the strong-scaling limit (per-rank
        // compute comparable to the message latency) — the regime where
        // hiding halo latency is the difference between scaling and
        // stalling. Much larger per-rank domains hide the latency behind
        // rank skew even synchronously.
        Case {
            name: "heat-2d-2x2",
            func: "heat",
            module: mk(stencil_core::stencil::samples::heat_2d(if smoke { 32 } else { 240 }, 0.1)),
            grid: vec![2, 2],
            strategy: "standard-slicing",
        },
        Case {
            name: "heat-2d-uneven-bisection",
            func: "heat",
            module: mk(stencil_core::stencil::samples::heat_2d(if smoke { 31 } else { 255 }, 0.1)),
            grid: vec![4],
            strategy: "recursive-bisection",
        },
    ]
}

/// One module per rank at the stencil level, ready for the executor,
/// with the rank grid the strategy chose and each rank's box.
fn per_rank_pipelines(
    case: &Case,
    overlap: bool,
    depth: i64,
) -> (Vec<Pipeline>, Vec<i64>, Vec<RankBox>) {
    let ranks: i64 = case.grid.iter().product();
    let mut pipelines = Vec::new();
    let mut boxes = Vec::new();
    let mut layout = Vec::new();
    for rank in 0..ranks {
        let mut m = case.module.clone();
        DistributeStencil::with_strategy(
            case.grid.clone(),
            make_strategy(case.strategy, None).unwrap(),
        )
        .for_rank(rank)
        .with_overlap(overlap)
        .with_depth(HaloDepth::Fixed(depth))
        .run(&mut m)
        .unwrap();
        ShapeInference.run(&mut m).unwrap();
        if layout.is_empty() {
            let f = m.lookup_symbol(case.func).unwrap();
            layout = f
                .attr("dmp.grid")
                .and_then(stencil_core::ir::Attribute::as_grid)
                .expect("layout recorded")
                .to_vec();
        }
        boxes.push(RankBox::of(&m, case.func).unwrap());
        pipelines.push(compile_pipeline(&m, case.func).unwrap());
    }
    (pipelines, layout, boxes)
}

/// A world's receives that found their message already delivered, out
/// of all its receives.
fn receives(world: &SimWorld) -> String {
    let immediate = world.total_recv_immediate();
    format!("{immediate}/{}", immediate + world.total_recv_blocked())
}

/// The depth sweep's view of a run: the owned cores gathered back into
/// the global field, and the message traffic.
struct DepthOutcome {
    seconds: f64,
    gathered: Vec<f64>,
    sent_messages: u64,
    sent_elements: u64,
}

struct RunOutcome {
    seconds: f64,
    /// Every rank's final `src` buffer.
    buffers: Vec<Vec<f64>>,
    world: Arc<SimWorld>,
}

/// Runs `timesteps` ping-pong steps on every rank (one OS thread per
/// rank, serial runner inside), both arguments starting from the rank's
/// `inits` entry, and returns the wall-clock of the whole SPMD execution
/// plus every rank's final buffer.
fn run_ranks(
    pipelines: &[Pipeline],
    latency: Duration,
    timesteps: usize,
    inits: &[Vec<f64>],
    tracer: Option<&Tracer>,
) -> RunOutcome {
    let ranks = pipelines.len();
    let world = match tracer {
        Some(t) => SimWorld::new_traced(ranks, latency, t.clone()),
        None => SimWorld::new_with_latency(ranks, latency),
    };
    let t0 = Instant::now();
    let buffers = launch_with(&world, pipelines.iter().zip(inits), |rank, (pipeline, init)| {
        assert_eq!(
            pipeline.arg_shapes[0].iter().product::<i64>(),
            init.len() as i64,
            "rank {rank}"
        );
        let mut args = vec![init.clone(), init.clone()];
        let mut runner = Runner::new(pipeline.clone(), 1);
        if let Some(t) = tracer {
            runner = runner.with_trace(t, rank as u32);
        }
        for _ in 0..timesteps {
            runner.step_distributed(&mut args, &world, rank as i64)?;
            args.swap(0, 1);
        }
        Ok::<_, String>(args.swap_remove(0))
    })
    .unwrap();
    RunOutcome { seconds: t0.elapsed().as_secs_f64(), buffers, world }
}

fn main() {
    let args = parse_args();
    let latency = if args.smoke { Duration::from_micros(20) } else { Duration::from_micros(150) };
    let timesteps = if args.smoke { 3 } else { 200 };
    let reps = if args.smoke { 1 } else { 3 };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"sten-halo-overlap/v1\",");
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"latency_us\": {},", latency.as_micros());
    let _ = writeln!(json, "  \"timesteps\": {timesteps},");
    let _ = writeln!(json, "  \"cases\": [");
    let mut rows = Vec::new();
    let mut any_faster = false;
    let mut trace_events: Vec<stencil_core::trace::Event> = Vec::new();
    let mut trace_names: Vec<(u32, String)> = Vec::new();
    let all = cases(args.smoke);
    for (ci, case) in all.iter().enumerate() {
        let (sync_p, layout, _) = per_rank_pipelines(case, false, 1);
        let (over_p, ..) = per_rank_pipelines(case, true, 1);
        assert!(!sync_p[0].is_overlapped());
        assert!(over_p[0].is_overlapped(), "{}: overlap pipeline did not split", case.name);

        // Each rank starts from its own smooth ramp.
        let inits: Vec<Vec<f64>> = (0..sync_p.len())
            .map(|rank| {
                let len = sync_p[rank].arg_shapes[0].iter().product::<i64>().max(0) as usize;
                (0..len).map(|i| ((i + rank) as f64 * 0.001).sin()).collect()
            })
            .collect();
        // Best-of-reps (after one warm-up each) keeps scheduler noise out
        // of the committed numbers.
        let mut sync_best: Option<RunOutcome> = None;
        let mut over_best: Option<RunOutcome> = None;
        let _ = run_ranks(&sync_p, latency, timesteps.min(3), &inits, None);
        let _ = run_ranks(&over_p, latency, timesteps.min(3), &inits, None);
        for _ in 0..reps {
            let s = run_ranks(&sync_p, latency, timesteps, &inits, None);
            if sync_best.as_ref().map_or(true, |b| s.seconds < b.seconds) {
                sync_best = Some(s);
            }
            let o = run_ranks(&over_p, latency, timesteps, &inits, None);
            if over_best.as_ref().map_or(true, |b| o.seconds < b.seconds) {
                over_best = Some(o);
            }
        }

        // Traced re-run (short, untimed): one tracer per variant, merged
        // into the shared trace file under remapped pid blocks.
        let mut reports = Vec::new();
        for (variant, pipelines) in [("sync", &sync_p), ("overlap", &over_p)] {
            let tracer = Tracer::new();
            let _ = run_ranks(pipelines, latency, timesteps.min(5), &inits, Some(&tracer));
            let events = tracer.events();
            let report = TraceReport::from_events(&events);
            if variant == "overlap" {
                assert!(
                    report.comm_hidden_ns > 0,
                    "{}: overlapped trace must show comm hidden behind interior compute\n{report}",
                    case.name
                );
            } else {
                assert_eq!(
                    report.comm_hidden_ns, 0,
                    "{}: synchronous trace waits before any apply\n{report}",
                    case.name
                );
            }
            let base = ((ci * 2 + usize::from(variant == "overlap")) * 16) as u32;
            for rank in 0..pipelines.len() as u32 {
                trace_names.push((base + rank, format!("{} {variant} rank {rank}", case.name)));
            }
            for mut e in events {
                e.pid += base;
                trace_events.push(e);
            }
            reports.push((variant, report));
        }
        let sync = sync_best.expect("at least one rep");
        let over = over_best.expect("at least one rep");
        assert_eq!(
            sync.buffers, over.buffers,
            "{}: overlapped execution must be bit-identical to synchronous",
            case.name
        );
        let speedup = sync.seconds / over.seconds;
        any_faster |= speedup > 1.02;

        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", case.name);
        let _ = writeln!(
            json,
            "      \"layout\": [{}],",
            layout.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(", ")
        );
        let _ = writeln!(json, "      \"strategy\": \"{}\",", case.strategy);
        let _ = writeln!(json, "      \"points_per_step\": {},", sync_p[0].points_per_step());
        let _ = writeln!(
            json,
            "      \"exchanged_elements_per_step\": {},",
            sync_p[0].exchanged_elements_per_step()
        );
        let _ = writeln!(json, "      \"sync_seconds\": {:.6},", sync.seconds);
        let _ = writeln!(json, "      \"overlap_seconds\": {:.6},", over.seconds);
        let _ = writeln!(json, "      \"speedup\": {speedup:.3},");
        let _ = writeln!(
            json,
            "      \"sync_recv\": {{\"immediate\": {}, \"blocked\": {}}},",
            sync.world.total_recv_immediate(),
            sync.world.total_recv_blocked()
        );
        let _ = writeln!(
            json,
            "      \"overlap_recv\": {{\"immediate\": {}, \"blocked\": {}}},",
            over.world.total_recv_immediate(),
            over.world.total_recv_blocked()
        );
        for (variant, report) in &reports {
            let _ = writeln!(
                json,
                "      \"{variant}_trace\": {{\"comm_hidden_us\": {}, \"comm_exposed_us\": {}, \
                 \"overlap_efficiency\": {:.3}}},",
                report.comm_hidden_ns / 1_000,
                report.comm_exposed_ns / 1_000,
                report.overlap_efficiency()
            );
        }
        let _ = writeln!(json, "      \"bit_identical\": true");
        let _ = writeln!(json, "    }}{}", if ci + 1 == all.len() { "" } else { "," });
        rows.push(vec![
            case.name.to_string(),
            format!("{layout:?}"),
            format!("{:.4}", sync.seconds),
            format!("{:.4}", over.seconds),
            format!("{speedup:.2}x"),
            receives(&sync.world),
            receives(&over.world),
        ]);
    }
    let _ = writeln!(json, "  ],");

    // --- deep-halo temporal blocking: k ∈ {1,2,4,8} on jacobi-1d ---
    // depth=1 is the PR-5 overlapped exchange; deeper blocks exchange a
    // width-k halo once per k steps (same payload, k× fewer messages).
    let n_sweep: i64 = if args.smoke { 258 } else { 1 << 17 };
    let sweep_steps = if args.smoke { 8 } else { 200 }; // divisible by every k
    let depths = [1i64, 2, 4, 8];
    let sweep_case = &all[0];
    assert_eq!(sweep_case.name, "jacobi-1d-2ranks");
    let global: Vec<f64> = (0..n_sweep).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut sweep_rows = Vec::new();
    let mut depth1: Option<(DepthOutcome, usize, u64)> = None;
    let mut best_speedup = 0.0f64;
    let _ = writeln!(json, "  \"depth_sweep\": {{");
    let _ = writeln!(json, "    \"case\": \"{}\",", sweep_case.name);
    let _ = writeln!(json, "    \"timesteps\": {sweep_steps},");
    let _ = writeln!(json, "    \"points\": [");
    for (di, &k) in depths.iter().enumerate() {
        let (pipelines, _, boxes) = per_rank_pipelines(sweep_case, true, k);
        let placement = Layout { global: Bounds::new(vec![(0, n_sweep)]), ranks: boxes };
        assert!(pipelines[0].is_overlapped(), "depth={k} sweep pipeline must overlap");
        if k > 1 {
            assert!(
                !pipelines[0].temporal_summary().is_empty(),
                "depth={k} pipeline must carry a temporal block"
            );
        }
        // At depth `k` each rank's buffer carries a `k`-cell halo, so
        // local shapes differ across depths and only a shared global
        // initial condition makes the final owned cores comparable.
        let inits = placement.scatter(&global);
        let run = |steps: usize, tracer: Option<&Tracer>| {
            let o = run_ranks(&pipelines, latency, steps, &inits, tracer);
            let mut gathered = global.clone();
            placement.gather_into(&o.buffers, &mut gathered);
            DepthOutcome {
                seconds: o.seconds,
                gathered,
                sent_messages: o.world.total_sent_messages(),
                sent_elements: o.world.total_sent_elements(),
            }
        };
        let _ = run(sweep_steps.min(3), None);
        let mut best: Option<DepthOutcome> = None;
        for _ in 0..reps {
            let o = run(sweep_steps, None);
            if best.as_ref().map_or(true, |b| o.seconds < b.seconds) {
                best = Some(o);
            }
        }
        let o = best.expect("at least one rep");

        // Traced short run: the trace itself must show k× fewer MsgSend
        // instants carrying the same total bytes.
        let tracer = Tracer::new();
        let traced_steps = 8;
        let _ = run(traced_steps, Some(&tracer));
        let events = tracer.events();
        let (msg_sends, msg_bytes) = events.iter().fold((0usize, 0u64), |(c, b), e| match e.kind {
            stencil_core::trace::SpanKind::MsgSend { bytes, .. } => (c + 1, b + bytes),
            _ => (c, b),
        });
        let base = ((all.len() * 2 + di) * 16) as u32;
        for rank in 0..pipelines.len() as u32 {
            trace_names.push((base + rank, format!("jacobi-1d depth {k} rank {rank}")));
        }
        for mut e in events {
            e.pid += base;
            trace_events.push(e);
        }

        let speedup = match &depth1 {
            None => 1.0,
            Some((d1, _, _)) => d1.seconds / o.seconds,
        };
        // Every message carries a frame header, so k× fewer messages
        // carry k× fewer header words: compare payloads, not the wire.
        let payload = o.sent_elements - FRAME_HEADER as u64 * o.sent_messages;
        let payload_bytes = msg_bytes - 8 * (FRAME_HEADER * msg_sends) as u64;
        if let Some((d1, d1_sends, d1_payload_bytes)) = &depth1 {
            assert_eq!(
                d1.gathered, o.gathered,
                "depth={k} owned cores must be bit-identical to depth=1"
            );
            assert_eq!(
                o.sent_messages * k as u64,
                d1.sent_messages,
                "depth={k} must send {k}x fewer messages"
            );
            assert_eq!(
                payload,
                d1.sent_elements - FRAME_HEADER as u64 * d1.sent_messages,
                "depth={k} sends the same payload"
            );
            assert_eq!(
                msg_sends * k as usize,
                *d1_sends,
                "depth={k} trace must show {k}x fewer MsgSend events"
            );
            assert_eq!(
                payload_bytes, *d1_payload_bytes,
                "depth={k} trace carries the same payload"
            );
        }
        best_speedup = best_speedup.max(speedup);
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"depth\": {k},");
        let _ = writeln!(json, "        \"seconds\": {:.6},", o.seconds);
        let _ = writeln!(json, "        \"speedup_vs_depth1\": {speedup:.3},");
        let _ = writeln!(json, "        \"sent_messages\": {},", o.sent_messages);
        let _ = writeln!(json, "        \"sent_elements\": {},", o.sent_elements);
        let _ = writeln!(json, "        \"trace_msg_sends\": {msg_sends},");
        let _ = writeln!(json, "        \"trace_msg_bytes\": {msg_bytes}");
        let _ = writeln!(json, "      }}{}", if di + 1 == depths.len() { "" } else { "," });
        sweep_rows.push(vec![
            format!("depth={k}"),
            format!("{:.4}", o.seconds),
            format!("{speedup:.2}x"),
            o.sent_messages.to_string(),
            o.sent_elements.to_string(),
            msg_sends.to_string(),
        ]);
        if k == 1 {
            depth1 = Some((o, msg_sends, payload_bytes));
        }
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"best_speedup\": {best_speedup:.3}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    sten_bench::print_table(
        &format!(
            "temporal blocking on {}: width-k halo every k steps, {}us latency ({})",
            sweep_case.name,
            latency.as_micros(),
            if args.smoke { "SMOKE — numbers not meaningful" } else { "full" }
        ),
        &["depth", "seconds", "speedup", "msgs", "elems", "trace sends"],
        &sweep_rows,
    );
    if !args.smoke {
        assert!(
            best_speedup >= 1.2,
            "temporal blocking should beat depth-1 overlap by >=1.2x (got {best_speedup:.2}x)"
        );
    }
    sten_bench::print_table(
        &format!(
            "halo exchange: sync vs overlap over SimMPI, {}us message latency ({})",
            latency.as_micros(),
            if args.smoke { "SMOKE — numbers not meaningful" } else { "full" }
        ),
        &["case", "layout", "sync s", "overlap s", "speedup", "sync imm", "ovl imm"],
        &rows,
    );
    if !args.smoke {
        assert!(any_faster, "overlap should beat sync on at least one benchmark");
    }
    std::fs::write(&args.out, json).expect("write BENCH_halo.json");
    println!("wrote {}", args.out);

    let trace_path = format!("{}.trace.json", args.out.strip_suffix(".json").unwrap_or(&args.out));
    let trace_json = chrome::to_json(&trace_events, &trace_names);
    let stats = chrome::validate(&trace_json).expect("emitted trace validates");
    std::fs::write(&trace_path, trace_json).expect("write trace file");
    println!(
        "wrote {trace_path} ({} spans, {} instants, {} tracks — load in Perfetto)",
        stats.spans,
        stats.instants,
        stats.tracks.len()
    );
}
