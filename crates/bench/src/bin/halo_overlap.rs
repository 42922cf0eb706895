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

/// One module per rank at the stencil level, ready for the executor.
fn per_rank_pipelines(case: &Case, overlap: bool, depth: i64) -> (Vec<Pipeline>, Vec<i64>) {
    let ranks: i64 = case.grid.iter().product();
    let mut pipelines = Vec::new();
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
        pipelines.push(compile_pipeline(&m, case.func).unwrap());
    }
    (pipelines, layout)
}

struct RunOutcome {
    seconds: f64,
    buffers: Vec<Vec<f64>>,
    recv_immediate: u64,
    recv_blocked: u64,
}

/// Runs `timesteps` ping-pong steps on every rank (one OS thread per
/// rank, serial runner inside) and returns the wall-clock of the whole
/// SPMD execution plus every rank's final buffer.
fn run_spmd_pipelines(
    pipelines: &[Pipeline],
    latency: Duration,
    timesteps: usize,
    tracer: Option<&Tracer>,
) -> RunOutcome {
    let ranks = pipelines.len();
    let world = match tracer {
        Some(t) => SimWorld::new_traced(ranks, latency, t.clone()),
        None => SimWorld::new_with_latency(ranks, latency),
    };
    let mut buffers: Vec<Vec<f64>> = vec![Vec::new(); ranks];
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (rank, out) in buffers.iter_mut().enumerate() {
            let world = Arc::clone(&world);
            let pipeline = pipelines[rank].clone();
            scope.spawn(move || {
                let mut args: Vec<Vec<f64>> = pipeline
                    .arg_shapes
                    .iter()
                    .map(|s| {
                        let len = s.iter().product::<i64>().max(0) as usize;
                        (0..len).map(|i| ((i + rank) as f64 * 0.001).sin()).collect()
                    })
                    .collect();
                let mut runner = Runner::new(pipeline, 1);
                if let Some(t) = tracer {
                    runner = runner.with_trace(t, rank as u32);
                }
                for _ in 0..timesteps {
                    runner.step_distributed(&mut args, &world, rank as i64).unwrap();
                    args.swap(0, 1);
                }
                *out = args[0].clone();
            });
        }
    });
    RunOutcome {
        seconds: t0.elapsed().as_secs_f64(),
        buffers,
        recv_immediate: world.total_recv_immediate(),
        recv_blocked: world.total_recv_blocked(),
    }
}

struct DepthOutcome {
    seconds: f64,
    /// Global buffer with every rank's owned core gathered back in.
    gathered: Vec<f64>,
    sent_messages: u64,
    sent_elements: u64,
}

/// Runs the jacobi-1d depth-sweep pipelines with scatter-from-global
/// initialization: at depth `k` each rank's local buffer carries a
/// `k`-cell halo, so local shapes differ across depths and only a
/// shared global initial condition makes the final owned cores
/// comparable bit-for-bit. `core_n` is the decomposed core extent
/// (jacobi stores `[1, n-1)` of its `[0, n)` field, so `core_n = n-2`
/// and `global.len() == n`).
fn run_depth_spmd(
    pipelines: &[Pipeline],
    latency: Duration,
    timesteps: usize,
    global: &[f64],
    core_n: i64,
    halo: i64,
    tracer: Option<&Tracer>,
) -> DepthOutcome {
    let ranks = pipelines.len();
    let world = match tracer {
        Some(t) => SimWorld::new_traced(ranks, latency, t.clone()),
        None => SimWorld::new_with_latency(ranks, latency),
    };
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); ranks];
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (rank, out) in outs.iter_mut().enumerate() {
            let world = Arc::clone(&world);
            let pipeline = pipelines[rank].clone();
            scope.spawn(move || {
                let (off, c) = stencil_core::dmp::balanced_chunk(core_n, ranks as i64, rank as i64);
                let local = c + 2 * halo;
                assert_eq!(
                    pipeline.arg_shapes[0],
                    vec![local],
                    "rank {rank}: local shape must be core + 2*{halo}"
                );
                // Local index p maps to global flat `off + 1 + p - halo`
                // (jacobi radius 1); cells past the global pad are dead
                // and zero-filled.
                let init: Vec<f64> = (0..local)
                    .map(|p| {
                        let flat = off + 1 + p - halo;
                        if flat < 0 || flat >= global.len() as i64 {
                            0.0
                        } else {
                            global[flat as usize]
                        }
                    })
                    .collect();
                let mut args = vec![init.clone(), init];
                let mut runner = Runner::new(pipeline, 1);
                if let Some(t) = tracer {
                    runner = runner.with_trace(t, rank as u32);
                }
                for _ in 0..timesteps {
                    runner.step_distributed(&mut args, &world, rank as i64).unwrap();
                    args.swap(0, 1);
                }
                *out = args[0].clone();
            });
        }
    });
    let seconds = t0.elapsed().as_secs_f64();
    let mut gathered = global.to_vec();
    for (rank, local) in outs.iter().enumerate() {
        let (off, c) = stencil_core::dmp::balanced_chunk(core_n, ranks as i64, rank as i64);
        for p in 0..c {
            gathered[(off + 1 + p) as usize] = local[(halo + p) as usize];
        }
    }
    DepthOutcome {
        seconds,
        gathered,
        sent_messages: world.total_sent_messages(),
        sent_elements: world.total_sent_elements(),
    }
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
        let (sync_p, layout) = per_rank_pipelines(case, false, 1);
        let (over_p, _) = per_rank_pipelines(case, true, 1);
        assert!(!sync_p[0].is_overlapped());
        assert!(over_p[0].is_overlapped(), "{}: overlap pipeline did not split", case.name);

        // Best-of-reps (after one warm-up each) keeps scheduler noise out
        // of the committed numbers.
        let mut sync_best: Option<RunOutcome> = None;
        let mut over_best: Option<RunOutcome> = None;
        let _ = run_spmd_pipelines(&sync_p, latency, timesteps.min(3), None);
        let _ = run_spmd_pipelines(&over_p, latency, timesteps.min(3), None);
        for _ in 0..reps {
            let s = run_spmd_pipelines(&sync_p, latency, timesteps, None);
            if sync_best.as_ref().map_or(true, |b| s.seconds < b.seconds) {
                sync_best = Some(s);
            }
            let o = run_spmd_pipelines(&over_p, latency, timesteps, None);
            if over_best.as_ref().map_or(true, |b| o.seconds < b.seconds) {
                over_best = Some(o);
            }
        }

        // Traced re-run (short, untimed): one tracer per variant, merged
        // into the shared trace file under remapped pid blocks.
        let mut reports = Vec::new();
        for (variant, pipelines) in [("sync", &sync_p), ("overlap", &over_p)] {
            let tracer = Tracer::new();
            let _ = run_spmd_pipelines(pipelines, latency, timesteps.min(5), Some(&tracer));
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
            sync.recv_immediate, sync.recv_blocked
        );
        let _ = writeln!(
            json,
            "      \"overlap_recv\": {{\"immediate\": {}, \"blocked\": {}}},",
            over.recv_immediate, over.recv_blocked
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
            format!("{}/{}", sync.recv_immediate, sync.recv_immediate + sync.recv_blocked),
            format!("{}/{}", over.recv_immediate, over.recv_immediate + over.recv_blocked),
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
    let core_n = n_sweep - 2; // jacobi stores [1, n-1) of its [0, n) field
    let global: Vec<f64> = (0..n_sweep).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut sweep_rows = Vec::new();
    let mut depth1: Option<(DepthOutcome, usize, u64)> = None;
    let mut best_speedup = 0.0f64;
    let _ = writeln!(json, "  \"depth_sweep\": {{");
    let _ = writeln!(json, "    \"case\": \"{}\",", sweep_case.name);
    let _ = writeln!(json, "    \"timesteps\": {sweep_steps},");
    let _ = writeln!(json, "    \"points\": [");
    for (di, &k) in depths.iter().enumerate() {
        let (pipelines, _) = per_rank_pipelines(sweep_case, true, k);
        assert!(pipelines[0].is_overlapped(), "depth={k} sweep pipeline must overlap");
        if k > 1 {
            assert!(
                !pipelines[0].temporal_summary().is_empty(),
                "depth={k} pipeline must carry a temporal block"
            );
        }
        let _ = run_depth_spmd(&pipelines, latency, sweep_steps.min(3), &global, core_n, k, None);
        let mut best: Option<DepthOutcome> = None;
        for _ in 0..reps {
            let o = run_depth_spmd(&pipelines, latency, sweep_steps, &global, core_n, k, None);
            if best.as_ref().map_or(true, |b| o.seconds < b.seconds) {
                best = Some(o);
            }
        }
        let o = best.expect("at least one rep");

        // Traced short run: the trace itself must show k× fewer MsgSend
        // instants carrying the same total bytes.
        let tracer = Tracer::new();
        let traced_steps = 8;
        let _ =
            run_depth_spmd(&pipelines, latency, traced_steps, &global, core_n, k, Some(&tracer));
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
