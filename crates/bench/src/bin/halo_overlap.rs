//! `halo_overlap` — the sync-vs-overlap halo exchange gap over SimMPI.
//!
//! Runs the same distributed stencils synchronously (`SwapBegin`
//! immediately followed by `SwapWait`) and overlapped
//! (`distribute-stencil{overlap=true}`: begin / interior / wait /
//! boundary shells) over a [`SimWorld`] with a simulated per-message
//! delivery latency standing in for network transit time, and then
//! jacobi-1d at halo depths k ∈ {1, 2, 4, 8} (a width-k halo once per k
//! steps). Each comparison runs as alternating pairs of whole SPMD runs
//! ([`sten_bench::instrument`]). Outputs are asserted **bit-identical**
//! across variants and depths; the speed-ups, the receive counters (how
//! many receives found their message already delivered) and the message
//! counts land in `BENCH_halo.json`.
//!
//! ```text
//! cargo run --release -p sten-bench --bin halo_overlap            # full
//! cargo run --release -p sten-bench --bin halo_overlap -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks grids, steps, pairs and the latency so the bit-identity
//! assertions stay exercised in CI; smoke numbers are *not* meaningful.
//! Full runs gate overlap over sync at ≥ 1.02× on at least one case and
//! the best depth over depth 1 at ≥ 1.2×.
//!
//! A short traced re-run of every variant lands in `BENCH_halo.trace.json`
//! (Chrome trace-event format — load it in Perfetto). The trace is
//! asserted to show the overlap contract — comm time hidden behind
//! `Apply{Interior}` on the overlapped variant, none on the synchronous
//! one — and, at depth k, k× fewer `MsgSend` instants carrying the same
//! payload.

use std::time::Duration;
use sten_bench::instrument::{paired, ping_pong, write_trace, Args, Gate, Ratio, Report, Spmd};
use sten_bench::obj;
use stencil_core::dmp::{make_strategy, DistributeStencil};
use stencil_core::exec::{Pipeline, FRAME_HEADER};
use stencil_core::ir::{Attribute, Pass as _};
use stencil_core::prelude::*;
use stencil_core::stencil::ShapeInference;

struct Case {
    name: &'static str,
    func: &'static str,
    /// Stencil-level module (pre-distribution).
    module: Module,
    grid: Vec<i64>,
    strategy: &'static str,
}

fn cases(smoke: bool) -> Vec<Case> {
    let mk = |mut m: Module| {
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

/// One way to distribute a case: the per-rank pipelines, the rank grid
/// the strategy chose, where each rank sits in the global field, and
/// each rank's scattered share of the global initial condition.
struct Variant {
    label: String,
    overlap: bool,
    depth: i64,
    pipelines: Vec<Pipeline>,
    grid: Vec<i64>,
    layout: Layout,
    inits: Vec<Vec<f64>>,
}

impl Variant {
    fn new(case: &Case, overlap: bool, depth: i64) -> Variant {
        let modules: Vec<Module> = (0..case.grid.iter().product())
            .map(|rank| {
                let mut m = case.module.clone();
                let strategy = make_strategy(case.strategy, None).unwrap();
                DistributeStencil::with_strategy(case.grid.clone(), strategy)
                    .for_rank(rank)
                    .with_overlap(overlap)
                    .with_depth(HaloDepth::Fixed(depth))
                    .run(&mut m)
                    .unwrap();
                ShapeInference.run(&mut m).unwrap();
                m
            })
            .collect();
        let f = modules[0].lookup_symbol(case.func).unwrap();
        let grid = f.attr("dmp.grid").and_then(Attribute::as_grid).expect("grid recorded").to_vec();
        let global = RankBox::of(&case.module, case.func).unwrap().stored;
        let field: Vec<f64> = (0..global.num_points()).map(|i| (i as f64 * 0.001).sin()).collect();
        let layout = Layout::of_modules(global, &modules, case.func).unwrap();
        let pipelines: Vec<Pipeline> =
            modules.iter().map(|m| compile_pipeline(m, case.func).unwrap()).collect();
        assert_eq!(pipelines[0].is_overlapped(), overlap, "{}: overlap={overlap}", case.name);
        assert!(
            depth == 1 || !pipelines[0].temporal_summary().is_empty(),
            "{}: a depth={depth} pipeline must carry a temporal block",
            case.name
        );
        let label = format!("{} depth {depth}", if overlap { "overlap" } else { "sync" });
        let inits = layout.scatter(&field);
        Variant { label, overlap, depth, pipelines, grid, layout, inits }
    }

    /// One SPMD run over a fresh world with `latency`.
    fn run(&self, latency: Duration, steps: usize, tracer: Option<&Tracer>) -> Spmd {
        let tracer_or_off = tracer.cloned().unwrap_or_else(Tracer::disabled);
        let world = SimWorld::new_traced(self.pipelines.len(), latency, tracer_or_off);
        ping_pong(world, &self.pipelines, &self.inits, steps, tracer)
    }

    /// The owned cores of a run, gathered into the global field.
    fn owned(&self, run: &Spmd) -> Vec<f64> {
        let mut global = vec![0.0; self.layout.global.num_points() as usize];
        self.layout.gather_into(&finals(run), &mut global);
        global
    }
}

/// Each rank's last-written buffer.
fn finals(run: &Spmd) -> Vec<Vec<f64>> {
    run.args.iter().map(|a| a[0].clone()).collect()
}

fn main() {
    let args = Args::parse("BENCH_halo.json", None);
    let latency = Duration::from_micros(if args.smoke { 20 } else { 150 });
    let steps = if args.smoke { 8 } else { 200 }; // divisible by every depth
    let pairs = if args.smoke { 3 } else { 9 };
    let all = cases(args.smoke);
    // (case, a, b) with a variant as (overlap, depth): overlapped against
    // synchronous on every case, then depth k against depth 1 on
    // jacobi-1d (depth 1 against itself reads the method's noise floor).
    let table = [
        (0, (true, 1), (false, 1)),
        (1, (true, 1), (false, 1)),
        (2, (true, 1), (false, 1)),
        (0, (true, 1), (true, 1)),
        (0, (true, 2), (true, 1)),
        (0, (true, 4), (true, 1)),
        (0, (true, 8), (true, 1)),
    ];
    let mut report = Report::new(&args);
    let mut traces = Vec::new();
    let (mut best_overlap, mut best_depth) = (None::<Ratio>, None::<Ratio>);
    for (ci, (overlap_a, depth_a), (overlap_b, depth_b)) in table {
        let case = &all[ci];
        let a = Variant::new(case, overlap_a, depth_a);
        let b = Variant::new(case, overlap_b, depth_b);
        let name = format!("{}: {} vs {}", case.name, a.label, b.label);
        let (mut ra, mut rb) = (None, None);
        let speedup = paired(
            || ra.insert(a.run(latency, steps, None)).wall,
            || rb.insert(b.run(latency, steps, None)).wall,
            pairs,
        );
        let (ra, rb) = (ra.expect("a timed run"), rb.expect("a timed run"));
        assert!(a.owned(&ra) == b.owned(&rb), "{name}: owned cores must be bit-identical");
        assert!(
            a.depth != b.depth || finals(&ra) == finals(&rb),
            "{name}: equal depths must leave bit-identical buffers, halos included"
        );
        let best = if b.overlap { &mut best_depth } else { &mut best_overlap };
        if best.map_or(true, |r| speedup.median > r.median) {
            *best = Some(speedup);
        }

        // A short traced run of each variant: comm hidden behind interior
        // compute exactly when overlapped, and the message counts (the
        // artifact keeps each variant once: depth 1 is a row's `a`). Every
        // message carries a frame header, so k× fewer messages carry k×
        // fewer header words: compare payloads, not the wire.
        // Two blocks of the deeper variant: every depth sends whole blocks.
        let traced_steps = 2 * a.depth as usize;
        let variants = [(&a, &ra, true), (&b, &rb, !b.overlap)];
        let [(counts_a, summary_a), (counts_b, summary_b)] = variants.map(|(v, timed, keep)| {
            let tracer = Tracer::new();
            v.run(latency, traced_steps, Some(&tracer));
            let events = tracer.events();
            let t = TraceReport::from_events(&events);
            assert_eq!(t.comm_hidden_ns > 0, v.overlap, "{name}, {}: comm hidden\n{t}", v.label);
            let (sends, bytes) = events.iter().fold((0, 0), |(c, b), e| match e.kind {
                SpanKind::MsgSend { bytes, .. } => (c + 1, b + bytes),
                _ => (c, b),
            });
            if keep {
                traces.push((format!("{} {}", case.name, v.label), events));
            }
            let w = &timed.world;
            let (messages, elements) = (w.total_sent_messages(), w.total_sent_elements());
            let header = FRAME_HEADER as u64;
            let counts =
                [messages, elements - header * messages, sends, bytes - 8 * header * sends];
            let summary = obj! {
                "variant": v.label.as_str(), "recv_immediate": w.total_recv_immediate(),
                "recv_blocked": w.total_recv_blocked(), "sent_messages": messages,
                "sent_elements": elements, "trace_msg_sends": sends, "trace_msg_bytes": bytes,
                "comm_hidden_us": t.comm_hidden_ns / 1_000,
                "comm_exposed_us": t.comm_exposed_ns / 1_000,
                "overlap_efficiency": t.overlap_efficiency(),
            };
            (counts, summary)
        });
        let k = (a.depth / b.depth) as u64;
        let ([ma, pa, sa, ba], [mb, pb, sb, bb]) = (counts_a, counts_b);
        assert_eq!(ma * k, mb, "{name}: {k}x fewer messages");
        assert_eq!(pa, pb, "{name}: the same payload");
        assert_eq!(sa * k, sb, "{name}: a trace with {k}x fewer MsgSend events");
        assert_eq!(ba, bb, "{name}: a trace carrying the same payload");
        report.case(obj! {
            "name": name, "strategy": case.strategy, "layout": a.grid.clone(),
            "latency_us": latency.as_micros() as u64, "timesteps": steps,
            "points_per_step": a.pipelines[0].points_per_step(),
            "exchanged_elements_per_step": a.pipelines[0].exchanged_elements_per_step(),
            "seconds": vec![speedup.a, speedup.b], "speedup": speedup,
            "variants": vec![summary_a, summary_b], "bit_identical": true,
        });
    }
    let gate = Gate::floor("overlap over sync, best case", 1.02);
    report.full_gate(&gate, || best_overlap.expect("an overlap case"));
    let gate = Gate::floor("depth-k over depth-1, best k", 1.2);
    report.full_gate(&gate, || best_depth.expect("a depth case"));
    write_trace(&args.out, &traces);
    report.write(&args.out);
}
