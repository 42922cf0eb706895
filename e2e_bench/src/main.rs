//! `e2e_bench` — one repeatable end-to-end benchmark of the shared
//! stencil stack: IR text → passes → distribute → specialize → pack /
//! exchange / compute / reduce → checked result, with a per-layer trace.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- [options]
//!   --workload NAME   one workload (default: all seven, rounds interleaved)
//!   --seed N          seed of the generated input fields (default 1)
//!   --seconds S       S one-second timed rounds per workload (default 12;
//!                     2 with --smoke)
//!   --trace 0|1       0: timed pass only; 1: traced pass only; absent:
//!                     both, and results/ files are written
//!   --smoke           tiny grids, numbers not meaningful, nothing written
//!   --manifest        print BENCHMARK.json and exit
//! ```
//!
//! With `--trace` the last line of standard output is the result object
//! of the benchmark contract for the selected workload.

mod alloc;
mod harness;
mod host;
mod layers;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use stencil_core::ir::{parse_module, print_module, verify_module};
use stencil_core::trace::{chrome, Event, Tracer};

use harness::{run_round, timed_setup, warm_up, Gate, Metrics, Timing, Workload};
use stats::{iqr_pct, median};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const MIB: f64 = (1u64 << 20) as f64;

/// Where the all-workloads mode writes, whatever the working directory.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

struct Args {
    workload: Option<String>,
    seed: u64,
    rounds: usize,
    /// `None`: both passes and the result files.
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args { workload: None, seed: 1, rounds: 0, trace: None, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.rounds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.rounds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                })
            }
            "--smoke" => args.smoke = true,
            "--manifest" => {
                print!("{}", report::manifest());
                return Ok(None);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.rounds == 0 {
        args.rounds = if args.smoke { 2 } else { 12 };
    }
    Ok(Some(args))
}

/// One workload with everything measured on it so far.
struct Session {
    w: Box<dyn Workload>,
    /// Heap the set-up and the working buffers hold, bytes.
    held: u64,
    gate: Gate,
    timed: Timing,
    layers: Metrics,
    /// The op time the layer table divides by, ms: that of the traced
    /// rounds where the ops recorded spans, else the untraced one.
    table_op_ms: f64,
    /// The layer numbers come from a stand-alone model of the op, not
    /// from spans of the op itself.
    modelled: bool,
    traced_ops: u64,
    chrome: Vec<Event>,
}

impl Session {
    /// Cold set-ups (untraced), the correctness gate, the warm-up ops.
    fn open(name: &str, args: &Args) -> Result<Session, String> {
        let mut w = workloads::make(name, args.seed, args.smoke)?;
        let live0 = alloc::live();
        let mut timed = Timing::new(Tracer::disabled());
        for _ in 0..5 {
            timed_setup(w.as_mut(), &mut timed)?;
        }
        w.reset();
        let held = alloc::live().saturating_sub(live0);
        let gate = w.check();
        warm_up(w.as_mut(), &mut timed);
        Ok(Session {
            w,
            held,
            gate,
            timed,
            layers: Metrics::default(),
            table_op_ms: 0.0,
            modelled: false,
            traced_ops: 0,
            chrome: Vec::new(),
        })
    }

    fn round(&mut self, secs: f64) {
        run_round(self.w.as_mut(), &mut self.timed, secs, self.gate.reference_digest);
    }

    /// After the timed rounds: what the last op stored on the heap must
    /// be inside the reported peak.
    fn check_peak(&mut self) {
        let (peak, floor) = (self.held + self.timed.transient_peak, self.w.heap_floor());
        self.gate.expect(peak >= floor, || {
            format!("peak live heap {peak} B does not cover the {floor} B the op stored")
        });
    }

    fn attempted(&self) -> u64 {
        self.timed.ops + self.traced_ops + self.gate.checks
    }

    fn failed(&self) -> u64 {
        self.timed.failed + self.gate.failures.len() as u64
    }

    fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        let peak = (self.held + self.timed.transient_peak) as f64 / MIB;
        let values = [self.timed.p50(), median(&self.timed.setup_s), peak];
        report::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name.to_string(), v, unit))
            .collect()
    }

    /// The traced pass: a traced set-up, two half-length rounds, the
    /// workload's own probes, and everything derived from them.
    fn trace(&mut self, host: &Metrics) -> Result<(), String> {
        let op_ms = self.timed.p50();
        let tracer = Tracer::new();
        let mut traced = Timing::new(tracer.clone());
        timed_setup(self.w.as_mut(), &mut traced)?;
        warm_up(self.w.as_mut(), &mut traced);
        for _ in 0..2 {
            run_round(self.w.as_mut(), &mut traced, 0.5, self.gate.reference_digest);
        }
        let stand_alone = self.w.traced_ops()?;
        let covered = stand_alone.unwrap_or(traced.ops as f64);
        self.modelled = stand_alone.is_some();
        self.traced_ops = traced.ops;
        self.timed.failed += traced.failed;
        self.timed.failures.append(&mut traced.failures);

        let events = tracer.events();
        let ops_traced = stand_alone.is_none() && !events.is_empty() && !traced.samples.is_empty();
        self.table_op_ms = if ops_traced { traced.p50() } else { op_ms };
        let out = &mut self.layers;
        out.0.extend(host.0.iter().cloned());
        layers::fold(&events, covered, self.w.ranks(), out);
        self.chrome = events.into_iter().take(4000).collect();

        let t = &self.timed;
        let canary: Vec<f64> = t.canary.iter().chain(&traced.canary).copied().collect();
        out.set("host.canary_ms_p50", median(&canary), "ms");
        out.set("host.canary_spread_pct", iqr_pct(&canary), "%");
        out.set("harness.samples", t.samples.len() as f64, "count");
        out.set("harness.op_ms_p90", t.p90(), "ms");
        out.set("harness.round_spread_pct", t.round_spread_pct(), "%");
        out.set("harness.mpts_per_s", self.w.points_per_op() as f64 / op_ms / 1e3, "Mpts/s");
        out.set("harness.allocs_per_op", t.allocs as f64 / t.batch_ops.max(1) as f64, "count");
        let kib = t.alloc_bytes as f64 / 1024.0 / t.batch_ops.max(1) as f64;
        out.set("harness.alloc_kib_per_op", kib, "KiB");
        // 48 bits of the digest: exact in an f64.
        let digest = self.gate.reference_digest & ((1 << 48) - 1);
        out.set("harness.digest", digest as f64, "hash");
        if !traced.samples.is_empty() {
            out.set("trace.overhead_pct", 100.0 * (traced.p50() - op_ms) / op_ms, "%");
        }

        self.timed.setup_times().report(out);
        ir_probe(&self.w.ir_texts(), out)?;
        if self.w.ranks() > 1 {
            host::simmpi_metrics(out);
        }
        self.w.probes(op_ms, out)?;

        let rate = out.get("exec.kernel_mpts_per_s").unwrap_or(0.0) * 1e6;
        let bytes = out.get("exec.bytes_per_point_computed").unwrap_or(0.0);
        let triad = host.get("host.triad_gb_per_s").unwrap_or(0.0) * 1e9;
        if triad > 0.0 {
            out.set("exec.roofline_fraction", rate * bytes / triad, "ratio");
        }
        Ok(())
    }
}

/// The `ir` layer on this workload's own texts: parse rate, verifier and
/// printer time, each the median of 5 passes over all texts.
fn ir_probe(texts: &[&str], out: &mut Metrics) -> Result<(), String> {
    let registry = stencil_core::standard_registry();
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    let (mut parse, mut verify, mut print) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let modules: Vec<_> = texts
            .iter()
            .map(|t| parse_module(t))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        parse.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for m in &modules {
            verify_module(m, Some(&registry)).map_err(|e| format!("{e:?}"))?;
        }
        verify.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for m in &modules {
            std::hint::black_box(print_module(m));
        }
        print.push(t0.elapsed().as_secs_f64());
    }
    out.set("ir.parse_mib_per_s", bytes as f64 / MIB / median(&parse), "MiB/s");
    out.set("ir.verify_ms", median(&verify) * 1e3, "ms");
    out.set("ir.print_ms", median(&print) * 1e3, "ms");
    Ok(())
}

/// Shares of the op by layer, from the per-layer numbers.
fn layer_table(s: &Session) -> String {
    let m = &s.layers;
    let op_us = s.table_op_ms * 1e3;
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    // (label, µs, counts toward the total)
    // Only a workload whose op is `compile` has time in the pass driver.
    let rows: Vec<(&str, f64, bool)> = if get("opt.driver_ms") != 0.0 {
        let passes: f64 = report::PASSES.iter().map(|p| get(&format!("opt.pass_ms.{p}"))).sum();
        let specialize = get("exec.compile_ms") + get("stencil.shape_inference_ms");
        vec![
            ("ir parse", get("ir.parse_ms") * 1e3, true),
            ("opt passes", passes * 1e3, true),
            ("opt driver (resolve, verify-each, print)", get("opt.driver_ms") * 1e3, true),
            ("exec specialize + shape inference", specialize * 1e3, true),
        ]
    } else {
        vec![
            ("exec apply (full)", get("exec.apply_full_us"), true),
            ("exec apply (interior)", get("exec.apply_interior_us"), true),
            ("exec apply (boundary shells)", get("exec.apply_boundary_us"), true),
            ("  of the applies, below template-jit", get("exec.apply_lower_tier_us"), false),
            ("exec swap begin", get("exec.swap_begin_us"), true),
            ("  of which pack", get("exec.pack_us"), false),
            ("exec swap wait", get("exec.swap_wait_us"), true),
            ("  of which unpack", get("exec.unpack_us"), false),
            ("  of which blocked in interp recv", get("exec.comm_exposed_us"), false),
            ("exec reduce partial", get("exec.reduce_partial_us"), true),
            ("exec reduce wait (interp exchange_all)", get("exec.reduce_wait_us"), true),
            ("exec copy", get("exec.copy_us"), true),
            ("exec step other", get("exec.step_other_us"), true),
            ("exec checkpoint (snapshot, put, barrier)", get("exec.ckpt_us"), true),
        ]
    };
    let mut out = format!(
        "  layer shares of the op, per rank ({:.1} us; untraced op_ms_p50 {:.1} us):\n",
        op_us,
        s.timed.p50() * 1e3
    );
    if s.modelled {
        out.push_str(
            "  (a model: the op's kernels run stand-alone; the op itself takes no tracer)\n",
        );
    }
    let mut covered = 0.0;
    for (label, us, counts) in rows {
        if counts {
            covered += us;
        }
        if us != 0.0 {
            out.push_str(&format!("    {label:<44} {us:>12.2} us {:>6.1} %\n", 100.0 * us / op_us));
        }
    }
    let rest = op_us - covered;
    out.push_str(&format!(
        "    {:<44} {rest:>12.2} us {:>6.1} %\n",
        "outside these spans",
        100.0 * rest / op_us
    ));
    out
}

fn print_session(s: &Session, with_layers: bool) {
    println!("\n== {} ==", s.w.name());
    for (name, value, unit) in s.end_to_end() {
        let extra = match name.as_str() {
            "op_ms_p50" => format!(
                "  ({} batch samples, {} rounds)",
                s.timed.samples.len(),
                s.timed.round_medians.len()
            ),
            "setup_s" => format!("  (median of {} cold set-ups)", s.timed.setup_s.len()),
            _ => String::new(),
        };
        println!("  {name:<16} {value:>14.6} {unit}{extra}");
    }
    println!("  failed_ops       {:>14} of {} ops and checks", s.failed(), s.attempted());
    let rounds: Vec<String> = s.timed.round_medians.iter().map(|m| format!("{m:.4}")).collect();
    println!("  round medians    {} ms", rounds.join(" "));
    for f in s.gate.failures.iter().chain(&s.timed.failures) {
        println!("  FAILED: {f}");
    }
    if with_layers {
        print!("{}", layer_table(s));
        println!("  per-layer metrics (those not listed read 0: the workload does not cross that layer):");
        for (name, value, unit) in report::layer_values(&s.layers) {
            if value != 0.0 && value.abs() < 1e-3 {
                println!("    {name:<42} {value:>16.4e} {unit}");
            } else if value != 0.0 {
                println!("    {name:<42} {value:>16.4} {unit}");
            }
        }
    }
}

fn write_results(sessions: &[Session], host: &Metrics, args: &Args) -> std::io::Result<()> {
    let dir = std::path::Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    let mut json = String::from("{\n  \"schema\": \"sten-e2e/v1\",\n");
    json.push_str(&format!("  \"seed\": {}, \"rounds\": {},\n", args.seed, args.rounds));
    json.push_str(&format!(
        "  \"host\": {},\n  \"workloads\": [\n",
        report::metrics_object(&host.0)
    ));
    for (i, s) in sessions.iter().enumerate() {
        let bounds: Vec<String> =
            report::END_TO_END.iter().map(|(n, _, b)| format!("\"{n}\": {b}")).collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops\": {}, \"failed_ops\": {}, \"samples\": {}, \"setups\": {},\n      \"end_to_end\": {},\n      \"bounds\": {{{}}},\n      \"per_layer\": {}}}{}\n",
            s.w.name(),
            s.attempted(),
            s.failed(),
            s.timed.samples.len(),
            s.timed.setup_s.len(),
            report::metrics_object(&s.end_to_end()),
            bounds.join(", "),
            report::metrics_object(&report::layer_values(&s.layers)),
            if i + 1 == sessions.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(dir.join("e2e.json"), json)?;

    // One Chrome trace: each workload's first events on its own pid block.
    let mut events = Vec::new();
    let mut names = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        let base = 16 * i as u32;
        for rank in 0..s.w.ranks() as u32 {
            names.push((base + rank, format!("{} rank {rank}", s.w.name())));
        }
        events.extend(s.chrome.iter().cloned().map(|mut e| {
            e.pid += base;
            e
        }));
    }
    std::fs::write(dir.join("e2e.trace.json"), chrome::to_json(&events, &names))
}

fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let timed_rounds = match args.trace {
        // The traced pass needs an untraced figure to compare with, not
        // a steady one.
        Some(true) => (args.rounds / 2).max(2),
        _ => args.rounds,
    };
    let mut sessions =
        names.iter().map(|n| Session::open(n, args)).collect::<Result<Vec<_>, _>>()?;
    // Rounds interleave across workloads, so a slow period of the host
    // is spread over all of them.
    for _ in 0..timed_rounds {
        for s in &mut sessions {
            s.round(1.0);
        }
    }
    sessions.iter_mut().for_each(Session::check_peak);
    let mut host = Metrics::default();
    if args.trace != Some(false) {
        host::host_metrics(args.smoke, &mut host);
        for s in &mut sessions {
            s.trace(&host)?;
        }
    }

    for s in &sessions {
        print_session(s, args.trace != Some(false));
    }
    // A smoke run's numbers mean nothing: it must not replace the baseline.
    if args.trace.is_none() && !args.smoke {
        write_results(&sessions, &host, args).map_err(|e| format!("writing results: {e}"))?;
        println!("\nwrote e2e.json and e2e.trace.json in {RESULTS_DIR}");
    }
    let failed: u64 = sessions.iter().map(Session::failed).sum();
    if let (Some(traced), [s]) = (args.trace, sessions.as_slice()) {
        let metrics = if traced { report::layer_values(&s.layers) } else { s.end_to_end() };
        println!("{}", report::result_line(s.attempted(), s.failed(), &metrics));
    }
    Ok(failed == 0)
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| a.map_or(Ok(true), |a| run(&a))) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
