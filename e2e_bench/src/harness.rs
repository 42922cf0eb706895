//! How a number is taken: ops are timed in batches of 15–60 ms (one
//! `Instant` pair per batch), every batch restarts from the seeded state,
//! batches are grouped in rounds of about a second, every round re-checks
//! the result digest, and the reported figure is the median over all
//! batch samples of all rounds. Totals, means and minima are never
//! reported: see the README for what they did on the authoring host.

use std::time::{Duration, Instant};

use stencil_core::trace::Tracer;

use crate::alloc;
use crate::stats::{iqr_pct, median, quantile};

/// Stopwatch readings of one set-up, seconds per layer boundary. A
/// workload fills what its set-up path crosses and leaves the rest 0.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// Frontend seconds behind this workload's IR text (part of the
    /// set-up only on `compile-cold`).
    pub frontend_devito: f64,
    pub frontend_psyclone: f64,
    pub parse: f64,
    pub shape_inference: f64,
    pub distribute: f64,
    pub exec_compile: f64,
    pub runner_new: f64,
}

impl SetupTimes {
    pub fn median_of(parts: &[SetupTimes]) -> SetupTimes {
        let med = |f: fn(&SetupTimes) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            frontend_devito: med(|t| t.frontend_devito),
            frontend_psyclone: med(|t| t.frontend_psyclone),
            parse: med(|t| t.parse),
            shape_inference: med(|t| t.shape_inference),
            distribute: med(|t| t.distribute),
            exec_compile: med(|t| t.exec_compile),
            runner_new: med(|t| t.runner_new),
        }
    }

    /// The per-layer metrics these stopwatches are.
    pub fn report(&self, out: &mut Metrics) {
        out.set("devito.operator_compile_ms", self.frontend_devito * 1e3, "ms");
        out.set("psyclone.lower_ms", self.frontend_psyclone * 1e3, "ms");
        out.set("ir.parse_ms", self.parse * 1e3, "ms");
        out.set("stencil.shape_inference_ms", self.shape_inference * 1e3, "ms");
        out.set("dmp.distribute_ms", self.distribute * 1e3, "ms");
        out.set("exec.compile_ms", self.exec_compile * 1e3, "ms");
        out.set("exec.runner_new_ms", self.runner_new * 1e3, "ms");
    }
}

/// Outcome of a workload's correctness gate.
#[derive(Default)]
pub struct Gate {
    /// Comparisons made against a reference.
    pub checks: u64,
    /// One message per comparison that diverged.
    pub failures: Vec<String>,
    /// Digest the state must show after [`Workload::digest_ops`] ops
    /// from the seeded state, taken from the reference, not the program.
    pub reference_digest: u64,
}

impl Gate {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Name → (value, unit), in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// One benchmark workload: seeded inputs built by `new`, the program's
/// set-up and ops behind these methods.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Rank threads an op runs on (1 = the calling thread or its pool).
    fn ranks(&self) -> usize {
        1
    }

    /// Grid points one op updates (0 where an op is not a sweep).
    fn points_per_op(&self) -> u64;

    /// One cold set-up of the program from IR text to a runnable state.
    /// An enabled `tracer` is attached to every runner and world built.
    fn setup(&mut self, tracer: &Tracer) -> Result<SetupTimes, String>;

    /// Drops what `setup` built (joins pool threads, frees worlds), so
    /// that the next set-up is not charged for it.
    fn teardown(&mut self);

    /// Restores the seeded initial state, reusing the working buffers
    /// (harness work, never timed).
    fn reset(&mut self);

    /// Runs `ops` ops back to back and returns their wall-clock time
    /// (rank 0's clock on 2-rank workloads).
    fn run(&mut self, ops: usize) -> Result<Duration, String>;

    /// Digest of the current result state.
    fn digest(&self) -> u64;

    /// Compares the program with references that are not the code under
    /// test. Leaves the state unspecified: callers reset afterwards.
    fn check(&mut self) -> Gate;

    /// Ops between a reset and the digest comparison of each round.
    fn digest_ops(&self) -> usize {
        3
    }

    /// Upper limit on ops per batch, for an op that amplifies its input
    /// (a batch always starts from the seeded state).
    fn batch_ops_cap(&self) -> usize {
        usize::MAX
    }

    /// Heap bytes the last op is known to have left filled (a store it
    /// wrote into): the gate requires `peak_live_mib` to cover them.
    fn heap_floor(&self) -> u64 {
        0
    }

    /// The IR texts the set-up (or, on `compile-cold`, the op) parses.
    fn ir_texts(&self) -> Vec<&str>;

    /// Layer measurements taken beside the traced rounds: stand-alone
    /// stopwatches and counters specific to this workload. `op_ms` is
    /// the untraced `op_ms_p50`.
    fn probes(&mut self, op_ms: f64, out: &mut Metrics) -> Result<(), String>;

    /// For a workload whose op cannot carry a tracer: runs a model of the
    /// op's work on the sink the last set-up was given and returns how
    /// many ops' worth of events that made. `None`: the ops themselves
    /// were traced.
    fn traced_ops(&mut self) -> Result<Option<f64>, String> {
        Ok(None)
    }
}

/// A fixed scalar dependency chain (~4 ms) sampled once per round: it
/// moves with the host, never with the program.
pub fn canary_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Batch-time window; the ops per batch follow the measured op time.
const BATCH_TARGET: f64 = 0.030;

/// Timing state of one workload across its rounds.
pub struct Timing {
    /// The sink every set-up of this pass attaches (disabled: untraced).
    tracer: Tracer,
    /// Seconds per cold set-up: 5 before the first round, then a few at
    /// the start of every round, so that set-up and ops see the same
    /// fast and slow periods of the host.
    pub setup_s: Vec<f64>,
    setup_parts: Vec<SetupTimes>,
    setups_per_round: usize,
    /// Milliseconds per op, one sample per batch, all rounds.
    pub samples: Vec<f64>,
    pub round_medians: Vec<f64>,
    /// Ops attempted in batches and digest runs.
    pub ops: u64,
    /// Ops that returned `Err` plus rounds whose digest diverged.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Highest (peak − live at batch start) over the batches, bytes.
    pub transient_peak: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Ops counted in `allocs`/`alloc_bytes` (timed batches only).
    pub batch_ops: u64,
    pub canary: Vec<f64>,
    batch_ops_next: usize,
}

impl Timing {
    pub fn new(tracer: Tracer) -> Timing {
        Timing {
            tracer,
            setup_s: Vec::new(),
            setup_parts: Vec::new(),
            setups_per_round: 2,
            samples: Vec::with_capacity(4096),
            round_medians: Vec::new(),
            ops: 0,
            failed: 0,
            failures: Vec::new(),
            transient_peak: 0,
            allocs: 0,
            alloc_bytes: 0,
            batch_ops: 0,
            canary: Vec::new(),
            batch_ops_next: 1,
        }
    }

    /// Median ms per op (0 when a failure left no sample).
    pub fn p50(&self) -> f64 {
        median(&self.samples)
    }

    pub fn p90(&self) -> f64 {
        quantile(&self.samples, 0.9)
    }

    pub fn round_spread_pct(&self) -> f64 {
        iqr_pct(&self.round_medians)
    }

    /// Per-boundary medians of the set-up stopwatches.
    pub fn setup_times(&self) -> SetupTimes {
        SetupTimes::median_of(&self.setup_parts)
    }

    fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// One timed cold set-up; the previous one is torn down first, untimed.
pub fn timed_setup(w: &mut dyn Workload, t: &mut Timing) -> Result<(), String> {
    w.teardown();
    let t0 = Instant::now();
    let parts = w.setup(&t.tracer)?;
    t.setup_s.push(t0.elapsed().as_secs_f64());
    t.setup_parts.push(parts);
    Ok(())
}

/// Three untimed ops that also size the first batch; the set-ups timed
/// so far size the per-round share (about 30 ms a round, 2 to 10).
pub fn warm_up(w: &mut dyn Workload, t: &mut Timing) {
    t.setups_per_round = ((0.030 / median(&t.setup_s).max(1e-9)) as usize).clamp(2, 10);
    w.reset();
    t.ops += 3;
    match w.run(3) {
        Ok(d) => {
            let per_op = (d.as_secs_f64() / 3.0).max(1e-9);
            t.batch_ops_next = ((BATCH_TARGET / per_op).round() as usize).max(1);
        }
        Err(e) => t.fail(3, format!("warm-up: {e}")),
    }
}

/// One round: a few timed cold set-ups, the digest ops from the seeded
/// state compared with the reference, then timed batches — each from the
/// seeded state again — until `secs` have passed.
pub fn run_round(w: &mut dyn Workload, t: &mut Timing, secs: f64, reference_digest: u64) {
    let started = Instant::now();
    t.canary.push(canary_ms());
    for _ in 0..t.setups_per_round {
        if let Err(e) = timed_setup(w, t) {
            t.fail(1, format!("set-up: {e}"));
            return;
        }
    }

    w.reset();
    let k = w.digest_ops();
    t.ops += k as u64;
    match w.run(k) {
        Ok(_) => {
            let got = w.digest();
            if got != reference_digest {
                t.fail(1, format!("round digest {got:016x} != reference {reference_digest:016x}"));
            }
        }
        Err(e) => t.fail(k as u64, format!("digest run: {e}")),
    }

    let first_sample = t.samples.len();
    while started.elapsed().as_secs_f64() < secs {
        w.reset();
        let ops = t.batch_ops_next.min(w.batch_ops_cap());
        let live0 = alloc::live();
        alloc::reset_peak();
        let (a0, b0) = alloc::totals();
        t.ops += ops as u64;
        match w.run(ops) {
            Ok(d) => {
                let (a1, b1) = alloc::totals();
                t.allocs += a1 - a0;
                t.alloc_bytes += b1 - b0;
                t.batch_ops += ops as u64;
                t.transient_peak = t.transient_peak.max(alloc::peak().saturating_sub(live0));
                let batch = d.as_secs_f64().max(1e-9);
                t.samples.push(batch * 1e3 / ops as f64);
                let next = (ops as f64 * BATCH_TARGET / batch).round() as usize;
                t.batch_ops_next = next.max(1);
            }
            Err(e) => {
                // A failed op leaves runners and worlds in an unknown
                // state; stop timing this workload.
                t.fail(ops as u64, format!("batch: {e}"));
                break;
            }
        }
    }
    if t.samples.len() > first_sample {
        t.round_medians.push(median(&t.samples[first_sample..]));
    }
}
