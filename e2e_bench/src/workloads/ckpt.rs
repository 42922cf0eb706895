//! `jacobi1d-ckpt-2r`: `run_resilient` with an empty fault plan — the
//! sequence-numbered reliable exchange plus snapshot, store `put` and
//! digest barrier every 4th of 64 steps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stencil_core::exec::{run_resilient, CheckpointStore, Pipeline, ResilientConfig};
use stencil_core::interp::FaultPlan;
use stencil_core::trace::Tracer;

use super::ranks2::Ranks2;
use super::{bits_eq, digest_f64s, exec_probes, probe_op_ms};
use crate::harness::{Gate, Metrics, SetupTimes, Workload};

pub struct Ckpt {
    /// The same 2-rank Jacobi without resilience: geometry, seeded field,
    /// and the plain `step_distributed` loop the op is compared with.
    plain: Ranks2,
    cfg: ResilientConfig,
    pipeline: Option<Pipeline>,
    tracer: Tracer,
    args: Vec<Vec<Vec<f64>>>,
    /// The last op's store, kept for the store-size probes and dropped by
    /// `reset`: a batch starts without one, so the store an op fills is
    /// part of that batch's peak.
    store: CheckpointStore,
}

impl Ckpt {
    pub fn new(seed: u64, smoke: bool) -> Ckpt {
        let n = if smoke { 1 << 10 } else { 1 << 16 };
        Ckpt {
            plain: Ranks2::jacobi("jacobi1d-ckpt-2r", n, seed),
            cfg: ResilientConfig {
                steps: 64,
                checkpoint_interval: 4,
                rotate_args: true,
                ..ResilientConfig::default()
            },
            pipeline: None,
            tracer: Tracer::disabled(),
            args: Vec::new(),
            store: CheckpointStore::in_memory(),
        }
    }

    fn gathered(&self) -> Vec<f64> {
        self.plain.gathered(self.args.iter().map(|a| &a[0]))
    }

    /// Median ms of 64 plain `step_distributed` steps on the same
    /// geometry: what the op would cost without resilience.
    fn plain_op_ms(&mut self, secs: f64) -> Result<f64, String> {
        self.plain.setup(&Tracer::disabled())?;
        let steps = self.cfg.steps as usize;
        probe_op_ms(secs, |ops| {
            let mut total = 0.0;
            for _ in 0..ops {
                self.plain.reset();
                total += self.plain.run(steps)?.as_secs_f64();
            }
            Ok(total)
        })
    }
}

impl Workload for Ckpt {
    fn name(&self) -> &'static str {
        "jacobi1d-ckpt-2r"
    }

    fn ranks(&self) -> usize {
        super::ranks2::RANKS
    }

    fn points_per_op(&self) -> u64 {
        self.pipeline.as_ref().map_or(0, |p| p.points_per_step())
            * self.ranks() as u64
            * self.cfg.steps
    }

    fn ir_texts(&self) -> Vec<&str> {
        vec![&self.plain.text]
    }

    fn teardown(&mut self) {
        self.pipeline = None;
    }

    fn setup(&mut self, tracer: &Tracer) -> Result<SetupTimes, String> {
        let mut times = SetupTimes::default();
        self.pipeline = Some(self.plain.pipeline_for(None, &mut times)?);
        self.tracer = tracer.clone();
        Ok(times)
    }

    fn reset(&mut self) {
        self.store = CheckpointStore::in_memory();
        self.args = self.plain.scattered();
    }

    fn heap_floor(&self) -> u64 {
        self.store.bytes_stored()
    }

    fn run(&mut self, ops: usize) -> Result<Duration, String> {
        let pipeline = self.pipeline.as_ref().ok_or("run before setup")?;
        let t0 = Instant::now();
        for _ in 0..ops {
            self.store = CheckpointStore::in_memory();
            let report = run_resilient(
                pipeline,
                &mut self.args,
                Arc::new(FaultPlan::new()),
                &self.store,
                &self.cfg,
                &self.tracer,
            )
            .map_err(|e| e.to_string())?;
            if report.recoveries != 0 {
                return Err(format!("{} recoveries on a fault-free run", report.recoveries));
            }
        }
        Ok(t0.elapsed())
    }

    fn digest(&self) -> u64 {
        digest_f64s(&self.gathered())
    }

    fn digest_ops(&self) -> usize {
        1
    }

    /// An op is 64 steps that grow up to 4x each.
    fn batch_ops_cap(&self) -> usize {
        4
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::default();
        let steps = self.cfg.steps as usize;
        self.reset();
        let ran = self.run(1);
        let got = self.gathered();
        // Against the serial eval run of the global problem …
        match self.plain.serial_reference(steps) {
            Ok(want) => {
                gate.reference_digest = digest_f64s(&want);
                gate.expect(ran.is_ok() && bits_eq(&got, &want), || {
                    format!("ckpt: state differs from {steps} serial eval steps ({ran:?})")
                });
            }
            Err(e) => gate.expect(false, || format!("ckpt: serial reference: {e}")),
        }
        // … and against plain distributed stepping without resilience.
        let plain = self.plain.setup(&Tracer::disabled()).and_then(|_| {
            self.plain.reset();
            self.plain.run(steps)
        });
        gate.expect(plain.is_ok() && self.plain.digest() == digest_f64s(&got), || {
            format!("ckpt: state differs from plain step_distributed stepping ({plain:?})")
        });
        self.plain.check_reference(&mut gate);
        gate
    }

    fn probes(&mut self, op_ms: f64, out: &mut Metrics) -> Result<(), String> {
        let pipeline = self.pipeline.as_ref().ok_or("probes before setup")?;
        exec_probes([(pipeline, 1)], out);

        // The store of the last op: what 64 steps at interval 4 deposit.
        let deposited: f64 = {
            let per_rank: usize = self.args[0].iter().map(Vec::len).sum();
            let deposits = 1 + (self.cfg.steps - 1) / self.cfg.checkpoint_interval;
            (8 * per_rank * self.ranks()) as f64 * deposits as f64
        };
        let stored = self.store.bytes_stored() as f64;
        out.set("exec.ckpt_store_mib", stored / (1 << 20) as f64, "MiB");
        out.set("exec.ckpt_dedup_ratio", deposited / stored.max(1.0), "ratio");

        let plain = self.plain_op_ms(0.4)?;
        out.set("exec.ckpt_overhead_pct", 100.0 * (op_ms - plain) / plain, "%");
        Ok(())
    }
}
