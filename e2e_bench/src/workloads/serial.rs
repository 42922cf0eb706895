//! `heat3d-serial` and `jacobi1d-pool-2t`: one `Runner` stepping a
//! single-process stencil, on the calling thread or on the 2-worker pool.

use std::time::{Duration, Instant};

use stencil_core::exec::Runner;
use stencil_core::ir::{print_module, Module};
use stencil_core::trace::Tracer;

use super::{
    bits_eq, digest_f64s, eval_reference, exec_probes, field_shapes, interp_reference, len_of,
    new_runner, probe_op_ms, step_n, text_to_pipeline,
};
use crate::harness::{Gate, Metrics, SetupTimes, Workload};
use crate::stats::Rng;

pub struct Serial {
    name: &'static str,
    func: &'static str,
    threads: usize,
    /// The frontend's module as IR text: all the program is given.
    text: String,
    /// Seconds Devito took to build the module (0: not a Devito module).
    devito_s: f64,
    /// Most ops a batch may run (an amplifying stencil must stay finite).
    batch_cap: usize,
    /// Seeded initial field, copied into each of the `buffers` time levels.
    field: Vec<f64>,
    buffers: usize,
    /// The same frontend at a size the interpreter can walk, and its field.
    small: (Module, Vec<f64>),
    runner: Option<Runner>,
    args: Vec<Vec<f64>>,
}

fn seeded_field(module: &Module, func: &str, rng: &mut Rng) -> Vec<f64> {
    rng.field(len_of(&field_shapes(module, func)[0]))
}

impl Serial {
    /// Devito heat diffusion, space order 2, 160³ interior: 4.1 Mpts and
    /// ~66 MB in two time buffers against a 4 MiB L2.
    pub fn heat3d(seed: u64, smoke: bool) -> Result<Serial, String> {
        let n = if smoke { 24 } else { 160 };
        let build = |n: i64| stencil_core::devito::problems::heat(&[n, n, n], 2, 0.5)?.compile();
        let t0 = Instant::now();
        let module = build(n)?;
        let devito_s = t0.elapsed().as_secs_f64();
        let small = build(10)?;
        let mut rng = Rng::new(seed);
        Ok(Serial {
            name: "heat3d-serial",
            func: "step",
            threads: 1,
            text: print_module(&module),
            devito_s,
            batch_cap: usize::MAX,
            field: seeded_field(&module, "step", &mut rng),
            buffers: field_shapes(&module, "step").len(),
            small: (small.clone(), seeded_field(&small, "step", &mut rng)),
            runner: None,
            args: Vec::new(),
        })
    }

    /// 3-point Jacobi over 2²³ points on the 2-worker pool. (The issue's
    /// 2²¹ is bistable on a 2-core host: at ~0.4 ms a task, the kernel's
    /// idle balancer — which skips cores idle for less than its 0.5 ms
    /// migration cost — can leave both workers on one core, and round
    /// medians flipped between 0.85 and 1.6 ms. 2²² still did, in one run
    /// in five. At 2²³ a task is 3 ms and a stacked pair is split within
    /// a round or two.)
    pub fn jacobi_pool(seed: u64, smoke: bool) -> Serial {
        let n = if smoke { 1 << 14 } else { 1 << 23 };
        let module = stencil_core::stencil::samples::jacobi_1d(n);
        let small = stencil_core::stencil::samples::jacobi_1d(258);
        let mut rng = Rng::new(seed);
        Serial {
            name: "jacobi1d-pool-2t",
            func: "jacobi",
            threads: 2,
            text: print_module(&module),
            devito_s: 0.0,
            // out = l + r - 2c grows up to 4x a step: 256 steps from
            // [-1, 1] stay finite.
            batch_cap: 256,
            field: seeded_field(&module, "jacobi", &mut rng),
            buffers: 2,
            small: (small.clone(), seeded_field(&small, "jacobi", &mut rng)),
            runner: None,
            args: Vec::new(),
        }
    }

    fn build(&self, threads: usize, tracer: &Tracer) -> Result<(Runner, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let p = text_to_pipeline(&self.text, self.func, |_, _| Ok(()), &mut times)?;
        let runner = new_runner(p, threads, tracer, 0, &mut times);
        Ok((runner, times))
    }

    /// Every time level holding `field`.
    fn buffers_of(&self, field: &[f64]) -> Vec<Vec<f64>> {
        vec![field.to_vec(); self.buffers]
    }
}

impl Workload for Serial {
    fn name(&self) -> &'static str {
        self.name
    }

    fn points_per_op(&self) -> u64 {
        self.runner.as_ref().map_or(0, |r| r.pipeline.points_per_step())
    }

    fn ir_texts(&self) -> Vec<&str> {
        vec![&self.text]
    }

    fn teardown(&mut self) {
        self.runner = None;
    }

    fn setup(&mut self, tracer: &Tracer) -> Result<SetupTimes, String> {
        let (runner, mut times) = self.build(self.threads, tracer)?;
        times.frontend_devito = self.devito_s;
        self.runner = Some(runner);
        Ok(times)
    }

    fn reset(&mut self) {
        self.args.resize(self.buffers, Vec::new());
        for a in &mut self.args {
            a.clone_from(&self.field);
        }
    }

    fn run(&mut self, ops: usize) -> Result<Duration, String> {
        let runner = self.runner.as_mut().ok_or("run before setup")?;
        step_n(runner, &mut self.args, ops)
    }

    fn digest(&self) -> u64 {
        digest_f64s(&self.args[0])
    }

    fn batch_ops_cap(&self) -> usize {
        self.batch_cap
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::default();
        let k = self.digest_ops();
        // Full size: the program against the eval tier on one thread.
        match eval_reference(&self.text, self.func, &self.buffers_of(&self.field), k) {
            Ok(want) => {
                gate.reference_digest = digest_f64s(&want[0]);
                self.reset();
                let got = self.run(k);
                gate.expect(got.is_ok() && bits_eq(&self.args[0], &want[0]), || {
                    format!("{}: {k} steps differ from the eval tier ({got:?})", self.name)
                });
            }
            Err(e) => gate.expect(false, || format!("{}: eval reference: {e}", self.name)),
        }
        // Reduced grid: the same tiers against the interpreter.
        let (module, init) = (&self.small.0, self.buffers_of(&self.small.1));
        let small_text = print_module(module);
        let interp = interp_reference(module, self.func, &init, k);
        let eval = eval_reference(&small_text, self.func, &init, k);
        let auto =
            text_to_pipeline(&small_text, self.func, |_, _| Ok(()), &mut SetupTimes::default())
                .and_then(|p| {
                    let mut runner = Runner::new(p, self.threads);
                    let mut args = init.clone();
                    step_n(&mut runner, &mut args, k).map(|_| args)
                });
        match (interp, eval, auto) {
            (Ok(i), Ok(e), Ok(a)) => {
                gate.expect(bits_eq(&i[0], &e[0]), || {
                    format!("{}: eval tier differs from the interpreter", self.name)
                });
                gate.expect(bits_eq(&i[0], &a[0]), || {
                    format!("{}: auto tier differs from the interpreter", self.name)
                });
            }
            (i, e, a) => gate.expect(false, || {
                format!(
                    "{}: reduced-grid run failed: {:?} {:?} {:?}",
                    self.name,
                    i.err(),
                    e.err(),
                    a.err()
                )
            }),
        }
        gate
    }

    fn probes(&mut self, op_ms: f64, out: &mut Metrics) -> Result<(), String> {
        let runner = self.runner.as_ref().ok_or("probes before setup")?;
        exec_probes([(&runner.pipeline, 1)], out);
        if self.threads > 1 {
            let (mut runner, _) = self.build(1, &Tracer::disabled())?;
            let mut args = self.buffers_of(&self.field);
            let one = probe_op_ms(0.5, |ops| {
                args.iter_mut().for_each(|a| a.clone_from(&self.field));
                Ok(step_n(&mut runner, &mut args, ops)?.as_secs_f64())
            })?;
            out.set("harness.speedup_vs_1t", one / op_ms, "ratio");
        }
        Ok(())
    }
}
