//! `heat2d-halo-2r` and `heat2d-overlap-2r`: two rank threads stepping a
//! slab-decomposed stencil over SimMPI. Also the plain-stepping half of
//! `jacobi1d-ckpt-2r`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stencil_core::exec::Runner;
use stencil_core::interp::SimWorld;
use stencil_core::ir::{print_module, Module};
use stencil_core::stencil::samples;
use stencil_core::trace::Tracer;

use super::{
    bits_eq, digest_f64s, distribute, eval_reference, exec_probes, interp_reference, new_runner,
    probe_op_ms, secs_since, spmd, step_n, text_to_pipeline, Slabs,
};
use crate::harness::{Gate, Metrics, SetupTimes, Workload};
use crate::stats::Rng;

pub const RANKS: usize = 2;

struct Rank {
    runner: Runner,
    args: Vec<Vec<f64>>,
}

pub struct Ranks2 {
    name: &'static str,
    pub func: &'static str,
    pub text: String,
    pub slabs: Slabs,
    overlap: bool,
    latency: Duration,
    /// Most ops a batch may run (an amplifying stencil must stay finite).
    batch_cap: usize,
    /// Seeded global field; every rank's buffers are slabs of it.
    pub global: Vec<f64>,
    small: (Module, Vec<Vec<f64>>),
    world: Option<Arc<SimWorld>>,
    ranks: Vec<Rank>,
}

impl Ranks2 {
    fn heat2d(name: &'static str, n: i64, overlap: bool, latency_us: u64, seed: u64) -> Ranks2 {
        let module = samples::heat_2d(n, 0.1);
        let small = samples::heat_2d(16, 0.1);
        let mut rng = Rng::new(seed);
        let global = rng.field(((n + 2) * (n + 2)) as usize);
        let small_init = rng.field(18 * 18);
        Ranks2 {
            name,
            func: "heat",
            text: print_module(&module),
            slabs: Slabs { ranks: RANKS, core: n as usize, row: (n + 2) as usize },
            overlap,
            latency: Duration::from_micros(latency_us),
            batch_cap: usize::MAX,
            global,
            small: (small, vec![small_init.clone(), small_init]),
            world: None,
            ranks: Vec::new(),
        }
    }

    /// 128² over 2 ranks, synchronous swap, zero latency: ~8 kpts a rank,
    /// so the exchange is most of the step.
    pub fn halo(seed: u64, smoke: bool) -> Ranks2 {
        Ranks2::heat2d("heat2d-halo-2r", if smoke { 32 } else { 128 }, false, 0, seed)
    }

    /// 768² over 2 ranks, overlapped swap, 200 µs message latency. (At
    /// 100 µs timer slack made the step repeat only to 7 %.)
    pub fn overlap(seed: u64, smoke: bool) -> Ranks2 {
        Ranks2::heat2d("heat2d-overlap-2r", if smoke { 64 } else { 768 }, true, 200, seed)
    }

    /// 3-point Jacobi of `n` points over 2 ranks, synchronous swap.
    pub fn jacobi(name: &'static str, n: i64, seed: u64) -> Ranks2 {
        let module = samples::jacobi_1d(n);
        let small = samples::jacobi_1d(258);
        let mut rng = Rng::new(seed);
        let global = rng.field(n as usize);
        let small_init = rng.field(258);
        Ranks2 {
            name,
            func: "jacobi",
            text: print_module(&module),
            slabs: Slabs { ranks: RANKS, core: (n - 2) as usize, row: 1 },
            overlap: false,
            latency: Duration::ZERO,
            // out = l + r - 2c grows up to 4x a step: 256 steps from
            // [-1, 1] stay finite.
            batch_cap: 256,
            global,
            small: (small, vec![small_init.clone(), small_init]),
            world: None,
            ranks: Vec::new(),
        }
    }

    /// Text → rank-local pipeline. `rank = None` builds the rank-generic
    /// form (identical on an even split), which `run_resilient` needs.
    pub fn pipeline_for(
        &self,
        rank: Option<usize>,
        times: &mut SetupTimes,
    ) -> Result<stencil_core::exec::Pipeline, String> {
        let p = text_to_pipeline(&self.text, self.func, distribute(rank, self.overlap), times)?;
        let want = [self.slabs.local_rows() as i64, self.slabs.row as i64];
        let want = if self.slabs.row == 1 { &want[..1] } else { &want[..] };
        if p.arg_shapes[0] != want {
            return Err(format!("local field {:?}, expected {want:?}", p.arg_shapes[0]));
        }
        Ok(p)
    }

    /// Every rank's initial buffers: its slab of the global field, in
    /// both time levels.
    pub fn scattered(&self) -> Vec<Vec<Vec<f64>>> {
        (0..RANKS)
            .map(|r| {
                let local = self.slabs.scatter(&self.global, r);
                vec![local.to_vec(), local.to_vec()]
            })
            .collect()
    }

    /// The global field with every rank's owned rows written back.
    pub fn gathered<'a>(&self, newest: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
        let mut out = self.global.clone();
        for (r, local) in newest.enumerate() {
            self.slabs.gather(&mut out, r, local);
        }
        out
    }

    /// `steps` serial eval-tier steps of the global problem.
    pub fn serial_reference(&self, steps: usize) -> Result<Vec<f64>, String> {
        let init = vec![self.global.clone(), self.global.clone()];
        Ok(eval_reference(&self.text, self.func, &init, steps)?.swap_remove(0))
    }

    /// Checks the reference itself on a reduced grid: eval tier against
    /// the interpreter.
    pub fn check_reference(&self, gate: &mut Gate) {
        let (module, init) = &self.small;
        let k = 3;
        let interp = interp_reference(module, self.func, init, k);
        let eval = eval_reference(&print_module(module), self.func, init, k);
        gate.expect(matches!((&interp, &eval), (Ok(i), Ok(e)) if bits_eq(&i[0], &e[0])), || {
            format!("{}: eval tier differs from the interpreter on the reduced grid", self.name)
        });
    }

    /// Median ms per op of the current set-up (a probe, not the timed pass).
    fn op_ms(&mut self, secs: f64) -> Result<f64, String> {
        probe_op_ms(secs, |ops| {
            self.reset();
            Ok(self.run(ops)?.as_secs_f64())
        })
    }

    /// Median ms per step of the same global problem on one thread.
    fn serial_op_ms(&self, secs: f64) -> Result<f64, String> {
        let p = text_to_pipeline(&self.text, self.func, |_, _| Ok(()), &mut SetupTimes::default())?;
        let mut runner = Runner::new(p, 1);
        let init = vec![self.global.clone(), self.global.clone()];
        let mut args = init.clone();
        probe_op_ms(secs, |ops| {
            args.clone_from(&init);
            Ok(step_n(&mut runner, &mut args, ops)?.as_secs_f64())
        })
    }
}

impl Workload for Ranks2 {
    fn name(&self) -> &'static str {
        self.name
    }

    fn ranks(&self) -> usize {
        RANKS
    }

    fn points_per_op(&self) -> u64 {
        self.ranks.iter().map(|r| r.runner.pipeline.points_per_step()).sum()
    }

    fn ir_texts(&self) -> Vec<&str> {
        vec![&self.text]
    }

    fn teardown(&mut self) {
        self.ranks.clear();
        self.world = None;
    }

    fn setup(&mut self, tracer: &Tracer) -> Result<SetupTimes, String> {
        self.teardown();
        let mut times = SetupTimes::default();
        for rank in 0..RANKS {
            let p = self.pipeline_for(Some(rank), &mut times)?;
            let runner = new_runner(p, 1, tracer, rank as u32, &mut times);
            self.ranks.push(Rank { runner, args: Vec::new() });
        }
        let t0 = Instant::now();
        self.world = Some(SimWorld::new_traced(RANKS, self.latency, tracer.clone()));
        times.runner_new += secs_since(t0);
        Ok(times)
    }

    fn reset(&mut self) {
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            let local = self.slabs.scatter(&self.global, r);
            rank.args.resize(2, Vec::new());
            for a in &mut rank.args {
                a.clear();
                a.extend_from_slice(local);
            }
        }
    }

    fn run(&mut self, ops: usize) -> Result<Duration, String> {
        let world = self.world.as_ref().ok_or("run before setup")?;
        spmd(&mut self.ranks, |rank, state| {
            for _ in 0..ops {
                state
                    .runner
                    .step_distributed_checked(&mut state.args, world, rank as i64)
                    .map_err(|e| e.to_string())?;
                state.args.rotate_left(1);
            }
            Ok(())
        })
    }

    fn digest(&self) -> u64 {
        digest_f64s(&self.gathered(self.ranks.iter().map(|r| &r.args[0])))
    }

    fn batch_ops_cap(&self) -> usize {
        self.batch_cap
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::default();
        let k = self.digest_ops();
        match self.serial_reference(k) {
            Ok(want) => {
                gate.reference_digest = digest_f64s(&want);
                self.reset();
                let ran = self.run(k);
                let got = self.gathered(self.ranks.iter().map(|r| &r.args[0]));
                gate.expect(ran.is_ok() && bits_eq(&got, &want), || {
                    format!(
                        "{}: gathered cores differ from the serial eval run ({ran:?})",
                        self.name
                    )
                });
            }
            Err(e) => gate.expect(false, || format!("{}: serial reference: {e}", self.name)),
        }
        self.check_reference(&mut gate);
        gate
    }

    fn probes(&mut self, op_ms: f64, out: &mut Metrics) -> Result<(), String> {
        exec_probes(self.ranks.iter().map(|r| (&r.runner.pipeline, 1)), out);

        // Exact message counts of 20 ops, from the world's own counters.
        let world = Arc::clone(self.world.as_ref().ok_or("probes before setup")?);
        let (m0, e0) = (world.total_sent_messages(), world.total_sent_elements());
        self.reset();
        self.run(20)?;
        out.set("dmp.msgs_per_op", (world.total_sent_messages() - m0) as f64 / 20.0, "count");
        out.set("dmp.halo_elems_per_op", (world.total_sent_elements() - e0) as f64 / 20.0, "count");

        let serial = self.serial_op_ms(0.4)?;
        out.set("dmp.strong_scaling_eff", serial / (RANKS as f64 * op_ms), "ratio");

        if self.overlap {
            // The same problem and latency with the synchronous swap.
            self.overlap = false;
            let sync = self.setup(&Tracer::disabled()).and_then(|_| self.op_ms(0.5));
            self.overlap = true;
            out.set("dmp.sync_over_overlap", sync? / op_ms, "ratio");
        }
        Ok(())
    }
}
