//! `compile-cold`: the shared stack itself, nothing runs. One op takes
//! the IR text of five modules from the three frontends through
//! `parse_module` → `exec::compile_module` of the first stencil function
//! → `compile(shared_cpu)` → `compile(distributed([2, 2]))`, cache off,
//! passes on one thread.

use std::time::{Duration, Instant};

use stencil_core::dialects::func::FuncOp;
use stencil_core::ir::{parse_module, print_module, verify_module, Module, Pass as _};
use stencil_core::stencil::ShapeInference;
use stencil_core::trace::Tracer;
use stencil_core::{compile, standard_registry, CompileOptions, Compiled};

use super::secs_since;
use crate::harness::{Gate, Metrics, SetupTimes, Workload};
use crate::stats::Digest;

/// A frontend module as the stack receives it.
struct Source {
    name: &'static str,
    text: String,
    /// Second target after `shared_cpu`: `distributed([2, 2])`, except
    /// for tracer advection, which `distribute-stencil` rejects under
    /// every decomposition (one-sided `i±1` reads against a symmetric
    /// swap; work arrays wider than the stored core) — it goes to `gpu`.
    second: CompileOptions,
}

/// Stopwatch sums of the ops run so far, seconds.
#[derive(Default)]
struct Layers {
    ops: u64,
    parse: f64,
    shape_inference: f64,
    exec_compile: f64,
    opt: f64,
    /// `PassTiming` sums keyed by pass name, first-seen order.
    passes: Vec<(&'static str, f64)>,
    ops_lowered: u64,
}

pub struct CompileCold {
    smoke: bool,
    sources: Vec<Source>,
    /// Lowered text of the last op, two per source.
    outputs: Vec<String>,
    layers: Layers,
}

fn cold(options: CompileOptions) -> CompileOptions {
    options.with_cache(false).with_threads(1)
}

impl CompileCold {
    pub fn new(smoke: bool) -> CompileCold {
        CompileCold { smoke, sources: Vec::new(), outputs: Vec::new(), layers: Layers::default() }
    }

    /// The five frontend constructions, each module with its name and
    /// second target; the frontends' seconds go into `times`.
    fn frontends(
        &self,
        times: &mut SetupTimes,
    ) -> Result<Vec<(&'static str, Module, CompileOptions)>, String> {
        use stencil_core::{devito::problems, psyclone::kernels, stencil::samples};
        let (n3, pw, tra, many) = if self.smoke {
            (16, (8, 8, 4), (8, 4, 4), (4, 16))
        } else {
            (64, (32, 32, 16), (32, 16, 8), (16, 64))
        };
        let grid22 = || cold(CompileOptions::distributed(vec![2, 2]));
        let t0 = Instant::now();
        let heat = problems::heat(&[n3, n3, n3], 4, 0.5)?.compile()?;
        let wave = problems::acoustic_wave(&[n3, n3, n3], 4, 1.5)?.compile()?;
        times.frontend_devito = secs_since(t0);
        let t0 = Instant::now();
        let pw = kernels::pw_advection(pw.0, pw.1, pw.2)?.module;
        let tra = kernels::tracer_advection(tra.0, tra.1, tra.2)?.module;
        times.frontend_psyclone = secs_since(t0);
        Ok(vec![
            ("devito-heat3d-so4", heat, grid22()),
            ("devito-wave3d-so4", wave, grid22()),
            ("psyclone-pw-advection", pw, grid22()),
            ("psyclone-tracer-advection", tra, cold(CompileOptions::gpu())),
            ("heat2d-many-16", samples::heat_2d_many(many.0, many.1, 0.1), grid22()),
        ])
    }

    fn op(&mut self) -> Result<(), String> {
        let mut outputs = Vec::with_capacity(2 * self.sources.len());
        let layers = &mut self.layers;
        layers.ops += 1;
        for src in &self.sources {
            let t0 = Instant::now();
            let mut m = parse_module(&src.text).map_err(|e| format!("{}: {e}", src.name))?;
            layers.parse += secs_since(t0);
            let t0 = Instant::now();
            ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
            layers.shape_inference += secs_since(t0);
            let func = m
                .body()
                .ops
                .iter()
                .find_map(|op| FuncOp::matches(op).map(|f| f.sym_name().to_string()))
                .ok_or_else(|| format!("{}: no function", src.name))?;
            let t0 = Instant::now();
            stencil_core::exec::compile_module(&m, &func)?;
            layers.exec_compile += secs_since(t0);
            let t0 = Instant::now();
            let shared = compile(m.clone(), &cold(CompileOptions::shared_cpu()));
            let dist = compile(m, &src.second);
            layers.opt += secs_since(t0);
            for compiled in [shared, dist] {
                let Compiled { module, text, timings, .. } =
                    compiled.map_err(|e| format!("{}: {e}", src.name))?;
                for t in timings {
                    let s = t.duration.as_secs_f64();
                    match layers.passes.iter_mut().find(|p| p.0 == t.name) {
                        Some(p) => p.1 += s,
                        None => layers.passes.push((t.name, s)),
                    }
                }
                module.op.walk(&mut |_| layers.ops_lowered += 1);
                outputs.push(text);
            }
        }
        self.outputs = outputs;
        Ok(())
    }
}

impl Workload for CompileCold {
    fn name(&self) -> &'static str {
        "compile-cold"
    }

    fn points_per_op(&self) -> u64 {
        0
    }

    fn ir_texts(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.text.as_str()).collect()
    }

    /// Set-up here is the frontends' work: building the five modules and
    /// printing them to the text the ops start from.
    fn teardown(&mut self) {
        self.sources.clear();
    }

    fn setup(&mut self, _tracer: &Tracer) -> Result<SetupTimes, String> {
        let mut times = SetupTimes::default();
        self.sources = self
            .frontends(&mut times)?
            .into_iter()
            .map(|(name, module, second)| Source { name, text: print_module(&module), second })
            .collect();
        Ok(times)
    }

    fn reset(&mut self) {}

    fn run(&mut self, ops: usize) -> Result<Duration, String> {
        let t0 = Instant::now();
        for _ in 0..ops {
            self.op()?;
        }
        Ok(t0.elapsed())
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for text in &self.outputs {
            d.bytes(text.as_bytes());
        }
        d.finish()
    }

    fn digest_ops(&self) -> usize {
        1
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::default();
        let registry = standard_registry();
        let first = self.run(1).map(|_| std::mem::take(&mut self.outputs));
        let second = self.run(1);
        match (first, second) {
            (Ok(first), Ok(_)) => {
                // No independent compiler exists to compare with: the
                // gate is the verifier on every output, a clean re-parse,
                // and byte-identical text from op to op.
                for (i, text) in first.iter().enumerate() {
                    let src = self.sources[i / 2].name;
                    let reparsed = parse_module(text);
                    gate.expect(
                        matches!(&reparsed, Ok(m) if verify_module(m, Some(&registry)).is_ok()),
                        || {
                            format!(
                                "compile-cold: output {} of {src} does not re-parse and verify",
                                i % 2
                            )
                        },
                    );
                    gate.expect(*text == self.outputs[i], || {
                        format!("compile-cold: output {} of {src} differs between two ops", i % 2)
                    });
                }
                gate.reference_digest = {
                    self.outputs = first;
                    self.digest()
                };
            }
            (a, b) => gate
                .expect(false, || format!("compile-cold: op failed: {:?} {:?}", a.err(), b.err())),
        }
        gate
    }

    fn probes(&mut self, _op_ms: f64, out: &mut Metrics) -> Result<(), String> {
        let l = &self.layers;
        let per_op_ms = |s: f64| s * 1e3 / l.ops.max(1) as f64;
        let mut listed = 0.0;
        for (name, s) in &l.passes {
            if crate::report::PASSES.contains(name) {
                out.set(&format!("opt.pass_ms.{name}"), per_op_ms(*s), "ms");
                listed += s;
            }
        }
        // What `compile` spends outside the listed passes: pipeline
        // resolution, verify-each, printing the result.
        out.set("opt.driver_ms", per_op_ms(l.opt - listed), "ms");
        out.set("ir.ops_lowered", l.ops_lowered as f64 / l.ops.max(1) as f64, "count");
        out.set("ir.parse_ms", per_op_ms(l.parse), "ms");
        out.set("exec.compile_ms", per_op_ms(l.exec_compile), "ms");
        out.set("stencil.shape_inference_ms", per_op_ms(l.shape_inference), "ms");

        // The pass driver's read path: the same ten compiles with the
        // cache on, after one run that fills it.
        let mut jobs = Vec::new();
        for src in &self.sources {
            let m = parse_module(&src.text).map_err(|e| e.to_string())?;
            jobs.push((m.clone(), CompileOptions::shared_cpu().with_threads(1)));
            jobs.push((m, src.second.clone().with_cache(true)));
        }
        let pass = |expect_hit: bool| -> Result<f64, String> {
            let mut secs = 0.0;
            for (m, options) in &jobs {
                let m = m.clone();
                let t0 = Instant::now();
                let c = compile(m, options).map_err(|e| e.to_string())?;
                secs += secs_since(t0);
                if expect_hit && !c.cache_hit {
                    return Err("a repeated compile missed the cache".into());
                }
            }
            Ok(secs)
        };
        pass(false)?;
        let hits: Vec<f64> = (0..5).map(|_| pass(true)).collect::<Result<_, _>>()?;
        let warm = crate::stats::median(&hits);
        out.set("opt.cache_hit_us", warm * 1e6 / jobs.len() as f64, "us");
        out.set("opt.cold_over_warm", l.opt / l.ops.max(1) as f64 / warm, "ratio");
        Ok(())
    }
}
