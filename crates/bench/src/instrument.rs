//! The one measuring instrument of the per-layer benches
//! (`exec_throughput`, `cg_bench`, `halo_overlap`, `resilience_bench`).
//!
//! The host runs identical code 1.4–2× apart from hour to hour, so two
//! numbers measured minutes apart cannot be compared. [`paired`] times two
//! variants in alternating short bursts, each pair at one moment of the
//! host, and keeps the median and quartiles of the per-pair ratios
//! ([`Ratio`]); a [`Gate`] holds that median to a floor or a ceiling. A
//! [`Report`] writes a bench's cases and gates as one JSON document:
//! `{"schema", "smoke", "cases": [{"name", …}], "gates": [{"name",
//! "median", "q1", "q3", "pairs", "attempts", "floor" | "ceiling",
//! "pass"}]}`.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stencil_core::exec::Pipeline;
use stencil_core::prelude::{launch_with, Runner, SimWorld, Tracer};
use stencil_core::trace::{chrome, json, Event};

pub use stencil_core::trace::json::Value;

/// The median and quartiles of some samples: the per-pair ratios `b / a`
/// of [`paired`], or any samples through [`Ratio::of`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub pairs: usize,
    /// The median burst of `a` and of `b` (zero from [`Ratio::of`]).
    pub a: Duration,
    pub b: Duration,
}

/// The `p`-quantile of sorted samples, interpolated between the nearest
/// ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let x = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (x - lo as f64)
}

impl Ratio {
    pub fn of(mut samples: Vec<f64>) -> Ratio {
        assert!(!samples.is_empty(), "a ratio needs at least one sample");
        samples.sort_by(f64::total_cmp);
        let q = |p| quantile(&samples, p);
        let zero = Duration::ZERO;
        Ratio { median: q(0.5), q1: q(0.25), q3: q(0.75), pairs: samples.len(), a: zero, b: zero }
    }

    /// `median − 1` in percent: the signed cost of `b` over `a`.
    pub fn pct(&self) -> f64 {
        (self.median - 1.0) * 100.0
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} [{:.3}–{:.3}]", self.median, self.q1, self.q3)
    }
}

/// Times `a` and `b` in `pairs` alternating bursts after one discarded
/// warm-up burst of each: `a` runs first in even pairs and `b` in odd
/// ones, so drift and first-of-two effects land on both sides. Each
/// closure runs one burst and returns its duration (or its time per step:
/// any unit, the same for both). Returns the per-pair ratios `b / a`: the
/// speed-up of `a` over `b`, or the cost of `b` over `a`.
pub fn paired(
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
    pairs: usize,
) -> Ratio {
    assert!(pairs > 0, "paired needs at least one pair");
    a();
    b();
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        if pair % 2 == 0 {
            ta.push(a());
            tb.push(b());
        } else {
            tb.push(b());
            ta.push(a());
        }
    }
    let secs = |t: &[Duration]| t.iter().map(|d| d.as_secs_f64().max(1e-9)).collect::<Vec<_>>();
    let median = |t| Duration::from_secs_f64(Ratio::of(secs(t)).median);
    let ratios = secs(&ta).iter().zip(secs(&tb)).map(|(x, y)| y / x).collect();
    Ratio { a: median(&ta), b: median(&tb), ..Ratio::of(ratios) }
}

/// Times one call of `f`.
pub fn time(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// A named floor or ceiling on a [`Ratio`]'s median, measured up to
/// `attempts` times.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    pub name: String,
    pub bound: f64,
    /// A floor (`median >= bound`), else a ceiling (`median <= bound`).
    pub floor: bool,
    pub attempts: usize,
}

impl Gate {
    pub fn floor(name: impl Into<String>, bound: f64) -> Gate {
        Gate { name: name.into(), bound, floor: true, attempts: 1 }
    }

    pub fn ceiling(name: impl Into<String>, bound: f64) -> Gate {
        Gate { floor: false, ..Gate::floor(name, bound) }
    }

    pub fn attempts(self, attempts: usize) -> Gate {
        assert!(attempts > 0, "a gate measures at least once");
        Gate { attempts, ..self }
    }

    /// Holds `r`'s median to the bound.
    ///
    /// # Errors
    /// Names the gate, the median and quartiles, and the bound missed.
    pub fn check(&self, r: &Ratio) -> Result<(), String> {
        let (pass, missed) = match self.floor {
            true => (r.median >= self.bound, "below its floor"),
            false => (r.median <= self.bound, "above its ceiling"),
        };
        if pass {
            return Ok(());
        }
        Err(format!(
            "gate '{}' failed: median {:.4} (q1 {:.4}, q3 {:.4}, {} pairs) is {missed} {}",
            self.name, r.median, r.q1, r.q3, r.pairs, self.bound
        ))
    }

    /// Calls `measure` until a ratio passes or the attempts run out;
    /// returns the last ratio, the attempts used and the verdict.
    pub fn run(&self, mut measure: impl FnMut() -> Ratio) -> (Ratio, usize, Result<(), String>) {
        let mut attempt = 1;
        loop {
            let r = measure();
            match self.check(&r) {
                Err(e) if attempt < self.attempts => println!("{e} (attempt {attempt}, retrying)"),
                verdict => return (r, attempt, verdict),
            }
            attempt += 1;
        }
    }
}

/// Conversion into a JSON [`Value`], for [`obj!`](crate::obj).
pub trait ToValue {
    fn to_value(self) -> Value;
}

macro_rules! to_value {
    ($($t:ty => $f:expr),* $(,)?) => {$(
        impl ToValue for $t {
            fn to_value(self) -> Value {
                ($f)(self)
            }
        }
    )*};
}

to_value!(
    Value => |v| v,
    bool => Value::Bool,
    &str => |s: &str| Value::Str(s.into()),
    String => Value::Str,
    f64 => Value::Num,
    u64 => |n| Value::Num(n as f64),
    i64 => |n| Value::Num(n as f64),
    usize => |n| Value::Num(n as f64),
    Duration => |d: Duration| Value::Num(d.as_secs_f64()),
    Ratio => |r: Ratio| crate::obj! {"median": r.median, "q1": r.q1, "q3": r.q3, "pairs": r.pairs},
);

impl<T: ToValue> ToValue for Vec<T> {
    fn to_value(self) -> Value {
        Value::Arr(self.into_iter().map(ToValue::to_value).collect())
    }
}

/// A JSON object from `"key": value` pairs, each value [`ToValue`].
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::instrument::Value::Obj(vec![
            $(($key.to_string(), $crate::instrument::ToValue::to_value($value))),*
        ])
    };
}

/// Prints `v` as a JSON document: two-space indents, a container of
/// scalars on one line.
///
/// # Errors
/// Refuses a non-finite number, naming its path (`$.cases[2].median`).
pub fn to_json(v: &Value) -> Result<String, String> {
    let mut out = String::new();
    write_value(&mut out, v, "$", 0)?;
    Ok(out + "\n")
}

fn write_value(out: &mut String, v: &Value, path: &str, depth: usize) -> Result<(), String> {
    let members: Vec<(Option<&String>, &Value)> = match v {
        Value::Arr(items) => items.iter().map(|x| (None, x)).collect(),
        Value::Obj(members) => members.iter().map(|(k, x)| (Some(k), x)).collect(),
        scalar => {
            *out += &match scalar {
                Value::Num(n) if !n.is_finite() => {
                    return Err(format!("non-finite number {n} at `{path}`"));
                }
                Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => (*n as i64).to_string(),
                Value::Num(n) if n.abs() < 1e-4 || n.abs() >= 1e15 => format!("{n:e}"),
                Value::Num(n) => n.to_string(),
                Value::Str(s) => format!("\"{}\"", json::escape(s)),
                Value::Bool(b) => b.to_string(),
                _ => "null".into(),
            };
            return Ok(());
        }
    };
    let inline = members.iter().all(|(_, x)| !matches!(x, Value::Arr(_) | Value::Obj(_)));
    let indent = |d| if inline { String::new() } else { "\n".to_string() + &"  ".repeat(d) };
    let (open, close) = if matches!(v, Value::Arr(_)) { ('[', ']') } else { ('{', '}') };
    out.push(open);
    for (i, (key, x)) in members.iter().enumerate() {
        if i > 0 {
            *out += if inline { ", " } else { "," };
        }
        *out += &indent(depth + 1);
        let at = match key {
            Some(k) => {
                *out += &format!("\"{}\": ", json::escape(k));
                format!("{path}.{k}")
            }
            None => format!("{path}[{i}]"),
        };
        write_value(out, x, &at, depth + 1)?;
    }
    *out += &indent(depth);
    out.push(close);
    Ok(())
}

/// A value for the console: four significant digits, a ratio as
/// `median [q1–q3]`, a long array as its length.
fn brief(v: &Value) -> String {
    let num = |n: f64| match n.abs() {
        a if n.fract() == 0.0 || a >= 1e4 => format!("{n:.0}"),
        a if a < 1e-3 => format!("{n:.3e}"),
        a => format!("{n:.*}", (3 - a.log10().floor() as i32) as usize),
    };
    match v {
        Value::Num(n) => num(*n),
        Value::Str(s) => s.clone(),
        Value::Obj(m) if m.len() == 4 && m[0].0 == "median" => {
            let [med, q1, q3] = [0, 1, 2].map(|i| brief(&m[i].1));
            format!("{med} [{q1}–{q3}]")
        }
        Value::Obj(m) => {
            let members: Vec<String> = m.iter().map(|(k, v)| format!("{k} {}", brief(v))).collect();
            format!("{{{}}}", members.join(", "))
        }
        Value::Arr(items) if items.len() > 4 => format!("[{} values]", items.len()),
        Value::Arr(items) => {
            format!("[{}]", items.iter().map(brief).collect::<Vec<_>>().join(", "))
        }
        Value::Bool(b) => b.to_string(),
        Value::Null => "-".into(),
    }
}

/// The command line of every per-layer bench:
/// `--smoke | --out <path> | --threads <n>`.
pub struct Args {
    /// Small grids and few pairs: every assertion runs, the numbers mean
    /// nothing.
    pub smoke: bool,
    pub out: String,
    pub threads: usize,
}

impl Args {
    /// Parses the process arguments; a bench that takes no thread count
    /// passes `None` and refuses `--threads`.
    pub fn parse(default_out: &str, default_threads: Option<usize>) -> Args {
        let threads = default_threads.unwrap_or(1);
        let mut args = Args { smoke: false, out: default_out.into(), threads };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => args.smoke = true,
                "--out" => args.out = it.next().expect("--out needs a path"),
                "--threads" if default_threads.is_some() => {
                    args.threads = it.next().and_then(|v| v.parse().ok()).expect("--threads <n>")
                }
                other => {
                    panic!("unknown argument '{other}' (expected --smoke | --out | --threads)")
                }
            }
        }
        args
    }
}

/// A bench's cases and gates, written as one JSON document.
pub struct Report {
    smoke: bool,
    cases: Vec<Value>,
    gates: Vec<Value>,
    failed: Vec<String>,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report { smoke: args.smoke, cases: Vec::new(), gates: Vec::new(), failed: Vec::new() }
    }

    /// Records one case, an object with a `name`, and prints it as one
    /// line: `name: key value, key value, …`.
    pub fn case(&mut self, case: Value) {
        if let Value::Obj(members) = &case {
            let line: Vec<String> =
                members[1..].iter().map(|(k, v)| format!("{k} {}", brief(v))).collect();
            println!("{}: {}", brief(&members[0].1), line.join(", "));
        }
        self.cases.push(case);
    }

    /// Runs `gate` over `measure` and records the verdict; returns the
    /// ratio it ended on. A failed gate fails [`Report::write`].
    pub fn gate(&mut self, gate: &Gate, measure: impl FnMut() -> Ratio) -> Ratio {
        let (r, attempts, verdict) = gate.run(measure);
        let pass = verdict.is_ok();
        let (side, bound) = (if gate.floor { "floor" } else { "ceiling" }, gate.bound);
        println!(
            "gate {}: {r} over {} pairs, {side} {bound}: {}",
            gate.name,
            r.pairs,
            ["FAIL", "pass"][usize::from(pass)]
        );
        let mut entry = crate::obj! {
            "name": gate.name.as_str(), "median": r.median, "q1": r.q1, "q3": r.q3,
            "pairs": r.pairs, "attempts": attempts, "pass": pass,
        };
        if let Value::Obj(members) = &mut entry {
            members.insert(members.len() - 1, (side.into(), Value::Num(bound)));
        }
        self.gates.push(entry);
        self.failed.extend(verdict.err());
        r
    }

    /// [`Report::gate`] in a full run; a smoke run measures once and
    /// records no gate.
    pub fn full_gate(&mut self, gate: &Gate, mut measure: impl FnMut() -> Ratio) -> Ratio {
        if self.smoke {
            measure()
        } else {
            self.gate(gate, measure)
        }
    }

    /// Prints the document, checks that it parses back to itself, writes
    /// it to `path`, then panics if a gate failed.
    pub fn write(self, path: &str) {
        let doc = crate::obj! {
            "schema": "sten-bench/v1", "smoke": self.smoke,
            "cases": self.cases, "gates": self.gates,
        };
        let text = to_json(&doc).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(json::parse(&text).as_ref(), Ok(&doc), "{path} must parse back to itself");
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        let mode = if self.smoke { " (smoke: the numbers mean nothing)" } else { "" };
        println!("wrote {path}{mode}");
        assert!(self.failed.is_empty(), "{}", self.failed.join("\n"));
    }
}

/// Writes traced runs as one validated Chrome trace beside `out`
/// (`BENCH_x.json` → `BENCH_x.trace.json`; load it in Perfetto). Run `i`
/// gets pids `16·i …`, each named `"<label> rank <pid>"`.
pub fn write_trace(out: &str, runs: &[(String, Vec<Event>)]) {
    let (mut events, mut names) = (Vec::new(), Vec::new());
    for (i, (label, run)) in runs.iter().enumerate() {
        let base = 16 * i as u32;
        let mut pids: Vec<u32> = run.iter().map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        names.extend(pids.iter().map(|pid| (base + pid, format!("{label} rank {pid}"))));
        events.extend(run.iter().map(|e| Event { pid: base + e.pid, ..e.clone() }));
    }
    let path = format!("{}.trace.json", out.strip_suffix(".json").unwrap_or(out));
    let text = chrome::to_json(&events, &names);
    let stats = chrome::validate(&text).expect("emitted trace validates");
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let (spans, instants, tracks) = (stats.spans, stats.instants, stats.tracks.len());
    println!("wrote {path} ({spans} spans, {instants} instants, {tracks} tracks)");
}

/// What a [`ping_pong`] run leaves.
pub struct Spmd {
    /// Rank 0's step times: the halo handshake synchronises the cohort
    /// every step, so one rank sees them all.
    pub steps: Vec<Duration>,
    /// Launch to last join.
    pub wall: Duration,
    /// Every rank's two arguments, the last written first.
    pub args: Vec<Vec<Vec<f64>>>,
    /// The world it ran on, for its counters.
    pub world: Arc<SimWorld>,
}

/// Steps every rank of `world` `steps` times on a serial runner, both
/// arguments starting from the rank's `inits` entry and swapped after
/// each step. `pipelines` holds one pipeline per rank, or one for all;
/// with a `tracer` each rank records on its own pid.
pub fn ping_pong(
    world: Arc<SimWorld>,
    pipelines: &[Pipeline],
    inits: &[Vec<f64>],
    steps: usize,
    tracer: Option<&Tracer>,
) -> Spmd {
    let t0 = Instant::now();
    let ranks = launch_with(&world, inits, |rank, init| {
        let mut runner = Runner::new(pipelines[rank.min(pipelines.len() - 1)].clone(), 1);
        if let Some(t) = tracer {
            runner = runner.with_trace(t, rank as u32);
        }
        let mut args = vec![init.clone(), init.clone()];
        let mut times = Vec::with_capacity(steps);
        for _ in 0..steps {
            let t0 = Instant::now();
            runner.step_distributed(&mut args, &world, rank as i64)?;
            times.push(t0.elapsed());
            args.swap(0, 1);
        }
        Ok::<_, String>((times, args))
    })
    .expect("ping-pong run");
    let wall = t0.elapsed();
    let (mut times, args): (Vec<_>, Vec<_>) = ranks.into_iter().unzip();
    Spmd { steps: times.swap_remove(0), wall, args, world }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn paired_alternates_which_side_runs_first() {
        let log = RefCell::new(String::new());
        let r = paired(
            || {
                log.borrow_mut().push('a');
                ms(1)
            },
            || {
                log.borrow_mut().push('b');
                ms(2)
            },
            4,
        );
        // Warm-up, then a first in pairs 0 and 2, b first in 1 and 3.
        assert_eq!(log.into_inner(), "ababbaabba");
        assert_eq!((r.median, r.q1, r.q3, r.pairs), (2.0, 2.0, 2.0, 4));
        assert_eq!((r.a, r.b), (ms(1), ms(2)));
    }

    #[test]
    fn paired_takes_median_and_quartiles_of_the_per_pair_ratios() {
        // b / a over the five pairs: 3, 1, 5, 2, 4 (the warm-up burst
        // reads 100 and is discarded).
        let a = [ms(100), ms(10), ms(10), ms(10), ms(10), ms(10)];
        let b = [ms(100), ms(30), ms(10), ms(50), ms(20), ms(40)];
        let (mut ia, mut ib) = (a.iter(), b.iter());
        let r = paired(|| *ia.next().unwrap(), || *ib.next().unwrap(), 5);
        assert_eq!((r.median, r.q1, r.q3, r.pairs), (3.0, 2.0, 4.0, 5));
        assert_eq!((r.a, r.b), (ms(10), ms(30)));
        // Even counts interpolate between the two middle ranks.
        let even = Ratio::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.median, even.q1, even.q3), (2.5, 1.75, 3.25));
        assert!((even.pct() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn gates_fail_with_their_name_median_and_quartiles() {
        let r = Ratio::of(vec![1.0, 1.5, 2.0]);
        assert!(Gate::floor("speed-up", 1.5).check(&r).is_ok());
        assert!(Gate::ceiling("overhead", 1.5).check(&r).is_ok());
        let low = Gate::floor("jit over eval", 7.5).check(&r).unwrap_err();
        for part in
            ["'jit over eval'", "median 1.5000", "q1 1.2500", "q3 1.7500", "below its floor 7.5"]
        {
            assert!(low.contains(part), "{part} missing from: {low}");
        }
        let high = Gate::ceiling("disabled sink", 1.02).check(&r).unwrap_err();
        assert!(
            high.contains("'disabled sink'") && high.contains("above its ceiling 1.02"),
            "{high}"
        );
    }

    #[test]
    fn gates_measure_at_most_their_attempts() {
        let gate = Gate::ceiling("overhead", 1.02).attempts(3);
        let mut calls = 0;
        let (r, used, verdict) = gate.run(|| {
            calls += 1;
            Ratio::of(vec![1.05])
        });
        assert_eq!((calls, used, r.median), (3, 3, 1.05));
        assert!(verdict.unwrap_err().contains("'overhead'"));
        // The first passing attempt ends the gate.
        let mut readings = [1.05, 1.01, 1.0].into_iter();
        let (r, used, verdict) = gate.run(|| Ratio::of(vec![readings.next().unwrap()]));
        assert_eq!((used, r.median, verdict), (2, 1.01, Ok(())));
        // One attempt by default.
        let mut calls = 0;
        let _ = Gate::floor("x", 2.0).run(|| {
            calls += 1;
            Ratio::of(vec![1.0])
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn documents_round_trip_through_the_parser() {
        let doc = crate::obj! {
            "schema": "sten-bench/v1",
            "smoke": true,
            "cases": vec![
                crate::obj! {
                    "name": "a \"quoted\"\\ name\n\twith\u{1} controls", "grid": vec![66i64, 66],
                },
                crate::obj! {"ratio": Ratio::of(vec![1.0, 2.0]), "tiny": 6.65587967950697e-11,
                    "big": 1e300, "neg": -0.125, "count": 262_144usize, "none": Value::Null},
            ],
            "empty": Vec::<f64>::new(),
        };
        let text = to_json(&doc).unwrap();
        assert_eq!(json::parse(&text), Ok(doc.clone()), "{text}");
        // Strings are escaped with the trace crate's escaper.
        assert!(text.contains(&json::escape("a \"quoted\"\\ name\n\twith\u{1} controls")));
        // A container of scalars stays on one line; nesting indents.
        assert!(text.contains("\"grid\": [66, 66]"), "{text}");
        assert!(text.contains("\n  \"cases\": [\n    {"), "{text}");
    }

    #[test]
    fn non_finite_numbers_are_refused_by_key() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let doc = crate::obj! {"cases": vec![crate::obj! {"name": "x", "speedup": bad}]};
            let err = to_json(&doc).unwrap_err();
            assert!(err.contains("`$.cases[0].speedup`"), "{err}");
        }
    }
}
