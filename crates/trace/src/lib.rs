//! # sten-trace — structured tracing for the whole stack
//!
//! Per-rank span timelines (passes, executor steps, worker tasks) and
//! message-level communication events, with two export backends:
//! Chrome trace-event JSON ([`chrome`]) loadable in Perfetto /
//! `chrome://tracing`, and an aggregated text report ([`report`]) that
//! computes the overlap metrics the benchmarks assert on — comm-exposed
//! vs comm-hidden time, overlap efficiency, per-direction halo bytes,
//! pack/unpack vs compute ratio.
//!
//! **Zero cost when off.** A [`Tracer`] is a cheap clonable handle,
//! `None` when disabled; every recording entry point checks that option
//! first and returns before touching a clock, taking a lock, or invoking
//! the [`SpanKind`]-building closure — so a disabled sink neither
//! allocates nor synchronizes on the hot path (asserted to ≤ 2%
//! throughput delta by the `exec_throughput` bench).
//!
//! **Lock-free recording when on.** Hot-path recorders go through a
//! [`TraceLane`] — a per-thread owned buffer keyed by `(pid, tid)` —
//! that only pushes to its local `Vec`; lanes merge into the shared
//! event list on [`TraceLane::flush`] (and on drop). Counters are fixed
//! [`Counter`] slots backed by atomics. Only low-frequency emitters (one
//! event per MPI message, one span per compiler pass) record directly
//! through the shared list.
//!
//! ```
//! use sten_trace::{Counter, SpanKind, Tracer};
//!
//! let tracer = Tracer::new();
//! let mut lane = tracer.lane(0, 0); // rank 0, main thread
//! let t0 = lane.start();
//! // ... work ...
//! lane.span(t0, || SpanKind::Copy { points: 64 });
//! tracer.count(Counter::MsgsSent, 1);
//! lane.flush();
//! let json = sten_trace::chrome::to_json(&tracer.events(), &[]);
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod json;
pub mod report;

pub use report::TraceReport;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `pid` used for compiler-side (pass) spans, far above any rank id.
pub const COMPILER_PID: u32 = 1_000_000;

/// Fixed counter slots (the generalization of SimMPI's old ad-hoc
/// `Mutex<u64>` counters), backed by atomics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Messages sent.
    MsgsSent = 0,
    /// Elements sent (communication volume).
    ElementsSent = 1,
    /// Blocking receives whose message had already arrived (overlap hid
    /// the transit time).
    RecvImmediate = 2,
    /// Blocking receives that had to wait for delivery.
    RecvBlocked = 3,
    /// Faults injected by a fault plan.
    FaultsInjected = 4,
    /// Timed-out exchanges re-requested (swap or allreduce retries).
    Retries = 5,
    /// Checkpoints taken by the resilient runner.
    Checkpoints = 6,
    /// Cohort rollbacks to a checkpoint after a fault.
    Recoveries = 7,
}

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; COUNTER_SLOTS] = [
        Counter::MsgsSent,
        Counter::ElementsSent,
        Counter::RecvImmediate,
        Counter::RecvBlocked,
        Counter::FaultsInjected,
        Counter::Retries,
        Counter::Checkpoints,
        Counter::Recoveries,
    ];

    /// Stable name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            Counter::MsgsSent => "msgs-sent",
            Counter::ElementsSent => "elements-sent",
            Counter::RecvImmediate => "recv-immediate",
            Counter::RecvBlocked => "recv-blocked",
            Counter::FaultsInjected => "faults-injected",
            Counter::Retries => "retries",
            Counter::Checkpoints => "checkpoints",
            Counter::Recoveries => "recoveries",
        }
    }
}

/// Number of [`Counter`] slots.
pub const COUNTER_SLOTS: usize = 8;

/// What a recorded event describes. Variants carry the attributes the
/// Chrome exporter emits as `args` and the report aggregates over.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanKind {
    /// One compiler pass (from the PassManager's after-pass hook).
    Pass {
        /// Canonical pass name.
        name: &'static str,
    },
    /// One whole executor timestep (`Runner::step*`).
    Timestep {
        /// 0-based timestep index of this runner.
        index: u64,
    },
    /// One `Step::Apply` (full, interior, or one boundary shell).
    Apply {
        /// Executor tier name (`eval` | `template-jit`).
        tier: &'static str,
        /// Region label (empty = full, `interior`, `boundary[..]`).
        region: String,
        /// Grid points executed.
        points: i64,
    },
    /// One `Step::SwapBegin` (pack + post sends).
    SwapBegin {
        /// Swap id within the pipeline.
        swap: usize,
        /// Declared exchange payload in bytes.
        bytes: u64,
    },
    /// One `Step::SwapWait` (receive + unpack).
    SwapWait {
        /// Swap id within the pipeline.
        swap: usize,
    },
    /// One `Step::Copy`.
    Copy {
        /// Points copied.
        points: i64,
    },
    /// One worker-pool job (a chunk of an apply) on a worker lane.
    Task,
    /// Packing one outgoing halo slab into its message buffer.
    Pack {
        /// Exchange direction (the `dmp` direction vector).
        dir: Vec<i64>,
        /// Payload bytes.
        bytes: u64,
    },
    /// Unpacking one received halo slab into the local buffer.
    Unpack {
        /// Exchange direction the halo came from.
        dir: Vec<i64>,
        /// Payload bytes.
        bytes: u64,
    },
    /// A message deposited into a SimMPI mailbox (instant event).
    MsgSend {
        /// Sending rank.
        src: i32,
        /// Receiving rank.
        dst: i32,
        /// Message tag.
        tag: i32,
        /// Payload bytes.
        bytes: u64,
        /// Simulated delivery latency in microseconds.
        latency_us: u64,
    },
    /// One phase of a global reduction.
    Reduce {
        /// `partial` (local fold over the owned core) or `allreduce`
        /// (rendezvous exchanging accumulator wire payloads — the span
        /// covers any wait for the slowest rank).
        phase: &'static str,
        /// Payload: points folded (`partial`) or wire bytes exchanged
        /// (`allreduce`).
        bytes: u64,
        /// Participants: worker chunks merged (`partial`) or ranks
        /// combined (`allreduce`).
        parts: u32,
        /// Blocks of a `partial` sum/dot fold that left the exact sum's
        /// vector stage for its per-point path (too wide an exponent
        /// span, a NaN/∞, magnitudes at the ends of the f64 range) — the
        /// "why was this reduce slow" answer. 0 for `allreduce`.
        escaped: u32,
    },
    /// A blocking SimMPI receive (span covers any wait for delivery).
    MsgRecv {
        /// Sending rank.
        src: i32,
        /// Receiving rank.
        dst: i32,
        /// Message tag.
        tag: i32,
        /// Payload bytes.
        bytes: u64,
        /// Whether the receive had to block for delivery (exposed
        /// communication time) or found the message already there.
        blocked: bool,
    },
    /// A fault injected by a [fault plan] (instant event): the trace
    /// shows exactly what was injured and when.
    ///
    /// [fault plan]: self
    Fault {
        /// Fault kind (`drop` | `duplicate` | `reorder` | `delay-spike`
        /// | `rank-stall` | `rank-crash`).
        fault: &'static str,
        /// The rank the fault acts on (receiver for message faults).
        rank: i32,
        /// Human-readable specifics (peer, tag, delay, step, ...).
        detail: String,
    },
    /// A timed-out exchange being re-requested (instant event).
    Retry {
        /// What timed out (`swap#3`, `allreduce`, ...).
        target: String,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// One checkpoint snapshot (owned cores + scalar slots).
    Checkpoint {
        /// Timestep the snapshot captures (state *before* this step).
        step: u64,
        /// Serialized payload bytes.
        bytes: u64,
    },
    /// One cohort rollback: respawn + restore from a checkpoint.
    Recovery {
        /// 1-based recovery attempt number.
        attempt: u32,
        /// Timestep the cohort rolled back to.
        step: u64,
    },
}

impl SpanKind {
    /// Whether this kind renders as a Chrome instant (`ph:"i"`) instead
    /// of a complete span (`ph:"X"`).
    pub fn is_instant(&self) -> bool {
        matches!(self, SpanKind::MsgSend { .. } | SpanKind::Fault { .. } | SpanKind::Retry { .. })
    }

    /// Display name (the Chrome `name` field).
    pub fn label(&self) -> String {
        match self {
            SpanKind::Pass { name } => format!("pass {name}"),
            SpanKind::Timestep { index } => format!("timestep {index}"),
            SpanKind::Apply { tier, region, .. } if region.is_empty() => format!("apply {tier}"),
            SpanKind::Apply { tier, region, .. } => format!("apply {} {tier}", region.trim_end()),
            SpanKind::SwapBegin { swap, .. } => format!("swap#{swap} begin"),
            SpanKind::SwapWait { swap } => format!("swap#{swap} wait"),
            SpanKind::Copy { .. } => "copy".to_string(),
            SpanKind::Task => "task".to_string(),
            SpanKind::Reduce { phase, .. } => format!("reduce {phase}"),
            SpanKind::Pack { dir, .. } => format!("pack {dir:?}"),
            SpanKind::Unpack { dir, .. } => format!("unpack {dir:?}"),
            SpanKind::MsgSend { dst, tag, .. } => format!("send→{dst} tag {tag}"),
            SpanKind::MsgRecv { src, tag, blocked, .. } => {
                format!("recv←{src} tag {tag}{}", if *blocked { " (blocked)" } else { "" })
            }
            SpanKind::Fault { fault, rank, .. } => format!("fault {fault} @rank {rank}"),
            SpanKind::Retry { target, attempt } => format!("retry {target} #{attempt}"),
            SpanKind::Checkpoint { step, .. } => format!("checkpoint @step {step}"),
            SpanKind::Recovery { attempt, step } => {
                format!("recovery #{attempt} → step {step}")
            }
        }
    }
}

/// One recorded event on a `(pid, tid)` track.
#[derive(Clone, Debug)]
pub struct Event {
    /// Process track (rank id, or [`COMPILER_PID`]).
    pub pid: u32,
    /// Thread track (0 = main, 1.. = worker lanes).
    pub tid: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// What happened.
    pub kind: SpanKind,
}

impl Event {
    /// End time, nanoseconds since the epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

struct Shared {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
    counters: [AtomicU64; COUNTER_SLOTS],
}

impl Shared {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A handle on one trace: clone freely (an `Arc` when enabled, nothing
/// when disabled) and hand it to every layer that should record.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Shared>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

impl Tracer {
    /// An enabled tracer with its epoch at now.
    pub fn new() -> Tracer {
        Tracer(Some(Arc::new(Shared {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        })))
    }

    /// The disabled sink: every operation is a no-op.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since the epoch (0 when disabled — no clock read).
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.0 {
            None => 0,
            Some(s) => s.now_ns(),
        }
    }

    /// A per-thread recording lane for track `(pid, tid)`.
    pub fn lane(&self, pid: u32, tid: u32) -> TraceLane {
        TraceLane { shared: self.0.clone(), pid, tid, buf: Vec::new() }
    }

    /// Adds `n` to a counter slot (relaxed atomic; no-op when disabled).
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if let Some(s) = &self.0 {
            s.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a counter slot (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        match &self.0 {
            None => 0,
            Some(s) => s.counters[counter as usize].load(Ordering::Relaxed),
        }
    }

    /// Records a span started at `t0` (from [`Tracer::now`]) ending now,
    /// directly into the shared list (one lock — for low-frequency
    /// emitters without a lane, e.g. per-message SimMPI events).
    pub fn record_span(&self, pid: u32, tid: u32, t0: u64, kind: impl FnOnce() -> SpanKind) {
        if let Some(s) = &self.0 {
            let t1 = s.now_ns();
            let event =
                Event { pid, tid, start_ns: t0, dur_ns: t1.saturating_sub(t0), kind: kind() };
            s.events.lock().expect("trace events lock").push(event);
        }
    }

    /// Records an instant event directly into the shared list.
    pub fn record_instant(&self, pid: u32, tid: u32, kind: impl FnOnce() -> SpanKind) {
        if let Some(s) = &self.0 {
            let event = Event { pid, tid, start_ns: s.now_ns(), dur_ns: 0, kind: kind() };
            s.events.lock().expect("trace events lock").push(event);
        }
    }

    /// A snapshot of every merged event, sorted by start time. Lanes
    /// buffer locally: flush them (or drop their owners) first.
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            None => Vec::new(),
            Some(s) => {
                let mut events = s.events.lock().expect("trace events lock").clone();
                events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
                events
            }
        }
    }
}

/// A per-thread recording buffer for one `(pid, tid)` track.
///
/// Pushes are lock-free (an owned `Vec`); the buffer merges into the
/// tracer's shared list on [`TraceLane::flush`] and on drop. A lane from
/// a disabled tracer never allocates, reads a clock, or evaluates the
/// kind closure.
pub struct TraceLane {
    shared: Option<Arc<Shared>>,
    pid: u32,
    tid: u32,
    buf: Vec<Event>,
}

impl std::fmt::Debug for TraceLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLane")
            .field("enabled", &self.shared.is_some())
            .field("pid", &self.pid)
            .field("tid", &self.tid)
            .finish()
    }
}

impl TraceLane {
    /// A lane that records nothing.
    pub fn disabled() -> TraceLane {
        TraceLane { shared: None, pid: 0, tid: 0, buf: Vec::new() }
    }

    /// Whether this lane records.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Start timestamp for a span (0 when disabled — no clock read).
    #[inline]
    pub fn start(&self) -> u64 {
        match &self.shared {
            None => 0,
            Some(s) => s.now_ns(),
        }
    }

    /// Records a span from `t0` (a [`TraceLane::start`] value) to now.
    /// The kind closure only runs when enabled, so building labels or
    /// cloning direction vectors costs nothing when tracing is off.
    #[inline]
    pub fn span(&mut self, t0: u64, kind: impl FnOnce() -> SpanKind) {
        let Some(s) = &self.shared else { return };
        let t1 = s.now_ns();
        self.buf.push(Event {
            pid: self.pid,
            tid: self.tid,
            start_ns: t0,
            dur_ns: t1.saturating_sub(t0),
            kind: kind(),
        });
    }

    /// Records an instant event on this lane.
    #[inline]
    pub fn instant(&mut self, kind: impl FnOnce() -> SpanKind) {
        let Some(s) = &self.shared else { return };
        let event =
            Event { pid: self.pid, tid: self.tid, start_ns: s.now_ns(), dur_ns: 0, kind: kind() };
        self.buf.push(event);
    }

    /// Merges buffered events into the tracer's shared list.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if let Some(s) = &self.shared {
            s.events.lock().expect("trace events lock").append(&mut self.buf);
        } else {
            self.buf.clear();
        }
    }
}

impl Drop for TraceLane {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_never_runs_closures() {
        let t = Tracer::disabled();
        let mut lane = t.lane(0, 0);
        assert!(!t.is_enabled());
        assert_eq!(t.now(), 0);
        assert_eq!(lane.start(), 0);
        lane.span(0, || panic!("kind closure must not run when disabled"));
        lane.instant(|| panic!("kind closure must not run when disabled"));
        t.record_span(0, 0, 0, || panic!("must not run"));
        t.record_instant(0, 0, || panic!("must not run"));
        t.count(Counter::MsgsSent, 5);
        assert_eq!(t.counter(Counter::MsgsSent), 0);
        lane.flush();
        assert!(t.events().is_empty());
    }

    #[test]
    fn lanes_buffer_until_flush_and_merge_on_drop() {
        let t = Tracer::new();
        let mut lane = t.lane(3, 1);
        let t0 = lane.start();
        lane.span(t0, || SpanKind::Task);
        assert!(t.events().is_empty(), "unflushed events stay in the lane");
        lane.flush();
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].pid, events[0].tid), (3, 1));
        // Drop-flush.
        let mut lane2 = t.lane(3, 2);
        lane2.instant(|| SpanKind::MsgSend { src: 0, dst: 1, tag: 9, bytes: 8, latency_us: 0 });
        drop(lane2);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let t = Tracer::new();
        let t2 = t.clone();
        t.count(Counter::RecvBlocked, 2);
        t2.count(Counter::RecvBlocked, 3);
        assert_eq!(t.counter(Counter::RecvBlocked), 5);
        for c in Counter::ALL {
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn events_are_sorted_by_start_time() {
        let t = Tracer::new();
        let a0 = t.now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.record_span(0, 0, a0, || SpanKind::Timestep { index: 0 }); // long, early
        t.record_instant(0, 0, || SpanKind::MsgSend {
            src: 0,
            dst: 1,
            tag: 0,
            bytes: 0,
            latency_us: 0,
        });
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].start_ns <= events[1].start_ns);
        assert!(matches!(events[0].kind, SpanKind::Timestep { .. }));
    }
}
