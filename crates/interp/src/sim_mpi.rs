//! SimMPI — the simulated message-passing runtime.
//!
//! Plays the role mpich plays on ARCHER2: the lowered program calls
//! `MPI_*` symbols with the mpich ABI constants, and this runtime executes
//! them. Ranks are OS threads sharing one [`SimWorld`]; messages travel
//! through per-`(src, dst, tag)` FIFO mailboxes, preserving MPI's
//! non-overtaking guarantee, on which the halo-exchange tag scheme relies.
//!
//! Collectives use a generation-counted rendezvous (every rank deposits
//! its contribution and receives everyone's), which is sufficient for the
//! SPMD programs the stack generates.

use crate::fault::{FaultAction, FaultPlan, Reliability};
use crate::sync_shim::{Condvar, Mutex};
use crate::value::{RequestList, RequestState, RtValue, SharedData};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sten_trace::{Counter, SpanKind, Tracer};

/// A structured communication failure: every blocking SimMPI entry point
/// returns one instead of hanging or panicking, so ranks running under
/// injected faults always terminate with a diagnosis naming the rank (and
/// the collective generation, where one applies).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpiError {
    /// The world was poisoned (another rank failed); names the failing
    /// rank and why, so the survivor's error points at the root cause.
    Poisoned {
        /// Rank that poisoned the world.
        by_rank: i32,
        /// The poisoner's reason.
        reason: String,
    },
    /// A bounded receive expired without a matching delivery.
    RecvTimeout {
        /// Receiving rank.
        rank: i32,
        /// Expected sender.
        src: i32,
        /// Message tag.
        tag: i32,
        /// How long the receive waited, milliseconds.
        waited_ms: u64,
    },
    /// A collective rendezvous expired before every rank deposited.
    CollectiveTimeout {
        /// The waiting rank.
        rank: usize,
        /// Rendezvous generation the rank was waiting on.
        generation: u64,
        /// Ranks that had not deposited when the budget ran out.
        missing: Vec<usize>,
        /// How long the rank waited, milliseconds.
        waited_ms: u64,
    },
    /// A rank deposited twice into the same rendezvous generation (a
    /// protocol violation — previously an `assert!`).
    DoubleDeposit {
        /// The offending rank.
        rank: usize,
        /// The generation it deposited into.
        generation: u64,
    },
    /// Rendezvous bookkeeping lost a contribution or result (previously
    /// `expect("deposited")` / `expect("result present")` panics).
    CollectiveCorrupted {
        /// The observing rank.
        rank: usize,
        /// The generation whose state is inconsistent.
        generation: u64,
        /// What was missing.
        what: &'static str,
    },
    /// A scheduled [`FaultAction::RankCrash`] fired on this rank.
    InjectedCrash {
        /// The crashed rank.
        rank: i32,
        /// The timestep it crashed at.
        step: u64,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::Poisoned { by_rank, reason } => {
                write!(f, "world poisoned by rank {by_rank}: {reason}")
            }
            MpiError::RecvTimeout { rank, src, tag, waited_ms } => write!(
                f,
                "rank {rank}: receive from rank {src} tag {tag} timed out after {waited_ms} ms"
            ),
            MpiError::CollectiveTimeout { rank, generation, missing, waited_ms } => write!(
                f,
                "rank {rank}: collective generation {generation} timed out after {waited_ms} ms \
                 (missing deposits from ranks {missing:?})"
            ),
            MpiError::DoubleDeposit { rank, generation } => {
                write!(f, "rank {rank} double-deposited into collective generation {generation}")
            }
            MpiError::CollectiveCorrupted { rank, generation, what } => write!(
                f,
                "rank {rank}: collective generation {generation} corrupted ({what} missing)"
            ),
            MpiError::InjectedCrash { rank, step } => {
                write!(f, "rank {rank}: injected crash at step {step}")
            }
        }
    }
}

impl std::error::Error for MpiError {}

/// Validated mpich magic constants (mirrors `sten_mpi::abi`).
mod abi {
    pub const MPI_COMM_WORLD: i64 = 0x4400_0000;
    pub const MPI_FLOAT: i64 = 0x4c00_040a;
    pub const MPI_DOUBLE: i64 = 0x4c00_080b;
    pub const MPI_INT: i64 = 0x4c00_0405;
    pub const MPI_INT64: i64 = 0x4c00_0843;
    pub const MPI_OP_SUM: i64 = 0x5800_0003;
    pub const MPI_OP_MIN: i64 = 0x5800_0002;
    pub const MPI_OP_MAX: i64 = 0x5800_0001;

    pub fn valid_datatype(handle: i64) -> bool {
        matches!(handle, MPI_FLOAT | MPI_DOUBLE | MPI_INT | MPI_INT64)
    }
}

/// One in-flight message: payload plus its simulated arrival time
/// (`None` = already delivered, the zero-latency fast path).
struct Msg {
    arrival: Option<std::time::Instant>,
    data: Vec<f64>,
}

impl Msg {
    fn arrived(&self) -> bool {
        match self.arrival {
            None => true,
            Some(at) => std::time::Instant::now() >= at,
        }
    }
}

#[derive(Default)]
struct Mailboxes {
    /// (src, dst, tag) → FIFO queue of messages.
    queues: HashMap<(i32, i32, i32), Vec<Msg>>,
    /// (src, dst) → messages sent so far on the channel (the fault
    /// plan's deterministic message index).
    sent_count: HashMap<(i32, i32), u64>,
    /// (src, dst, tag) → payloads of dropped messages, oldest first.
    /// [`SimWorld::rerequest`] re-delivers from here — the model of a
    /// link-layer retransmission triggered by a receiver-side NACK.
    lost: HashMap<(i32, i32, i32), Vec<Vec<f64>>>,
}

struct CollectiveState {
    generation: u64,
    deposits: Vec<Option<Vec<f64>>>,
    /// generation → (all contributions, readers remaining).
    results: HashMap<u64, (Vec<Vec<f64>>, usize)>,
}

/// The shared state of one simulated MPI world.
pub struct SimWorld {
    size: usize,
    /// Simulated per-message delivery latency: a sent message becomes
    /// visible to receives only after this much wall-clock time. Zero
    /// (the default) means instant delivery, as before.
    latency: std::time::Duration,
    mail: Mutex<Mailboxes>,
    mail_cv: Condvar,
    coll: Mutex<CollectiveState>,
    coll_cv: Condvar,
    /// Total elements sent (communication-volume accounting for the
    /// benchmarks). Lock-free: counters sit on the send/recv hot path.
    sent_elements: AtomicU64,
    /// Total messages sent.
    sent_messages: AtomicU64,
    /// Receives whose message had already arrived at the first attempt —
    /// the observable signature of communication/computation overlap.
    recv_immediate: AtomicU64,
    /// Receives that had to block for their message.
    recv_blocked: AtomicU64,
    /// Structured trace sink for message-level events (disabled by
    /// default: [`SimWorld::new_traced`] turns it on).
    tracer: Tracer,
    /// The fault schedule, if this world injects faults.
    faults: Option<Arc<FaultPlan>>,
    /// Timeout/retry knobs; `Some` arms the executor's halo receives
    /// with timeouts, re-requests and re-sends (same wire format).
    reliability: Option<Reliability>,
    /// Set once by the first failing rank; blocking waits re-check it
    /// and return [`MpiError::Poisoned`] so no peer hangs forever.
    poison: Mutex<Option<(i32, String)>>,
}

impl SimWorld {
    /// Creates a world of `size` ranks with instant message delivery.
    pub fn new(size: usize) -> Arc<SimWorld> {
        SimWorld::new_with_latency(size, std::time::Duration::ZERO)
    }

    /// Creates a world whose messages arrive only after `latency` — a
    /// stand-in for network transit time, so the sync-vs-overlap gap is
    /// measurable instead of hidden by the shared-memory mailboxes.
    /// Payloads are unaffected; results stay bit-identical to the
    /// zero-latency world.
    pub fn new_with_latency(size: usize, latency: std::time::Duration) -> Arc<SimWorld> {
        SimWorld::new_traced(size, latency, Tracer::disabled())
    }

    /// Creates a world that records message-level events (sends as
    /// instants, receives as spans covering any delivery wait) and
    /// counters into `tracer`. Tracing never perturbs payloads or
    /// matching: results stay bit-identical to an untraced world.
    pub fn new_traced(size: usize, latency: std::time::Duration, tracer: Tracer) -> Arc<SimWorld> {
        SimWorld::new_resilient(size, latency, tracer, None, None)
    }

    /// Creates a world that injects the faults scheduled in `plan`, with
    /// default [`Reliability`] knobs so the executor's halo receives time
    /// out and recover dropped frames. The plan is an `Arc` so a
    /// resilient driver can reuse it (with its fired flags) across world
    /// re-creations.
    pub fn new_with_faults(size: usize, plan: Arc<FaultPlan>) -> Arc<SimWorld> {
        SimWorld::new_resilient(
            size,
            std::time::Duration::ZERO,
            Tracer::disabled(),
            Some(plan),
            Some(Reliability::default()),
        )
    }

    /// The fully-general constructor: latency, tracing, an optional
    /// fault schedule, and optional reliability knobs (they can be set
    /// without faults, e.g. to measure their fault-free overhead).
    pub fn new_resilient(
        size: usize,
        latency: std::time::Duration,
        tracer: Tracer,
        faults: Option<Arc<FaultPlan>>,
        reliability: Option<Reliability>,
    ) -> Arc<SimWorld> {
        Arc::new(SimWorld {
            size,
            latency,
            mail: Mutex::new(Mailboxes::default()),
            mail_cv: Condvar::new(),
            coll: Mutex::new(CollectiveState {
                generation: 0,
                deposits: vec![None; size],
                results: HashMap::new(),
            }),
            coll_cv: Condvar::new(),
            sent_elements: AtomicU64::new(0),
            sent_messages: AtomicU64::new(0),
            recv_immediate: AtomicU64::new(0),
            recv_blocked: AtomicU64::new(0),
            tracer,
            faults,
            reliability,
            poison: Mutex::new(None),
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The attached fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The reliability knobs, if receives are timeout-armed.
    pub fn reliability(&self) -> Option<&Reliability> {
        self.reliability.as_ref()
    }

    /// The world's trace sink (disabled unless constructed traced).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Marks the world failed on behalf of `rank`: every blocked or
    /// future wait returns [`MpiError::Poisoned`] instead of hanging, so
    /// a rank that errors mid-block never strands its peers.
    pub fn poison(&self, rank: i32, reason: impl Into<String>) {
        {
            let mut p = self.poison.lock();
            if p.is_none() {
                *p = Some((rank, reason.into()));
            }
        }
        // Lock each wait's mutex before notifying so a peer between its
        // poison check and its wait cannot miss the wakeup.
        drop(self.mail.lock());
        self.mail_cv.notify_all();
        drop(self.coll.lock());
        self.coll_cv.notify_all();
    }

    /// The poison marker, if the world has failed.
    pub fn poison_info(&self) -> Option<(i32, String)> {
        self.poison.lock().clone()
    }

    fn check_poison(&self) -> Result<(), MpiError> {
        match &*self.poison.lock() {
            Some((by_rank, reason)) => {
                Err(MpiError::Poisoned { by_rank: *by_rank, reason: reason.clone() })
            }
            None => Ok(()),
        }
    }

    /// Total elements sent so far (all ranks).
    pub fn total_sent_elements(&self) -> u64 {
        self.sent_elements.load(Ordering::Relaxed)
    }

    /// Total messages sent so far (all ranks).
    pub fn total_sent_messages(&self) -> u64 {
        self.sent_messages.load(Ordering::Relaxed)
    }

    /// Receives that found their message already delivered on the first
    /// attempt (overlap hid the transit time).
    pub fn total_recv_immediate(&self) -> u64 {
        self.recv_immediate.load(Ordering::Relaxed)
    }

    /// Receives that blocked waiting for delivery.
    pub fn total_recv_blocked(&self) -> u64 {
        self.recv_blocked.load(Ordering::Relaxed)
    }

    /// Buffered send: deposits the message and returns immediately; the
    /// message completes delivery in the background (after the world's
    /// simulated latency, if any).
    pub fn send(&self, src: i32, dst: i32, tag: i32, data: Vec<f64>) {
        self.sent_elements.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.sent_messages.fetch_add(1, Ordering::Relaxed);
        self.tracer.count(Counter::MsgsSent, 1);
        self.tracer.count(Counter::ElementsSent, data.len() as u64);
        let bytes = 8 * data.len() as u64;
        let latency_us = self.latency.as_micros() as u64;
        self.tracer.record_instant(src.max(0) as u32, 0, || SpanKind::MsgSend {
            src,
            dst,
            tag,
            bytes,
            latency_us,
        });
        let arrival = (!self.latency.is_zero()).then(|| std::time::Instant::now() + self.latency);
        let mut mail = self.mail.lock();
        // The fault plan keys on the channel's deterministic message
        // index (this rank is the only sender on `src → dst`, so the
        // count is interleaving-independent).
        let fault = self.faults.as_ref().and_then(|plan| {
            let count = mail.sent_count.entry((src, dst)).or_insert(0);
            let index = *count;
            *count += 1;
            let action = plan.on_send(src, dst, index)?;
            Some((action, index))
        });
        match fault {
            None => {
                mail.queues.entry((src, dst, tag)).or_default().push(Msg { arrival, data });
            }
            Some((action, index)) => {
                self.tracer.count(Counter::FaultsInjected, 1);
                self.tracer.record_instant(src.max(0) as u32, 0, || SpanKind::Fault {
                    fault: action.name(),
                    rank: dst,
                    detail: format!("src {src} dst {dst} tag {tag} msg#{index}"),
                });
                match action {
                    FaultAction::Drop => {
                        // Never enqueued: the payload moves to the lost
                        // store, recoverable through `rerequest`.
                        mail.lost.entry((src, dst, tag)).or_default().push(data);
                    }
                    FaultAction::Duplicate => {
                        let q = mail.queues.entry((src, dst, tag)).or_default();
                        q.push(Msg { arrival, data: data.clone() });
                        q.push(Msg { arrival, data });
                    }
                    FaultAction::Reorder => {
                        // Jumps the queue: overtakes older undelivered
                        // messages on the channel.
                        mail.queues
                            .entry((src, dst, tag))
                            .or_default()
                            .insert(0, Msg { arrival, data });
                    }
                    FaultAction::DelaySpike { extra_ms } => {
                        let spiked = std::time::Instant::now()
                            + self.latency
                            + std::time::Duration::from_millis(extra_ms);
                        mail.queues
                            .entry((src, dst, tag))
                            .or_default()
                            .push(Msg { arrival: Some(spiked), data });
                    }
                    // Rank faults never match `on_send`.
                    FaultAction::RankStall { .. } | FaultAction::RankCrash => unreachable!(),
                }
            }
        }
        self.mail_cv.notify_all();
    }

    /// Re-delivers the oldest *lost* (dropped) message on `(src → dst,
    /// tag)`, if one exists — the receiver-driven retransmission a timed
    /// out reliable exchange requests. Returns whether a message was
    /// recovered.
    pub fn rerequest(&self, dst: i32, src: i32, tag: i32) -> bool {
        let mut mail = self.mail.lock();
        let Some(stash) = mail.lost.get_mut(&(src, dst, tag)) else { return false };
        if stash.is_empty() {
            return false;
        }
        let data = stash.remove(0);
        self.tracer.count(Counter::Retries, 1);
        mail.queues.entry((src, dst, tag)).or_default().push(Msg { arrival: None, data });
        self.mail_cv.notify_all();
        true
    }

    /// Pops the oldest matching message if it has been delivered
    /// (nonblocking). MPI's non-overtaking order is preserved: an
    /// undelivered message at the queue head blocks younger ones.
    fn pop_arrived(mail: &mut Mailboxes, dst: i32, src: i32, tag: i32) -> Option<Vec<f64>> {
        let q = mail.queues.get_mut(&(src, dst, tag))?;
        if q.first()?.arrived() {
            Some(q.remove(0).data)
        } else {
            None
        }
    }

    /// Nonblocking receive: the oldest matching *delivered* message.
    pub fn try_recv(&self, dst: i32, src: i32, tag: i32) -> Option<Vec<f64>> {
        let mut mail = self.mail.lock();
        Self::pop_arrived(&mut mail, dst, src, tag)
    }

    /// Blocking receive of the oldest matching message.
    ///
    /// # Errors
    /// Returns [`MpiError::Poisoned`] if the world fails while waiting —
    /// a receive never hangs on a crashed peer.
    pub fn recv(&self, dst: i32, src: i32, tag: i32) -> Result<Vec<f64>, MpiError> {
        let t0 = self.tracer.now();
        let (data, blocked) = self.recv_inner(dst, src, tag, None)?;
        let data = data.expect("unbounded receive returned without a message");
        let bytes = 8 * data.len() as u64;
        self.tracer.record_span(dst.max(0) as u32, 0, t0, || SpanKind::MsgRecv {
            src,
            dst,
            tag,
            bytes,
            blocked,
        });
        Ok(data)
    }

    /// Bounded blocking receive: `Ok(None)` when `timeout` elapses with
    /// no matching delivery (the reliable exchange's retry trigger).
    ///
    /// # Errors
    /// Returns [`MpiError::Poisoned`] if the world fails while waiting.
    pub fn recv_timeout(
        &self,
        dst: i32,
        src: i32,
        tag: i32,
        timeout: std::time::Duration,
    ) -> Result<Option<Vec<f64>>, MpiError> {
        let t0 = self.tracer.now();
        let (data, blocked) = self.recv_inner(dst, src, tag, Some(timeout))?;
        if let Some(data) = &data {
            let bytes = 8 * data.len() as u64;
            self.tracer.record_span(dst.max(0) as u32, 0, t0, || SpanKind::MsgRecv {
                src,
                dst,
                tag,
                bytes,
                blocked,
            });
        }
        Ok(data)
    }

    /// The receive itself; reports whether it had to block for delivery.
    /// `Ok(None)` only when `deadline` is bounded and expired.
    fn recv_inner(
        &self,
        dst: i32,
        src: i32,
        tag: i32,
        timeout: Option<std::time::Duration>,
    ) -> Result<(Option<Vec<f64>>, bool), MpiError> {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let mut mail = self.mail.lock();
        self.check_poison()?;
        if let Some(data) = Self::pop_arrived(&mut mail, dst, src, tag) {
            self.recv_immediate.fetch_add(1, Ordering::Relaxed);
            self.tracer.count(Counter::RecvImmediate, 1);
            return Ok((Some(data), false));
        }
        self.recv_blocked.fetch_add(1, Ordering::Relaxed);
        self.tracer.count(Counter::RecvBlocked, 1);
        loop {
            if let Some(data) = Self::pop_arrived(&mut mail, dst, src, tag) {
                return Ok((Some(data), true));
            }
            self.check_poison()?;
            // An in-flight message needs a timed wait (no notification
            // fires when its latency elapses).
            let in_flight = mail
                .queues
                .get(&(src, dst, tag))
                .and_then(|q| q.first())
                .and_then(|m| m.arrival)
                .map(|at| at.saturating_duration_since(std::time::Instant::now()));
            let until_deadline = deadline.map(|at| {
                let now = std::time::Instant::now();
                if at <= now {
                    std::time::Duration::ZERO
                } else {
                    at - now
                }
            });
            if until_deadline == Some(std::time::Duration::ZERO) {
                return Ok((None, true));
            }
            let bounded = match (in_flight, until_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            };
            match bounded {
                Some(remaining) => {
                    let _ = self.mail_cv.wait_timeout(
                        &mut mail,
                        remaining.max(std::time::Duration::from_micros(1)),
                    );
                }
                None => self.mail_cv.wait(&mut mail),
            }
        }
    }

    /// All-to-all rendezvous: every rank deposits `data` and receives the
    /// contributions of all ranks, indexed by rank. On a world with
    /// [`Reliability`] knobs the wait is bounded by
    /// `collective_timeout_ms`; otherwise it is unbounded (but still
    /// poison-interruptible).
    ///
    /// # Errors
    /// [`MpiError::Poisoned`] if the world fails while waiting,
    /// [`MpiError::CollectiveTimeout`] naming the missing ranks when the
    /// budget runs out, and [`MpiError::DoubleDeposit`] /
    /// [`MpiError::CollectiveCorrupted`] on protocol violations.
    pub fn exchange_all(&self, rank: usize, data: Vec<f64>) -> Result<Vec<Vec<f64>>, MpiError> {
        let budget = self
            .reliability
            .as_ref()
            .map(|r| std::time::Duration::from_millis(r.collective_timeout_ms));
        let start = std::time::Instant::now();
        let mut st = self.coll.lock();
        self.check_poison()?;
        let my_gen = st.generation;
        if st.deposits[rank].is_some() {
            return Err(MpiError::DoubleDeposit { rank, generation: my_gen });
        }
        st.deposits[rank] = Some(data);
        let arrived = st.deposits.iter().filter(|d| d.is_some()).count();
        if arrived == self.size {
            let mut all = Vec::with_capacity(self.size);
            for d in st.deposits.iter_mut() {
                match d.take() {
                    Some(v) => all.push(v),
                    None => {
                        return Err(MpiError::CollectiveCorrupted {
                            rank,
                            generation: my_gen,
                            what: "deposit",
                        })
                    }
                }
            }
            st.results.insert(my_gen, (all, self.size));
            st.generation += 1;
            self.coll_cv.notify_all();
        } else {
            while !st.results.contains_key(&my_gen) {
                self.check_poison()?;
                match budget {
                    None => self.coll_cv.wait(&mut st),
                    Some(budget) => {
                        let waited = start.elapsed();
                        if waited >= budget {
                            // Identify the stragglers: their slot for
                            // this generation is still empty.
                            let missing: Vec<usize> = if st.generation == my_gen {
                                (0..self.size).filter(|&r| st.deposits[r].is_none()).collect()
                            } else {
                                Vec::new()
                            };
                            return Err(MpiError::CollectiveTimeout {
                                rank,
                                generation: my_gen,
                                missing,
                                waited_ms: waited.as_millis() as u64,
                            });
                        }
                        let _ = self.coll_cv.wait_timeout(
                            &mut st,
                            (budget - waited).max(std::time::Duration::from_micros(1)),
                        );
                    }
                }
            }
        }
        let Some((all, readers)) = st.results.get_mut(&my_gen) else {
            return Err(MpiError::CollectiveCorrupted { rank, generation: my_gen, what: "result" });
        };
        let copy = all.clone();
        *readers -= 1;
        if *readers == 0 {
            st.results.remove(&my_gen);
        }
        Ok(copy)
    }
}

/// Combines rank contributions element-wise with a **fixed association
/// tree**: `combine(lo..hi) = combine(lo..mid) ⊕ combine(mid..hi)` with
/// `mid = lo + (hi-lo)/2`, leaves in ascending rank order.
///
/// `exchange_all` already indexes contributions by rank (the rendezvous
/// deposits into `deposits[rank]`), so the tree is a pure function of the
/// rank count — message *arrival* order cannot perturb the result. The
/// result is reproducible run-to-run for a fixed decomposition, but this
/// is IEEE arithmetic: it is *not* invariant under changing the rank
/// count (the executor's exact superaccumulator path is).
fn reduce(op: i64, contributions: &[Vec<f64>]) -> Vec<f64> {
    fn combine(op: i64, contributions: &[Vec<f64>], i: usize, lo: usize, hi: usize) -> f64 {
        if hi - lo == 1 {
            return contributions[lo][i];
        }
        let mid = lo + (hi - lo) / 2;
        let a = combine(op, contributions, i, lo, mid);
        let b = combine(op, contributions, i, mid, hi);
        match op {
            abi::MPI_OP_SUM => a + b,
            abi::MPI_OP_MIN => a.min(b),
            abi::MPI_OP_MAX => a.max(b),
            _ => a,
        }
    }
    let n = contributions[0].len();
    (0..n).map(|i| combine(op, contributions, i, 0, contributions.len())).collect()
}

/// Why an external call failed: a local fault (bad arguments, an unknown
/// symbol), or a communication failure kept typed, so the rank's caller
/// can tell a peer's poison from its own fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExternalError {
    /// A local fault, described.
    Message(String),
    /// The simulated MPI runtime failed.
    Mpi(MpiError),
}

impl std::fmt::Display for ExternalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExternalError::Message(m) => f.write_str(m),
            ExternalError::Mpi(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExternalError {}

impl From<String> for ExternalError {
    fn from(m: String) -> ExternalError {
        ExternalError::Message(m)
    }
}

impl From<&str> for ExternalError {
    fn from(m: &str) -> ExternalError {
        ExternalError::Message(m.to_string())
    }
}

impl From<MpiError> for ExternalError {
    fn from(e: MpiError) -> ExternalError {
        ExternalError::Mpi(e)
    }
}

/// Implementations of external functions callable from interpreted code.
pub trait Externals {
    /// Invokes external function `name` with `args`.
    ///
    /// # Errors
    /// Reports unknown symbols or invalid arguments.
    fn call(&mut self, name: &str, args: &[RtValue]) -> Result<Vec<RtValue>, ExternalError>;

    /// Executes a `dmp.swap` directly (for interpretation at the dmp
    /// level). Default: unsupported.
    ///
    /// # Errors
    /// Reports lack of a communication substrate.
    fn dmp_swap(
        &mut self,
        _data: &crate::value::BufView,
        _grid: &[i64],
        _exchanges: &[sten_ir::ExchangeAttr],
    ) -> Result<(), ExternalError> {
        Err("dmp.swap requires an MPI environment (rank context)".into())
    }

    /// All-to-all exchange of an opaque payload (the wire form of a
    /// reduction accumulator), returning every rank's contribution indexed
    /// by rank. The *caller* performs the combine — keeping exact-sum limb
    /// merging out of the communication substrate. Default: unsupported.
    ///
    /// # Errors
    /// Reports lack of a communication substrate.
    fn allreduce_exchange(&mut self, _payload: Vec<f64>) -> Result<Vec<Vec<f64>>, ExternalError> {
        Err("dmp.allreduce requires an MPI environment (rank context)".into())
    }

    /// The rank of this interpreter instance, if it runs inside a world.
    fn rank(&self) -> Option<i32> {
        None
    }
}

/// No external functions available (single-process interpretation).
#[derive(Default)]
pub struct NoExternals;

impl Externals for NoExternals {
    fn call(&mut self, name: &str, _args: &[RtValue]) -> Result<Vec<RtValue>, ExternalError> {
        Err(format!("call to unknown external function '{name}'").into())
    }
}

/// The per-rank MPI environment: implements the `MPI_*` ABI against a
/// shared [`SimWorld`].
pub struct MpiEnv {
    world: Arc<SimWorld>,
    rank: i32,
}

impl MpiEnv {
    /// Creates the environment for `rank` in `world`.
    pub fn new(world: Arc<SimWorld>, rank: i32) -> Self {
        assert!((rank as usize) < world.size(), "rank out of range");
        MpiEnv { world, rank }
    }

    fn check_comm(comm: i64) -> Result<(), String> {
        if comm != abi::MPI_COMM_WORLD {
            return Err(format!("invalid communicator handle {comm:#x}"));
        }
        Ok(())
    }

    fn check_dtype(dtype: i64) -> Result<(), String> {
        if !abi::valid_datatype(dtype) {
            return Err(format!("invalid MPI datatype handle {dtype:#x}"));
        }
        Ok(())
    }

    fn ptr_of(v: &RtValue) -> Result<(SharedData, usize), String> {
        match v {
            RtValue::Ptr { data, offset } => Ok((Rc::clone(data), *offset)),
            other => Err(format!("expected pointer argument, got {other:?}")),
        }
    }

    fn read_elems(ptr: &SharedData, offset: usize, count: usize) -> Result<Vec<f64>, String> {
        let data = ptr.borrow();
        if offset + count > data.len() {
            return Err(format!("pointer read out of bounds: {offset}+{count} > {}", data.len()));
        }
        Ok(data[offset..offset + count].to_vec())
    }

    fn write_elems(ptr: &SharedData, offset: usize, elems: &[f64]) -> Result<(), String> {
        let mut data = ptr.borrow_mut();
        if offset + elems.len() > data.len() {
            return Err(format!(
                "pointer write out of bounds: {offset}+{} > {}",
                elems.len(),
                data.len()
            ));
        }
        data[offset..offset + elems.len()].copy_from_slice(elems);
        Ok(())
    }

    fn request_list(v: &RtValue) -> Result<RequestList, String> {
        match v {
            RtValue::Requests(l) => Ok(Rc::clone(l)),
            other => Err(format!("expected request list, got {other:?}")),
        }
    }

    fn request_slot(v: &RtValue) -> Result<(RequestList, usize), String> {
        match v {
            RtValue::Request { list, index } => Ok((Rc::clone(list), *index)),
            other => Err(format!("expected request handle, got {other:?}")),
        }
    }

    fn complete(&self, state: &mut RequestState) -> Result<(), ExternalError> {
        match std::mem::replace(state, RequestState::Null) {
            RequestState::Null | RequestState::SendDone => Ok(()),
            RequestState::PendingRecv { src, tag, dst, offset, count } => {
                let msg = self.world.recv(self.rank, src, tag)?;
                if msg.len() != count {
                    return Err(ExternalError::Message(format!(
                        "message length {} does not match posted receive {count}",
                        msg.len()
                    )));
                }
                Ok(Self::write_elems(&dst, offset, &msg)?)
            }
        }
    }

    /// Attempts to complete a request without blocking: posted receives
    /// whose message has already been delivered are drained into their
    /// destination (background completion); returns whether the request
    /// is now complete.
    fn try_complete(&self, state: &mut RequestState) -> Result<bool, ExternalError> {
        match state {
            RequestState::Null | RequestState::SendDone => Ok(true),
            RequestState::PendingRecv { src, tag, dst, offset, count } => {
                let Some(msg) = self.world.try_recv(self.rank, *src, *tag) else {
                    return Ok(false);
                };
                if msg.len() != *count {
                    return Err(ExternalError::Message(format!(
                        "message length {} does not match posted receive {count}",
                        msg.len()
                    )));
                }
                Self::write_elems(dst, *offset, &msg)?;
                *state = RequestState::Null;
                Ok(true)
            }
        }
    }
}

impl Externals for MpiEnv {
    fn rank(&self) -> Option<i32> {
        Some(self.rank)
    }

    fn call(&mut self, name: &str, args: &[RtValue]) -> Result<Vec<RtValue>, ExternalError> {
        let int = |i: usize| args[i].as_int();
        match name {
            "MPI_Init" | "MPI_Finalize" => Ok(vec![RtValue::Int(0)]),
            "MPI_Comm_rank" => {
                Self::check_comm(int(0)?)?;
                Ok(vec![RtValue::Int(self.rank as i64)])
            }
            "MPI_Comm_size" => {
                Self::check_comm(int(0)?)?;
                Ok(vec![RtValue::Int(self.world.size() as i64)])
            }
            "MPI_Send" => {
                let (ptr, off) = Self::ptr_of(&args[0])?;
                let count = int(1)? as usize;
                Self::check_dtype(int(2)?)?;
                let (dest, tag) = (int(3)? as i32, int(4)? as i32);
                Self::check_comm(int(5)?)?;
                let data = Self::read_elems(&ptr, off, count)?;
                self.world.send(self.rank, dest, tag, data);
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Recv" => {
                let (ptr, off) = Self::ptr_of(&args[0])?;
                let count = int(1)? as usize;
                Self::check_dtype(int(2)?)?;
                let (src, tag) = (int(3)? as i32, int(4)? as i32);
                Self::check_comm(int(5)?)?;
                let msg = self.world.recv(self.rank, src, tag)?;
                if msg.len() != count {
                    return Err(format!("received {} elements, expected {count}", msg.len()).into());
                }
                Self::write_elems(&ptr, off, &msg)?;
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Isend" => {
                let (ptr, off) = Self::ptr_of(&args[0])?;
                let count = int(1)? as usize;
                Self::check_dtype(int(2)?)?;
                let (dest, tag) = (int(3)? as i32, int(4)? as i32);
                Self::check_comm(int(5)?)?;
                let (list, idx) = Self::request_slot(&args[6])?;
                let data = Self::read_elems(&ptr, off, count)?;
                self.world.send(self.rank, dest, tag, data);
                list.borrow_mut()[idx] = RequestState::SendDone;
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Irecv" => {
                let (ptr, off) = Self::ptr_of(&args[0])?;
                let count = int(1)? as usize;
                Self::check_dtype(int(2)?)?;
                let (src, tag) = (int(3)? as i32, int(4)? as i32);
                Self::check_comm(int(5)?)?;
                let (list, idx) = Self::request_slot(&args[6])?;
                let mut slot = RequestState::PendingRecv { src, tag, dst: ptr, offset: off, count };
                // Asynchronous semantics: an already-delivered message
                // completes the request at post time, in the background
                // of whatever the rank does next.
                self.try_complete(&mut slot)?;
                list.borrow_mut()[idx] = slot;
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Wait" => {
                let (list, idx) = Self::request_slot(&args[0])?;
                let mut slot = list.borrow()[idx].clone();
                self.complete(&mut slot)?;
                list.borrow_mut()[idx] = slot;
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Test" => {
                let (list, idx) = Self::request_slot(&args[0])?;
                let mut slot = list.borrow()[idx].clone();
                let done = self.try_complete(&mut slot)?;
                list.borrow_mut()[idx] = slot;
                Ok(vec![RtValue::Int(i64::from(done))])
            }
            "MPI_Waitall" => {
                let count = int(0)? as usize;
                let list = Self::request_list(&args[1])?;
                if list.borrow().len() < count {
                    return Err(ExternalError::Message(format!(
                        "waitall count {count} exceeds request list length {}",
                        list.borrow().len()
                    )));
                }
                for i in 0..count {
                    let mut slot = list.borrow()[i].clone();
                    self.complete(&mut slot)?;
                    list.borrow_mut()[i] = slot;
                }
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Request_alloc" => {
                let n = int(0)? as usize;
                Ok(vec![RtValue::Requests(Rc::new(std::cell::RefCell::new(vec![
                    RequestState::Null;
                    n
                ])))])
            }
            "MPI_Request_get" => {
                let list = Self::request_list(&args[0])?;
                let idx = int(1)? as usize;
                Ok(vec![RtValue::Request { list, index: idx }])
            }
            "MPI_Request_set_null" => {
                let list = Self::request_list(&args[0])?;
                let idx = int(1)? as usize;
                list.borrow_mut()[idx] = RequestState::Null;
                Ok(vec![])
            }
            "MPI_Allreduce" => {
                let (sptr, soff) = Self::ptr_of(&args[0])?;
                let (rptr, roff) = Self::ptr_of(&args[1])?;
                let count = int(2)? as usize;
                Self::check_dtype(int(3)?)?;
                let op = int(4)?;
                Self::check_comm(int(5)?)?;
                let mine = Self::read_elems(&sptr, soff, count)?;
                let all = self.world.exchange_all(self.rank as usize, mine)?;
                Self::write_elems(&rptr, roff, &reduce(op, &all))?;
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Reduce" => {
                let (sptr, soff) = Self::ptr_of(&args[0])?;
                let (rptr, roff) = Self::ptr_of(&args[1])?;
                let count = int(2)? as usize;
                Self::check_dtype(int(3)?)?;
                let op = int(4)?;
                let root = int(5)? as i32;
                Self::check_comm(int(6)?)?;
                let mine = Self::read_elems(&sptr, soff, count)?;
                let all = self.world.exchange_all(self.rank as usize, mine)?;
                if self.rank == root {
                    Self::write_elems(&rptr, roff, &reduce(op, &all))?;
                }
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Bcast" => {
                let (ptr, off) = Self::ptr_of(&args[0])?;
                let count = int(1)? as usize;
                Self::check_dtype(int(2)?)?;
                let root = int(3)? as i32;
                Self::check_comm(int(4)?)?;
                let mine = if self.rank == root {
                    Self::read_elems(&ptr, off, count)?
                } else {
                    Vec::new()
                };
                let all = self.world.exchange_all(self.rank as usize, mine)?;
                Self::write_elems(&ptr, off, &all[root as usize])?;
                Ok(vec![RtValue::Int(0)])
            }
            "MPI_Gather" => {
                let (sptr, soff) = Self::ptr_of(&args[0])?;
                let count = int(1)? as usize;
                Self::check_dtype(int(2)?)?;
                let (rptr, roff) = Self::ptr_of(&args[3])?;
                let root = int(6)? as i32;
                Self::check_comm(int(7)?)?;
                let mine = Self::read_elems(&sptr, soff, count)?;
                let all = self.world.exchange_all(self.rank as usize, mine)?;
                if self.rank == root {
                    let flat: Vec<f64> = all.into_iter().flatten().collect();
                    Self::write_elems(&rptr, roff, &flat)?;
                }
                Ok(vec![RtValue::Int(0)])
            }
            other => Err(format!("call to unknown external function '{other}'").into()),
        }
    }

    fn allreduce_exchange(&mut self, payload: Vec<f64>) -> Result<Vec<Vec<f64>>, ExternalError> {
        let t0 = self.world.tracer.now();
        let bytes = 8 * payload.len() as u64;
        let all = self.world.exchange_all(self.rank as usize, payload)?;
        self.world.tracer.record_span(self.rank as u32, 0, t0, || SpanKind::Reduce {
            phase: "allreduce",
            bytes,
            parts: all.len() as u32,
            escaped: 0,
        });
        Ok(all)
    }

    fn dmp_swap(
        &mut self,
        data: &crate::value::BufView,
        grid: &[i64],
        exchanges: &[sten_ir::ExchangeAttr],
    ) -> Result<(), ExternalError> {
        use sten_dmp::decomposition::neighbor_rank;
        // Buffered sends first (deadlock-free), then blocking receives.
        for e in exchanges {
            if let Some(n) = neighbor_rank(self.rank as i64, grid, &e.to)? {
                let send_view = data.subview(&e.send_at(), &e.size)?;
                let tag = sten_mpi::dmp_to_mpi::tag_for_direction(&e.to) as i32;
                self.world.send(self.rank, n as i32, tag, send_view.to_vec());
            }
        }
        for e in exchanges {
            if let Some(n) = neighbor_rank(self.rank as i64, grid, &e.to)? {
                let neg: Vec<i64> = e.to.iter().map(|t| -t).collect();
                let tag = sten_mpi::dmp_to_mpi::tag_for_direction(&neg) as i32;
                let msg = self.world.recv(self.rank, n as i32, tag)?;
                let recv_view = data.subview(&e.at, &e.size)?;
                let expected: i64 = e.size.iter().product();
                if msg.len() as i64 != expected {
                    return Err(ExternalError::Message(format!(
                        "rank {}: halo from rank {n} tag {tag} has {} elements, \
                         expected {expected} (region {:?})",
                        self.rank,
                        msg.len(),
                        e.size
                    )));
                }
                let mut idx = vec![0i64; e.size.len()];
                for v in msg {
                    recv_view.store(&idx, v)?;
                    let mut d = e.size.len();
                    loop {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                        idx[d] += 1;
                        if idx[d] < e.size[d] {
                            break;
                        }
                        idx[d] = 0;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_fifo_ordering() {
        let world = SimWorld::new(2);
        let w = Arc::clone(&world);
        let sender = thread::spawn(move || {
            w.send(0, 1, 7, vec![1.0]);
            w.send(0, 1, 7, vec![2.0]);
        });
        let first = world.recv(1, 0, 7).unwrap();
        let second = world.recv(1, 0, 7).unwrap();
        sender.join().unwrap();
        assert_eq!(first, vec![1.0]);
        assert_eq!(second, vec![2.0], "non-overtaking order preserved");
    }

    #[test]
    fn tags_isolate_channels() {
        let world = SimWorld::new(2);
        world.send(0, 1, 1, vec![1.0]);
        world.send(0, 1, 2, vec![2.0]);
        assert_eq!(world.recv(1, 0, 2).unwrap(), vec![2.0]);
        assert_eq!(world.recv(1, 0, 1).unwrap(), vec![1.0]);
    }

    #[test]
    fn exchange_all_rendezvous() {
        let world = SimWorld::new(4);
        let handles: Vec<_> = (0..4)
            .map(|r| {
                let w = Arc::clone(&world);
                thread::spawn(move || w.exchange_all(r, vec![r as f64]).unwrap())
            })
            .collect();
        for h in handles {
            let all = h.join().unwrap();
            assert_eq!(all, vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        }
    }

    #[test]
    fn reduce_uses_the_documented_balanced_tree() {
        // Values where the association matters: with three ranks the
        // tree is a ⊕ (b ⊕ c), a linear fold is (a ⊕ b) ⊕ c.
        let contributions: Vec<Vec<f64>> = vec![vec![1.0], vec![1e16], vec![-1e16]];
        let got = reduce(abi::MPI_OP_SUM, &contributions)[0];
        let want: f64 = 1.0 + (1e16 + -1e16); // = 1.0
        assert_eq!(got.to_bits(), want.to_bits());
        let linear: f64 = (1.0 + 1e16) + -1e16; // = 0.0 (the 1.0 is absorbed)
        assert_ne!(got.to_bits(), linear.to_bits(), "tree shape is observable");
    }

    #[test]
    fn reduce_is_arrival_order_independent() {
        // Property: because `exchange_all` deposits by rank, the combine
        // sees contributions in rank order no matter when each rank
        // arrives — every interleaving of 4 ranks produces bit-identical
        // allreduce results on every rank.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let vals: Vec<f64> = (0..4)
            .map(|_| {
                let exp = (next() % 120) as i32 - 60;
                let mant = (next() % 1_000_000) as f64 - 500_000.0;
                mant * 2f64.powi(exp)
            })
            .collect();
        let mut reference: Option<Vec<u64>> = None;
        for trial in 0..8 {
            let world = SimWorld::new(4);
            let handles: Vec<_> = (0..4usize)
                .map(|r| {
                    let w = Arc::clone(&world);
                    let mine = vals[r];
                    // Stagger arrivals differently every trial.
                    let delay = ((r + trial) % 4) as u64;
                    thread::spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                        let all = w.exchange_all(r, vec![mine]).unwrap();
                        reduce(abi::MPI_OP_SUM, &all)[0].to_bits()
                    })
                })
                .collect();
            let bits: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(bits.windows(2).all(|w| w[0] == w[1]), "ranks agree");
            match &reference {
                None => reference = Some(bits),
                Some(want) => assert_eq!(&bits, want, "trial {trial} deviates"),
            }
        }
    }

    #[test]
    fn consecutive_collectives_do_not_mix() {
        let world = SimWorld::new(2);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let w = Arc::clone(&world);
                thread::spawn(move || {
                    let first = w.exchange_all(r, vec![r as f64]).unwrap();
                    let second = w.exchange_all(r, vec![10.0 + r as f64]).unwrap();
                    (first, second)
                })
            })
            .collect();
        for h in handles {
            let (first, second) = h.join().unwrap();
            assert_eq!(first, vec![vec![0.0], vec![1.0]]);
            assert_eq!(second, vec![vec![10.0], vec![11.0]]);
        }
    }

    #[test]
    fn mpi_env_validates_handles() {
        let world = SimWorld::new(1);
        let mut env = MpiEnv::new(world, 0);
        let err = env.call("MPI_Comm_rank", &[RtValue::Int(0)]).unwrap_err();
        assert!(err.to_string().contains("invalid communicator"), "{err}");
        let ok = env.call("MPI_Comm_rank", &[RtValue::Int(abi::MPI_COMM_WORLD)]).unwrap();
        assert!(matches!(ok[0], RtValue::Int(0)));
    }

    #[test]
    fn latency_delays_delivery_without_changing_data() {
        let world = SimWorld::new_with_latency(2, std::time::Duration::from_millis(20));
        world.send(0, 1, 3, vec![4.0, 5.0]);
        // In flight: not yet visible to a nonblocking receive.
        assert!(world.try_recv(1, 0, 3).is_none(), "message still in transit");
        // The blocking receive waits out the latency and gets the exact
        // payload.
        let t0 = std::time::Instant::now();
        assert_eq!(world.recv(1, 0, 3).unwrap(), vec![4.0, 5.0]);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5), "recv waited for delivery");
        assert_eq!(world.total_recv_blocked(), 1);
        assert_eq!(world.total_recv_immediate(), 0);
    }

    #[test]
    fn delivered_messages_complete_receives_immediately() {
        let world = SimWorld::new(2);
        world.send(0, 1, 7, vec![1.0]);
        assert_eq!(world.try_recv(1, 0, 7), Some(vec![1.0]));
        world.send(0, 1, 7, vec![2.0]);
        assert_eq!(world.recv(1, 0, 7).unwrap(), vec![2.0]);
        assert_eq!(world.total_recv_immediate(), 1);
        assert_eq!(world.total_recv_blocked(), 0);
    }

    #[test]
    fn irecv_completes_in_the_background() {
        use crate::value::BufView;
        let world = SimWorld::new(2);
        // The message is already in the mailbox when the receive is
        // posted: the request completes at post time, and MPI_Wait on it
        // never touches the world.
        world.send(1, 0, 5, vec![9.0, 8.0]);
        let mut env = MpiEnv::new(world, 0);
        let buf = BufView::alloc(vec![2]);
        let list = env.call("MPI_Request_alloc", &[RtValue::Int(1)]).unwrap();
        let req = env.call("MPI_Request_get", &[list[0].clone(), RtValue::Int(0)]).unwrap();
        env.call(
            "MPI_Irecv",
            &[
                RtValue::Ptr { data: std::rc::Rc::clone(&buf.data), offset: 0 },
                RtValue::Int(2),
                RtValue::Int(abi::MPI_DOUBLE),
                RtValue::Int(1),
                RtValue::Int(5),
                RtValue::Int(abi::MPI_COMM_WORLD),
                req[0].clone(),
            ],
        )
        .unwrap();
        // Completed in the background: data is in place before any wait.
        assert_eq!(buf.to_vec(), vec![9.0, 8.0]);
        let done = env.call("MPI_Test", &[req[0].clone()]).unwrap();
        assert!(matches!(done[0], RtValue::Int(1)));
        env.call("MPI_Wait", &[req[0].clone()]).unwrap();
        assert_eq!(buf.to_vec(), vec![9.0, 8.0]);
    }

    #[test]
    fn test_polls_pending_receives() {
        use crate::value::BufView;
        let world = SimWorld::new(2);
        let w = Arc::clone(&world);
        let mut env = MpiEnv::new(world, 0);
        let buf = BufView::alloc(vec![1]);
        let list = env.call("MPI_Request_alloc", &[RtValue::Int(1)]).unwrap();
        let req = env.call("MPI_Request_get", &[list[0].clone(), RtValue::Int(0)]).unwrap();
        env.call(
            "MPI_Irecv",
            &[
                RtValue::Ptr { data: std::rc::Rc::clone(&buf.data), offset: 0 },
                RtValue::Int(1),
                RtValue::Int(abi::MPI_DOUBLE),
                RtValue::Int(1),
                RtValue::Int(9),
                RtValue::Int(abi::MPI_COMM_WORLD),
                req[0].clone(),
            ],
        )
        .unwrap();
        let not_done = env.call("MPI_Test", &[req[0].clone()]).unwrap();
        assert!(matches!(not_done[0], RtValue::Int(0)), "nothing sent yet");
        w.send(1, 0, 9, vec![3.5]);
        let done = env.call("MPI_Test", &[req[0].clone()]).unwrap();
        assert!(matches!(done[0], RtValue::Int(1)));
        assert_eq!(buf.to_vec(), vec![3.5]);
    }

    #[test]
    fn volume_accounting() {
        let world = SimWorld::new(2);
        world.send(0, 1, 0, vec![0.0; 100]);
        world.send(1, 0, 0, vec![0.0; 50]);
        assert_eq!(world.total_sent_elements(), 150);
        assert_eq!(world.total_sent_messages(), 2);
    }

    #[test]
    fn dropped_message_is_recoverable_by_rerequest() {
        let plan = Arc::new(FaultPlan::new().with_msg_fault(0, 1, 0, FaultAction::Drop));
        let world = SimWorld::new_with_faults(2, plan);
        world.send(0, 1, 7, vec![1.5, 2.5]);
        assert!(world.try_recv(1, 0, 7).is_none(), "dropped message never arrives");
        let got = world.recv_timeout(1, 0, 7, std::time::Duration::from_millis(10)).unwrap();
        assert_eq!(got, None, "bounded receive times out cleanly");
        assert!(world.rerequest(1, 0, 7), "lost payload is retransmittable");
        assert_eq!(world.recv(1, 0, 7).unwrap(), vec![1.5, 2.5]);
        assert!(!world.rerequest(1, 0, 7), "one loss, one retransmission");
    }

    #[test]
    fn duplicate_and_reorder_faults_perturb_the_channel() {
        let plan = Arc::new(
            FaultPlan::new().with_msg_fault(0, 1, 0, FaultAction::Duplicate).with_msg_fault(
                0,
                1,
                2,
                FaultAction::Reorder,
            ),
        );
        let world = SimWorld::new_with_faults(2, plan);
        world.send(0, 1, 3, vec![1.0]); // duplicated
        world.send(0, 1, 3, vec![2.0]);
        world.send(0, 1, 3, vec![3.0]); // reordered to the head
        assert_eq!(world.recv(1, 0, 3).unwrap(), vec![3.0], "reorder overtakes");
        assert_eq!(world.recv(1, 0, 3).unwrap(), vec![1.0]);
        assert_eq!(world.recv(1, 0, 3).unwrap(), vec![1.0], "duplicate delivered twice");
        assert_eq!(world.recv(1, 0, 3).unwrap(), vec![2.0]);
    }

    #[test]
    fn delay_spike_holds_delivery_without_losing_data() {
        let plan = Arc::new(FaultPlan::new().with_msg_fault(
            0,
            1,
            0,
            FaultAction::DelaySpike { extra_ms: 20 },
        ));
        let world = SimWorld::new_with_faults(2, plan);
        world.send(0, 1, 5, vec![9.0]);
        assert!(world.try_recv(1, 0, 5).is_none(), "spiked message is in flight");
        assert_eq!(world.recv(1, 0, 5).unwrap(), vec![9.0], "arrives after the spike");
    }

    #[test]
    fn poison_unblocks_receives_and_collectives() {
        let world = SimWorld::new(2);
        let w = Arc::clone(&world);
        let recv_side = thread::spawn(move || w.recv(1, 0, 7));
        let w = Arc::clone(&world);
        let coll_side = thread::spawn(move || w.exchange_all(0, vec![1.0]));
        thread::sleep(std::time::Duration::from_millis(20));
        world.poison(1, "injected crash at step 3");
        let recv_err = recv_side.join().unwrap().unwrap_err();
        assert_eq!(
            recv_err,
            MpiError::Poisoned { by_rank: 1, reason: "injected crash at step 3".into() }
        );
        let coll_err = coll_side.join().unwrap().unwrap_err();
        assert!(matches!(coll_err, MpiError::Poisoned { by_rank: 1, .. }), "{coll_err}");
    }

    #[test]
    fn double_deposit_is_a_diagnosis_not_a_panic() {
        let world = SimWorld::new(2);
        let w = Arc::clone(&world);
        let peer = thread::spawn(move || w.exchange_all(1, vec![2.0]));
        let first = world.exchange_all(0, vec![1.0]).unwrap();
        assert_eq!(first, vec![vec![1.0], vec![2.0]]);
        peer.join().unwrap().unwrap();
        // Generation 1: rank 0 deposits, then deposits again before the
        // rendezvous completes.
        let mut st = world.coll.lock();
        st.deposits[0] = Some(vec![7.0]);
        drop(st);
        let err = world.exchange_all(0, vec![8.0]).unwrap_err();
        assert_eq!(err, MpiError::DoubleDeposit { rank: 0, generation: 1 });
        assert!(err.to_string().contains("rank 0"), "diagnosis names the rank");
        assert!(err.to_string().contains("generation 1"), "and the generation");
    }

    #[test]
    fn bounded_collective_names_the_missing_ranks() {
        let plan = Arc::new(FaultPlan::new());
        let world = SimWorld::new_resilient(
            3,
            std::time::Duration::ZERO,
            Tracer::disabled(),
            Some(plan),
            Some(Reliability { collective_timeout_ms: 30, ..Reliability::default() }),
        );
        let w = Arc::clone(&world);
        let peer = thread::spawn(move || w.exchange_all(1, vec![1.0]));
        // Rank 2 never deposits: both waiters time out naming it.
        let err = world.exchange_all(0, vec![0.0]).unwrap_err();
        match err {
            MpiError::CollectiveTimeout { rank: 0, generation: 0, ref missing, .. } => {
                assert_eq!(missing, &vec![2]);
            }
            other => panic!("unexpected error {other}"),
        }
        let peer_err = peer.join().unwrap().unwrap_err();
        assert!(matches!(peer_err, MpiError::CollectiveTimeout { rank: 1, .. }), "{peer_err}");
    }

    #[test]
    fn fault_free_worlds_have_no_resilience_state() {
        let world = SimWorld::new(2);
        assert!(world.fault_plan().is_none());
        assert!(world.reliability().is_none());
        assert!(world.poison_info().is_none());
        world.send(0, 1, 1, vec![1.0]);
        assert_eq!(world.recv(1, 0, 1).unwrap(), vec![1.0]);
    }
}
