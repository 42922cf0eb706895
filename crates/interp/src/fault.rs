//! Deterministic fault injection for the SimMPI runtime.
//!
//! A [`FaultPlan`] is a *schedule* of faults, fixed before the run
//! starts, so an injected failure is exactly reproducible: message
//! faults key on the per-channel message index (the `index`-th message
//! sent from `src` to `dst`, which is deterministic because each rank
//! is one thread sending in program order), and rank faults key on the
//! (rank, timestep) pair. Thread interleaving cannot perturb which
//! message gets injured.
//!
//! Every fault fires **once**: the plan carries a fired flag per entry,
//! shared across world re-creations (the resilient driver reuses the
//! same `Arc<FaultPlan>` after a rollback), which guarantees forward
//! progress — a crash that already fired cannot re-kill the respawned
//! cohort when it replays the same steps.

use std::sync::atomic::{AtomicBool, Ordering};

/// What a scheduled fault does to its target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The message never arrives: its payload moves to the world's lost
    /// store, recoverable through [`rerequest`] (the model of a
    /// link-layer retransmission after a receiver-side timeout).
    ///
    /// [`rerequest`]: crate::SimWorld::rerequest
    Drop,
    /// The message is delivered twice (idempotent receivers must
    /// suppress the duplicate).
    Duplicate,
    /// The message jumps to the head of its channel queue, overtaking
    /// any older undelivered messages.
    Reorder,
    /// Delivery is delayed by `extra_ms` on top of the world's latency.
    DelaySpike {
        /// Extra in-flight time in milliseconds.
        extra_ms: u64,
    },
    /// The rank sleeps `for_ms` at the top of the step (a slow node; the
    /// run must still complete, possibly after peers time out and
    /// retry).
    RankStall {
        /// Stall duration in milliseconds.
        for_ms: u64,
    },
    /// The rank aborts at the top of the step with a typed error,
    /// poisoning the cohort; the resilient driver respawns it and rolls
    /// everyone back to the last consistent checkpoint.
    RankCrash,
}

impl FaultAction {
    /// Stable kind name (trace event labels, report keys).
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::Drop => "drop",
            FaultAction::Duplicate => "duplicate",
            FaultAction::Reorder => "reorder",
            FaultAction::DelaySpike { .. } => "delay-spike",
            FaultAction::RankStall { .. } => "rank-stall",
            FaultAction::RankCrash => "rank-crash",
        }
    }
}

/// A fault scheduled on the `msg_index`-th message (0-based, counting
/// every tag) of the `src → dst` channel.
#[derive(Clone, Debug)]
pub struct MsgFault {
    /// Sending rank.
    pub src: i32,
    /// Receiving rank.
    pub dst: i32,
    /// 0-based index into the channel's send sequence.
    pub msg_index: u64,
    /// What happens to that message.
    pub action: FaultAction,
}

/// A fault scheduled when `rank` reaches the top of timestep `at_step`.
#[derive(Clone, Debug)]
pub struct RankFault {
    /// Target rank.
    pub rank: i32,
    /// 0-based timestep at which the fault fires.
    pub at_step: u64,
    /// What happens to the rank ([`FaultAction::RankStall`] or
    /// [`FaultAction::RankCrash`]).
    pub action: FaultAction,
}

/// A seeded, schedulable fault model. Build one explicitly with
/// [`FaultPlan::new`] + the `with_*` methods, or draw a random schedule
/// with [`FaultPlan::random`]; attach it via
/// [`SimWorld::new_with_faults`](crate::SimWorld::new_with_faults).
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    msg_faults: Vec<MsgFault>,
    rank_faults: Vec<RankFault>,
    fired_msg: Vec<AtomicBool>,
    fired_rank: Vec<AtomicBool>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a message fault.
    #[must_use]
    pub fn with_msg_fault(
        mut self,
        src: i32,
        dst: i32,
        msg_index: u64,
        action: FaultAction,
    ) -> FaultPlan {
        debug_assert!(!matches!(action, FaultAction::RankStall { .. } | FaultAction::RankCrash));
        self.msg_faults.push(MsgFault { src, dst, msg_index, action });
        self.fired_msg.push(AtomicBool::new(false));
        self
    }

    /// Schedules a rank fault.
    #[must_use]
    pub fn with_rank_fault(mut self, rank: i32, at_step: u64, action: FaultAction) -> FaultPlan {
        debug_assert!(matches!(action, FaultAction::RankStall { .. } | FaultAction::RankCrash));
        self.rank_faults.push(RankFault { rank, at_step, action });
        self.fired_rank.push(AtomicBool::new(false));
        self
    }

    /// Draws a random schedule of `faults` faults for a run of `ranks`
    /// ranks over `steps` timesteps. Deterministic in `seed`. Message
    /// indices are drawn from a small range so they land on traffic that
    /// actually occurs; at most one crash is scheduled (the recovery
    /// path is exercised without demanding an unbounded retry budget).
    pub fn random(seed: u64, ranks: usize, steps: u64, faults: usize) -> FaultPlan {
        let mut plan = FaultPlan { seed, ..FaultPlan::default() };
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            // xorshift64* — matches the repo's test RNG.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            state
        };
        let ranks = ranks.max(2) as u64;
        let mut crashes = 0;
        for _ in 0..faults {
            let roll = next() % 100;
            let src = (next() % ranks) as i32;
            let dst = {
                let mut d = (next() % ranks) as i32;
                if d == src {
                    d = (d + 1) % ranks as i32;
                }
                d
            };
            // Early indices: each neighbor pair exchanges a handful of
            // messages per step, so small indices hit real traffic.
            let msg_index = next() % (2 * steps.max(1));
            let at_step = next() % steps.max(1);
            if roll < 30 {
                plan = plan.with_msg_fault(src, dst, msg_index, FaultAction::Drop);
            } else if roll < 50 {
                plan = plan.with_msg_fault(src, dst, msg_index, FaultAction::Duplicate);
            } else if roll < 65 {
                plan = plan.with_msg_fault(src, dst, msg_index, FaultAction::Reorder);
            } else if roll < 80 {
                let extra_ms = 1 + next() % 20;
                plan =
                    plan.with_msg_fault(src, dst, msg_index, FaultAction::DelaySpike { extra_ms });
            } else if roll < 90 || crashes > 0 {
                let for_ms = 1 + next() % 30;
                plan = plan.with_rank_fault(src, at_step, FaultAction::RankStall { for_ms });
            } else {
                crashes += 1;
                plan = plan.with_rank_fault(src, at_step, FaultAction::RankCrash);
            }
        }
        plan
    }

    /// The seed this plan was drawn from (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan schedules any [`FaultAction::RankCrash`].
    pub fn has_crash(&self) -> bool {
        self.rank_faults.iter().any(|f| f.action == FaultAction::RankCrash)
    }

    /// Total faults scheduled.
    pub fn len(&self) -> usize {
        self.msg_faults.len() + self.rank_faults.len()
    }

    /// Whether no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every scheduled action (message faults first, then rank faults).
    pub fn actions(&self) -> impl Iterator<Item = &FaultAction> {
        self.msg_faults.iter().map(|f| &f.action).chain(self.rank_faults.iter().map(|f| &f.action))
    }

    /// Consulted by [`SimWorld::send`](crate::SimWorld::send): the
    /// action to apply to the `index`-th message on `src → dst`, if an
    /// unfired fault matches. Fire-once: a second call with the same
    /// coordinates returns `None`.
    pub fn on_send(&self, src: i32, dst: i32, index: u64) -> Option<FaultAction> {
        for (i, f) in self.msg_faults.iter().enumerate() {
            if f.src == src
                && f.dst == dst
                && f.msg_index == index
                && self.fired_msg[i]
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(f.action.clone());
            }
        }
        None
    }

    /// Consulted by the executor at the top of each timestep: the action
    /// to apply when `rank` starts `step`, if an unfired fault matches.
    /// Fire-once across rollbacks (the respawned cohort replays the same
    /// steps without re-triggering).
    pub fn on_step(&self, rank: i32, step: u64) -> Option<FaultAction> {
        for (i, f) in self.rank_faults.iter().enumerate() {
            if f.rank == rank
                && f.at_step == step
                && self.fired_rank[i]
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(f.action.clone());
            }
        }
        None
    }
}

/// Timeout/retry knobs for halo exchanges. Attached to a world by
/// [`SimWorld::new_with_faults`](crate::SimWorld::new_with_faults) (or
/// explicitly via
/// [`SimWorld::new_resilient`](crate::SimWorld::new_resilient)). The
/// wire format is the same with or without one: it only arms receive
/// timeouts with re-request and re-send, and makes senders keep a copy
/// of each frame for those re-sends. Without one, a receive blocks.
#[derive(Clone, Debug)]
pub struct Reliability {
    /// Initial per-wait timeout for a halo receive, milliseconds. Each
    /// retry doubles it (bounded exponential backoff).
    pub swap_timeout_ms: u64,
    /// Retry budget per receive; exhausting it is a typed error.
    pub max_retries: u32,
    /// Total wait budget for a collective rendezvous, milliseconds.
    pub collective_timeout_ms: u64,
}

impl Default for Reliability {
    fn default() -> Reliability {
        Reliability { swap_timeout_ms: 40, max_retries: 6, collective_timeout_ms: 4000 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::new().with_msg_fault(0, 1, 2, FaultAction::Drop).with_rank_fault(
            1,
            3,
            FaultAction::RankCrash,
        );
        assert_eq!(plan.on_send(0, 1, 1), None, "index mismatch");
        assert_eq!(plan.on_send(1, 0, 2), None, "channel mismatch");
        assert_eq!(plan.on_send(0, 1, 2), Some(FaultAction::Drop));
        assert_eq!(plan.on_send(0, 1, 2), None, "fire-once");
        assert_eq!(plan.on_step(1, 2), None);
        assert_eq!(plan.on_step(1, 3), Some(FaultAction::RankCrash));
        assert_eq!(plan.on_step(1, 3), None, "crash cannot refire after rollback");
    }

    #[test]
    fn random_plans_are_deterministic_in_the_seed() {
        let a = FaultPlan::random(42, 4, 10, 8);
        let b = FaultPlan::random(42, 4, 10, 8);
        assert_eq!(a.len(), 8);
        assert_eq!(format!("{:?}", a.msg_faults), format!("{:?}", b.msg_faults));
        assert_eq!(format!("{:?}", a.rank_faults), format!("{:?}", b.rank_faults));
        let c = FaultPlan::random(43, 4, 10, 8);
        assert_ne!(
            format!("{:?}", (&a.msg_faults, &a.rank_faults)),
            format!("{:?}", (&c.msg_faults, &c.rank_faults)),
            "different seeds draw different schedules"
        );
    }

    #[test]
    fn random_plans_schedule_at_most_one_crash() {
        for seed in 0..64 {
            let plan = FaultPlan::random(seed, 4, 8, 12);
            let crashes =
                plan.rank_faults.iter().filter(|f| f.action == FaultAction::RankCrash).count();
            assert!(crashes <= 1, "seed {seed} scheduled {crashes} crashes");
        }
    }
}
