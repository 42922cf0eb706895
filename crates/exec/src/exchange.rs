//! The halo-exchange protocol: how one `dmp.swap` travels between ranks.
//!
//! A swap executes as a [`Step::SwapBegin`](crate::Step::SwapBegin) /
//! [`Step::SwapWait`](crate::Step::SwapWait) pair. The begin packs every
//! outgoing slab behind a frame header into a recycled buffer and posts a
//! buffered send; the wait matches each neighbour's frame by its header
//! and unpacks the payload into the halo. A synchronous swap runs the two
//! back to back; an overlapped one runs interior compute between them.
//!
//! **The frame** is `[swap id, sequence, payload…]`: [`FRAME_HEADER`]
//! words, each an exact integer below 2^53 stored as an `f64`. The
//! sequence counts the rounds of one swap (every direction of a round
//! shares it). A wait takes the frame of its own swap and round; a frame
//! of an earlier round is a duplicate and is dropped; a frame of a later
//! round, or of another swap that shares the direction tag, is parked
//! until the wait that expects it. This module is the only code that
//! knows the layout.
//!
//! **Reliability.** A [`Reliability`](sten_interp::Reliability) on the
//! world decides two things, both here. A wait receives with a timeout;
//! on expiry it re-requests a dropped inbound frame, re-sends this rank's
//! own frames of the round (the peer drops the duplicates by sequence),
//! and doubles the timeout, until the retry budget is spent
//! ([`ExecError::SwapTimeout`]). And a begin keeps a copy of every
//! outgoing frame for those re-sends. Without one, a wait blocks in a
//! plain receive and nothing is kept. The wire is the same either way, so
//! a fault plan's per-channel send indices hit the same messages.

use crate::pipeline::{for_each_row, ExecError};
use crate::program::InputDesc;
use crate::step::Swap;
use sten_dmp::decomposition::neighbor_rank;
use sten_interp::SimWorld;
use sten_ir::Bounds;
use sten_mpi::dmp_to_mpi::tag_for_direction;
use sten_trace::{SpanKind, TraceLane};

/// Words of frame header in front of every halo payload: the swap id
/// and the sequence number.
pub const FRAME_HEADER: usize = 2;

/// One rank's exchange state: per-swap scratch, plus the frames that
/// arrived before the wait that expects them.
#[derive(Debug)]
pub(crate) struct Exchange {
    swaps: Vec<SwapScratch>,
    /// Parked frames, shared across swap ids (distinct swaps reuse a
    /// direction's tag, so an early frame can belong to a different swap
    /// than the one waiting).
    stash: Vec<StashedFrame>,
}

/// Persistent per-swap scratch. Message buffers are recycled between the
/// pack side and the unpack side, so the steady state of a timestep loop
/// allocates no message buffer: received frames become the next round's
/// outgoing ones.
#[derive(Clone, Debug, Default)]
struct SwapScratch {
    free: Vec<Vec<f64>>,
    /// Sequence number of the round in flight (0 = nothing sent yet).
    seq: u64,
    /// `(dst, tag, frame)` of the current round, kept for re-sends on a
    /// world with a `Reliability`.
    sent: Vec<(i32, i32, Vec<f64>)>,
}

impl SwapScratch {
    fn take(&mut self, capacity: usize) -> Vec<f64> {
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                v.reserve(capacity);
                v
            }
            None => Vec::with_capacity(capacity),
        }
    }
}

/// A frame received ahead of its wait: a later round overtook the
/// expected one (a reordering fault), or a frame of a different swap
/// sharing the direction tag arrived first.
#[derive(Debug)]
struct StashedFrame {
    src: i32,
    tag: i32,
    swap: u64,
    seq: u64,
    frame: Vec<f64>,
}

impl Exchange {
    /// State for a pipeline with `num_swaps` swaps.
    pub(crate) fn new(num_swaps: usize) -> Exchange {
        Exchange { swaps: vec![SwapScratch::default(); num_swaps], stash: Vec::new() }
    }

    /// Forgets every round in flight. A restore accompanies a fresh world
    /// (rollback discards all in-flight messages), so sequence numbers
    /// restart with it and kept or parked frames are dropped.
    pub(crate) fn reset(&mut self) {
        for s in &mut self.swaps {
            s.seq = 0;
            let kept = std::mem::take(&mut s.sent);
            s.free.extend(kept.into_iter().map(|(_, _, frame)| frame));
        }
        self.stash.clear();
    }

    /// Whether no round is in flight: every sequence at 0, no frame kept
    /// or parked — the state of a fresh exchange.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.stash.is_empty() && self.swaps.iter().all(|s| s.seq == 0 && s.sent.is_empty())
    }

    /// Recycled frames on each swap's free list.
    #[cfg(test)]
    pub(crate) fn free_frames(&self) -> Vec<usize> {
        self.swaps.iter().map(|s| s.free.len()).collect()
    }

    /// Starts round `seq + 1` of swap `id` over `data` (laid out as
    /// `shape`): frames each outgoing slab and posts a buffered send to
    /// every present neighbour. The frames kept from the previous round
    /// are recycled here: its wait completed before this begin runs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin(
        &mut self,
        world: &SimWorld,
        rank: i64,
        id: usize,
        swap: &Swap,
        shape: &[i64],
        data: &[f64],
        lane: &mut TraceLane,
    ) -> Result<(), ExecError> {
        let keep = world.reliability().is_some();
        let scratch = &mut self.swaps[id];
        scratch.seq += 1;
        let kept = std::mem::take(&mut scratch.sent);
        scratch.free.extend(kept.into_iter().map(|(_, _, frame)| frame));
        let desc = InputDesc::new(shape.to_vec(), vec![0; shape.len()]);
        for e in &swap.exchanges {
            let Some(n) = neighbor_rank(rank, &swap.grid, &e.to)? else { continue };
            let send_at = e.send_at();
            let range =
                Bounds::new(send_at.iter().zip(&e.size).map(|(&a, &s)| (a, a + s)).collect());
            let t0 = lane.start();
            let mut frame = scratch.take(FRAME_HEADER + range.num_points().max(0) as usize);
            frame.extend_from_slice(&[id as f64, scratch.seq as f64]);
            for_each_row(&range, |p, len| {
                let s = desc.flat(p) as usize;
                frame.extend_from_slice(&data[s..s + len]);
            });
            let bytes = 8 * (frame.len() - FRAME_HEADER) as u64;
            lane.span(t0, || SpanKind::Pack { dir: e.to.clone(), bytes });
            let tag = tag_for_direction(&e.to) as i32;
            if keep {
                // The copy on the wire comes from the free list too: each
                // round returns two frames per neighbour (the kept one and
                // the received one), so it must take two.
                let mut copy = scratch.take(frame.len());
                copy.extend_from_slice(&frame);
                world.send(rank as i32, n as i32, tag, copy);
                scratch.sent.push((n as i32, tag, frame));
            } else {
                world.send(rank as i32, n as i32, tag, frame);
            }
        }
        Ok(())
    }

    /// Completes the round of swap `id` that the last [`Exchange::begin`]
    /// started: takes every present neighbour's frame of that round and
    /// unpacks its payload into the halo slabs of `data`. Drained frames
    /// are recycled for the next begin.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wait(
        &mut self,
        world: &SimWorld,
        rank: i64,
        id: usize,
        swap: &Swap,
        shape: &[i64],
        data: &mut [f64],
        lane: &mut TraceLane,
    ) -> Result<(), ExecError> {
        let desc = InputDesc::new(shape.to_vec(), vec![0; shape.len()]);
        for e in &swap.exchanges {
            let Some(n) = neighbor_rank(rank, &swap.grid, &e.to)? else { continue };
            let neg: Vec<i64> = e.to.iter().map(|t| -t).collect();
            let tag = tag_for_direction(&neg) as i32;
            let frame = self.receive(world, rank, id, n as i32, tag)?;
            let range = Bounds::new(e.at.iter().zip(&e.size).map(|(&a, &s)| (a, a + s)).collect());
            let payload = &frame[FRAME_HEADER..];
            if payload.len() != range.num_points().max(0) as usize {
                return Err(ExecError::Exec(format!(
                    "halo message of {} elements does not match the {}-element receive region",
                    payload.len(),
                    range.num_points().max(0)
                )));
            }
            let t0 = lane.start();
            let mut at = 0usize;
            for_each_row(&range, |p, len| {
                let d = desc.flat(p) as usize;
                data[d..d + len].copy_from_slice(&payload[at..at + len]);
                at += len;
            });
            let bytes = 8 * payload.len() as u64;
            lane.span(t0, || SpanKind::Unpack { dir: e.to.clone(), bytes });
            self.swaps[id].free.push(frame);
        }
        Ok(())
    }

    /// The frame of swap `id`'s current round from `src` on `tag`: parked
    /// by an earlier wait, or received now. How a receive waits is the
    /// world's [`Reliability`](sten_interp::Reliability) (see the module
    /// docs).
    fn receive(
        &mut self,
        world: &SimWorld,
        rank: i64,
        id: usize,
        src: i32,
        tag: i32,
    ) -> Result<Vec<f64>, ExecError> {
        let Exchange { swaps, stash } = self;
        let scratch = &mut swaps[id];
        let (me, swap, seq) = (rank as i32, id as u64, scratch.seq);
        let rel = world.reliability();
        let mut timeout_ms = rel.map_or(0, |r| r.swap_timeout_ms.max(1));
        let (mut attempts, mut waited_ms) = (0u32, 0u64);
        let frame = loop {
            let parked =
                |s: &StashedFrame| s.src == src && s.tag == tag && s.swap == swap && s.seq == seq;
            if let Some(pos) = stash.iter().position(parked) {
                break stash.swap_remove(pos).frame;
            }
            let frame = match rel {
                None => world.recv(me, src, tag)?,
                Some(rel) => {
                    let timeout = std::time::Duration::from_millis(timeout_ms);
                    let Some(frame) = world.recv_timeout(me, src, tag, timeout)? else {
                        attempts += 1;
                        waited_ms += timeout_ms;
                        if attempts > rel.max_retries {
                            return Err(ExecError::SwapTimeout {
                                rank,
                                swap: id,
                                neighbor: src as i64,
                                tag,
                                attempts: attempts - 1,
                                waited_ms,
                            });
                        }
                        world.tracer().record_instant(rank.max(0) as u32, 0, || SpanKind::Retry {
                            target: format!("swap#{id} ← rank {src} tag {tag}"),
                            attempt: attempts,
                        });
                        world.rerequest(me, src, tag);
                        for (dst, t, frame) in &scratch.sent {
                            world.send(me, *dst, *t, frame.clone());
                        }
                        timeout_ms = timeout_ms.saturating_mul(2);
                        continue;
                    };
                    frame
                }
            };
            let Some((fswap, fseq)) = header(&frame) else {
                return Err(ExecError::Exec(format!(
                    "rank {rank}: halo frame from rank {src} tag {tag} has no valid [swap, seq] \
                     header: {:?}",
                    &frame[..frame.len().min(FRAME_HEADER)]
                )));
            };
            if fswap == swap && fseq == seq {
                break frame;
            } else if fswap == swap && fseq < seq {
                // A duplicate of a completed round (a duplication fault
                // or a redundant re-send).
                scratch.free.push(frame);
            } else {
                stash.push(StashedFrame { src, tag, swap: fswap, seq: fseq, frame });
            }
        };
        // A consumed round makes every parked frame at or below its
        // sequence stale: drop them so duplicates cannot accumulate.
        stash.retain(|s| !(s.src == src && s.tag == tag && s.swap == swap && s.seq <= seq));
        Ok(frame)
    }
}

/// A frame's `(swap, seq)` header. `None` when the frame is shorter than
/// a header or a header word is not an exact integer in `0..2^53`: an
/// `as u64` cast alone would read `-1.0`, `NaN` and `0.5` as 0.
fn header(frame: &[f64]) -> Option<(u64, u64)> {
    const LIMIT: f64 = (1u64 << 53) as f64;
    let word = |w: f64| ((0.0..LIMIT).contains(&w) && w.fract() == 0.0).then_some(w as u64);
    match frame {
        [swap, seq, ..] => Some((word(*swap)?, word(*seq)?)),
        _ => None,
    }
}
