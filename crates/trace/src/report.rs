//! Aggregated text report over a recorded trace: per-run comm-exposed vs
//! comm-hidden time, overlap efficiency, per-direction halo bytes, and
//! the pack/unpack vs compute ratio.
//!
//! *Comm-hidden* time is the part of each swap's in-flight window —
//! from the end of its `SwapBegin` (sends posted) to the end of the
//! matching `SwapWait` (halos landed) — that the rank spent inside
//! `Apply` spans, i.e. transit time covered by useful compute.
//! *Comm-exposed* time is what blocking receives actually stalled for
//! (the duration of `blocked` [`SpanKind::MsgRecv`] spans). On a
//! synchronous pipeline every apply runs after the wait completes, so
//! hidden time is structurally zero; the overlapped pipeline's interior
//! apply sits inside the window and shows up as hidden time.

use std::collections::HashMap;
use std::fmt;

use crate::{Event, SpanKind};

/// Aggregates computed from a trace (see [`TraceReport::from_events`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Distinct rank pids that recorded executor or message events.
    pub ranks: usize,
    /// Max timesteps recorded by any rank.
    pub timesteps: u64,
    /// Total time inside `Apply` spans, all ranks.
    pub compute_ns: u64,
    /// Total time inside `Pack`/`Unpack` spans, all ranks.
    pub pack_unpack_ns: u64,
    /// Total time blocking receives stalled for delivery.
    pub comm_exposed_ns: u64,
    /// Total apply time spent inside swap in-flight windows.
    pub comm_hidden_ns: u64,
    /// Messages deposited into mailboxes.
    pub msgs_sent: u64,
    /// Total message payload bytes.
    pub bytes_sent: u64,
    /// Receives that found their message already delivered.
    pub recv_immediate: u64,
    /// Receives that had to block for delivery.
    pub recv_blocked: u64,
    /// Total time folding local reduction partials (`Reduce{partial}`).
    pub reduce_partial_ns: u64,
    /// Total time in allreduce rendezvous (`Reduce{allreduce}`): exchange
    /// plus the wait for the slowest rank's contribution.
    pub reduce_wait_ns: u64,
    /// Allreduce rendezvous completed (counted across all ranks).
    pub allreduces: u64,
    /// Per rank pid that folded a reduction, the blocks that escaped the
    /// exact sum's vector stage (`Reduce::escaped`), sorted by pid.
    pub reduce_escaped_by_rank: Vec<(u32, u64)>,
    /// Packed halo payload per exchange direction, sorted by direction.
    pub halo_bytes_by_direction: Vec<(Vec<i64>, u64)>,
    /// Faults injected by the fault plan, by kind (sorted by name).
    pub faults_by_kind: Vec<(&'static str, u64)>,
    /// Timed-out exchanges that were re-requested.
    pub retries: u64,
    /// Checkpoint snapshots taken (across all ranks).
    pub checkpoints: u64,
    /// Total time inside checkpoint spans.
    pub checkpoint_ns: u64,
    /// Cohort rollbacks to a checkpoint.
    pub recoveries: u64,
    /// Total time inside recovery spans (respawn + restore).
    pub recovery_ns: u64,
}

/// Sums the intersection of `spans` with the merged `windows` (both as
/// `(start, end)` interval lists; `windows` must be sorted and disjoint).
fn overlap_ns(windows: &[(u64, u64)], spans: &[(u64, u64)]) -> u64 {
    let mut total = 0;
    for &(s0, s1) in spans {
        for &(w0, w1) in windows {
            let lo = s0.max(w0);
            let hi = s1.min(w1);
            if hi > lo {
                total += hi - lo;
            }
        }
    }
    total
}

/// Merges an interval list into sorted, disjoint intervals.
fn merge(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (start, end) in intervals {
        match out.last_mut() {
            Some((_, prev_end)) if start <= *prev_end => *prev_end = (*prev_end).max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

impl TraceReport {
    /// Computes every aggregate from a merged event list (as returned by
    /// [`crate::Tracer::events`]). Compiler-pass spans are ignored.
    pub fn from_events(events: &[Event]) -> TraceReport {
        let mut report = TraceReport::default();
        let mut rank_pids: Vec<u32> = Vec::new();
        let mut timesteps_by_pid: HashMap<u32, u64> = HashMap::new();
        // Per pid: swap id → (begin spans, wait spans), in start order
        // (events come pre-sorted by start time).
        type SwapPairs = HashMap<usize, (Vec<(u64, u64)>, Vec<(u64, u64)>)>;
        let mut swaps_by_pid: HashMap<u32, SwapPairs> = HashMap::new();
        let mut applies_by_pid: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        let mut halo: HashMap<Vec<i64>, u64> = HashMap::new();
        let mut escaped_by_pid: HashMap<u32, u64> = HashMap::new();

        for e in events {
            match &e.kind {
                SpanKind::Pass { .. } => continue,
                _ => {
                    if !rank_pids.contains(&e.pid) {
                        rank_pids.push(e.pid);
                    }
                }
            }
            match &e.kind {
                SpanKind::Timestep { .. } => {
                    *timesteps_by_pid.entry(e.pid).or_insert(0) += 1;
                }
                SpanKind::Apply { .. } => {
                    report.compute_ns += e.dur_ns;
                    applies_by_pid.entry(e.pid).or_default().push((e.start_ns, e.end_ns()));
                }
                SpanKind::SwapBegin { swap, .. } => {
                    swaps_by_pid
                        .entry(e.pid)
                        .or_default()
                        .entry(*swap)
                        .or_default()
                        .0
                        .push((e.start_ns, e.end_ns()));
                }
                SpanKind::SwapWait { swap } => {
                    swaps_by_pid
                        .entry(e.pid)
                        .or_default()
                        .entry(*swap)
                        .or_default()
                        .1
                        .push((e.start_ns, e.end_ns()));
                }
                SpanKind::Pack { dir, bytes } => {
                    report.pack_unpack_ns += e.dur_ns;
                    *halo.entry(dir.clone()).or_insert(0) += bytes;
                }
                SpanKind::Unpack { .. } => report.pack_unpack_ns += e.dur_ns,
                SpanKind::MsgSend { bytes, .. } => {
                    report.msgs_sent += 1;
                    report.bytes_sent += bytes;
                }
                SpanKind::MsgRecv { blocked, .. } => {
                    if *blocked {
                        report.recv_blocked += 1;
                        report.comm_exposed_ns += e.dur_ns;
                    } else {
                        report.recv_immediate += 1;
                    }
                }
                SpanKind::Reduce { phase, escaped, .. } => {
                    if *phase == "allreduce" {
                        report.reduce_wait_ns += e.dur_ns;
                        report.allreduces += 1;
                    } else {
                        report.reduce_partial_ns += e.dur_ns;
                        *escaped_by_pid.entry(e.pid).or_insert(0) += u64::from(*escaped);
                    }
                }
                SpanKind::Fault { fault, .. } => {
                    match report.faults_by_kind.iter_mut().find(|(k, _)| k == fault) {
                        Some((_, n)) => *n += 1,
                        None => report.faults_by_kind.push((fault, 1)),
                    }
                }
                SpanKind::Retry { .. } => report.retries += 1,
                SpanKind::Checkpoint { .. } => {
                    report.checkpoints += 1;
                    report.checkpoint_ns += e.dur_ns;
                }
                SpanKind::Recovery { .. } => {
                    report.recoveries += 1;
                    report.recovery_ns += e.dur_ns;
                }
                SpanKind::Pass { .. } | SpanKind::Copy { .. } | SpanKind::Task => {}
            }
        }

        report.ranks = rank_pids.len();
        report.timesteps = timesteps_by_pid.values().copied().max().unwrap_or(0);

        // Comm-hidden: per pid, the k-th begin of a swap id pairs with
        // the k-th wait; the in-flight window runs from the begin's end
        // (sends posted) to the wait's end (halos landed). Windows merge
        // before intersecting so a shared interior apply is not counted
        // once per swap.
        for (pid, swaps) in &swaps_by_pid {
            let mut windows = Vec::new();
            for (begins, waits) in swaps.values() {
                for (b, w) in begins.iter().zip(waits) {
                    if w.1 > b.1 {
                        windows.push((b.1, w.1));
                    }
                }
            }
            let windows = merge(windows);
            if let Some(applies) = applies_by_pid.get(pid) {
                report.comm_hidden_ns += overlap_ns(&windows, applies);
            }
        }

        report.halo_bytes_by_direction = halo.into_iter().collect();
        report.halo_bytes_by_direction.sort();
        report.faults_by_kind.sort();
        report.reduce_escaped_by_rank = escaped_by_pid.into_iter().collect();
        report.reduce_escaped_by_rank.sort();
        report
    }

    /// Fraction of communication time covered by compute:
    /// `hidden / (hidden + exposed)`; 0 when no communication occurred.
    pub fn overlap_efficiency(&self) -> f64 {
        let total = self.comm_hidden_ns + self.comm_exposed_ns;
        if total == 0 {
            0.0
        } else {
            self.comm_hidden_ns as f64 / total as f64
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace report: {} ranks, {} timesteps", self.ranks, self.timesteps)?;
        writeln!(f, "  compute            {:>10.3} ms", ms(self.compute_ns))?;
        let pack_pct = if self.compute_ns == 0 {
            0.0
        } else {
            100.0 * self.pack_unpack_ns as f64 / self.compute_ns as f64
        };
        writeln!(
            f,
            "  pack/unpack        {:>10.3} ms  ({pack_pct:.1}% of compute)",
            ms(self.pack_unpack_ns)
        )?;
        writeln!(f, "  comm hidden        {:>10.3} ms", ms(self.comm_hidden_ns))?;
        writeln!(f, "  comm exposed       {:>10.3} ms", ms(self.comm_exposed_ns))?;
        writeln!(f, "  overlap efficiency {:>9.1}%", 100.0 * self.overlap_efficiency())?;
        writeln!(f, "  messages sent      {:>10}  ({} bytes)", self.msgs_sent, self.bytes_sent)?;
        writeln!(
            f,
            "  recvs              immediate {}, blocked {}",
            self.recv_immediate, self.recv_blocked
        )?;
        if self.allreduces > 0 || self.reduce_partial_ns > 0 {
            writeln!(
                f,
                "  reductions         partial {:.3} ms, allreduce wait {:.3} ms ({} allreduces)",
                ms(self.reduce_partial_ns),
                ms(self.reduce_wait_ns),
                self.allreduces
            )?;
            let escaped: Vec<String> = self
                .reduce_escaped_by_rank
                .iter()
                .map(|(pid, blocks)| format!("rank {pid}: {blocks}"))
                .collect();
            writeln!(f, "    escaped blocks   {}", escaped.join(", "))?;
        }
        if !self.halo_bytes_by_direction.is_empty() {
            writeln!(f, "  halo bytes by direction:")?;
            for (dir, bytes) in &self.halo_bytes_by_direction {
                writeln!(f, "    {dir:?}  {bytes}")?;
            }
        }
        if !self.faults_by_kind.is_empty() {
            let total: u64 = self.faults_by_kind.iter().map(|(_, n)| n).sum();
            let kinds: Vec<String> =
                self.faults_by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
            writeln!(f, "  faults injected    {:>10}  ({})", total, kinds.join(", "))?;
        }
        if self.retries > 0 {
            writeln!(f, "  retries            {:>10}", self.retries)?;
        }
        if self.checkpoints > 0 {
            writeln!(
                f,
                "  checkpoints        {:>10}  ({:.3} ms)",
                self.checkpoints,
                ms(self.checkpoint_ns)
            )?;
        }
        if self.recoveries > 0 {
            writeln!(
                f,
                "  recoveries         {:>10}  ({:.3} ms)",
                self.recoveries,
                ms(self.recovery_ns)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pid: u32, start: u64, end: u64, kind: SpanKind) -> Event {
        Event { pid, tid: 0, start_ns: start, dur_ns: end - start, kind }
    }

    fn apply(pid: u32, start: u64, end: u64, region: &str) -> Event {
        span(
            pid,
            start,
            end,
            SpanKind::Apply { tier: "eval", region: region.to_string(), points: 1 },
        )
    }

    #[test]
    fn overlapped_pipeline_shows_hidden_time() {
        // begin [0,100], interior apply [100,600], wait [600,700],
        // boundary apply [700,800]: window = [100,700], hidden = 500.
        let events = vec![
            span(0, 0, 100, SpanKind::SwapBegin { swap: 0, bytes: 80 }),
            apply(0, 100, 600, "interior"),
            span(0, 600, 700, SpanKind::SwapWait { swap: 0 }),
            span(
                0,
                610,
                690,
                SpanKind::MsgRecv { src: 1, dst: 0, tag: 3, bytes: 80, blocked: true },
            ),
            apply(0, 700, 800, "boundary[1]"),
            span(0, 0, 800, SpanKind::Timestep { index: 0 }),
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.ranks, 1);
        assert_eq!(r.timesteps, 1);
        assert_eq!(r.compute_ns, 600);
        assert_eq!(r.comm_hidden_ns, 500);
        assert_eq!(r.comm_exposed_ns, 80);
        assert_eq!(r.recv_blocked, 1);
        let eff = r.overlap_efficiency();
        assert!((eff - 500.0 / 580.0).abs() < 1e-9, "efficiency {eff}");
        assert!(format!("{r}").contains("overlap efficiency"));
    }

    #[test]
    fn sync_pipeline_has_zero_hidden_time() {
        // begin [0,100], wait [100,300], apply [300,800]: the apply
        // starts after the window closes, so nothing is hidden.
        let events = vec![
            span(0, 0, 100, SpanKind::SwapBegin { swap: 0, bytes: 80 }),
            span(0, 100, 300, SpanKind::SwapWait { swap: 0 }),
            apply(0, 300, 800, ""),
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.comm_hidden_ns, 0);
        assert_eq!(r.overlap_efficiency(), 0.0);
    }

    #[test]
    fn overlapping_swap_windows_do_not_double_count() {
        // Two swaps in flight across the same interior apply [200,700]:
        // windows [100,600] and [150,650] merge to [100,650] → 450.
        let events = vec![
            span(0, 0, 100, SpanKind::SwapBegin { swap: 0, bytes: 8 }),
            span(0, 100, 150, SpanKind::SwapBegin { swap: 1, bytes: 8 }),
            apply(0, 200, 700, "interior"),
            span(0, 590, 600, SpanKind::SwapWait { swap: 0 }),
            span(0, 640, 650, SpanKind::SwapWait { swap: 1 }),
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.comm_hidden_ns, 450);
    }

    #[test]
    fn reduce_spans_aggregate_by_phase() {
        let reduce =
            |phase, bytes, parts, escaped| SpanKind::Reduce { phase, bytes, parts, escaped };
        let events = vec![
            span(0, 0, 100, reduce("partial", 1024, 2, 3)),
            span(0, 100, 250, reduce("allreduce", 552, 4, 0)),
            span(1, 0, 80, reduce("partial", 1024, 2, 0)),
            span(0, 250, 300, reduce("partial", 1024, 2, 4)),
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.reduce_partial_ns, 230);
        assert_eq!(r.reduce_wait_ns, 150);
        assert_eq!(r.allreduces, 1);
        assert_eq!(r.reduce_escaped_by_rank, vec![(0, 7), (1, 0)]);
        let text = format!("{r}");
        assert!(text.contains("allreduce wait"));
        assert!(text.contains("escaped blocks   rank 0: 7, rank 1: 0"), "{text}");
    }

    #[test]
    fn halo_bytes_group_by_direction_and_sends_total() {
        let events = vec![
            span(0, 0, 10, SpanKind::Pack { dir: vec![1, 0], bytes: 64 }),
            span(0, 20, 30, SpanKind::Pack { dir: vec![-1, 0], bytes: 64 }),
            span(1, 5, 15, SpanKind::Pack { dir: vec![1, 0], bytes: 64 }),
            span(0, 40, 50, SpanKind::Unpack { dir: vec![1, 0], bytes: 64 }),
            Event {
                pid: 0,
                tid: 0,
                start_ns: 11,
                dur_ns: 0,
                kind: SpanKind::MsgSend { src: 0, dst: 1, tag: 2, bytes: 64, latency_us: 0 },
            },
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.halo_bytes_by_direction, vec![(vec![-1, 0], 64), (vec![1, 0], 128)]);
        assert_eq!(r.msgs_sent, 1);
        assert_eq!(r.bytes_sent, 64);
        assert_eq!(r.pack_unpack_ns, 40);
        assert_eq!(r.ranks, 2);
    }
}
