//! Folds the program's own trace events (the existing `sten-trace`
//! spans; no span is added for the benchmark) into per-layer numbers.
//! Times are microseconds per op per rank.

use std::collections::HashMap;

use stencil_core::trace::{Event, SpanKind, TraceReport};

use crate::harness::Metrics;
use crate::stats::median;

/// `ops` is how many ops the events cover, `ranks` the rank threads
/// that recorded them.
fn add(ns: &mut HashMap<&'static str, u64>, key: &'static str, dur: u64) {
    *ns.entry(key).or_insert(0) += dur;
}

pub fn fold(events: &[Event], ops: f64, ranks: usize, out: &mut Metrics) {
    let per = 1e-3 / (ops.max(1e-9) * ranks as f64); // ns total → µs per op per rank
    let mut ns: HashMap<&'static str, u64> = HashMap::new();
    let (mut apply_points, mut lower_points, mut reduce_points) = (0u64, 0u64, 0u64);
    let (mut ckpt_bytes, mut ckpts, mut blocked_recvs) = (0u64, 0u64, 0u64);
    let mut task_us: Vec<f64> = Vec::new();
    // Main-lane applies and pool tasks, per rank, for the imbalance.
    let mut applies: Vec<(u32, u64, u64)> = Vec::new();
    let mut tasks: Vec<(u32, u64, u64)> = Vec::new();
    // Sends and blocked receives per (src, dst, tag), in order.
    type Channel = (i32, i32, i32);
    let mut sends: HashMap<Channel, Vec<(u64, u64)>> = HashMap::new();
    let mut recvs: HashMap<Channel, Vec<(u64, bool)>> = HashMap::new();

    for e in events {
        match &e.kind {
            SpanKind::Timestep { .. } => add(&mut ns, "timestep", e.dur_ns),
            SpanKind::Apply { tier, region, points } => {
                add(
                    &mut ns,
                    match region.trim_end() {
                        "" => "apply_full",
                        "interior" => "apply_interior",
                        _ => "apply_boundary",
                    },
                    e.dur_ns,
                );
                apply_points += (*points).max(0) as u64;
                if *tier != "template-jit" {
                    add(&mut ns, "apply_lower_tier", e.dur_ns);
                    lower_points += (*points).max(0) as u64;
                }
                applies.push((e.pid, e.start_ns, e.end_ns()));
            }
            SpanKind::SwapBegin { .. } => add(&mut ns, "swap_begin", e.dur_ns),
            SpanKind::SwapWait { .. } => add(&mut ns, "swap_wait", e.dur_ns),
            SpanKind::Copy { .. } => add(&mut ns, "copy", e.dur_ns),
            SpanKind::Pack { .. } => add(&mut ns, "pack", e.dur_ns),
            SpanKind::Unpack { .. } => add(&mut ns, "unpack", e.dur_ns),
            SpanKind::Reduce { phase, bytes, .. } => {
                if *phase == "partial" {
                    add(&mut ns, "reduce_partial", e.dur_ns);
                    reduce_points += bytes / 8;
                } else {
                    add(&mut ns, "reduce_wait", e.dur_ns);
                }
            }
            SpanKind::Task => {
                task_us.push(e.dur_ns as f64 / 1e3);
                tasks.push((e.pid, e.start_ns, e.dur_ns));
            }
            SpanKind::Checkpoint { bytes, .. } => {
                add(&mut ns, "ckpt", e.dur_ns);
                ckpt_bytes += bytes;
                ckpts += 1;
            }
            SpanKind::MsgSend { src, dst, tag, latency_us, .. } => {
                sends.entry((*src, *dst, *tag)).or_default().push((e.start_ns, *latency_us));
            }
            SpanKind::MsgRecv { src, dst, tag, blocked, .. } => {
                recvs.entry((*src, *dst, *tag)).or_default().push((e.end_ns(), *blocked));
                if *blocked {
                    add(&mut ns, "recv_blocked", e.dur_ns);
                    blocked_recvs += 1;
                }
            }
            _ => {}
        }
    }
    let ns_of = |key: &str| ns.get(key).copied().unwrap_or(0);
    let us = |key: &str| ns_of(key) as f64 * per;

    for key in [
        "apply_full",
        "apply_interior",
        "apply_boundary",
        "apply_lower_tier",
        "pack",
        "unpack",
        "copy",
        "swap_begin",
        "swap_wait",
        "reduce_partial",
        "reduce_wait",
    ] {
        out.set(&format!("exec.{key}_us"), us(key), "us");
    }
    // Self time of the timestep span: what its direct children leave.
    let children: u64 = [
        "apply_full",
        "apply_interior",
        "apply_boundary",
        "swap_begin",
        "swap_wait",
        "copy",
        "reduce_partial",
        "reduce_wait",
    ]
    .iter()
    .map(|k| ns_of(k))
    .sum();
    out.set("exec.step_other_us", ns_of("timestep").saturating_sub(children) as f64 * per, "us");

    let report = TraceReport::from_events(events);
    out.set("exec.comm_exposed_us", report.comm_exposed_ns as f64 * per, "us");
    out.set("exec.comm_hidden_us", report.comm_hidden_ns as f64 * per, "us");
    out.set("exec.overlap_efficiency", report.overlap_efficiency(), "ratio");
    let recv_total = report.recv_blocked + report.recv_immediate;
    out.set(
        "interp.recv_blocked_share",
        if recv_total == 0 { 0.0 } else { report.recv_blocked as f64 / recv_total as f64 },
        "ratio",
    );
    out.set(
        "interp.msg_recv_wait_us",
        if blocked_recvs == 0 {
            0.0
        } else {
            ns_of("recv_blocked") as f64 / 1e3 / blocked_recvs as f64
        },
        "us",
    );

    // Delivery of a message whose receiver was already waiting, beyond
    // the world's configured latency: condvar wake-up plus timer slack.
    let mut overshoot_us = Vec::new();
    for (channel, sent) in &sends {
        let Some(received) = recvs.get(channel) else { continue };
        for (&(t_send, latency_us), &(t_recv, blocked)) in sent.iter().zip(received) {
            if blocked {
                overshoot_us.push(t_recv.saturating_sub(t_send) as f64 / 1e3 - latency_us as f64);
            }
        }
    }
    out.set("interp.latency_overshoot_us", median(&overshoot_us), "us");

    // Worker pool: task length, and per apply the slowest task over the
    // mean task (1.0 = even chunks that start together).
    out.set("exec.pool_task_us_p50", median(&task_us), "us");
    let mut imbalance = Vec::new();
    if !tasks.is_empty() {
        tasks.sort_unstable();
        for &(pid, start, end) in &applies {
            let lo = tasks.partition_point(|t| (t.0, t.1) < (pid, start));
            let inside: Vec<f64> = tasks[lo..]
                .iter()
                .take_while(|t| t.0 == pid && t.1 < end)
                .map(|t| t.2 as f64)
                .collect();
            if inside.len() > 1 {
                let mean = inside.iter().sum::<f64>() / inside.len() as f64;
                imbalance.push(inside.iter().cloned().fold(0.0, f64::max) / mean);
            }
        }
    }
    out.set("exec.pool_imbalance", median(&imbalance), "ratio");

    // Rates: points over the time spent inside the spans that did them.
    let rate = |points: f64, ns: u64| if ns == 0 { 0.0 } else { points / (ns as f64 / 1e9) / 1e6 };
    let apply_ns = ns_of("apply_full") + ns_of("apply_interior") + ns_of("apply_boundary");
    // Ranks apply side by side: the aggregate rate divides by one
    // rank's share of the apply time.
    out.set("exec.kernel_mpts_per_s", rate(apply_points as f64, apply_ns / ranks as u64), "Mpts/s");
    out.set("exec.axpy_mpts_per_s", rate(lower_points as f64, ns_of("apply_lower_tier")), "Mpts/s");
    out.set("exec.dot_mpts_per_s", rate(reduce_points as f64, ns_of("reduce_partial")), "Mpts/s");

    out.set("exec.ckpt_us", us("ckpt"), "us");
    out.set(
        "exec.ckpt_us_per_deposit",
        if ckpts == 0 { 0.0 } else { ns_of("ckpt") as f64 / 1e3 / ckpts as f64 },
        "us",
    );
    out.set(
        "exec.ckpt_bytes_per_deposit",
        if ckpts == 0 { 0.0 } else { ckpt_bytes as f64 / ckpts as f64 },
        "B",
    );
    out.set("trace.events_per_op", events.len() as f64 / ops.max(1e-9), "count");
}
