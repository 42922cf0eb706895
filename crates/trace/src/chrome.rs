//! Chrome trace-event export (the JSON object format of the Trace Event
//! spec), loadable in Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`: one process track per rank (plus one for the
//! compiler), one thread track per lane (`main`, `worker N`).
//!
//! [`validate`] re-parses an emitted document with [`crate::json`] and
//! schema-checks it — every event has `ph`/`pid`/`tid` (and `ts`/`dur`
//! where its phase requires them), spans on a track are properly nested,
//! and ranks map to distinct `pid`s — so tests and benches can assert
//! traces are well-formed without an external tooling dependency.

use crate::json::{escape, parse};
use crate::{Event, SpanKind, COMPILER_PID};

/// Formats nanoseconds as the spec's microsecond timestamps, keeping
/// nanosecond precision (3 decimals).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn process_name(pid: u32, overrides: &[(u32, String)]) -> String {
    if let Some((_, name)) = overrides.iter().find(|(p, _)| *p == pid) {
        return name.clone();
    }
    if pid == COMPILER_PID {
        "compiler".to_string()
    } else {
        format!("rank {pid}")
    }
}

fn thread_name(tid: u32) -> String {
    if tid == 0 {
        "main".to_string()
    } else {
        format!("worker {tid}")
    }
}

fn category(kind: &SpanKind) -> &'static str {
    match kind {
        SpanKind::Pass { .. } => "compiler",
        SpanKind::Timestep { .. } | SpanKind::Apply { .. } | SpanKind::Copy { .. } => "exec",
        SpanKind::Task => "task",
        SpanKind::SwapBegin { .. }
        | SpanKind::SwapWait { .. }
        | SpanKind::Pack { .. }
        | SpanKind::Unpack { .. }
        | SpanKind::Reduce { .. }
        | SpanKind::MsgSend { .. }
        | SpanKind::MsgRecv { .. } => "comm",
        SpanKind::Fault { .. }
        | SpanKind::Retry { .. }
        | SpanKind::Checkpoint { .. }
        | SpanKind::Recovery { .. } => "resilience",
    }
}

fn args_json(kind: &SpanKind) -> String {
    fn dir(d: &[i64]) -> String {
        format!("\"{d:?}\"")
    }
    match kind {
        SpanKind::Pass { name } => format!("{{\"pass\":\"{}\"}}", escape(name)),
        SpanKind::Timestep { index } => format!("{{\"timestep\":{index}}}"),
        SpanKind::Apply { tier, region, points } => format!(
            "{{\"tier\":\"{}\",\"region\":\"{}\",\"points\":{points}}}",
            escape(tier),
            escape(region.trim())
        ),
        SpanKind::SwapBegin { swap, bytes } => format!("{{\"swap\":{swap},\"bytes\":{bytes}}}"),
        SpanKind::SwapWait { swap } => format!("{{\"swap\":{swap}}}"),
        SpanKind::Copy { points } => format!("{{\"points\":{points}}}"),
        SpanKind::Task => "{}".to_string(),
        SpanKind::Pack { dir: d, bytes } => {
            format!("{{\"dir\":{},\"bytes\":{bytes}}}", dir(d))
        }
        SpanKind::Unpack { dir: d, bytes } => {
            format!("{{\"dir\":{},\"bytes\":{bytes}}}", dir(d))
        }
        SpanKind::Reduce { phase, bytes, parts, escaped } => format!(
            "{{\"phase\":\"{}\",\"bytes\":{bytes},\"parts\":{parts},\"escaped\":{escaped}}}",
            escape(phase)
        ),
        SpanKind::MsgSend { src, dst, tag, bytes, latency_us } => format!(
            "{{\"src\":{src},\"dst\":{dst},\"tag\":{tag},\"bytes\":{bytes},\"latency_us\":{latency_us}}}"
        ),
        SpanKind::MsgRecv { src, dst, tag, bytes, blocked } => format!(
            "{{\"src\":{src},\"dst\":{dst},\"tag\":{tag},\"bytes\":{bytes},\"blocked\":{blocked}}}"
        ),
        SpanKind::Fault { fault, rank, detail } => format!(
            "{{\"fault\":\"{}\",\"rank\":{rank},\"detail\":\"{}\"}}",
            escape(fault),
            escape(detail)
        ),
        SpanKind::Retry { target, attempt } => {
            format!("{{\"target\":\"{}\",\"attempt\":{attempt}}}", escape(target))
        }
        SpanKind::Checkpoint { step, bytes } => format!("{{\"step\":{step},\"bytes\":{bytes}}}"),
        SpanKind::Recovery { attempt, step } => {
            format!("{{\"attempt\":{attempt},\"step\":{step}}}")
        }
    }
}

/// Renders `events` as a Chrome trace-event JSON document.
///
/// `process_names` overrides the default `rank N`/`compiler` process
/// labels per pid (benches use it to label `case/variant` worlds).
pub fn to_json(events: &[Event], process_names: &[(u32, String)]) -> String {
    let mut events: Vec<&Event> = events.iter().collect();
    events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));

    // Distinct tracks, in first-seen pid order.
    let mut pids: Vec<u32> = Vec::new();
    let mut tracks: Vec<(u32, u32)> = Vec::new();
    for e in &events {
        if !pids.contains(&e.pid) {
            pids.push(e.pid);
        }
        if !tracks.contains(&(e.pid, e.tid)) {
            tracks.push((e.pid, e.tid));
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&line);
    };

    for (i, &pid) in pids.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&process_name(pid, process_names))
            ),
            &mut out,
        );
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"sort_index\":{i}}}}}"
            ),
            &mut out,
        );
    }
    for &(pid, tid) in &tracks {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&thread_name(tid))
            ),
            &mut out,
        );
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ),
            &mut out,
        );
    }

    for e in &events {
        let name = escape(&e.kind.label());
        let cat = category(&e.kind);
        let args = args_json(&e.kind);
        let line = if e.kind.is_instant() {
            format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"cat\":\"{cat}\",\
                 \"pid\":{},\"tid\":{},\"ts\":{},\"args\":{args}}}",
                e.pid,
                e.tid,
                us(e.start_ns)
            )
        } else {
            format!(
                "{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"{cat}\",\
                 \"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{args}}}",
                e.pid,
                e.tid,
                us(e.start_ns),
                us(e.dur_ns)
            )
        };
        push(line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Summary of a validated trace document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// All events, including metadata records.
    pub total_events: usize,
    /// Complete (`ph:"X"`) spans.
    pub spans: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
    /// Distinct pids carrying spans or instants, ascending.
    pub pids: Vec<u32>,
    /// Distinct `(pid, tid)` tracks carrying spans or instants, ascending.
    pub tracks: Vec<(u32, u32)>,
}

/// Parses and schema-validates a Chrome trace-event document.
///
/// Checks: the root is `{"traceEvents": [...]}`; every event carries
/// `ph`/`pid`/`tid` (plus `name`, and `ts`/`dur` as its phase requires);
/// complete spans on each `(pid, tid)` track are properly nested
/// (disjoint or contained, never partially overlapping).
///
/// # Errors
/// Reports the first malformed event or nesting violation.
pub fn validate(json_text: &str) -> Result<TraceStats, String> {
    let doc = parse(json_text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing 'traceEvents' key")?
        .as_arr()
        .ok_or("'traceEvents' is not an array")?;

    let mut stats = TraceStats { total_events: events.len(), ..TraceStats::default() };
    // (pid, tid) → spans as (start, end) in integer nanoseconds.
    type TrackSpans = Vec<((u32, u32), Vec<(i64, i64)>)>;
    let mut spans_by_track: TrackSpans = Vec::new();

    for (i, e) in events.iter().enumerate() {
        let field =
            |key: &str| e.get(key).ok_or_else(|| format!("event #{i} missing '{key}': {e:?}"));
        let num = |key: &str| -> Result<f64, String> {
            field(key)?.as_f64().ok_or_else(|| format!("event #{i} '{key}' is not a number"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event #{i} 'ph' is not a string"))?
            .to_string();
        let pid = num("pid")? as u32;
        let tid = num("tid")? as u32;
        if field("name")?.as_str().is_none() {
            return Err(format!("event #{i} 'name' is not a string"));
        }
        match ph.as_str() {
            "M" => {
                field("args")?;
            }
            "i" => {
                num("ts")?;
                stats.instants += 1;
                if !stats.pids.contains(&pid) {
                    stats.pids.push(pid);
                }
                if !stats.tracks.contains(&(pid, tid)) {
                    stats.tracks.push((pid, tid));
                }
            }
            "X" => {
                let ts = num("ts")?;
                let dur = num("dur")?;
                if dur < 0.0 {
                    return Err(format!("event #{i} has negative dur"));
                }
                stats.spans += 1;
                if !stats.pids.contains(&pid) {
                    stats.pids.push(pid);
                }
                if !stats.tracks.contains(&(pid, tid)) {
                    stats.tracks.push((pid, tid));
                }
                // µs with 3 decimals → exact integer nanoseconds.
                let start = (ts * 1000.0).round() as i64;
                let end = start + (dur * 1000.0).round() as i64;
                match spans_by_track.iter_mut().find(|(k, _)| *k == (pid, tid)) {
                    Some((_, v)) => v.push((start, end)),
                    None => spans_by_track.push(((pid, tid), vec![(start, end)])),
                }
            }
            other => return Err(format!("event #{i} has unknown phase '{other}'")),
        }
    }

    // Nesting check per track: sorted by (start asc, end desc), every
    // span must be disjoint from or contained in the enclosing one.
    for ((pid, tid), mut spans) in spans_by_track {
        spans.sort_by_key(|&(start, end)| (start, std::cmp::Reverse(end)));
        let mut stack: Vec<(i64, i64)> = Vec::new();
        for (start, end) in spans {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_start, top_end)) = stack.last() {
                if !(start >= top_start && end <= top_end) {
                    return Err(format!(
                        "track ({pid},{tid}): span [{start},{end}]ns partially overlaps \
                         enclosing [{top_start},{top_end}]ns"
                    ));
                }
            }
            stack.push((start, end));
        }
    }

    stats.pids.sort_unstable();
    stats.tracks.sort_unstable();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanKind, Tracer};

    #[test]
    fn emitted_traces_validate() {
        let t = Tracer::new();
        let mut lane = t.lane(0, 0);
        let outer = lane.start();
        let inner = lane.start();
        lane.span(inner, || SpanKind::Apply {
            tier: "eval",
            region: "interior ".to_string(),
            points: 100,
        });
        lane.span(outer, || SpanKind::Timestep { index: 0 });
        lane.instant(|| SpanKind::MsgSend { src: 0, dst: 1, tag: 4, bytes: 800, latency_us: 20 });
        lane.flush();
        let mut worker = t.lane(1, 2);
        let w0 = worker.start();
        worker.span(w0, || SpanKind::Task);
        worker.flush();

        let json = to_json(&t.events(), &[(1, "rank one".to_string())]);
        let stats = validate(&json).unwrap();
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.pids, vec![0, 1]);
        assert_eq!(stats.tracks, vec![(0, 0), (1, 2)]);
        assert!(json.contains("\"rank one\""), "process-name override applied");
        assert!(json.contains("\"worker 2\""), "worker lanes get named sub-tracks");
    }

    #[test]
    fn validate_rejects_missing_fields_and_bad_nesting() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"other\":[]}").is_err());
        let no_ph = r#"{"traceEvents":[{"name":"x","pid":0,"tid":0}]}"#;
        assert!(validate(no_ph).unwrap_err().contains("missing 'ph'"));
        let no_dur = r#"{"traceEvents":[{"ph":"X","name":"x","pid":0,"tid":0,"ts":1}]}"#;
        assert!(validate(no_dur).unwrap_err().contains("missing 'dur'"));
        // Partial overlap on one track: [0,10] vs [5,15].
        let overlap = r#"{"traceEvents":[
            {"ph":"X","name":"a","pid":0,"tid":0,"ts":0,"dur":10},
            {"ph":"X","name":"b","pid":0,"tid":0,"ts":5,"dur":10}
        ]}"#;
        assert!(validate(overlap).unwrap_err().contains("partially overlaps"));
        // The same intervals on different tracks are fine.
        let two_tracks = r#"{"traceEvents":[
            {"ph":"X","name":"a","pid":0,"tid":0,"ts":0,"dur":10},
            {"ph":"X","name":"b","pid":0,"tid":1,"ts":5,"dur":10}
        ]}"#;
        assert!(validate(two_tracks).is_ok());
    }
}
