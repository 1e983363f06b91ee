//! Chrome `trace_event` / Perfetto JSON exporter.
//!
//! Emits the "JSON Array Format" wrapped in an object
//! (`{"traceEvents":[...]}`) that both `chrome://tracing` and
//! <https://ui.perfetto.dev> accept:
//!
//! * every [`ThreadLog`](crate::ThreadLog) becomes one track (`pid` 1,
//!   `tid` = track id) with a `thread_name` metadata event;
//! * host spans export as `ph:"B"` / `ph:"E"` pairs, instants as `ph:"i"`;
//! * each captured [`DeviceTimeline`] re-bases its cycle-space events onto
//!   the span clock: cycle `c` of a run spanning `[t0, t1]` over `C`
//!   cycles lands at `t0 + (t1 - t0) * c / C`, so engine blocks,
//!   reconfigurations, fault recoveries, and checkpoint writes nest
//!   visually inside the host job span that launched the run. Device
//!   durations export as `ph:"X"` complete events carrying their true
//!   cycle counts in `args`.
//!
//! Timestamps (`ts`) are microseconds with nanosecond precision kept in
//! the fractional digits.

use std::fmt::Write as _;

use crate::json::write_escaped;
use crate::telemetry::{ArgValue, DeviceEvent, DeviceTimeline, SpanEvent, Telemetry};

/// Renders the full trace document for `tele`.
pub fn export_chrome_trace(tele: &Telemetry) -> String {
    let mut events: Vec<String> = Vec::new();
    for snap in tele.snapshot_threads() {
        let tid = snap.tid;
        let track_name = snap.name.clone().unwrap_or_else(|| format!("thread-{tid}"));
        events.push(metadata_event(tid, &track_name));
        for event in &snap.events {
            match event {
                SpanEvent::Begin { name, ts_ns } => {
                    events.push(phase_event(name, "B", *ts_ns, tid, None));
                }
                SpanEvent::End { name, ts_ns } => {
                    events.push(phase_event(name, "E", *ts_ns, tid, None));
                }
                SpanEvent::Instant { name, ts_ns } => {
                    events.push(phase_event(name, "i", *ts_ns, tid, None));
                }
                SpanEvent::Device(timeline) => {
                    export_device(timeline, tid, &mut events);
                }
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn metadata_event(tid: u64, name: &str) -> String {
    let mut out = String::from("{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,");
    let _ = write!(out, "\"tid\":{tid},\"args\":{{\"name\":");
    write_escaped(name, &mut out);
    out.push_str("}}");
    out
}

fn phase_event(name: &str, ph: &str, ts_ns: u64, tid: u64, args: Option<&str>) -> String {
    let mut out = String::from("{\"name\":");
    write_escaped(name, &mut out);
    let _ = write!(
        out,
        ",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{tid}",
        ts_us(ts_ns)
    );
    if ph == "i" {
        // Instant scope: thread.
        out.push_str(",\"s\":\"t\"");
    }
    if let Some(args) = args {
        let _ = write!(out, ",\"args\":{args}");
    }
    out.push('}');
    out
}

fn ts_us(ts_ns: u64) -> String {
    format!("{:.3}", ts_ns as f64 / 1e3)
}

fn render_args(args: &[(String, ArgValue)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(key, &mut out);
        out.push(':');
        match value {
            ArgValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Text(s) => write_escaped(s, &mut out),
        }
    }
    out.push('}');
    out
}

fn export_device(timeline: &DeviceTimeline, tid: u64, events: &mut Vec<String>) {
    let span_ns = timeline.t1_ns.saturating_sub(timeline.t0_ns);
    let cycles = timeline.cycles.max(1);
    // Proportional re-base: cycle position → ns inside the host window.
    let rebase = |cycle: u64| -> u64 {
        let frac = cycle.min(cycles) as f64 / cycles as f64;
        timeline.t0_ns + (span_ns as f64 * frac) as u64
    };
    for event in &timeline.events {
        match event {
            DeviceEvent::Span {
                name,
                start_cycle,
                end_cycle,
                args,
            } => {
                let t0 = rebase(*start_cycle);
                let t1 = rebase((*end_cycle).max(*start_cycle));
                let mut out = String::from("{\"name\":");
                write_escaped(name, &mut out);
                let _ = write!(
                    out,
                    ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{}",
                    ts_us(t0),
                    ts_us(t1 - t0),
                    render_args(args)
                );
                out.push('}');
                events.push(out);
            }
            DeviceEvent::Point { name, cycle, args } => {
                events.push(phase_event(
                    name,
                    "i",
                    rebase(*cycle),
                    tid,
                    Some(&render_args(args)),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn export_parses_and_carries_tracks() {
        let tele = Telemetry::new();
        tele.name_thread("worker-0");
        {
            let _job = tele.span("job:0:spmv");
            tele.record_device(DeviceTimeline {
                kernel: "spmv".to_owned(),
                t0_ns: tele.now_ns(),
                t1_ns: tele.now_ns() + 1_000,
                cycles: 100,
                events: vec![
                    DeviceEvent::Span {
                        name: "block 0,0 (gemv)".to_owned(),
                        start_cycle: 0,
                        end_cycle: 60,
                        args: vec![("cycles".to_owned(), ArgValue::Int(60))],
                    },
                    DeviceEvent::Point {
                        name: "reconfigure".to_owned(),
                        cycle: 60,
                        args: vec![("to".to_owned(), ArgValue::Text("dsymgs".to_owned()))],
                    },
                ],
            });
        }
        let text = export_chrome_trace(&tele);
        let doc = Value::parse(&text).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents");
        // metadata + B + X + i + E
        assert_eq!(events.len(), 5);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, ["M", "B", "X", "i", "E"]);
        let meta = &events[0];
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str),
            Some("worker-0")
        );
        // Device event carries its true cycle count.
        let block = &events[2];
        assert_eq!(
            block
                .get("args")
                .and_then(|a| a.get("cycles"))
                .and_then(Value::as_f64),
            Some(60.0)
        );
    }

    #[test]
    fn device_rebase_lands_inside_host_window() {
        let tele = Telemetry::new();
        tele.record_device(DeviceTimeline {
            kernel: "spmv".to_owned(),
            t0_ns: 10_000,
            t1_ns: 20_000,
            cycles: 10,
            events: vec![DeviceEvent::Span {
                name: "block".to_owned(),
                start_cycle: 5,
                end_cycle: 10,
                args: vec![],
            }],
        });
        let doc = Value::parse(&export_chrome_trace(&tele)).expect("parses");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        let block = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("X event");
        let ts = block.get("ts").and_then(Value::as_f64).expect("ts");
        let dur = block.get("dur").and_then(Value::as_f64).expect("dur");
        // Midpoint of a 10 µs window starting at 10 µs → 15 µs, 5 µs long.
        assert!((ts - 15.0).abs() < 1e-9, "ts {ts}");
        assert!((dur - 5.0).abs() < 1e-9, "dur {dur}");
    }

    #[test]
    fn zero_cycle_timeline_does_not_divide_by_zero() {
        let tele = Telemetry::new();
        tele.record_device(DeviceTimeline {
            kernel: "noop".to_owned(),
            t0_ns: 5,
            t1_ns: 5,
            cycles: 0,
            events: vec![DeviceEvent::Point {
                name: "mark".to_owned(),
                cycle: 0,
                args: vec![],
            }],
        });
        assert!(Value::parse(&export_chrome_trace(&tele)).is_ok());
    }
}
