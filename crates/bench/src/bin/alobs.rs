//! `alobs` — summarizer for the telemetry artifacts the stack emits.
//!
//! ```text
//! alobs validate trace.json          # Chrome trace-event schema check + track inventory
//! alobs spans trace.json --top 15    # hottest span names by self-time
//! alobs metrics metrics.json         # counter/gauge values and histogram dumps
//! alobs stitch out.json a.json b...  # merge trace files into one timeline
//! alobs flight dump.alfr             # decode a flight-recorder dump
//! alobs promcheck metrics.prom       # validate a Prometheus exposition body
//! ```
//!
//! `trace.json` comes from `--trace-out` on `figures`, `hpcg_mini`, or
//! `pcg_solver` (and `--trace-out` on `alserve serve` / the client side of
//! `alserve submit`); `metrics.json` from `--metrics-out` on the same
//! binaries; `dump.alfr` from a crashed or stopped `alserve` daemon's
//! data directory.
//!
//! # Exit codes
//!
//! * `0` — success; for `promcheck`/`validate`, the artifact is valid.
//! * `1` — the artifact failed validation (bad trace schema, CRC mismatch
//!   in a flight dump, malformed Prometheus exposition).
//! * `2` — usage error (unknown subcommand, missing argument).

use std::process::ExitCode;

use alrescha_obs::flight::{code_name, FlightDump};
use alrescha_obs::json::Value;
use alrescha_obs::{
    span_self_times, stitch_traces, trace_ids, validate_chrome_trace, validate_prometheus,
};

/// A CLI failure, split by exit code: usage errors exit 2, validation or
/// I/O failures exit 1.
enum CliError {
    Usage(String),
    Fail(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Fail(message)
    }
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn print_help() {
    println!("alobs — summarize ALRESCHA telemetry artifacts");
    println!("  alobs validate <trace.json>        validate the Chrome trace schema");
    println!("  alobs spans <trace.json> [--top N] hottest spans by self-time (default 10)");
    println!("  alobs metrics <metrics.json>       metric values and histogram dumps");
    println!("  alobs stitch <out.json> <a.json> <b.json>...");
    println!("                                     merge traces into one timeline (one");
    println!("                                     pid per source, trace ids preserved)");
    println!("  alobs flight <dump.alfr>           decode a flight-recorder dump");
    println!("  alobs promcheck <metrics.prom>     validate Prometheus text exposition");
    println!("exit codes: 0 ok, 1 validation failure, 2 usage error");
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

fn cmd_validate(path: &str) -> Result<(), String> {
    let doc = load(path)?;
    let summary = validate_chrome_trace(&doc).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid Chrome trace — {} events on {} tracks",
        summary.events,
        summary.tracks.len()
    );
    for track in &summary.tracks {
        println!(
            "  tid {:>4}  {:<20} {:>6} spans",
            track.tid,
            track.name.as_deref().unwrap_or("(unnamed)"),
            track.spans
        );
    }
    Ok(())
}

fn cmd_spans(path: &str, top: usize) -> Result<(), String> {
    let doc = load(path)?;
    validate_chrome_trace(&doc).map_err(|e| format!("{path}: {e}"))?;
    let stats = span_self_times(&doc);
    if stats.is_empty() {
        println!("{path}: no spans");
        return Ok(());
    }
    println!(
        "{:<40} {:>7} {:>12} {:>12}",
        "span", "count", "self µs", "total µs"
    );
    for stat in stats.iter().take(top) {
        println!(
            "{:<40} {:>7} {:>12.3} {:>12.3}",
            stat.name, stat.count, stat.self_us, stat.total_us
        );
    }
    if stats.len() > top {
        println!("({} more — raise --top to see them)", stats.len() - top);
    }
    Ok(())
}

fn cmd_metrics(path: &str) -> Result<(), String> {
    let doc = load(path)?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing 'metrics' array"))?;
    for metric in metrics {
        let name = metric
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: metric without a name"))?;
        let kind = metric.get("type").and_then(Value::as_str).unwrap_or("?");
        match kind {
            "counter" | "gauge" => {
                let v = metric.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                println!("{name:<48} {kind:<9} {v}");
            }
            "histogram" => {
                let count = metric.get("count").and_then(Value::as_f64).unwrap_or(0.0);
                let sum = metric.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
                let mean = if count > 0.0 { sum / count } else { 0.0 };
                println!("{name:<48} histogram count={count} sum={sum} mean={mean:.1}");
                let mut prev = 0.0;
                for bucket in metric.get("buckets").and_then(Value::as_arr).unwrap_or(&[]) {
                    let cumulative = bucket.get("count").and_then(Value::as_f64).unwrap_or(0.0);
                    let in_bucket = (cumulative - prev).max(0.0);
                    prev = cumulative;
                    let le = bucket.get("le").map_or_else(
                        || "?".to_owned(),
                        |v| {
                            v.as_f64()
                                .map_or_else(|| "+Inf".to_owned(), |f| format!("{f}"))
                        },
                    );
                    if in_bucket > 0.0 {
                        println!("    le {le:>12}: {in_bucket}");
                    }
                }
            }
            other => println!("{name:<48} {other}"),
        }
    }
    Ok(())
}

fn cmd_stitch(out: &str, sources: &[String]) -> Result<(), String> {
    let mut loaded = Vec::with_capacity(sources.len());
    for path in sources {
        // Source label = the file stem, which names the per-source
        // process row in the stitched timeline.
        let label = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_owned();
        loaded.push((label, load(path)?));
    }
    let stitched = stitch_traces(&loaded)?;
    let ids = trace_ids(&stitched);
    std::fs::write(out, stitched.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    let summary = validate_chrome_trace(&stitched).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "{out}: stitched {} sources into {} events on {} tracks",
        sources.len(),
        summary.events,
        summary.tracks.len()
    );
    match ids.len() {
        0 => println!("  no trace ids (untraced spans only)"),
        n => {
            println!("  {n} distinct trace id(s):");
            for id in ids {
                println!("    trace:{id}");
            }
        }
    }
    Ok(())
}

fn cmd_flight(path: &str) -> Result<(), String> {
    let dump = FlightDump::read(std::path::Path::new(path))
        .map_err(|e| format!("cannot read {path}: {e}"))?
        .map_err(|e| format!("{path}: invalid flight dump: {e}"))?;
    println!(
        "{path}: {} records (capacity {}, {} recorded since start)",
        dump.records.len(),
        dump.capacity,
        dump.total
    );
    println!(
        "{:>6} {:>14} {:<20} {:>20} {:>8} tag",
        "seq", "t(ns)", "event", "a", "b"
    );
    for rec in &dump.records {
        println!(
            "{:>6} {:>14} {:<20} {:>20} {:>8} {}",
            rec.seq,
            rec.ts_ns,
            code_name(rec.code),
            rec.a,
            rec.b,
            rec.tag_str()
        );
    }
    Ok(())
}

fn cmd_promcheck(path: &str) -> Result<(), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let issues = validate_prometheus(&body);
    if issues.is_empty() {
        let samples = body
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .count();
        println!("{path}: valid Prometheus exposition ({samples} samples)");
        return Ok(());
    }
    for issue in &issues {
        eprintln!("{path}: {issue}");
    }
    Err(format!("{path}: {} exposition issue(s)", issues.len()))
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("validate") => {
            let path = argv
                .get(1)
                .ok_or_else(|| usage("validate needs a trace file"))?;
            Ok(cmd_validate(path)?)
        }
        Some("spans") => {
            let path = argv
                .get(1)
                .ok_or_else(|| usage("spans needs a trace file"))?;
            let mut top = 10usize;
            let mut i = 2;
            while i < argv.len() {
                if argv[i] == "--top" {
                    let v = argv
                        .get(i + 1)
                        .ok_or_else(|| usage("--top needs a number"))?;
                    top = v
                        .parse()
                        .map_err(|_| usage(format!("bad --top value {v}")))?;
                    i += 2;
                } else {
                    return Err(usage(format!("unknown argument {}", argv[i])));
                }
            }
            Ok(cmd_spans(path, top)?)
        }
        Some("metrics") => {
            let path = argv
                .get(1)
                .ok_or_else(|| usage("metrics needs a snapshot file"))?;
            Ok(cmd_metrics(path)?)
        }
        Some("stitch") => {
            let out = argv
                .get(1)
                .ok_or_else(|| usage("stitch needs an output path"))?;
            let sources = &argv[2..];
            if sources.len() < 2 {
                return Err(usage("stitch needs at least two source trace files"));
            }
            Ok(cmd_stitch(out, sources)?)
        }
        Some("flight") => {
            let path = argv
                .get(1)
                .ok_or_else(|| usage("flight needs a .alfr dump file"))?;
            Ok(cmd_flight(path)?)
        }
        Some("promcheck") => {
            let path = argv
                .get(1)
                .ok_or_else(|| usage("promcheck needs an exposition file"))?;
            Ok(cmd_promcheck(path)?)
        }
        Some("--help" | "-h") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(usage(format!("unknown subcommand {other}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Fail(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(e)) => {
            eprintln!("usage error: {e}");
            print_help();
            ExitCode::from(2)
        }
    }
}
