//! Trace analysis shared by the `alobs` CLI and the telemetry tests:
//! Chrome trace-event schema validation and span self-time aggregation.

use std::collections::BTreeMap;

use crate::json::Value;

/// What a validated trace contains, per track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Track id (`tid`).
    pub tid: u64,
    /// Track name from the `thread_name` metadata event, if present.
    pub name: Option<String>,
    /// Number of completed `B`/`E` span pairs on the track.
    pub spans: usize,
}

/// Validation result: the track inventory of a well-formed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Tracks in `tid` order.
    pub tracks: Vec<Track>,
    /// Total events (metadata included).
    pub events: usize,
}

impl TraceSummary {
    /// Tracks whose name starts with `prefix`.
    pub fn tracks_named(&self, prefix: &str) -> Vec<&Track> {
        self.tracks
            .iter()
            .filter(|t| t.name.as_deref().is_some_and(|n| n.starts_with(prefix)))
            .collect()
    }
}

/// Counts completed `B` events whose name starts with `prefix` — e.g.
/// `job:` to count fleet job spans across every worker track.
pub fn count_spans_named(doc: &Value, prefix: &str) -> usize {
    doc.get("traceEvents")
        .and_then(Value::as_arr)
        .map_or(0, |events| {
            events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("B")
                        && e.get("name")
                            .and_then(Value::as_str)
                            .is_some_and(|n| n.starts_with(prefix))
                })
                .count()
        })
}

/// Checks `doc` against the Chrome trace-event schema subset the exporter
/// emits and the viewers require:
///
/// * top level is an object with a `traceEvents` array;
/// * every event is an object with string `name`/`ph` and numeric
///   `ts`/`pid`/`tid`;
/// * `ph` is one of `B`, `E`, `X`, `i`, `M`; `X` also needs numeric `dur`;
/// * per track, `B`/`E` events pair LIFO with matching names (children
///   close before parents) and no `E` without an open `B`.
pub fn validate_chrome_trace(doc: &Value) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;

    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut spans: BTreeMap<u64, usize> = BTreeMap::new();

    for (i, event) in events.iter().enumerate() {
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string field 'name'"))?;
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string field 'ph'"))?;
        for field in ["ts", "pid", "tid"] {
            event
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric field '{field}'"))?;
        }
        let tid = event.get("tid").and_then(Value::as_f64).unwrap_or_default() as u64;
        match ph {
            "M" => {
                if name == "thread_name" {
                    if let Some(track) = event
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                    {
                        names.insert(tid, track.to_owned());
                    }
                }
            }
            "B" => stacks.entry(tid).or_default().push(name.to_owned()),
            "E" => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: 'E' for '{name}' with no open span"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: span nesting violated — closing '{name}' while '{open}' is innermost"
                    ));
                }
                *spans.entry(tid).or_default() += 1;
            }
            "X" => {
                event
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: 'X' event missing numeric 'dur'"))?;
            }
            "i" => {}
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
        // Make sure the track exists even if it only carries instants.
        stacks.entry(tid).or_default();
    }

    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("track {tid}: span '{open}' never closed"));
        }
    }

    let tracks = stacks
        .keys()
        .map(|&tid| Track {
            tid,
            name: names.get(&tid).cloned(),
            spans: spans.get(&tid).copied().unwrap_or(0),
        })
        .collect();
    Ok(TraceSummary {
        tracks,
        events: events.len(),
    })
}

/// Merges several Chrome traces (client-side, server-side) into one
/// timeline document.
///
/// Each source becomes its own process: `pid` = source index + 1, with a
/// `process_name` metadata event carrying the source label, and every
/// track is remapped onto a globally unique `tid` so per-track `B`/`E`
/// pairing survives the merge. Event order *within* a source is
/// preserved (the exporter emits per-track LIFO order; the viewers sort
/// by `ts` themselves), so the stitched document validates iff the
/// sources did. Cross-process correlation rides on span names: spans
/// carrying the same `trace:<16-hex>` prefix line up as one distributed
/// request across the client and server processes.
pub fn stitch_traces(sources: &[(String, Value)]) -> Result<Value, String> {
    let mut out_events: Vec<Value> = Vec::new();
    let mut next_tid: u64 = 1;
    for (idx, (label, doc)) in sources.iter().enumerate() {
        validate_chrome_trace(doc).map_err(|e| format!("source '{label}': {e}"))?;
        #[allow(clippy::cast_precision_loss)]
        let pid = (idx + 1) as f64;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("source '{label}': missing traceEvents"))?;
        out_events.push(Value::Obj(vec![
            ("name".to_owned(), Value::Str("process_name".to_owned())),
            ("ph".to_owned(), Value::Str("M".to_owned())),
            ("ts".to_owned(), Value::Num(0.0)),
            ("pid".to_owned(), Value::Num(pid)),
            ("tid".to_owned(), Value::Num(0.0)),
            (
                "args".to_owned(),
                Value::Obj(vec![("name".to_owned(), Value::Str(label.clone()))]),
            ),
        ]));
        let mut tid_map: BTreeMap<u64, u64> = BTreeMap::new();
        for event in events {
            let Value::Obj(fields) = event else {
                return Err(format!("source '{label}': non-object trace event"));
            };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let old_tid = event.get("tid").and_then(Value::as_f64).unwrap_or_default() as u64;
            let new_tid = *tid_map.entry(old_tid).or_insert_with(|| {
                let t = next_tid;
                next_tid += 1;
                t
            });
            let mut rewritten = Vec::with_capacity(fields.len());
            for (k, v) in fields {
                match k.as_str() {
                    "pid" => rewritten.push((k.clone(), Value::Num(pid))),
                    #[allow(clippy::cast_precision_loss)]
                    "tid" => rewritten.push((k.clone(), Value::Num(new_tid as f64))),
                    _ => rewritten.push((k.clone(), v.clone())),
                }
            }
            out_events.push(Value::Obj(rewritten));
        }
    }
    let stitched = Value::Obj(vec![("traceEvents".to_owned(), Value::Arr(out_events))]);
    validate_chrome_trace(&stitched).map_err(|e| format!("stitched trace invalid: {e}"))?;
    Ok(stitched)
}

/// Collects the distinct `trace:<16-hex>` prefixes appearing in span or
/// instant names — the distributed-trace ids present in a document.
pub fn trace_ids(doc: &Value) -> Vec<String> {
    let mut ids: Vec<String> = Vec::new();
    if let Some(events) = doc.get("traceEvents").and_then(Value::as_arr) {
        for event in events {
            if let Some(name) = event.get("name").and_then(Value::as_str) {
                if let Some(rest) = name.strip_prefix("trace:") {
                    let id: String = rest.chars().take_while(char::is_ascii_hexdigit).collect();
                    if id.len() == 16 && !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
        }
    }
    ids.sort();
    ids
}

/// Aggregated timing for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Wall time including children, µs.
    pub total_us: f64,
    /// Wall time excluding child spans and device `X` events, µs.
    pub self_us: f64,
}

/// Computes per-name span statistics from a validated trace, sorted by
/// self-time descending. `X` (device) events count as children of the
/// innermost open span on their track and contribute their own rows.
pub fn span_self_times(doc: &Value) -> Vec<SpanStat> {
    #[derive(Default)]
    struct Agg {
        count: u64,
        total_us: f64,
        self_us: f64,
    }
    let Some(events) = doc.get("traceEvents").and_then(Value::as_arr) else {
        return Vec::new();
    };
    let mut agg: BTreeMap<String, Agg> = BTreeMap::new();
    // Per track: stack of (name, start_ts, child_time).
    let mut stacks: BTreeMap<u64, Vec<(String, f64, f64)>> = BTreeMap::new();
    for event in events {
        let (Some(name), Some(ph), Some(ts)) = (
            event.get("name").and_then(Value::as_str),
            event.get("ph").and_then(Value::as_str),
            event.get("ts").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let tid = event.get("tid").and_then(Value::as_f64).unwrap_or_default() as u64;
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push((name.to_owned(), ts, 0.0)),
            "E" => {
                if let Some((open, start, child)) = stack.pop() {
                    let dur = (ts - start).max(0.0);
                    let entry = agg.entry(open).or_default();
                    entry.count += 1;
                    entry.total_us += dur;
                    entry.self_us += (dur - child).max(0.0);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
            }
            "X" => {
                let dur = event.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
                let entry = agg.entry(name.to_owned()).or_default();
                entry.count += 1;
                entry.total_us += dur;
                entry.self_us += dur;
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
            _ => {}
        }
    }
    let mut stats: Vec<SpanStat> = agg
        .into_iter()
        .map(|(name, a)| SpanStat {
            name,
            count: a.count,
            total_us: a.total_us,
            self_us: a.self_us,
        })
        .collect();
    stats.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(events: &str) -> Value {
        Value::parse(&format!("{{\"traceEvents\":[{events}]}}")).expect("test doc")
    }

    #[test]
    fn accepts_well_formed_nesting() {
        let d = doc(
            r#"{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":3,"args":{"name":"worker-1"}},
               {"name":"outer","ph":"B","ts":0,"pid":1,"tid":3},
               {"name":"inner","ph":"B","ts":1,"pid":1,"tid":3},
               {"name":"inner","ph":"E","ts":2,"pid":1,"tid":3},
               {"name":"outer","ph":"E","ts":5,"pid":1,"tid":3}"#,
        );
        let summary = validate_chrome_trace(&d).expect("valid");
        assert_eq!(summary.tracks.len(), 1);
        assert_eq!(summary.tracks[0].name.as_deref(), Some("worker-1"));
        assert_eq!(summary.tracks[0].spans, 2);
    }

    #[test]
    fn rejects_crossed_spans_and_orphan_ends() {
        let crossed = doc(r#"{"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
               {"name":"b","ph":"B","ts":1,"pid":1,"tid":1},
               {"name":"a","ph":"E","ts":2,"pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&crossed)
            .expect_err("crossed")
            .contains("nesting violated"));
        let orphan = doc(r#"{"name":"a","ph":"E","ts":0,"pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&orphan)
            .expect_err("orphan")
            .contains("no open span"));
        let unclosed = doc(r#"{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&unclosed)
            .expect_err("unclosed")
            .contains("never closed"));
    }

    #[test]
    fn rejects_missing_required_fields() {
        let missing_ts = doc(r#"{"name":"a","ph":"i","pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&missing_ts)
            .expect_err("missing ts")
            .contains("'ts'"));
        let x_without_dur = doc(r#"{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&x_without_dur)
            .expect_err("missing dur")
            .contains("'dur'"));
    }

    #[test]
    fn stitch_remaps_tracks_onto_disjoint_processes() {
        let client = doc(
            r#"{"name":"trace:00000000deadbeef:submit","ph":"B","ts":0,"pid":1,"tid":1},
               {"name":"trace:00000000deadbeef:submit","ph":"E","ts":5,"pid":1,"tid":1}"#,
        );
        let server = doc(
            r#"{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"worker-0"}},
               {"name":"trace:00000000deadbeef:journal","ph":"B","ts":1,"pid":1,"tid":1},
               {"name":"trace:00000000deadbeef:journal","ph":"E","ts":2,"pid":1,"tid":1},
               {"name":"other","ph":"B","ts":3,"pid":1,"tid":2},
               {"name":"other","ph":"E","ts":4,"pid":1,"tid":2}"#,
        );
        let stitched =
            stitch_traces(&[("client".to_owned(), client), ("server".to_owned(), server)])
                .expect("stitches");
        let summary = validate_chrome_trace(&stitched).expect("valid");
        // 1 client track + 2 server tracks + shared metadata track 0.
        assert_eq!(summary.tracks.len(), 4);
        let ids = trace_ids(&stitched);
        assert_eq!(ids, ["00000000deadbeef"]);
        // Both processes named.
        let events = stitched
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("arr");
        let process_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
            .collect();
        assert_eq!(process_names, ["client", "server"]);
    }

    #[test]
    fn stitch_rejects_an_invalid_source() {
        let bad = doc(r#"{"name":"a","ph":"E","ts":0,"pid":1,"tid":1}"#);
        let err = stitch_traces(&[("bad".to_owned(), bad)]).expect_err("rejects");
        assert!(err.contains("source 'bad'"), "{err}");
    }

    #[test]
    fn self_time_subtracts_children() {
        let d = doc(r#"{"name":"outer","ph":"B","ts":0,"pid":1,"tid":1},
               {"name":"inner","ph":"B","ts":2,"pid":1,"tid":1},
               {"name":"inner","ph":"E","ts":8,"pid":1,"tid":1},
               {"name":"device","ph":"X","ts":8,"dur":1,"pid":1,"tid":1},
               {"name":"outer","ph":"E","ts":10,"pid":1,"tid":1}"#);
        let stats = span_self_times(&d);
        let outer = stats.iter().find(|s| s.name == "outer").expect("outer");
        assert!((outer.total_us - 10.0).abs() < 1e-9);
        assert!((outer.self_us - 3.0).abs() < 1e-9, "10 - 6 (inner) - 1 (X)");
        let inner = stats.iter().find(|s| s.name == "inner").expect("inner");
        assert!((inner.self_us - 6.0).abs() < 1e-9);
    }
}
