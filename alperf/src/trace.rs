//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each layer's public functions, not
//! inside the program: name, start, end, parent span, op id, and thread.
//! They stay in memory until the run ends, when [`Tracer::chrome_json`]
//! renders them as Chrome `X` events that `alobs validate` accepts. A
//! disabled tracer only runs the closure, so the untraced run pays one
//! branch per call site.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::layers::SWEEP_OP;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread (`0` = none).
    pub parent: u64,
    /// The op this span belongs to (`0` = setup, [`SWEEP_OP`] = sweep).
    pub op: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Non-time quantities: (metric, value, op).
    ledger: Mutex<Vec<(&'static str, f64, u64)>>,
    /// Names [`Tracer::values`] or [`Tracer::durations_ms`] answered
    /// from the sweep.
    swept: Mutex<BTreeSet<String>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            ledger: Mutex::new(Vec::new()),
            swept: Mutex::new(BTreeSet::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn tid(&self) -> u64 {
        TID.with(|t| {
            if t.get() == 0 {
                t.set(self.next_tid.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    /// Runs `f` inside a span named `name`, parented on the innermost span
    /// open on this thread.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            op,
            name,
            tid: self.tid(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Records a non-time quantity for a per-layer metric.
    pub fn record(&self, name: &'static str, value: f64, op: u64) {
        if self.enabled {
            self.ledger
                .lock()
                .expect("ledger poisoned")
                .push((name, value, op));
        }
    }

    /// Ledger values for `name`: those the workload's own ops and setup
    /// recorded, or the sweep's when they recorded none.
    pub fn values(&self, name: &str) -> Vec<f64> {
        let ledger = self.ledger.lock().expect("ledger poisoned");
        self.prefer_own(
            name,
            ledger.iter().filter(|e| e.0 == name).map(|e| (e.1, e.2)),
        )
    }

    /// Durations in ms of the spans named `name`, preferring the
    /// workload's own over the sweep's as [`Tracer::values`] does.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        self.prefer_own(
            name,
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.dur_ns() as f64 / 1e6, s.op)),
        )
    }

    /// Distinct set-ups and ops that converted, counted on the same side
    /// (own or sweep) [`Tracer::durations_ms`] picks.
    pub fn convert_units(&self) -> usize {
        let spans = self.spans();
        let conv: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "convert.convert")
            .collect();
        let own = conv.iter().any(|s| s.op != SWEEP_OP);
        let mut ops: Vec<u64> = conv
            .iter()
            .filter(|s| (s.op != SWEEP_OP) == own)
            .map(|s| s.op)
            .collect();
        ops.sort_unstable();
        ops.dedup();
        ops.len()
    }

    /// Span and ledger names whose values came from the sweep.
    pub fn swept(&self) -> Vec<String> {
        let swept = self.swept.lock().expect("swept set poisoned");
        swept.iter().cloned().collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed, in ms, with the span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &spans {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += own as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// The spans as a Chrome trace document (`X` events, µs timestamps).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        for tid in &tids {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"alperf-{tid}\"}}}}"
            );
        }
        for s in &spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.op
            );
        }
        out.push_str("]}");
        out
    }

    fn prefer_own(&self, name: &str, entries: impl Iterator<Item = (f64, u64)>) -> Vec<f64> {
        let (own, swept): (Vec<_>, Vec<_>) = entries.partition(|e| e.1 != SWEEP_OP);
        if !own.is_empty() {
            return own.into_iter().map(|e| e.0).collect();
        }
        if !swept.is_empty() {
            let mut set = self.swept.lock().expect("swept set poisoned");
            set.insert(name.to_owned());
        }
        swept.into_iter().map(|e| e.0).collect()
    }
}
