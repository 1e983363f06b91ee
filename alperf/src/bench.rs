//! The closed-loop runner, sample statistics, and metric output shared by
//! every workload.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use alrescha_obs::{SpanEvent, Telemetry};

use crate::probe::{self, Probe};
use crate::trace::Tracer;

/// Exact per-op counts from the program's own execution reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub sim_cycles: u64,
    pub blocks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub bytes_streamed: u64,
}

impl Counts {
    pub fn of(rep: &alrescha_sim::ExecutionReport) -> Self {
        Counts {
            sim_cycles: rep.cycles,
            blocks: crate::layers::blocks(rep),
            cache_hits: rep.cache.hits,
            cache_misses: rep.cache.misses,
            bytes_streamed: rep.bytes_streamed,
        }
    }

    pub fn add(&mut self, o: Counts) {
        self.sim_cycles += o.sim_cycles;
        self.blocks += o.blocks;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.bytes_streamed += o.bytes_streamed;
    }
}

/// What the runner learns from checking one op's output.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// The output matched its reference.
    pub ok: bool,
    /// Identifies the op's inputs: ops with equal keys had equal inputs.
    pub key: u64,
    /// Content fingerprint of the output.
    pub fingerprint: u64,
    pub counts: Counts,
}

/// A workload as the runner sees it: per-client state, inputs cloned
/// outside the timer, the timed op, and an output check.
pub trait Workload: Sync {
    type Client;
    type Input;
    type Output;

    /// Closed-loop client count.
    fn clients(&self) -> usize {
        1
    }
    /// The speed probe timed before each round and each set-up.
    const PROBE: Probe = probe::ONE_CORE;
    fn client(&self, idx: usize) -> Self::Client;
    /// Readies the client for its next op, outside the timer: resets
    /// device state so equal inputs cost equal cycles, and attaches (or,
    /// with `None`, detaches) an alobs `Telemetry`.
    fn prepare(&self, client: &mut Self::Client, tele: Option<&Arc<Telemetry>>);
    /// Trace events recorded by telemetry the workload owns itself (a
    /// served workload's server), counted once after a telemetry loop.
    fn owned_events(&self) -> usize {
        0
    }
    /// The inputs of op `k`, cloned from the setup's pool.
    fn input(&self, k: u64) -> Self::Input;
    /// The timed op.
    fn run(
        &self,
        client: &mut Self::Client,
        input: Self::Input,
        tr: &Arc<Tracer>,
        op: u64,
    ) -> Self::Output;
    fn check(&self, k: u64, out: &Self::Output) -> Checked;
    /// Records, after a traced loop, what only the workload can count.
    fn finish(&self, _tr: &Tracer) {}
    /// The SPD matrix and graph the layer sweep runs on.
    fn sweep_inputs(&self) -> (alrescha_sparse::Coo, alrescha_sparse::Coo);
}

/// The outcome of one closed loop.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub clients: usize,
    /// Host latency of each op.
    pub lat_ms: Vec<f64>,
    /// The same latencies in reference ms (see `probe`).
    pub ref_lat_ms: Vec<f64>,
    /// Each timed round, from its probe's end to the start of the next
    /// round, in reference ms.
    pub ref_round_ms: Vec<f64>,
    /// The probe time of each timed round.
    pub probe_ms: Vec<f64>,
    pub wall_s: f64,
    pub cycles: u64,
    pub attempted: usize,
    pub failed: usize,
    /// Telemetry trace events (only in a telemetry loop).
    pub events: usize,
    /// Counts of the first op per input key.
    pub per_input: BTreeMap<u64, Counts>,
}

/// How a loop runs its ops.
#[derive(Clone, Copy)]
pub struct LoopSpec {
    pub seconds: f64,
    /// Rounds run and discarded before the timer starts.
    pub warmup: usize,
    /// Attach a fresh alobs `Telemetry` to every op.
    pub telemetry: bool,
}

pub fn count_events(tele: &Telemetry) -> usize {
    tele.snapshot_threads()
        .iter()
        .flat_map(|t| t.events.iter())
        .map(|e| match e {
            SpanEvent::Device(tl) => tl.events.len(),
            _ => 1,
        })
        .sum()
}

/// What the first client to reach a round sets for all of them.
#[derive(Default)]
struct Round {
    /// Rounds started so far.
    started: usize,
    /// Set when the warm-up rounds are over.
    start: Option<Instant>,
    deadline: Option<Instant>,
    /// When the previous round's probe ended, and that probe's time.
    prev: Option<(Instant, f64)>,
    probe_ms: f64,
    go: bool,
    /// The rounds from the timer's start on, in reference ms.
    ref_round_ms: Vec<f64>,
    probe_log: Vec<f64>,
}

/// Runs `w` as a closed loop in rounds: every client runs one op per
/// round, and the next round starts when all of them returned. Between
/// rounds, with every client idle, one of them runs the speed probe.
/// Latency covers `run` alone.
pub fn closed_loop<W: Workload>(w: &W, tr: &Arc<Tracer>, spec: LoopSpec) -> LoopResult {
    let clients = w.clients();
    let next = AtomicU64::new(0);
    let barrier = Barrier::new(clients);
    let round = Mutex::new(Round::default());
    let merged = Mutex::new(LoopResult::default());
    let repeats = Repeats::default();
    let body = |idx: usize| {
        let mut client = w.client(idx);
        let mut local = LoopResult::default();
        loop {
            if barrier.wait().is_leader() {
                let mut r = round.lock().expect("round poisoned");
                let now = Instant::now();
                if let (Some((t, probe)), Some(_)) = (r.prev, r.start) {
                    let ms = now.duration_since(t).as_secs_f64() * 1e3;
                    r.ref_round_ms.push(W::PROBE.rescale(ms, probe));
                    r.probe_log.push(probe);
                }
                if r.started == spec.warmup {
                    r.start = Some(now);
                    r.deadline = Some(now + Duration::from_secs_f64(spec.seconds));
                }
                r.go = r.deadline.is_none_or(|d| now < d);
                if r.go {
                    r.probe_ms = W::PROBE.time_ms();
                    r.prev = Some((Instant::now(), r.probe_ms));
                }
                r.started += 1;
            }
            barrier.wait();
            let (go, probe, timed) = {
                let r = round.lock().expect("round poisoned");
                (r.go, r.probe_ms, r.start.is_some())
            };
            if !go {
                break;
            }
            let k = next.fetch_add(1, Ordering::Relaxed);
            let input = w.input(k);
            let tele = spec.telemetry.then(Telemetry::new);
            w.prepare(&mut client, tele.as_ref());
            let t0 = Instant::now();
            let out = w.run(&mut client, input, tr, k + 1);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            w.prepare(&mut client, None);
            let mut checked = w.check(k, &out);
            checked.ok &= repeats.same(&checked);
            if timed {
                local.events += tele.as_deref().map_or(0, count_events);
                local.lat_ms.push(ms);
                local.ref_lat_ms.push(W::PROBE.rescale(ms, probe));
                local.attempted += 1;
                local.failed += usize::from(!checked.ok);
                local.cycles += checked.counts.sim_cycles;
            } else if !checked.ok {
                local.failed += 1;
                local.attempted += 1;
            }
        }
        let mut m = merged.lock().expect("result poisoned");
        m.lat_ms.extend(local.lat_ms);
        m.ref_lat_ms.extend(local.ref_lat_ms);
        m.cycles += local.cycles;
        m.attempted += local.attempted;
        m.failed += local.failed;
        m.events += local.events;
    };
    if clients == 1 {
        body(0);
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients).map(|i| s.spawn(move || body(i))).collect();
            for h in handles {
                h.join().expect("client thread panicked");
            }
        });
    }
    let r = round.into_inner().expect("round poisoned");
    let mut out = merged.into_inner().expect("result poisoned");
    out.wall_s = r.start.expect("loop started").elapsed().as_secs_f64();
    out.ref_round_ms = r.ref_round_ms;
    out.probe_ms = r.probe_log;
    out.per_input = repeats.counts();
    out.clients = clients;
    if spec.telemetry {
        out.events += w.owned_events();
    }
    out
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The first op's output per input key; later ops with the same inputs
/// must reproduce its fingerprint and counts exactly.
#[derive(Debug, Default)]
pub struct Repeats(Mutex<HashMap<u64, Checked>>);

impl Repeats {
    fn same(&self, c: &Checked) -> bool {
        let mut m = self.0.lock().expect("repeat table poisoned");
        let first = m.entry(c.key).or_insert(*c);
        first.fingerprint == c.fingerprint && first.counts == c.counts
    }

    fn counts(self) -> BTreeMap<u64, Counts> {
        let m = self.0.into_inner().expect("repeat table poisoned");
        m.into_iter().map(|(k, c)| (k, c.counts)).collect()
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.note(name, value, unit, samples, String::new());
    }

    pub fn note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// A ratio printed with its base.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64, samples: usize) {
        let value = if den > 0.0 { num / den } else { 0.0 };
        self.note(name, value, "ratio", samples, format!("base {num}/{den}"));
    }

    /// Median of span durations (ms) for a span name.
    pub fn span_ms(&mut self, name: &str, tr: &Tracer, span: &str) {
        let d = tr.durations_ms(span);
        self.note(
            name,
            median(&d),
            "ms",
            d.len(),
            format!("median of '{span}' spans"),
        );
    }

    pub fn print_lines(&self, workload: &str) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "metric {workload} {} = {} {} [n={}]{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// The final JSON line: `keep` names the metrics it carries.
    pub fn json(&self, keep: &[&str], correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for name in keep {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
