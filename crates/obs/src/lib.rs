//! alobs: the ALRESCHA telemetry layer — spans, a typed metrics registry,
//! and Chrome/Perfetto trace export.
//!
//! The stack's four execution layers (Algorithm-1 conversion, alverify
//! preflight, the cycle-accurate engine, the fleet batch runtime) each
//! report in their own vocabulary. This crate gives them one: host-side
//! **spans** with monotonic timestamps on per-thread tracks, a **metrics
//! registry** (counters / gauges / fixed-bucket histograms) with
//! Prometheus text and JSON exposition, and a **Chrome `trace_event`
//! exporter** that merges engine-level device events — re-based from cycle
//! space onto the span clock — under the host spans that launched them.
//!
//! # Cost model
//!
//! Telemetry is opt-in per [`Telemetry`] instance. Components hold an
//! `Option<Arc<Telemetry>>`; when absent, instrumentation is a `None`
//! check. When attached but disabled (the configuration the overhead
//! bench pins at <1% on the fleet workload), every recording call is one
//! relaxed [`AtomicBool`](std::sync::atomic::AtomicBool) load. Enabled,
//! span pushes go to contention-free per-thread buffers and metric updates
//! are relaxed atomic ops on `Arc`'d cells.
//!
//! # Determinism
//!
//! Timestamps vary run to run; everything else is deterministic: span
//! names and nesting, device-event content (cycle counts, coordinates,
//! ordering), and every metric registered as deterministic. The golden
//! snapshot pins [`metrics::Registry::deterministic_json`]; the trace
//! tests pin structure, not timing.
//!
//! This crate is intentionally **dependency-free** (std only) so the
//! simulator can depend on it without cycles, and it hand-rolls the JSON
//! it needs in [`json`] (the workspace has no registry access, hence no
//! serde).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chrome;
pub mod crc;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod summary;
pub mod telemetry;

pub use chrome::export_chrome_trace;
pub use crc::crc32;
pub use flight::{FlightDump, FlightError, FlightRecord, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, Registry, CYCLE_BUCKETS, MICROS_BUCKETS};
pub use prom::validate_prometheus;
pub use summary::{
    count_spans_named, span_self_times, stitch_traces, trace_ids, validate_chrome_trace, SpanStat,
    TraceSummary,
};
pub use telemetry::{
    ArgValue, DeviceEvent, DeviceTimeline, SpanEvent, SpanGuard, Telemetry, ThreadLog,
    ThreadSnapshot,
};
