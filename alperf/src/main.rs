//! alperf: the host-clock benchmark of the ALRESCHA stack.
//!
//! ```text
//! cargo run --release --manifest-path alperf/Cargo.toml -- \
//!     --workload <pcg_stencil|graph_rmat|cold_batch|serve_pcg> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, in
//! reference time: host time rescaled by a speed probe run before every
//! round (see `probe`). `--trace 1`
//! runs the workload again with the benchmark's own spans around every
//! layer call and prints the per-layer metrics; its span file lands in
//! `alperf/run/` and is checked with the same validator `alobs validate`
//! uses. The last stdout line is one JSON object with the result.

mod bench;
mod cold;
mod graph;
mod host;
mod layers;
mod pcg;
mod probe;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bench::{closed_loop, median, percentile, LoopResult, LoopSpec, Report, Workload};
use trace::Tracer;

/// The end-to-end metrics the JSON line carries (tracing off).
const END_TO_END: [&str; 6] = [
    "ops_per_s",
    "op_ms_p50",
    "op_ms_p90",
    "sim_mcycles_per_s",
    "setup_s",
    "peak_rss_mb",
];

/// The per-layer metrics the JSON line carries (tracing on).
const PER_LAYER: [&str; 44] = [
    "sparse.alf_pack_ms",
    "sparse.alf_mb",
    "convert.ms",
    "convert.ns_per_nnz",
    "convert.calls",
    "lint.preflight_ms",
    "lint.analyze_ms",
    "fleet.job_run_ms",
    "fleet.queue_wait_ms",
    "fleet.busy_ratio",
    "fleet.cache_hit_ratio",
    "fleet.engine_reuses",
    "engine.spmv_ms",
    "engine.symgs_ms",
    "engine.pagerank_ms",
    "engine.sssp_ms",
    "engine.bfs_ms",
    "engine.spmv_ns_per_block",
    "engine.symgs_ns_per_block",
    "engine.pagerank_ns_per_block",
    "engine.sssp_ns_per_block",
    "engine.bfs_ns_per_block",
    "engine.sim_cycles",
    "engine.blocks",
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.bytes_streamed",
    "solver.iterations",
    "solver.iter_ms",
    "checkpoint.write_ms",
    "checkpoint.bytes",
    "codec.submit_encode_ms",
    "codec.submit_decode_ms",
    "codec.submit_bytes",
    "codec.mb_per_s",
    "journal.accept_ms",
    "journal.terminal_ms",
    "journal.bytes_per_job",
    "client.submit_ms",
    "client.wait_ms",
    "client.retries",
    "server.rejected_ratio",
    "obs.overhead_ratio",
    "obs.trace_events",
];

const WORKLOADS: [&str; 4] = ["pcg_stencil", "graph_rmat", "cold_batch", "serve_pcg"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Rounds (one op per client each) discarded before the timer starts.
const WARMUP: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run prints in its final line.
struct Outcome {
    report: Report,
    correct: bool,
    attempted: usize,
    failed: usize,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("alperf: {e}");
            eprintln!(
                "usage: alperf --workload <pcg_stencil|graph_rmat|cold_batch|serve_pcg> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let run_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("run");
    let dir = run_root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("run directory is creatable");
    host::print_facts(&dir);
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let seed = args.seed;
    let outcome = match args.workload.as_str() {
        "pcg_stencil" => execute(&args, &dir, |tr, _| pcg::PcgStencil::setup(tr, seed)),
        "graph_rmat" => execute(&args, &dir, |tr, _| graph::GraphRmat::setup(tr, seed)),
        "cold_batch" => execute(&args, &dir, |tr, _| cold::ColdBatch::setup(tr, seed)),
        "serve_pcg" => execute(&args, &dir, |tr, d| serve::ServePcg::setup(tr, seed, d)),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("alperf: {e}");
        std::process::exit(1);
    });
    outcome.report.print_lines(&args.workload);
    let keep: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        outcome
            .report
            .json(keep, outcome.correct, outcome.attempted, outcome.failed)
    );
}

fn execute<W: Workload>(
    args: &Args,
    dir: &Path,
    setup: impl Fn(&Arc<Tracer>, &Path) -> W,
) -> Result<Outcome, String> {
    if args.trace {
        return execute_traced(args, dir, setup);
    }
    let off = Arc::new(Tracer::new(false));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ref_setup_s = Vec::with_capacity(SETUPS);
    let mut w = None;
    for i in 0..SETUPS {
        drop(w.take());
        let probe = W::PROBE.time_ms();
        let t0 = Instant::now();
        let fresh = setup(&off, &dir.join(format!("setup-{i}")));
        let s = t0.elapsed().as_secs_f64();
        setup_s.push(s);
        ref_setup_s.push(W::PROBE.rescale(s, probe));
        w = Some(fresh);
    }
    let w = w.expect("at least one setup ran");
    let spec = LoopSpec {
        seconds: args.seconds,
        warmup: WARMUP,
        telemetry: false,
    };
    let res = closed_loop(&w, &off, spec);
    drop(w);
    let mut r = Report::default();
    let ops = res.lat_ms.len();
    // Every client completes one op per round.
    let ref_s = res.ref_round_ms.iter().sum::<f64>() / 1e3;
    let rounds = res.ref_round_ms.len();
    r.note(
        "ops_per_s",
        (res.clients * rounds) as f64 / ref_s,
        "1/s",
        ops,
        format!(
            "{} client(s), closed loop, {rounds} rounds in {ref_s:.3} reference s",
            res.clients
        ),
    );
    r.note(
        "op_ms_p50",
        percentile(&res.ref_lat_ms, 0.5),
        "ms",
        ops,
        "reference ms".into(),
    );
    let beyond = ops - (0.9 * ops as f64).ceil() as usize;
    r.note(
        "op_ms_p90",
        percentile(&res.ref_lat_ms, 0.9),
        "ms",
        ops,
        format!("reference ms; {beyond} samples beyond p90"),
    );
    r.add(
        "sim_mcycles_per_s",
        res.cycles as f64 / ref_s / 1e6,
        "Mcycles/s",
        ops,
    );
    r.note(
        "setup_s",
        median(&ref_setup_s),
        "s",
        SETUPS,
        format!("reference s; median of {SETUPS} set-ups"),
    );
    // The same figures in raw host time, and the host speed they were
    // rescaled by.
    r.note(
        "host.ops_per_s",
        ops as f64 / res.wall_s,
        "1/s",
        ops,
        format!("{:.3} s wall clock, probes included", res.wall_s),
    );
    r.add("host.op_ms_p50", percentile(&res.lat_ms, 0.5), "ms", ops);
    r.add("host.op_ms_p90", percentile(&res.lat_ms, 0.9), "ms", ops);
    r.add("host.setup_s", median(&setup_s), "s", SETUPS);
    r.note(
        "host.probe_ms",
        median(&res.probe_ms),
        "ms",
        ops,
        format!("speed probe before each round: {:?}", W::PROBE),
    );
    r.ratio(
        "fail_ratio",
        res.failed as f64,
        res.attempted as f64,
        res.attempted,
    );
    r.add("peak_rss_mb", host::peak_rss_mb(), "MB", 1);
    Ok(Outcome {
        report: r,
        correct: res.failed == 0 && ops > 0,
        attempted: res.attempted,
        failed: res.failed,
    })
}

fn execute_traced<W: Workload>(
    args: &Args,
    dir: &Path,
    setup: impl Fn(&Arc<Tracer>, &Path) -> W,
) -> Result<Outcome, String> {
    let on = Arc::new(Tracer::new(true));
    let off = Arc::new(Tracer::new(false));
    let w = setup(&on, &dir.join("traced"));
    let spec = |share: f64, telemetry: bool| LoopSpec {
        seconds: args.seconds * share,
        warmup: 1,
        telemetry,
    };
    let traced = closed_loop(&w, &on, spec(0.5, false));
    w.finish(&on);
    let plain = closed_loop(&w, &off, spec(0.25, false));
    let teled = closed_loop(&w, &off, spec(0.25, true));
    let (spd, g) = w.sweep_inputs();
    drop(w);
    layers::sweep(&on, &dir.join("sweep"), &spd, &g);

    let trace_path = dir
        .parent()
        .expect("run directory has a parent")
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    let doc = on.chrome_json();
    std::fs::write(&trace_path, &doc)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let parsed = alrescha_obs::json::Value::parse(&doc).map_err(|e| format!("span file: {e:?}"))?;
    let summary = alrescha_obs::validate_chrome_trace(&parsed)
        .map_err(|e| format!("span file fails alobs validation: {e}"))?;
    println!(
        "trace {} ({} events, {} tracks) passes alobs validate",
        trace_path.display(),
        summary.events,
        summary.tracks.len()
    );
    for (name, (ms, n)) in on.self_times() {
        println!("self {name} = {ms:.3} ms [n={n}]");
    }

    let r = per_layer(&on, &traced, &plain, &teled);
    let attempted = traced.attempted + plain.attempted + teled.attempted;
    let failed = traced.failed + plain.failed + teled.failed;
    println!(
        "swept (spans and values not on this workload's path): {}",
        on.swept().join(" ")
    );
    Ok(Outcome {
        report: r,
        correct: failed == 0,
        attempted,
        failed,
    })
}

fn per_layer(tr: &Tracer, traced: &LoopResult, plain: &LoopResult, teled: &LoopResult) -> Report {
    let mut r = Report::default();
    let med = |name: &str| median(&tr.values(name));
    let sum = |name: &str| tr.values(name).iter().sum::<f64>();

    r.span_ms("sparse.alf_pack_ms", tr, "sparse.alf_pack");
    let alf = tr.values("sparse.alf_mb");
    r.note(
        "sparse.alf_mb",
        median(&alf),
        "MB",
        alf.len(),
        format!("median ALF image per matrix; host L2 = {}", host::l2_size()),
    );
    r.span_ms("convert.ms", tr, "convert.convert");
    let conv = tr.durations_ms("convert.convert");
    let conv_ns: f64 = conv.iter().sum::<f64>() * 1e6;
    r.note(
        "convert.ns_per_nnz",
        conv_ns / sum("convert.nnz").max(1.0),
        "ns",
        conv.len(),
        format!("base {conv_ns} ns / {} nnz", sum("convert.nnz")),
    );
    let units = tr.convert_units();
    r.note(
        "convert.calls",
        conv.len() as f64 / units.max(1) as f64,
        "count",
        conv.len(),
        format!("conversions per set-up or op that converts ({units} such)"),
    );
    r.span_ms("lint.preflight_ms", tr, "lint.preflight");
    r.span_ms("lint.analyze_ms", tr, "lint.analyze");

    let runs = tr.values("fleet.job_run_ms");
    r.add("fleet.job_run_ms", median(&runs), "ms", runs.len());
    let waits = tr.values("fleet.queue_wait_ms");
    r.add("fleet.queue_wait_ms", median(&waits), "ms", waits.len());
    let batches = tr.values("fleet.capacity_ms").len();
    r.ratio(
        "fleet.busy_ratio",
        sum("fleet.busy_ms"),
        sum("fleet.capacity_ms"),
        batches,
    );
    let lookups = sum("fleet.cache_lookups");
    r.ratio(
        "fleet.cache_hit_ratio",
        sum("fleet.cache_hits"),
        lookups,
        lookups as usize,
    );
    let reuses = tr.values("fleet.engine_reuses");
    r.note(
        "fleet.engine_reuses",
        median(&reuses),
        "count",
        reuses.len(),
        "per batch".into(),
    );

    for k in ["spmv", "symgs", "pagerank", "sssp", "bfs"] {
        let span = format!("engine.{k}");
        let d = tr.durations_ms(&span);
        r.note(
            &format!("engine.{k}_ms"),
            median(&d),
            "ms",
            d.len(),
            "host ms per call".into(),
        );
        let per = format!("engine.{k}_ns_per_block");
        let v = tr.values(&per);
        r.add(&per, median(&v), "ns", v.len());
    }
    let pool = traced.per_input.len();
    let mean = |f: fn(&bench::Counts) -> u64| {
        traced.per_input.values().map(|c| f(c) as f64).sum::<f64>() / pool.max(1) as f64
    };
    let exact = format!("exact, mean over the {pool} distinct op inputs");
    r.note(
        "engine.sim_cycles",
        mean(|c| c.sim_cycles),
        "cycles",
        pool,
        exact.clone(),
    );
    r.note(
        "engine.blocks",
        mean(|c| c.blocks),
        "count",
        pool,
        exact.clone(),
    );
    r.note(
        "engine.cache_hits",
        mean(|c| c.cache_hits),
        "count",
        pool,
        exact.clone(),
    );
    r.note(
        "engine.cache_misses",
        mean(|c| c.cache_misses),
        "count",
        pool,
        exact.clone(),
    );
    r.note(
        "engine.bytes_streamed",
        mean(|c| c.bytes_streamed),
        "B",
        pool,
        exact,
    );

    let iters = tr.values("solver.iterations");
    r.add("solver.iterations", median(&iters), "count", iters.len());
    let iter_ms = tr.values("solver.iter_ms");
    r.add("solver.iter_ms", median(&iter_ms), "ms", iter_ms.len());

    r.span_ms("checkpoint.write_ms", tr, "checkpoint.write");
    let ck = tr.values("checkpoint.bytes");
    r.add("checkpoint.bytes", median(&ck), "B", ck.len());

    let enc = tr.durations_ms("codec.submit_encode");
    let dec = tr.durations_ms("codec.submit_decode");
    r.span_ms("codec.submit_encode_ms", tr, "codec.submit_encode");
    r.span_ms("codec.submit_decode_ms", tr, "codec.submit_decode");
    let bytes = med("codec.submit_bytes");
    r.add(
        "codec.submit_bytes",
        bytes,
        "B",
        tr.values("codec.submit_bytes").len(),
    );
    let codec_s = (median(&enc) + median(&dec)) / 1e3;
    r.note(
        "codec.mb_per_s",
        bytes / 1e6 / codec_s,
        "MB/s",
        enc.len(),
        "median frame bytes over median encode + decode time".into(),
    );

    r.span_ms("journal.accept_ms", tr, "journal.accept");
    r.span_ms("journal.terminal_ms", tr, "journal.terminal");
    let jb = tr.values("journal.bytes_per_job");
    r.add("journal.bytes_per_job", median(&jb), "B", jb.len());

    r.span_ms("client.submit_ms", tr, "client.submit");
    r.span_ms("client.wait_ms", tr, "client.wait");
    let submits = tr.durations_ms("client.submit").len();
    r.note(
        "client.retries",
        sum("client.retries"),
        "count",
        submits,
        "over all submits".into(),
    );
    let rejected = sum("server.rejected");
    r.ratio(
        "server.rejected_ratio",
        rejected,
        rejected + submits as f64,
        submits,
    );

    let (p_plain, p_tele) = (
        percentile(&plain.ref_lat_ms, 0.5),
        percentile(&teled.ref_lat_ms, 0.5),
    );
    r.note(
        "obs.overhead_ratio",
        p_tele / p_plain,
        "ratio",
        teled.lat_ms.len(),
        format!(
            "base op_ms_p50 {p_tele} / {p_plain} reference ms with / without telemetry ({} ops)",
            plain.lat_ms.len()
        ),
    );
    let tele_ops = teled.lat_ms.len();
    r.note(
        "obs.trace_events",
        teled.events as f64 / tele_ops.max(1) as f64,
        "count/op",
        tele_ops,
        format!("base {} events / {tele_ops} ops", teled.events),
    );
    r
}
