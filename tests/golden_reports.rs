//! Golden-snapshot tests for the report JSON schemas.
//!
//! [`ExecutionReport::to_json`] and [`FleetReport::to_json`] are consumed by
//! external tooling (dashboards, the figures harness, CI triage), so their
//! field names, ordering, and number formatting are a contract. These tests
//! pin that contract against committed fixtures built from *synthetic*
//! fully-populated reports — every field non-zero, so a silently dropped or
//! renamed field changes the output.
//!
//! To regenerate after an intentional schema change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```

use std::path::PathBuf;
use std::time::Duration;

use alrescha::fleet::{FleetReport, FleetStats, JobOutput, JobRecord};
use alrescha::CoreError;
use alrescha_sim::rcu::ReconfigStats;
use alrescha_sim::report::{BreakerStats, CacheStats, CycleBreakdown, DataPathCounts};
use alrescha_sim::{EnergyCounters, ExecutionReport, FaultCounters};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed fixture, or rewrites the fixture
/// when `UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, format!("{actual}\n")).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        expected.trim_end(),
        actual,
        "{name} drifted from its golden fixture; if the schema change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// A synthetic execution report with every field non-zero and distinct, so
/// any dropped, renamed, or reordered field perturbs the JSON.
fn populated_execution_report() -> ExecutionReport {
    ExecutionReport {
        kernel: "symgs",
        cycles: 12_345,
        seconds: 1.2345e-5,
        bytes_streamed: 67_890,
        bandwidth_utilization: 0.875,
        cache_time_fraction: 0.125,
        energy: EnergyCounters {
            alu_ops: 11,
            re_ops: 22,
            pe_ops: 33,
            cache_accesses: 44,
            buffer_ops: 55,
            dram_bytes: 66,
            reconfigs: 77,
        },
        reconfig: ReconfigStats {
            switches: 7,
            hidden_cycles: 84,
            exposed_cycles: 3,
        },
        cache: CacheStats {
            hits: 100,
            misses: 20,
            writes: 30,
            busy_cycles: 400,
        },
        datapaths: DataPathCounts {
            gemv_blocks: 9,
            dsymgs_blocks: 8,
            graph_blocks: 7,
            iterations: 2,
            link_stack_peak: 5,
            operand_fifo_peak: 6,
        },
        breakdown: CycleBreakdown {
            gemv_cycles: 1000,
            dsymgs_cycles: 2000,
            graph_cycles: 300,
            drain_cycles: 45,
            recovery_cycles: 6,
        },
        faults: FaultCounters {
            injected: 4,
            detected: 3,
            recovered: 2,
            retries: 5,
            degraded: 1,
        },
        breaker: BreakerStats {
            trips: 1,
            half_open_probes: 2,
            cpu_fallback_runs: 3,
        },
    }
}

/// A synthetic fleet report: one hit, one miss, one failure, one admission
/// reject — all with fixed timings, so the fixture is byte-stable.
fn populated_fleet_report() -> FleetReport {
    let report = populated_execution_report();
    let jobs = vec![
        JobRecord {
            job: 0,
            kernel: "symgs",
            worker: 0,
            cache_hit: false,
            queue_wait: Duration::from_micros(15),
            run_time: Duration::from_micros(920),
            result: Ok(JobOutput::SymGs {
                x: vec![1.0, -2.5, 0.0],
                report: report.clone(),
            }),
        },
        JobRecord {
            job: 1,
            kernel: "symgs",
            worker: 1,
            cache_hit: true,
            queue_wait: Duration::from_micros(40),
            run_time: Duration::from_micros(610),
            result: Ok(JobOutput::SymGs {
                x: vec![1.0, -2.5, 0.0],
                report,
            }),
        },
        JobRecord {
            job: 2,
            kernel: "spmv",
            worker: 0,
            cache_hit: false,
            queue_wait: Duration::from_micros(55),
            run_time: Duration::from_micros(12),
            result: Err(CoreError::Preflight {
                message: "synthetic rejection".to_owned(),
            }),
        },
        JobRecord {
            job: 3,
            kernel: "pcg",
            worker: usize::MAX,
            cache_hit: false,
            queue_wait: Duration::ZERO,
            run_time: Duration::ZERO,
            result: Err(CoreError::QueueFull {
                capacity: 3,
                offered: 4,
                retry_after: Duration::from_millis(25),
            }),
        },
    ];
    FleetReport {
        jobs,
        stats: FleetStats {
            jobs: 4,
            completed: 2,
            failed: 1,
            rejected: 1,
            cache_hits: 1,
            cache_misses: 1,
            engine_rebuilds: 2,
            engine_reuses: 1,
            workers: 2,
            wall_time: Duration::from_micros(1800),
            total_device_cycles: 24_690,
            queue_wait_max: Duration::from_micros(55),
            queue_wait_mean: Duration::from_micros(36),
        },
    }
}

#[test]
fn execution_report_json_matches_golden() {
    assert_golden(
        "execution_report.json",
        &populated_execution_report().to_json(),
    );
}

#[test]
fn fleet_report_json_matches_golden() {
    assert_golden("fleet_report.json", &populated_fleet_report().to_json());
}

#[test]
fn golden_fixtures_are_valid_single_line_json() {
    for name in [
        "execution_report.json",
        "fleet_report.json",
        "metrics_snapshot.json",
    ] {
        let text = std::fs::read_to_string(golden_path(name)).expect("fixture exists");
        let line = text.trim_end();
        assert!(!line.contains('\n'), "{name} must be a single line");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "unbalanced braces in {name}"
        );
        assert_eq!(
            line.matches('[').count(),
            line.matches(']').count(),
            "unbalanced brackets in {name}"
        );
        assert!(!line.contains(",}"), "trailing comma in {name}");
        assert!(!line.contains(",]"), "trailing comma in {name}");
    }
}

/// The fingerprint embedded in fleet JSON is itself part of the contract:
/// identical payloads serialize to identical fingerprints across runs.
#[test]
fn fleet_json_fingerprints_are_reproducible() {
    let a = populated_fleet_report().to_json();
    let b = populated_fleet_report().to_json();
    assert_eq!(a, b);
}

/// Canonical alasm listings are a contract with the same shape: the
/// disassembler's directive ordering, comment text, value formatting, and
/// alobs span cross-references feed saved program files and triage
/// workflows, so drift must be deliberate. Each fixture must also
/// assemble back to the exact bits it was disassembled from (the codec's
/// round-trip guarantee, pinned here on committed artifacts).
#[test]
fn disassembled_listings_match_golden() {
    use alrescha::convert::{convert, KernelType};
    use alrescha::ProgramBinary;
    use alrescha_asm::{assemble_text, disassemble};

    let coo = alrescha_sparse::gen::stencil27(2);
    for (name, kernel, omega) in [
        ("listings/stencil27_spmv_w4.alasm", KernelType::SpMv, 4),
        ("listings/stencil27_symgs_w4.alasm", KernelType::SymGs, 4),
    ] {
        let (alf, table) = convert(kernel, &coo, omega).expect("convert");
        let binary = ProgramBinary::encode(kernel, &table, coo.rows().max(coo.cols()), omega);
        let text = disassemble(kernel, &table, &alf);
        assert_golden(name, text.trim_end());
        let asm = assemble_text(&text).expect("golden listing must assemble");
        assert_eq!(
            asm.binary.as_bytes(),
            binary.as_bytes(),
            "{name}: reassembly must be bit-identical"
        );
        assert_eq!(asm.alf, alf, "{name}: payload must survive the round-trip");
    }

    // One generator-produced listing pins the differential fuzzer's
    // canonical text form (including its converter-unreachable schedule).
    let generated = alrescha_asm::genprog::generate(42);
    assert_golden("listings/genprog_seed42.alasm", generated.text.trim_end());
    let asm = assemble_text(&generated.text).expect("generated listing must assemble");
    assert_eq!(asm.alf.omega(), generated.omega);
}

/// The deterministic slice of the telemetry metrics registry is an external
/// contract too: metric names, types, histogram bucket bounds, and number
/// formatting feed dashboards and the `alobs` summarizer. A fixed sequential
/// workload (SpMV + PCG over one stencil) must reproduce the fixture bit for
/// bit; regenerate with `UPDATE_GOLDEN=1` after an intentional change.
#[test]
fn metrics_snapshot_matches_fixture() {
    use std::sync::Arc;

    use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobSpec};
    use alrescha::SolverOptions;

    let tele = alrescha_obs::Telemetry::new();
    let a = alrescha_sparse::gen::stencil27(3);
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 5) as f64 / 3.0).collect();
    let b = vec![1.0; a.rows()];
    let jobs = vec![
        JobSpec::new(a.clone(), JobKernel::SpMv { x: x.clone() }),
        JobSpec::new(a.clone(), JobKernel::SpMv { x }),
        JobSpec::new(
            a,
            JobKernel::Pcg {
                b,
                opts: SolverOptions {
                    tol: 1e-8,
                    max_iters: 50,
                },
            },
        ),
    ];
    let fleet = Fleet::new(FleetConfig::default())
        .with_preflight(alrescha_lint::fleet_preflight_hook_with_telemetry(
            Arc::clone(&tele),
        ))
        .with_telemetry(Arc::clone(&tele));
    let batch = fleet.run_sequential(jobs);
    assert_eq!(batch.stats.failed, 0);
    assert_golden("metrics_snapshot.json", &tele.metrics().deterministic_json());
}

/// Compares `actual` against a committed binary fixture byte for byte, or
/// rewrites the fixture when `UPDATE_GOLDEN=1`.
fn assert_golden_bytes(name: &str, actual: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    if let Some(at) = expected.iter().zip(actual).position(|(a, b)| a != b) {
        panic!("{name}: byte {at} drifted from its golden fixture");
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "{name}: length drifted from its golden fixture"
    );
}

/// `.alpr` containers and packed program binaries are on-disk and
/// program-interface contracts: the §4.1 bit packing, the container
/// framing, and the CRC trailer must reproduce committed bytes exactly.
/// The cases cover a SymGS and an SpMV table, both graph layouts, and one
/// 21-bit-entry binary whose index fields straddle byte boundaries.
#[test]
fn program_containers_match_golden_bytes() {
    use alrescha::convert::{convert, KernelType};
    use alrescha::ProgramBinary;
    use alrescha_asm::container::{read_container, write_container};
    use alrescha_asm::AssembledProgram;
    use alrescha_sparse::gen;

    // Container header: magic, version, kernel, rows/cols/ω, layout,
    // entry count; the packed program bits follow it.
    const HEADER_BYTES: usize = 4 + 1 + 1 + 3 * 8 + 1 + 8;

    let road = gen::road_grid(6).transpose();
    for (name, kernel, coo, omega) in [
        ("alpr/stencil27_symgs_w4.alpr", KernelType::SymGs, gen::stencil27(3), 4),
        ("alpr/circuit_spmv_w8.alpr", KernelType::SpMv, gen::circuit(64, 3), 8),
        ("alpr/road_grid_bfs_w4.alpr", KernelType::Bfs, road.clone(), 4),
        ("alpr/road_grid_pagerank_w4.alpr", KernelType::PageRank, road.clone(), 4),
    ] {
        let (alf, table) = convert(kernel, &coo, omega).expect("convert");
        let binary = ProgramBinary::encode(kernel, &table, coo.rows().max(coo.cols()), omega);
        let program = AssembledProgram {
            kernel,
            binary,
            table,
            alf,
        };
        let bytes = write_container(&program);
        assert_golden_bytes(name, &bytes);
        let packed = program.binary.as_bytes();
        assert_eq!(
            &bytes[HEADER_BYTES..HEADER_BYTES + packed.len()],
            packed,
            "{name}: program bits must sit right after the header"
        );
        let back = read_container(&bytes).expect("golden container must decode");
        assert_eq!(back.table.entries(), program.table.entries(), "{name}");
        assert_eq!(back.alf, program.alf, "{name}");
    }

    let wide = gen::banded(2100, 2, 5);
    let (_, table) = convert(KernelType::SpMv, &wide, 8).expect("convert");
    let binary = ProgramBinary::encode(KernelType::SpMv, &table, wide.rows(), 8);
    assert_eq!(binary.layout().entry_bits(), 21);
    assert_golden_bytes("alpr/banded2100_spmv_w8.bin", binary.as_bytes());
    assert_eq!(binary.decode().expect("decode").entries(), table.entries());
}

/// The four service containers are wire and disk contracts too: an ALSV
/// `Submit` frame, an ALJL `Accepted` journal record, an ALCK checkpoint
/// and an ALFR flight dump must reproduce committed bytes exactly,
/// header, payload and CRC-32 trailer alike. Every input is fixed, so the
/// bytes depend on the codecs alone; each fixture must also decode back to
/// its input.
#[test]
fn service_containers_match_golden_bytes() {
    use alrescha::{SolverCheckpoint, SolverKind};
    use alrescha_obs::flight::{self, FlightDump, FlightRecord, TAG_LEN};
    use alrescha_serve::{Frame, JobPayload, Journal, TraceContext};
    use alrescha_sim::fault::InjectorSnapshot;
    use alrescha_sparse::gen;

    let matrix = gen::stencil27(3);
    let n = matrix.rows();
    let vector = |scale: f64| -> Vec<f64> {
        (0..n)
            .map(|i| scale * (((i * 37) % 11) as f64 - 5.0) / 3.0)
            .collect()
    };
    let job = JobPayload {
        matrix,
        b: vector(1.0),
        tol: 1e-8,
        max_iters: 500,
        priority: 3,
    };

    let submit = Frame::Submit {
        tenant: "tenant-a".to_owned(),
        job: job.clone(),
        trace: TraceContext {
            trace_id: 0x0123_4567_89ab_cdef,
            parent_span: 42,
        },
    };
    let bytes = submit.encode();
    assert_golden_bytes("containers/submit.alsv", &bytes);
    assert_eq!(
        Frame::decode(&bytes).expect("golden frame must decode"),
        submit
    );

    let dir = std::env::temp_dir().join(format!("alrescha-golden-aljl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let path = dir.join("jobs.wal");
    Journal::open(&path)
        .expect("fresh journal")
        .accept(7, "tenant-a", &job)
        .expect("accept");
    let bytes = std::fs::read(&path).expect("journal bytes");
    assert_golden_bytes("containers/accepted.aljl", &bytes);
    let recovered = Journal::open(&path)
        .expect("golden journal must replay")
        .recover();
    assert_eq!(recovered, vec![(7, "tenant-a".to_owned(), job)]);
    let _ = std::fs::remove_dir_all(&dir);

    let checkpoint = SolverCheckpoint {
        kind: SolverKind::Pcg,
        n,
        iteration: 4,
        x: vector(0.5),
        r: vector(-0.25),
        p: vector(2.0),
        rz: 0.1875,
        r0: 12.5,
        residual_history: vec![3.5, 0.75, 0.0625, 0.00390625],
        fault: Some(InjectorSnapshot {
            rng_state: 0x9e37_79b9_7f4a_7c15,
            cycle: 123_456,
            counters: alrescha_sim::FaultCounters {
                injected: 5,
                detected: 4,
                recovered: 3,
                retries: 2,
                degraded: 1,
            },
        }),
    };
    let bytes = checkpoint.to_bytes();
    assert_golden_bytes("containers/pcg.alck", &bytes);
    assert_eq!(
        SolverCheckpoint::from_bytes(&bytes).expect("golden checkpoint must decode"),
        checkpoint
    );

    let record = |seq: u64, code: u16, a: u64, tag: &str| {
        let mut buf = [0u8; TAG_LEN];
        buf[..tag.len()].copy_from_slice(tag.as_bytes());
        FlightRecord {
            seq,
            ts_ns: 1_000 * seq + 17,
            code,
            a,
            b: seq ^ 0xff,
            tag: buf,
        }
    };
    let dump = FlightDump {
        capacity: 16,
        total: 21,
        records: vec![
            record(18, flight::EV_ADMIT_OK, 7, "tenant-a"),
            record(19, flight::EV_JOURNAL_ACCEPT, 7, "tenant-a"),
            record(20, flight::EV_CHECKPOINT, 7, "ckpt"),
        ],
    };
    let bytes = dump.encode();
    assert_golden_bytes("containers/ring.alfr", &bytes);
    assert_eq!(
        FlightDump::decode(&bytes).expect("golden dump must decode"),
        dump
    );
}
