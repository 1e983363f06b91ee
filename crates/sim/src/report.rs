//! Execution reports: the simulator's measured output for one kernel run.

use crate::config::SimConfig;
use crate::energy::{EnergyCounters, EnergyModel};
use crate::fault::FaultCounters;
use crate::rcu::ReconfigStats;

/// Cache behaviour summary for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read hits.
    pub hits: u64,
    /// Read misses.
    pub misses: u64,
    /// Writes.
    pub writes: u64,
    /// Cycles spent on cache accesses (overlapped with compute; reported
    /// for the Figure 18 cache-time analysis, not added to `cycles`).
    pub busy_cycles: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.writes
    }
}

/// Where the cycles went, by data path (the device-side time breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles in GEMV blocks (streaming-limited or ω-per-block compute).
    pub gemv_cycles: u64,
    /// Cycles in the sequential D-SymGS recurrence.
    pub dsymgs_cycles: u64,
    /// Cycles in graph data-path blocks (D-BFS / D-SSSP / D-PR).
    pub graph_cycles: u64,
    /// Pipeline fill/drain cycles, including data-path switches.
    pub drain_cycles: u64,
    /// Cycles spent on fault recovery: block re-executions, retry backoff
    /// stalls, circuit-breaker backoff, and device work wasted by a run
    /// that ultimately degraded to the CPU. Zero on a fault-free run.
    pub recovery_cycles: u64,
}

impl CycleBreakdown {
    /// Sum of all accounted cycles.
    pub fn total(&self) -> u64 {
        self.gemv_cycles
            + self.dsymgs_cycles
            + self.graph_cycles
            + self.drain_cycles
            + self.recovery_cycles
    }
}

/// Circuit-breaker activity over the runs this report covers (all zero when
/// no breaker guards the backend).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed→Open transitions (the accelerator was benched).
    pub trips: u64,
    /// Half-open probe attempts after a cooldown.
    pub half_open_probes: u64,
    /// Operations served by the CPU backend while the breaker was open.
    pub cpu_fallback_runs: u64,
}

impl BreakerStats {
    /// True when any counter is non-zero.
    pub fn any(&self) -> bool {
        self.trips != 0 || self.half_open_probes != 0 || self.cpu_fallback_runs != 0
    }

    /// Accumulates `other` into `self` (used when merging reports).
    pub fn merge(&mut self, other: &BreakerStats) {
        self.trips += other.trips;
        self.half_open_probes += other.half_open_probes;
        self.cpu_fallback_runs += other.cpu_fallback_runs;
    }
}

/// Per-data-path execution counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPathCounts {
    /// GEMV blocks executed.
    pub gemv_blocks: u64,
    /// D-SymGS diagonal blocks executed.
    pub dsymgs_blocks: u64,
    /// Graph data-path blocks executed (D-BFS / D-SSSP / D-PR).
    pub graph_blocks: u64,
    /// Algorithm-level iterations (sweeps, rounds) this report covers.
    pub iterations: u64,
    /// High-water mark of the GEMV→D-SymGS link stack (sizes the hardware
    /// buffer; 0 for kernels that never use it).
    pub link_stack_peak: u64,
    /// High-water mark of the RCU operand FIFOs (`b` / extracted diagonal),
    /// in values; 0 for kernels that never run the D-SymGS path. The
    /// alprove AL402 static bound must dominate this.
    pub operand_fifo_peak: u64,
}

/// Everything the simulator measured about one kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Kernel name (`"spmv"`, `"symgs"`, …).
    pub kernel: &'static str,
    /// Total cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Bytes moved over the memory interface.
    pub bytes_streamed: u64,
    /// Achieved fraction of peak memory bandwidth (Figure 15's lines).
    pub bandwidth_utilization: f64,
    /// Fraction of execution time attributable to cache accesses
    /// (Figure 18's lines). Can exceed utilization because cache work
    /// overlaps with streaming.
    pub cache_time_fraction: f64,
    /// Energy event counters.
    pub energy: EnergyCounters,
    /// Reconfiguration behaviour.
    pub reconfig: ReconfigStats,
    /// Cache statistics.
    pub cache: CacheStats,
    /// Data-path counts.
    pub datapaths: DataPathCounts,
    /// Cycle attribution by data path.
    pub breakdown: CycleBreakdown,
    /// Fault injection, detection, and recovery accounting (all zero when no
    /// fault plan is armed).
    pub faults: FaultCounters,
    /// Circuit-breaker transitions and fallback activity (all zero when no
    /// breaker guards the backend).
    pub breaker: BreakerStats,
}

/// Formats an `f64` as a JSON number: shortest round-trip form, with
/// non-finite values (never produced by a well-formed report, but the
/// encoder must not emit invalid JSON) mapped to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl ExecutionReport {
    /// Serializes the report as a single-line JSON object with a stable
    /// field order (struct declaration order). This is the wire schema the
    /// golden-report snapshot tests pin down: adding, removing, renaming,
    /// or reordering report fields changes this output and must be an
    /// intentional, fixture-updating change — downstream consumers (the
    /// `figures` tooling, batch-report aggregation) parse it.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"kernel\":{kernel:?},\"cycles\":{cycles},\"seconds\":{seconds},",
                "\"bytes_streamed\":{bytes},\"bandwidth_utilization\":{bw},",
                "\"cache_time_fraction\":{ctf},",
                "\"energy\":{{\"alu_ops\":{alu},\"re_ops\":{re},\"pe_ops\":{pe},",
                "\"cache_accesses\":{ca},\"buffer_ops\":{bo},\"dram_bytes\":{db},",
                "\"reconfigs\":{rcfg}}},",
                "\"reconfig\":{{\"switches\":{sw},\"hidden_cycles\":{hid},",
                "\"exposed_cycles\":{exp}}},",
                "\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"writes\":{writes},",
                "\"busy_cycles\":{busy}}},",
                "\"datapaths\":{{\"gemv_blocks\":{gb},\"dsymgs_blocks\":{db2},",
                "\"graph_blocks\":{grb},\"iterations\":{it},\"link_stack_peak\":{lsp},",
                "\"operand_fifo_peak\":{ofp}}},",
                "\"breakdown\":{{\"gemv_cycles\":{gc},\"dsymgs_cycles\":{dc},",
                "\"graph_cycles\":{grc},\"drain_cycles\":{drc},\"recovery_cycles\":{rc}}},",
                "\"faults\":{{\"injected\":{fi},\"detected\":{fd},\"recovered\":{fr},",
                "\"retries\":{frt},\"degraded\":{fdg}}},",
                "\"breaker\":{{\"trips\":{bt},\"half_open_probes\":{bp},",
                "\"cpu_fallback_runs\":{bf}}}}}"
            ),
            kernel = self.kernel,
            cycles = self.cycles,
            seconds = json_f64(self.seconds),
            bytes = self.bytes_streamed,
            bw = json_f64(self.bandwidth_utilization),
            ctf = json_f64(self.cache_time_fraction),
            alu = self.energy.alu_ops,
            re = self.energy.re_ops,
            pe = self.energy.pe_ops,
            ca = self.energy.cache_accesses,
            bo = self.energy.buffer_ops,
            db = self.energy.dram_bytes,
            rcfg = self.energy.reconfigs,
            sw = self.reconfig.switches,
            hid = self.reconfig.hidden_cycles,
            exp = self.reconfig.exposed_cycles,
            hits = self.cache.hits,
            misses = self.cache.misses,
            writes = self.cache.writes,
            busy = self.cache.busy_cycles,
            gb = self.datapaths.gemv_blocks,
            db2 = self.datapaths.dsymgs_blocks,
            grb = self.datapaths.graph_blocks,
            it = self.datapaths.iterations,
            lsp = self.datapaths.link_stack_peak,
            ofp = self.datapaths.operand_fifo_peak,
            gc = self.breakdown.gemv_cycles,
            dc = self.breakdown.dsymgs_cycles,
            grc = self.breakdown.graph_cycles,
            drc = self.breakdown.drain_cycles,
            rc = self.breakdown.recovery_cycles,
            fi = self.faults.injected,
            fd = self.faults.detected,
            fr = self.faults.recovered,
            frt = self.faults.retries,
            fdg = self.faults.degraded,
            bt = self.breaker.trips,
            bp = self.breaker.half_open_probes,
            bf = self.breaker.cpu_fallback_runs,
        )
    }

    /// Total energy in joules under `model`.
    pub fn energy_joules(&self, model: &EnergyModel) -> f64 {
        self.energy.total_joules(model)
    }

    /// Effective throughput in GFLOP-equivalents/s given an operation count.
    pub fn gflops(&self, flops: u64) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            flops as f64 / self.seconds / 1e9
        }
    }

    /// Merges another report into this one (summing cycles, bytes, energy,
    /// counts) and recomputes the derived ratios with `config`.
    pub fn merge(&mut self, other: &ExecutionReport, config: &SimConfig) {
        self.cycles += other.cycles;
        self.bytes_streamed += other.bytes_streamed;
        self.energy.merge(&other.energy);
        self.reconfig.switches += other.reconfig.switches;
        self.reconfig.hidden_cycles += other.reconfig.hidden_cycles;
        self.reconfig.exposed_cycles += other.reconfig.exposed_cycles;
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.writes += other.cache.writes;
        self.cache.busy_cycles += other.cache.busy_cycles;
        self.datapaths.gemv_blocks += other.datapaths.gemv_blocks;
        self.datapaths.dsymgs_blocks += other.datapaths.dsymgs_blocks;
        self.datapaths.graph_blocks += other.datapaths.graph_blocks;
        self.datapaths.iterations += other.datapaths.iterations;
        self.datapaths.link_stack_peak = self
            .datapaths
            .link_stack_peak
            .max(other.datapaths.link_stack_peak);
        self.datapaths.operand_fifo_peak = self
            .datapaths
            .operand_fifo_peak
            .max(other.datapaths.operand_fifo_peak);
        self.breakdown.gemv_cycles += other.breakdown.gemv_cycles;
        self.breakdown.dsymgs_cycles += other.breakdown.dsymgs_cycles;
        self.breakdown.graph_cycles += other.breakdown.graph_cycles;
        self.breakdown.drain_cycles += other.breakdown.drain_cycles;
        self.breakdown.recovery_cycles += other.breakdown.recovery_cycles;
        self.faults.merge(&other.faults);
        self.breaker.merge(&other.breaker);
        self.recompute_derived(config);
    }

    /// Adds `cycles` of recovery overhead (retry backoff, breaker backoff,
    /// device work wasted before a degradation) to the total and the
    /// recovery bucket, keeping the `breakdown.total() == cycles` invariant
    /// and the derived ratios consistent.
    pub fn charge_recovery(&mut self, cycles: u64, config: &SimConfig) {
        if cycles == 0 {
            return;
        }
        self.cycles += cycles;
        self.breakdown.recovery_cycles += cycles;
        self.recompute_derived(config);
    }

    fn recompute_derived(&mut self, config: &SimConfig) {
        self.seconds = config.cycles_to_seconds(self.cycles);
        let peak = config.values_per_cycle() * 8.0 * self.cycles as f64;
        self.bandwidth_utilization = if peak > 0.0 {
            (self.bytes_streamed as f64 / peak).min(1.0)
        } else {
            0.0
        };
        self.cache_time_fraction = if self.cycles > 0 {
            (self.cache.busy_cycles as f64 / self.cycles as f64).min(1.0)
        } else {
            0.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(kernel: &'static str, cycles: u64, bytes: u64) -> ExecutionReport {
        ExecutionReport {
            kernel,
            cycles,
            seconds: 0.0,
            bytes_streamed: bytes,
            bandwidth_utilization: 0.0,
            cache_time_fraction: 0.0,
            energy: EnergyCounters::new(),
            reconfig: ReconfigStats::default(),
            cache: CacheStats::default(),
            datapaths: DataPathCounts::default(),
            breakdown: CycleBreakdown::default(),
            faults: FaultCounters::default(),
            breaker: BreakerStats::default(),
        }
    }

    #[test]
    fn merge_sums_and_recomputes() {
        let cfg = SimConfig::paper();
        let mut a = blank("spmv", 100, 1000);
        let b = blank("spmv", 300, 3000);
        a.merge(&b, &cfg);
        assert_eq!(a.cycles, 400);
        assert_eq!(a.bytes_streamed, 4000);
        assert!((a.seconds - 400.0 / 2.5e9).abs() < 1e-18);
        let peak = 14.4 * 8.0 * 400.0;
        assert!((a.bandwidth_utilization - 4000.0 / peak).abs() < 1e-12);
    }

    #[test]
    fn gflops_handles_zero_time() {
        let r = blank("spmv", 0, 0);
        assert_eq!(r.gflops(100), 0.0);
    }

    /// A report with every summed, maxed, and recomputed field non-zero, so
    /// the associativity test below cannot pass by a field being ignored.
    fn populated(tag: u64) -> ExecutionReport {
        let mut r = blank("symgs", 100 + tag, 1000 + 7 * tag);
        r.energy.alu_ops = 11 + tag;
        r.energy.re_ops = 5 + tag;
        r.energy.pe_ops = 3 + tag;
        r.energy.cache_accesses = 17 + tag;
        r.energy.buffer_ops = 9 + tag;
        r.energy.dram_bytes = 900 + tag;
        r.energy.reconfigs = 2 + tag;
        r.reconfig.switches = 2 + tag;
        r.reconfig.hidden_cycles = 20 + tag;
        r.reconfig.exposed_cycles = 1 + tag;
        r.cache.hits = 40 + tag;
        r.cache.misses = 8 + tag;
        r.cache.writes = 12 + tag;
        r.cache.busy_cycles = 30 + tag;
        r.datapaths.gemv_blocks = 6 + tag;
        r.datapaths.dsymgs_blocks = 4 + tag;
        r.datapaths.graph_blocks = 2 + tag;
        r.datapaths.iterations = 1 + tag;
        r.datapaths.link_stack_peak = 8 * (tag + 1);
        r.breakdown.gemv_cycles = 50 + tag;
        r.breakdown.dsymgs_cycles = 30 + tag;
        r.breakdown.graph_cycles = 10 + tag;
        r.breakdown.drain_cycles = 7 + tag;
        r.breakdown.recovery_cycles = 3 + tag;
        r.faults.injected = 5 + tag;
        r.faults.detected = 4 + tag;
        r.faults.recovered = 3 + tag;
        r.faults.retries = 2 + tag;
        r.faults.degraded = tag;
        r.breaker.trips = 1 + tag;
        r.breaker.half_open_probes = 2 + tag;
        r.breaker.cpu_fallback_runs = tag;
        r
    }

    #[test]
    fn merge_is_associative_across_all_fields() {
        let cfg = SimConfig::paper();
        let (a, b, c) = (populated(1), populated(2), populated(3));

        let mut left = a.clone();
        left.merge(&b, &cfg);
        left.merge(&c, &cfg);

        let mut bc = b.clone();
        bc.merge(&c, &cfg);
        let mut right = a.clone();
        right.merge(&bc, &cfg);

        assert_eq!(left, right);
        // The derived ratios are recomputed from the sums, not averaged —
        // spot-check against a from-scratch computation.
        assert!((left.seconds - cfg.cycles_to_seconds(left.cycles)).abs() < 1e-18);
        let expect_ctf = left.cache.busy_cycles as f64 / left.cycles as f64;
        assert!((left.cache_time_fraction - expect_ctf.min(1.0)).abs() < 1e-12);
        assert_eq!(
            left.datapaths.link_stack_peak, 32,
            "peak is a max, not a sum"
        );
    }

    #[test]
    fn charge_recovery_keeps_breakdown_invariant() {
        let cfg = SimConfig::paper();
        let mut r = populated(0);
        let before_total = r.breakdown.total();
        assert_eq!(before_total, r.cycles, "populated() must start consistent");
        r.charge_recovery(250, &cfg);
        assert_eq!(r.cycles, before_total + 250);
        assert_eq!(r.breakdown.total(), r.cycles);
        assert_eq!(r.breakdown.recovery_cycles, 3 + 250);
        assert!((r.seconds - cfg.cycles_to_seconds(r.cycles)).abs() < 1e-18);
        // Zero is a no-op.
        let snap = r.clone();
        r.charge_recovery(0, &cfg);
        assert_eq!(r, snap);
    }

    #[test]
    fn to_json_is_valid_and_covers_every_field() {
        let r = populated(1);
        let json = r.to_json();
        // Structural sanity without a JSON parser in the tree: balanced
        // braces, no trailing commas, every top-level key present.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(!json.contains(",}"), "{json}");
        for key in [
            "\"kernel\"",
            "\"cycles\"",
            "\"seconds\"",
            "\"bytes_streamed\"",
            "\"bandwidth_utilization\"",
            "\"cache_time_fraction\"",
            "\"energy\"",
            "\"reconfig\"",
            "\"cache\"",
            "\"datapaths\"",
            "\"breakdown\"",
            "\"faults\"",
            "\"breaker\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"kernel\":\"symgs\""));
        // Non-finite floats must not leak invalid JSON tokens.
        let mut broken = r;
        broken.seconds = f64::NAN;
        let json = broken.to_json();
        assert!(json.contains("\"seconds\":null"), "{json}");
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn cache_accesses_total() {
        let c = CacheStats {
            hits: 3,
            misses: 2,
            writes: 5,
            busy_cycles: 0,
        };
        assert_eq!(c.accesses(), 10);
    }
}

impl std::fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} cycles ({:.3} us), {:.1}% of peak bandwidth",
            self.kernel,
            self.cycles,
            self.seconds * 1e6,
            100.0 * self.bandwidth_utilization
        )?;
        writeln!(
            f,
            "  data paths: {} gemv, {} d-symgs, {} graph blocks over {} iteration(s)",
            self.datapaths.gemv_blocks,
            self.datapaths.dsymgs_blocks,
            self.datapaths.graph_blocks,
            self.datapaths.iterations
        )?;
        writeln!(
            f,
            "  cycles: {} gemv / {} d-symgs / {} graph / {} drain / {} recovery",
            self.breakdown.gemv_cycles,
            self.breakdown.dsymgs_cycles,
            self.breakdown.graph_cycles,
            self.breakdown.drain_cycles,
            self.breakdown.recovery_cycles
        )?;
        write!(
            f,
            "  {} reconfigurations ({} exposed cycles), cache {}/{} read hits, {} KiB streamed",
            self.reconfig.switches,
            self.reconfig.exposed_cycles,
            self.cache.hits,
            self.cache.hits + self.cache.misses,
            self.bytes_streamed / 1024
        )?;
        if self.faults.any() {
            write!(
                f,
                "\n  faults: {} injected, {} detected, {} recovered, {} retries, {} degraded run(s)",
                self.faults.injected,
                self.faults.detected,
                self.faults.recovered,
                self.faults.retries,
                self.faults.degraded
            )?;
        }
        if self.breaker.any() {
            write!(
                f,
                "\n  breaker: {} trip(s), {} half-open probe(s), {} CPU fallback run(s)",
                self.breaker.trips, self.breaker.half_open_probes, self.breaker.cpu_fallback_runs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_mentions_kernel() {
        let r = ExecutionReport {
            kernel: "spmv",
            cycles: 100,
            seconds: 4e-8,
            bytes_streamed: 2048,
            bandwidth_utilization: 0.5,
            cache_time_fraction: 0.1,
            energy: EnergyCounters::new(),
            reconfig: ReconfigStats::default(),
            cache: CacheStats::default(),
            datapaths: DataPathCounts::default(),
            breakdown: CycleBreakdown::default(),
            faults: FaultCounters::default(),
            breaker: BreakerStats::default(),
        };
        let text = r.to_string();
        assert!(text.contains("spmv"));
        assert!(text.contains("100 cycles"));
        assert!(text.contains("2 KiB"));
        assert!(!text.contains("faults:"));
        assert!(!text.contains("breaker:"));

        let mut faulty = r;
        faulty.faults.injected = 3;
        faulty.faults.detected = 3;
        faulty.faults.recovered = 2;
        faulty.breaker.trips = 1;
        faulty.breaker.cpu_fallback_runs = 2;
        let text = faulty.to_string();
        assert!(text.contains("faults: 3 injected, 3 detected, 2 recovered"));
        assert!(text.contains("breaker: 1 trip(s), 0 half-open probe(s), 2 CPU fallback run(s)"));
    }
}
