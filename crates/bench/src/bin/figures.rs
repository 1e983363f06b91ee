//! `figures` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures --all                 # everything at default scale
//! figures --fig 15              # one figure
//! figures --fig 15 --scale 2000 # bigger matrices
//! figures --datasets            # dataset inventory
//! figures --table 2             # the feature matrix
//! figures --ablation block-size # the §5.2 block-width sweep
//! ```

use alrescha_bench::fig;

struct Args {
    verify: bool,
    out: Option<String>,
    fig: Option<u32>,
    table: Option<u32>,
    datasets: bool,
    breakdown: bool,
    ablation: Option<String>,
    fleet: bool,
    all: bool,
    scale: usize,
    skip_preflight: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    bench_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        verify: false,
        out: None,
        fig: None,
        table: None,
        datasets: false,
        breakdown: false,
        ablation: None,
        fleet: false,
        all: false,
        scale: 1000,
        skip_preflight: false,
        trace_out: None,
        metrics_out: None,
        bench_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fig" => {
                let v = it.next().ok_or("--fig needs a number")?;
                args.fig = Some(v.parse().map_err(|_| format!("bad figure number {v}"))?);
            }
            "--table" => {
                let v = it.next().ok_or("--table needs a number")?;
                args.table = Some(v.parse().map_err(|_| format!("bad table number {v}"))?);
            }
            "--datasets" => args.datasets = true,
            "--breakdown" => args.breakdown = true,
            "--verify" => args.verify = true,
            "--out" => {
                args.out = Some(it.next().ok_or("--out needs a directory")?);
            }
            "--ablation" => {
                args.ablation = Some(it.next().ok_or("--ablation needs a name")?);
            }
            "--fleet" => args.fleet = true,
            "--trace-out" => {
                args.trace_out = Some(it.next().ok_or("--trace-out needs a path")?);
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?);
            }
            "--bench-out" => {
                args.bench_out = Some(it.next().ok_or("--bench-out needs a directory")?);
            }
            "--all" => args.all = true,
            "--skip-preflight" => args.skip_preflight = true,
            "--scale" => {
                let v = it.next().ok_or("--scale needs a number")?;
                args.scale = v.parse().map_err(|_| format!("bad scale {v}"))?;
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn print_help() {
    println!("figures — regenerate the ALRESCHA paper's evaluation artifacts");
    println!("  --all                 run every figure and table");
    println!("  --fig <3|6|12|15|16|17|18|19>");
    println!("  --table <1|2|3>");
    println!("  --datasets            dataset inventory (Figure 14 / Table 3)");
    println!("  --breakdown           device-side SymGS cycle breakdown");
    println!("  --verify              check every headline claim; exit 1 on failure");
    println!("  --out <dir>           export every figure's rows as CSV");
    println!("  --bench-out <dir>     write machine-readable BENCH_<workload>.json results");
    println!("  --ablation block-size the §5.2 block-width sweep");
    println!("  --ablation drain      drain-hidden reconfiguration cost");
    println!("  --ablation reorder    RCM-before-conversion fill/time sweep");
    println!("  --ablation cache      local-cache geometry sweep");
    println!("  --ablation format     locally-dense vs CSR streaming on the same hardware");
    println!("  --ablation bandwidth  memory-bandwidth scaling sweep");
    println!("  --fleet               batched-execution throughput (fleet vs sequential)");
    println!(
        "  --trace-out <path>    run an instrumented fleet batch; write a Chrome/Perfetto trace"
    );
    println!("  --metrics-out <path>  same batch; write the metrics-registry JSON snapshot");
    println!("  --scale <n>           approximate matrix dimension (default 1000)");
    println!("  --skip-preflight      skip the alverify static-verification sub-step");
}

fn run_figure(num: u32, n: usize) {
    match num {
        3 => fig::pcg::print_figure3(n),
        6 => fig::hpcg::print_figure6(n),
        12 => fig::format::print_figure12(n),
        15 => fig::pcg::print_figure15(n),
        16 => fig::pcg::print_figure16(n),
        17 => fig::graph::print_figure17(n / 2),
        18 => fig::spmv::print_figure18(n),
        19 => fig::energy::print_figure19(n),
        other => eprintln!("figure {other} is not part of the evaluation harness"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            print_help();
            std::process::exit(2);
        }
    };
    let n = args.scale;
    let mut ran = false;

    // Static-verification sub-step: refuse to benchmark artifacts the
    // alverify rule catalog rejects (opt out with --skip-preflight).
    let benchmarks_requested = args.all
        || args.fig.is_some()
        || args.breakdown
        || args.ablation.is_some()
        || args.out.is_some()
        || args.bench_out.is_some();
    if benchmarks_requested && !args.skip_preflight {
        match alrescha_bench::preflight_suites(n) {
            Ok(checked) => println!("preflight: {checked} dataset/kernel pairs verified clean\n"),
            Err(msg) => {
                eprintln!("preflight refused (rerun with --skip-preflight to override):");
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }

    if args.verify {
        let ok = alrescha_bench::verify::print_verification(n);
        std::process::exit(i32::from(!ok));
    }
    if let Some(dir) = &args.out {
        match fig::export::export_all(std::path::Path::new(dir), n) {
            Ok(files) => {
                println!("wrote {} csv files to {dir}:", files.len());
                for f in files {
                    println!("  {f}");
                }
            }
            Err(e) => {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            }
        }
        ran = true;
    }
    if let Some(dir) = &args.bench_out {
        match fig::export::export_bench_json(std::path::Path::new(dir), n) {
            Ok(files) => {
                println!("wrote {} benchmark JSON files to {dir}:", files.len());
                for f in files {
                    println!("  {f}");
                }
            }
            Err(e) => {
                eprintln!("bench export failed: {e}");
                std::process::exit(1);
            }
        }
        ran = true;
    }

    if args.all {
        for f in [3u32, 6, 12, 15, 16, 17, 18, 19] {
            run_figure(f, n);
            println!();
        }
        fig::table1::print_table1();
        println!();
        fig::table2::print_table2();
        println!();
        fig::graph::print_table3_report(n / 2);
        println!();
        fig::datasets::print_inventory(n, n / 2);
        println!();
        fig::breakdown::print_symgs_breakdown(n);
        println!();
        fig::ablation::print_block_size_sweep(n / 2);
        println!();
        fig::ablation::print_drain_sweep(n / 2);
        println!();
        fig::ablation::print_reorder_sweep(n / 2);
        println!();
        fig::ablation::print_cache_sweep(n / 2);
        println!();
        fig::ablation::print_format_sweep(n / 2);
        println!();
        fig::ablation::print_bandwidth_sweep(n / 2);
        return;
    }
    if let Some(f) = args.fig {
        run_figure(f, n);
        ran = true;
    }
    if let Some(t) = args.table {
        match t {
            1 => fig::table1::print_table1(),
            2 => fig::table2::print_table2(),
            3 => fig::graph::print_table3_report(n / 2),
            other => eprintln!("table {other} is not part of the evaluation harness"),
        }
        ran = true;
    }
    if args.datasets {
        fig::datasets::print_inventory(n, n / 2);
        ran = true;
    }
    if args.breakdown {
        fig::breakdown::print_symgs_breakdown(n);
        ran = true;
    }
    if let Some(name) = &args.ablation {
        match name.as_str() {
            "block-size" => fig::ablation::print_block_size_sweep(n / 2),
            "drain" => fig::ablation::print_drain_sweep(n / 2),
            "reorder" => fig::ablation::print_reorder_sweep(n / 2),
            "cache" => fig::ablation::print_cache_sweep(n / 2),
            "format" => fig::ablation::print_format_sweep(n / 2),
            "bandwidth" => fig::ablation::print_bandwidth_sweep(n / 2),
            other => {
                eprintln!("unknown ablation {other}; try block-size, drain, reorder, cache, format, bandwidth");
            }
        }
        ran = true;
    }
    if args.fleet {
        alrescha_bench::fleet::print_fleet_throughput(n);
        ran = true;
    }
    if args.trace_out.is_some() || args.metrics_out.is_some() {
        let tele = alrescha_obs::Telemetry::new();
        let report = alrescha_bench::fleet::instrumented_batch(n, &tele);
        println!(
            "telemetry batch: {} jobs completed at 4 workers",
            report.stats.completed
        );
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, alrescha_obs::export_chrome_trace(&tele)) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote Chrome trace to {path} — open it at https://ui.perfetto.dev");
        }
        if let Some(path) = &args.metrics_out {
            if let Err(e) = std::fs::write(path, tele.metrics().snapshot_json()) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote metrics snapshot to {path} (inspect with `alobs metrics {path}`)");
        }
        ran = true;
    }
    if !ran {
        print_help();
    }
}
