//! `alverify`: run the static verifier over a generated or Matrix Market
//! matrix and report typed diagnostics as text or JSON.
//!
//! Exit status: 0 when no `error`-severity diagnostics were found, 1 when
//! at least one error was found, 2 on usage or I/O failure.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use alrescha::convert::{convert, KernelType};
use alrescha::program::ProgramBinary;
use alrescha_lint::{analyze, count, render_json, render_text, verify, Severity, RULES};
use alrescha_sim::SimConfig;
use alrescha_sparse::{gen, mm, Coo};

const USAGE: &str = "alverify: static data-path/format verifier for ALRESCHA programs

USAGE:
    alverify [OPTIONS]

MATRIX SOURCE (pick one; default --gen stencil27:4):
    --gen SPEC          synthetic matrix:
                          stencil27:SIDE        27-point stencil, n = SIDE^3
                          banded:N:HALF_BAND    banded SPD system
                          circuit:N             circuit-simulation pattern
                          scattered:N:PER_ROW   scattered off-diagonals
                          rmat:N:DEGREE         R-MAT graph
                          road:SIDE             road-network grid graph
                          science:CLASS:N       a Table 3 science class by name
                          graph:CLASS:N         a Table 3 graph class by name
    --mtx FILE          read a Matrix Market coordinate file

VERIFICATION OPTIONS:
    --kernel NAME       spmv | symgs | bfs | sssp | pagerank | cc  [symgs]
    --omega N           block width for the ALF conversion          [8]
    --config-omega N    engine block width, if different            [--omega]
    --seed N            generator seed                              [42]

OUTPUT:
    --json              emit the diagnostic list as JSON
    --quiet             suppress per-diagnostic lines, keep the summary
    --analyze           also run the alprove abstract interpreter (AL4xx)
                        and report its resource/cycle bounds; with --json
                        the output becomes {\"diagnostics\":..,\"analysis\":..}
    --list-rules        print the rule catalog (code, severity, summary)
                        and exit
    -h, --help          show this help

EXIT STATUS:
    0   no error-severity diagnostics (warnings and notes may exist)
    1   at least one error-severity diagnostic: the program is rejected
    2   usage or I/O failure (bad flags, unreadable matrix, conversion error)
";

struct Args {
    kernel: KernelType,
    gen_spec: String,
    mtx: Option<String>,
    omega: usize,
    config_omega: Option<usize>,
    seed: u64,
    json: bool,
    quiet: bool,
    analyze: bool,
    list_rules: bool,
}

fn parse_kernel(name: &str) -> Result<KernelType, String> {
    match name.to_ascii_lowercase().as_str() {
        "spmv" => Ok(KernelType::SpMv),
        "symgs" => Ok(KernelType::SymGs),
        "bfs" => Ok(KernelType::Bfs),
        "sssp" => Ok(KernelType::Sssp),
        "pagerank" | "pr" => Ok(KernelType::PageRank),
        "cc" | "connected-components" => Ok(KernelType::ConnectedComponents),
        other => Err(format!("unknown kernel '{other}'")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kernel: KernelType::SymGs,
        gen_spec: "stencil27:4".to_string(),
        mtx: None,
        omega: 8,
        config_omega: None,
        seed: 42,
        json: false,
        quiet: false,
        analyze: false,
        list_rules: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--kernel" => args.kernel = parse_kernel(&value("--kernel")?)?,
            "--gen" => args.gen_spec = value("--gen")?,
            "--mtx" => args.mtx = Some(value("--mtx")?),
            "--omega" => {
                args.omega = value("--omega")?
                    .parse()
                    .map_err(|e| format!("--omega: {e}"))?;
            }
            "--config-omega" => {
                args.config_omega = Some(
                    value("--config-omega")?
                        .parse()
                        .map_err(|e| format!("--config-omega: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--json" => args.json = true,
            "--quiet" => args.quiet = true,
            "--analyze" => args.analyze = true,
            "--list-rules" => args.list_rules = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.omega == 0 {
        return Err("--omega must be at least 1".to_string());
    }
    Ok(args)
}

/// Builds the matrix from `--gen SPEC` (see USAGE for the grammar).
fn generate(spec: &str, seed: u64) -> Result<Coo, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let dim = |idx: usize, what: &str| -> Result<usize, String> {
        parts
            .get(idx)
            .ok_or_else(|| format!("--gen {spec}: missing {what}"))?
            .parse()
            .map_err(|e| format!("--gen {spec}: {what}: {e}"))
    };
    match parts[0].to_ascii_lowercase().as_str() {
        "stencil27" => Ok(gen::stencil27(dim(1, "SIDE")?)),
        "banded" => Ok(gen::banded(dim(1, "N")?, dim(2, "HALF_BAND")?, seed)),
        "circuit" => Ok(gen::circuit(dim(1, "N")?, seed)),
        "scattered" => Ok(gen::scattered(dim(1, "N")?, dim(2, "PER_ROW")?, seed)),
        "rmat" => Ok(gen::rmat(dim(1, "N")?, dim(2, "DEGREE")?, seed)),
        "road" => Ok(gen::road_grid(dim(1, "SIDE")?)),
        "science" => {
            let name = parts.get(1).ok_or("--gen science: missing CLASS")?;
            let class = gen::ScienceClass::ALL
                .into_iter()
                .find(|c| c.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown science class '{name}'"))?;
            Ok(class.generate(dim(2, "N")?, seed))
        }
        "graph" => {
            let name = parts.get(1).ok_or("--gen graph: missing CLASS")?;
            let class = gen::GraphClass::ALL
                .into_iter()
                .find(|c| c.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown graph class '{name}'"))?;
            Ok(class.generate(dim(2, "N")?, seed))
        }
        other => Err(format!("unknown generator '{other}'")),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let coo = match &args.mtx {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            mm::read_matrix_market(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?
        }
        None => generate(&args.gen_spec, args.seed)?,
    };
    // Graph kernels stream the transposed adjacency (pull-style gather),
    // matching how the accelerator programs them.
    let coo = match args.kernel {
        KernelType::Bfs
        | KernelType::Sssp
        | KernelType::PageRank
        | KernelType::ConnectedComponents => coo.transpose(),
        _ => coo,
    };
    let (alf, table) =
        convert(args.kernel, &coo, args.omega).map_err(|e| format!("conversion failed: {e}"))?;
    let program =
        ProgramBinary::encode(args.kernel, &table, coo.rows().max(coo.cols()), args.omega);
    let config = SimConfig::paper().with_omega(args.config_omega.unwrap_or(args.omega));

    let diags = verify(&program, &alf, &config);
    let analysis = if args.analyze {
        Some(analyze(&program, &alf, &config))
    } else {
        None
    };
    if args.json {
        match &analysis {
            Some(Ok(a)) => println!(
                "{{\"diagnostics\":{},\"analysis\":{}}}",
                render_json(&diags),
                a.to_json(&config)
            ),
            Some(Err(errs)) => println!(
                "{{\"diagnostics\":{},\"analysis\":null,\"analysis_errors\":{}}}",
                render_json(&diags),
                render_json(errs)
            ),
            None => println!("{}", render_json(&diags)),
        }
    } else if args.quiet {
        let lines = render_text(&diags);
        if let Some(summary) = lines.lines().last() {
            println!("{summary}");
        }
    } else {
        println!(
            "alverify: {:?} on {}x{} ({} non-zeros), ω={}",
            args.kernel,
            coo.rows(),
            coo.cols(),
            coo.entries().len(),
            args.omega
        );
        println!("{}", render_text(&diags));
        match &analysis {
            Some(Ok(a)) => {
                println!(
                    "alprove: link stack {}/{} entries, operand FIFO {}/{} values",
                    a.link_stack_bound,
                    config.link_stack_capacity(),
                    a.operand_fifo_bound,
                    config.operand_fifo_capacity()
                );
                println!(
                    "alprove: cycle bound {} (overhead {}, {}/round, {} runs)",
                    a.cycle_bound.admission_bound(),
                    a.cycle_bound.overhead_cycles,
                    a.cycle_bound.steady_cycles,
                    a.cycle_bound.runs_per_application
                );
                println!("{}", render_text(&a.diagnostics));
            }
            Some(Err(errs)) => println!("{}", render_text(errs)),
            None => {}
        }
    }
    let structurally_clean = count(&diags, Severity::Error) == 0;
    let provably_safe = match &analysis {
        Some(Ok(a)) => a.is_admissible(),
        Some(Err(_)) => false,
        None => true,
    };
    Ok(structurally_clean && provably_safe)
}

fn print_rules(json: bool) {
    if json {
        let rows: Vec<String> = RULES
            .iter()
            .map(|r| {
                format!(
                    "{{\"code\":\"{}\",\"severity\":\"{}\",\"summary\":\"{}\"}}",
                    r.code,
                    r.severity.label(),
                    r.summary
                )
            })
            .collect();
        println!("[{}]", rows.join(","));
    } else {
        for r in RULES {
            println!("{}  {:<7}  {}", r.code, r.severity.label(), r.summary);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("alverify: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        print_rules(args.json);
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("alverify: {msg}");
            ExitCode::from(2)
        }
    }
}
