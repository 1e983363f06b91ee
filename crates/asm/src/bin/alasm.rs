//! `alasm`: assemble, disassemble, and round-trip ALRESCHA programs in
//! the textual ISA (DESIGN.md §15).
//!
//! Exit status: 0 on success, 1 when the input is rejected (assembly
//! diagnostics, preflight errors, or a round-trip mismatch), 2 on usage
//! or I/O failure.

use std::fs;
use std::process::ExitCode;

use alrescha::convert::{convert, KernelType};
use alrescha::program::ProgramBinary;
use alrescha_asm::container::{read_container, write_container};
use alrescha_asm::syntax::token_stream;
use alrescha_asm::{assemble_text, disassemble, render_json, AssembledProgram};
use alrescha_sim::SimConfig;
use alrescha_sparse::{gen, Coo};

const USAGE: &str = "alasm: assembler/disassembler for the ALRESCHA textual ISA

USAGE:
    alasm asm IN.alasm [-o OUT.alp] [--json] [--no-verify] [--quiet]
    alasm disasm IN.alp [-o OUT.alasm]
    alasm disasm --gen SPEC [--kernel NAME] [--omega N] [--seed N] [-o OUT.alasm]
    alasm roundtrip IN.alasm|IN.alp
    alasm roundtrip --gen SPEC [--kernel NAME] [--omega N] [--seed N]

SUBCOMMANDS:
    asm         parse + assemble a listing to the ALPR binary container;
                runs the full alverify preflight unless --no-verify
    disasm      render a container (or a converted synthetic matrix) as a
                canonical listing with alobs span cross-references
    roundtrip   disassemble, re-assemble, and check bit + token identity

MATRIX SOURCE for --gen (same grammar as alverify):
    stencil27:SIDE  banded:N:HALF_BAND  circuit:N  scattered:N:PER_ROW
    rmat:N:DEGREE   road:SIDE  science:CLASS:N  graph:CLASS:N

OPTIONS:
    --kernel NAME   spmv | symgs | bfs | sssp | pagerank | cc  [symgs]
    --omega N       block width for the ALF conversion          [8]
    --seed N        generator seed                              [42]
    -o FILE         write output here instead of stdout
    --json          emit assembler diagnostics as a JSON array
    --no-verify     skip the alverify preflight after assembly
    --quiet         suppress the success summary
    -h, --help      show this help

EXIT STATUS:
    0   success
    1   input rejected: assembler diagnostics (AL5xx), preflight errors
        (AL0xx-AL4xx), or a round-trip mismatch
    2   usage or I/O failure
";

struct Args {
    command: String,
    input: Option<String>,
    output: Option<String>,
    gen_spec: Option<String>,
    kernel: KernelType,
    omega: usize,
    seed: u64,
    json: bool,
    no_verify: bool,
    quiet: bool,
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
    let Some((command, rest)) = argv.split_first() else {
        return Err("missing subcommand (asm | disasm | roundtrip)".to_string());
    };
    if !matches!(command.as_str(), "asm" | "disasm" | "roundtrip") {
        return Err(format!("unknown subcommand '{command}'"));
    }
    let mut args = Args {
        command: command.clone(),
        input: None,
        output: None,
        gen_spec: None,
        kernel: KernelType::SymGs,
        omega: 8,
        seed: 42,
        json: false,
        no_verify: false,
        quiet: false,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--gen" => args.gen_spec = Some(value("--gen")?),
            "--kernel" => args.kernel = parse_kernel(&value("--kernel")?)?,
            "--omega" => {
                args.omega = value("--omega")?
                    .parse()
                    .map_err(|e| format!("--omega: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "-o" | "--output" => args.output = Some(value("-o")?),
            "--json" => args.json = true,
            "--no-verify" => args.no_verify = true,
            "--quiet" => args.quiet = true,
            other if !other.starts_with('-') && args.input.is_none() => {
                args.input = Some(other.to_string());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.input.is_none() && args.gen_spec.is_none() {
        return Err(format!("{command}: missing input file (or --gen SPEC)"));
    }
    if args.input.is_some() && args.gen_spec.is_some() {
        return Err(format!(
            "{command}: give either an input file or --gen, not both"
        ));
    }
    Ok(args)
}

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

/// Loads a program triple from a --gen spec or an input file (`.alp`
/// container or `.alasm` listing, sniffed by content).
fn load_program(args: &Args) -> Result<Result<AssembledProgram, String>, String> {
    if let Some(spec) = &args.gen_spec {
        let coo = generate(spec, args.seed)?;
        // Graph kernels stream the transposed adjacency (pull-style
        // gather), matching how the accelerator programs them.
        let coo = match args.kernel {
            KernelType::Bfs
            | KernelType::Sssp
            | KernelType::PageRank
            | KernelType::ConnectedComponents => coo.transpose(),
            _ => coo,
        };
        let (alf, table) = convert(args.kernel, &coo, args.omega)
            .map_err(|e| format!("conversion failed: {e}"))?;
        let binary =
            ProgramBinary::encode(args.kernel, &table, coo.rows().max(coo.cols()), args.omega);
        return Ok(Ok(AssembledProgram {
            kernel: args.kernel,
            binary,
            table,
            alf,
        }));
    }
    #[allow(clippy::unwrap_used)]
    let path = args.input.as_ref().unwrap(); // parse_args guarantees one source
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(b"ALPR") {
        return Ok(read_container(&bytes).map_err(|e| format!("{path}: {e}")));
    }
    let text = String::from_utf8(bytes).map_err(|e| format!("{path}: not UTF-8: {e}"))?;
    match assemble_text(&text) {
        Ok(program) => Ok(Ok(program)),
        Err(err) => Ok(Err(if args.json {
            render_json(&err.diagnostics)
        } else {
            format!("{err}")
        })),
    }
}

fn emit(args: &Args, content: &[u8]) -> Result<(), String> {
    if let Some(path) = &args.output {
        fs::write(path, content).map_err(|e| format!("{path}: {e}"))
    } else {
        use std::io::Write as _;
        std::io::stdout()
            .write_all(content)
            .map_err(|e| format!("stdout: {e}"))
    }
}

/// Runs the alverify preflight; returns the number of error diagnostics.
fn preflight(args: &Args, program: &AssembledProgram) -> usize {
    let config = SimConfig::paper().with_omega(program.alf.omega().max(1));
    let diags = alrescha_lint::verify(&program.binary, &program.alf, &config);
    let errors = alrescha_lint::count(&diags, alrescha_lint::Severity::Error);
    if errors > 0 && !args.quiet {
        if args.json {
            println!("{}", alrescha_lint::render_json(&diags));
        } else {
            eprint!("{}", alrescha_lint::render_text(&diags));
        }
    }
    errors
}

fn cmd_asm(args: &Args) -> Result<bool, String> {
    let program = match load_program(args)? {
        Ok(p) => p,
        Err(rendered) => {
            if args.json {
                println!("{rendered}");
            } else {
                eprintln!("{rendered}");
            }
            return Ok(false);
        }
    };
    if !args.no_verify && preflight(args, &program) > 0 {
        return Ok(false);
    }
    if args.output.is_some() {
        emit(args, &write_container(&program))?;
    }
    if !args.quiet {
        eprintln!(
            "assembled {} entries ({} bytes packed, {}-bit each){}",
            program.binary.entry_count(),
            program.binary.len_bytes(),
            program.table.entry_bits(),
            match &args.output {
                Some(path) => format!(" -> {path}"),
                None => " (no -o: container not written)".to_string(),
            }
        );
    }
    Ok(true)
}

fn cmd_disasm(args: &Args) -> Result<bool, String> {
    let program = match load_program(args)? {
        Ok(p) => p,
        Err(rendered) => {
            eprintln!("{rendered}");
            return Ok(false);
        }
    };
    let text = disassemble(program.kernel, &program.table, &program.alf);
    emit(args, text.as_bytes())?;
    Ok(true)
}

fn cmd_roundtrip(args: &Args) -> Result<bool, String> {
    let program = match load_program(args)? {
        Ok(p) => p,
        Err(rendered) => {
            eprintln!("{rendered}");
            return Ok(false);
        }
    };
    let text = disassemble(program.kernel, &program.table, &program.alf);
    let reassembled = match assemble_text(&text) {
        Ok(p) => p,
        Err(err) => {
            eprintln!("round-trip: canonical listing failed to assemble:\n{err}");
            return Ok(false);
        }
    };
    if reassembled.binary.as_bytes() != program.binary.as_bytes() {
        eprintln!("round-trip: program bits diverged");
        return Ok(false);
    }
    if reassembled.alf != program.alf {
        eprintln!("round-trip: ALF payload diverged");
        return Ok(false);
    }
    let text2 = disassemble(reassembled.kernel, &reassembled.table, &reassembled.alf);
    if token_stream(&text) != token_stream(&text2) {
        eprintln!("round-trip: token stream diverged");
        return Ok(false);
    }
    if !args.quiet {
        eprintln!(
            "round-trip ok: {} entries, {} packed bytes, {} tokens",
            program.binary.entry_count(),
            program.binary.len_bytes(),
            token_stream(&text).len()
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("alasm: {err}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "asm" => cmd_asm(&args),
        "disasm" => cmd_disasm(&args),
        _ => cmd_roundtrip(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("alasm: {err}");
            ExitCode::from(2)
        }
    }
}
