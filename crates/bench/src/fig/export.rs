//! CSV export of every figure's rows — the plotting-friendly artifact
//! (`figures --out DIR`).

use std::fs;
use std::io::Write;
use std::path::Path;

use alrescha_obs::json::Value;

use crate::fig;

/// Writes one CSV file.
fn write_csv(
    dir: &Path,
    name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> std::io::Result<()> {
    let mut file = fs::File::create(dir.join(name))?;
    writeln!(file, "{header}")?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    Ok(())
}

/// Exports every figure's data as CSV into `dir` (created if missing).
/// Returns the file names written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_all(dir: &Path, n: usize) -> std::io::Result<Vec<&'static str>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    write_csv(
        dir,
        "fig15_pcg_speedup.csv",
        "dataset,alrescha_speedup,memristive_speedup,alrescha_bw_util,memristive_bw_util",
        fig::pcg::figure15(n).iter().map(|r| {
            format!(
                "{},{},{},{},{}",
                r.dataset,
                r.alrescha_speedup,
                r.memristive_speedup,
                r.alrescha_bw_utilization,
                r.memristive_bw_utilization
            )
        }),
    )?;
    written.push("fig15_pcg_speedup.csv");

    write_csv(
        dir,
        "fig16_sequential_ops.csv",
        "dataset,gpu_sequential_pct,alrescha_sequential_pct",
        fig::pcg::figure16(n).iter().map(|r| {
            format!(
                "{},{},{}",
                r.dataset, r.gpu_sequential_pct, r.alrescha_sequential_pct
            )
        }),
    )?;
    written.push("fig16_sequential_ops.csv");

    write_csv(
        dir,
        "fig17_graph_speedup.csv",
        "kernel,dataset,alrescha_speedup,graphr_speedup,gpu_speedup",
        fig::graph::figure17(n / 2).iter().map(|r| {
            format!(
                "{:?},{},{},{},{}",
                r.kernel, r.dataset, r.alrescha_speedup, r.graphr_speedup, r.gpu_speedup
            )
        }),
    )?;
    written.push("fig17_graph_speedup.csv");

    write_csv(
        dir,
        "fig18_spmv_speedup.csv",
        "dataset,suite,alrescha_speedup,outerspace_speedup,alrescha_cache_pct,outerspace_cache_pct",
        fig::spmv::figure18(n).iter().map(|r| {
            format!(
                "{},{},{},{},{},{}",
                r.dataset,
                r.suite,
                r.alrescha_speedup,
                r.outerspace_speedup,
                r.alrescha_cache_pct,
                r.outerspace_cache_pct
            )
        }),
    )?;
    written.push("fig18_spmv_speedup.csv");

    write_csv(
        dir,
        "fig19_energy.csv",
        "dataset,alrescha_joules,vs_cpu,vs_gpu",
        fig::energy::figure19(n).iter().map(|r| {
            format!(
                "{},{},{},{}",
                r.dataset, r.alrescha_joules, r.vs_cpu, r.vs_gpu
            )
        }),
    )?;
    written.push("fig19_energy.csv");

    write_csv(
        dir,
        "fig12_format_metadata.csv",
        "matrix,coo,csr,dia,ell,bcsr,alrescha",
        fig::format::figure12(n).iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{}",
                r.matrix, r.coo, r.csr, r.dia, r.ell, r.bcsr, r.alrescha
            )
        }),
    )?;
    written.push("fig12_format_metadata.csv");

    write_csv(
        dir,
        "ablation_block_size.csv",
        "dataset,omega,pcg_iter_seconds,block_fill,bw_utilization",
        fig::ablation::block_size_sweep(n / 2).iter().map(|r| {
            format!(
                "{},{},{},{},{}",
                r.dataset, r.omega, r.pcg_iter_seconds, r.block_fill, r.bw_utilization
            )
        }),
    )?;
    written.push("ablation_block_size.csv");

    write_csv(
        dir,
        "ablation_bandwidth.csv",
        "dataset,bandwidth_gbps,spmv_seconds,symgs_seconds",
        fig::ablation::bandwidth_sweep(n / 2).iter().map(|r| {
            format!(
                "{},{},{},{}",
                r.dataset, r.bandwidth_gbps, r.spmv_seconds, r.symgs_seconds
            )
        }),
    )?;
    written.push("ablation_bandwidth.csv");

    Ok(written)
}

/// One `BENCH_<workload>.json` document: a named row set plus the scale
/// it was measured at, serialized through the house JSON model so the
/// output is guaranteed to re-parse.
fn write_bench_json(
    dir: &Path,
    workload: &str,
    scale: usize,
    rows: Vec<Value>,
) -> std::io::Result<String> {
    let name = format!("BENCH_{workload}.json");
    let doc = Value::Obj(vec![
        ("workload".to_owned(), Value::Str(workload.to_owned())),
        ("scale".to_owned(), Value::Num(scale as f64)),
        ("rows".to_owned(), Value::Arr(rows)),
    ]);
    fs::write(dir.join(&name), doc.to_json())?;
    Ok(name)
}

fn row(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_owned())
}

/// Writes machine-readable benchmark results as `BENCH_<workload>.json`
/// files into `dir` (created if missing) — the CI artifact counterpart
/// of the human tables. Returns the file names written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_bench_json(dir: &Path, n: usize) -> std::io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    written.push(write_bench_json(
        dir,
        "pcg",
        n,
        fig::pcg::figure15(n)
            .iter()
            .map(|r| {
                row(vec![
                    ("dataset", s(&r.dataset)),
                    ("alrescha_speedup", num(r.alrescha_speedup)),
                    ("memristive_speedup", num(r.memristive_speedup)),
                    ("alrescha_bw_utilization", num(r.alrescha_bw_utilization)),
                    (
                        "memristive_bw_utilization",
                        num(r.memristive_bw_utilization),
                    ),
                ])
            })
            .collect(),
    )?);

    written.push(write_bench_json(
        dir,
        "spmv",
        n,
        fig::spmv::figure18(n)
            .iter()
            .map(|r| {
                row(vec![
                    ("dataset", s(&r.dataset)),
                    ("suite", s(r.suite)),
                    ("alrescha_speedup", num(r.alrescha_speedup)),
                    ("outerspace_speedup", num(r.outerspace_speedup)),
                    ("alrescha_cache_pct", num(r.alrescha_cache_pct)),
                    ("outerspace_cache_pct", num(r.outerspace_cache_pct)),
                ])
            })
            .collect(),
    )?);

    written.push(write_bench_json(
        dir,
        "graph",
        n,
        fig::graph::figure17(n / 2)
            .iter()
            .map(|r| {
                row(vec![
                    ("kernel", s(&format!("{:?}", r.kernel))),
                    ("dataset", s(&r.dataset)),
                    ("alrescha_speedup", num(r.alrescha_speedup)),
                    ("graphr_speedup", num(r.graphr_speedup)),
                    ("gpu_speedup", num(r.gpu_speedup)),
                ])
            })
            .collect(),
    )?);

    written.push(write_bench_json(
        dir,
        "energy",
        n,
        fig::energy::figure19(n)
            .iter()
            .map(|r| {
                row(vec![
                    ("dataset", s(&r.dataset)),
                    ("alrescha_joules", num(r.alrescha_joules)),
                    ("vs_cpu", num(r.vs_cpu)),
                    ("vs_gpu", num(r.vs_gpu)),
                ])
            })
            .collect(),
    )?);

    written.push(write_bench_json(
        dir,
        "format",
        n,
        fig::format::figure12(n)
            .iter()
            .map(|r| {
                row(vec![
                    ("matrix", s(r.matrix)),
                    ("coo", num(r.coo)),
                    ("csr", num(r.csr)),
                    ("dia", num(r.dia)),
                    ("ell", num(r.ell)),
                    ("bcsr", num(r.bcsr)),
                    ("alrescha", num(r.alrescha)),
                ])
            })
            .collect(),
    )?);

    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_every_csv_with_headers_and_rows() {
        let dir = std::env::temp_dir().join(format!("alrescha-export-{}", std::process::id()));
        let written = export_all(&dir, 300).expect("export succeeds");
        assert_eq!(written.len(), 8);
        for name in &written {
            let text = fs::read_to_string(dir.join(name)).expect("file exists");
            let lines: Vec<&str> = text.lines().collect();
            assert!(lines.len() >= 2, "{name} must have header plus rows");
            assert!(lines[0].contains(','), "{name} header is csv");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_json_files_reparse_with_rows() {
        let dir = std::env::temp_dir().join(format!("alrescha-benchjson-{}", std::process::id()));
        let written = export_bench_json(&dir, 300).expect("export succeeds");
        assert_eq!(written.len(), 5);
        for name in &written {
            assert!(name.starts_with("BENCH_"));
            let ext = std::path::Path::new(name).extension();
            assert!(ext.is_some_and(|e| e.eq_ignore_ascii_case("json")));
            let text = fs::read_to_string(dir.join(name)).expect("file exists");
            let doc = Value::parse(&text).expect("valid JSON");
            assert!(doc.get("workload").and_then(Value::as_str).is_some());
            let rows = doc.get("rows").and_then(Value::as_arr).expect("rows array");
            assert!(!rows.is_empty(), "{name} must have rows");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
