//! Host facts every run prints: core count, CPU, the data directory's
//! filesystem (fsync cost depends on it), toolchain, and commit.

use std::path::Path;
use std::process::Command;

fn first_line_with(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// Host L2 size as the kernel reports it for cpu0.
pub fn l2_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Peak resident set of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    first_line_with("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The mount holding `dir`: filesystem type and mount point.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && dir.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} at {}", f[2], f[1])))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, s)| s)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

pub fn print_facts(data_dir: &Path) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!("host nproc={nproc}");
    println!(
        "host cpu={}",
        first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
    );
    println!("host l2={}", l2_size());
    println!("host data_dir_fs={}", filesystem_of(data_dir));
    println!("host rustc={}", command_line("rustc", &["--version"], root));
    println!(
        "host commit={}",
        command_line("git", &["rev-parse", "HEAD"], root)
    );
}
