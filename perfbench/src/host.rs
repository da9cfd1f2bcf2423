//! What a result records about the machine and build, and the process's
//! peak memory. Linux `/proc` only.

use eraser_json::Value;
use std::process::Command;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a tool's standard output, or `"unknown"` when the tool is
/// missing or fails (the benchmark may run outside a git checkout).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and build a result was measured on.
pub fn context(workload: &str, seed: u64, seconds: f64, trace: bool) -> Value {
    let mut v = Value::object();
    v.set("type", "context");
    v.set("workload", workload);
    v.set("seed", seed);
    v.set("seconds", seconds);
    v.set("trace", trace);
    v.set("nproc", nproc());
    v.set("cpu_model", cpu_model());
    v.set("rustc", tool_line("rustc", &["--version"]));
    v.set("git_commit", tool_line("git", &["rev-parse", "HEAD"]));
    v.set(
        "malloc_arena_max",
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "unset".into()),
    );
    v
}

/// Peak resident memory of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ticks the hypervisor ran something else on this guest's CPUs (the
/// `steal` column of `/proc/stat`), summed over CPUs; 0 where unknown.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            text.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse().ok())
        })
        .unwrap_or(0)
}
