//! Provenance of a result and process memory readings.

use crate::Args;
use std::process::{Command, Stdio};

/// One JSON line naming what produced the result: the git revision read
/// from the repository now (never a baked-in default that can go stale),
/// the host, the distance-kernel backend, and the workload seed.
pub fn provenance(args: &Args) -> String {
    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = String::from("{\"provenance\": {\"git_rev\": ");
    v2v_obs::json::write_escaped(&mut out, &rev);
    out.push_str(&format!(", \"nproc\": {}, \"cpu_model\": ", nproc()));
    v2v_obs::json::write_escaped(&mut out, &cpu);
    out.push_str(&format!(
        ", \"kernel_backend\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        v2v_linalg::kernels::backend_name(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    ));
    out
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".into(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}
