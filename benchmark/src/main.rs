//! The V2V benchmark: one command runs one workload, checks the program's
//! outputs, and prints every metric by name and unit.
//!
//! ```text
//! bash benchmark/run.sh --workload <embed|serve_read|serve_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload the way users drive it and reports the
//! end-to-end metrics; `--trace 1` additionally times calls into each
//! layer crate's public functions on the same inputs and reports the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it carries the provenance. `README.md` lists
//! every metric and the end-to-end metric each layer metric should move.

mod client;
mod embed;
mod host;
mod ingest;
mod read;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments, checked once on entry.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase of one run lasts.
    pub seconds: f64,
    pub trace: bool,
    /// The shipped `v2v` binary, driven as a child process.
    pub v2v: PathBuf,
    /// Scratch directory for generated inputs; removed at exit.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["embed", "serve_read", "serve_ingest"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (embed, serve_read, serve_ingest)"
        ));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    let seed = seed.ok_or("--seed is required")?;
    // `run.sh` builds `v2v` into the same target directory as this binary.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let v2v = PathBuf::from(target).join("release").join("v2v");
    // One directory per process, so concurrent runs never share files.
    let work =
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        v2v,
        work,
    })
}

/// What one workload run hands back for the result line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Failed output checks; any entry makes the run incorrect.
    errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an output check; `what` explains a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let correct = self.errors.is_empty() && self.metrics.iter().all(|m| m.1.is_finite());
        out.push_str(&format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        ));
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("benchmark: cannot create {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "embed" => embed::run(&args),
        "serve_read" => read::run(&args),
        _ => ingest::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Some(parent) = args.work.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    match result {
        Ok(report) => {
            for e in &report.errors {
                eprintln!("benchmark: CHECK FAILED: {e}");
            }
            println!("{}", host::provenance(&args));
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
