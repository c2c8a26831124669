//! The `serve_read` workload: Zipf-skewed `/neighbors` + `/predict` over
//! two pipelined keep-alive connections.

use crate::serve::{self, Popularity, Rng, CONN_RATE};
use crate::{embed, ingest, Args, Report};
use std::time::Instant;

/// Zipf exponent of vertex popularity.
const ZIPF_S: f64 = 0.99;
/// Client connections, each on its own thread.
const CONNS: usize = 2;
/// Offered rate of the fixed-rate phase over all connections.
const READ_RATE: f64 = CONN_RATE * CONNS as f64;
/// Start of the schedule, seconds after the phase clock starts.
const T0: f64 = 0.2;

pub fn run(args: &Args) -> Result<Report, String> {
    let prep = serve::prepare(args)?;
    let mut rng = Rng::new(args.seed);
    let pop = Popularity::zipf(prep.vertices(), ZIPF_S, &mut rng);
    let mut report = Report::default();
    let (server, setup) = serve::start_median(args, &prep, false, &mut report)?;

    // Fixed-rate open loop: the whole run, or half of the traced run.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let stream = serve::reads((READ_RATE * secs) as usize, &pop, true, &mut rng);
    let plans = serve::read_plan(&stream, READ_RATE, T0, CONNS);
    let (replies, conn) = serve::drive(&server.addr, plans, Instant::now());
    serve::account(&mut report, &replies, &conn, "fixed-rate reads");
    eprintln!("reads: p99 {:.3} ms", serve::windowed(&replies, 0.99) * 1e3);

    if args.trace {
        let batches = ingest::Batches::new(&prep.input.labels, ingest::TRACE_S, &mut rng);
        let overhead = serve::trace_layers(args, &prep, server, &stream, &batches, &mut report)?;
        let state = serve::load_state(&prep)?;
        serve::check_samples(&mut report, &state, &stream, &replies);
        embed::report_stages(prep.stages.as_slice(), &mut report);
        report.metric("trace.overhead_pct", overhead, "%");
        return Ok(report);
    }

    let rss = server.peak_rss_mb()?;
    report.check(server.stop(), || {
        "v2v serve did not exit 0 on SIGINT".into()
    });
    let state = serve::load_state(&prep)?;
    let recall = serve::check_samples(&mut report, &state, &stream, &replies);

    report.metric("setup_s", setup, "s");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("latency_p50_ms", serve::windowed(&replies, 0.5) * 1e3, "ms");
    report.metric("quality", recall, "ratio");
    Ok(report)
}
