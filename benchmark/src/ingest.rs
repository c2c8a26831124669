//! The `serve_ingest` workload: one keep-alive reader beside one writer
//! that POSTs edge batches over fresh connections, as `v2v ingest` does.

use crate::client::{self, ConnStats, Planned, Reply};
use crate::serve::{self, Popularity, Rng, CONN_RATE};
use crate::{embed, stats, Args, Report};
use std::time::{Duration, Instant};
use v2v_serve::ingest::IngestConfig;
use v2v_serve::ServeHandle;

/// Edges per `POST /ingest` batch, and batches per second.
const INGEST_BATCH: usize = 8;
const INGEST_RATE: f64 = 40.0;
/// `/healthz` polls interleaved into the read stream, seconds apart;
/// the resolution of the freshness figures.
const HEALTH_POLL_S: f64 = 0.005;
/// The writer stops sleeping this long before a batch is due.
const SPIN_S: f64 = 0.002;
/// How long every ACKed edge may take to be applied after the run.
const APPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Start of the schedules, seconds after the phase clock starts.
const T0: f64 = 0.2;

/// Seconds of batches the traced runs of the other workloads feed the
/// in-process ingest pipeline.
pub const TRACE_S: f64 = 5.0;

/// A writer's schedule: edge batches (`POST /ingest` bodies) and the
/// seconds after start each is due.
pub struct Batches {
    bodies: Vec<String>,
    due: Vec<f64>,
}

impl Batches {
    /// [`INGEST_RATE`] batches per second for `secs` seconds.
    pub fn new(labels: &[usize], secs: f64, rng: &mut Rng) -> Batches {
        let bodies = ingest_bodies(labels, (INGEST_RATE * secs) as usize, rng);
        let due = batch_schedule(bodies.len(), rng);
        Batches { bodies, due }
    }
}

/// Edge batches for `POST /ingest`: each edge joins a uniform vertex to
/// a uniform member of its own community, so new edges follow the
/// planted structure and never add vertices.
fn ingest_bodies(labels: &[usize], count: usize, rng: &mut Rng) -> Vec<String> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); embed::communities(labels)];
    for (v, &l) in labels.iter().enumerate() {
        members[l].push(v);
    }
    (0..count)
        .map(|_| {
            let edges: Vec<String> = (0..INGEST_BATCH)
                .map(|_| {
                    let u = rng.below(labels.len());
                    let group = &members[labels[u]];
                    format!("[{u}, {}]", group[rng.below(group.len())])
                })
                .collect();
            format!("{{\"edges\": [{}]}}", edges.join(", "))
        })
        .collect()
}

/// One ACKed `POST /ingest`: when it was due and ACKed (seconds after
/// start), and the last sequence number it made durable.
struct Ack {
    due: f64,
    done: f64,
    last_seq: u64,
}

/// One `/healthz` answer: when it was sent and answered, and the
/// `ingest.last_applied_seq` it reported.
struct Seen {
    sent: f64,
    done: f64,
    applied: u64,
}

/// `(ingest.last_applied_seq, ingest.lag_edges)` of a `/healthz` body.
fn applied_seq(body: &str) -> Option<(u64, u64)> {
    let doc = v2v_obs::json::parse(body).ok()?;
    Some((
        doc.get("ingest.last_applied_seq")?.as_u64()?,
        doc.get("ingest.lag_edges")?.as_u64()?,
    ))
}

fn last_seq(body: &str) -> Option<u64> {
    v2v_obs::json::parse(body).ok()?.get("last_seq")?.as_u64()
}

/// Due times of the batches: Poisson arrivals at [`INGEST_RATE`], so
/// they fall at every phase of the server's accept polling.
fn batch_schedule(count: usize, rng: &mut Rng) -> Vec<f64> {
    let mut t = T0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / INGEST_RATE;
            t
        })
        .collect()
}

/// The writer: each batch at its due time over a fresh connection. A
/// non-200 answer counts as failed; a connection error or timeout ends
/// the writer, and it and every batch not yet sent count as failed.
fn write_batches(addr: &str, bodies: &[String], due: &[f64], start: Instant) -> (Vec<Ack>, u64) {
    let mut acks = Vec::new();
    let mut failed = 0;
    for (i, (body, &due)) in bodies.iter().zip(due).enumerate() {
        // Sleep to just short of the due time, then yield until it: a
        // sleeping vCPU can wake milliseconds late here, and that
        // lateness would be charged to the ACK.
        let wait = due - SPIN_S - start.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        while start.elapsed().as_secs_f64() < due {
            std::thread::yield_now();
        }
        let Ok(resp) = client::fresh(addr, "POST", "/ingest", body) else {
            failed += (bodies.len() - i) as u64;
            break;
        };
        match Some(resp)
            .filter(|r| r.status == 200)
            .and_then(|r| last_seq(&r.body))
        {
            Some(last_seq) => acks.push(Ack {
                due,
                done: start.elapsed().as_secs_f64(),
                last_seq,
            }),
            None => failed += 1,
        }
    }
    (acks, failed)
}

/// Polls `/healthz` over fresh connections until every ACKed edge is
/// applied and nothing lags, recording each answer. False on timeout.
fn await_applied(addr: &str, through: u64, start: Instant, seen: &mut Vec<Seen>) -> bool {
    let deadline = Instant::now() + APPLY_TIMEOUT;
    while Instant::now() < deadline {
        let sent = start.elapsed().as_secs_f64();
        if let Some((applied, lag)) = client::fresh(addr, "GET", "/healthz", "")
            .ok()
            .and_then(|r| applied_seq(&r.body))
        {
            seen.push(Seen {
                sent,
                done: start.elapsed().as_secs_f64(),
                applied,
            });
            if applied >= through && lag == 0 {
                return true;
            }
        }
        std::thread::sleep(Duration::from_secs_f64(HEALTH_POLL_S));
    }
    false
}

/// Seconds from each ACK until the first `/healthz` sent after it
/// reports the batch's seq applied.
fn freshness(acks: &[Ack], seen: &[Seen]) -> Vec<f64> {
    acks.iter()
        .filter_map(|a| {
            seen.iter()
                .filter(|s| s.sent >= a.done && s.applied >= a.last_seq)
                .map(|s| s.done - a.done)
                .reduce(f64::min)
        })
        .collect()
}

/// `(probes, swaps_observed, recall_at_10)` of a `/qualityz` body.
fn sentinel(body: &str) -> Option<(u64, u64, f64)> {
    let doc = v2v_obs::json::parse(body).ok()?;
    Some((
        doc.get("probes")?.as_u64()?,
        doc.get("swaps_observed")?.as_u64()?,
        doc.get("recall_at_10")?.as_f64()?,
    ))
}

/// The server's own recall@10 against `search_exact` on the state it
/// serves now, from `/qualityz`: waits for two more sentinel probes, so
/// that the one reported started after the state was installed. `None`
/// when no probe or no refresh swap was seen within [`APPLY_TIMEOUT`].
fn served_recall(addr: &str) -> Option<f64> {
    let get = || sentinel(&client::fresh(addr, "GET", "/qualityz", "").ok()?.body);
    let (first, _, _) = get()?;
    let deadline = Instant::now() + APPLY_TIMEOUT;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        if let Some((probes, swaps, recall)) = get() {
            if probes >= first + 2 {
                return (swaps > 0).then_some(recall);
            }
        }
    }
    None
}

pub fn run(args: &Args) -> Result<Report, String> {
    let prep = serve::prepare(args)?;
    let mut rng = Rng::new(args.seed ^ 0x1_6E57);
    let pop = Popularity::uniform(prep.vertices());
    let mut report = Report::default();
    let (server, setup) = serve::start_median(args, &prep, true, &mut report)?;

    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let stream = serve::reads((CONN_RATE * secs) as usize, &pop, false, &mut rng);
    let batches = Batches::new(&prep.input.labels, secs, &mut rng);
    // The reader's schedule: the reads, with a /healthz poll every
    // HEALTH_POLL_S interleaved by due time.
    let mut plan: Vec<(bool, Planned)> = serve::read_plan(&stream, CONN_RATE, T0, 1)
        .remove(0)
        .into_iter()
        .map(|(_, p)| (false, p))
        .collect();
    plan.extend((0..(secs / HEALTH_POLL_S) as usize).map(|i| {
        (
            true,
            Planned {
                due: T0 + i as f64 * HEALTH_POLL_S,
                target: "/healthz".into(),
            },
        )
    }));
    plan.sort_by(|a, b| a.1.due.total_cmp(&b.1.due));
    let (is_poll, planned): (Vec<bool>, Vec<Planned>) = plan.into_iter().unzip();

    let start = Instant::now();
    let addr = server.addr.as_str();
    let ((replies, conn), (acks, write_failed)) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            client::open_loop(
                addr,
                &planned,
                &|i| is_poll[i],
                start,
                Duration::from_secs(2),
            )
        });
        let writer = s.spawn(|| write_batches(addr, &batches.bodies, &batches.due, start));
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    let (mut reads, mut polls): (Vec<Reply>, Vec<Reply>) = (Vec::new(), Vec::new());
    for (reply, poll) in replies.into_iter().zip(&is_poll) {
        if *poll { &mut polls } else { &mut reads }.push(reply);
    }
    serve::account(&mut report, &reads, &conn, "reads beside ingest");
    serve::account(&mut report, &polls, &ConnStats::default(), "healthz polls");
    report.attempted += batches.bodies.len() as u64;
    report.failed += write_failed;

    // Every ACKed edge must be applied by the end: the final
    // last_applied_seq reaches the last ACKed seq and nothing lags.
    let mut seen: Vec<Seen> = polls
        .iter()
        .filter_map(|r| {
            let (applied, _) = applied_seq(r.body.as_deref()?)?;
            Some(Seen {
                sent: r.sent,
                done: r.done,
                applied,
            })
        })
        .collect();
    let through = acks.iter().map(|a| a.last_seq).max().unwrap_or(0);
    let applied = await_applied(addr, through, start, &mut seen);
    report.check(applied, || {
        format!("ACKed edges through seq {through} were not all applied within {APPLY_TIMEOUT:?}")
    });
    let fresh = freshness(&acks, &seen);
    report.check(fresh.len() == acks.len(), || {
        format!(
            "{} of {} ACKed batches never observed applied",
            acks.len() - fresh.len(),
            acks.len()
        )
    });
    let ack_ms: Vec<f64> = acks
        .iter()
        .map(|a| (a.done - a.due) * 1e3)
        .chain((0..write_failed).map(|_| f64::INFINITY))
        .collect();
    eprintln!(
        "ingest: {} batches ACKed, {write_failed} failed, through seq {through}; \
         read p50 {:.3} ms p99 {:.3} ms, ACK p99 {:.3} ms, \
         freshness p50 {:.3} s p90 {:.3} s, generator late p99 {:.3} ms",
        acks.len(),
        serve::windowed(&reads, 0.5) * 1e3,
        serve::windowed(&reads, 0.99) * 1e3,
        stats::quantile(&ack_ms, 0.99),
        stats::quantile(&fresh, 0.5),
        stats::quantile(&fresh, 0.9),
        serve::late_ms(&reads, 0.99),
    );

    if args.trace {
        // The in-process ingest pipeline gets this run's own batches.
        let overhead = serve::trace_layers(args, &prep, server, &stream, &batches, &mut report)?;
        embed::report_stages(prep.stages.as_slice(), &mut report);
        report.metric("trace.overhead_pct", overhead, "%");
        return Ok(report);
    }

    let recall = served_recall(addr);
    report.check(recall.is_some(), || {
        "no sentinel probe of a refreshed state on /qualityz".into()
    });
    let rss = server.peak_rss_mb()?;
    report.check(server.stop(), || {
        "v2v serve did not exit 0 on SIGINT".into()
    });
    report.metric("setup_s", setup, "s");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("latency_p50_ms", stats::quantile(&ack_ms, 0.5), "ms");
    report.metric("quality", recall.unwrap_or(f64::NAN), "ratio");
    Ok(report)
}

/// `batches` at their due times through `IngestState::submit` on an
/// in-process ingest pipeline over the artifact, started as `v2v serve
/// --wal-dir` starts it, polling `lag_edges` between submits. Refresh
/// rounds come from the pipeline's own `ingest.refreshes` counter.
pub fn trace(
    args: &Args,
    prep: &serve::Prepared,
    batches: &Batches,
    report: &mut Report,
) -> Result<(), String> {
    let (bodies, due) = (&batches.bodies, &batches.due);
    let handle = ServeHandle::new(serve::load_state(prep)?, None);
    let config = IngestConfig {
        max_pending: 8192,
        churn_threshold: v2v_obs::quality::QualityConfig::default().churn_threshold,
        ..Default::default()
    };
    let refreshes = v2v_obs::global_metrics().counter("ingest.refreshes");
    let before = refreshes.get();
    let (ingest, worker) = v2v_serve::ingest::start(handle, args.work.join("wal-trace"), config)?;
    let mut submit_ms = Vec::new();
    let mut lag_max = 0usize;
    let mut through = 0;
    let start = Instant::now();
    for (body, &due) in bodies.iter().zip(due) {
        loop {
            lag_max = lag_max.max(ingest.lag_edges());
            let wait = due - start.elapsed().as_secs_f64();
            if wait <= 0.0 {
                break;
            }
            std::thread::sleep(Duration::from_secs_f64(wait.min(HEALTH_POLL_S)));
        }
        let t = Instant::now();
        let resp = ingest.submit(body.as_bytes());
        submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        match last_seq(&resp.body) {
            Some(seq) if resp.status == 200 => through = seq,
            _ => report.failed += 1,
        }
    }
    let deadline = Instant::now() + APPLY_TIMEOUT;
    while (ingest.last_applied_seq() < through || ingest.lag_edges() > 0)
        && Instant::now() < deadline
    {
        lag_max = lag_max.max(ingest.lag_edges());
        std::thread::sleep(Duration::from_secs_f64(HEALTH_POLL_S));
    }
    report.check(ingest.last_applied_seq() >= through, || {
        "in-process ingest did not apply every submitted edge".into()
    });
    let rounds = (refreshes.get() - before) as f64;
    ingest.shutdown();
    worker
        .join()
        .map_err(|_| "refresh worker panicked".to_string())?;
    let edges = (bodies.len() * INGEST_BATCH) as f64;
    report.metric(
        "ingest.submit_p50_ms",
        stats::quantile(&submit_ms, 0.5),
        "ms",
    );
    report.metric(
        "ingest.submit_p99_ms",
        stats::quantile(&submit_ms, 0.99),
        "ms",
    );
    report.metric("ingest.lag_edges_max", lag_max as f64, "count");
    report.metric("ingest.refresh_rounds", rounds, "count");
    report.metric("ingest.edges_per_round", edges / rounds.max(1.0), "count");
    Ok(())
}
