//! What the online workloads share: the served artifact, the real
//! `v2v serve` binary as a child process, the read streams and their
//! accounting, and the per-layer probes of the traced runs.

use crate::client::{self, ConnStats, Planned, Reply};
use crate::embed::{self, Pipeline, Stages};
use crate::ingest::{self, Batches};
use crate::{host, stats, Args, Report};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use v2v_data::lfr::LfrBenchmark;
use v2v_serve::{HnswConfig, Request, ServeState};
use v2v_store::EmbeddingStore;

/// Vertices of the served artifact: 20k × 64 f32 rows, 5 MiB, more than
/// a core's L2.
const SERVE_VERTICES: usize = 20_000;
/// Walk budget of the untimed artifact build: the same pipeline as the
/// `embed` workload with fewer walks, so preparation stays a few seconds.
const PREP: Pipeline = Pipeline {
    walks: 4,
    length: 40,
    epochs: 1,
    dims: 64,
};
/// Offered read rate per keep-alive connection in the fixed-rate
/// phases, requests per second.
pub const CONN_RATE: f64 = 2000.0;
/// `k` of every `/neighbors` and `/predict` request.
const K: usize = 10;
/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Latency percentiles are taken per window of this many seconds (by due
/// time) and the median window is reported, so one host hiccup moves one
/// window, not the figure.
pub const WINDOW_S: f64 = 1.0;
/// Reads of the stream replayed in process by the traced runs.
pub const REPLAY: usize = 10_000;
/// Every this-many-th read has its body kept and checked.
const SAMPLE_EVERY: usize = 32;
/// Median generator lateness beyond which the client, not the server,
/// limited the run and the run is invalid. The median, not a tail: a
/// host-level stall delays the generator and the server alike and is
/// already charged to latency, which is timed from the due time.
const LATE_P50_LIMIT_MS: f64 = 0.25;

/// SplitMix64: the benchmark's own seeded generator for request streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// One read of a stream: `/neighbors` or `/predict` for vertex `v`.
#[derive(Clone, Copy)]
pub struct Read {
    v: usize,
    predict: bool,
}

impl Read {
    fn path(&self) -> &'static str {
        if self.predict {
            "/predict"
        } else {
            "/neighbors"
        }
    }

    pub fn target(&self) -> String {
        format!("{}?v={}&k={K}", self.path(), self.v)
    }

    fn request(&self) -> Request {
        Request {
            method: "GET".into(),
            path: self.path().into(),
            query: vec![
                ("v".into(), self.v.to_string()),
                ("k".into(), K.to_string()),
            ],
            keep_alive: true,
            ..Default::default()
        }
    }
}

/// Vertex popularity: Zipf over a seeded permutation of the vertices, or
/// uniform.
pub struct Popularity {
    order: Vec<usize>,
    cdf: Option<Vec<f64>>,
}

impl Popularity {
    pub fn zipf(n: usize, exponent: f64, rng: &mut Rng) -> Popularity {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(exponent);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Popularity {
            order,
            cdf: Some(cdf),
        }
    }

    pub fn uniform(n: usize) -> Popularity {
        Popularity {
            order: (0..n).collect(),
            cdf: None,
        }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        match &self.cdf {
            Some(cdf) => {
                let u = rng.unit();
                self.order[cdf.partition_point(|&c| c < u).min(cdf.len() - 1)]
            }
            None => self.order[rng.below(self.order.len())],
        }
    }
}

/// `count` reads drawn from `pop`; half of them `/predict` when
/// `mix_predict`, all `/neighbors` otherwise.
pub fn reads(count: usize, pop: &Popularity, mix_predict: bool, rng: &mut Rng) -> Vec<Read> {
    (0..count)
        .map(|_| Read {
            v: pop.sample(rng),
            predict: mix_predict && rng.unit() < 0.5,
        })
        .collect()
}

/// The reads at `rate` per second from `t0`, dealt round-robin over
/// `conns` connections; each entry keeps its index in `reads`.
pub fn read_plan(reads: &[Read], rate: f64, t0: f64, conns: usize) -> Vec<Vec<(usize, Planned)>> {
    let mut plans: Vec<Vec<(usize, Planned)>> = (0..conns).map(|_| Vec::new()).collect();
    for (j, r) in reads.iter().enumerate() {
        plans[j % conns].push((
            j,
            Planned {
                due: t0 + j as f64 / rate,
                target: r.target(),
            },
        ));
    }
    plans
}

/// A served artifact: the LFR graph, its `.v2s` with index section, and
/// the label file (the communities).
pub struct Prepared {
    pub input: LfrBenchmark,
    store: PathBuf,
    labels: PathBuf,
    /// Stage times of the artifact build, when it was traced.
    pub stages: Option<Stages>,
}

impl Prepared {
    /// Wraps an already written `.v2s` of `input`'s graph and writes the
    /// label file beside it.
    pub fn new(args: &Args, input: LfrBenchmark, store: PathBuf) -> Result<Prepared, String> {
        let labels = args.work.join("labels.txt");
        let mut text = String::new();
        for (v, l) in input.labels.iter().enumerate() {
            text.push_str(&format!("{v} {l}\n"));
        }
        std::fs::write(&labels, text).map_err(|e| format!("{}: {e}", labels.display()))?;
        Ok(Prepared {
            input,
            store,
            labels,
            stages: None,
        })
    }

    pub fn vertices(&self) -> usize {
        self.input.labels.len()
    }
}

/// The online workloads' artifact, built untimed by the `embed` pipeline;
/// a traced run times its stages through the edge-list file.
pub fn prepare(args: &Args) -> Result<Prepared, String> {
    let input = embed::lfr(SERVE_VERTICES, args.seed);
    let store = args.work.join("serve.v2s");
    let stages = if args.trace {
        let edges = args.work.join("edges.txt");
        embed::write_edges(&input.graph, &edges)?;
        Some(embed::build_traced(&edges, &PREP, args.seed, &store)?)
    } else {
        embed::build(&input.graph, &PREP, args.seed, &store)?;
        None
    };
    let mut prep = Prepared::new(args, input, store)?;
    prep.stages = stages;
    Ok(prep)
}

/// In-process serving state over the artifact, configured as `v2v serve`
/// configures it with default flags.
pub fn load_state(prep: &Prepared) -> Result<ServeState, String> {
    let store = EmbeddingStore::open(&prep.store).map_err(|e| e.to_string())?;
    let labels = prep.input.labels.iter().map(|&l| Some(l)).collect();
    ServeState::from_store(store, HnswConfig::default(), Some(labels), true)
}

/// A running `v2v serve` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGINT: i32 = 2;

impl Server {
    /// Starts `v2v serve` with default flags and waits for the first 200
    /// on `/healthz`; returns the server and the seconds that took.
    pub fn start(
        v2v: &Path,
        prep: &Prepared,
        wal: Option<&Path>,
        log: &Path,
    ) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let mut cmd = Command::new(v2v);
        cmd.arg("serve")
            .arg("--embedding")
            .arg(&prep.store)
            .arg("--labels")
            .arg(&prep.labels)
            .args(["--port", "0"]);
        if let Some(dir) = wal {
            cmd.arg("--wal-dir").arg(dir);
        }
        let log = std::fs::File::create(log).map_err(|e| e.to_string())?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", v2v.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("v2v serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while !matches!(client::fresh(&server.addr, "GET", "/healthz", ""), Ok(r) if r.status == 200)
        {
            if Instant::now() > deadline {
                return Err("v2v serve never answered /healthz with 200".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, t.elapsed().as_secs_f64()))
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        host::peak_rss_mb(Some(self.child.id()))
    }

    /// SIGINT (graceful drain), then waits; true when it exited 0.
    pub fn stop(mut self) -> bool {
        // SAFETY: `kill(2)` takes plain integers; the pid is this
        // process's own child, not yet reaped (it is waited on only below
        // or in Drop), so it cannot name an unrelated process.
        unsafe { kill(self.child.id() as i32, SIGINT) };
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Starts the server [`SETUP_REPS`] times (a fresh WAL directory each
/// time, with `wal`) and keeps the last one running; returns it with the
/// median start time. Every start counts as an attempted operation.
pub fn start_median(
    args: &Args,
    prep: &Prepared,
    wal: bool,
    report: &mut Report,
) -> Result<(Server, f64), String> {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let dir = args.work.join(format!("wal-{rep}"));
        let log = args.work.join(format!("serve-{rep}.log"));
        let (server, secs) = Server::start(&args.v2v, prep, wal.then_some(dir.as_path()), &log)?;
        times.push(secs);
        report.attempted += 1;
        if rep + 1 == SETUP_REPS {
            return Ok((server, stats::median(&times)));
        }
        report.check(server.stop(), || {
            "v2v serve did not exit 0 on SIGINT".into()
        });
    }
    unreachable!("SETUP_REPS > 0")
}

/// Latency percentile `q` per [`WINDOW_S`] window of due time; the median
/// over windows. Failed requests rank as `+inf`.
pub fn windowed(replies: &[Reply], q: f64) -> f64 {
    let Some(t0) = replies.iter().map(|r| r.due).reduce(f64::min) else {
        return f64::NAN;
    };
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for r in replies {
        let w = ((r.due - t0) / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(r.latency());
    }
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stats::quantile(w, q))
        .collect();
    stats::median(&per)
}

/// Runs each connection's open-loop plan on its own thread, keeping the
/// bodies of [`sampled`] reads; returns the replies in stream order and
/// the summed connection counts.
pub fn drive(
    addr: &str,
    plans: Vec<Vec<(usize, Planned)>>,
    start: Instant,
) -> (Vec<Reply>, ConnStats) {
    let total = plans.iter().map(Vec::len).sum();
    let mut replies: Vec<Option<Reply>> = vec![None; total];
    let mut sum = ConnStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                s.spawn(move || {
                    let (ids, planned): (Vec<usize>, Vec<Planned>) = plan.into_iter().unzip();
                    let keep = |i: usize| sampled(ids[i]);
                    let (r, st) =
                        client::open_loop(addr, &planned, &keep, start, Duration::from_secs(2));
                    (ids, r, st)
                })
            })
            .collect();
        for h in handles {
            let (ids, r, st) = h.join().expect("client thread panicked");
            for (i, reply) in ids.into_iter().zip(r) {
                replies[i] = Some(reply);
            }
            sum.reconnects += st.reconnects;
            sum.resent += st.resent;
            sum.out_of_order += st.out_of_order;
        }
    });
    (
        replies
            .into_iter()
            .map(|r| r.expect("every planned read has a reply"))
            .collect(),
        sum,
    )
}

/// Keep the body of every [`SAMPLE_EVERY`]-th read for checking.
fn sampled(i: usize) -> bool {
    i.is_multiple_of(SAMPLE_EVERY)
}

/// How late the generator sent (send minus due), quantile `q`, in ms.
pub fn late_ms(replies: &[Reply], q: f64) -> f64 {
    let late: Vec<f64> = replies
        .iter()
        .filter(|r| r.sent.is_finite())
        .map(|r| r.sent - r.due)
        .collect();
    stats::quantile(&late, q) * 1e3
}

/// Accounts one open-loop phase into the report: attempts and failures
/// (non-200 answers including 503 sheds, connection errors, timeouts),
/// answers out of request order or with an error status, and whether the
/// generator itself fell behind.
pub fn account(report: &mut Report, replies: &[Reply], conn: &ConnStats, what: &str) {
    let failed = replies.iter().filter(|r| !r.ok()).count();
    report.attempted += replies.len() as u64;
    report.failed += failed as u64;
    let odd = replies
        .iter()
        .filter(|r| r.status != 0 && r.status != 200 && r.status != 503)
        .count();
    report.check(odd == 0, || {
        format!("{what}: {odd} answers with an error status")
    });
    report.check(conn.out_of_order == 0, || {
        format!("{what}: {} answers out of request order", conn.out_of_order)
    });
    let late = late_ms(replies, 0.5);
    report.check(late <= LATE_P50_LIMIT_MS, || {
        format!(
            "{what}: generator ran late (p50 {late:.3} ms > {LATE_P50_LIMIT_MS} ms): \
             the client was the bottleneck"
        )
    });
    eprintln!(
        "{what}: {} requests, {failed} failed, {} reconnects ({} resent), \
         generator late p50 {late:.3} ms p99 {:.3} ms",
        replies.len(),
        conn.reconnects,
        conn.resent,
        late_ms(replies, 0.99)
    );
}

/// Checks the kept bodies of a run whose served state never changes:
/// each must equal `api::handle` on the same state byte for byte, and
/// `/neighbors` bodies also give recall@10 against
/// `HnswIndex::search_exact`. Returns the recall over the distinct
/// vertices asked for: under a skewed stream, weighting by request would
/// let the few hottest vertices' answers set the figure.
pub fn check_samples(
    report: &mut Report,
    state: &ServeState,
    stream: &[Read],
    replies: &[Reply],
) -> f64 {
    let (mut hits, mut total, mut mismatched, mut checked) = (0usize, 0usize, 0usize, 0usize);
    let mut scored = HashSet::new();
    for (read, reply) in stream.iter().zip(replies) {
        let (Some(body), true) = (&reply.body, reply.ok()) else {
            continue;
        };
        checked += 1;
        let expect = v2v_serve::api::handle(state, &read.request());
        if expect.status != 200 || expect.body != *body {
            mismatched += 1;
        }
        if read.predict || !scored.insert(read.v) {
            continue;
        }
        let got: Vec<usize> = v2v_obs::json::parse(body)
            .ok()
            .and_then(|d| {
                let list = d.get("neighbors")?.as_array()?;
                Some(
                    list.iter()
                        .filter_map(|n| Some(n.get("vertex")?.as_u64()? as usize))
                        .collect(),
                )
            })
            .unwrap_or_default();
        let q = state
            .vectors()
            .vector(read.v)
            .expect("stream vertices are in range");
        let exact: Vec<usize> = state
            .index()
            .search_exact(q, K + 1)
            .into_iter()
            .map(|(u, _)| u)
            .filter(|&u| u != read.v)
            .take(K)
            .collect();
        hits += got.iter().filter(|u| exact.contains(u)).count();
        total += exact.len();
    }
    report.check(checked > 0, || "no sampled answers to check".into());
    report.check(mismatched == 0, || {
        format!(
            "{mismatched} of {checked} sampled answers differ from api::handle on the same state"
        )
    });
    hits as f64 / total.max(1) as f64
}

/// Per-layer probes shared by the traced online runs.
#[derive(Default)]
struct Layers {
    rtt_us: Vec<f64>,
    fresh_ms: Vec<f64>,
    open_s: Vec<f64>,
    load_s: Vec<f64>,
    search_us: Vec<f64>,
    handle_us: Vec<f64>,
    overhead_pct: f64,
}

impl Layers {
    /// Against the running server: round trips of `stream` on one
    /// keep-alive connection, one request at a time, then
    /// fresh-connection `GET /healthz` requests.
    fn socket(&mut self, addr: &str, stream: &[Read]) -> Result<(), String> {
        let targets: Vec<String> = stream.iter().take(2000).map(Read::target).collect();
        if !targets.is_empty() {
            let start = Instant::now();
            let (done, _) = client::closed_loop(addr, &targets, 1, start, 2.0)?;
            self.rtt_us = done.windows(2).map(|w| (w[1] - w[0]) * 1e6).collect();
        }
        for _ in 0..40 {
            let t = Instant::now();
            let r = client::fresh(addr, "GET", "/healthz", "")?;
            self.fresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if r.status != 200 {
                return Err(format!("/healthz answered {}", r.status));
            }
        }
        Ok(())
    }

    /// In process: store open and state load (with the snapshot) as
    /// `v2v serve` does them at start; the first [`REPLAY`] reads of
    /// `stream` replayed through
    /// `HnswIndex::search` (the calls the endpoints make) and through
    /// `api::handle`, each call timed; and the same `api::handle` replay
    /// untimed, interleaved with the timed one, for the tracing overhead.
    fn in_process(
        &mut self,
        prep: &Prepared,
        state: &ServeState,
        stream: &[Read],
    ) -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            drop(EmbeddingStore::open(&prep.store).map_err(|e| e.to_string())?);
            self.open_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            drop(load_state(prep)?);
            self.load_s.push(t.elapsed().as_secs_f64());
        }
        let stream = &stream[..stream.len().min(REPLAY)];
        let index = state.index();
        // The candidates `/predict` votes over, as the endpoint fetches them.
        let fetch = (K * 4 + 16).min(index.len());
        let ef = fetch.max(index.config().ef_search);
        for read in stream {
            let q = state
                .vectors()
                .vector(read.v)
                .expect("stream vertices are in range");
            let t = Instant::now();
            let found = if read.predict {
                index.search_ef(q, fetch, ef)
            } else {
                index.search(q, K + 1)
            };
            self.search_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(found);
        }
        let requests: Vec<Request> = stream.iter().map(Read::request).collect();
        let (mut untimed, mut timed) = (Vec::new(), Vec::new());
        // A warm-up pass, then untimed and timed passes interleaved.
        for pass in [None, Some(false), Some(true), Some(true), Some(false)] {
            let t = Instant::now();
            for req in &requests {
                if pass == Some(true) {
                    let t = Instant::now();
                    std::hint::black_box(v2v_serve::api::handle(state, req));
                    self.handle_us.push(t.elapsed().as_secs_f64() * 1e6);
                } else {
                    std::hint::black_box(v2v_serve::api::handle(state, req));
                }
            }
            match pass {
                Some(true) => timed.push(t.elapsed().as_secs_f64()),
                Some(false) => untimed.push(t.elapsed().as_secs_f64()),
                None => {}
            }
        }
        self.overhead_pct = 100.0 * (stats::median(&timed) / stats::median(&untimed) - 1.0);
        Ok(())
    }

    /// The serving and HTTP layer figures.
    fn report(&self, report: &mut Report) {
        let handle_p50 = stats::quantile(&self.handle_us, 0.5);
        report.metric("store.open_s", stats::median(&self.open_s), "s");
        report.metric("serve.state_load_s", stats::median(&self.load_s), "s");
        report.metric(
            "hnsw.search_p50_us",
            stats::quantile(&self.search_us, 0.5),
            "us",
        );
        report.metric(
            "hnsw.search_p99_us",
            stats::quantile(&self.search_us, 0.99),
            "us",
        );
        report.metric("api.handle_p50_us", handle_p50, "us");
        report.metric(
            "api.handle_p99_us",
            stats::quantile(&self.handle_us, 0.99),
            "us",
        );
        report.metric(
            "http.keepalive_overhead_p50_us",
            stats::median(&self.rtt_us) - handle_p50,
            "us",
        );
        report.metric(
            "http.fresh_conn_p50_ms",
            stats::median(&self.fresh_ms),
            "ms",
        );
    }
}

/// The per-layer probes every traced run ends with, over the run's
/// artifact `prep`. Against the running `server`: round trips of `stream`
/// and fresh-connection requests; then the server is stopped, and with
/// the CPUs to itself this process times store open, state load, and
/// `stream` through search and `api::handle`, then feeds `batches`
/// through an in-process ingest pipeline. Reports every per-layer metric
/// but the pipeline stages and `trace.overhead_pct`, and returns the
/// tracing overhead of the `api::handle` replay, in percent.
pub fn trace_layers(
    args: &Args,
    prep: &Prepared,
    server: Server,
    stream: &[Read],
    batches: &Batches,
    report: &mut Report,
) -> Result<f64, String> {
    let mut layers = Layers::default();
    layers.socket(&server.addr, stream)?;
    report.check(server.stop(), || {
        "v2v serve did not exit 0 on SIGINT".into()
    });
    let state = load_state(prep)?;
    layers.in_process(prep, &state, stream)?;
    drop(state);
    layers.report(report);
    ingest::trace(args, prep, batches, report)?;
    Ok(layers.overhead_pct)
}
