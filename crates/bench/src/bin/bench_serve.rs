//! Serving-path latency benchmark: the perf-trajectory anchor for the
//! query API.
//!
//! Builds a synthetic embedding, stands up a [`v2v_serve::ServeState`]
//! (HNSW index + labels), and drives the request handler in-process —
//! no sockets, so the numbers isolate routing + search + serialization
//! from kernel noise. Reports p50/p95/p99 latency and throughput per
//! endpoint and writes a machine-readable `BENCH_serve.json` at the
//! repo root (`--out-json` to relocate) so successive PRs record a
//! comparable trajectory; the schema is documented in EXPERIMENTS.md.
//!
//! A second, socket-level section binds a real [`v2v_serve::Server`]
//! and measures the connection model end to end: `/neighbors` over one
//! kept-alive pipelined connection vs. a fresh connection per request
//! (`neighbors_keepalive` / `neighbors_per_conn`, plus the
//! `keepalive_speedup` ratio and `conn_reuse` requests-per-connection),
//! and `/batch` throughput in queries per second (`batch_qps`). A
//! quantized int8 index adds the `neighbors_int8` row and
//! `quantized_p99_ms`.
//!
//! Also measures the serve cold-start path against a `.v2s` store: the
//! same vectors are written to a V2VE v2 container with an embedded
//! HNSW snapshot, then timed from `EmbeddingStore::open` through a
//! ready `ServeState` — once loading the persisted snapshot
//! (`cold_start_ms`) and once forcing a rebuild
//! (`cold_start_rebuild_ms`), so the JSON trajectory records both the
//! win and its denominator.
//!
//! The git revision is stamped from the `GIT_REV` environment variable
//! (CI passes `GIT_REV=$(git rev-parse --short HEAD)`).

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use v2v_bench::Args;
use v2v_serve::api::handle;
use v2v_serve::{ingest, HnswConfig, QuantMode, Request, ServeHandle, ServeState, Server, ServerConfig};

/// One endpoint's measured distribution.
struct OpStats {
    op: &'static str,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    throughput_rps: f64,
    requests: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Deterministic pseudo-random embedding: n vectors of `dim` floats in
/// [-0.5, 0.5), splitmix64-driven so every run measures identical data.
fn synthetic_embedding(n: usize, dim: usize, mut seed: u64) -> Vec<f32> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..n * dim).map(|_| (next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5).collect()
}

/// One timed measurement segment: raw per-request latencies (ms) plus
/// segment wall seconds, unsorted so callers can pool ABBA segments.
fn collect_op(
    state: &ServeState,
    op: &'static str,
    n: usize,
    requests: usize,
    make: impl Fn(usize) -> Request,
) -> (Vec<f64>, f64) {
    let mut lat = Vec::with_capacity(requests);
    let started = Instant::now();
    for i in 0..requests {
        let req = make(i % n);
        let t0 = Instant::now();
        let r = handle(state, &req);
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(r.status < 500, "{op} returned {}", r.status);
    }
    (lat, started.elapsed().as_secs_f64())
}

fn run_op(
    state: &ServeState,
    op: &'static str,
    n: usize,
    requests: usize,
    make: impl Fn(usize) -> Request,
) -> OpStats {
    // Warmup: fault in caches and let the branch predictor settle.
    for i in 0..(requests / 10).max(100) {
        let r = handle(state, &make(i % n));
        assert!(r.status < 500, "{op} warmup returned {}", r.status);
    }
    let (mut lat, total) = collect_op(state, op, n, requests, make);
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    OpStats {
        op,
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        p99_ms: percentile(&lat, 0.99),
        throughput_rps: requests as f64 / total,
        requests,
    }
}

fn get_request(path: &str, query: Vec<(String, String)>) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        query,
        body: Vec::new(),
        ..Default::default()
    }
}

/// Cold-start timings against a `.v2s` store written to a temp path.
struct ColdStart {
    snapshot_ms: f64,
    rebuild_ms: f64,
}

/// Writes `data` as a snapshot-indexed store, then times
/// `ServeState::from_store` with and without snapshot loading. The
/// returned states are dropped — only the wall clock matters here.
fn measure_cold_start(dim: usize, data: &[f32], config: &HnswConfig) -> ColdStart {
    let path = std::env::temp_dir().join(format!("bench_serve_{}.v2s", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path").to_string();
    let shard_rows = v2v_store::default_shard_rows(dim);
    let fp = v2v_store::write_store(&path, dim, data, shard_rows, None).expect("write store");
    let index = v2v_serve::HnswIndex::build(dim, data.to_vec(), config.clone());
    let snap = index.snapshot(fp);
    v2v_store::write_store(&path, dim, data, shard_rows, Some(&snap)).expect("embed snapshot");
    drop(index);

    let timed = |allow_snapshot: bool, expect: &str| {
        let t0 = Instant::now();
        let store = v2v_store::EmbeddingStore::open(&path).expect("open store");
        let state = ServeState::from_store(store, config.clone(), None, allow_snapshot)
            .expect("state from store");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(state.index_source(), expect, "unexpected index source");
        ms
    };
    let snapshot_ms = timed(true, "snapshot");
    let rebuild_ms = timed(false, "rebuilt");
    let _ = std::fs::remove_file(&path);
    ColdStart { snapshot_ms, rebuild_ms }
}

/// Like [`run_op`] but routes every request through the [`ServeHandle`]
/// (an atomic state load per request), the way the real server does —
/// so hot swaps from the ingest refresh worker are visible and their
/// cost lands in the measured tail.
fn run_op_live(
    serve_handle: &Arc<ServeHandle>,
    op: &'static str,
    n: usize,
    requests: usize,
    make: impl Fn(usize) -> Request,
) -> OpStats {
    for i in 0..(requests / 10).max(100) {
        let state = serve_handle.state();
        let r = handle(&state, &make(i % n));
        assert!(r.status < 500, "{op} warmup returned {}", r.status);
    }
    let mut lat = Vec::with_capacity(requests);
    let started = Instant::now();
    for i in 0..requests {
        let req = make(i % n);
        let t0 = Instant::now();
        let state = serve_handle.state();
        let r = handle(&state, &req);
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(r.status < 500, "{op} returned {}", r.status);
    }
    let total = started.elapsed().as_secs_f64();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    OpStats {
        op,
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        p99_ms: percentile(&lat, 0.99),
        throughput_rps: requests as f64 / total,
        requests,
    }
}

/// Raw per-request latencies through the [`ServeHandle`], for pooled
/// ABBA comparisons where two runs of the same condition are merged
/// before taking percentiles.
///
/// Requests are paced with a short sleep every 100 — a saturating
/// closed loop on a single-core host starves SCHED_IDLE threads
/// completely, which would measure the sentinel's *absence* rather
/// than its interference. The pacing is identical in both conditions,
/// so the comparison stays fair while probes actually get to run.
fn collect_latencies(
    serve_handle: &Arc<ServeHandle>,
    n: usize,
    requests: usize,
    make: impl Fn(usize) -> Request,
) -> Vec<f64> {
    let mut lat = Vec::with_capacity(requests);
    for i in 0..requests {
        let req = make(i % n);
        let t0 = Instant::now();
        let state = serve_handle.state();
        let r = handle(&state, &req);
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(r.status < 500, "probe-overhead op returned {}", r.status);
        if i % 100 == 99 {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
    }
    lat
}

/// Quality-sentinel interference on the query path, measured ABBA:
/// `/neighbors` latencies are collected sentinel-off (A), sentinel-on
/// (B), on again (B), off again (A), and the two segments per condition
/// are pooled before taking p99 — so thermal or allocator drift across
/// the run biases both conditions equally instead of whichever came
/// second.
struct ProbeOverhead {
    off_p99_ms: f64,
    on_p99_ms: f64,
    overhead_pct: f64,
    probes: f64,
}

fn measure_probe_overhead(n: usize, dim: usize, k: usize, requests: usize) -> ProbeOverhead {
    let data = synthetic_embedding(n, dim, 0xCA9A);
    let embedding = v2v_embed::Embedding::from_flat(dim, data);
    let state = ServeState::new(embedding, HnswConfig::default(), None).expect("probe state");
    let serve_handle = ServeHandle::new(state, None);
    let make = |i: usize| {
        get_request(
            "/neighbors",
            vec![("v".into(), (i % n).to_string()), ("k".into(), k.to_string())],
        )
    };
    for i in 0..(requests / 10).max(100) {
        let state = serve_handle.state();
        let r = handle(&state, &make(i % n));
        assert!(r.status < 500, "probe-overhead warmup returned {}", r.status);
    }

    let segment = requests / 2;
    let mut off = collect_latencies(&serve_handle, n, segment, make); // A
    let config = v2v_serve::SentinelConfig {
        probe_interval: std::time::Duration::from_millis(100),
        ..Default::default()
    };
    let (quality, probe_thread) =
        v2v_serve::sentinel::start(serve_handle.clone(), config).expect("sentinel start");
    let mut on = collect_latencies(&serve_handle, n, segment, make); // B
    on.extend(collect_latencies(&serve_handle, n, segment, make)); // B
    let probes_before_stop = v2v_obs::global_metrics()
        .snapshot()
        .counters
        .get("quality.probes")
        .copied()
        .unwrap_or(0) as f64;
    quality.stop();
    probe_thread.join().expect("sentinel thread");
    off.extend(collect_latencies(&serve_handle, n, segment, make)); // A

    off.sort_by(|a, b| a.partial_cmp(b).unwrap());
    on.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let off_p99_ms = percentile(&off, 0.99);
    let on_p99_ms = percentile(&on, 0.99);
    ProbeOverhead {
        off_p99_ms,
        on_p99_ms,
        overhead_pct: (on_p99_ms / off_p99_ms - 1.0) * 100.0,
        probes: probes_before_stop,
    }
}

/// Durable-ingest measurements: WAL append throughput (the 200-ACK path,
/// fsync included) and `/neighbors` tail latency with and without the
/// refresh worker continuously folding edges into the served state.
struct IngestBench {
    edges_per_sec: f64,
    acked_edges: usize,
    neighbors_ro: OpStats,
    neighbors_ingest: OpStats,
}

/// Splitmix64-driven edge batch body: `edges` pairs within `0..n`,
/// self-loops avoided. Returns the JSON body and the advanced seed.
fn edge_batch_body(n: usize, edges: usize, seed: &mut u64) -> String {
    let mut next = || {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut body = String::from("{\"edges\": [");
    for i in 0..edges {
        let src = (next() % n as u64) as usize;
        let dst = (src + 1 + (next() % (n as u64 - 1)) as usize) % n;
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(body, "[{src}, {dst}]");
    }
    body.push_str("]}");
    body
}

fn measure_ingest(n: usize, dim: usize, k: usize, requests: usize) -> IngestBench {
    let data = synthetic_embedding(n, dim, 0xA11CE);
    let embedding = v2v_embed::Embedding::from_flat(dim, data);
    let state = ServeState::new(embedding, HnswConfig::default(), None).expect("ingest state");
    let serve_handle = ServeHandle::new(state, None);
    let wal_dir = std::env::temp_dir().join(format!("bench_serve_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    // Cheap refresh cycles (1 epoch, short walks) and a queue bound far
    // above what the bench submits: the numbers isolate the append path
    // and swap interference, not backpressure.
    let config = ingest::IngestConfig {
        max_pending: 1 << 20,
        epochs: 1,
        walks_per_vertex: 2,
        walk_length: 8,
        ..Default::default()
    };
    let (ingest_state, worker) =
        ingest::start(serve_handle.clone(), &wal_dir, config).expect("ingest start");

    // Phase 1: durable append throughput. Every 200 follows an fsync.
    let mut seed = 0xBEEF_u64;
    let (batches, batch_edges) = (64usize, 64usize);
    let mut acked = 0usize;
    let t0 = Instant::now();
    for _ in 0..batches {
        let body = edge_batch_body(n, batch_edges, &mut seed);
        let resp = ingest_state.submit(body.as_bytes());
        assert_eq!(resp.status, 200, "ingest submit shed: {}", resp.body);
        acked += batch_edges;
    }
    let edges_per_sec = acked as f64 / t0.elapsed().as_secs_f64();

    // Let the refresh worker drain before the read-only baseline so the
    // two /neighbors runs differ only in concurrent ingest activity.
    let drain_deadline = Instant::now() + std::time::Duration::from_secs(60);
    while ingest_state.lag_edges() > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(ingest_state.lag_edges(), 0, "refresh worker never drained");

    let make = |i: usize| {
        get_request(
            "/neighbors",
            vec![("v".into(), (i % n).to_string()), ("k".into(), k.to_string())],
        )
    };
    // 2x the per-op request count: this pair exists to compare two p99s,
    // and the order-statistic noise of each must stay below the
    // regression bound being tested (20%).
    let requests = requests * 2;
    let neighbors_ro = run_op_live(&serve_handle, "neighbors_live", n, requests, make);

    // Phase 2: the same op while a pusher thread streams small batches
    // continuously, so refresh fine-tunes and index patches keep hot-
    // swapping the state under the measured requests.
    let stop = Arc::new(AtomicBool::new(false));
    let pusher = {
        let stop = Arc::clone(&stop);
        let ingest_state = Arc::clone(&ingest_state);
        std::thread::spawn(move || {
            // 80 edges every 50 ms: a sustained ~1.6k edges/s stream.
            // Batched rather than dribbled — each submit is a wakeup
            // that preempts an in-flight request, so per-edge submits
            // would measure client chattiness, not ingest cost.
            let mut seed = 0xF00D_u64;
            let mut pushed = 0usize;
            while !stop.load(Ordering::Acquire) {
                let body = edge_batch_body(n, 80, &mut seed);
                if ingest_state.submit(body.as_bytes()).status == 200 {
                    pushed += 80;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            pushed
        })
    };
    let neighbors_ingest = run_op_live(&serve_handle, "neighbors_under_ingest", n, requests, make);
    stop.store(true, Ordering::Release);
    let pushed = pusher.join().expect("pusher thread");

    ingest_state.shutdown();
    worker.join().expect("refresh worker");
    let _ = std::fs::remove_dir_all(&wal_dir);
    println!(
        "ingest: {edges_per_sec:.0} edges/s durable ({acked} acked), \
         {pushed} edges streamed during the under-ingest run"
    );
    IngestBench { edges_per_sec, acked_edges: acked, neighbors_ro, neighbors_ingest }
}

/// Sorts latencies and folds them into an [`OpStats`] row.
fn stats(op: &'static str, mut lat: Vec<f64>, total_secs: f64, requests: usize) -> OpStats {
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    OpStats {
        op,
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        p99_ms: percentile(&lat, 0.99),
        throughput_rps: requests as f64 / total_secs,
        requests,
    }
}

/// Locates `needle` in `haystack` (first match).
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Reads one HTTP response from `stream`, consuming from (and carrying
/// over into) `carry` any bytes of the next pipelined response already
/// received. Frames by `Content-Length`. Returns the status code and
/// whether the server announced `Connection: close`.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> std::io::Result<(u16, bool)> {
    let mut buf = [0u8; 16 * 1024];
    let header_end = loop {
        if let Some(pos) = find_subslice(carry, b"\r\n\r\n") {
            break pos;
        }
        let got = stream.read(&mut buf)?;
        if got == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed before a full response header",
            ));
        }
        carry.extend_from_slice(&buf[..got]);
    };
    let head = String::from_utf8_lossy(&carry[..header_end]).into_owned();
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut content_length = 0usize;
    let mut close = false;
    for line in head.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().unwrap_or(0);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    let total = header_end + 4 + content_length;
    while carry.len() < total {
        let got = stream.read(&mut buf)?;
        if got == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-body",
            ));
        }
        carry.extend_from_slice(&buf[..got]);
    }
    carry.drain(..total);
    Ok((status, close))
}

/// Minimal blocking HTTP/1.1 client for the socket benchmarks:
/// keep-alive with optional pipelining, reconnecting when the server
/// spends its keep-alive budget and closes the connection.
struct BenchClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
    connections: usize,
}

impl BenchClient {
    fn new(addr: SocketAddr) -> BenchClient {
        BenchClient { addr, stream: None, carry: Vec::new(), connections: 0 }
    }

    fn ensure_connected(&mut self) {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).expect("connect to bench server");
            s.set_nodelay(true).expect("set nodelay");
            s.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("read timeout");
            self.connections += 1;
            self.carry.clear();
            self.stream = Some(s);
        }
    }

    /// Writes all of `reqs` back-to-back on one connection (pipelining
    /// when more than one), then reads the responses in order. When the
    /// server closes mid-burst (keep-alive budget spent), the unanswered
    /// tail is resent on a fresh connection — every request here is a
    /// read-only query, so a resend is safe.
    fn roundtrip(&mut self, reqs: &[Vec<u8>]) {
        let mut remaining = reqs;
        let mut attempts = 0;
        while !remaining.is_empty() {
            attempts += 1;
            assert!(attempts <= reqs.len() + 4, "server kept closing mid-burst");
            self.ensure_connected();
            let stream = self.stream.as_mut().expect("stream just ensured");
            let wire: Vec<u8> = remaining.concat();
            if stream.write_all(&wire).is_err() {
                self.stream = None;
                continue;
            }
            let mut done = 0;
            let mut close = false;
            while done < remaining.len() && !close {
                match read_response(stream, &mut self.carry) {
                    Ok((status, c)) => {
                        assert_eq!(status, 200, "socket bench request failed");
                        done += 1;
                        close = c;
                    }
                    Err(_) => close = true,
                }
            }
            if close {
                self.stream = None;
            }
            remaining = &remaining[done..];
        }
    }
}

/// One request on a fresh connection, torn down after the response —
/// the pre-keep-alive connection model, kept as the baseline.
fn per_conn_request(addr: SocketAddr, wire: &[u8]) {
    let mut s = TcpStream::connect(addr).expect("connect to bench server");
    s.set_nodelay(true).expect("set nodelay");
    s.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("read timeout");
    s.write_all(wire).expect("write request");
    let mut carry = Vec::new();
    let (status, _) = read_response(&mut s, &mut carry).expect("per-conn response");
    assert_eq!(status, 200, "per-conn request failed");
}

/// Real-socket measurements through a bound [`Server`]: `/neighbors`
/// over one kept-alive pipelined connection vs. one connection per
/// request (the fast-path acceptance ratio), and `/batch` throughput
/// in queries per second over a kept-alive connection.
struct SocketBench {
    keepalive: OpStats,
    per_conn: OpStats,
    batch: OpStats,
    /// Queries per second through `/batch` (batches of 8).
    batch_qps: f64,
    /// Requests served per TCP connection in the keep-alive run.
    conn_reuse: f64,
    /// Keep-alive throughput over per-connection throughput.
    speedup: f64,
}

fn measure_socket(n: usize, dim: usize, k: usize, requests: usize) -> SocketBench {
    let data = synthetic_embedding(n, dim, 0x50C7);
    let embedding = v2v_embed::Embedding::from_flat(dim, data);
    let state = ServeState::new(embedding, HnswConfig::default(), None).expect("socket state");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        watch_signals: false,
        ..Default::default()
    };
    let server = Server::bind(config, Arc::new(state).into_handler()).expect("bind bench server");
    let addr = server.local_addr();
    let stop = server.shutdown_flag();
    let server_thread = std::thread::spawn(move || server.run());

    let ka_req = |i: usize| {
        format!("GET /neighbors?v={}&k={k} HTTP/1.1\r\n\r\n", i % n).into_bytes()
    };
    let pc_req = |i: usize| {
        format!("GET /neighbors?v={}&k={k} HTTP/1.1\r\nConnection: close\r\n\r\n", i % n)
            .into_bytes()
    };
    // Sockets round-trip through the kernel, so a quarter of the
    // in-process request count keeps the wall clock comparable.
    let socket_requests = (requests / 4).max(512);

    // ABBA: per-connection (A), keep-alive (B), keep-alive (B),
    // per-connection (A) — the two segments per condition are pooled
    // before percentiles so drift across the run biases both conditions
    // equally instead of whichever ran second.
    const DEPTH: usize = 8;
    let run_pc = |count: usize| {
        let mut lat = Vec::with_capacity(count);
        let t = Instant::now();
        for i in 0..count {
            let t0 = Instant::now();
            per_conn_request(addr, &pc_req(i));
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        (lat, t.elapsed().as_secs_f64())
    };
    // Bursts of pipelined requests on one kept-alive connection.
    // Per-request latency is burst wall clock / depth — pipelined
    // responses aren't individually attributable.
    let run_ka = |client: &mut BenchClient, bursts: usize| {
        let mut lat = Vec::with_capacity(bursts * DEPTH);
        let t = Instant::now();
        for b in 0..bursts {
            let reqs: Vec<Vec<u8>> = (0..DEPTH).map(|j| ka_req(b * DEPTH + j)).collect();
            let t0 = Instant::now();
            client.roundtrip(&reqs);
            let per_req_ms = t0.elapsed().as_secs_f64() * 1e3 / DEPTH as f64;
            lat.extend(std::iter::repeat_n(per_req_ms, DEPTH));
        }
        (lat, t.elapsed().as_secs_f64())
    };

    let mut client = BenchClient::new(addr);
    for i in 0..64 {
        per_conn_request(addr, &pc_req(i));
    }
    for b in 0..8 {
        let reqs: Vec<Vec<u8>> = (0..DEPTH).map(|j| ka_req(b * DEPTH + j)).collect();
        client.roundtrip(&reqs);
    }
    let half_pc = socket_requests / 2;
    let half_bursts = (socket_requests / DEPTH / 2).max(32);
    let (mut pc_lat, pc_secs_a) = run_pc(half_pc); // A
    let (mut ka_lat, ka_secs_a) = run_ka(&mut client, half_bursts); // B
    let (ka2, ka_secs_b) = run_ka(&mut client, half_bursts); // B
    let (pc2, pc_secs_b) = run_pc(half_pc); // A
    pc_lat.extend(pc2);
    ka_lat.extend(ka2);
    let ka_requests = 2 * half_bursts * DEPTH;
    let per_conn = stats("neighbors_per_conn", pc_lat, pc_secs_a + pc_secs_b, 2 * half_pc);
    let conn_reuse = ka_requests as f64 / client.connections.max(1) as f64;
    let keepalive = stats("neighbors_keepalive", ka_lat, ka_secs_a + ka_secs_b, ka_requests);

    // Batched queries over the same kept-alive connection: one POST
    // carrying `batch_size` neighbors queries per round trip. The sweep
    // runs each size twice in mirrored order (1/8/64/64/8/1) and pools
    // per size, so drift balances across the sweep. All three print for
    // the EXPERIMENTS.md table; the JSON keeps the 8-query row as the
    // trajectory anchor.
    let mut run_batch_segment = |batch_size: usize| {
        let batch_posts = (socket_requests / batch_size / 2).max(32);
        let batch_req = |b: usize| {
            let mut body = String::from("{\"queries\": [");
            for j in 0..batch_size {
                if j > 0 {
                    body.push_str(", ");
                }
                let _ = write!(
                    body,
                    "{{\"op\": \"neighbors\", \"v\": {}, \"k\": {k}}}",
                    (b * batch_size + j) % n
                );
            }
            body.push_str("]}");
            format!(
                "POST /batch HTTP/1.1\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .into_bytes()
        };
        for b in 0..16 {
            client.roundtrip(&[batch_req(b)]);
        }
        let mut lat = Vec::with_capacity(batch_posts);
        let started = Instant::now();
        for b in 0..batch_posts {
            let t0 = Instant::now();
            client.roundtrip(&[batch_req(b)]);
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        (lat, started.elapsed().as_secs_f64(), batch_posts)
    };
    let mut pooled: Vec<(usize, Vec<f64>, f64, usize)> =
        [1usize, 8, 64].iter().map(|&s| (s, Vec::new(), 0.0, 0)).collect();
    for &size in &[1usize, 8, 64, 64, 8, 1] {
        let (lat, secs, posts) = run_batch_segment(size);
        let slot = pooled.iter_mut().find(|(s, ..)| *s == size).expect("sweep slot");
        slot.1.extend(lat);
        slot.2 += secs;
        slot.3 += posts;
    }
    let mut batch = None;
    let mut batch_qps = 0.0;
    for (size, lat, secs, posts) in pooled {
        let s = stats("batch8", lat, secs, posts);
        let qps = (posts * size) as f64 / secs;
        println!(
            "/batch sweep: {size:>2} queries/post -> {qps:.0} queries/s \
             (post p50 {:.4} ms, p99 {:.4} ms)",
            s.p50_ms, s.p99_ms
        );
        if size == 8 {
            batch = Some(s);
            batch_qps = qps;
        }
    }
    let batch = batch.expect("size-8 sweep slot");

    stop.store(true, Ordering::SeqCst);
    server_thread.join().expect("server thread").expect("server run");

    let speedup = keepalive.throughput_rps / per_conn.throughput_rps;
    SocketBench { keepalive, per_conn, batch, batch_qps, conn_reuse, speedup }
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", 2000);
    let dim: usize = args.get("dim", 64);
    let k: usize = args.get("k", 10);
    let requests: usize = args.get("requests", 20_000);
    let out_json: String = args.get("out-json", "BENCH_serve.json".to_string());
    let git_rev = std::env::var("GIT_REV").unwrap_or_else(|_| "unknown".into());
    let backend = v2v_linalg::kernels::backend_name();

    let data = synthetic_embedding(n, dim, 0x5EED);
    let embedding = v2v_embed::Embedding::from_flat(dim, data.clone());
    let labels: Vec<Option<usize>> = (0..n).map(|i| Some(i % 5)).collect();
    let t0 = Instant::now();
    let state = ServeState::new(embedding, HnswConfig::default(), Some(labels))
        .expect("state build");
    let build_secs = t0.elapsed().as_secs_f64();
    println!(
        "bench_serve: {n} vectors x {dim} dims, index built in {build_secs:.2}s, \
         {requests} requests/op, {backend} kernels"
    );

    let cold = measure_cold_start(dim, &data, &HnswConfig::default());
    println!(
        "cold start from .v2s store: {:.1} ms with snapshot, {:.1} ms rebuilding",
        cold.snapshot_ms, cold.rebuild_ms
    );

    let ing = measure_ingest(n, dim, k, requests);

    let probe = measure_probe_overhead(n, dim, k, requests);
    println!(
        "quality sentinel probe overhead (ABBA, {:.0} probes fired): \
         /neighbors p99 {:.4} ms on vs {:.4} ms off ({:+.1}%)",
        probe.probes, probe.on_p99_ms, probe.off_p99_ms, probe.overhead_pct
    );

    let sock = measure_socket(n, dim, k, requests);
    println!(
        "socket path: keep-alive+pipelined {:.0} rps vs {:.0} rps per-connection \
         ({:.1}x), {:.0} requests/conn, /batch {:.0} queries/s",
        sock.keepalive.throughput_rps,
        sock.per_conn.throughput_rps,
        sock.speedup,
        sock.conn_reuse,
        sock.batch_qps
    );

    // Quantized candidate scoring, measured ABBA against the f32 path:
    // the identical /neighbors op runs f32 (A), int8 (B), int8 (B),
    // f32 (A) with each condition's two segments pooled, so the two
    // table rows are drift-balanced against each other.
    let quant_state = ServeState::new(
        v2v_embed::Embedding::from_flat(dim, synthetic_embedding(n, dim, 0x5EED)),
        HnswConfig { quantize: QuantMode::Int8, ..Default::default() },
        None,
    )
    .expect("quantized state build");
    let nb_req = |i: usize| {
        get_request(
            "/neighbors",
            vec![("v".into(), (i % n).to_string()), ("k".into(), k.to_string())],
        )
    };
    for i in 0..(requests / 10).max(100) {
        let r = handle(&state, &nb_req(i % n));
        assert!(r.status < 500, "neighbors warmup returned {}", r.status);
        let r = handle(&quant_state, &nb_req(i % n));
        assert!(r.status < 500, "neighbors_int8 warmup returned {}", r.status);
    }
    let half = requests / 2;
    let (mut f32_lat, f32_secs_a) = collect_op(&state, "neighbors", n, half, nb_req); // A
    let (int8_lat, int8_secs_a) = collect_op(&quant_state, "neighbors_int8", n, half, nb_req); // B
    let (int8_tail, int8_secs_b) = collect_op(&quant_state, "neighbors_int8", n, half, nb_req); // B
    let (f32_tail, f32_secs_b) = collect_op(&state, "neighbors", n, half, nb_req); // A
    f32_lat.extend(f32_tail);
    let mut int8_lat = int8_lat;
    int8_lat.extend(int8_tail);
    let neighbors = stats("neighbors", f32_lat, f32_secs_a + f32_secs_b, 2 * half);
    let neighbors_int8 = stats("neighbors_int8", int8_lat, int8_secs_a + int8_secs_b, 2 * half);
    println!(
        "quantized scoring (ABBA): /neighbors p99 {:.4} ms int8 vs {:.4} ms f32 ({:+.1}%)",
        neighbors_int8.p99_ms,
        neighbors.p99_ms,
        (neighbors_int8.p99_ms / neighbors.p99_ms - 1.0) * 100.0
    );

    let ops = [
        neighbors,
        run_op(&state, "similarity", n, requests, |i| {
            get_request(
                "/similarity",
                vec![("a".into(), (i % n).to_string()), ("b".into(), ((i + 7) % n).to_string())],
            )
        }),
        run_op(&state, "predict", n, requests / 2, |i| {
            get_request(
                "/predict",
                vec![("v".into(), (i % n).to_string()), ("k".into(), k.to_string())],
            )
        }),
        run_op(&state, "healthz", n, requests, |_| get_request("/healthz", Vec::new())),
        neighbors_int8,
    ];
    let quantized_p99_ms = ops.last().expect("neighbors_int8 row").p99_ms;

    let extra_rows =
        [&ing.neighbors_ro, &ing.neighbors_ingest, &sock.keepalive, &sock.per_conn, &sock.batch];
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>12}",
        "op", "p50 ms", "p95 ms", "p99 ms", "req/s"
    );
    for s in ops.iter().chain(extra_rows) {
        println!(
            "{:<22} {:>10.4} {:>10.4} {:>10.4} {:>12.0}",
            s.op, s.p50_ms, s.p95_ms, s.p99_ms, s.throughput_rps
        );
    }
    println!(
        "neighbors p99 under continuous ingest: {:.4} ms vs {:.4} ms read-only ({:+.0}%)",
        ing.neighbors_ingest.p99_ms,
        ing.neighbors_ro.p99_ms,
        (ing.neighbors_ingest.p99_ms / ing.neighbors_ro.p99_ms - 1.0) * 100.0
    );

    // Machine-readable trajectory record; schema in EXPERIMENTS.md.
    let mut doc = String::from("{\n  \"bench\": \"serve\",\n");
    let _ = write!(doc, "  \"git_rev\": ");
    v2v_obs::json::write_escaped(&mut doc, &git_rev);
    doc.push_str(",\n  \"kernel_backend\": ");
    v2v_obs::json::write_escaped(&mut doc, backend);
    let _ = write!(doc, ",\n  \"n\": {n},\n  \"dim\": {dim},\n  \"k\": {k},\n");
    let _ = write!(doc, "  \"index_build_secs\": ");
    v2v_obs::json::write_f64(&mut doc, build_secs);
    doc.push_str(",\n  \"cold_start_ms\": ");
    v2v_obs::json::write_f64(&mut doc, cold.snapshot_ms);
    doc.push_str(",\n  \"cold_start_rebuild_ms\": ");
    v2v_obs::json::write_f64(&mut doc, cold.rebuild_ms);
    doc.push_str(",\n  \"ingest_edges_per_sec\": ");
    v2v_obs::json::write_f64(&mut doc, ing.edges_per_sec);
    let _ = write!(doc, ",\n  \"ingest_acked_edges\": {}", ing.acked_edges);
    doc.push_str(",\n  \"probe_off_p99_ms\": ");
    v2v_obs::json::write_f64(&mut doc, probe.off_p99_ms);
    doc.push_str(",\n  \"probe_on_p99_ms\": ");
    v2v_obs::json::write_f64(&mut doc, probe.on_p99_ms);
    doc.push_str(",\n  \"probe_overhead_pct\": ");
    v2v_obs::json::write_f64(&mut doc, probe.overhead_pct);
    doc.push_str(",\n  \"keepalive_speedup\": ");
    v2v_obs::json::write_f64(&mut doc, sock.speedup);
    doc.push_str(",\n  \"conn_reuse\": ");
    v2v_obs::json::write_f64(&mut doc, sock.conn_reuse);
    doc.push_str(",\n  \"batch_qps\": ");
    v2v_obs::json::write_f64(&mut doc, sock.batch_qps);
    doc.push_str(",\n  \"quantized_p99_ms\": ");
    v2v_obs::json::write_f64(&mut doc, quantized_p99_ms);
    doc.push_str(",\n  \"ops\": {");
    for (i, s) in ops.iter().chain(extra_rows).enumerate() {
        doc.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(doc, "    \"{}\": {{\"requests\": {}, \"p50_ms\": ", s.op, s.requests);
        v2v_obs::json::write_f64(&mut doc, s.p50_ms);
        doc.push_str(", \"p95_ms\": ");
        v2v_obs::json::write_f64(&mut doc, s.p95_ms);
        doc.push_str(", \"p99_ms\": ");
        v2v_obs::json::write_f64(&mut doc, s.p99_ms);
        doc.push_str(", \"throughput_rps\": ");
        v2v_obs::json::write_f64(&mut doc, s.throughput_rps);
        doc.push('}');
    }
    doc.push_str("\n  }\n}\n");
    std::fs::write(&out_json, doc).expect("write BENCH_serve.json");
    println!("wrote {out_json}");
}
