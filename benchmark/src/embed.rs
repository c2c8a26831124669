//! The offline pipeline: edge list → CSR graph → walks → CBOW → HNSW →
//! `.v2s`, driven through the library's public calls, plus the LFR inputs
//! every workload is built from.

use crate::serve::{self, Popularity, Rng};
use crate::{host, ingest, stats, Args, Report};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;
use v2v_core::{V2vConfig, V2vModel};
use v2v_data::lfr::{lfr_graph, LfrBenchmark, LfrConfig};
use v2v_embed::Embedding;
use v2v_graph::io::{read_edge_list, write_edge_list, EdgeListFormat};
use v2v_graph::Graph;
use v2v_serve::{HnswConfig, HnswIndex};
use v2v_walks::WalkCorpus;

/// Walk and training budget of one pipeline run.
pub struct Pipeline {
    pub walks: usize,
    pub length: usize,
    pub epochs: usize,
    pub dims: usize,
}

/// The `embed` workload's pipeline: `v2v embed` defaults for walks and
/// epochs, 64 dimensions.
const EMBED: Pipeline = Pipeline {
    walks: 10,
    length: 80,
    epochs: 1,
    dims: 64,
};
/// Trainer threads: two, the width of the host the bounds were set on.
const TRAIN_THREADS: usize = 2;
/// Vertices of the `embed` workload's graph.
const EMBED_VERTICES: usize = 10_000;
/// Graph loads in one timed round; also the number of untimed ones.
const SETUP_ROUND: usize = 15;
/// Allowed gap between the traced stage sum and the untraced `setup_s`
/// plus pipeline time, as a share of the latter.
const LAYER_SUM_TOLERANCE: f64 = 0.15;

/// An LFR graph with power-law degrees and community sizes and mixing
/// μ = 0.5: roughly half of every vertex's edges leave its community, so
/// recovered communities score clearly below NMI 1.
pub fn lfr(n: usize, seed: u64) -> LfrBenchmark {
    lfr_graph(&LfrConfig {
        n,
        degree_exponent: 2.5,
        min_degree: 10,
        max_degree: 100,
        community_exponent: 1.5,
        min_community: 100,
        max_community: 600,
        mu: 0.5,
        seed,
    })
}

/// Number of distinct ground-truth communities.
pub fn communities(labels: &[usize]) -> usize {
    labels.iter().max().map_or(0, |&m| m + 1)
}

/// Writes the graph as a plain `u v` edge list, the program's input.
pub fn write_edges(graph: &Graph, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    write_edge_list(graph, &mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())
}

/// Set-up as a user pays it: edge list file → CSR graph.
pub fn load_graph(path: &Path) -> Result<Graph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_edge_list(BufReader::new(file), false, EdgeListFormat::Plain).map_err(|e| e.to_string())
}

fn config(p: &Pipeline, seed: u64) -> V2vConfig {
    let mut c = V2vConfig::default().with_dimensions(p.dims).with_seed(seed);
    c.walks.walks_per_vertex = p.walks;
    c.walks.walk_length = p.length;
    c.embedding.window = 5;
    c.embedding.epochs = p.epochs;
    c.embedding.threads = TRAIN_THREADS;
    c
}

/// Walks → CBOW → HNSW build → `.v2s` with its index section: what
/// `v2v embed --output x.v2s` followed by `v2v index --store x.v2s` does.
pub fn build(graph: &Graph, p: &Pipeline, seed: u64, out: &Path) -> Result<Embedding, String> {
    let model = V2vModel::train(graph, &config(p, seed)).map_err(|e| e.to_string())?;
    let embedding = model.into_embedding();
    write_indexed_store(&embedding, out, None)?;
    Ok(embedding)
}

/// Stage seconds of one traced pipeline run, in pipeline order.
pub struct Stages {
    load: f64,
    walks: f64,
    tokens: f64,
    train: f64,
    stats: v2v_embed::TrainStats,
    hnsw_build: f64,
    store_write: f64,
    store_bytes: f64,
    embedding: Embedding,
}

impl Stages {
    fn sum(&self) -> f64 {
        self.load + self.walks + self.train + self.hnsw_build + self.store_write
    }
}

/// The same pipeline as [`load_graph`] + [`build`], with each layer's
/// public call timed on its own.
pub fn build_traced(edges: &Path, p: &Pipeline, seed: u64, out: &Path) -> Result<Stages, String> {
    let cfg = config(p, seed);
    let t = Instant::now();
    let graph = load_graph(edges)?;
    let load = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let corpus = WalkCorpus::generate(&graph, &cfg.walks).map_err(|e| e.to_string())?;
    let walks = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (embedding, stats) = v2v_embed::train(&corpus, &cfg.embedding)?;
    let train = t.elapsed().as_secs_f64();
    let mut hnsw_build = 0.0;
    let t = Instant::now();
    write_indexed_store(&embedding, out, Some(&mut hnsw_build))?;
    let store_write = t.elapsed().as_secs_f64() - hnsw_build;
    let store_bytes = std::fs::metadata(out).map_err(|e| e.to_string())?.len() as f64;
    Ok(Stages {
        load,
        walks,
        tokens: corpus.num_tokens() as f64,
        train,
        stats,
        hnsw_build,
        store_write,
        store_bytes,
        embedding,
    })
}

/// Writes the store, builds and validates the HNSW graph over it, and
/// rewrites the store with the snapshot, as `v2v index` does. The build
/// (with validation) is timed into `build_secs` when given.
fn write_indexed_store(
    embedding: &Embedding,
    out: &Path,
    build_secs: Option<&mut f64>,
) -> Result<(), String> {
    let dims = embedding.dimensions();
    let rows = v2v_store::default_shard_rows(dims);
    let fingerprint = v2v_store::write_store(out, dims, embedding.as_flat(), rows, None)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let index = HnswIndex::build(dims, embedding.as_flat().to_vec(), HnswConfig::default());
    index.validate()?;
    if let Some(secs) = build_secs {
        *secs = t.elapsed().as_secs_f64();
    }
    let snapshot = index.snapshot(fingerprint);
    v2v_store::write_store(out, dims, embedding.as_flat(), rows, Some(&snapshot))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// NMI of k-means (k = the true community count, fixed seed) on the
/// embedding against the planted communities.
pub fn nmi(embedding: &Embedding, labels: &[usize]) -> f64 {
    let config = v2v_ml::KMeansConfig {
        k: communities(labels),
        max_iters: 50,
        restarts: 3,
        seed: 0xC1A55,
        ..Default::default()
    };
    let result = v2v_ml::kmeans::kmeans(&embedding.to_matrix(), &config);
    v2v_ml::metrics::nmi(labels, &result.assignments)
}

pub fn all_finite(embedding: &Embedding) -> bool {
    embedding.as_flat().iter().all(|x| x.is_finite())
}

/// Per-layer metrics of traced pipeline runs: the median of each stage.
pub fn report_stages(traced: &[Stages], report: &mut Report) {
    let med = |f: &dyn Fn(&Stages) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    report.metric("graph.load_s", med(&|s| s.load), "s");
    report.metric("walks.generate_s", med(&|s| s.walks), "s");
    report.metric("walks.tokens_per_s", med(&|s| s.tokens / s.walks), "1/s");
    report.metric("embed.train_s", med(&|s| s.train), "s");
    report.metric(
        "embed.pairs_per_s",
        med(&|s| s.stats.total_pairs as f64 / s.train),
        "1/s",
    );
    report.metric(
        "embed.barrier_wait_frac",
        med(&|s| s.stats.concurrency.barrier_wait_frac),
        "ratio",
    );
    report.metric(
        "embed.throughput_skew",
        med(&|s| s.stats.concurrency.throughput_skew),
        "ratio",
    );
    report.metric(
        "embed.final_loss",
        med(&|s| s.stats.epoch_losses.last().copied().unwrap_or(f64::NAN)),
        "loss",
    );
    report.metric("hnsw.build_s", med(&|s| s.hnsw_build), "s");
    report.metric("store.write_s", med(&|s| s.store_write), "s");
    report.metric("store.bytes", med(&|s| s.store_bytes), "B");
}

/// The `embed` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let input = lfr(EMBED_VERTICES, args.seed);
    let edges = args.work.join("edges.txt");
    write_edges(&input.graph, &edges)?;
    let store = args.work.join("embedding.v2s");
    let mut report = Report::default();

    // Graph loads: untimed ones, then a timed round before the pipeline
    // runs and one after each; `setup_s` is their median. A
    // single-threaded load on a shared vCPU runs at one of two speeds for
    // a second or more at a time, so loads spread over the run sample the
    // fast and slow spells alike where one burst would catch either.
    for _ in 0..SETUP_ROUND {
        load_graph(&edges)?;
    }
    let mut load_s = Vec::new();
    let mut graph = load_round(&edges, None, &mut load_s)?;

    if args.trace {
        report.attempted += load_s.len() as u64;
        let setup = stats::median(&load_s);
        return run_traced(args, input, &edges, &store, setup, &graph, report);
    }

    // Repeat the pipeline while another run fits in the run's time, which
    // counts pipeline runs only; score each embedding between runs, and
    // report medians.
    let (mut embed_s, mut nmis) = (Vec::new(), Vec::new());
    while embed_s.is_empty()
        || embed_s.iter().sum::<f64>() + embed_s.last().unwrap() <= args.seconds
    {
        let t = Instant::now();
        let embedding = build(&graph, &EMBED, args.seed, &store)?;
        embed_s.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        report.check(all_finite(&embedding), || {
            "embedding has non-finite entries".into()
        });
        nmis.push(nmi(&embedding, &input.labels));
        graph = load_round(&edges, Some(graph), &mut load_s)?;
    }
    report.attempted += load_s.len() as u64;
    report.metric("setup_s", stats::median(&load_s), "s");
    report.metric("peak_rss_mb", host::peak_rss_mb(None)?, "MiB");
    report.metric("latency_p50_ms", stats::median(&embed_s) * 1e3, "ms");
    report.metric("quality", stats::median(&nmis), "ratio");
    eprintln!(
        "embed: {} pipeline runs, seconds {embed_s:?}, nmi {nmis:?}; \
         {} graph loads, p10 {:.4} s p90 {:.4} s",
        embed_s.len(),
        load_s.len(),
        stats::quantile(&load_s, 0.1),
        stats::quantile(&load_s, 0.9)
    );
    Ok(report)
}

/// Times [`SETUP_ROUND`] graph loads into `times`, each after the
/// previous graph is dropped so that every load finds the allocator in
/// the same state; returns the last graph.
fn load_round(
    edges: &Path,
    mut graph: Option<Graph>,
    times: &mut Vec<f64>,
) -> Result<Graph, String> {
    for _ in 0..SETUP_ROUND {
        drop(graph.take());
        let t = Instant::now();
        graph = Some(load_graph(edges)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(graph.expect("SETUP_ROUND > 0"))
}

/// Traced `embed`: after one warm-up run, untraced and traced pipeline
/// runs interleaved (U T T U); the pipeline's per-layer metrics from the
/// traced runs, and the check that the traced stages add up to the
/// untraced `setup_s` plus pipeline time. Then the serving, HTTP and
/// ingest layers are timed over the artifact the pipeline wrote, as on
/// every workload.
fn run_traced(
    args: &Args,
    input: LfrBenchmark,
    edges: &Path,
    store: &Path,
    setup: f64,
    graph: &Graph,
    mut report: Report,
) -> Result<Report, String> {
    // The first run in a process pays for fresh memory; keep it out of
    // both sides.
    build(graph, &EMBED, args.seed, store)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for side in [false, true, true, false] {
        report.attempted += 1;
        if side {
            let stages = build_traced(edges, &EMBED, args.seed, store)?;
            report.check(all_finite(&stages.embedding), || {
                "embedding has non-finite entries".into()
            });
            traced.push(stages);
        } else {
            let t = Instant::now();
            let embedding = build(graph, &EMBED, args.seed, store)?;
            untraced.push(setup + t.elapsed().as_secs_f64());
            report.check(all_finite(&embedding), || {
                "embedding has non-finite entries".into()
            });
        }
    }
    let untraced_s = stats::median(&untraced);
    let traced_s = stats::median(&traced.iter().map(Stages::sum).collect::<Vec<_>>());
    let ratio = traced_s / untraced_s;
    report.check((ratio - 1.0).abs() <= LAYER_SUM_TOLERANCE, || {
        format!(
            "layer sum {traced_s:.3}s vs untraced setup_s + pipeline {untraced_s:.3}s \
             (ratio {ratio:.3}, tolerance {LAYER_SUM_TOLERANCE})"
        )
    });
    report_stages(&traced, &mut report);
    report.metric("trace.overhead_pct", 100.0 * (ratio - 1.0), "%");

    let prep = serve::Prepared::new(args, input, store.to_path_buf())?;
    let mut rng = Rng::new(args.seed);
    let stream = serve::reads(
        serve::REPLAY,
        &Popularity::uniform(prep.vertices()),
        true,
        &mut rng,
    );
    let batches = ingest::Batches::new(&prep.input.labels, ingest::TRACE_S, &mut rng);
    let log = args.work.join("serve.log");
    let (server, _) = serve::Server::start(&args.v2v, &prep, None, &log)?;
    report.attempted += 1;
    // `trace.overhead_pct` is the stage-sum figure above; the api replay's
    // own overhead is not reported here.
    serve::trace_layers(args, &prep, server, &stream, &batches, &mut report)?;
    Ok(report)
}
