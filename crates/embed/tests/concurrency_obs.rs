//! Concurrency-observability contract of the trainer, under fault
//! injection: perf-counter denial must degrade to "null with a reason",
//! never a panic, and the per-thread accounting must stay exact either
//! way.
//!
//! Real containers and CI kernels deny `perf_event_open` via
//! `perf_event_paranoid` or seccomp; the `obs.perf_open` fault point
//! simulates that denial deterministically so this test proves the
//! degradation path on *any* machine, including ones where the syscall
//! happens to work.

use v2v_embed::{train, EmbedConfig};
use v2v_fault::{Fault, FaultPlan};
use v2v_graph::{GraphBuilder, VertexId};
use v2v_walks::{WalkConfig, WalkCorpus};

fn corpus(seed: u64) -> WalkCorpus {
    let mut b = GraphBuilder::new_undirected();
    for base in [0u32, 8] {
        for u in 0..8 {
            for v in (u + 1)..8 {
                b.add_edge(VertexId(base + u), VertexId(base + v));
            }
        }
    }
    b.add_edge(VertexId(0), VertexId(8));
    let g = b.build().unwrap();
    let cfg = WalkConfig { walks_per_vertex: 10, walk_length: 15, seed, ..Default::default() };
    WalkCorpus::generate(&g, &cfg).unwrap()
}

/// `perf_event_open` denied on every thread: training completes, the
/// hardware columns read `None`, the note explains why, and the
/// per-thread pair accounting is still exact.
#[test]
fn perf_denial_degrades_without_panicking() {
    let armed = v2v_fault::arm("obs.perf_open", FaultPlan::always(Fault::Error));
    let cfg = EmbedConfig { dimensions: 12, epochs: 2, threads: 2, ..Default::default() };
    let result = train(&corpus(41), &cfg);
    drop(armed);

    let (emb, stats) = result.expect("training must survive perf denial");
    assert!(emb.as_flat().iter().all(|x| x.is_finite()));
    let report = &stats.concurrency;
    assert_eq!(report.threads, 2);
    assert_eq!(report.cache_miss_per_pair, None, "denied counters must not invent numbers");
    assert_eq!(report.llc_load_miss_per_pair, None);
    assert_eq!(report.instructions_per_cycle, None);
    assert!(
        report.perf_note.contains("obs.perf_open"),
        "note must carry the denial reason, got {:?}",
        report.perf_note
    );
    assert_eq!(
        report.per_thread_pairs.iter().sum::<u64>(),
        stats.total_pairs,
        "software telemetry must stay exact when hardware telemetry is denied: {report:?}"
    );
    assert!(report.per_thread_busy_secs.iter().all(|&s| s > 0.0));
}

/// Denial injected mid-run (first epoch's workers open fine, later opens
/// fail): still no panic, and the report stays internally consistent.
#[test]
fn mid_run_perf_failure_is_tolerated() {
    let armed = v2v_fault::arm("obs.perf_open", FaultPlan::nth(2, Fault::Error));
    let cfg = EmbedConfig { dimensions: 12, epochs: 3, threads: 2, ..Default::default() };
    let result = train(&corpus(42), &cfg);
    drop(armed);

    let (_, stats) = result.expect("training must survive a mid-run perf failure");
    let report = &stats.concurrency;
    assert_eq!(report.per_thread_pairs.iter().sum::<u64>(), stats.total_pairs);
    // Consistency either way: columns present together with an empty note,
    // or absent together with a reason.
    assert_eq!(report.cache_miss_per_pair.is_some(), report.llc_load_miss_per_pair.is_some());
}

/// The same degradation contract on the sequential (threads=1) path.
#[test]
fn sequential_path_also_degrades_gracefully() {
    let armed = v2v_fault::arm("obs.perf_open", FaultPlan::always(Fault::Error));
    let cfg = EmbedConfig { dimensions: 12, epochs: 2, threads: 1, ..Default::default() };
    let result = train(&corpus(43), &cfg);
    drop(armed);

    let (_, stats) = result.expect("sequential training must survive perf denial");
    assert_eq!(stats.concurrency.threads, 1);
    assert_eq!(stats.concurrency.cache_miss_per_pair, None);
    assert_eq!(stats.concurrency.per_thread_pairs, vec![stats.total_pairs]);
}
