//! Ablation: what does fragment affinity buy a query-stream service?
//!
//! `pioblast serve` turns the one-shot job into a stream of query
//! batches over the same database. Without affinity every stream batch
//! re-reads every fragment from the parallel file system; with
//! `--affinity` plus a resident store the master re-grants each fragment
//! to the worker that already holds it, and the re-grant skips the read
//! entirely. This harness replays one seeded 8-batch stream (4 users)
//! through both configurations at 16 ranks on the Altix and blade/NFS
//! profiles and 64 ranks on the manycore profile, reporting throughput
//! (stream batches per virtual second), p50/p99 admission-to-seal
//! latency, and the resident store's hit rate.
//!
//! Assertions, per the service-mode roadmap item:
//! * every stream batch's report is byte-identical to running that
//!   batch's queries as its own one-shot job — affinity and residency
//!   change placement and data motion, never results;
//! * affinity-on hit rate exceeds 50% on every profile (an 8-batch
//!   stream with a capacious store misses only the cold batch);
//! * headline: on the blade/NFS profile, affinity-on throughput is at
//!   least 2x affinity-off — re-reading the database per batch is exactly
//!   the NFS bottleneck the paper's staging amortizes, and residency
//!   amortizes it across the stream;
//! * the affinity-on blade trace passes the trace-check validator.
//!
//! Results land in `BENCH_service.json` at the workspace root.

use std::fmt::Write as _;

use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like, Workload};
use blast_core::seq::SeqRecord;
use mpiblast::Platform;
use pioblast::{FragmentSchedule, PioBlastConfig, QueryStreamPlan, ServiceMetrics, ServiceOptions};
use simcluster::Sim;

const NBATCHES: usize = 8;
const USERS: u32 = 4;
const MEAN_GAP_NS: u64 = 1_000_000;
const PLAN_SEED: u64 = 2005;

/// The service-shaped run over `queries`: dynamic grants of one
/// fragment per worker, four compute slots each, independent output.
fn base_cfg(
    sim: &Sim,
    platform: &Platform,
    workload: &Workload,
    queries: &[SeqRecord],
    service: Option<ServiceOptions>,
) -> PioBlastConfig {
    PioBlastConfig {
        compute: workload.compute,
        params: workload.params.clone(),
        report: workload.report,
        num_fragments: Some(sim.nranks() - 1),
        collective_output: false,
        schedule: FragmentSchedule::Dynamic,
        threads: 4,
        service,
        ..PioBlastConfig::staged(sim, platform, &workload.db, queries)
    }
}

struct ServiceRun {
    affinity: bool,
    elapsed_s: f64,
    metrics: ServiceMetrics,
    /// Per-stream-batch report bytes (`results.txt.q<b>`).
    batches: Vec<Vec<u8>>,
    trace: tracelog::Trace,
}

fn run_service(
    platform: &Platform,
    ranks: usize,
    workload: &Workload,
    plan: &QueryStreamPlan,
    affinity: bool,
) -> ServiceRun {
    let sim = Sim::new(ranks);
    let tracer = tracelog::Tracer::new(ranks);
    sim.set_tracer(tracer.clone());
    let service = ServiceOptions {
        plan: plan.clone(),
        // Capacious on the affinity side (every worker's share fits);
        // zero on the baseline, which retains nothing.
        resident_bytes: if affinity { 256 << 20 } else { 0 },
        affinity,
    };
    let cfg = base_cfg(&sim, platform, workload, &workload.queries, Some(service));
    let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    for r in &outcome.outputs {
        r.as_ref().expect("rank completed");
    }
    let wall = outcome.elapsed.since(simcluster::SimTime::ZERO).0;
    let trace = tracer.finish(wall);
    let batches = (0..plan.batches.len())
        .map(|b| {
            cfg.env
                .shared
                .peek(&format!("{}.q{b}", cfg.output_path))
                .expect("per-batch report present")
        })
        .collect();
    ServiceRun {
        affinity,
        elapsed_s: outcome.elapsed.as_secs_f64(),
        metrics: ServiceMetrics::from_trace(&trace),
        batches,
        trace,
    }
}

/// One stream batch's queries as an ordinary one-shot job: the
/// reference bytes its service-mode report must reproduce.
fn one_shot(
    platform: &Platform,
    ranks: usize,
    workload: &Workload,
    queries: &[SeqRecord],
) -> Vec<u8> {
    let sim = Sim::new(ranks);
    let cfg = base_cfg(&sim, platform, workload, queries, None);
    let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    for r in &outcome.outputs {
        r.as_ref().expect("rank completed");
    }
    cfg.env
        .shared
        .peek(&cfg.output_path)
        .expect("one-shot report present")
}

fn main() {
    // The service shape: the full default database, *short* interactive
    // queries (a wide sample, truncated to 80 residues each), and a
    // top-hits report — what each stream batch pays for is data motion,
    // re-reading the whole database from NFS, not compute. That is
    // exactly the regime the paper's one-shot staging amortizes and
    // residency amortizes further; a compute-bound stream would bury
    // the read savings the headline measures. `--threads 4` keeps the
    // compute side honest (the service composes with the slot fork).
    let mut workload = nr_like(default_db_residues(), 4 * default_query_bytes(), 2005);
    for q in &mut workload.queries {
        q.residues.truncate(80);
    }
    workload.report = mpiblast::ReportOptions {
        num_descriptions: 25,
        num_alignments: 10,
    };
    let plan = QueryStreamPlan::generate(
        USERS,
        NBATCHES,
        workload.queries.len(),
        MEAN_GAP_NS,
        PLAN_SEED,
    );
    let parts = plan
        .partition(&workload.queries)
        .expect("plan sized to the query set");
    println!("== Ablation: query-stream service, affinity on/off ==");
    println!(
        "{:<35} {:>5} {:>8} {:>10} {:>9} {:>9} {:>8}",
        "platform", "ranks", "affinity", "queries/s", "p50(s)", "p99(s)", "hitrate"
    );
    let mut json = String::from(
        "{\n  \"bench\": \"ablate_service\",\n  \"users\": 4,\n  \"stream_batches\": 8,\n  \"platforms\": [\n",
    );
    let mut blade_speedup = 0.0f64;
    let mut blade_trace_checked = false;
    let profiles = [
        (Platform::altix(), 16usize),
        (Platform::blade_cluster(), 16),
        (Platform::manycore(), 64),
    ];
    for (pi, (platform, ranks)) in profiles.iter().enumerate() {
        // Byte-identity references: each stream batch as its own job.
        let refs: Vec<Vec<u8>> = parts
            .iter()
            .map(|batch| one_shot(platform, *ranks, &workload, batch))
            .collect();
        let mut runs: Vec<ServiceRun> = Vec::new();
        for affinity in [false, true] {
            let r = run_service(platform, *ranks, &workload, &plan, affinity);
            println!(
                "{:<35} {:>5} {:>8} {:>10.4} {:>9.3} {:>9.3} {:>7.1}%",
                platform.name,
                ranks,
                r.affinity,
                r.metrics.queries_per_sec,
                r.metrics.p50_latency_s,
                r.metrics.p99_latency_s,
                100.0 * r.metrics.hit_rate()
            );
            assert_eq!(r.metrics.queries, NBATCHES, "every stream batch seals");
            assert_eq!(r.batches.len(), refs.len());
            for (b, (got, want)) in r.batches.iter().zip(refs.iter()).enumerate() {
                assert_eq!(
                    got, want,
                    "{}: affinity={} batch {b} diverged from its one-shot run",
                    platform.name, r.affinity
                );
            }
            runs.push(r);
        }
        let off = &runs[0];
        let on = &runs[1];
        assert_eq!(off.metrics.cache_hits, 0, "zero-cap store must not hit");
        assert!(
            on.metrics.hit_rate() > 0.5,
            "{}: affinity-on hit rate must exceed 50% (got {:.1}%)",
            platform.name,
            100.0 * on.metrics.hit_rate()
        );
        let speedup = on.metrics.queries_per_sec / off.metrics.queries_per_sec.max(1e-12);
        println!(
            "{:<35} affinity speedup {:.2}x, hit rate {:.1}%",
            platform.name,
            speedup,
            100.0 * on.metrics.hit_rate()
        );
        if pi > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"platform\": \"{}\", \"ranks\": {}, \"affinity_speedup\": {:.4}, \"runs\": [",
            platform.name, ranks, speedup
        );
        for (i, r) in runs.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "{{\"affinity\": {}, \"elapsed_s\": {:.6}, \"queries_per_sec\": {:.6}, \
                 \"p50_latency_s\": {:.6}, \"p99_latency_s\": {:.6}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"hit_rate\": {:.4}, \"bytes_identical\": true}}",
                r.affinity,
                r.elapsed_s,
                r.metrics.queries_per_sec,
                r.metrics.p50_latency_s,
                r.metrics.p99_latency_s,
                r.metrics.cache_hits,
                r.metrics.cache_misses,
                r.metrics.hit_rate()
            );
        }
        json.push_str("]}");
        if platform.name.contains("Blade") {
            blade_speedup = speedup;
            assert!(
                blade_speedup >= 2.0,
                "{}: affinity must buy >= 2x stream throughput over per-batch \
                 re-reads (got {blade_speedup:.2}x)",
                platform.name
            );
            let chrome = tracelog::chrome::export_chrome(&on.trace, None);
            let stats = tracelog::check::validate_chrome(&chrome)
                .expect("affinity-on service trace validates");
            assert_eq!(stats.ranks, *ranks);
            assert!(stats.instants > 0, "cache/service instants present");
            blade_trace_checked = true;
        }
    }
    assert!(blade_trace_checked, "blade profile missing from the sweep");
    json.push_str("\n  ],\n");
    let _ = writeln!(
        json,
        "  \"blade_headline\": {{\"affinity_speedup\": {blade_speedup:.4}, \
         \"bytes_identical\": true, \"trace_validated\": true}}"
    );
    json.push('}');
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, &json).expect("write BENCH_service.json");
    println!("wrote {path}");
    println!("affinity pays exactly where per-batch re-reads were the stream's bottleneck");
}
