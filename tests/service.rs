//! Property tests for query-stream service mode (`pioblast serve`):
//! every stream batch's per-batch report must be byte-identical to
//! running that batch's queries as an ordinary one-shot job — across
//! affinity on/off, resident-store capacities, the nonblocking I/O
//! plane, intra-rank compute slots, and single-worker kills under
//! `FaultMode::Recover`.
//!
//! Affinity and residency change *which worker* searches a fragment and
//! *whether its bytes come from the store or the file system* — neither
//! may ever change the report. The resident store is a cache, not a
//! scheduler: the deterministic metrics test pins down that it actually
//! hits (rate > 50% once the stream revisits fragments) and that a
//! zero-capacity store never does.

use std::sync::OnceLock;

use blast_core::search::SearchParams;
use blast_core::seq::SeqRecord;
use mpiblast::model::PrepareMemo;
use mpiblast::report::serial_report;
use mpiblast::{Platform, ReportOptions};
use pioblast::{
    FaultMode, FragmentSchedule, IoOptions, PioBlastConfig, QueryStreamPlan, ServiceMetrics,
    ServiceOptions,
};
use proptest::prelude::*;
use simcluster::{FaultPlan, Sim};
use tracelog::Tracer;

mod common;
use common::{sample_queries, small_db};

/// Queries the whole stream consumes (kept tiny: every proptest case
/// pays one one-shot reference run per stream batch).
const N_QUERIES: usize = 5;
const MEAN_GAP_NS: u64 = 2_000_000;

struct ServiceRun {
    /// Per-stream-batch report bytes (`results.txt.q<b>`).
    batches: Vec<Vec<u8>>,
    killed: Vec<usize>,
    metrics: ServiceMetrics,
    /// Real query prepares the run's shared memo performed.
    prepare_misses: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_service(
    nranks: usize,
    nfrags: usize,
    plan: &QueryStreamPlan,
    resident_bytes: u64,
    affinity: bool,
    io_async: bool,
    threads: usize,
    fault: FaultMode,
    fplan: FaultPlan,
) -> ServiceRun {
    let db = small_db(47, 40_000, "nr-svc");
    let queries = sample_queries(&db, plan.total_queries(), 13);
    let sim = Sim::new(nranks);
    let tracer = Tracer::new(nranks);
    sim.set_tracer(tracer.clone());
    let cfg = PioBlastConfig {
        num_fragments: Some(nfrags),
        collective_output: false,
        schedule: FragmentSchedule::Dynamic,
        fault,
        threads,
        io: IoOptions {
            io_async,
            ..Default::default()
        },
        service: Some(ServiceOptions {
            plan: plan.clone(),
            resident_bytes,
            affinity,
        }),
        ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
    };
    let out = sim.run_faulty(fplan, |ctx| {
        (pioblast::run_rank(&ctx, &cfg), ctx.shared::<PrepareMemo>())
    });
    let prepare_misses = out.outputs[0].as_ref().map_or(0, |(_, memo)| memo.misses());
    let trace = tracer.finish(out.elapsed.since(simcluster::SimTime::ZERO).0);
    let batches = (0..plan.batches.len())
        .map(|b| {
            cfg.env
                .shared
                .peek(&format!("results.txt.q{b}"))
                .unwrap_or_default()
        })
        .collect();
    ServiceRun {
        batches,
        killed: out.killed,
        metrics: ServiceMetrics::from_trace(&trace),
        prepare_misses,
    }
}

/// Run one stream batch's queries as an ordinary fault-free one-shot
/// job: the reference bytes its service-mode report must reproduce.
fn one_shot(nranks: usize, nfrags: usize, queries: &[SeqRecord]) -> Vec<u8> {
    let db = small_db(47, 40_000, "nr-svc");
    let sim = Sim::new(nranks);
    let cfg = PioBlastConfig {
        num_fragments: Some(nfrags),
        collective_output: false,
        schedule: FragmentSchedule::Dynamic,
        ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, queries)
    };
    let out = sim.run_faulty(FaultPlan::none(), |ctx| pioblast::run_rank(&ctx, &cfg));
    assert!(out.killed.is_empty());
    let bytes = cfg.env.shared.peek("results.txt").unwrap_or_default();
    assert!(!bytes.is_empty(), "reference run produced no output");
    bytes
}

/// Per-batch one-shot reference bytes for `plan` at this cluster shape.
fn references(nranks: usize, nfrags: usize, plan: &QueryStreamPlan) -> Vec<Vec<u8>> {
    let db = small_db(47, 40_000, "nr-svc");
    let queries = sample_queries(&db, plan.total_queries(), 13);
    let parts = plan.partition(&queries).expect("plan matches its queries");
    parts
        .iter()
        .map(|batch| one_shot(nranks, nfrags, batch))
        .collect()
}

fn fixed_plan() -> QueryStreamPlan {
    QueryStreamPlan::generate(3, 4, N_QUERIES, MEAN_GAP_NS, 42)
}

fn fixed_references() -> &'static Vec<Vec<u8>> {
    static REFS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    REFS.get_or_init(|| references(4, 9, &fixed_plan()))
}

/// A resident cap that holds some but not all of a worker's fragments
/// in the fixed 4-rank, 9-fragment shape: re-grants partly hit, and the
/// LRU evicts mid-stream.
const PARTIAL_RESIDENT: u64 = 16 << 10;

/// Cheap deterministic guard independent of the proptest machinery: a
/// fault-free sweep over affinity x residency (none, partial, all) x the
/// async I/O plane x slot counts must reproduce every batch's one-shot
/// bytes.
#[test]
fn service_reports_match_one_shot_runs_without_faults() {
    let plan = fixed_plan();
    let refs = fixed_references();
    let grants = (9 * plan.batches.len()) as u64;
    for (affinity, resident) in [(false, 0), (true, PARTIAL_RESIDENT), (true, 64 << 20)] {
        for io_async in [false, true] {
            for threads in [1, 4] {
                let run = run_service(
                    4,
                    9,
                    &plan,
                    resident,
                    affinity,
                    io_async,
                    threads,
                    FaultMode::Off,
                    FaultPlan::none(),
                );
                assert!(run.killed.is_empty());
                if resident == PARTIAL_RESIDENT {
                    let hits = run.metrics.cache_hits;
                    assert!(
                        0 < hits && hits < grants,
                        "partial residency hit {hits} of {grants} grants \
                         (io_async={io_async} threads={threads})"
                    );
                }
                assert_eq!(run.batches.len(), refs.len());
                for (b, (got, want)) in run.batches.iter().zip(refs.iter()).enumerate() {
                    assert_eq!(
                        got, want,
                        "batch {b} diverged: affinity={affinity} \
                         resident={resident} io_async={io_async} threads={threads}"
                    );
                }
            }
        }
    }
}

/// At 64 ranks every rank prepares every stream batch, but the run's
/// shared memo prepares each batch for real exactly once, and every
/// batch's report still matches the serial reference.
#[test]
fn prepare_memo_prepares_each_stream_batch_once() {
    let plan = fixed_plan();
    let run = run_service(
        64,
        9,
        &plan,
        64 << 20,
        true,
        false,
        1,
        FaultMode::Off,
        FaultPlan::none(),
    );
    assert_eq!(run.prepare_misses, plan.batches.len() as u64);
    let db = small_db(47, 40_000, "nr-svc");
    let queries = sample_queries(&db, plan.total_queries(), 13);
    let parts = plan.partition(&queries).expect("plan matches its queries");
    for (b, (got, part)) in run.batches.iter().zip(parts).enumerate() {
        let want = serial_report(&SearchParams::blastp(), part, &db, ReportOptions::default())
            .expect("serial oracle");
        assert_eq!(got, &want, "batch {b}");
    }
}

/// The resident store must actually serve re-grants: with affinity on
/// and a capacious store, every batch after the first hits (> 50% of
/// all grants once the stream revisits each fragment), while the
/// zero-capacity affinity-off baseline never hits and re-reads
/// everything. Residency must not slow the virtual clock down. Both
/// read sources count hits the same way: the posted batch and the
/// pipelined `--io-async` reads.
#[test]
fn affinity_reuses_resident_fragments_across_the_stream() {
    for io_async in [false, true] {
        affinity_reuses_resident_fragments(io_async);
    }
}

fn affinity_reuses_resident_fragments(io_async: bool) {
    let plan = fixed_plan();
    let nbatches = plan.batches.len();
    let on = run_service(
        4,
        9,
        &plan,
        64 << 20,
        true,
        io_async,
        1,
        FaultMode::Off,
        FaultPlan::none(),
    );
    let off = run_service(
        4,
        9,
        &plan,
        0,
        false,
        io_async,
        1,
        FaultMode::Off,
        FaultPlan::none(),
    );
    assert!(on.killed.is_empty() && off.killed.is_empty());
    assert_eq!(on.metrics.queries, nbatches, "every stream batch seals");
    assert_eq!(off.metrics.queries, nbatches);

    // Grants total nfrags per batch on both sides.
    let grants = (9 * nbatches) as u64;
    assert_eq!(on.metrics.cache_hits + on.metrics.cache_misses, grants);
    assert_eq!(off.metrics.cache_hits, 0, "a zero-cap store never hits");
    assert_eq!(off.metrics.cache_misses, grants);

    // With stable affinity placement, only batch 0 misses.
    assert_eq!(
        on.metrics.cache_misses, 9,
        "only the cold batch reads (io_async={io_async})"
    );
    assert!(
        on.metrics.hit_rate() > 0.5,
        "hit rate {:.2} not > 0.5 (io_async={io_async})",
        on.metrics.hit_rate()
    );

    // Skipped reads can only shrink the virtual wall.
    assert!(on.metrics.wall_s <= off.metrics.wall_s);
    assert!(on.metrics.queries_per_sec >= off.metrics.queries_per_sec);
    assert!(on.metrics.p50_latency_s > 0.0);
    assert!(on.metrics.p99_latency_s >= on.metrics.p50_latency_s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full matrix the issue names: stream plans x affinity on/off x
    /// `--io-async` x `--threads` x a single-worker kill under Recover.
    /// Every batch's report must be byte-identical to its one-shot
    /// reference, whatever the placement, residency, and recovery path.
    #[test]
    fn stream_batches_recover_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=8,
        plan_seed in 0u64..64,
        affinity in any::<bool>(),
        io_async in any::<bool>(),
        threads in 1usize..=4,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
    ) {
        // The plan seed also picks the stream shape (the vendored
        // proptest tops out at 8 strategy slots).
        let users = 1 + (plan_seed % 3) as u32;
        let nbatches = 2 + (plan_seed / 3 % 2) as usize;
        let plan = QueryStreamPlan::generate(users, nbatches, N_QUERIES, MEAN_GAP_NS, plan_seed);
        let refs = references(nranks, nfrags, &plan);
        let victim = 1 + victim_seed % (nranks - 1);
        let fplan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let resident = if affinity { 64 << 20 } else { 0 };
        let run = run_service(
            nranks, nfrags, &plan, resident, affinity, io_async, threads,
            FaultMode::Recover, fplan,
        );
        // The trigger may never fire (the victim outlives its
        // kill_after-th send); either way every batch must match.
        prop_assert!(run.killed.is_empty() || run.killed == vec![victim]);
        prop_assert_eq!(run.batches.len(), refs.len());
        for (b, (got, want)) in run.batches.iter().zip(refs.iter()).enumerate() {
            prop_assert_eq!(
                got, want,
                "batch {} diverged: nranks={} nfrags={} users={} nbatches={} \
                 affinity={} io_async={} threads={} victim={} kill_after={} \
                 killed={:?}",
                b, nranks, nfrags, users, nbatches, affinity, io_async,
                threads, victim, kill_after, run.killed
            );
        }
    }
}
