//! Integration tests for the observability plane (`tracelog`):
//!
//! * **Determinism** — the exported Chrome trace of a modeled-compute
//!   run is byte-identical across repeated executions of the same
//!   configuration (the DES is deterministic, and so must be every
//!   layer of the trace pipeline: stamping, merging, exporting).
//! * **Recovery sequences** — a `FaultMode::Recover` run with a worker
//!   kill leaves a legible `worker_dead -> requeue -> epoch_start`
//!   record on the master's runtime lane.
//! * **Acceptance** — a 16-process blade/NFS pioBLAST run produces a
//!   validator-clean Chrome trace whose per-rank phase timelines each
//!   partition the DES wall clock exactly, and whose critical-path
//!   breakdown is exactly what `RunSummary` reports (the scaling hack
//!   is gone).

use blast_bench::runner::PHASE_PRECEDENCE;
use blast_bench::{run_traced, Program};
use mpiblast::Platform;
use pioblast::{FaultMode, FragmentSchedule, PioBlastConfig};
use proptest::prelude::*;
use simcluster::{FaultPlan, Sim};
use tracelog::{analyze, chrome, Lane, Trace, Tracer};

mod common;
use common::{sample_queries, small_db};

/// Run a traced pioBLAST job (modeled compute, so virtual time — and
/// therefore the trace — is a pure function of the configuration).
fn run_pio_traced(
    nranks: usize,
    nfrags: usize,
    db_seed: u64,
    fault: FaultMode,
    plan: FaultPlan,
) -> (Trace, Vec<usize>) {
    let db = small_db(db_seed, 40_000, "nr-trace");
    let queries = sample_queries(&db, 3, 13);
    let sim = Sim::new(nranks);
    let tracer = Tracer::new(nranks);
    sim.set_tracer(tracer.clone());
    let cfg = PioBlastConfig {
        num_fragments: Some(nfrags),
        collective_output: false,
        schedule: FragmentSchedule::Dynamic,
        fault,
        ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
    };
    let out = sim.run_faulty(plan, |ctx| pioblast::run_rank(&ctx, &cfg));
    let trace = tracer.finish(out.elapsed.since(simcluster::SimTime::ZERO).0);
    (trace, out.killed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same configuration, same seed -> byte-identical Chrome export.
    #[test]
    fn traces_are_byte_identical_across_repeated_runs(
        nranks in 3usize..=4,
        nfrags in 4usize..=8,
        db_seed in 20u64..24,
    ) {
        let (a, killed_a) =
            run_pio_traced(nranks, nfrags, db_seed, FaultMode::Off, FaultPlan::none());
        let (b, killed_b) =
            run_pio_traced(nranks, nfrags, db_seed, FaultMode::Off, FaultPlan::none());
        prop_assert!(killed_a.is_empty() && killed_b.is_empty());
        prop_assert_eq!(a.wall, b.wall);
        let json_a = chrome::export_chrome(&a, None);
        let json_b = chrome::export_chrome(&b, None);
        prop_assert!(!json_a.is_empty());
        prop_assert_eq!(json_a, json_b);
    }
}

/// Runtime-lane event names on the master, in merged order, filtered to
/// the recovery vocabulary.
fn recovery_sequence(trace: &Trace) -> Vec<String> {
    trace
        .rank_events(0)
        .filter(|e| e.lane == Lane::Runtime)
        .filter(|e| matches!(e.name.as_ref(), "epoch_start" | "worker_dead" | "requeue"))
        .map(|e| e.name.to_string())
        .collect()
}

#[test]
fn recover_run_emits_dead_requeue_epoch_sequence() {
    // Kill worker 1 after its second send (initial request + first
    // grant ack): it dies holding an unfinished fragment, so recovery
    // must requeue it and re-open collection.
    let plan = FaultPlan::none().kill_after_sends(1, 2);
    let (trace, killed) = run_pio_traced(4, 6, 21, FaultMode::Recover, plan);
    assert_eq!(killed, vec![1]);

    let seq = recovery_sequence(&trace);
    let dead = seq.iter().position(|n| n == "worker_dead");
    let requeue = seq.iter().position(|n| n == "requeue");
    let dead = dead.expect("the kill must surface as worker_dead");
    let requeue = requeue.expect("the victim's fragment must be requeued");
    assert!(dead < requeue, "death precedes its requeue: {seq:?}");
    assert!(
        seq.iter()
            .rposition(|n| n == "epoch_start")
            .expect("collection must re-open")
            > requeue,
        "an epoch must start after the requeue: {seq:?}"
    );
    // Exactly one death, and its rank is the victim.
    let deaths: Vec<_> = trace
        .rank_events(0)
        .filter(|e| e.lane == Lane::Runtime && e.name == "worker_dead")
        .collect();
    assert_eq!(deaths.len(), 1);
    assert!(deaths[0]
        .args
        .iter()
        .any(|(k, v)| *k == "rank" && *v == tracelog::ArgVal::U64(1)));

    // Golden: the same plan replays to the same sequence.
    let (trace2, killed2) = run_pio_traced(4, 6, 21, FaultMode::Recover, plan_clone());
    assert_eq!(killed2, vec![1]);
    assert_eq!(seq, recovery_sequence(&trace2));
}

fn plan_clone() -> FaultPlan {
    FaultPlan::none().kill_after_sends(1, 2)
}

#[test]
fn blade_16_proc_trace_is_valid_and_matches_the_summary() {
    let workload = blast_bench::workload::nr_like(60_000, 1024, 29);
    let blade = Platform::blade_cluster();
    let (summary, trace) = run_traced(Program::PioBlast, 16, None, &blade, &workload, |_| {});
    assert_eq!(trace.nranks, 16);
    assert_eq!(trace.dropped, 0);
    assert!(trace.wall > 0);

    // Every rank's phase timeline partitions [0, wall] exactly.
    for rank in 0..trace.nranks {
        let totals = analyze::rank_phase_totals(&trace, rank);
        assert_eq!(totals.total(), trace.wall, "rank {rank}");
    }

    // The summary's breakdown is the trace's critical path, and it
    // partitions the wall with no rescaling.
    let path = analyze::critical_path(&trace, &PHASE_PRECEDENCE);
    assert_eq!(path.total(), trace.wall);
    let secs = |name: &str| path.get(name) as f64 / 1e9;
    assert!((summary.search - secs("search")).abs() < 1e-9);
    assert!((summary.copy_input - secs("copy") - secs("input")).abs() < 1e-9);
    assert!((summary.output - secs("output")).abs() < 1e-9);
    let parts = summary.copy_input + summary.search + summary.output + summary.other;
    assert!((parts - summary.total).abs() < 1e-9);
    assert!(summary.search > 0.0);

    // The export is validator-clean (Perfetto-loadable shape).
    let json = chrome::export_chrome(&trace, None);
    let stats = tracelog::check::validate_chrome(&json).expect("exported trace validates");
    assert_eq!(stats.ranks, 16);
    assert!(stats.spans > 0 && stats.instants > 0);

    // Lane filtering drops the excluded subsystems but stays valid.
    let filtered = chrome::export_chrome(&trace, Some(&[Lane::Phase, Lane::Search]));
    let fstats = tracelog::check::validate_chrome(&filtered).expect("filtered trace validates");
    assert!(fstats.events < stats.events);
}
