//! Pooled-execution invariance and shutdown tests.
//!
//! The DES engine runs ranks as resumable continuations on a worker
//! pool; the contract is that the pool width is *invisible*: any width
//! produces bit-identical reports, clocks, stats, and trace exports.
//! These tests pin that contract end to end through a full pioBLAST
//! run, and pin the panic-shutdown path: a rank-body panic must drain
//! the pool and surface a typed error, never deadlock the run.

use mpiblast::Platform;
use pioblast::{FragmentSchedule, PioBlastConfig};
use proptest::prelude::*;
use simcluster::{default_pool_threads, FaultPlan, Sim, SimDuration, SimError};
use tracelog::{chrome, Tracer};

mod common;
use common::{sample_queries, small_db};

/// One full pioBLAST run at an explicit pool width; returns the report
/// bytes, the Chrome trace export, the virtual wall clock, and the
/// engine stats — everything the invariance contract covers.
fn run_at_pool(
    pool: usize,
    nranks: usize,
    nfrags: usize,
    db_seed: u64,
) -> (Vec<u8>, String, u64, simcluster::engine::EngineStats) {
    let db = small_db(db_seed, 30_000, "nr-pool");
    let queries = sample_queries(&db, 2, 17);
    let sim = Sim::with_pool(nranks, pool);
    let tracer = Tracer::new(nranks);
    sim.set_tracer(tracer.clone());
    let cfg = PioBlastConfig {
        num_fragments: Some(nfrags),
        schedule: FragmentSchedule::Dynamic,
        threads: 2,
        ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
    };
    let out = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    for r in &out.outputs {
        r.as_ref().expect("rank failed");
    }
    let report = cfg.env.shared.peek("results.txt").expect("report exists");
    let wall = out.elapsed.since(simcluster::SimTime::ZERO).0;
    let trace = tracer.finish(wall);
    (
        report.to_vec(),
        chrome::export_chrome(&trace, None),
        wall,
        out.stats,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Pool widths 1, 2, and ncpus (the default) produce byte-identical
    /// reports AND byte-identical trace exports for the same seed.
    #[test]
    fn pool_width_never_changes_report_or_trace_bytes(
        nranks in 3usize..=5,
        nfrags in 3usize..=6,
        db_seed in 40u64..43,
    ) {
        let base = run_at_pool(1, nranks, nfrags, db_seed);
        for pool in [2, default_pool_threads()] {
            let got = run_at_pool(pool, nranks, nfrags, db_seed);
            prop_assert_eq!(&got.0, &base.0, "report bytes diverged at pool={}", pool);
            prop_assert_eq!(&got.1, &base.1, "trace export diverged at pool={}", pool);
            prop_assert_eq!(got.2, base.2, "wall clock diverged at pool={}", pool);
            prop_assert_eq!(got.3, base.3, "engine stats diverged at pool={}", pool);
        }
    }
}

#[test]
fn rank_panic_drains_pool_and_reports_typed_error() {
    // Many ranks parked in receives across a small pool; one panics.
    // The run must return (drain, not deadlock) with the panic typed.
    for pool in [1, 2, 4] {
        let err = Sim::with_pool(12, pool)
            .try_run_faulty(FaultPlan::none(), |ctx| {
                ctx.charge(SimDuration::from_micros(ctx.rank() as u64));
                if ctx.rank() == 7 {
                    panic!("injected failure on rank 7");
                }
                let _ = ctx.recv(None, None);
            })
            .expect_err("rank 7 panics");
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 7, "pool={pool}");
                assert_eq!(message, "injected failure on rank 7");
            }
            other => panic!("pool={pool}: expected RankPanic, got {other}"),
        }
    }
}

#[test]
fn panic_mid_collective_surfaces_not_hangs() {
    // A panic inside a real pioBLAST worker body (mid-protocol, peers
    // blocked in engine receives) must surface through run's legacy
    // panic path with the same message format as the thread-per-rank
    // engine produced.
    let db = small_db(50, 30_000, "nr-pool");
    let queries = sample_queries(&db, 1, 17);
    let sim = Sim::with_pool(4, 2);
    let cfg = PioBlastConfig {
        num_fragments: Some(4),
        schedule: FragmentSchedule::Dynamic,
        ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
    };
    let err = sim
        .try_run_faulty(FaultPlan::none(), |ctx| {
            if ctx.rank() == 2 {
                ctx.charge(SimDuration::from_micros(3));
                panic!("worker 2 died mid-run");
            }
            pioblast::run_rank(&ctx, &cfg)
        })
        .expect_err("worker 2 panics");
    assert_eq!(err.to_string(), "rank 2 panicked: worker 2 died mid-run");
}
