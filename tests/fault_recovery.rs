//! Property test for the fault-recovery protocol: under an arbitrary
//! single-worker failure — any victim rank, any kill point in the
//! protocol — a Dynamic-schedule pioBLAST run in `FaultMode::Recover`
//! produces output byte-identical to a fault-free run.
//!
//! The kill trigger counts the victim's *sends* (initial fragment
//! request, per-grant acks, submission, merge acknowledgment), so the
//! sampled kill points land at every stage of the master/worker
//! exchange. Triggers past the victim's last send simply never fire;
//! the run then completes fault-free and must still match the
//! reference, so both branches of the property are meaningful.

use std::sync::OnceLock;

use mpiblast::Platform;
use pioblast::{FaultMode, FragmentSchedule, PioBlastConfig};
use proptest::prelude::*;
use simcluster::{FaultPlan, Sim};

mod common;
use common::{sample_queries, small_db};

fn run_recover_opts(
    nranks: usize,
    nfrags: usize,
    query_batch: Option<usize>,
    checkpoint: bool,
    collective_input: bool,
    plan: FaultPlan,
) -> (Vec<u8>, Vec<usize>) {
    let db = small_db(21, 40_000, "nr-ft");
    let queries = sample_queries(&db, 3, 13);
    let sim = Sim::new(nranks);
    let cfg = PioBlastConfig {
        num_fragments: Some(nfrags),
        collective_output: false,
        query_batch,
        collective_input,
        schedule: FragmentSchedule::Dynamic,
        fault: FaultMode::Recover,
        checkpoint,
        ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
    };
    let out = sim.run_faulty(plan, |ctx| pioblast::run_rank(&ctx, &cfg));
    let bytes = cfg.env.shared.peek("results.txt").unwrap_or_default();
    (bytes, out.killed)
}

fn run_recover(nranks: usize, nfrags: usize, plan: FaultPlan) -> (Vec<u8>, Vec<usize>) {
    run_recover_opts(nranks, nfrags, None, false, false, plan)
}

fn reference_bytes() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let (bytes, killed) = run_recover(4, 9, FaultPlan::none());
        assert!(killed.is_empty());
        assert!(!bytes.is_empty(), "reference run produced no output");
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_single_worker_failure_recovers_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let plan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let (bytes, killed) = run_recover(nranks, nfrags, plan);
        // The trigger may never fire (the victim finishes before its
        // kill_after-th send); either way the bytes must match.
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} victim={} kill_after={} killed={:?}",
            nranks, nfrags, victim, kill_after, killed
        );
    }

    /// Query batching multiplies the protocol cycle: every batch replays
    /// the distribute/collect/write exchange, so a kill can land in any
    /// batch — including at a batch boundary, where the victim holds
    /// nothing. With or without fragment checkpointing, the recovered
    /// output must stay byte-identical to the fault-free reference.
    #[test]
    fn kill_during_any_batch_of_a_batched_run_recovers_byte_identically(
        nranks in 3usize..=4,
        nfrags in 4usize..=8,
        query_batch in 1usize..=2,
        victim_seed in 0usize..64,
        kill_after in 1u64..=14,
        checkpoint in any::<bool>(),
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let plan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let (bytes, killed) =
            run_recover_opts(nranks, nfrags, Some(query_batch), checkpoint, false, plan);
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} batch={} victim={} kill_after={} ckpt={} killed={:?}",
            nranks, nfrags, query_batch, victim, kill_after, checkpoint, killed
        );
    }

    /// The lifted restriction: `collective_input` now composes with the
    /// dynamic schedule and `FaultMode::Recover` (the plane degrades the
    /// read pattern to per-rank sieved access off the collective path
    /// instead of rejecting the config). Under an arbitrary worker kill,
    /// with and without fragment checkpointing, aggregated input must
    /// still recover byte-identically to the plain fault-free reference.
    #[test]
    fn collective_input_under_recovery_is_byte_identical(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
        checkpoint in any::<bool>(),
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let plan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let (bytes, killed) =
            run_recover_opts(nranks, nfrags, None, checkpoint, true, plan);
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} victim={} kill_after={} ckpt={} killed={:?}",
            nranks, nfrags, victim, kill_after, checkpoint, killed
        );
    }
}
