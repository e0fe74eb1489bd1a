//! Fault-tolerance policy and error types for the pioBLAST run.
//!
//! The protocol that *implements* these policies lives in
//! [`crate::runtime`]: one event-driven master/worker state-machine pair
//! shared by every mode. [`FaultMode`] only selects how the runtime's
//! actions are lowered —
//!
//! * `Off` uses collectives (broadcast, gather, scatter), whose binomial
//!   trees deadlock the moment a rank dies (like real MPI without fault
//!   tolerance);
//! * `Detect` switches to point-to-point commands with liveness sweeps
//!   and fails fast with a typed [`PioError`] on any death;
//! * `Recover` (dynamic schedule only) re-queues a dead worker's
//!   fragments to survivors and restarts the collection epoch, producing
//!   byte-identical output. With [`checkpointing`](crate::runtime)
//!   enabled, only the victim's *unfinished* fragments are re-queued.
//!
//! **Why recovery is byte-identical.** Each epoch first completes
//! distribution, so the collected submissions always cover the full
//! fragment set; `merge_and_layout` is deterministic in the submissions'
//! *content* (not their placement — the invariance tests in `app` pin
//! this), so every epoch computes the same offsets and bytes; and output
//! flushes through the I/O plane rewrite records at those fixed offsets,
//! so records re-written after a restart are idempotent. The surviving
//! run therefore produces exactly the failure-free file.
//!
//! Stale messages from an aborted epoch are fenced with an 8-byte epoch
//! prefix on `SUBMIT_REQ`/`SUBMIT`/`ASSIGN`/`DONE` payloads; mismatching
//! epochs are discarded.

use std::fmt;

/// Fault-tolerance mode of a pioBLAST run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// No detection: the plain collective protocol (a rank death hangs
    /// the run, like real MPI without fault tolerance).
    #[default]
    Off,
    /// Detect rank death and fail fast with a typed [`PioError`].
    Detect,
    /// Detect worker death and reassign the dead worker's fragments to
    /// survivors; the output is byte-identical to a failure-free run.
    /// Requires the dynamic schedule.
    Recover,
}

/// Why a pioBLAST run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PioError {
    /// A worker died (reported by the master in `Detect` mode).
    WorkerDied {
        /// The dead rank.
        rank: usize,
    },
    /// Every worker died; recovery has nobody left to reassign to.
    AllWorkersDied,
    /// The master died (reported by surviving workers).
    MasterDied,
    /// The master told this worker to abandon the run.
    Aborted,
    /// A malformed or out-of-place message.
    Protocol(String),
    /// The input stage failed to read or materialize a fragment.
    Input(crate::input::InputError),
    /// The output stage could not land its bytes (e.g. a full file
    /// system): the run degrades to a typed error instead of aborting.
    Output(parafs::StoreError),
    /// The configuration combines knobs the runtime does not support
    /// (rejected up front by `PioBlastConfig::validate`, on every rank).
    UnsupportedConfig(String),
}

impl From<crate::input::InputError> for PioError {
    fn from(e: crate::input::InputError) -> PioError {
        PioError::Input(e)
    }
}

impl fmt::Display for PioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PioError::WorkerDied { rank } => write!(f, "worker rank {rank} died"),
            PioError::AllWorkersDied => write!(f, "every worker died"),
            PioError::MasterDied => write!(f, "master died"),
            PioError::Aborted => write!(f, "run aborted by the master"),
            PioError::Protocol(what) => write!(f, "protocol error: {what}"),
            PioError::Input(e) => write!(f, "input stage failed: {e}"),
            PioError::Output(e) => write!(f, "output stage failed: {e}"),
            PioError::UnsupportedConfig(what) => {
                write!(f, "unsupported configuration: {what}")
            }
        }
    }
}

impl std::error::Error for PioError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{run_rank, FragmentSchedule, PioBlastConfig};
    use blast_core::seq::SeqRecord;
    use mpiblast::platform::Platform;
    use mpiblast::{ModelParams, RankReport};
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use seqfmt::synth::{generate, SynthConfig};
    use simcluster::{FaultPlan, Sim, SimDuration, SimTime};
    use tracelog::{Lane, Tracer};

    fn small_db() -> seqfmt::FormattedDb {
        let recs = generate(&SynthConfig::nr_like(21, 40_000));
        format_records(&recs, &FormatDbConfig::protein("nr-test"))
    }

    fn sample_queries(db: &seqfmt::FormattedDb, n: usize) -> Vec<SeqRecord> {
        use blast_core::search::SubjectSource;
        let frag = seqfmt::FragmentData::from_volume(&db.volumes[0]);
        (0..n)
            .map(|i| {
                let s = frag.subject((i * 13) % frag.num_subjects());
                SeqRecord {
                    defline: format!("query_{i:05} sampled"),
                    residues: s.residues.to_vec(),
                    molecule: blast_core::Molecule::Protein,
                }
            })
            .collect()
    }

    type FaultyOutputs = Vec<Option<Result<RankReport, PioError>>>;

    fn run_with_plan(
        nranks: usize,
        nfrags: usize,
        schedule: FragmentSchedule,
        fault: FaultMode,
        plan: FaultPlan,
    ) -> (Vec<u8>, FaultyOutputs, Vec<usize>) {
        run_with_plan_ckpt(nranks, nfrags, schedule, fault, false, plan)
    }

    fn run_with_plan_ckpt(
        nranks: usize,
        nfrags: usize,
        schedule: FragmentSchedule,
        fault: FaultMode,
        checkpoint: bool,
        plan: FaultPlan,
    ) -> (Vec<u8>, FaultyOutputs, Vec<usize>) {
        run_traced(nranks, nfrags, schedule, fault, checkpoint, plan, None)
    }

    fn run_traced(
        nranks: usize,
        nfrags: usize,
        schedule: FragmentSchedule,
        fault: FaultMode,
        checkpoint: bool,
        plan: FaultPlan,
        tracer: Option<&Tracer>,
    ) -> (Vec<u8>, FaultyOutputs, Vec<usize>) {
        let db = small_db();
        let queries = sample_queries(&db, 3);
        let sim = Sim::new(nranks);
        if let Some(t) = tracer {
            sim.set_tracer(t.clone());
        }
        let cfg = PioBlastConfig {
            num_fragments: Some(nfrags),
            collective_output: false,
            schedule,
            fault,
            checkpoint,
            ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
        };
        let out = sim.run_faulty(plan, |ctx| run_rank(&ctx, &cfg));
        let bytes = cfg.env.shared.peek("results.txt").unwrap_or_default();
        (bytes, out.outputs, out.killed)
    }

    fn reference_bytes() -> Vec<u8> {
        let (bytes, outputs, killed) = run_with_plan(
            4,
            9,
            FragmentSchedule::Dynamic,
            FaultMode::Off,
            FaultPlan::none(),
        );
        assert!(killed.is_empty());
        assert!(outputs.iter().all(|o| matches!(o, Some(Ok(_)))));
        bytes
    }

    #[test]
    fn fault_free_fault_modes_are_byte_identical() {
        let reference = reference_bytes();
        for (schedule, fault, checkpoint) in [
            (FragmentSchedule::Dynamic, FaultMode::Recover, false),
            (FragmentSchedule::Dynamic, FaultMode::Recover, true),
            (FragmentSchedule::Dynamic, FaultMode::Detect, false),
            (FragmentSchedule::Static, FaultMode::Detect, false),
        ] {
            let (bytes, outputs, killed) =
                run_with_plan_ckpt(4, 9, schedule, fault, checkpoint, FaultPlan::none());
            assert!(killed.is_empty());
            assert!(outputs.iter().all(|o| matches!(o, Some(Ok(_)))));
            assert_eq!(bytes, reference, "{schedule:?}/{fault:?}/ckpt={checkpoint}");
        }
    }

    #[test]
    fn single_worker_death_recovers_byte_identically() {
        let reference = reference_bytes();
        // Kill at different protocol points: mid-distribution (after the
        // initial request + one grant ack), late distribution, and right
        // after posting the submission — with and without checkpointing.
        for checkpoint in [false, true] {
            for sends in [2u64, 4, 5] {
                let (bytes, outputs, killed) = run_with_plan_ckpt(
                    4,
                    9,
                    FragmentSchedule::Dynamic,
                    FaultMode::Recover,
                    checkpoint,
                    FaultPlan::none().kill_after_sends(2, sends),
                );
                assert_eq!(killed, vec![2], "kill after {sends} sends");
                assert_eq!(
                    bytes, reference,
                    "kill after {sends} sends, ckpt={checkpoint}"
                );
                assert!(matches!(outputs[0], Some(Ok(_))), "master survives");
                assert!(outputs[2].is_none(), "killed rank has no output");
            }
        }
    }

    #[test]
    fn three_worker_deaths_recover_byte_identically() {
        let reference = reference_bytes();
        for checkpoint in [false, true] {
            let plan = FaultPlan::none()
                .kill_after_sends(1, 2)
                .kill_after_sends(2, 4)
                .kill_after_sends(3, 6);
            let (bytes, outputs, killed) = run_with_plan_ckpt(
                5,
                12,
                FragmentSchedule::Dynamic,
                FaultMode::Recover,
                checkpoint,
                plan,
            );
            assert_eq!(killed, vec![1, 2, 3]);
            assert_eq!(bytes, reference, "ckpt={checkpoint}");
            assert!(matches!(outputs[0], Some(Ok(_))), "master survives");
            assert!(matches!(outputs[4], Some(Ok(_))), "last worker survives");
        }
    }

    /// The prepare memo publishes a batch before charging its prepare,
    /// so a worker killed inside that charge leaves a complete entry
    /// behind, and recovery still reproduces the fault-free bytes.
    #[test]
    fn kill_during_prepare_charge_recovers_byte_identically() {
        let reference = reference_bytes();
        let residues: u64 = sample_queries(&small_db(), 3)
            .iter()
            .map(|q| q.len() as u64)
            .sum();
        let charge = SimDuration::from_secs_f64(
            ModelParams::default().per_prepare_residue * residues as f64,
        )
        .0;
        let tracer = Tracer::new(4);
        let recover = |plan, tracer| {
            let dynamic = FragmentSchedule::Dynamic;
            run_traced(4, 9, dynamic, FaultMode::Recover, false, plan, tracer)
        };
        recover(FaultPlan::none(), Some(&tracer));
        let trace = tracer.finish(0);
        for victim in 1..4 {
            // The victim's prepare charge: the one engine block whose
            // next wake comes exactly one modeled prepare later.
            let engine: Vec<_> = trace
                .events
                .iter()
                .filter(|e| e.rank == victim && e.lane == Lane::Engine)
                .collect();
            let starts: Vec<u64> = engine
                .windows(2)
                .filter(|w| w[0].name == "block" && w[1].name == "wake")
                .filter(|w| w[1].t - w[0].t == charge)
                .map(|w| w[0].t)
                .collect();
            assert_eq!(starts.len(), 1, "rank {victim} prepares once");
            let plan = FaultPlan::none().kill_at(victim, SimTime(starts[0] + charge / 2));
            let (bytes, outputs, killed) = recover(plan, None);
            assert_eq!(killed, vec![victim]);
            assert!(matches!(outputs[0], Some(Ok(_))), "master survives");
            assert_eq!(bytes, reference, "rank {victim} killed mid-prepare");
        }
    }

    #[test]
    fn static_detect_fails_fast_with_typed_error() {
        let (_, outputs, killed) = run_with_plan(
            4,
            6,
            FragmentSchedule::Static,
            FaultMode::Detect,
            FaultPlan::none().kill_after_sends(2, 1),
        );
        assert_eq!(killed, vec![2]);
        assert_eq!(outputs[0], Some(Err(PioError::WorkerDied { rank: 2 })));
        for w in [1, 3] {
            assert_eq!(outputs[w], Some(Err(PioError::Aborted)), "worker {w}");
        }
    }

    #[test]
    fn dynamic_detect_fails_fast_with_typed_error() {
        let (_, outputs, killed) = run_with_plan(
            4,
            9,
            FragmentSchedule::Dynamic,
            FaultMode::Detect,
            FaultPlan::none().kill_after_sends(2, 2),
        );
        assert_eq!(killed, vec![2]);
        assert_eq!(outputs[0], Some(Err(PioError::WorkerDied { rank: 2 })));
        for w in [1, 3] {
            assert_eq!(outputs[w], Some(Err(PioError::Aborted)), "worker {w}");
        }
    }

    #[test]
    fn master_death_surfaces_to_workers() {
        let (_, outputs, killed) = run_with_plan(
            4,
            9,
            FragmentSchedule::Dynamic,
            FaultMode::Recover,
            FaultPlan::none().kill_after_sends(0, 5),
        );
        assert_eq!(killed, vec![0]);
        assert!(outputs[0].is_none());
        for (w, out) in outputs.iter().enumerate().skip(1) {
            assert_eq!(*out, Some(Err(PioError::MasterDied)), "worker {w}");
        }
    }

    #[test]
    fn losing_every_worker_is_a_typed_error() {
        let (_, outputs, killed) = run_with_plan(
            2,
            3,
            FragmentSchedule::Dynamic,
            FaultMode::Recover,
            FaultPlan::none().kill_after_sends(1, 2),
        );
        assert_eq!(killed, vec![1]);
        assert_eq!(outputs[0], Some(Err(PioError::AllWorkersDied)));
    }

    #[test]
    fn checkpoint_blobs_are_cleaned_up_after_a_run() {
        let (_, outputs, _) = run_with_plan_ckpt(
            4,
            6,
            FragmentSchedule::Dynamic,
            FaultMode::Recover,
            true,
            FaultPlan::none(),
        );
        assert!(outputs.iter().all(|o| matches!(o, Some(Ok(_)))));
        // run_with_plan_ckpt peeks the shared store after the run; make
        // our own run here to inspect the blob paths directly.
        let db = small_db();
        let queries = sample_queries(&db, 3);
        let sim = Sim::new(4);
        let cfg = PioBlastConfig {
            num_fragments: Some(6),
            collective_output: false,
            schedule: FragmentSchedule::Dynamic,
            fault: FaultMode::Recover,
            checkpoint: true,
            ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
        };
        sim.run(|ctx| run_rank(&ctx, &cfg));
        let leftovers: Vec<String> = cfg.env.shared.peek_list("results.txt.ckpt.");
        assert!(
            leftovers.is_empty(),
            "stale checkpoint blobs: {leftovers:?}"
        );
    }
}
