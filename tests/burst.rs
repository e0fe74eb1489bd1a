//! Property tests for the burst-buffer staging tier (`--burst-buffer`).
//!
//! Staging changes *where* output and checkpoint bytes sit between an
//! epoch and its fence — absorbed into the node's staging volume,
//! drained asynchronously — but must never change *what* the merged
//! report contains. The properties here sweep staging capacity from
//! zero (every put backpressures and the plane degrades to direct
//! writes) through bounded (bursty grant traffic hits `StagingFull`
//! mid-run) to effectively unbounded, and compose that with
//! `--io-async`, intra-rank compute
//! slots (`--threads`), query batching, and `FaultMode::Recover`
//! worker kills. Every combination must reproduce the unstaged
//! reference bytes.

use std::sync::OnceLock;

use mpiblast::Platform;
use pioblast::{BurstOptions, FaultMode, FragmentSchedule, PioBlastConfig};
use proptest::prelude::*;
use simcluster::{FaultPlan, Sim};

mod common;
use common::{sample_queries, small_db};

#[derive(Clone)]
struct Opts {
    nranks: usize,
    nfrags: usize,
    platform: Platform,
    burst: Option<BurstOptions>,
    io_async: bool,
    collective_output: bool,
    schedule: FragmentSchedule,
    fault: FaultMode,
    checkpoint: bool,
    query_batch: Option<usize>,
    threads: usize,
    plan: FaultPlan,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            nranks: 4,
            nfrags: 9,
            platform: Platform::blade_cluster(),
            burst: None,
            io_async: false,
            collective_output: true,
            schedule: FragmentSchedule::Static,
            fault: FaultMode::Off,
            checkpoint: false,
            query_batch: None,
            threads: 1,
            plan: FaultPlan::none(),
        }
    }
}

fn run_opts(opts: Opts) -> (Vec<u8>, Vec<usize>) {
    let db = small_db(21, 40_000, "nr-burst");
    let queries = sample_queries(&db, 3, 13);
    let sim = Sim::new(opts.nranks);
    let cfg = PioBlastConfig {
        num_fragments: Some(opts.nfrags),
        collective_output: opts.collective_output,
        query_batch: opts.query_batch,
        schedule: opts.schedule,
        fault: opts.fault,
        checkpoint: opts.checkpoint,
        threads: opts.threads,
        io: mpiio::IoOptions {
            io_async: opts.io_async,
            burst: opts.burst,
            ..Default::default()
        },
        ..PioBlastConfig::staged(&sim, &opts.platform, &db, &queries)
    };
    let out = sim.run_faulty(opts.plan.clone(), |ctx| pioblast::run_rank(&ctx, &cfg));
    let bytes = cfg.env.shared.peek("results.txt").unwrap_or_default();
    (bytes, out.killed)
}

fn reference_bytes() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let (bytes, killed) = run_opts(Opts::default());
        assert!(killed.is_empty());
        assert!(!bytes.is_empty(), "reference run produced no output");
        bytes
    })
}

/// The capacity ladder the properties sweep: zero (every put refused —
/// full degradation to direct writes), 64 KiB (bursty epochs hit
/// `StagingFull` mid-run and individual puts degrade), 256 KiB, and
/// the unbounded default.
fn capacity_pick(i: usize) -> u64 {
    [0, 64 * 1024, 256 * 1024, BurstOptions::default().capacity][i]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bounded staging under bursty grant traffic degrades gracefully:
    /// whatever mix of absorbed and refused puts a capacity bound
    /// produces — across the async plane, intra-rank
    /// compute slots, and batched epochs — the merged report is
    /// byte-identical to the unstaged run's.
    #[test]
    fn bounded_staging_degrades_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        capacity_i in 0usize..4,
        flags in 0u32..8,
        batch_pick in 0usize..=2,
        threads in 1usize..=2,
    ) {
        let (io_async, dynamic, collective_output) =
            (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let opts = Opts {
            nranks,
            nfrags,
            burst: Some(BurstOptions {
                capacity: capacity_pick(capacity_i),
            }),
            io_async,
            collective_output,
            schedule: if dynamic { FragmentSchedule::Dynamic } else { FragmentSchedule::Static },
            query_batch: if batch_pick == 0 { None } else { Some(batch_pick) },
            threads,
            ..Opts::default()
        };
        let (bytes, killed) = run_opts(opts);
        prop_assert!(killed.is_empty());
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} cap={} async={} dyn={} co={} batch={} threads={}",
            nranks, nfrags, capacity_pick(capacity_i),
            io_async, dynamic, collective_output, batch_pick, threads
        );
    }

    /// A worker killed with staged-but-undrained data — checkpoint
    /// blobs absorbed into its staging volume, output runs in flight —
    /// must not corrupt recovery: the staged data is node-local and
    /// dies with the rank, the fence-before-ack contract means nothing
    /// acked was lost, and `FaultMode::Recover` reproduces the
    /// fault-free unstaged bytes.
    #[test]
    fn kill_with_staged_data_recovers_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
        capacity_i in 0usize..4,
        checkpoint in any::<bool>(),
        io_async in any::<bool>(),
        batch_pick in 0usize..=2,
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let opts = Opts {
            nranks,
            nfrags,
            burst: Some(BurstOptions {
                capacity: capacity_pick(capacity_i),
            }),
            io_async,
            collective_output: false,
            schedule: FragmentSchedule::Dynamic,
            fault: FaultMode::Recover,
            checkpoint,
            query_batch: if batch_pick == 0 { None } else { Some(batch_pick) },
            plan: FaultPlan::none().kill_after_sends(victim, kill_after),
            ..Opts::default()
        };
        let (bytes, killed) = run_opts(opts);
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} victim={} kill_after={} cap={} ckpt={} async={} batch={} killed={:?}",
            nranks, nfrags, victim, kill_after, capacity_pick(capacity_i),
            checkpoint, io_async, batch_pick, killed
        );
    }
}

/// Zero capacity refuses every put: the run completes entirely on the
/// direct-write path and still matches the reference — the degradation
/// contract in its pure form.
#[test]
fn zero_capacity_degrades_to_direct_writes() {
    let (bytes, killed) = run_opts(Opts {
        burst: Some(BurstOptions { capacity: 0 }),
        query_batch: Some(2),
        ..Opts::default()
    });
    assert!(killed.is_empty());
    assert_eq!(&bytes[..], reference_bytes());
}

/// Unbounded staging on the checkpointing Recover path: every
/// checkpoint put is absorbed and fenced before its ack, so a
/// mid-stream kill adopts exactly the checkpoints the master was told
/// about.
#[test]
fn staged_checkpoints_survive_kill() {
    let (bytes, killed) = run_opts(Opts {
        burst: Some(BurstOptions::default()),
        collective_output: false,
        schedule: FragmentSchedule::Dynamic,
        fault: FaultMode::Recover,
        checkpoint: true,
        query_batch: Some(2),
        plan: FaultPlan::none().kill_after_sends(2, 4),
        ..Opts::default()
    });
    assert!(killed.is_empty() || killed == vec![2]);
    assert_eq!(&bytes[..], reference_bytes());
}
