//! The pioBLAST run: dynamic virtual partitioning, parallel input,
//! worker-side result caching, metadata-only merging, and collective
//! output (paper §3), plus the §5 extensions (query batching, local
//! pruning, output-mode ablation).
//!
//! Differences from the mpiBLAST baseline, stage by stage:
//!
//! | stage   | mpiBLAST                              | pioBLAST (here) |
//! |---------|----------------------------------------|-----------------|
//! | prepare | pre-partitioned physical fragments     | none needed |
//! | input   | copy fragment files, re-read in search | each worker `read_at`s its byte ranges of the shared files |
//! | search  | I/O embedded via mmap                  | pure in-memory search |
//! | results | full alignments to master, serialized per-alignment sequence fetch | metadata only; records formatted and cached where the data lives |
//! | output  | master formats and writes everything   | master assigns offsets; workers write collectively via MPI-IO |
//!
//! **Query batching** (paper §5: "query batching and pipelining that
//! adjust to the amount of available memory"): with
//! [`PioBlastConfig::query_batch`] set, the query set is processed in
//! batches — the database stays in memory across batches, but result
//! caches and formatted buffers are bounded by the batch size. Output is
//! byte-identical to an unbatched run; the cost is one search pass over
//! the in-memory fragments per batch.
//!
//! The protocol itself — who grants fragments, when submissions are
//! collected, how deaths are handled — lives in [`crate::runtime`] as one
//! event-driven state-machine pair shared by every mode; this module only
//! validates the configuration and dispatches ranks into it.

use blast_core::search::SearchParams;
use blast_core::{Molecule, SeqRecord};
use mpiblast::platform::{ClusterEnv, Platform};
use mpiblast::report::ReportOptions;
use mpiblast::setup::{stage_queries, stage_shared_db};
use mpiblast::{ComputeModel, RankReport, MASTER};
use mpisim::Comm;
use seqfmt::FormattedDb;
use simcluster::{RankCtx, Sim};

use crate::fault::{FaultMode, PioError};

/// How virtual fragments are handed to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FragmentSchedule {
    /// The master scatters a fixed, contiguous share to each worker up
    /// front (the paper's implementation).
    #[default]
    Static,
    /// Workers request fragments one at a time as they finish (paper §5:
    /// "the file ranges can be decided at run time and differentiated
    /// between different workers, ideal for ... heterogeneous nodes or
    /// skewed search"). Output bytes are unchanged; only placement moves.
    Dynamic,
}

/// Configuration of one pioBLAST run.
pub struct PioBlastConfig {
    /// Machine description.
    pub platform: Platform,
    /// Instantiated file systems.
    pub env: ClusterEnv,
    /// Compute-cost mode.
    pub compute: ComputeModel,
    /// BLAST search parameters.
    pub params: SearchParams,
    /// Report-size limits.
    pub report: ReportOptions,
    /// Alias-file path of the shared formatted database.
    pub db_alias: String,
    /// Query FASTA path on the shared file system.
    pub query_path: String,
    /// Output report path on the shared file system.
    pub output_path: String,
    /// Virtual fragments to create (`None` = natural partitioning, one
    /// per worker).
    pub num_fragments: Option<usize>,
    /// Write the report with two-phase collective I/O (the paper's
    /// design). `false` falls back to one independent `write_at` per
    /// record/section — the ablation showing what collective I/O buys.
    pub collective_output: bool,
    /// Paper §5 "early score communication" in its always-correct form:
    /// workers prune their local hit lists to the report limits before
    /// formatting/submitting (a worker can never contribute more than the
    /// global top-N's size, so output bytes are unchanged).
    pub local_prune: bool,
    /// Process queries in batches of this many (paper §5 query batching;
    /// `None` = one pass over the whole query set). Supported in every
    /// fault mode.
    pub query_batch: Option<usize>,
    /// Read the shared database files with aggregated reads instead of
    /// independent ranged reads (the paper's §4 alternative of "reading
    /// multiple global files simultaneously"). On the static fault-free
    /// schedule this is a true two-phase collective read; under the
    /// dynamic schedule or a fault mode the I/O plane aggregates
    /// (sieves) each rank's granted views instead — output bytes are
    /// identical in every combination.
    pub collective_input: bool,
    /// Fragment scheduling policy.
    pub schedule: FragmentSchedule,
    /// Fault-tolerance mode (see [`crate::fault`]). `Off` lowers the
    /// runtime onto collectives; `Detect` and `Recover` lower it onto a
    /// point-to-point master-driven protocol that notices rank death.
    /// Fault modes cannot synchronize ranks for two-phase collective
    /// I/O, so `collective_input`/`collective_output` degrade to
    /// per-rank sieved access through the I/O plane.
    pub fault: FaultMode,
    /// Persist each completed `(batch, fragment)` search result to the
    /// shared file system so a recovery epoch re-queues only the victim's
    /// *unfinished* fragments (see [`crate::runtime`]). Requires
    /// [`FaultMode::Recover`].
    pub checkpoint: bool,
    /// Per-rank compute-speed multipliers (> 1 = slower node), to model
    /// heterogeneous clusters; `None` = homogeneous.
    pub rank_compute: Option<Vec<f64>>,
    /// Intra-rank compute slots per worker (`--threads`): each granted
    /// fragment's subjects are sharded across this many slots (one
    /// `SearchScratch` per slot) and the per-shard hit lists are merged
    /// deterministically, so output bytes never change. Must be ≥ 1 and
    /// ≤ the platform's `cores_per_node`.
    pub threads: usize,
    /// I/O-plane tuning: the physical access strategy (independent,
    /// sieve, or the adaptive two-phase default) and the sieve-hole
    /// threshold. Strategy is a pure performance knob — output bytes
    /// never depend on it.
    pub io: mpiio::IoOptions,
    /// Query-stream service mode (`pioblast serve`): the query set is
    /// split by a [`crate::service::QueryStreamPlan`] into per-user
    /// stream batches, admitted at their arrival times, with every
    /// fragment re-granted per batch; workers keep a bounded resident
    /// fragment store so re-grants skip their reads, and the scheduler
    /// steers each fragment back to its last holder when
    /// [`crate::service::ServiceOptions::affinity`] is set. Each stream
    /// batch's report lands at `<output_path>.q<batch>`, byte-identical
    /// to a one-shot run over the same queries. Requires the dynamic
    /// schedule and excludes `query_batch`. `None` = one-shot run.
    pub service: Option<crate::service::ServiceOptions>,
}

impl PioBlastConfig {
    /// The paper's pioBLAST on `sim`: builds the cluster environment and
    /// stages `db`'s global files and `queries` on the shared file system,
    /// with modeled compute, the `blastp`/`blastn` defaults for the
    /// database's molecule, default report limits, output at
    /// `results.txt`, collective output, natural partitioning, the static
    /// schedule, no fault tolerance, one compute slot per worker, the
    /// default I/O plane, and every §5 switch off. Override any other
    /// field with struct-update syntax.
    pub fn staged(
        sim: &Sim,
        platform: &Platform,
        db: &FormattedDb,
        queries: &[SeqRecord],
    ) -> PioBlastConfig {
        let env = ClusterEnv::new(sim, platform);
        let db_alias = stage_shared_db(&env.shared, db);
        let query_path = stage_queries(&env.shared, queries);
        PioBlastConfig {
            platform: platform.clone(),
            env,
            compute: ComputeModel::modeled(),
            params: match db.alias.molecule {
                Molecule::Protein => SearchParams::blastp(),
                Molecule::Dna => SearchParams::blastn(),
            },
            report: ReportOptions::default(),
            db_alias,
            query_path,
            output_path: "results.txt".to_string(),
            num_fragments: None,
            collective_output: true,
            local_prune: false,
            query_batch: None,
            collective_input: false,
            schedule: FragmentSchedule::Static,
            fault: FaultMode::Off,
            checkpoint: false,
            rank_compute: None,
            threads: 1,
            io: mpiio::IoOptions::default(),
            service: None,
        }
    }

    /// The compute model for one rank, with any heterogeneity applied.
    pub(crate) fn compute_for(&self, rank: usize) -> ComputeModel {
        match &self.rank_compute {
            Some(scales) => self
                .compute
                .scaled(scales.get(rank).copied().unwrap_or(1.0)),
            None => self.compute,
        }
    }

    /// Reject configuration combinations the runtime does not support,
    /// with a typed [`PioError::UnsupportedConfig`] naming the conflict.
    pub fn validate(&self) -> Result<(), PioError> {
        let unsupported = |what: &str| Err(PioError::UnsupportedConfig(what.to_string()));
        if self.fault == FaultMode::Recover && self.schedule == FragmentSchedule::Static {
            return unsupported("fault recovery requires the dynamic schedule");
        }
        if self.checkpoint && self.fault != FaultMode::Recover {
            return unsupported("fragment checkpointing requires FaultMode::Recover");
        }
        if self.threads == 0 {
            return unsupported("--threads must be at least 1");
        }
        if self.threads > self.platform.cores_per_node {
            return unsupported("--threads exceeds the platform's cores per node");
        }
        if let Some(svc) = &self.service {
            if self.schedule != FragmentSchedule::Dynamic {
                return unsupported("service mode requires the dynamic schedule");
            }
            if self.query_batch.is_some() {
                return unsupported(
                    "service mode excludes --query-batch (the stream plan batches queries)",
                );
            }
            if svc.plan.batches.is_empty() {
                return unsupported("service mode needs a non-empty stream plan");
            }
        }
        Ok(())
    }
}

/// Split the query set into processing batches. An empty query set still
/// yields one (empty) round so the collectives stay matched.
pub(crate) fn query_batches(queries: &[SeqRecord], batch: Option<usize>) -> Vec<Vec<SeqRecord>> {
    let size = batch.unwrap_or(usize::MAX).max(1);
    if queries.is_empty() {
        return vec![Vec::new()];
    }
    queries.chunks(size).map(|c| c.to_vec()).collect()
}

/// The per-rank body of a pioBLAST run.
///
/// Every mode runs the same [`crate::runtime`] state machines; the
/// configuration only changes how their actions are lowered. With
/// [`PioBlastConfig::fault`] at its default (`Off`) this cannot fail in a
/// fault-free simulation; in `Detect`/`Recover` mode it returns a typed
/// [`PioError`] when the run cannot complete (master death, all workers
/// dead, detected death in `Detect` mode). Unsupported configuration
/// combinations fail on every rank with
/// [`PioError::UnsupportedConfig`].
pub fn run_rank(ctx: &RankCtx, cfg: &PioBlastConfig) -> Result<RankReport, PioError> {
    assert!(ctx.nranks() >= 2, "pioBLAST needs a master and a worker");
    cfg.validate()?;
    let comm = Comm::new(ctx, cfg.platform.net);
    if ctx.rank() == MASTER {
        crate::runtime::run_master(ctx, &comm, cfg)
    } else {
        crate::runtime::run_worker(ctx, &comm, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mpiblast::model::PrepareMemo;
    use mpiblast::phases;
    use mpiblast::report::serial_report;
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use seqfmt::synth::{generate, SynthConfig};
    use seqfmt::FragmentData;
    use simcluster::SimDuration;

    fn small_db(cap: Option<u64>) -> seqfmt::FormattedDb {
        let recs = generate(&SynthConfig::nr_like(21, 40_000));
        let cfg = FormatDbConfig {
            title: "nr-test".into(),
            molecule: blast_core::Molecule::Protein,
            volume_residue_cap: cap,
        };
        format_records(&recs, &cfg)
    }

    fn sample_queries(db: &seqfmt::FormattedDb, n: usize) -> Vec<SeqRecord> {
        use blast_core::search::SubjectSource;
        let frag = FragmentData::from_volume(&db.volumes[0]);
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

    /// What a test run is made of besides its configuration.
    struct Inputs {
        nranks: usize,
        platform: Platform,
        /// Volume residue cap of the test database.
        cap: Option<u64>,
        n_queries: usize,
    }

    impl Default for Inputs {
        fn default() -> Inputs {
            Inputs {
                nranks: 4,
                platform: Platform::altix(),
                cap: None,
                n_queries: 3,
            }
        }
    }

    /// A simulation and the staged default configuration for `inputs`.
    fn setup(inputs: &Inputs) -> (Sim, PioBlastConfig) {
        let db = small_db(inputs.cap);
        let queries = sample_queries(&db, inputs.n_queries);
        let sim = Sim::new(inputs.nranks);
        let cfg = PioBlastConfig::staged(&sim, &inputs.platform, &db, &queries);
        (sim, cfg)
    }

    /// Run `inputs` with `tweak` applied to the staged configuration.
    fn run_with(
        inputs: Inputs,
        tweak: impl FnOnce(&mut PioBlastConfig),
    ) -> (Vec<u8>, Vec<RankReport>) {
        let (output, reports, _) = run_memo(inputs, tweak);
        (output, reports)
    }

    /// [`run_with`], plus the run's shared prepare memo.
    fn run_memo(
        inputs: Inputs,
        tweak: impl FnOnce(&mut PioBlastConfig),
    ) -> (Vec<u8>, Vec<RankReport>, Arc<PrepareMemo>) {
        let (sim, mut cfg) = setup(&inputs);
        tweak(&mut cfg);
        let outcome = sim.run(|ctx| (run_rank(&ctx, &cfg), ctx.shared::<PrepareMemo>()));
        let output = cfg.env.shared.peek("results.txt").unwrap_or_default();
        let memo = Arc::clone(&outcome.outputs[0].1);
        let reports = outcome
            .outputs
            .into_iter()
            .map(|(r, _)| r.expect("rank completed"))
            .collect();
        (output, reports, memo)
    }

    /// The default configuration on four ranks.
    fn run_default() -> (Vec<u8>, Vec<RankReport>) {
        run_with(Inputs::default(), |_| {})
    }

    fn run_once(
        nranks: usize,
        nfrags: Option<usize>,
        platform: Platform,
        cap: Option<u64>,
    ) -> (Vec<u8>, Vec<RankReport>) {
        let inputs = Inputs {
            nranks,
            platform,
            cap,
            ..Inputs::default()
        };
        run_with(inputs, |c| c.num_fragments = nfrags)
    }

    #[test]
    fn output_matches_serial_reference() {
        let db = small_db(None);
        let queries = sample_queries(&db, 3);
        let expected = serial_report(
            &SearchParams::blastp(),
            queries,
            &db,
            ReportOptions::default(),
        )
        .expect("serial oracle");
        let (got, _) = run_once(4, None, Platform::altix(), None);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected)
        );
    }

    #[test]
    fn output_is_invariant_to_worker_and_fragment_count() {
        let (a, _) = run_once(3, None, Platform::altix(), None);
        let (b, _) = run_once(6, None, Platform::altix(), None);
        let (c, _) = run_once(4, Some(7), Platform::altix(), None);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn multi_volume_database_works() {
        // The paper left multi-volume (nt-scale) databases as future work;
        // our implementation handles them via per-volume fragments.
        let (a, _) = run_once(4, None, Platform::altix(), None);
        let (b, _) = run_once(4, None, Platform::altix(), Some(15_000));
        assert_eq!(a, b, "volume split must not change output bytes");
    }

    #[test]
    fn blade_platform_works() {
        let (a, _) = run_once(3, None, Platform::blade_cluster(), None);
        let (b, _) = run_once(3, None, Platform::altix(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn phases_are_populated_and_copy_free() {
        let (_, reports) = run_once(4, None, Platform::altix(), None);
        for r in &reports[1..] {
            assert!(r.phases.get(phases::INPUT) > simcluster::SimDuration::ZERO);
            assert!(r.phases.get(phases::SEARCH) > simcluster::SimDuration::ZERO);
            assert_eq!(r.phases.get(phases::COPY), simcluster::SimDuration::ZERO);
        }
        assert!(reports[0].phases.get(phases::OUTPUT) > simcluster::SimDuration::ZERO);
    }

    #[test]
    fn independent_output_mode_is_byte_identical() {
        let (a, _) = run_default();
        let (b, _) = run_with(Inputs::default(), |c| c.collective_output = false);
        assert_eq!(a, b, "ablation must only change timing, not bytes");
    }

    #[test]
    fn local_prune_is_byte_identical() {
        let five = || Inputs {
            nranks: 5,
            ..Inputs::default()
        };
        let (a, _) = run_with(five(), |_| {});
        let (b, _) = run_with(five(), |c| c.local_prune = true);
        assert_eq!(a, b, "local pruning must never change the output");
    }

    #[test]
    fn finer_granularity_is_byte_identical() {
        // Paper §5: partition granularity is a pure performance knob.
        let (a, _) = run_once(4, None, Platform::altix(), None);
        let (b, _) = run_once(4, Some(12), Platform::altix(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn query_batching_is_byte_identical() {
        // Paper §5: batching bounds memory; it must not change the report.
        let five = || Inputs {
            n_queries: 5,
            ..Inputs::default()
        };
        let (reference, _) = run_with(five(), |_| {});
        for batch in [1usize, 2, 3, 5, 100] {
            let (batched, _) = run_with(five(), |c| c.query_batch = Some(batch));
            assert_eq!(batched, reference, "batch size {batch}");
        }
    }

    #[test]
    fn prepare_memo_prepares_each_batch_once_at_64_ranks() {
        let db = small_db(None);
        let expected = serial_report(
            &SearchParams::blastp(),
            sample_queries(&db, 5),
            &db,
            ReportOptions::default(),
        )
        .expect("serial oracle");
        let inputs = Inputs {
            nranks: 64,
            n_queries: 5,
            ..Inputs::default()
        };
        let (got, _, memo) = run_memo(inputs, |c| c.query_batch = Some(2));
        assert_eq!(got, expected);
        // Five queries in batches of two: all 64 ranks prepare three
        // distinct batches, and each is prepared for real exactly once.
        assert_eq!(memo.misses(), 3);
    }

    #[test]
    fn measured_prepare_hits_charge_recorded_seconds_times_rank_scale() {
        let (sim, mut cfg) = setup(&Inputs {
            nranks: 3,
            ..Inputs::default()
        });
        cfg.rank_compute = Some(vec![1.0, 1.0, 2.0]);
        cfg.compute = ComputeModel::measured();
        let db = small_db(None);
        let queries = sample_queries(&db, 3);
        let out = sim.run(|ctx| {
            let t = ctx.now();
            let model = cfg.compute_for(ctx.rank());
            model.prepare(&ctx, &cfg.params, queries.clone(), db.stats());
            (ctx.now() - t, ctx.shared::<PrepareMemo>())
        });
        let memo = &out.outputs[0].1;
        assert_eq!(memo.misses(), 1, "one real prepare for three ranks");
        let recorded = memo.wall_secs();
        let charged: Vec<SimDuration> = out.outputs.iter().map(|(d, _)| *d).collect();
        assert_eq!(charged[0], SimDuration::from_secs_f64(recorded));
        assert_eq!(charged[1], SimDuration::from_secs_f64(recorded));
        assert_eq!(charged[2], SimDuration::from_secs_f64(2.0 * recorded));
    }

    #[test]
    fn query_batching_searches_fragments_repeatedly() {
        let four = || Inputs {
            n_queries: 4,
            ..Inputs::default()
        };
        let (_, unbatched) = run_with(four(), |_| {});
        let (_, batched) = run_with(four(), |c| c.query_batch = Some(1));
        // Four batches -> four search passes per fragment.
        let subjects =
            |rs: &[RankReport]| -> u64 { rs.iter().map(|r| r.search_stats.subjects).sum() };
        assert_eq!(subjects(&batched), 4 * subjects(&unbatched));
    }

    #[test]
    fn collective_input_is_byte_identical() {
        // Paper §4's deferred design alternative: reading the global
        // files with collective I/O must not change a single output byte,
        // for any volume layout or fragment granularity.
        let (a, _) = run_default();
        for cap in [None, Some(15_000)] {
            for nfrags in [None, Some(9)] {
                let inputs = Inputs {
                    cap,
                    ..Inputs::default()
                };
                let (b, _) = run_with(inputs, |c| {
                    c.num_fragments = nfrags;
                    c.collective_input = true;
                });
                assert_eq!(a, b, "cap {cap:?} nfrags {nfrags:?}");
            }
        }
    }

    #[test]
    fn dynamic_schedule_is_byte_identical() {
        let (a, _) = run_default();
        for nfrags in [None, Some(9)] {
            let (b, _) = run_with(Inputs::default(), |c| {
                c.num_fragments = nfrags;
                c.schedule = FragmentSchedule::Dynamic;
            });
            assert_eq!(a, b, "dynamic scheduling must not change bytes");
        }
    }

    #[test]
    fn dynamic_schedule_balances_heterogeneous_nodes() {
        // One worker 8x slower; with 4 fragments per worker, dynamic
        // scheduling should beat static placement.
        let run_total = |schedule: FragmentSchedule| -> u64 {
            let (sim, cfg) = setup(&Inputs {
                nranks: 5,
                n_queries: 4,
                ..Inputs::default()
            });
            let cfg = PioBlastConfig {
                num_fragments: Some(16),
                schedule,
                rank_compute: Some(vec![1.0, 8.0, 1.0, 1.0, 1.0]),
                ..cfg
            };
            sim.run(|ctx| run_rank(&ctx, &cfg)).elapsed.0
        };
        let static_total = run_total(FragmentSchedule::Static);
        let dynamic_total = run_total(FragmentSchedule::Dynamic);
        assert!(
            dynamic_total < static_total,
            "dynamic {dynamic_total} ns should beat static {static_total} ns on a heterogeneous cluster"
        );
    }

    #[test]
    fn empty_query_set_still_runs() {
        let inputs = Inputs {
            n_queries: 0,
            ..Inputs::default()
        };
        let (output, _) = run_with(inputs, |_| {});
        assert!(output.is_empty(), "no queries -> empty report file");
    }

    #[test]
    fn runs_are_deterministic_in_modeled_mode() {
        let (a, ra) = run_once(4, None, Platform::altix(), None);
        let (b, rb) = run_once(4, None, Platform::altix(), None);
        assert_eq!(a, b);
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.phases, y.phases);
        }
    }

    #[test]
    fn collective_input_composes_with_dynamic_and_fault_modes() {
        // The I/O-plane refactor lifted the old `UnsupportedConfig`
        // rejections: collective input now composes with the dynamic
        // schedule and with both fault modes (the plane sieves the
        // granted views instead of synchronizing), byte-identically.
        let (reference, _) = run_default();
        let combos = [
            (FragmentSchedule::Dynamic, FaultMode::Off),
            (FragmentSchedule::Static, FaultMode::Detect),
            (FragmentSchedule::Dynamic, FaultMode::Detect),
            (FragmentSchedule::Dynamic, FaultMode::Recover),
        ];
        for (schedule, fault) in combos {
            let (got, _) = run_with(Inputs::default(), |c| {
                c.collective_input = true;
                c.schedule = schedule;
                c.fault = fault;
            });
            assert_eq!(got, reference, "schedule {schedule:?} fault {fault:?}");
        }
    }

    #[test]
    fn io_strategies_are_byte_identical() {
        // `--io-strategy` is a pure performance knob; pin that every
        // strategy produces the reference bytes with aggregation
        // requested on both paths, across two sieve thresholds.
        let (reference, _) = run_default();
        for strategy in [
            mpiio::IoStrategy::Independent,
            mpiio::IoStrategy::Sieve,
            mpiio::IoStrategy::TwoPhase,
        ] {
            for sieve_threshold in [0u64, 1 << 20] {
                let (got, _) = run_with(Inputs::default(), |c| {
                    c.collective_input = true;
                    c.io = mpiio::IoOptions {
                        strategy,
                        sieve_threshold,
                        ..Default::default()
                    };
                });
                assert_eq!(got, reference, "{strategy} threshold {sieve_threshold}");
            }
        }
    }

    #[test]
    fn unsupported_configs_fail_with_a_typed_error() {
        // Satellite: conflicting knob combinations must surface as
        // `PioError::UnsupportedConfig` on every rank, not as a panic or
        // a hang. Pin the exact conflicts the runtime rejects.
        let (sim, cfg) = setup(&Inputs::default());
        let cfg = PioBlastConfig {
            schedule: FragmentSchedule::Static,
            fault: FaultMode::Recover,
            ..cfg
        };
        let want = "fault recovery requires the dynamic schedule";
        let outcome = sim.run(|ctx| run_rank(&ctx, &cfg));
        for r in outcome.outputs {
            assert_eq!(
                r.expect_err("conflicting config must fail"),
                PioError::UnsupportedConfig(want.to_string())
            );
        }
        // Checkpointing without recovery is rejected by validate() alone.
        let (_, cfg) = setup(&Inputs {
            nranks: 2,
            ..Inputs::default()
        });
        let cfg = PioBlastConfig {
            schedule: FragmentSchedule::Dynamic,
            fault: FaultMode::Detect,
            checkpoint: true,
            ..cfg
        };
        assert_eq!(
            cfg.validate().expect_err("checkpoint needs Recover"),
            PioError::UnsupportedConfig(
                "fragment checkpointing requires FaultMode::Recover".to_string()
            )
        );
    }

    #[test]
    fn thread_counts_are_validated_against_the_platform() {
        // Satellite: `--threads 0` and thread counts beyond the
        // platform's cores are typed errors, not panics or silent clamps.
        let mk = |platform: Platform, threads: usize| {
            let (_, cfg) = setup(&Inputs {
                nranks: 2,
                platform,
                ..Inputs::default()
            });
            PioBlastConfig { threads, ..cfg }
        };
        assert_eq!(
            mk(Platform::altix(), 0).validate().expect_err("zero slots"),
            PioError::UnsupportedConfig("--threads must be at least 1".to_string())
        );
        // Blade nodes expose four hardware threads: 8 slots oversubscribe.
        assert_eq!(
            mk(Platform::blade_cluster(), 8)
                .validate()
                .expect_err("oversubscribed"),
            PioError::UnsupportedConfig(
                "--threads exceeds the platform's cores per node".to_string()
            )
        );
        // Every in-budget count on every profile validates.
        for (platform, max) in [
            (Platform::altix(), 16),
            (Platform::blade_cluster(), 4),
            (Platform::manycore(), 64),
        ] {
            assert!(mk(platform.clone(), 1).validate().is_ok());
            assert!(mk(platform, max).validate().is_ok());
        }
    }
}
