//! The mpiBLAST baseline, faithfully reproducing the 1.2.1 data flow the
//! paper measures:
//!
//! * the database is *pre-partitioned* into physical fragment files on
//!   shared storage;
//! * a master greedily assigns unsearched fragments to idle workers;
//! * each worker **copies** its fragment's files to private storage (its
//!   local disk, or shared scratch on the Altix), then reads them back
//!   during the search stage (mpiBLAST's mmap-embedded I/O);
//! * workers submit per-fragment result alignments (scores and
//!   coordinates only) to the master;
//! * the master merges and, **serially, one alignment at a time**,
//!   fetches sequence data from the owning worker, formats the record
//!   with the output routine, and writes it to the single output file.
//!
//! The serialized result-fetch/format/write loop is the bottleneck the
//! paper quantifies (Table 1: 1007 s of output time against pioBLAST's
//! 15.4 s); it is reproduced here structurally, not hard-coded.

use std::fmt;

use blast_core::fasta;
use blast_core::format::{self, ReportConfig};
use blast_core::search::{BlastSearcher, SearchParams, SearchScratch, SearchStats, SubjectHit};
use blast_core::{Molecule, SeqRecord};
use bytes::Bytes;
use mpiio::{FileView, IoOptions, IoPlane, IoStrategy, PlaneConfig};
use mpisim::sched::{default_sweep, GrantQueue, Liveness, Polled, Pump};
use mpisim::{Collectives, Comm};
use seqfmt::{FormattedDb, FragmentData, VolumeIndex};
use simcluster::{PhaseTimes, RankCtx, Sim};

use crate::model::ComputeModel;
use crate::phases;
use crate::platform::{ClusterEnv, Platform};
use crate::report::{build_layout, ReportOptions};
use crate::setup::{stage_fragments, stage_queries};
use crate::wire::{FetchRequest, FetchResponse, QueryBundle, ResultSubmission};

/// Rank 0 is always the master.
pub const MASTER: usize = 0;

const TAG_FRAG_REQ: u64 = 1;
const TAG_FRAG_ASSIGN: u64 = 2;
const TAG_SUBMIT: u64 = 3;
const TAG_FETCH_REQ: u64 = 4;
const TAG_FETCH_RESP: u64 = 5;
const TAG_DONE: u64 = 6;
const TAG_FRAG_DONE: u64 = 7;
const TAG_ABORT: u64 = 8;

/// No-more-fragments sentinel.
const FRAG_NONE: u32 = u32::MAX;

/// Why an mpiBLAST run failed instead of completing.
///
/// Stock mpiBLAST deadlocks when a rank disappears; with
/// [`MpiBlastConfig::fault_detection`] enabled the job fails fast with one
/// of these instead. Malformed protocol traffic (an unexpected tag) is
/// always reported this way rather than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A rank received a message tag its protocol state cannot accept.
    UnexpectedTag {
        /// Which role received it ("master" or "worker").
        role: &'static str,
        /// The offending tag.
        tag: u64,
    },
    /// The master detected a dead worker and aborted the job.
    WorkerDied {
        /// The dead worker's rank.
        rank: usize,
    },
    /// A worker detected that the master died.
    MasterDied,
    /// A worker was told to abort by the master (another rank died).
    Aborted,
    /// Shared or private storage failed (e.g. a full file system); the
    /// run degrades to a typed error instead of aborting.
    Storage(String),
    /// A received frame was truncated or otherwise undecodable.
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnexpectedTag { role, tag } => {
                write!(f, "{role} got unexpected tag {tag}")
            }
            ProtocolError::WorkerDied { rank } => write!(f, "worker rank {rank} died"),
            ProtocolError::MasterDied => write!(f, "master rank died"),
            ProtocolError::Aborted => write!(f, "aborted by master after a rank death"),
            ProtocolError::Storage(what) => write!(f, "storage failed: {what}"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Configuration of one mpiBLAST run.
pub struct MpiBlastConfig {
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
    /// Pre-partitioned fragment base names on the shared file system.
    pub fragment_names: Vec<String>,
    /// Query FASTA path on the shared file system.
    pub query_path: String,
    /// Output report path on the shared file system.
    pub output_path: String,
    /// Detect dead ranks and fail fast with a typed [`ProtocolError`]
    /// instead of deadlocking (stock MPI behaviour). Detection covers the
    /// scheduling and output epochs; it does not change fault-free timing
    /// or output bytes.
    pub fault_detection: bool,
}

impl MpiBlastConfig {
    /// The stock mpiBLAST run on `sim`: builds the cluster environment,
    /// pre-partitions `db` into `nfrags` physical fragments and stages
    /// `queries` on the shared file system, with modeled compute, the
    /// `blastp`/`blastn` defaults for the database's molecule, default
    /// report limits, output at `results.txt` and fault detection off.
    /// Override any other field with struct-update syntax.
    pub fn staged(
        sim: &Sim,
        platform: &Platform,
        db: &FormattedDb,
        queries: &[SeqRecord],
        nfrags: usize,
    ) -> MpiBlastConfig {
        let env = ClusterEnv::new(sim, platform);
        let fragment_names = stage_fragments(&env.shared, db, nfrags);
        let query_path = stage_queries(&env.shared, queries);
        MpiBlastConfig {
            platform: platform.clone(),
            env,
            compute: ComputeModel::modeled(),
            params: match db.alias.molecule {
                Molecule::Protein => SearchParams::blastp(),
                Molecule::Dna => SearchParams::blastn(),
            },
            report: ReportOptions::default(),
            fragment_names,
            query_path,
            output_path: "results.txt".to_string(),
            fault_detection: false,
        }
    }
}

/// What each rank reports at the end of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankReport {
    /// Per-phase virtual time.
    pub phases: PhaseTimes,
    /// Search-effort counters (workers).
    pub search_stats: SearchStats,
}

/// The per-rank body of an mpiBLAST run; call from every rank of a
/// simulation.
pub fn run_rank(ctx: &RankCtx, cfg: &MpiBlastConfig) -> Result<RankReport, ProtocolError> {
    assert!(ctx.nranks() >= 2, "mpiBLAST needs a master and a worker");
    let comm = Comm::new(ctx, cfg.platform.net);
    if ctx.rank() == MASTER {
        run_master(ctx, &comm, cfg)
    } else {
        run_worker(ctx, &comm, cfg)
    }
}

/// Tell every still-live worker to abort (best effort; sends to dead
/// ranks are dropped).
fn abort_workers(comm: &Comm, live: &Liveness) {
    for w in live.live_workers() {
        let _ = comm.send_checked(w, TAG_ABORT, Bytes::new());
    }
}

fn run_master(
    ctx: &RankCtx,
    comm: &Comm,
    cfg: &MpiBlastConfig,
) -> Result<RankReport, ProtocolError> {
    let shared = &cfg.env.shared;
    let mut phases = PhaseTimes::new();
    let now = || ctx.now();
    let nworkers = ctx.nranks() - 1;
    let nfrag = cfg.fragment_names.len();
    let mut live = Liveness::all(ctx.nranks());
    let pump = Pump::new(comm, cfg.fault_detection, default_sweep());

    // ---- startup: read the index and queries, broadcast the bundle ----
    let start = now();
    let idx_bytes = shared
        .read_all(ctx, &format!("{}.idx", cfg.fragment_names[0]))
        .expect("fragment index present");
    let index = VolumeIndex::decode(&idx_bytes).expect("valid fragment index");
    let query_text = shared
        .read_all(ctx, &cfg.query_path)
        .expect("query file present");
    let queries = fasta::parse(index.molecule, &query_text).expect("valid query FASTA");
    let bundle = QueryBundle {
        db_title: index.title.clone(),
        db_stats: index.global_stats,
        molecule: index.molecule,
        queries,
    };
    comm.bcast(MASTER, Bytes::from(bundle.encode()));
    let prepared = cfg
        .compute
        .prepare(ctx, &cfg.params, bundle.queries.clone(), bundle.db_stats);
    let report_cfg =
        ReportConfig::for_molecule(bundle.molecule, bundle.db_title.clone(), bundle.db_stats);
    phases.add(phases::OTHER, now() - start);

    // ---- scheduling + collection epoch ----
    // (query, oid) hits tagged with the worker that owns the sequence data.
    // Result-message handling is charged to the output phase: it is the
    // front half of mpiBLAST's result-merging pipeline (the paper's
    // "Output" column), even though it overlaps the search epoch.
    let mut merged: Vec<Vec<(SubjectHit, usize)>> = vec![Vec::new(); prepared.len()];
    let mut grants = GrantQueue::new(nfrag, ctx.nranks());
    let mut fragments_done = 0usize;
    let mut drained_workers = 0usize;
    while fragments_done < nfrag || drained_workers < nworkers {
        // Without detection the pump degenerates to a blocking receive;
        // with it, a lost worker's unfinished fragment surfaces as a
        // death instead of hanging the job.
        let m = match pump.poll(&mut live, None, None) {
            Polled::Msg(m) => m,
            Polled::Dead(dead) => {
                abort_workers(comm, &live);
                return Err(ProtocolError::WorkerDied { rank: dead[0] });
            }
        };
        match m.tag {
            TAG_FRAG_REQ => match grants.grant_to(m.src) {
                Some(f) => {
                    comm.send(
                        m.src,
                        TAG_FRAG_ASSIGN,
                        Bytes::from((f as u32).to_le_bytes().to_vec()),
                    );
                }
                None => {
                    comm.send(
                        m.src,
                        TAG_FRAG_ASSIGN,
                        Bytes::from(FRAG_NONE.to_le_bytes().to_vec()),
                    );
                    drained_workers += 1;
                }
            },
            TAG_SUBMIT => {
                let before = now();
                let sub = ResultSubmission::decode(&m.payload).expect("valid submission");
                let items: u64 = sub.per_query.iter().map(|(_, h)| h.len() as u64).sum();
                cfg.compute.run_submission_handling(ctx, items, || {
                    for (q, hits) in sub.per_query {
                        for h in hits {
                            merged[q as usize].push((h, m.src));
                        }
                    }
                });
                phases.add(phases::OUTPUT, now() - before);
            }
            TAG_FRAG_DONE => {
                fragments_done += 1;
            }
            other => {
                abort_workers(comm, &live);
                return Err(ProtocolError::UnexpectedTag {
                    role: "master",
                    tag: other,
                });
            }
        }
    }

    // ---- output epoch: merge, fetch serially, format, write serially ----
    let out_start = now();
    shared.create(ctx, &cfg.output_path);
    // The baseline master writes alone: an independent, non-collective
    // plane reproduces mpiBLAST's serial appends exactly.
    let out_plane = IoPlane::new(
        comm,
        shared,
        PlaneConfig {
            options: IoOptions {
                strategy: IoStrategy::Independent,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut file_off = 0u64;
    for (q, merged_slot) in merged.iter_mut().enumerate() {
        let mut hits = std::mem::take(merged_slot);
        cfg.compute.run_merge(ctx, hits.len() as u64, || {
            hits.sort_by(|a, b| a.0.hsps[0].rank_key().cmp(&b.0.hsps[0].rank_key()));
        });
        let n_desc = hits.len().min(cfg.report.num_descriptions);
        let n_rec = hits.len().min(cfg.report.num_alignments);
        let n_fetch = n_desc.max(n_rec);

        // The serialized fetch loop: one request/response round trip per
        // alignment appearing in the output.
        let mut fetched: Vec<FetchResponse> = Vec::with_capacity(n_fetch);
        for (hit, owner) in hits.iter().take(n_fetch) {
            let req = FetchRequest {
                query_idx: q as u32,
                oid: hit.oid,
            };
            comm.send(*owner, TAG_FETCH_REQ, Bytes::from(req.encode()));
            let resp = match pump.poll(&mut live, Some(*owner), Some(TAG_FETCH_RESP)) {
                Polled::Msg(m) => m,
                Polled::Dead(dead) => {
                    abort_workers(comm, &live);
                    return Err(ProtocolError::WorkerDied { rank: dead[0] });
                }
            };
            let decoded = cfg.compute.run_fetch_handling(ctx, || {
                FetchResponse::decode(&resp.payload).expect("valid fetch response")
            });
            fetched.push(decoded);
        }

        // Format every selected record (the "NCBI output function" call).
        let query = &prepared.records[q];
        let records: Vec<String> = (0..n_rec)
            .map(|i| {
                let (hit, _) = &hits[i];
                let f = &fetched[i];
                cfg.compute.run_format(
                    ctx,
                    || {
                        format::alignment_record(
                            &cfg.params,
                            &report_cfg,
                            &query.residues,
                            &String::from_utf8_lossy(&f.defline),
                            &f.residues,
                            &hit.hsps,
                        )
                    },
                    |s| s.len() as u64,
                )
            })
            .collect();
        let summaries: Vec<(String, f64, f64)> = (0..n_desc)
            .map(|i| {
                let (hit, _) = &hits[i];
                (
                    String::from_utf8_lossy(&fetched[i].defline).into_owned(),
                    hit.hsps[0].bit_score,
                    hit.hsps[0].evalue,
                )
            })
            .collect();
        let layout = build_layout(
            &report_cfg,
            &cfg.params,
            query,
            &prepared.spaces[q],
            &summaries,
            records.iter().map(|r| r.len() as u64).collect(),
        );

        // The master assembles the query's whole section in its output
        // buffer and writes it with one serial call (NCBI's formatter is
        // stream-buffered).
        let mut section = Vec::with_capacity((layout.header.len() + layout.summary.len()) * 2);
        section.extend_from_slice(layout.header.as_bytes());
        section.extend_from_slice(layout.summary.as_bytes());
        for r in &records {
            section.extend_from_slice(r.as_bytes());
        }
        section.extend_from_slice(layout.footer.as_bytes());
        let view = FileView::contiguous(file_off, section.len() as u64);
        out_plane
            .write_output(&cfg.output_path, &view, &section)
            .map_err(|e| ProtocolError::Storage(e.to_string()))?;
        file_off += section.len() as u64;
    }
    for w in live.live_workers() {
        comm.send(w, TAG_DONE, Bytes::new());
    }
    phases.add(phases::OUTPUT, now() - out_start);

    Ok(RankReport {
        phases,
        search_stats: SearchStats::default(),
    })
}

fn run_worker(
    ctx: &RankCtx,
    comm: &Comm,
    cfg: &MpiBlastConfig,
) -> Result<RankReport, ProtocolError> {
    let shared = &cfg.env.shared;
    let (private, prefix) = cfg.env.private_store(ctx.rank());
    let mut phases = PhaseTimes::new();
    let now = || ctx.now();
    let pump = Pump::new(comm, cfg.fault_detection, default_sweep());

    // ---- startup ----
    let bundle_bytes = comm.bcast(MASTER, Bytes::new());
    let bundle = QueryBundle::decode(&bundle_bytes)
        .map_err(|e| ProtocolError::Malformed(format!("query bundle: {e}")))?;
    let mut stats_total = SearchStats::default();

    // Fragments this worker searched, kept in memory to serve fetches.
    let mut kept: Vec<FragmentData> = Vec::new();
    // Kernel working memory, reused across every fragment this worker
    // searches (the query set is re-prepared per fragment, mpiBLAST's
    // blastall-per-fragment behaviour; the scratch is query-agnostic).
    let mut scratch = SearchScratch::new();

    // ---- fragment loop ----
    loop {
        comm.send(MASTER, TAG_FRAG_REQ, Bytes::new());
        let m = pump
            .recv_from(MASTER, None)
            .map_err(|_| ProtocolError::MasterDied)?;
        let fid = match m.tag {
            TAG_FRAG_ASSIGN => {
                let raw: [u8; 4] = m
                    .payload
                    .get(..4)
                    .and_then(|b| b.try_into().ok())
                    .ok_or_else(|| {
                        ProtocolError::Malformed("fragment assignment lacks an id".into())
                    })?;
                u32::from_le_bytes(raw)
            }
            TAG_ABORT => return Err(ProtocolError::Aborted),
            other => {
                return Err(ProtocolError::UnexpectedTag {
                    role: "worker",
                    tag: other,
                })
            }
        };
        if fid == FRAG_NONE {
            break;
        }
        let name = &cfg.fragment_names[fid as usize];

        // Copy stage: shared storage -> private storage, whole files.
        let copy_start = now();
        let mut copied: Vec<(String, Vec<u8>)> = Vec::new();
        for ext in ["idx", "seq", "hdr"] {
            let src = format!("{name}.{ext}");
            let data = shared.read_all(ctx, &src).expect("fragment file present");
            let dst = format!("{prefix}{src}");
            private
                .write_all(ctx, &dst, &data)
                .map_err(|e| ProtocolError::Storage(e.to_string()))?;
            copied.push((dst, data));
        }
        phases.add(phases::COPY, now() - copy_start);

        // Search stage: read the private copy back (mpiBLAST's I/O
        // embedded in the search via mmap), then run the kernel. Each
        // fragment is a fresh BLAST engine invocation, so the query set
        // is re-prepared every time — blastall-per-fragment behaviour,
        // and a real per-fragment cost mpiBLAST pays. Every fragment is
        // charged; the host computes the batch once per run.
        let search_start = now();
        let idx = private.read_all(ctx, &copied[0].0).expect("idx copy");
        let seq = private.read_all(ctx, &copied[1].0).expect("seq copy");
        let hdr = private.read_all(ctx, &copied[2].0).expect("hdr copy");
        let frag = FragmentData::from_file_bytes(&idx, seq, hdr).expect("valid fragment");
        let prepared =
            cfg.compute
                .prepare(ctx, &cfg.params, bundle.queries.clone(), bundle.db_stats);
        let searcher = BlastSearcher::new(&cfg.params, &prepared);
        let (per_query, stats) = cfg.compute.run_search(ctx, || {
            let r = searcher.search(&frag, &mut scratch);
            (r.per_query, r.stats)
        });
        stats_total.merge(&stats);
        phases.add(phases::SEARCH, now() - search_start);

        // Submit results (alignments without sequence data). mpiBLAST
        // reports per query: one message per (fragment, query) pair, so
        // the master's result handling scales with fragments x queries.
        for (q, hits) in per_query.into_iter().enumerate() {
            if hits.is_empty() {
                continue;
            }
            let sub = ResultSubmission {
                fragment: fid,
                per_query: vec![(q as u32, hits)],
            };
            comm.send(MASTER, TAG_SUBMIT, Bytes::from(sub.encode()));
        }
        comm.send(
            MASTER,
            TAG_FRAG_DONE,
            Bytes::from(fid.to_le_bytes().to_vec()),
        );
        kept.push(frag);
    }

    // ---- serve the master's serialized fetch requests ----
    loop {
        let m = pump
            .recv_from(MASTER, None)
            .map_err(|_| ProtocolError::MasterDied)?;
        match m.tag {
            TAG_DONE => break,
            TAG_ABORT => return Err(ProtocolError::Aborted),
            TAG_FETCH_REQ => {
                let req = FetchRequest::decode(&m.payload).expect("valid fetch request");
                let frag = kept
                    .iter()
                    .find(|f| f.residues_of(req.oid).is_some())
                    .expect("fetched oid belongs to this worker");
                let resp = FetchResponse {
                    defline: frag.defline_of(req.oid).expect("defline").to_vec(),
                    residues: frag.residues_of(req.oid).expect("residues").to_vec(),
                };
                comm.send(MASTER, TAG_FETCH_RESP, Bytes::from(resp.encode()));
            }
            other => {
                return Err(ProtocolError::UnexpectedTag {
                    role: "worker",
                    tag: other,
                })
            }
        }
    }

    Ok(RankReport {
        phases,
        search_stats: stats_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::serial_report;
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use seqfmt::synth::{generate, SynthConfig};

    fn small_db() -> seqfmt::FormattedDb {
        let recs = generate(&SynthConfig::nr_like(21, 40_000));
        format_records(&recs, &FormatDbConfig::protein("nr-test"))
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

    fn run_once(nranks: usize, nfrags: usize, platform: Platform) -> (Vec<u8>, Vec<RankReport>) {
        let db = small_db();
        let queries = sample_queries(&db, 3);
        let sim = Sim::new(nranks);
        let cfg = MpiBlastConfig::staged(&sim, &platform, &db, &queries, nfrags);
        let outcome = sim.run(|ctx| run_rank(&ctx, &cfg));
        let output = cfg.env.shared.peek("results.txt").expect("output written");
        let reports = outcome
            .outputs
            .into_iter()
            .map(|r| r.expect("rank completed"))
            .collect();
        (output, reports)
    }

    #[test]
    fn output_matches_serial_reference() {
        let db = small_db();
        let queries = sample_queries(&db, 3);
        let expected = serial_report(
            &SearchParams::blastp(),
            queries,
            &db,
            ReportOptions::default(),
        )
        .expect("serial oracle");
        let (got, _) = run_once(4, 3, Platform::altix());
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected)
        );
    }

    #[test]
    fn output_is_invariant_to_worker_and_fragment_count() {
        let (a, _) = run_once(3, 2, Platform::altix());
        let (b, _) = run_once(5, 7, Platform::altix());
        assert_eq!(a, b);
    }

    #[test]
    fn blade_platform_with_local_disks_works() {
        let (a, reports) = run_once(3, 2, Platform::blade_cluster());
        let (b, _) = run_once(3, 2, Platform::altix());
        assert_eq!(a, b, "platform must not change output bytes");
        // Workers did copy work.
        assert!(reports[1].phases.get(phases::COPY) > simcluster::SimDuration::ZERO);
    }

    #[test]
    fn phase_reports_are_populated() {
        let (_, reports) = run_once(4, 3, Platform::altix());
        assert!(reports[0].phases.get(phases::OUTPUT) > simcluster::SimDuration::ZERO);
        for r in &reports[1..] {
            assert!(r.phases.get(phases::SEARCH) > simcluster::SimDuration::ZERO);
            assert!(r.search_stats.subjects > 0);
        }
    }

    #[test]
    fn runs_are_deterministic_in_modeled_mode() {
        let (a, ra) = run_once(4, 3, Platform::altix());
        let (b, rb) = run_once(4, 3, Platform::altix());
        assert_eq!(a, b);
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.phases, y.phases);
        }
    }

    fn faulty_cfg(nranks: usize, nfrags: usize) -> (Sim, MpiBlastConfig) {
        let db = small_db();
        let queries = sample_queries(&db, 3);
        let sim = Sim::new(nranks);
        let cfg = MpiBlastConfig {
            fault_detection: true,
            ..MpiBlastConfig::staged(&sim, &Platform::altix(), &db, &queries, nfrags)
        };
        (sim, cfg)
    }

    #[test]
    fn worker_death_fails_fast_with_typed_error() {
        // Kill worker 2 after a few sends (past the startup broadcast,
        // mid-scheduling). The master must detect it and abort the job
        // with typed errors on every surviving rank — no hang, no panic.
        let (sim, cfg) = faulty_cfg(4, 6);
        let plan = simcluster::FaultPlan::none().kill_after_sends(2, 3);
        let out = sim.run_faulty(plan, |ctx| run_rank(&ctx, &cfg));
        assert_eq!(out.killed, vec![2]);
        assert_eq!(out.outputs[2], None, "killed rank yields nothing");
        assert_eq!(
            out.outputs[0],
            Some(Err(ProtocolError::WorkerDied { rank: 2 }))
        );
        for w in [1usize, 3] {
            assert_eq!(
                out.outputs[w],
                Some(Err(ProtocolError::Aborted)),
                "survivor {w} must be told to abort"
            );
        }
    }

    #[test]
    fn master_death_is_detected_by_workers() {
        // Kill the master after it has broadcast and granted fragments;
        // workers fail fast with MasterDied instead of waiting forever.
        let (sim, cfg) = faulty_cfg(3, 4);
        let plan = simcluster::FaultPlan::none().kill_after_sends(0, 4);
        let out = sim.run_faulty(plan, |ctx| run_rank(&ctx, &cfg));
        assert_eq!(out.killed, vec![0]);
        assert_eq!(out.outputs[0], None);
        for w in 1..3 {
            assert_eq!(out.outputs[w], Some(Err(ProtocolError::MasterDied)));
        }
    }

    #[test]
    fn fault_detection_does_not_change_output_or_timing() {
        let run = |detect: bool| {
            let (sim, mut cfg) = faulty_cfg(4, 3);
            cfg.fault_detection = detect;
            let out = sim.run(|ctx| run_rank(&ctx, &cfg));
            (
                cfg.env.shared.peek("results.txt").expect("output"),
                out.elapsed,
            )
        };
        let (bytes_off, elapsed_off) = run(false);
        let (bytes_on, elapsed_on) = run(true);
        assert_eq!(bytes_off, bytes_on);
        assert_eq!(elapsed_off, elapsed_on, "detection must be timing-neutral");
    }
}
