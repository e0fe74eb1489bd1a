//! The I/O plane: one typed access interface over [`MpiFile`], with the
//! physical access strategy chosen per request.
//!
//! Consumers describe *what* they touch — database regions, scattered
//! output records, checkpoint blobs — as an [`IoRequest`]; the plane
//! decides *how* the bytes move:
//!
//! * [`IoStrategy::Independent`] issues one file-system operation per
//!   view region (the paper's default input mode).
//! * [`IoStrategy::Sieve`] applies data sieving (Thakur et al.,
//!   *Optimizing Noncontiguous Accesses in MPI-IO*): on reads, regions
//!   whose holes are at most [`IoOptions::sieve_threshold`] bytes are
//!   serviced by one larger read spanning the holes; on writes, only
//!   hole-free (strictly adjacent) regions are coalesced — the classic
//!   read-modify-write across holes is deliberately omitted, because in
//!   pioBLAST the holes of one rank's output view are exactly the
//!   records other ranks are writing concurrently.
//! * [`IoStrategy::TwoPhase`] uses the full two-phase collective path
//!   ([`MpiFile::write_at_all`]/[`MpiFile::read_at_all`]): view
//!   exchange, file-domain partitioning across aggregators, and large
//!   coalesced transfers.
//!
//! The default strategy, `TwoPhase`, is *adaptive*: it means "aggregate
//! as hard as this request's context allows". Two-phase proper requires
//! every rank of the communicator to post the request synchronously
//! ([`PlaneConfig::collective`]). When aggregation was asked for
//! ([`PlaneConfig::aggregate`]) but the context cannot synchronize —
//! grant-driven dynamic schedules, point-to-point fault modes, recovery
//! epochs — the plane degrades the request to `Sieve`: it coalesces
//! whatever views are actually posted, with no global exchange and so
//! no deadlock. This degradation is what lets `collective_input`
//! compose with dynamic scheduling and fault recovery. When aggregation
//! was not requested at all, `TwoPhase` resolves to `Independent` — the
//! paper's per-range individual I/O. Explicitly selecting `Independent`
//! or `Sieve` pins the physical access pattern regardless of context
//! (the `--io-strategy` ablation).
//!
//! Every serviced request is attributed to a [`parafs::IoClass`] tally
//! on the backing file system so benches can break traffic down by
//! strategy.

use std::cell::RefCell;

use burstfs::{BurstOptions, BurstStats, StagingStore};
use parafs::{AsyncIo, IoClass, SimFs, StoreError};

use mpisim::Comm;

use crate::fileio::{CollectiveHints, MpiFile, PendingReadAll, PendingWriteAll};
use crate::stage::try_stage;
use crate::view::FileView;

/// How a plane services noncontiguous requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoStrategy {
    /// One file-system operation per view region.
    Independent,
    /// Data sieving: coalesce regions across holes up to the sieve
    /// threshold (reads) or across zero-byte holes (writes).
    Sieve,
    /// Two-phase collective I/O where the plane is collective; degrades
    /// to `Sieve` on an aggregating non-collective plane and to
    /// `Independent` where no aggregation was requested (see the module
    /// docs).
    #[default]
    TwoPhase,
}

impl IoStrategy {
    /// The strategy's traffic-attribution class.
    pub fn class(self) -> IoClass {
        match self {
            IoStrategy::Independent => IoClass::Independent,
            IoStrategy::Sieve => IoClass::Sieved,
            IoStrategy::TwoPhase => IoClass::TwoPhase,
        }
    }

    /// A stable lowercase label (the inverse of the `FromStr` parse).
    pub fn label(self) -> &'static str {
        self.class().label()
    }
}

impl std::str::FromStr for IoStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<IoStrategy, String> {
        match s {
            "independent" => Ok(IoStrategy::Independent),
            "sieve" => Ok(IoStrategy::Sieve),
            "two-phase" | "twophase" => Ok(IoStrategy::TwoPhase),
            other => Err(format!(
                "unknown I/O strategy {other:?} (expected independent, sieve, or two-phase)"
            )),
        }
    }
}

impl std::fmt::Display for IoStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// User-facing plane knobs (the `--io-strategy`/`--sieve-threshold`
/// surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoOptions {
    /// Preferred access strategy.
    pub strategy: IoStrategy,
    /// Largest hole (bytes) the sieve will read through to merge two
    /// regions into one transfer. The default (64 KiB) sits near the
    /// latency/bandwidth break-even of both modeled file systems.
    pub sieve_threshold: u64,
    /// Service data requests asynchronously (the `--io-async` knob):
    /// consumers post [`IoPlane::submit_begin`]/[`IoPlane::wait`] pairs
    /// so transfers stay in flight while the rank computes — fragment
    /// read-ahead on input, fire-and-collect on output. Off by default;
    /// the synchronous [`IoPlane::submit`] path is the paper's baseline.
    pub io_async: bool,
    /// Burst-buffer staging knobs (the `--burst-buffer`/`--burst-capacity`
    /// surface): when set, output and checkpoint writes are absorbed
    /// into the node's staging volume and drained asynchronously. `None`
    /// (the default) writes straight to the destination.
    pub burst: Option<BurstOptions>,
}

impl Default for IoOptions {
    fn default() -> IoOptions {
        IoOptions {
            strategy: IoStrategy::TwoPhase,
            sieve_threshold: 64 * 1024,
            io_async: false,
            burst: None,
        }
    }
}

/// Full configuration of one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneConfig {
    /// Strategy and sieve knobs.
    pub options: IoOptions,
    /// Collective-I/O tuning (aggregator count).
    pub hints: CollectiveHints,
    /// Whether the run asked for aggregated (collective-style) access on
    /// this path — the `collective_input`/`collective_output` knobs.
    /// Governs what the adaptive `TwoPhase` strategy resolves to.
    pub aggregate: bool,
    /// Whether every rank of the communicator posts this plane's
    /// requests synchronously (required for two-phase proper). `false`
    /// on grant-driven schedules and point-to-point fault modes.
    /// Implies `aggregate`.
    pub collective: bool,
}

/// A typed I/O request against the plane.
#[derive(Debug)]
pub enum IoRequest<'r> {
    /// Read the given regions of a shared database file.
    DbRead {
        /// File path on the shared file system.
        path: &'r str,
        /// Regions to read.
        view: &'r FileView,
    },
    /// Write scattered output records at master-assigned offsets.
    OutputWrite {
        /// Report path on the shared file system.
        path: &'r str,
        /// Regions to write (`payload` fills them in order).
        view: &'r FileView,
        /// The regions' bytes, concatenated.
        payload: &'r [u8],
    },
    /// Persist a checkpoint blob (whole file, created or replaced).
    CheckpointPut {
        /// Blob path.
        path: &'r str,
        /// Blob bytes.
        payload: &'r [u8],
    },
    /// Fetch a checkpoint blob (whole file).
    CheckpointGet {
        /// Blob path.
        path: &'r str,
    },
    /// Drop a checkpoint blob, if present.
    CheckpointDrop {
        /// Blob path.
        path: &'r str,
    },
}

/// What a serviced request returns.
#[derive(Debug, PartialEq, Eq)]
pub enum IoResponse {
    /// The requested bytes, in view-region order.
    Data(Vec<u8>),
    /// A write/drop completed.
    Done,
}

/// An in-flight request, returned by [`IoPlane::submit_begin`] and
/// joined with [`IoPlane::wait`]. While a handle is outstanding its
/// transfers proceed in virtual time — latency and contended bandwidth
/// elapse whether or not the owning rank is computing — so only the
/// *remainder* at `wait` is exposed as I/O wait.
///
/// On the two-phase collective path the handle is the rank's half of a
/// split-collective operation: `submit_begin` and `wait` are both
/// collective calls, and at most one collective handle may be
/// outstanding per plane. Independent and sieved handles are purely
/// local; any number may be in flight (they contend for file-system
/// bandwidth like concurrent clients).
#[must_use = "every submit_begin must be paired with exactly one wait"]
pub struct IoHandle<'a, 'c> {
    op: &'static str,
    bytes: u64,
    kind: HandleKind<'a, 'c>,
}

enum HandleKind<'a, 'c> {
    /// The request was serviced (or failed) synchronously at begin time.
    Ready(Result<IoResponse, StoreError>),
    /// Independent/sieved read: in-flight run reads plus the region list
    /// for view-order assembly.
    Read {
        runs: Vec<(u64, AsyncIo)>,
        regions: Vec<(u64, u64)>,
    },
    /// Independent/sieved/checkpoint write: in-flight run writes.
    Write { ops: Vec<AsyncIo> },
    /// Split-collective read.
    CollRead {
        file: MpiFile<'a, 'c>,
        pend: PendingReadAll,
    },
    /// Split-collective write.
    CollWrite {
        file: MpiFile<'a, 'c>,
        pend: PendingWriteAll,
    },
}

impl IoHandle<'_, '_> {
    /// Whether every underlying transfer has already completed in
    /// virtual time (a `wait` would still assemble — and, on the
    /// collective path, barrier — but not block on the file system).
    pub fn is_done(&self) -> bool {
        match &self.kind {
            HandleKind::Ready(_) => true,
            HandleKind::Read { runs, .. } => runs.iter().all(|(_, op)| op.is_done()),
            HandleKind::Write { ops } => ops.iter().all(AsyncIo::is_done),
            HandleKind::CollRead { pend, .. } => pend.is_done(),
            HandleKind::CollWrite { pend, .. } => pend.is_done(),
        }
    }

    /// Earliest issue time among the handle's transfers, in virtual
    /// nanoseconds.
    fn issued_ns(&self) -> Option<u64> {
        match &self.kind {
            HandleKind::Ready(_) => None,
            HandleKind::Read { runs, .. } => runs.iter().map(|(_, op)| op.issued_at().0).min(),
            HandleKind::Write { ops } => ops.iter().map(|op| op.issued_at().0).min(),
            HandleKind::CollRead { pend, .. } => pend.issued_ns(),
            HandleKind::CollWrite { pend, .. } => pend.issued_ns(),
        }
    }
}

/// The typed access plane over one communicator and file system.
pub struct IoPlane<'a, 'c> {
    comm: &'a Comm<'c>,
    fs: &'a SimFs,
    cfg: PlaneConfig,
    burst: Option<&'a RefCell<StagingStore>>,
}

impl<'a, 'c> IoPlane<'a, 'c> {
    /// Build a plane.
    pub fn new(comm: &'a Comm<'c>, fs: &'a SimFs, cfg: PlaneConfig) -> IoPlane<'a, 'c> {
        IoPlane {
            comm,
            fs,
            cfg,
            burst: None,
        }
    }

    /// Attach (or detach) a burst-buffer staging store. While attached,
    /// output and checkpoint writes are absorbed into the staging
    /// volume and drain to the destination in the background; a
    /// [`BurstError::StagingFull`](burstfs::BurstError) push-back
    /// transparently degrades the affected run to a direct write.
    pub fn with_burst(mut self, burst: Option<&'a RefCell<StagingStore>>) -> Self {
        self.burst = burst;
        self
    }

    /// Whether a staging store is attached.
    pub fn has_burst(&self) -> bool {
        self.burst.is_some()
    }

    /// Nonblocking half of the split-collective drain: collect staged
    /// drains that have already landed, freeing staging capacity. (The
    /// "begin" half of every drain is implicit in the staged write
    /// itself — drains are in flight from absorb time.)
    pub fn drain_reap(&self) -> Result<(), StoreError> {
        match self.burst {
            Some(cell) => cell.borrow_mut().reap(self.comm.ctx()),
            None => Ok(()),
        }
    }

    /// Blocking half of the split-collective drain (the epoch fence):
    /// join every pending staged drain, so every absorbed output and
    /// checkpoint byte has landed at the destination when this returns.
    pub fn drain_fence(&self) -> Result<(), StoreError> {
        match self.burst {
            Some(cell) => cell.borrow_mut().fence(self.comm.ctx()),
            None => Ok(()),
        }
    }

    /// Staging-tier counters, when a store is attached.
    pub fn burst_stats(&self) -> Option<BurstStats> {
        self.burst.map(|cell| cell.borrow().stats())
    }

    /// The configuration in force.
    pub fn config(&self) -> &PlaneConfig {
        &self.cfg
    }

    /// The strategy requests will actually be serviced under. The
    /// adaptive `TwoPhase` default resolves by context: two-phase proper
    /// on a collective plane, sieving when aggregation was requested but
    /// the ranks cannot synchronize, independent otherwise.
    pub fn effective_strategy(&self) -> IoStrategy {
        match self.cfg.options.strategy {
            IoStrategy::TwoPhase if self.cfg.collective => IoStrategy::TwoPhase,
            IoStrategy::TwoPhase if self.cfg.aggregate => IoStrategy::Sieve,
            IoStrategy::TwoPhase => IoStrategy::Independent,
            s => s,
        }
    }

    /// Whether data requests are serviced as true collectives (every
    /// rank must then post them together, and they embed a barrier).
    pub fn is_collective(&self) -> bool {
        self.effective_strategy() == IoStrategy::TwoPhase
    }

    /// Service one typed request.
    pub fn submit(&self, req: IoRequest<'_>) -> Result<IoResponse, StoreError> {
        match req {
            IoRequest::DbRead { path, view } => self.read_view(path, view).map(IoResponse::Data),
            IoRequest::OutputWrite {
                path,
                view,
                payload,
            } => {
                self.write_view(path, view, payload)?;
                Ok(IoResponse::Done)
            }
            IoRequest::CheckpointPut { path, payload } => {
                let _span = tracelog::span_args(
                    tracelog::Lane::Io,
                    "plane.ckpt.put",
                    vec![("bytes", payload.len().into())],
                );
                self.note(IoStrategy::Independent, 1, payload.len() as u64);
                if try_stage(self.burst, self.comm.ctx(), path, 0, payload)? {
                    return Ok(IoResponse::Done);
                }
                self.fs.create(self.comm.ctx(), path);
                self.fs.write_at(self.comm.ctx(), path, 0, payload)?;
                Ok(IoResponse::Done)
            }
            IoRequest::CheckpointGet { path } => {
                let _span = tracelog::span(tracelog::Lane::Io, "plane.ckpt.get");
                let data = self.fs.read_all(self.comm.ctx(), path)?;
                self.note(IoStrategy::Independent, 1, data.len() as u64);
                Ok(IoResponse::Data(data))
            }
            IoRequest::CheckpointDrop { path } => {
                let _span = tracelog::span(tracelog::Lane::Io, "plane.ckpt.drop");
                // A staged blob whose drain is still in flight would land
                // *after* the delete and resurrect it; fence first.
                self.drain_fence()?;
                self.fs.delete(self.comm.ctx(), path)?;
                Ok(IoResponse::Done)
            }
        }
    }

    // ---- convenience wrappers over `submit` ----

    /// Read a view of a database file ([`IoRequest::DbRead`]).
    pub fn db_read(&self, path: &str, view: &FileView) -> Result<Vec<u8>, StoreError> {
        match self.submit(IoRequest::DbRead { path, view })? {
            IoResponse::Data(d) => Ok(d),
            IoResponse::Done => unreachable!("reads return data"),
        }
    }

    /// Read a whole file (staging: alias, queries, volume indexes).
    pub fn read_whole(&self, path: &str) -> Result<Vec<u8>, StoreError> {
        let data = self.fs.read_all(self.comm.ctx(), path)?;
        self.note(IoStrategy::Independent, 1, data.len() as u64);
        Ok(data)
    }

    /// Write scattered records ([`IoRequest::OutputWrite`]). Writes *do*
    /// fail — a full file system surfaces as
    /// [`StoreError::NoSpace`] — and the caller must degrade, not abort.
    pub fn write_output(
        &self,
        path: &str,
        view: &FileView,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        self.submit(IoRequest::OutputWrite {
            path,
            view,
            payload,
        })
        .map(|_| ())
    }

    /// Persist a checkpoint blob ([`IoRequest::CheckpointPut`]). Fails
    /// with [`StoreError::NoSpace`] on a full file system.
    pub fn checkpoint_put(&self, path: &str, payload: &[u8]) -> Result<(), StoreError> {
        self.submit(IoRequest::CheckpointPut { path, payload })
            .map(|_| ())
    }

    /// Fetch a checkpoint blob ([`IoRequest::CheckpointGet`]).
    pub fn checkpoint_get(&self, path: &str) -> Result<Vec<u8>, StoreError> {
        match self.submit(IoRequest::CheckpointGet { path })? {
            IoResponse::Data(d) => Ok(d),
            IoResponse::Done => unreachable!("gets return data"),
        }
    }

    /// Drop a checkpoint blob ([`IoRequest::CheckpointDrop`]).
    pub fn checkpoint_drop(&self, path: &str) -> Result<(), StoreError> {
        self.submit(IoRequest::CheckpointDrop { path }).map(|_| ())
    }

    // ---- asynchronous submission ----

    /// Begin servicing a request without blocking on the file system,
    /// returning a handle to [`IoPlane::wait`] on. Reads and writes stay
    /// in flight — contending for bandwidth like any concurrent
    /// client — while the rank computes; `wait` exposes only the
    /// remainder. Under the two-phase strategy this is a split
    /// collective (every rank must post begin and wait together);
    /// checkpoint gets/drops and begin-time failures resolve immediately
    /// into a ready handle.
    pub fn submit_begin(&self, req: IoRequest<'_>) -> IoHandle<'a, 'c> {
        let strategy = self.effective_strategy();
        let (op, bytes) = match &req {
            IoRequest::DbRead { view, .. } => ("db_read", view.total_bytes()),
            IoRequest::OutputWrite { payload, .. } => ("output_write", payload.len() as u64),
            IoRequest::CheckpointPut { payload, .. } => ("ckpt_put", payload.len() as u64),
            IoRequest::CheckpointGet { .. } => ("ckpt_get", 0),
            IoRequest::CheckpointDrop { .. } => ("ckpt_drop", 0),
        };
        tracelog::instant(
            tracelog::Lane::Io,
            "plane.async.begin",
            vec![
                ("op", op.into()),
                ("strategy", strategy.label().into()),
                ("bytes", bytes.into()),
            ],
        );
        let kind = match req {
            IoRequest::DbRead { path, view } => {
                self.note(strategy, view.regions.len() as u64, view.total_bytes());
                match strategy {
                    IoStrategy::TwoPhase => {
                        let file =
                            MpiFile::open(self.comm, self.fs, path).with_hints(self.cfg.hints);
                        match file.read_at_all_begin(view) {
                            Ok(pend) => HandleKind::CollRead { file, pend },
                            Err(e) => HandleKind::Ready(Err(e)),
                        }
                    }
                    _ => {
                        let regions: Vec<(u64, u64)> = view.absolute().collect();
                        let run_ranges = if strategy == IoStrategy::Sieve {
                            sieve_runs(&regions, self.cfg.options.sieve_threshold)
                        } else {
                            regions.clone()
                        };
                        let begin_all = || -> Result<Vec<(u64, AsyncIo)>, StoreError> {
                            run_ranges
                                .iter()
                                .map(|&(o, l)| {
                                    Ok((o, self.fs.read_at_begin(self.comm.ctx(), path, o, l)?))
                                })
                                .collect()
                        };
                        match begin_all() {
                            Ok(runs) => HandleKind::Read { runs, regions },
                            Err(e) => HandleKind::Ready(Err(e)),
                        }
                    }
                }
            }
            IoRequest::OutputWrite {
                path,
                view,
                payload,
            } => {
                assert_eq!(
                    payload.len() as u64,
                    view.total_bytes(),
                    "payload must exactly fill the view"
                );
                self.note(strategy, view.regions.len() as u64, view.total_bytes());
                match strategy {
                    IoStrategy::TwoPhase => {
                        let file = MpiFile::open(self.comm, self.fs, path)
                            .with_hints(self.cfg.hints)
                            .with_burst(self.burst);
                        match file.write_at_all_begin(view, payload) {
                            Ok(pend) => HandleKind::CollWrite { file, pend },
                            Err(e) => HandleKind::Ready(Err(e)),
                        }
                    }
                    _ => {
                        let begin_all = || -> Result<Vec<AsyncIo>, StoreError> {
                            let mut ops = Vec::new();
                            for (o, d) in write_runs(view, payload, strategy == IoStrategy::Sieve) {
                                // Staged runs carry no handle: their drain
                                // is tracked by the staging store and
                                // joined at the next drain fence.
                                if try_stage(self.burst, self.comm.ctx(), path, o, &d)? {
                                    continue;
                                }
                                ops.push(self.fs.write_at_begin(self.comm.ctx(), path, o, d));
                            }
                            Ok(ops)
                        };
                        match begin_all() {
                            Ok(ops) => HandleKind::Write { ops },
                            Err(e) => HandleKind::Ready(Err(e)),
                        }
                    }
                }
            }
            IoRequest::CheckpointPut { path, payload } => {
                self.note(IoStrategy::Independent, 1, payload.len() as u64);
                match try_stage(self.burst, self.comm.ctx(), path, 0, payload) {
                    Ok(true) => HandleKind::Write { ops: Vec::new() },
                    Ok(false) => {
                        self.fs.create(self.comm.ctx(), path);
                        let op = self
                            .fs
                            .write_at_begin(self.comm.ctx(), path, 0, payload.to_vec());
                        HandleKind::Write { ops: vec![op] }
                    }
                    Err(e) => HandleKind::Ready(Err(e)),
                }
            }
            // Gets and drops are latency-bound metadata round trips; the
            // sync path already charges them faithfully.
            req @ (IoRequest::CheckpointGet { .. } | IoRequest::CheckpointDrop { .. }) => {
                HandleKind::Ready(self.submit(req))
            }
        };
        IoHandle { op, bytes, kind }
    }

    /// Join an in-flight request: block until its transfers complete,
    /// assemble the response, and (on the collective path) barrier. The
    /// exposed wait — everything this call blocks on — lands in a
    /// `plane.async.wait` span; the time the handle spent in flight
    /// before the join is reported as its `queued_ns` argument.
    pub fn wait(&self, handle: IoHandle<'a, 'c>) -> Result<IoResponse, StoreError> {
        let queued_ns = handle
            .issued_ns()
            .map_or(0, |t| self.comm.ctx().now().0.saturating_sub(t));
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "plane.async.wait",
            vec![
                ("op", handle.op.into()),
                ("bytes", handle.bytes.into()),
                ("queued_ns", queued_ns.into()),
            ],
        );
        match handle.kind {
            HandleKind::Ready(result) => result,
            HandleKind::Read { runs, regions } => {
                let mut run_data: Vec<(u64, Vec<u8>)> = Vec::with_capacity(runs.len());
                for (o, op) in runs {
                    run_data.push((o, self.fs.io_wait(self.comm.ctx(), op)?));
                }
                let total = regions.iter().map(|&(_, l)| l).sum::<u64>() as usize;
                let mut out = Vec::with_capacity(total);
                for (abs, len) in regions {
                    let (o, d) = run_data
                        .iter()
                        .find(|(o, d)| abs >= *o && abs + len <= o + d.len() as u64)
                        .expect("every region lies in a run");
                    let start = (abs - o) as usize;
                    out.extend_from_slice(&d[start..start + len as usize]);
                }
                Ok(IoResponse::Data(out))
            }
            HandleKind::Write { ops } => {
                // Wait for every write even after a failure: the others
                // are still in flight and still land.
                let mut err = None;
                for op in ops {
                    if let Err(e) = self.fs.io_wait(self.comm.ctx(), op) {
                        err.get_or_insert(e);
                    }
                }
                err.map_or(Ok(IoResponse::Done), Err)
            }
            HandleKind::CollRead { file, pend } => file.read_at_all_end(pend).map(IoResponse::Data),
            HandleKind::CollWrite { file, pend } => {
                file.write_at_all_end(pend).map(|_| IoResponse::Done)
            }
        }
    }

    // ---- strategy execution ----

    fn note(&self, strategy: IoStrategy, requests: u64, bytes: u64) {
        self.fs.note_class(strategy.class(), requests, bytes);
    }

    fn read_view(&self, path: &str, view: &FileView) -> Result<Vec<u8>, StoreError> {
        let strategy = self.effective_strategy();
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "plane.read",
            vec![
                ("strategy", strategy.label().into()),
                ("regions", view.regions.len().into()),
                ("bytes", view.total_bytes().into()),
            ],
        );
        self.note(strategy, view.regions.len() as u64, view.total_bytes());
        match strategy {
            IoStrategy::Independent => {
                let mut out = Vec::with_capacity(view.total_bytes() as usize);
                for (abs, len) in view.absolute() {
                    out.extend_from_slice(&self.fs.read_at(self.comm.ctx(), path, abs, len)?);
                }
                Ok(out)
            }
            IoStrategy::Sieve => {
                let regions: Vec<(u64, u64)> = view.absolute().collect();
                let runs = sieve_runs(&regions, self.cfg.options.sieve_threshold);
                let mut out = Vec::with_capacity(view.total_bytes() as usize);
                let mut run = runs.iter();
                let mut cur: Option<(u64, Vec<u8>)> = None;
                for (abs, len) in &regions {
                    let covered = cur
                        .as_ref()
                        .is_some_and(|(o, d)| *abs >= *o && abs + len <= o + d.len() as u64);
                    if !covered {
                        let &(o, l) = run.next().expect("every region lies in a run");
                        cur = Some((o, self.fs.read_at(self.comm.ctx(), path, o, l)?));
                    }
                    let (o, d) = cur.as_ref().expect("run just read");
                    let start = (abs - o) as usize;
                    out.extend_from_slice(&d[start..start + *len as usize]);
                }
                Ok(out)
            }
            IoStrategy::TwoPhase => {
                let file = MpiFile::open(self.comm, self.fs, path).with_hints(self.cfg.hints);
                file.read_at_all(view)
            }
        }
    }

    fn write_view(&self, path: &str, view: &FileView, payload: &[u8]) -> Result<(), StoreError> {
        assert_eq!(
            payload.len() as u64,
            view.total_bytes(),
            "payload must exactly fill the view"
        );
        let strategy = self.effective_strategy();
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "plane.write",
            vec![
                ("strategy", strategy.label().into()),
                ("regions", view.regions.len().into()),
                ("bytes", view.total_bytes().into()),
            ],
        );
        self.note(strategy, view.regions.len() as u64, view.total_bytes());
        match strategy {
            IoStrategy::Independent | IoStrategy::Sieve => {
                for (o, d) in write_runs(view, payload, strategy == IoStrategy::Sieve) {
                    if try_stage(self.burst, self.comm.ctx(), path, o, &d)? {
                        continue;
                    }
                    self.fs.write_at(self.comm.ctx(), path, o, &d)?;
                }
                Ok(())
            }
            IoStrategy::TwoPhase => {
                let file = MpiFile::open(self.comm, self.fs, path)
                    .with_hints(self.cfg.hints)
                    .with_burst(self.burst);
                file.write_at_all(view, payload)
            }
        }
    }
}

/// Merge sorted, disjoint absolute regions into read runs, bridging
/// holes of at most `threshold` bytes.
fn sieve_runs(regions: &[(u64, u64)], threshold: u64) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &(o, l) in regions {
        match out.last_mut() {
            Some((ro, rl)) if o - (*ro + *rl) <= threshold => *rl = o + l - *ro,
            _ => out.push((o, l)),
        }
    }
    out
}

/// Materialize a view's write runs: one `(offset, bytes)` per region,
/// or — when `coalesce` (the sieve write path) — merging only strictly
/// adjacent regions. Writing *through* a hole would clobber bytes other
/// ranks own, so holes always split runs.
fn write_runs(view: &FileView, payload: &[u8], coalesce: bool) -> Vec<(u64, Vec<u8>)> {
    let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut cursor = 0usize;
    for (abs, len) in view.absolute() {
        let piece = &payload[cursor..cursor + len as usize];
        cursor += len as usize;
        match out.last_mut() {
            Some((o, d)) if coalesce && *o + d.len() as u64 == abs => d.extend_from_slice(piece),
            _ => out.push((abs, piece.to_vec())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Collectives, NetProfile};
    use parafs::FsProfile;
    use simcluster::{Sim, SimDuration};

    fn net() -> NetProfile {
        NetProfile {
            latency: 5e-6,
            bandwidth: 1e9,
        }
    }

    fn fsprofile() -> FsProfile {
        FsProfile {
            per_client_bw: 100e6,
            aggregate_bw: 400e6,
            op_latency: 1e-4,
        }
    }

    fn plane_cfg(strategy: IoStrategy, threshold: u64, collective: bool) -> PlaneConfig {
        PlaneConfig {
            options: IoOptions {
                strategy,
                sieve_threshold: threshold,
                io_async: false,
                burst: None,
            },
            hints: CollectiveHints { aggregators: 2 },
            aggregate: true,
            collective,
        }
    }

    #[test]
    fn sieve_runs_bridge_small_holes_only() {
        let regions = vec![(0u64, 10u64), (12, 8), (100, 5), (105, 5)];
        assert_eq!(sieve_runs(&regions, 2), vec![(0, 20), (100, 10)]);
        assert_eq!(
            sieve_runs(&regions, 0),
            vec![(0, 10), (12, 8), (100, 10)],
            "threshold 0 still merges adjacency"
        );
        assert_eq!(sieve_runs(&regions, 1 << 30), vec![(0, 110)]);
        assert!(sieve_runs(&[], 4).is_empty());
    }

    #[test]
    fn all_strategies_read_the_same_bytes() {
        let content: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        for strategy in [
            IoStrategy::Independent,
            IoStrategy::Sieve,
            IoStrategy::TwoPhase,
        ] {
            let sim = Sim::new(3);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            fs.preload("db", content.clone());
            let fs2 = fs.clone();
            let out = sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs2, plane_cfg(strategy, 16, true));
                let base = 100 * ctx.rank() as u64;
                let view = FileView::new(base, vec![(0, 20), (30, 10), (90, 10)]).unwrap();
                plane.db_read("db", &view).unwrap()
            });
            for (r, got) in out.outputs.iter().enumerate() {
                let base = 100 * r;
                let mut want = content[base..base + 20].to_vec();
                want.extend_from_slice(&content[base + 30..base + 40]);
                want.extend_from_slice(&content[base + 90..base + 100]);
                assert_eq!(got, &want, "{strategy} rank {r}");
            }
        }
    }

    #[test]
    fn sieved_reads_are_fewer_than_independent() {
        let content = vec![7u8; 4000];
        let run = |strategy: IoStrategy| -> u64 {
            let sim = Sim::new(1);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            fs.preload("db", content.clone());
            let fs2 = fs.clone();
            sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs2, plane_cfg(strategy, 64, false));
                // 16 regions with 8-byte holes: one sieved run.
                let regions: Vec<(u64, u64)> = (0..16).map(|i| (i * 40, 32)).collect();
                let view = FileView::new(0, regions).unwrap();
                plane.db_read("db", &view).unwrap();
            });
            fs.counters().data_ops
        };
        assert_eq!(run(IoStrategy::Independent), 16);
        assert_eq!(run(IoStrategy::Sieve), 1);
    }

    #[test]
    fn sieved_writes_coalesce_only_adjacent_regions() {
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoStrategy::Sieve, 1 << 20, false));
            // Interleaved: rank r owns records r, r+2, r+4, ... of 10 bytes.
            let me = ctx.rank() as u64;
            let regions: Vec<(u64, u64)> = (0..4).map(|i| ((2 * i + me) * 10, 10)).collect();
            let view = FileView::new(0, regions).unwrap();
            let data = vec![me as u8 + 1; 40];
            plane.write_output("out", &view, &data).unwrap();
        });
        let written = fs.peek("out").unwrap();
        assert_eq!(written.len(), 80);
        for rec in 0..8u64 {
            let want = (rec % 2) as u8 + 1;
            assert!(
                written[(rec * 10) as usize..(rec * 10 + 10) as usize]
                    .iter()
                    .all(|&b| b == want),
                "record {rec}: a sieved write must never fill holes"
            );
        }
        // No coalescing happened (every hole is another rank's record),
        // so each rank issued one write per region.
        assert_eq!(fs.counters().data_ops, 8);
    }

    #[test]
    fn two_phase_without_an_aggregation_request_is_independent() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.preload("db", vec![9u8; 100]);
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let mut cfg = plane_cfg(IoStrategy::TwoPhase, 1 << 20, false);
            cfg.aggregate = false;
            let plane = IoPlane::new(&comm, &fs2, cfg);
            assert_eq!(plane.effective_strategy(), IoStrategy::Independent);
            let view = FileView::new(0, vec![(0, 8), (16, 8)]).unwrap();
            assert_eq!(plane.db_read("db", &view).unwrap(), vec![9u8; 16]);
        });
        // One physical read per region: no hole bridging happened.
        assert_eq!(fs.counters().data_ops, 2);
        assert_eq!(fs.counters().bytes_read, 16);
        assert_eq!(fs.class_tally(IoClass::Independent).requests, 2);
    }

    #[test]
    fn two_phase_degrades_to_sieve_off_the_collective_path() {
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.preload("db", vec![3u8; 1000]);
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoStrategy::TwoPhase, 64, false));
            assert_eq!(plane.effective_strategy(), IoStrategy::Sieve);
            assert!(!plane.is_collective());
            // Only rank 1 posts a request: on a collective plane this
            // would deadlock in the view exchange.
            if ctx.rank() == 1 {
                let view = FileView::new(0, vec![(0, 8), (16, 8)]).unwrap();
                assert_eq!(plane.db_read("db", &view).unwrap(), vec![3u8; 16]);
            }
        });
        assert_eq!(fs.class_tally(IoClass::Sieved).requests, 2);
        assert_eq!(fs.class_tally(IoClass::Sieved).bytes, 16);
        assert_eq!(fs.class_tally(IoClass::TwoPhase).requests, 0);
    }

    #[test]
    fn class_tallies_attribute_logical_traffic() {
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoStrategy::TwoPhase, 64, true));
            let me = ctx.rank() as u64;
            let view = FileView::new(0, vec![(me * 50, 50), (100 + me * 50, 50)]).unwrap();
            plane.write_output("out", &view, &[me as u8; 100]).unwrap();
            // Checkpoint round trip rides the independent class.
            let blob = vec![me as u8; 30];
            let path = format!("ckpt.{me}");
            plane.checkpoint_put(&path, &blob).unwrap();
            assert_eq!(plane.checkpoint_get(&path).unwrap(), blob);
            plane.checkpoint_drop(&path).unwrap();
        });
        let two_phase = fs.class_tally(IoClass::TwoPhase);
        assert_eq!(two_phase.requests, 4);
        assert_eq!(two_phase.bytes, 200);
        let indep = fs.class_tally(IoClass::Independent);
        assert_eq!(indep.requests, 4, "2 puts + 2 gets");
        assert_eq!(indep.bytes, 120);
        assert_eq!(fs.counters().bytes_written, 200 + 60);
    }

    #[test]
    fn async_handles_return_the_same_bytes_as_sync() {
        let content: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        for strategy in [
            IoStrategy::Independent,
            IoStrategy::Sieve,
            IoStrategy::TwoPhase,
        ] {
            let sim = Sim::new(3);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            fs.preload("db", content.clone());
            let fs2 = fs.clone();
            sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs2, plane_cfg(strategy, 16, true));
                let base = 100 * ctx.rank() as u64;
                let view = FileView::new(base, vec![(0, 20), (30, 10), (90, 10)]).unwrap();
                let sync = plane.db_read("db", &view).unwrap();
                let handle = plane.submit_begin(IoRequest::DbRead {
                    path: "db",
                    view: &view,
                });
                match plane.wait(handle).unwrap() {
                    IoResponse::Data(d) => assert_eq!(d, sync, "{strategy} read"),
                    IoResponse::Done => panic!("reads return data"),
                }
                // Scattered writes land the same bytes on both paths.
                let me = ctx.rank() as u64;
                let wview = FileView::new(0, vec![(me * 30, 15), (90 + me * 30, 15)]).unwrap();
                let payload = vec![me as u8 + 1; 30];
                plane.write_output("out.sync", &wview, &payload).unwrap();
                let handle = plane.submit_begin(IoRequest::OutputWrite {
                    path: "out.async",
                    view: &wview,
                    payload: &payload,
                });
                assert_eq!(plane.wait(handle).unwrap(), IoResponse::Done);
            });
            assert_eq!(
                fs.peek("out.sync").unwrap(),
                fs.peek("out.async").unwrap(),
                "{strategy} write"
            );
        }
    }

    #[test]
    fn async_reads_overlap_compute() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.preload("db", vec![1u8; 50_000_000]);
        let fs2 = fs.clone();
        let out = sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoStrategy::Sieve, 0, false));
            let view = FileView::contiguous(0, 50_000_000);
            let start = ctx.now();
            let handle = plane.submit_begin(IoRequest::DbRead {
                path: "db",
                view: &view,
            });
            ctx.charge(SimDuration::from_millis(300));
            match plane.wait(handle).unwrap() {
                IoResponse::Data(d) => assert_eq!(d.len(), 50_000_000),
                IoResponse::Done => panic!("reads return data"),
            }
            (ctx.now() - start).0
        });
        // 50 MB at 100 MB/s is 0.5 s (plus 0.1 ms op latency); the
        // 0.3 s of compute must hide entirely inside the transfer.
        let elapsed = out.outputs[0] as f64 / 1e9;
        assert!(elapsed > 0.4999, "transfer time still elapses: {elapsed}");
        assert!(elapsed < 0.5002, "compute must overlap I/O: {elapsed}");
    }

    #[test]
    fn full_file_system_degrades_writes_to_errors() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.set_capacity(100);
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoStrategy::Independent, 0, false));
            // Sync paths surface the late ENOSPC as a typed error.
            assert!(matches!(
                plane.checkpoint_put("ckpt", &[0u8; 200]),
                Err(StoreError::NoSpace { .. })
            ));
            let view = FileView::contiguous(0, 150);
            assert!(matches!(
                plane.write_output("out", &view, &[0u8; 150]),
                Err(StoreError::NoSpace { .. })
            ));
            // Async: the failure lands at wait time, not begin time.
            let h = plane.submit_begin(IoRequest::CheckpointPut {
                path: "ckpt2",
                payload: &[0u8; 200],
            });
            assert!(matches!(plane.wait(h), Err(StoreError::NoSpace { .. })));
            // A blob that fits still goes through.
            plane.checkpoint_put("small", &[7u8; 40]).unwrap();
        });
        assert_eq!(fs.peek("small").unwrap(), vec![7u8; 40]);
    }

    #[test]
    fn staged_writes_land_identically_after_the_drain_fence() {
        // Every strategy, with a staging store attached: scattered
        // output and a checkpoint blob must land byte-identically to the
        // unstaged run once the drain fence has been posted.
        for strategy in [
            IoStrategy::Independent,
            IoStrategy::Sieve,
            IoStrategy::TwoPhase,
        ] {
            let sim = Sim::new(3);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            let fs2 = fs.clone();
            sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let staging =
                    SimFs::new(ctx.handle(), &format!("stage{}", ctx.rank()), fsprofile());
                let store = RefCell::new(StagingStore::new(
                    staging,
                    fs2.clone(),
                    BurstOptions { capacity: 1 << 20 },
                    burstfs::DeviceModel {
                        op_latency: 1e-5,
                        bandwidth: 1e9,
                    },
                ));
                let me = ctx.rank() as u64;
                let view = FileView::new(0, vec![(me * 30, 15), (90 + me * 30, 15)]).unwrap();
                let payload = vec![me as u8 + 1; 30];
                let direct = IoPlane::new(&comm, &fs2, plane_cfg(strategy, 16, true));
                direct.write_output("out.direct", &view, &payload).unwrap();
                let staged = IoPlane::new(&comm, &fs2, plane_cfg(strategy, 16, true))
                    .with_burst(Some(&store));
                assert!(staged.has_burst());
                staged.write_output("out.staged", &view, &payload).unwrap();
                let blob = vec![me as u8; 25];
                staged.checkpoint_put(&format!("ck.{me}"), &blob).unwrap();
                staged.drain_fence().unwrap();
                // Checkpoints read back from the *destination*.
                assert_eq!(staged.checkpoint_get(&format!("ck.{me}")).unwrap(), blob);
                let stats = staged.burst_stats().unwrap();
                assert_eq!(stats.drains, stats.puts);
                assert_eq!(stats.backpressure, 0);
                comm.barrier();
            });
            assert_eq!(
                fs.peek("out.direct").unwrap(),
                fs.peek("out.staged").unwrap(),
                "{strategy} staged write"
            );
        }
    }

    #[test]
    fn staging_backpressure_degrades_to_direct_writes() {
        // A staging volume too small for the run: every put bounces and
        // the bytes still land via the direct path.
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let staging = SimFs::new(ctx.handle(), "stage0", fsprofile());
            let store = RefCell::new(StagingStore::new(
                staging,
                fs2.clone(),
                BurstOptions { capacity: 10 },
                burstfs::DeviceModel {
                    op_latency: 1e-5,
                    bandwidth: 1e9,
                },
            ));
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoStrategy::Independent, 0, false))
                .with_burst(Some(&store));
            let view = FileView::contiguous(0, 100);
            plane.write_output("out", &view, &[5u8; 100]).unwrap();
            plane.drain_fence().unwrap();
            let stats = plane.burst_stats().unwrap();
            assert_eq!(stats.puts, 0);
            assert!(stats.backpressure > 0);
        });
        assert_eq!(fs.peek("out").unwrap(), vec![5u8; 100]);
    }

    #[test]
    fn checkpoint_get_of_a_missing_blob_is_a_typed_error() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, PlaneConfig::default());
            assert!(matches!(
                plane.checkpoint_get("absent"),
                Err(StoreError::NotFound { .. })
            ));
        });
    }
}
