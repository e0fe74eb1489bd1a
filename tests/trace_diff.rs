//! Golden tests for trace diffing (`tracelog::diff`, surfaced as the
//! `pioblast-sim trace-diff` subcommand).
//!
//! The diff aligns two exported runs by `(rank, lane, phase)` and must
//! name the lane that actually moved:
//!
//! * `--threads 4` vs serial: the divergence is in the Search
//!   compute-slot sub-lanes (`search slot k`) — threading reshapes the
//!   search timeline and nothing about the report;
//! * `--io-async` vs sync: the divergence includes the Io lane — the
//!   read-ahead plane overlaps reads that the sync plane serializes;
//! * identical configurations: the diff is empty, byte-for-byte — the
//!   determinism contract seen through the diff tool.

use mpiblast::Platform;
use pioblast::{FragmentSchedule, IoOptions, PioBlastConfig};
use simcluster::Sim;
use tracelog::diff::{diff_profiles, profile_chrome, render_diff, TraceDiff};
use tracelog::{chrome, Tracer};

mod common;
use common::{sample_queries, small_db};

/// Run a modeled pioBLAST job and return its Chrome export plus the
/// report bytes.
fn run_export(threads: usize, io_async: bool) -> (String, Vec<u8>) {
    let db = small_db(33, 40_000, "nr-diff");
    let queries = sample_queries(&db, 3, 13);
    let sim = Sim::new(4);
    let tracer = Tracer::new(4);
    sim.set_tracer(tracer.clone());
    let cfg = PioBlastConfig {
        num_fragments: Some(6),
        collective_output: false,
        schedule: FragmentSchedule::Dynamic,
        threads,
        io: IoOptions {
            io_async,
            ..Default::default()
        },
        ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
    };
    let out = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    for r in &out.outputs {
        r.as_ref().expect("rank failed");
    }
    let report = cfg.env.shared.peek("results.txt").expect("report exists");
    let trace = tracer.finish(out.elapsed.since(simcluster::SimTime::ZERO).0);
    (chrome::export_chrome(&trace, None), report.to_vec())
}

fn diff_of(a: &str, b: &str) -> TraceDiff {
    diff_profiles(
        &profile_chrome(a).expect("run A parses"),
        &profile_chrome(b).expect("run B parses"),
    )
}

#[test]
fn identical_runs_diff_empty() {
    let (a, _) = run_export(1, false);
    let (b, _) = run_export(1, false);
    assert_eq!(a, b, "determinism: identical configs export identically");
    let d = diff_of(&a, &b);
    assert!(d.is_empty(), "diff must be empty: {}", render_diff(&d, 20));
    assert!(render_diff(&d, 20).contains("equivalent"));
}

#[test]
fn threaded_vs_serial_diverges_in_search_slot_lanes() {
    let (serial, report_serial) = run_export(1, false);
    let (threaded, report_threaded) = run_export(4, false);
    assert_eq!(
        report_serial, report_threaded,
        "threading must not change report bytes"
    );
    let d = diff_of(&serial, &threaded);
    assert!(!d.is_empty());
    let slot_rows: Vec<_> = d
        .cluster
        .iter()
        .filter(|r| r.lane.starts_with("search slot"))
        .collect();
    assert!(
        !slot_rows.is_empty(),
        "slot sub-lanes must appear in the diff: {}",
        render_diff(&d, 20)
    );
    // Slot lanes exist only in the threaded run: the serial side of
    // every slot row is zero.
    assert!(slot_rows.iter().all(|r| r.a_ns == 0 && r.b_ns > 0));
    let text = render_diff(&d, 20);
    assert!(text.contains("search slot"), "{text}");
}

#[test]
fn async_vs_sync_io_diverges_in_io_lane() {
    let (sync, report_sync) = run_export(1, false);
    let (asynch, report_async) = run_export(1, true);
    assert_eq!(
        report_sync, report_async,
        "read-ahead must not change report bytes"
    );
    let d = diff_of(&sync, &asynch);
    assert!(!d.is_empty());
    assert!(
        d.cluster.iter().any(|r| r.lane == "io"),
        "the io lane must be named: {}",
        render_diff(&d, 20)
    );
    // With the same rank count, the per-rank section pins divergence to
    // specific ranks.
    assert!(d.per_rank.iter().any(|r| r.lane == "io"));
}
