//! Ablation: what does each I/O-plane access strategy cost end to end?
//!
//! The plane exposes three ways to service the same noncontiguous
//! request lists (§3.3 of the paper): `independent` (one file-system
//! operation per region), `sieve` (per-rank hole-bridging reads and
//! adjacent-run write coalescing), and `two-phase` (the full collective
//! exchange over the aggregators). This harness holds the workload
//! fixed — aggregated input *and* output requested — and pins the
//! strategy, on both file-system profiles at 4/8/16 processes,
//! reporting virtual elapsed time alongside the file system's physical
//! counters and the plane's per-class logical tallies.
//!
//! Expectation, matching the paper's Table 1 argument: on the blade
//! cluster's NFS (high per-op latency, low aggregate bandwidth) the
//! per-region independent pattern loses badly to two-phase at scale;
//! sieving recovers most of the gap without needing the collective
//! barrier. On the Altix XFS the three converge — bandwidth is cheap
//! and operation latency small, so access-pattern surgery buys little.
//!
//! Results land in `BENCH_io.json` at the workspace root. The harness
//! asserts the headline: two-phase beats independent on blade/NFS at
//! 16 processes.

use std::fmt::Write as _;

use blast_bench::runner::PHASE_PRECEDENCE;
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use mpiblast::Platform;
use parafs::FsCounters;
use pioblast::{IoOptions, IoStrategy, PioBlastConfig};
use simcluster::Sim;

const PROCS: [usize; 3] = [4, 8, 16];
const STRATEGIES: [IoStrategy; 3] = [
    IoStrategy::Independent,
    IoStrategy::Sieve,
    IoStrategy::TwoPhase,
];

struct Run {
    procs: usize,
    elapsed_s: f64,
    counters: FsCounters,
    class_requests: u64,
    class_bytes: u64,
    /// Trace-derived critical-path share of each phase (fractions of
    /// elapsed time): input, search, output.
    share_input: f64,
    share_search: f64,
    share_output: f64,
    /// Absolute critical-path time spent in input + output, in
    /// simulated seconds — the numerator of the shares, kept so the
    /// async comparison can report the raw shrink too.
    io_path_s: f64,
    /// Final merged result bytes, for byte-identity assertions.
    output: Vec<u8>,
}

fn run_one(
    platform: &Platform,
    procs: usize,
    strategy: IoStrategy,
    collective: bool,
    io_async: bool,
) -> Run {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let sim = Sim::new(procs);
    let tracer = tracelog::Tracer::new(procs);
    sim.set_tracer(tracer.clone());
    let cfg = PioBlastConfig {
        compute: workload.compute,
        report: workload.report,
        // Several fragments per worker: each rank's share of every volume
        // file is a list of noncontiguous ranges, which is exactly the
        // access shape the strategies differ on.
        num_fragments: Some((procs - 1) * 4),
        collective_output: collective,
        collective_input: collective,
        io: IoOptions {
            strategy,
            io_async,
            ..Default::default()
        },
        ..PioBlastConfig::staged(&sim, platform, &workload.db, &workload.queries)
    };
    let env = &cfg.env;
    let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    for r in &outcome.outputs {
        r.as_ref().expect("rank completed");
    }
    let tally = env.shared.class_tally(strategy.class());
    let wall = outcome.elapsed.since(simcluster::SimTime::ZERO).0;
    let trace = tracer.finish(wall);
    let path = tracelog::analyze::critical_path(&trace, &PHASE_PRECEDENCE);
    let share = |name: &str| {
        if wall == 0 {
            0.0
        } else {
            path.get(name) as f64 / wall as f64
        }
    };
    let tick = if wall == 0 {
        0.0
    } else {
        outcome.elapsed.as_secs_f64() / wall as f64
    };
    let output = env
        .shared
        .peek(&cfg.output_path)
        .expect("merged output present");
    Run {
        procs,
        elapsed_s: outcome.elapsed.as_secs_f64(),
        counters: env.shared.counters(),
        class_requests: tally.requests,
        class_bytes: tally.bytes,
        share_input: share("input"),
        share_search: share("search"),
        share_output: share("output"),
        io_path_s: (path.get("input") + path.get("output")) as f64 * tick,
        output,
    }
}

fn main() {
    println!("== Ablation: I/O plane access strategy, 4/8/16 processes, both profiles ==");
    println!(
        "{:<35} {:>5} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "platform",
        "procs",
        "strategy",
        "elapsed(s)",
        "data_ops",
        "meta_ops",
        "class_rq",
        "MB_moved"
    );
    let mut json = String::from("{\n  \"bench\": \"ablate_io\",\n  \"platforms\": [\n");
    for (pi, platform) in [Platform::altix(), Platform::blade_cluster()]
        .into_iter()
        .enumerate()
    {
        if pi > 0 {
            json.push_str(",\n");
        }
        let _ = writeln!(
            json,
            "    {{\"platform\": \"{}\", \"runs\": [",
            platform.name
        );
        let mut elapsed_at_16 = [0.0f64; 3];
        for (i, procs) in PROCS.into_iter().enumerate() {
            for (j, strategy) in STRATEGIES.into_iter().enumerate() {
                let r = run_one(&platform, procs, strategy, true, false);
                let moved = (r.counters.bytes_read + r.counters.bytes_written) as f64 / 1e6;
                println!(
                    "{:<35} {:>5} {:>12} {:>10.3} {:>10} {:>9} {:>9} {:>9.2}",
                    platform.name,
                    r.procs,
                    strategy.label(),
                    r.elapsed_s,
                    r.counters.data_ops,
                    r.counters.meta_ops,
                    r.class_requests,
                    moved
                );
                if procs == 16 {
                    elapsed_at_16[j] = r.elapsed_s;
                }
                if i + j > 0 {
                    json.push_str(",\n");
                }
                let _ = write!(
                    json,
                    "      {{\"procs\": {}, \"strategy\": \"{}\", \"elapsed_s\": {:.6}, \
                     \"bytes_read\": {}, \"bytes_written\": {}, \"data_ops\": {}, \
                     \"meta_ops\": {}, \"class_requests\": {}, \"class_bytes\": {}, \
                     \"share_input\": {:.6}, \"share_search\": {:.6}, \"share_output\": {:.6}}}",
                    r.procs,
                    strategy.label(),
                    r.elapsed_s,
                    r.counters.bytes_read,
                    r.counters.bytes_written,
                    r.counters.data_ops,
                    r.counters.meta_ops,
                    r.class_requests,
                    r.class_bytes,
                    r.share_input,
                    r.share_search,
                    r.share_output
                );
            }
        }
        json.push_str("\n    ]}");
        let speedup = elapsed_at_16[0] / elapsed_at_16[2].max(1e-12);
        println!(
            "{:<35} two-phase vs independent at 16 procs: {:.2}x\n",
            platform.name, speedup
        );
        if platform.name.contains("Blade") {
            assert!(
                elapsed_at_16[2] < elapsed_at_16[0],
                "{}: two-phase ({:.3}s) must beat independent ({:.3}s) at 16 processes",
                platform.name,
                elapsed_at_16[2],
                elapsed_at_16[0]
            );
        }
    }
    json.push_str("\n  ],\n");

    // Nonblocking plane: the same workload on the blade cluster's NFS
    // at 16 processes, independent-mode sieving, with and without
    // `--io-async`. Read-ahead overlaps the next fragment's transfer
    // with the current fragment's search, and output/checkpoint writes
    // fire all their runs concurrently instead of charging them
    // serially — so the critical-path time attributed to input+output
    // must strictly shrink while the merged bytes stay identical.
    println!("== Nonblocking plane: async vs sync, blade/NFS, 16 processes ==");
    let blade = Platform::blade_cluster();
    let sync_r = run_one(&blade, 16, IoStrategy::Sieve, false, false);
    let async_r = run_one(&blade, 16, IoStrategy::Sieve, false, true);
    for (label, r) in [("sync", &sync_r), ("async", &async_r)] {
        println!(
            "{:<8} elapsed {:>8.3}s  input+output path {:>8.3}s  \
             shares in/out {:.4}/{:.4}",
            label, r.elapsed_s, r.io_path_s, r.share_input, r.share_output
        );
    }
    assert_eq!(
        sync_r.output, async_r.output,
        "async plane must produce byte-identical merged output"
    );
    let sync_share = sync_r.share_input + sync_r.share_output;
    let async_share = async_r.share_input + async_r.share_output;
    assert!(
        async_share < sync_share,
        "input+output critical-path share must shrink with --io-async \
         (sync {sync_share:.4}, async {async_share:.4})"
    );
    assert!(
        async_r.io_path_s < sync_r.io_path_s,
        "absolute input+output path time must shrink with --io-async \
         (sync {:.3}s, async {:.3}s)",
        sync_r.io_path_s,
        async_r.io_path_s
    );
    let _ = writeln!(
        json,
        "  \"async_16\": {{\"platform\": \"{}\", \"procs\": 16, \"strategy\": \"{}\", \
         \"sync\": {{\"elapsed_s\": {:.6}, \"io_path_s\": {:.6}, \
         \"share_input\": {:.6}, \"share_output\": {:.6}}}, \
         \"async\": {{\"elapsed_s\": {:.6}, \"io_path_s\": {:.6}, \
         \"share_input\": {:.6}, \"share_output\": {:.6}}}, \
         \"bytes_identical\": true}}",
        blade.name,
        IoStrategy::Sieve.label(),
        sync_r.elapsed_s,
        sync_r.io_path_s,
        sync_r.share_input,
        sync_r.share_output,
        async_r.elapsed_s,
        async_r.io_path_s,
        async_r.share_input,
        async_r.share_output
    );
    json.push('}');
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_io.json");
    std::fs::write(path, &json).expect("write BENCH_io.json");
    println!("wrote {path}");
    println!("access-pattern surgery pays on NFS; on XFS the strategies converge");
}
