//! Ablation: static vs dynamic fragment scheduling (paper §5).
//!
//! The paper proposes run-time-decided, per-worker file ranges as "ideal
//! for scenarios where we have heterogeneous nodes or skewed search".
//! This harness builds exactly that scenario — a 32-process cluster where
//! a quarter of the workers are 4x slower — and compares the paper's
//! static contiguous scatter against demand-driven fragment grants, at
//! several granularities.

use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use mpiblast::Platform;
use pioblast::{FragmentSchedule, PioBlastConfig};
use simcluster::Sim;

fn main() {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let platform = Platform::altix();
    let nprocs = 32usize;
    // Workers 8, 16, 24 are 4x slower (e.g. older nodes in the queue).
    let mut scales = vec![1.0f64; nprocs];
    for r in [8usize, 16, 24] {
        scales[r] = 4.0;
    }
    println!(
        "== Ablation: static vs dynamic fragment scheduling, 32 processes, 3 slow nodes (4x) =="
    );
    println!(
        "{:<22} {:>16} {:>16} {:>9}",
        "fragments/worker", "static total(s)", "dynamic total(s)", "speedup"
    );
    for per_worker in [1usize, 2, 4, 8] {
        let nfrags = (nprocs - 1) * per_worker;
        let mut totals = Vec::new();
        for schedule in [FragmentSchedule::Static, FragmentSchedule::Dynamic] {
            let sim = Sim::new(nprocs);
            let cfg = PioBlastConfig {
                compute: workload.compute,
                report: workload.report,
                num_fragments: Some(nfrags),
                schedule,
                rank_compute: Some(scales.clone()),
                ..PioBlastConfig::staged(&sim, &platform, &workload.db, &workload.queries)
            };
            let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
            totals.push(outcome.elapsed.as_secs_f64());
        }
        println!(
            "{:<22} {:>16.3} {:>16.3} {:>8.2}x",
            per_worker,
            totals[0],
            totals[1],
            totals[0] / totals[1]
        );
        if per_worker >= 4 {
            assert!(
                totals[1] < totals[0],
                "with fine granularity, dynamic must beat static on a heterogeneous cluster"
            );
        }
    }
    println!(
        "\npaper §5: run-time file ranges are 'ideal for heterogeneous nodes or skewed search'"
    );
}
