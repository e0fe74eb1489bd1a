//! Ablation: what does two-phase collective output buy pioBLAST over
//! independent per-record writes?
//!
//! The paper credits MPI-IO's collective, noncontiguous output for the
//! order-of-magnitude output speedup (§3.3). Here we hold everything else
//! fixed and flip only the output strategy, on both file-system profiles.
//! Expectation: on NFS (low aggregate bandwidth, expensive per-op
//! latency) independent scattered writes are much slower; on XFS the gap
//! narrows but collective still wins on operation count.

use blast_bench::table::breakdown_table;
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use blast_bench::{run_traced, Program};
use mpiblast::Platform;
use pioblast::PioBlastConfig;
use simcluster::Sim;

fn main() {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    for platform in [Platform::altix(), Platform::blade_cluster()] {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for collective in [true, false] {
            let tweak = |c: &mut PioBlastConfig| c.collective_output = collective;
            let (s, _) = run_traced(Program::PioBlast, 32, None, &platform, &workload, tweak);
            labels.push(if collective {
                "collective"
            } else {
                "independent"
            });
            rows.push(s);
        }
        println!(
            "{}",
            breakdown_table(
                &format!(
                    "Ablation: collective vs independent output ({})",
                    platform.name
                ),
                &rows
            )
        );
        println!(
            "  {}: output {:.3}s | {}: output {:.3}s  ({:.2}x)\n",
            labels[0],
            rows[0].output,
            labels[1],
            rows[1].output,
            rows[1].output / rows[0].output.max(1e-9)
        );
        assert!(
            rows[1].output >= rows[0].output,
            "independent writes must not beat collective I/O"
        );
    }

    // ---- input side: individual ranged reads vs collective reads, at a
    // fine granularity (8 fragments/worker -> 32 noncontiguous ranges per
    // worker per file) where collective reads get to coalesce. ----
    println!("== Ablation: individual vs collective input, 32 processes, 8 fragments/worker ==");
    for platform in [Platform::altix(), Platform::blade_cluster()] {
        let mut input_times = Vec::new();
        for collective_input in [false, true] {
            let sim = Sim::new(32);
            let cfg = PioBlastConfig {
                compute: workload.compute,
                num_fragments: Some(31 * 8),
                collective_input,
                ..PioBlastConfig::staged(&sim, &platform, &workload.db, &workload.queries)
            };
            let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
            let input_max = outcome
                .outputs
                .iter()
                .map(|r| {
                    r.as_ref()
                        .expect("rank completed")
                        .phases
                        .get(mpiblast::phases::INPUT)
                        .as_secs_f64()
                })
                .fold(0.0, f64::max);
            input_times.push(input_max);
        }
        println!(
            "  {:<35} individual input {:.4}s | collective input {:.4}s ({:.2}x)",
            platform.name,
            input_times[0],
            input_times[1],
            input_times[0] / input_times[1].max(1e-12)
        );
    }
    println!(
        "
paper §4: 'extend pioBLAST's parallel input function to read multiple global files simultaneously'"
    );
}
