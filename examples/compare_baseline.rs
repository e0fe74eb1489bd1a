//! Head-to-head: mpiBLAST vs pioBLAST on the same workload and platform,
//! with the paper's Table-1-style phase breakdown, plus a byte-for-byte
//! check that both produced the identical report.
//!
//! Run with: `cargo run --release --example compare_baseline`

use mpiblast::{MpiBlastConfig, Platform};
use pioblast::PioBlastConfig;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use simcluster::Sim;

fn main() {
    let records = generate(&SynthConfig::nr_like(42, 300_000));
    let db = format_records(&records, &FormatDbConfig::protein("nr-sim"));
    let queries = sample_queries(&records, 1500, 9);
    let nprocs = 8;
    println!(
        "workload: {} residues, {} queries, {} processes\n",
        db.stats().total_residues,
        queries.len(),
        nprocs
    );

    // --- mpiBLAST: needs pre-partitioned physical fragments ---
    let sim = Sim::new(nprocs);
    let mpi_cfg = MpiBlastConfig::staged(&sim, &Platform::altix(), &db, &queries, nprocs - 1);
    let mpi = sim.run(|ctx| mpiblast::run_rank(&ctx, &mpi_cfg));
    let mpi_out = mpi_cfg.env.shared.peek(&mpi_cfg.output_path).unwrap();
    let mpi_time = mpi.elapsed.as_secs_f64();

    // --- pioBLAST: same shared database, no fragments ---
    let sim = Sim::new(nprocs);
    let pio_cfg = PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries);
    let pio = sim.run(|ctx| pioblast::run_rank(&ctx, &pio_cfg));
    let pio_out = pio_cfg.env.shared.peek(&pio_cfg.output_path).unwrap();
    let pio_time = pio.elapsed.as_secs_f64();

    println!(
        "mpiBLAST total: {mpi_time:.3}s   pioBLAST total: {pio_time:.3}s   speedup: {:.2}x",
        mpi_time / pio_time
    );
    assert_eq!(
        mpi_out, pio_out,
        "the two programs must produce byte-identical reports"
    );
    println!(
        "reports are byte-identical: {} bytes (the paper's correctness requirement)",
        pio_out.len()
    );
}
