//! Run pioBLAST on a simulated 16-rank Altix: generate a synthetic nr-like
//! database, format it once, and search it with dynamic virtual
//! partitioning, parallel input, and collective output.
//!
//! Run with: `cargo run --release --example parallel_search`

use mpiblast::{phases, ComputeModel, Platform};
use pioblast::PioBlastConfig;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use simcluster::Sim;

fn main() {
    // A ~400k-residue synthetic protein database (deterministic).
    let records = generate(&SynthConfig::nr_like(42, 400_000));
    let db = format_records(&records, &FormatDbConfig::protein("nr-sim"));
    let queries = sample_queries(&records, 2048, 7);
    println!(
        "database: {} sequences, {} residues; {} queries",
        db.stats().num_sequences,
        db.stats().total_residues,
        queries.len()
    );

    // A 16-rank simulated Altix (1 master + 15 workers).
    let sim = Sim::new(16);
    let cfg = PioBlastConfig {
        compute: ComputeModel::measured(), // charge real kernel time
        ..PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries)
    };
    let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));

    println!(
        "\nvirtual time: {:.3}s across {} ranks ({} messages, {} payload bytes)",
        outcome.elapsed.as_secs_f64(),
        outcome.outputs.len(),
        outcome.stats.messages,
        outcome.stats.message_bytes
    );
    for (rank, report) in outcome.outputs.iter().enumerate() {
        let p = &report.as_ref().expect("rank completed").phases;
        println!(
            "  rank {rank:>2}: input {:>9} search {:>9} output {:>9}",
            p.get(phases::INPUT).to_string(),
            p.get(phases::SEARCH).to_string(),
            p.get(phases::OUTPUT).to_string(),
        );
    }

    let output = cfg
        .env
        .shared
        .peek(&cfg.output_path)
        .expect("report written");
    let text = String::from_utf8_lossy(&output);
    println!(
        "\nreport: {} bytes, {} query sections; first lines:",
        output.len(),
        text.matches("Query= ").count()
    );
    for line in text.lines().take(8) {
        println!("  | {line}");
    }
}
