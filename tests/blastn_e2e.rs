//! End-to-end nucleotide (blastn) runs: the whole stack is
//! molecule-generic, so an nt-like DNA database searches through the same
//! parallel machinery, and the three implementations still agree
//! byte-for-byte.

use blast_core::search::SearchParams;
use blast_core::Molecule;
use mpiblast::report::{serial_report, ReportOptions};
use mpiblast::{MpiBlastConfig, Platform};
use pioblast::PioBlastConfig;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate_dna, SynthConfig};
use simcluster::Sim;

#[test]
fn blastn_all_three_implementations_agree() {
    let records = generate_dna(&SynthConfig::nt_like_dna(17, 120_000));
    assert!(records.iter().all(|r| r.molecule == Molecule::Dna));
    let cfg = FormatDbConfig {
        title: "nt-e2e".into(),
        molecule: Molecule::Dna,
        volume_residue_cap: None,
    };
    let db = format_records(&records, &cfg);
    let queries = sample_queries(&records, 3000, 9);
    let params = SearchParams::blastn();

    let oracle = serial_report(&params, queries.clone(), &db, ReportOptions::default())
        .expect("serial oracle");
    let text = String::from_utf8_lossy(&oracle);
    assert!(text.contains("BLASTN 2.2.10-sim"), "blastn banner expected");
    assert!(
        text.contains("Score = "),
        "queries sampled from nt must hit"
    );

    // pioBLAST.
    let sim = Sim::new(4);
    let pio_cfg = PioBlastConfig::staged(&sim, &Platform::altix(), &db, &queries);
    sim.run(|ctx| pioblast::run_rank(&ctx, &pio_cfg));
    let pio = pio_cfg.env.shared.peek(&pio_cfg.output_path).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&pio),
        String::from_utf8_lossy(&oracle)
    );

    // mpiBLAST.
    let sim = Sim::new(4);
    let mpi_cfg = MpiBlastConfig::staged(&sim, &Platform::altix(), &db, &queries, 3);
    sim.run(|ctx| mpiblast::run_rank(&ctx, &mpi_cfg));
    let mpi = mpi_cfg.env.shared.peek(&mpi_cfg.output_path).unwrap();
    assert_eq!(mpi, oracle);
}

#[test]
fn dna_bases_are_roughly_uniform() {
    let records = generate_dna(&SynthConfig::nt_like_dna(3, 100_000));
    let mut counts = [0u64; 5];
    let mut total = 0u64;
    for r in &records {
        for &b in &r.residues {
            counts[b as usize] += 1;
            total += 1;
        }
    }
    for (base, &count) in counts.iter().enumerate().take(4) {
        let f = count as f64 / total as f64;
        assert!((0.2..0.3).contains(&f), "base {base} frequency {f}");
    }
    assert_eq!(counts[4], 0, "no N bases generated");
}
