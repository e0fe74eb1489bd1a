//! Fixtures shared by the integration tests.

use blast_core::search::SubjectSource;
use blast_core::seq::SeqRecord;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::{FormattedDb, FragmentData};

/// A synthetic nr-like protein database of about `residues` residues.
pub fn small_db(seed: u64, residues: u64, title: &str) -> FormattedDb {
    let recs = generate(&SynthConfig::nr_like(seed, residues));
    format_records(&recs, &FormatDbConfig::protein(title))
}

/// `n` queries copied from the first volume's subjects, taking every
/// `stride`-th subject (wrapping around).
pub fn sample_queries(db: &FormattedDb, n: usize, stride: usize) -> Vec<SeqRecord> {
    let frag = FragmentData::from_volume(&db.volumes[0]);
    (0..n)
        .map(|i| {
            let s = frag.subject((i * stride) % frag.num_subjects());
            SeqRecord {
                defline: format!("query_{i:05} sampled"),
                residues: s.residues.to_vec(),
                molecule: blast_core::Molecule::Protein,
            }
        })
        .collect()
}
