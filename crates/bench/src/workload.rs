//! Benchmark workloads: scaled-down analogues of the paper's nr/nt setups.
//!
//! The paper searched query sets randomly sampled from GenBank nr (~1 GB,
//! highly redundant — a typical query aligns against *thousands* of
//! subjects, which is why per-fragment hitlist truncation inflates
//! candidate volumes as fragment counts grow). Our stand-in keeps the
//! ratios that matter: a family-structured synthetic database whose
//! family sizes exceed the per-fragment hitlist several-fold, and query
//! sets sized as fractions of the database.
//!
//! Environment knobs read by the bench mains (all optional):
//! * `PIOBLAST_DB_RESIDUES` — database size in residues (default 12 M);
//! * `PIOBLAST_QUERY_BYTES` — base query-set FASTA size (default 4 KiB);
//! * `PIOBLAST_MEASURED` — set to `1` to charge measured host compute
//!   time instead of the deterministic analytical model.

use blast_core::search::SearchParams;
use blast_core::seq::SeqRecord;
use mpiblast::{ComputeModel, ReportOptions};
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::FormattedDb;

/// A fully built benchmark workload.
pub struct Workload {
    /// The formatted synthetic database.
    pub db: FormattedDb,
    /// Query records (sampled from the database).
    pub queries: Vec<SeqRecord>,
    /// Search parameters (scaled hitlist, see module docs).
    pub params: SearchParams,
    /// Report limits (scaled from NCBI's -v500 -b250).
    pub report: ReportOptions,
    /// Compute-cost mode.
    pub compute: ComputeModel,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Database size in residues, from `PIOBLAST_DB_RESIDUES` (default 12 M).
pub fn default_db_residues() -> u64 {
    env_u64("PIOBLAST_DB_RESIDUES", 12_000_000)
}

/// Query-set FASTA size, from `PIOBLAST_QUERY_BYTES` (default 4 KiB).
pub fn default_query_bytes() -> u64 {
    env_u64("PIOBLAST_QUERY_BYTES", 4 * 1024)
}

/// The compute model selected by `PIOBLAST_MEASURED`.
pub fn compute_model() -> ComputeModel {
    if std::env::var("PIOBLAST_MEASURED").as_deref() == Ok("1") {
        ComputeModel::measured()
    } else {
        ComputeModel::modeled()
    }
}

/// Search parameters for benchmarks: the NCBI defaults (hitlist 500,
/// -v500 -b250) with HSPs per subject capped so individual records stay
/// compact at this database scale.
pub fn scaled_params() -> (SearchParams, ReportOptions) {
    let mut params = SearchParams::blastp();
    params.max_hsps_per_subject = 4;
    (params, ReportOptions::default())
}

fn synth_config(seed: u64, db_residues: u64) -> SynthConfig {
    let mut synth = SynthConfig::nr_like(seed, db_residues);
    // Heavier redundancy than the unit-test default: large families make
    // sampled queries hit many subjects, as real nr queries do.
    synth.family_size_mean = 120.0;
    synth.mutation_rate = 0.2;
    synth
}

/// Deterministically shuffle records. The generator emits families
/// contiguously; real nr is not sorted by family, and leaving families
/// contiguous would hand one worker all of a query's alignment work
/// (pathological load skew no real deployment has).
fn shuffle_records(records: &mut [SeqRecord], seed: u64) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7a57);
    records.shuffle(&mut rng);
}

/// Build the standard nr-like workload.
pub fn nr_like(db_residues: u64, query_bytes: u64, seed: u64) -> Workload {
    let mut records = generate(&synth_config(seed, db_residues));
    shuffle_records(&mut records, seed);
    let db = format_records(&records, &FormatDbConfig::protein("nr-sim"));
    let queries = sample_queries(&records, query_bytes, seed ^ 0x5eed);
    let (params, report) = scaled_params();
    Workload {
        db,
        queries,
        params,
        report,
        compute: compute_model(),
    }
}

/// An nt-like workload: same generator, but formatted with a volume cap
/// so the database splits into multiple volumes (the paper's 11 GB nt
/// formats as multiple formatdb volumes).
pub fn nt_like(db_residues: u64, query_bytes: u64, seed: u64) -> Workload {
    let mut records = generate(&synth_config(seed, db_residues));
    shuffle_records(&mut records, seed);
    let cfg = FormatDbConfig {
        title: "nt-sim".into(),
        molecule: blast_core::Molecule::Protein,
        volume_residue_cap: Some(db_residues / 3),
    };
    let db = format_records(&records, &cfg);
    let queries = sample_queries(&records, query_bytes, seed ^ 0x5eed);
    let (params, report) = scaled_params();
    Workload {
        db,
        queries,
        params,
        report,
        compute: compute_model(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_and_is_deterministic() {
        let a = nr_like(60_000, 1024, 7);
        let b = nr_like(60_000, 1024, 7);
        assert_eq!(a.db.stats(), b.db.stats());
        assert_eq!(a.queries, b.queries);
        assert!(!a.queries.is_empty());
        assert!(a.db.stats().total_residues >= 60_000);
    }

    #[test]
    fn nt_like_is_multivolume() {
        let w = nt_like(60_000, 1024, 3);
        assert!(w.db.volumes.len() >= 2);
    }
}
