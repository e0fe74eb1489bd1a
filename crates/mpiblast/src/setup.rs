//! Run staging: placing databases, fragments and queries on the simulated
//! shared file system before a timed run begins.
//!
//! Staging is untimed (it models state that exists before the job starts:
//! the formatted database is already on shared storage, exactly as in the
//! paper's experiments). For mpiBLAST the database must additionally be
//! *pre-partitioned* into physical fragments — the operational burden
//! pioBLAST removes.

use blast_core::fasta;
use blast_core::seq::SeqRecord;
use parafs::SimFs;
use seqfmt::{physical_fragments, FormattedDb};

/// Place a formatted database's global files under `db/` on the shared
/// file system (pioBLAST's input).
pub fn stage_shared_db(fs: &SimFs, db: &FormattedDb) -> String {
    for (name, bytes) in db.files() {
        fs.preload(&format!("db/{name}"), bytes);
    }
    format!("db/{}.al", db.alias.title)
}

/// Pre-partition the database into `n` physical fragments under `frags/`
/// (mpiBLAST's input; the step `mpiformatdb` performs). Returns fragment
/// base names. The achieved count can be lower than requested (the paper
/// hit this: 63 requested, 61 produced).
pub fn stage_fragments(fs: &SimFs, db: &FormattedDb, n: usize) -> Vec<String> {
    let mut names = Vec::new();
    for frag in physical_fragments(db, n) {
        for (name, bytes) in frag.files() {
            fs.preload(&format!("frags/{name}"), bytes.to_vec());
        }
        names.push(format!("frags/{}", frag.name));
    }
    names
}

/// Place a query set as FASTA at `queries.fa`.
pub fn stage_queries(fs: &SimFs, queries: &[SeqRecord]) -> String {
    let text = fasta::to_string(queries, 60);
    fs.preload("queries.fa", text.into_bytes());
    "queries.fa".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::alphabet::Molecule;
    use parafs::FsProfile;
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use simcluster::Sim;

    fn db() -> FormattedDb {
        let recs: Vec<SeqRecord> = (0..10)
            .map(|i| SeqRecord {
                defline: format!("gi|{i}|"),
                residues: vec![(i % 20) as u8; 50],
                molecule: Molecule::Protein,
            })
            .collect();
        format_records(&recs, &FormatDbConfig::protein("sdb"))
    }

    #[test]
    fn staging_places_all_files() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "s", FsProfile::altix_xfs());
        let db = db();
        let alias = stage_shared_db(&fs, &db);
        assert_eq!(alias, "db/sdb.al");
        assert_eq!(fs.peek_list("db/").len(), 4);
        let frags = stage_fragments(&fs, &db, 3);
        assert_eq!(frags.len(), 3);
        assert_eq!(fs.peek_list("frags/").len(), 9);
        let qp = stage_queries(
            &fs,
            &[SeqRecord {
                defline: "q".into(),
                residues: vec![0, 1, 2],
                molecule: Molecule::Protein,
            }],
        );
        assert!(fs.peek(&qp).unwrap().starts_with(b">q"));
    }
}
