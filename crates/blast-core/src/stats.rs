//! E-values, bit scores, effective search spaces and cutoffs.
//!
//! A parallel BLAST that partitions the database must compute E-values
//! against the *whole* database's search space, not the fragment's —
//! otherwise results differ from a serial run and cannot be merged. This
//! module makes that explicit: [`SearchSpace`] is always built from global
//! database statistics ([`DbStats`]), no matter which fragment is being
//! scanned.

use crate::karlin::KarlinParams;

/// Global statistics of a database, carried in the formatted-DB index and
/// broadcast to all workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DbStats {
    /// Number of sequences in the whole database.
    pub num_sequences: u64,
    /// Total residues in the whole database.
    pub total_residues: u64,
}

impl DbStats {
    /// Combine statistics of two disjoint sequence sets.
    pub fn merge(self, other: DbStats) -> DbStats {
        DbStats {
            num_sequences: self.num_sequences + other.num_sequences,
            total_residues: self.total_residues + other.total_residues,
        }
    }
}

/// NCBI-style iterative length adjustment.
///
/// Solves `l = ln(K·(m − l)·(n − N·l)) / H` by fixed-point iteration,
/// clamped so effective lengths stay positive. `m` is the query length,
/// `n` the database residue count, `N` the database sequence count.
pub fn length_adjustment(params: KarlinParams, m: u64, n: u64, num_seqs: u64) -> u64 {
    if m == 0 || n == 0 {
        return 0;
    }
    let k = params.k.max(1e-300);
    let h = params.h.max(1e-12);
    let m = m as f64;
    let n = n as f64;
    let num_seqs = (num_seqs as f64).max(1.0);
    let mut ell = 0.0f64;
    for _ in 0..60 {
        let m_eff = (m - ell).max(1.0);
        let n_eff = (n - num_seqs * ell).max(1.0);
        let next = (k * m_eff * n_eff).ln().max(0.0) / h;
        // Keep the adjustment feasible: effective lengths must stay >= 1.
        let bound = (m - 1.0).min((n - 1.0) / num_seqs).max(0.0);
        let next = next.min(bound);
        if (next - ell).abs() < 0.5 {
            ell = next;
            break;
        }
        // Damped update: the raw map oscillates when the adjustment is a
        // large fraction of the query length; averaging converges to the
        // same fixed point.
        ell = 0.5 * (ell + next);
    }
    ell.floor().max(0.0) as u64
}

/// The effective search space for one query against one database.
#[derive(Debug, Clone, Copy)]
pub struct SearchSpace {
    /// Statistical parameters in force (gapped or ungapped).
    pub params: KarlinParams,
    /// Effective query length (raw length minus length adjustment).
    pub eff_query_len: u64,
    /// Effective database length.
    pub eff_db_len: u64,
}

impl SearchSpace {
    /// Build the search space for a query of `query_len` residues against a
    /// database described by `db`, using `params`.
    pub fn new(params: KarlinParams, query_len: u64, db: DbStats) -> SearchSpace {
        let ell = length_adjustment(params, query_len, db.total_residues, db.num_sequences);
        let eff_query_len = query_len.saturating_sub(ell).max(1);
        let eff_db_len = db
            .total_residues
            .saturating_sub(ell.saturating_mul(db.num_sequences))
            .max(1);
        SearchSpace {
            params,
            eff_query_len,
            eff_db_len,
        }
    }

    /// The effective search space size `m'·n'`.
    #[inline]
    pub fn space(&self) -> f64 {
        self.eff_query_len as f64 * self.eff_db_len as f64
    }

    /// E-value of a raw alignment score.
    #[inline]
    pub fn evalue(&self, raw_score: i32) -> f64 {
        self.space() * self.params.k * (-self.params.lambda * raw_score as f64).exp()
    }

    /// Bit score of a raw alignment score.
    #[inline]
    pub fn bit_score(&self, raw_score: i32) -> f64 {
        self.params.bit_score(raw_score)
    }

    /// Smallest raw score whose E-value is at most `evalue`.
    pub fn cutoff_score(&self, evalue: f64) -> i32 {
        let e = evalue.max(1e-300);
        let s = ((self.space() * self.params.k / e).ln() / self.params.lambda).ceil();
        s.max(1.0) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::karlin::{solve_ungapped, Background};
    use crate::matrix::ScoreMatrix;

    fn space() -> SearchSpace {
        let params = solve_ungapped(&ScoreMatrix::blosum62(), &Background::protein()).unwrap();
        SearchSpace::new(
            params,
            250,
            DbStats {
                num_sequences: 2_000_000,
                total_residues: 1_000_000_000,
            },
        )
    }

    #[test]
    fn evalue_decreases_with_score() {
        let sp = space();
        assert!(sp.evalue(50) > sp.evalue(60));
        assert!(sp.evalue(60) > sp.evalue(100));
    }

    #[test]
    fn cutoff_matches_evalue() {
        let sp = space();
        for target in [10.0, 1.0, 1e-3, 1e-10] {
            let cut = sp.cutoff_score(target);
            assert!(sp.evalue(cut) <= target, "target {target}");
            assert!(sp.evalue(cut - 1) > target, "target {target}");
        }
    }

    #[test]
    fn length_adjustment_shrinks_lengths() {
        let sp = space();
        assert!(sp.eff_query_len < 250);
        assert!(sp.eff_db_len < 1_000_000_000);
        assert!(sp.eff_query_len >= 1);
    }

    #[test]
    fn length_adjustment_handles_tiny_inputs() {
        let params = solve_ungapped(&ScoreMatrix::blosum62(), &Background::protein()).unwrap();
        assert_eq!(length_adjustment(params, 0, 1000, 10), 0);
        // Query of 3 residues: adjustment must not exceed query length.
        let ell = length_adjustment(params, 3, 1_000_000, 1000);
        assert!(ell <= 2, "ell = {ell}");
    }

    #[test]
    fn evalue_is_global_regardless_of_fragment() {
        // The same hit scored in a fragment-local space would look far more
        // significant; the API only exposes global spaces, so two workers
        // computing the same hit's E-value agree by construction.
        let params = solve_ungapped(&ScoreMatrix::blosum62(), &Background::protein()).unwrap();
        let global = DbStats {
            num_sequences: 1_000_000,
            total_residues: 500_000_000,
        };
        let a = SearchSpace::new(params, 300, global);
        let b = SearchSpace::new(params, 300, global);
        assert_eq!(a.evalue(80).to_bits(), b.evalue(80).to_bits());
    }

    #[test]
    fn db_stats_merge_adds() {
        let a = DbStats {
            num_sequences: 3,
            total_residues: 100,
        };
        let b = DbStats {
            num_sequences: 5,
            total_residues: 200,
        };
        let m = a.merge(b);
        assert_eq!(m.num_sequences, 8);
        assert_eq!(m.total_residues, 300);
    }

    #[test]
    fn bit_scores_are_monotonic() {
        let sp = space();
        assert!(sp.bit_score(100) > sp.bit_score(50));
    }
}
