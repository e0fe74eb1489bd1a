//! Sequence records: identifiers, deflines, and encoded residue data.

use crate::alphabet::{decode, encode, EncodeError, Molecule};

/// A sequence record with its defline and encoded residues.
///
/// Residues are stored encoded (see [`crate::alphabet`]); use
/// [`SeqRecord::residues_ascii`] to recover letters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqRecord {
    /// The full defline, without the leading `>` and without a trailing
    /// newline, e.g. `gi|129295|sp|P01013| ovalbumin [Gallus gallus]`.
    pub defline: String,
    /// Encoded residues.
    pub residues: Vec<u8>,
    /// Molecule type the residues are encoded for.
    pub molecule: Molecule,
}

impl SeqRecord {
    /// Build a record from raw ASCII residues, encoding them for `molecule`.
    pub fn from_ascii(
        molecule: Molecule,
        defline: impl Into<String>,
        raw: &[u8],
    ) -> Result<SeqRecord, EncodeError> {
        Ok(SeqRecord {
            defline: defline.into(),
            residues: encode(molecule, raw)?,
            molecule,
        })
    }

    /// Sequence length in residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the sequence holds no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Residues decoded back to ASCII letters.
    pub fn residues_ascii(&self) -> Vec<u8> {
        decode(self.molecule, &self.residues)
    }

    /// The sequence identifier: the first whitespace-delimited token of the
    /// defline (`gi|129295|sp|P01013|` in the example above).
    pub fn id(&self) -> &str {
        self.defline
            .split_ascii_whitespace()
            .next()
            .unwrap_or(&self.defline)
    }

    /// The title: everything after the identifier token.
    pub fn title(&self) -> &str {
        match self.defline.split_once(char::is_whitespace) {
            Some((_, rest)) => rest.trim_start(),
            None => "",
        }
    }
}

/// A borrowed view of one subject sequence inside a database partition.
///
/// `oid` is the ordinal id of the sequence within the *global* database, so
/// results from different partitions can be merged unambiguously.
#[derive(Debug, Clone, Copy)]
pub struct SubjectView<'a> {
    /// Global ordinal id of this sequence in the database.
    pub oid: u32,
    /// Encoded residues.
    pub residues: &'a [u8],
    /// Raw defline bytes (no leading `>`).
    pub defline: &'a [u8],
}

impl SubjectView<'_> {
    /// Sequence length in residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the subject holds no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Identifier token of the defline, lossily decoded.
    pub fn id(&self) -> String {
        let defline = String::from_utf8_lossy(self.defline);
        defline
            .split_ascii_whitespace()
            .next()
            .unwrap_or("")
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_from_ascii_round_trips() {
        let rec =
            SeqRecord::from_ascii(Molecule::Protein, "sp|P01013| ovalbumin", b"MKVLAA").unwrap();
        assert_eq!(rec.len(), 6);
        assert_eq!(rec.residues_ascii(), b"MKVLAA");
    }

    #[test]
    fn id_and_title_split() {
        let rec = SeqRecord::from_ascii(
            Molecule::Protein,
            "gi|123|ref|NP_1.1| hypothetical protein [Synthetica]",
            b"ACDEF",
        )
        .unwrap();
        assert_eq!(rec.id(), "gi|123|ref|NP_1.1|");
        assert_eq!(rec.title(), "hypothetical protein [Synthetica]");
    }

    #[test]
    fn id_of_title_less_defline() {
        let rec = SeqRecord::from_ascii(Molecule::Protein, "seq1", b"ACDEF").unwrap();
        assert_eq!(rec.id(), "seq1");
        assert_eq!(rec.title(), "");
    }

    #[test]
    fn empty_sequence_is_representable() {
        let rec = SeqRecord::from_ascii(Molecule::Protein, "empty", b"").unwrap();
        assert!(rec.is_empty());
    }

    #[test]
    fn subject_view_id() {
        let view = SubjectView {
            oid: 7,
            residues: &[0, 1, 2],
            defline: b"gi|9| protein",
        };
        assert_eq!(view.id(), "gi|9|");
        assert_eq!(view.len(), 3);
    }
}
