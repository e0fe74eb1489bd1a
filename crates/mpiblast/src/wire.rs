//! Wire formats for the application protocols.
//!
//! Both programs move real serialized bytes through the simulated
//! interconnect, so message volumes (which the paper's optimizations are
//! all about) are honest. Formats are little-endian via `seqfmt::codec`.

use blast_core::alphabet::Molecule;
use blast_core::hsp::Hsp;
use blast_core::search::SubjectHit;
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;
use seqfmt::codec::{CodecError, Reader, Writer};
use seqfmt::frag::FragmentSpec;

/// The master's broadcast at run start: database identity plus queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBundle {
    /// Database display title.
    pub db_title: String,
    /// Whole-database statistics (E-values are computed against these).
    pub db_stats: DbStats,
    /// Molecule type.
    pub molecule: Molecule,
    /// The query records.
    pub queries: Vec<SeqRecord>,
}

impl QueryBundle {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.string(&self.db_title);
        w.u64(self.db_stats.num_sequences);
        w.u64(self.db_stats.total_residues);
        w.u8(self.molecule.tag());
        w.u32(self.queries.len() as u32);
        for q in &self.queries {
            w.string(&q.defline);
            w.u32(q.residues.len() as u32);
            w.bytes(&q.residues);
        }
        w.finish()
    }

    /// Deserialize.
    pub fn decode(buf: &[u8]) -> Result<QueryBundle, CodecError> {
        let mut r = Reader::new(buf);
        let db_title = r.string("db title")?;
        let db_stats = DbStats {
            num_sequences: r.u64("nseq")?,
            total_residues: r.u64("residues")?,
        };
        let molecule = Molecule::from_tag(r.u8("molecule")?)
            .ok_or(CodecError::BadValue { what: "molecule" })?;
        let n = r.u32("query count")? as usize;
        let mut queries = Vec::with_capacity(n);
        for _ in 0..n {
            let defline = r.string("query defline")?;
            let len = r.u32("query len")? as usize;
            let residues = r.bytes(len, "query residues")?.to_vec();
            queries.push(SeqRecord {
                defline,
                residues,
                molecule,
            });
        }
        Ok(QueryBundle {
            db_title,
            db_stats,
            molecule,
            queries,
        })
    }
}

fn put_hsp(w: &mut Writer, h: &Hsp) {
    w.u32(h.query_idx);
    w.u32(h.oid);
    w.u32(h.q_start);
    w.u32(h.q_end);
    w.u32(h.s_start);
    w.u32(h.s_end);
    w.u32(h.score as u32);
    w.u64(h.bit_score.to_bits());
    w.u64(h.evalue.to_bits());
}

fn get_hsp(r: &mut Reader) -> Result<Hsp, CodecError> {
    Ok(Hsp {
        query_idx: r.u32("hsp query")?,
        oid: r.u32("hsp oid")?,
        q_start: r.u32("hsp qs")?,
        q_end: r.u32("hsp qe")?,
        s_start: r.u32("hsp ss")?,
        s_end: r.u32("hsp se")?,
        score: r.u32("hsp score")? as i32,
        bit_score: f64::from_bits(r.u64("hsp bits")?),
        evalue: f64::from_bits(r.u64("hsp evalue")?),
    })
}

/// A worker's per-fragment result submission (mpiBLAST protocol): for
/// every query, the subjects found in that fragment with all their HSPs
/// — but no sequence data (that is fetched later, serially).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSubmission {
    /// Fragment id this submission covers.
    pub fragment: u32,
    /// `(query_idx, hits)` pairs for queries with at least one hit.
    pub per_query: Vec<(u32, Vec<SubjectHit>)>,
}

impl ResultSubmission {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.fragment);
        w.u32(self.per_query.len() as u32);
        for (q, hits) in &self.per_query {
            w.u32(*q);
            w.u32(hits.len() as u32);
            for hit in hits {
                w.u32(hit.oid);
                w.u32(hit.subject_len);
                w.u32(hit.hsps.len() as u32);
                for h in &hit.hsps {
                    put_hsp(&mut w, h);
                }
            }
        }
        w.finish()
    }

    /// Deserialize.
    pub fn decode(buf: &[u8]) -> Result<ResultSubmission, CodecError> {
        let mut r = Reader::new(buf);
        let fragment = r.u32("fragment")?;
        let nq = r.u32("query count")? as usize;
        let mut per_query = Vec::with_capacity(nq);
        for _ in 0..nq {
            let q = r.u32("query idx")?;
            let nh = r.u32("hit count")? as usize;
            let mut hits = Vec::with_capacity(nh);
            for _ in 0..nh {
                let oid = r.u32("oid")?;
                let subject_len = r.u32("subject len")?;
                let n = r.u32("hsp count")? as usize;
                let mut hsps = Vec::with_capacity(n);
                for _ in 0..n {
                    hsps.push(get_hsp(&mut r)?);
                }
                hits.push(SubjectHit {
                    oid,
                    subject_len,
                    hsps,
                });
            }
            per_query.push((q, hits));
        }
        Ok(ResultSubmission {
            fragment,
            per_query,
        })
    }
}

/// A master -> worker sequence-data fetch request (mpiBLAST's serialized
/// result-fetching protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRequest {
    /// Query the alignment belongs to.
    pub query_idx: u32,
    /// Subject to fetch.
    pub oid: u32,
}

impl FetchRequest {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.query_idx);
        w.u32(self.oid);
        w.finish()
    }

    /// Deserialize.
    pub fn decode(buf: &[u8]) -> Result<FetchRequest, CodecError> {
        let mut r = Reader::new(buf);
        Ok(FetchRequest {
            query_idx: r.u32("fetch query")?,
            oid: r.u32("fetch oid")?,
        })
    }
}

/// The worker's response: the subject's defline and residues (the "return
/// trip" of sequence data that pioBLAST eliminates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResponse {
    /// Subject defline bytes.
    pub defline: Vec<u8>,
    /// Subject residues (encoded).
    pub residues: Vec<u8>,
}

impl FetchResponse {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.defline.len() as u32);
        w.bytes(&self.defline);
        w.u32(self.residues.len() as u32);
        w.bytes(&self.residues);
        w.finish()
    }

    /// Deserialize.
    pub fn decode(buf: &[u8]) -> Result<FetchResponse, CodecError> {
        let mut r = Reader::new(buf);
        let dl = r.u32("defline len")? as usize;
        let defline = r.bytes(dl, "defline")?.to_vec();
        let rl = r.u32("residues len")? as usize;
        let residues = r.bytes(rl, "residues")?.to_vec();
        Ok(FetchResponse { defline, residues })
    }
}

/// pioBLAST's metadata-only submission entry: everything the master needs
/// to merge, select, order, summarize and place one alignment record —
/// without the record bytes or any sequence data.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaHit {
    /// Subject ordinal id.
    pub oid: u32,
    /// Subject length (for deterministic ordering parity only).
    pub subject_len: u32,
    /// Size in bytes of the worker's cached formatted record.
    pub record_size: u64,
    /// Subject defline (for the one-line summary section).
    pub defline: String,
    /// The best HSP (carries the ordering key, bit score and E-value).
    pub best: Hsp,
}

/// One query's metadata list in a pioBLAST submission.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetaSubmission {
    /// `(query_idx, hits)` for queries with hits.
    pub per_query: Vec<(u32, Vec<MetaHit>)>,
}

impl MetaSubmission {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.per_query.len() as u32);
        for (q, hits) in &self.per_query {
            w.u32(*q);
            w.u32(hits.len() as u32);
            for h in hits {
                w.u32(h.oid);
                w.u32(h.subject_len);
                w.u64(h.record_size);
                w.string(&h.defline);
                put_hsp(&mut w, &h.best);
            }
        }
        w.finish()
    }

    /// Deserialize.
    pub fn decode(buf: &[u8]) -> Result<MetaSubmission, CodecError> {
        let mut r = Reader::new(buf);
        let nq = r.u32("query count")? as usize;
        let mut per_query = Vec::with_capacity(nq);
        for _ in 0..nq {
            let q = r.u32("query idx")?;
            let nh = r.u32("hit count")? as usize;
            let mut hits = Vec::with_capacity(nh);
            for _ in 0..nh {
                hits.push(MetaHit {
                    oid: r.u32("oid")?,
                    subject_len: r.u32("subject len")?,
                    record_size: r.u64("record size")?,
                    defline: r.string("defline")?,
                    best: get_hsp(&mut r)?,
                });
            }
            per_query.push((q, hits));
        }
        Ok(MetaSubmission { per_query })
    }
}

/// The master's reply to a pioBLAST worker: file offsets for the selected
/// subset of the worker's cached records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OffsetAssignment {
    /// `(query_idx, oid, absolute file offset)` triples, in file order.
    pub records: Vec<(u32, u32, u64)>,
}

impl OffsetAssignment {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.records.len() as u32);
        for &(q, oid, off) in &self.records {
            w.u32(q);
            w.u32(oid);
            w.u64(off);
        }
        w.finish()
    }

    /// Deserialize.
    pub fn decode(buf: &[u8]) -> Result<OffsetAssignment, CodecError> {
        let mut r = Reader::new(buf);
        let n = r.u32("record count")? as usize;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push((r.u32("q")?, r.u32("oid")?, r.u64("offset")?));
        }
        Ok(OffsetAssignment { records })
    }
}

/// Magic + version header guarding [`FragmentCheckpoint`] blobs: a blob
/// whose header does not match (e.g. a partial write cut off by the
/// writer's death) is treated as absent, never as corrupt data.
const CHECKPOINT_MAGIC: u32 = 0x70_63_6b_31; // "pck1"

/// A durable record of one completed `(query batch, fragment)` search:
/// the metadata the worker would submit plus the formatted record bytes,
/// persisted to the shared file system so a recovery epoch can adopt the
/// victim's finished work instead of re-searching it.
///
/// Content is deterministic in `(batch, fragment)` — any worker searching
/// the same fragment against the same batch produces the same blob — so
/// re-writes during retried epochs are idempotent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FragmentCheckpoint {
    /// Query-batch index this search covered.
    pub batch: u32,
    /// Global fragment id.
    pub fragment: u32,
    /// The fragment's metadata contribution, shaped like a submission.
    pub meta: MetaSubmission,
    /// `(query_idx, oid, formatted record)` for every metadata entry.
    pub records: Vec<(u32, u32, String)>,
}

impl FragmentCheckpoint {
    /// Serialize (with the guard header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(CHECKPOINT_MAGIC);
        w.u32(self.batch);
        w.u32(self.fragment);
        let meta = self.meta.encode();
        w.u32(meta.len() as u32);
        w.bytes(&meta);
        w.u32(self.records.len() as u32);
        for (q, oid, rec) in &self.records {
            w.u32(*q);
            w.u32(*oid);
            w.string(rec);
        }
        w.finish()
    }

    /// Deserialize. Any mismatch — bad magic, truncation, trailing
    /// garbage — is an error; callers treat that as "not checkpointed".
    pub fn decode(buf: &[u8]) -> Result<FragmentCheckpoint, CodecError> {
        let mut r = Reader::new(buf);
        if r.u32("ckpt magic")? != CHECKPOINT_MAGIC {
            return Err(CodecError::BadValue { what: "ckpt magic" });
        }
        let batch = r.u32("ckpt batch")?;
        let fragment = r.u32("ckpt fragment")?;
        let mlen = r.u32("ckpt meta len")? as usize;
        let meta = MetaSubmission::decode(r.bytes(mlen, "ckpt meta")?)?;
        let n = r.u32("ckpt record count")? as usize;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push((
                r.u32("ckpt q")?,
                r.u32("ckpt oid")?,
                r.string("ckpt record")?,
            ));
        }
        Ok(FragmentCheckpoint {
            batch,
            fragment,
            meta,
            records,
        })
    }
}

/// Serialize a fragment spec for the master's partition scatter.
pub fn encode_fragment_spec(s: &FragmentSpec) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(s.volume as u32);
    w.u64(s.first_seq);
    w.u64(s.last_seq);
    w.u64(s.base_oid);
    for (a, b) in [s.seq_range, s.hdr_range, s.idx_seq_range, s.idx_hdr_range] {
        w.u64(a);
        w.u64(b);
    }
    w.u64(s.residues);
    w.finish()
}

/// Inverse of [`encode_fragment_spec`]. A spec whose sequence range or
/// any byte range runs backwards is rejected: every reader of a spec
/// takes `hi - lo` as a length.
pub fn decode_fragment_spec(buf: &[u8]) -> Result<FragmentSpec, CodecError> {
    let mut r = Reader::new(buf);
    let s = FragmentSpec {
        volume: r.u32("volume")? as usize,
        first_seq: r.u64("first")?,
        last_seq: r.u64("last")?,
        base_oid: r.u64("base oid")?,
        seq_range: (r.u64("seq lo")?, r.u64("seq hi")?),
        hdr_range: (r.u64("hdr lo")?, r.u64("hdr hi")?),
        idx_seq_range: (r.u64("iseq lo")?, r.u64("iseq hi")?),
        idx_hdr_range: (r.u64("ihdr lo")?, r.u64("ihdr hi")?),
        residues: r.u64("residues")?,
    };
    let ranges = [
        ("last", (s.first_seq, s.last_seq)),
        ("seq hi", s.seq_range),
        ("hdr hi", s.hdr_range),
        ("iseq hi", s.idx_seq_range),
        ("ihdr hi", s.idx_hdr_range),
    ];
    match ranges.into_iter().find(|(_, (lo, hi))| hi < lo) {
        Some((what, _)) => Err(CodecError::BadValue { what }),
        None => Ok(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hsp() -> Hsp {
        Hsp {
            query_idx: 3,
            oid: 99,
            q_start: 1,
            q_end: 50,
            s_start: 2,
            s_end: 51,
            score: 144,
            bit_score: 60.25,
            evalue: 3.5e-12,
        }
    }

    #[test]
    fn query_bundle_round_trips() {
        let b = QueryBundle {
            db_title: "nr-sim".into(),
            db_stats: DbStats {
                num_sequences: 7,
                total_residues: 700,
            },
            molecule: Molecule::Protein,
            queries: vec![SeqRecord {
                defline: "q1 test".into(),
                residues: vec![1, 2, 3, 19],
                molecule: Molecule::Protein,
            }],
        };
        assert_eq!(QueryBundle::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn result_submission_round_trips() {
        let s = ResultSubmission {
            fragment: 5,
            per_query: vec![(
                0,
                vec![SubjectHit {
                    oid: 99,
                    subject_len: 321,
                    hsps: vec![hsp(), hsp()],
                }],
            )],
        };
        assert_eq!(ResultSubmission::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn fetch_round_trips() {
        let req = FetchRequest {
            query_idx: 2,
            oid: 77,
        };
        assert_eq!(FetchRequest::decode(&req.encode()).unwrap(), req);
        let resp = FetchResponse {
            defline: b"gi|77| something".to_vec(),
            residues: vec![0, 5, 9, 19],
        };
        assert_eq!(FetchResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn meta_submission_round_trips() {
        let m = MetaSubmission {
            per_query: vec![(
                1,
                vec![MetaHit {
                    oid: 4,
                    subject_len: 100,
                    record_size: 2048,
                    defline: "gi|4| protein".into(),
                    best: hsp(),
                }],
            )],
        };
        assert_eq!(MetaSubmission::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn offset_assignment_round_trips() {
        let a = OffsetAssignment {
            records: vec![(0, 4, 12345), (1, 9, 99999)],
        };
        assert_eq!(OffsetAssignment::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn fragment_spec_round_trips() {
        let s = FragmentSpec {
            volume: 2,
            first_seq: 10,
            last_seq: 20,
            base_oid: 110,
            seq_range: (1000, 2000),
            hdr_range: (300, 400),
            idx_seq_range: (80, 168),
            idx_hdr_range: (200, 288),
            residues: 1000,
        };
        assert_eq!(decode_fragment_spec(&encode_fragment_spec(&s)).unwrap(), s);
    }

    #[test]
    fn fragment_spec_rejects_inverted_ranges() {
        let good = FragmentSpec {
            volume: 0,
            first_seq: 4,
            last_seq: 4,
            base_oid: 4,
            seq_range: (50, 50),
            hdr_range: (7, 7),
            idx_seq_range: (40, 48),
            idx_hdr_range: (60, 68),
            residues: 0,
        };
        // Empty ranges are fine; only backwards ones are garbage.
        assert_eq!(
            decode_fragment_spec(&encode_fragment_spec(&good)).unwrap(),
            good
        );
        let cases = [
            (
                "last",
                FragmentSpec {
                    last_seq: 3,
                    ..good
                },
            ),
            (
                "seq hi",
                FragmentSpec {
                    seq_range: (51, 50),
                    ..good
                },
            ),
            (
                "hdr hi",
                FragmentSpec {
                    hdr_range: (u64::MAX, 0),
                    ..good
                },
            ),
            (
                "iseq hi",
                FragmentSpec {
                    idx_seq_range: (48, 40),
                    ..good
                },
            ),
            (
                "ihdr hi",
                FragmentSpec {
                    idx_hdr_range: (69, 68),
                    ..good
                },
            ),
        ];
        for (what, bad) in cases {
            assert_eq!(
                decode_fragment_spec(&encode_fragment_spec(&bad)),
                Err(CodecError::BadValue { what })
            );
        }
    }

    #[test]
    fn fragment_checkpoint_round_trips_and_rejects_partial_writes() {
        let c = FragmentCheckpoint {
            batch: 1,
            fragment: 7,
            meta: MetaSubmission {
                per_query: vec![(
                    0,
                    vec![MetaHit {
                        oid: 4,
                        subject_len: 100,
                        record_size: 13,
                        defline: "gi|4| protein".into(),
                        best: hsp(),
                    }],
                )],
            },
            records: vec![(0, 4, ">record text\n".into())],
        };
        let buf = c.encode();
        assert_eq!(FragmentCheckpoint::decode(&buf).unwrap(), c);
        // A write cut off mid-blob must read as "absent", not panic.
        assert!(FragmentCheckpoint::decode(&buf[..buf.len() / 2]).is_err());
        assert!(FragmentCheckpoint::decode(b"").is_err());
        assert!(FragmentCheckpoint::decode(&[0u8; 16]).is_err());
    }

    #[test]
    fn truncated_messages_fail_cleanly() {
        let b = QueryBundle {
            db_title: "x".into(),
            db_stats: DbStats {
                num_sequences: 1,
                total_residues: 1,
            },
            molecule: Molecule::Protein,
            queries: vec![],
        }
        .encode();
        assert!(QueryBundle::decode(&b[..b.len() - 2]).is_err());
    }
}
