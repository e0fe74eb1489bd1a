//! Criterion micro-benchmarks of the core kernels: the real (host-time)
//! performance of the pieces the simulated experiments compose.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use blast_core::alphabet::Molecule;
use blast_core::extend::{banded_global, gapped_xdrop, ungapped_xdrop, ExtendScratch};
use blast_core::karlin::{solve_ungapped, Background, GapPenalties};
use blast_core::lookup::{LookupTable, QuerySet};
use blast_core::matrix::ScoreMatrix;
use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch};
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::FragmentData;

fn test_db(residues: u64) -> Vec<SeqRecord> {
    generate(&SynthConfig::nr_like(7, residues))
}

fn sample_query(records: &[SeqRecord], i: usize) -> SeqRecord {
    let src = &records[i % records.len()];
    SeqRecord {
        defline: format!("query_{i}"),
        residues: src.residues.clone(),
        molecule: Molecule::Protein,
    }
}

fn bench_lookup_build(c: &mut Criterion) {
    let records = test_db(50_000);
    let queries: Vec<Vec<u8>> = (0..16)
        .map(|i| sample_query(&records, i * 3).residues)
        .collect();
    let total: usize = queries.iter().map(|q| q.len()).sum();
    let matrix = ScoreMatrix::blosum62();
    let mut g = c.benchmark_group("lookup");
    g.throughput(Throughput::Elements(total as u64));
    g.bench_function("build_neighborhood_table_16q", |b| {
        b.iter(|| {
            let set = QuerySet::new(&queries, 27);
            LookupTable::build(&set, &matrix, 3, 20, 11)
        })
    });
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let records = test_db(200_000);
    let db = format_records(&records, &FormatDbConfig::protein("micro"));
    let frag = FragmentData::from_volume(&db.volumes[0]);
    let params = SearchParams::blastp();
    let stats = DbStats {
        num_sequences: db.stats().num_sequences,
        total_residues: db.stats().total_residues,
    };
    let queries: Vec<SeqRecord> = (0..8).map(|i| sample_query(&records, i * 5)).collect();
    let prepared = PreparedQueries::prepare(&params, queries, stats);
    let searcher = BlastSearcher::new(&params, &prepared);
    let mut scratch = SearchScratch::new();
    let mut g = c.benchmark_group("search");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(db.stats().total_residues));
    g.bench_function("fragment_scan_200k_residues_8q", |b| {
        b.iter(|| searcher.search(&frag, &mut scratch))
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let matrix = ScoreMatrix::blosum62();
    let gaps = GapPenalties::BLOSUM62_DEFAULT;
    let records = test_db(20_000);
    let q = &records[0].residues;
    let mut s = q.clone();
    // A realistic homolog: scattered substitutions + one indel.
    for i in (0..s.len()).step_by(7) {
        s[i] = (s[i] + 1) % 20;
    }
    if s.len() > 60 {
        s.remove(s.len() / 2);
    }
    let mid = (q.len().min(s.len()) / 2) as u32;
    let mut g = c.benchmark_group("extend");
    g.bench_function("ungapped_xdrop", |b| {
        b.iter(|| ungapped_xdrop(&matrix, q, &s, mid, mid, 3, 16))
    });
    g.bench_function("gapped_xdrop", |b| {
        let mut ext = ExtendScratch::new();
        b.iter(|| gapped_xdrop(&matrix, gaps, q, &s, mid, mid, 38, &mut ext))
    });
    let n = q.len().min(s.len()).min(300);
    g.bench_function("banded_traceback_300", |b| {
        b.iter(|| banded_global(&matrix, gaps, &q[..n], &s[..n], 16))
    });
    g.finish();
}

fn bench_filter(c: &mut Criterion) {
    use blast_core::filter::{find_low_complexity, FilterParams};
    let records = test_db(100_000);
    let seq: Vec<u8> = records.iter().flat_map(|r| r.residues.clone()).collect();
    let mut g = c.benchmark_group("filter");
    g.throughput(Throughput::Bytes(seq.len() as u64));
    g.bench_function("seg_100k_residues", |b| {
        b.iter(|| find_low_complexity(&seq, 28, FilterParams::SEG))
    });
    g.finish();
}

fn bench_seeding_modes(c: &mut Criterion) {
    // Two-hit vs single-hit seeding on the same fragment: the two-hit
    // heuristic's whole point is fewer (ungapped) extensions.
    let records = test_db(100_000);
    let db = format_records(&records, &FormatDbConfig::protein("micro"));
    let frag = FragmentData::from_volume(&db.volumes[0]);
    let stats = db.stats();
    let queries: Vec<SeqRecord> = (0..4).map(|i| sample_query(&records, i * 5)).collect();
    let mut g = c.benchmark_group("seeding");
    g.sample_size(20);
    for (label, window) in [("two_hit", 40u32), ("single_hit", 0u32)] {
        let mut params = SearchParams::blastp();
        params.two_hit_window = window;
        let prepared = PreparedQueries::prepare(&params, queries.clone(), stats);
        g.bench_function(label, |b| {
            let searcher = BlastSearcher::new(&params, &prepared);
            let mut scratch = SearchScratch::new();
            b.iter(|| searcher.search(&frag, &mut scratch))
        });
    }
    g.finish();
}

fn bench_ps_model(c: &mut Criterion) {
    use parafs::{FsProfile, SimFs};
    use simcluster::Sim;
    // Host cost of simulating 16 contending transfers through the
    // processor-sharing bandwidth model.
    let mut g = c.benchmark_group("parafs");
    g.sample_size(20);
    g.bench_function("ps_model_16_contending_reads", |b| {
        b.iter(|| {
            let sim = Sim::new(16);
            let fs = SimFs::new(
                sim.handle(),
                "micro",
                FsProfile {
                    per_client_bw: 100e6,
                    aggregate_bw: 400e6,
                    op_latency: 1e-4,
                },
            );
            fs.preload("f", vec![0u8; 16 * 250_000]);
            let fs2 = fs.clone();
            sim.run(move |ctx| {
                fs2.read_at(&ctx, "f", ctx.rank() as u64 * 250_000, 250_000)
                    .unwrap();
            })
        })
    });
    g.finish();
}

fn bench_karlin(c: &mut Criterion) {
    let matrix = ScoreMatrix::blosum62();
    let bg = Background::protein();
    c.bench_function("karlin_solve_blosum62", |b| {
        b.iter(|| solve_ungapped(&matrix, &bg).unwrap())
    });
}

fn bench_formatdb(c: &mut Criterion) {
    let records = test_db(200_000);
    let total: u64 = records.iter().map(|r| r.len() as u64).sum();
    let mut g = c.benchmark_group("formatdb");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(total));
    g.bench_function("format_200k_residues", |b| {
        b.iter_batched(
            || records.clone(),
            |recs| format_records(&recs, &FormatDbConfig::protein("micro")),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_collective_io(c: &mut Criterion) {
    use bytes::Bytes;
    use mpiio::{CollectiveHints, FileView, MpiFile};
    use mpisim::{Comm, NetProfile};
    use parafs::{FsProfile, SimFs};
    use simcluster::Sim;

    let _ = Bytes::new();
    let mut g = c.benchmark_group("collective_io");
    g.sample_size(20);
    // Host cost of simulating an 8-rank two-phase collective write of
    // 64 interleaved records per rank.
    g.bench_function("two_phase_write_8ranks_512recs", |b| {
        b.iter(|| {
            let sim = Sim::new(8);
            let fs = SimFs::new(sim.handle(), "xfs", FsProfile::altix_xfs());
            let fs2 = fs.clone();
            sim.run(move |ctx| {
                let comm = Comm::new(
                    &ctx,
                    NetProfile {
                        latency: 5e-6,
                        bandwidth: 1e9,
                    },
                );
                let file = MpiFile::open(&comm, &fs2, "out")
                    .with_hints(CollectiveHints { aggregators: 4 });
                let me = ctx.rank() as u64;
                let regions: Vec<(u64, u64)> = (0..64).map(|i| ((i * 8 + me) * 128, 128)).collect();
                let view = FileView::new(0, regions).unwrap();
                let data = vec![me as u8; view.total_bytes() as usize];
                file.write_at_all(&view, &data).expect("collective write");
            })
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_lookup_build,
    bench_search,
    bench_extensions,
    bench_seeding_modes,
    bench_filter,
    bench_karlin,
    bench_formatdb,
    bench_ps_model,
    bench_collective_io
);
criterion_main!(benches);
