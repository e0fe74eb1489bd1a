//! Scale sweep: 128/256/512 simulated ranks on the pooled DES engine.
//!
//! The pooled-execution refactor exists so rank count stops being an OS
//! thread count: 512 simulated ranks run as fibers on a fixed worker
//! pool. This harness is the payoff measurement. It sweeps 128/256/512
//! ranks across four platform profiles — the two paper machines (Altix,
//! blade cluster) plus the two extrapolated profiles (`objectstore`,
//! `multisite`) — with the database synthesized per scale by the
//! multi-volume size sweep (`MultiVolumeConfig::size_sweep`), so bigger
//! clusters search proportionally bigger, more volume-skewed databases.
//!
//! Three contracts are asserted, not just reported:
//!
//! * **pool invisibility** — at every scale, an Altix re-run at pool
//!   width 1 must match the pool-4 run byte for byte: report, Chrome
//!   trace export, and virtual wall clock;
//! * **thread economy** — the 512-rank blade run samples
//!   `/proc/self/status` `Threads:` from inside rank bodies; the peak
//!   must be ≤ pool + 1 (workers + the parked main thread);
//! * **rank-count invariance** — that same 512-rank blade report must
//!   be byte-identical to a 16-rank run over the same fragments.
//!
//! The 128- vs 512-rank Altix traces are then fed through the
//! `trace-diff` profiler, which must name the diverging lane/phase.
//!
//! A second, nucleotide-shaped sweep (`MultiVolumeConfig::dna_sweep`,
//! blastn parameters, long records, few queries) runs at 128/256 ranks
//! to exercise the bytes-per-operation regime the protein sweep does
//! not, with its own pool-invisibility assertion.
//!
//! Results land in `BENCH_scale.json` at the workspace root.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use blast_bench::runner::PHASE_PRECEDENCE;
use blast_bench::workload::scaled_params;
use blast_core::seq::SeqRecord;
use mpiblast::{phases, Platform};
use pioblast::PioBlastConfig;
use seqfmt::sampler::sample_queries;
use seqfmt::synth::MultiVolumeConfig;
use seqfmt::FormattedDb;
use simcluster::Sim;
use tracelog::diff::{diff_profiles, profile_chrome, render_diff};

const SCALES: [usize; 3] = [128, 256, 512];
/// Fixed engine pool width for the sweep. Independent of the host's
/// core count so the artifact is reproducible anywhere.
const POOL: usize = 4;
const SEED: u64 = 2005;

/// Peak `Threads:` observed in `/proc/self/status`, sampled from inside
/// rank bodies while the pool is live.
static PEAK_THREADS: AtomicUsize = AtomicUsize::new(0);

fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn sample_peak_threads() {
    if let Some(n) = os_thread_count() {
        PEAK_THREADS.fetch_max(n, Ordering::Relaxed);
    }
}

/// The per-scale workload: a multi-volume database sized to the rank
/// count, and queries sampled from it.
struct ScaleWorkload {
    db: FormattedDb,
    queries: Vec<SeqRecord>,
    params: blast_core::search::SearchParams,
    nvolumes: usize,
    residues: u64,
}

fn scale_workload(nranks: usize) -> ScaleWorkload {
    // Database grows with the cluster: ~1200 residues per rank (a few
    // records per natural fragment even at 512 ranks), split into more
    // volumes (and therefore more length-distribution skew) at larger
    // scales.
    let residues = nranks as u64 * 1200;
    let nvolumes = nranks / 64 + 2;
    let mv = MultiVolumeConfig::size_sweep(SEED, nvolumes, residues);
    let per_volume = mv.generate_volumes();
    let flat: Vec<SeqRecord> = per_volume.iter().flatten().cloned().collect();
    let queries = sample_queries(&flat, 1024, SEED ^ 0x5eed);
    ScaleWorkload {
        db: seqfmt::formatdb::format_volumes(
            &per_volume,
            &seqfmt::formatdb::FormatDbConfig::protein("nr-scale"),
        ),
        queries,
        params: scaled_params().0,
        nvolumes,
        residues,
    }
}

/// The nt-shaped workload: a nucleotide multi-volume sweep
/// (`MultiVolumeConfig::dna_sweep`) with long records and *few*
/// queries — nucleotide databases put far more bytes behind each
/// header, so this profile stresses bytes-per-operation where the
/// protein sweep stresses operation count.
fn dna_workload(nranks: usize) -> ScaleWorkload {
    // ~4800 bases per rank: the same fragment count carries ~4x the
    // protein sweep's bytes.
    let bases = nranks as u64 * 4800;
    let nvolumes = nranks / 64 + 2;
    let mv = MultiVolumeConfig::dna_sweep(SEED ^ 0xd4a, nvolumes, bases);
    let per_volume = mv.generate_volumes();
    let flat: Vec<SeqRecord> = per_volume.iter().flatten().cloned().collect();
    // Few, long queries: ~2 KiB of sampled bases is one or two records.
    let queries = sample_queries(&flat, 2048, SEED ^ 0xd4a);
    assert!(
        queries.len() <= 6,
        "nt-shaped profile wants few queries, sampled {}",
        queries.len()
    );
    ScaleWorkload {
        db: mv.format("nt-scale"),
        queries,
        params: blast_core::search::SearchParams::blastn(),
        nvolumes,
        residues: bases,
    }
}

struct ScaleRun {
    elapsed_s: f64,
    wall_ns: u64,
    share_input: f64,
    share_search: f64,
    share_output: f64,
    report: Vec<u8>,
    chrome: String,
}

/// One pioBLAST run at `nranks` ranks on a `pool`-wide engine. When
/// `sample_threads` is set, every rank body samples the process's OS
/// thread count on entry (the pool is fully live by then).
fn run_scale(
    platform: &Platform,
    w: &ScaleWorkload,
    nranks: usize,
    nfrags: usize,
    pool: usize,
    sample_threads: bool,
) -> ScaleRun {
    let sim = Sim::with_pool(nranks, pool);
    let tracer = tracelog::Tracer::new(nranks);
    sim.set_tracer(tracer.clone());
    let cfg = PioBlastConfig {
        params: w.params.clone(),
        num_fragments: Some(nfrags),
        ..PioBlastConfig::staged(&sim, platform, &w.db, &w.queries)
    };
    let outcome = sim.run(|ctx| {
        if sample_threads {
            sample_peak_threads();
        }
        pioblast::run_rank(&ctx, &cfg)
    });
    for r in &outcome.outputs {
        r.as_ref().expect("rank completed");
    }
    let wall = outcome.elapsed.since(simcluster::SimTime::ZERO).0;
    let trace = tracer.finish(wall);
    let path = tracelog::analyze::critical_path(&trace, &PHASE_PRECEDENCE);
    let share = |name: &str| {
        if wall == 0 {
            0.0
        } else {
            path.get(name) as f64 / wall as f64
        }
    };
    ScaleRun {
        elapsed_s: outcome.elapsed.as_secs_f64(),
        wall_ns: wall,
        share_input: share(phases::COPY) + share(phases::INPUT),
        share_search: share(phases::SEARCH),
        share_output: share(phases::OUTPUT),
        report: cfg.env.shared.peek("results.txt").expect("report").to_vec(),
        chrome: tracelog::chrome::export_chrome(&trace, None),
    }
}

fn main() {
    let platforms = [
        Platform::altix(),
        Platform::blade_cluster(),
        Platform::objectstore(),
        Platform::multisite(),
    ];
    println!("== Scale sweep: 128/256/512 ranks, pool width {POOL}, four platforms ==");
    println!(
        "{:<35} {:>6} {:>7} {:>11} {:>8} {:>8} {:>8}",
        "platform", "ranks", "frags", "elapsed(s)", "input%", "search%", "output%"
    );
    let mut json = String::from("{\n  \"bench\": \"ablate_scale\",\n");
    let _ = writeln!(json, "  \"pool_threads\": {POOL},");
    json.push_str("  \"scales\": [\n");

    // Kept across the sweep for the cross-cutting assertions below.
    let mut altix_chrome: Vec<(usize, String)> = Vec::new();
    let mut blade_512: Option<ScaleRun> = None;
    let mut blade_512_frags = 0usize;

    for (si, &nranks) in SCALES.iter().enumerate() {
        let w = scale_workload(nranks);
        let nfrags = nranks - 1;
        if si > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"ranks\": {}, \"nfrags\": {}, \"db_residues\": {}, \"db_volumes\": {}, \
             \"runs\": [",
            nranks, nfrags, w.residues, w.nvolumes
        );
        for (pi, platform) in platforms.iter().enumerate() {
            let sample = nranks == 512 && platform.name == Platform::blade_cluster().name;
            let r = run_scale(platform, &w, nranks, nfrags, POOL, sample);
            println!(
                "{:<35} {:>6} {:>7} {:>11.3} {:>7.1}% {:>7.1}% {:>7.1}%",
                platform.name,
                nranks,
                nfrags,
                r.elapsed_s,
                r.share_input * 100.0,
                r.share_search * 100.0,
                r.share_output * 100.0
            );
            if pi > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n      {{\"platform\": \"{}\", \"elapsed_s\": {:.6}, \"share_input\": {:.6}, \
                 \"share_search\": {:.6}, \"share_output\": {:.6}, \"output_bytes\": {}}}",
                platform.name,
                r.elapsed_s,
                r.share_input,
                r.share_search,
                r.share_output,
                r.report.len()
            );
            if platform.name == Platform::altix().name {
                // Pool invisibility, asserted at every scale: a pool-1
                // re-run must reproduce every byte the pool-4 run made.
                let solo = run_scale(platform, &w, nranks, nfrags, 1, false);
                assert_eq!(
                    solo.report, r.report,
                    "{nranks} ranks: report bytes diverged between pool 1 and pool {POOL}"
                );
                assert_eq!(
                    solo.chrome, r.chrome,
                    "{nranks} ranks: trace export diverged between pool 1 and pool {POOL}"
                );
                assert_eq!(
                    solo.wall_ns, r.wall_ns,
                    "{nranks} ranks: wall clock diverged between pool 1 and pool {POOL}"
                );
                altix_chrome.push((nranks, r.chrome.clone()));
            }
            if sample {
                blade_512_frags = nfrags;
                blade_512 = Some(r);
            }
        }
        json.push_str("\n    ], \"pool_identity\": \"ok\"}");
    }
    json.push_str("\n  ],\n");

    // ---- nt-shaped sweep: long sequences, few queries ----
    println!("\n== DNA sweep: nucleotide-shaped volumes (long records, few queries) ==");
    println!(
        "{:<35} {:>6} {:>7} {:>11} {:>8} {:>8} {:>8}",
        "platform", "ranks", "frags", "elapsed(s)", "input%", "search%", "output%"
    );
    json.push_str("  \"dna_sweep\": [\n");
    let dna_platforms = [Platform::altix(), Platform::blade_cluster()];
    for (si, &nranks) in [128usize, 256].iter().enumerate() {
        let w = dna_workload(nranks);
        let nfrags = nranks - 1;
        if si > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"ranks\": {}, \"nfrags\": {}, \"db_bases\": {}, \"db_volumes\": {}, \
             \"queries\": {}, \"runs\": [",
            nranks,
            nfrags,
            w.residues,
            w.nvolumes,
            w.queries.len()
        );
        for (pi, platform) in dna_platforms.iter().enumerate() {
            let r = run_scale(platform, &w, nranks, nfrags, POOL, false);
            println!(
                "{:<35} {:>6} {:>7} {:>11.3} {:>7.1}% {:>7.1}% {:>7.1}%",
                platform.name,
                nranks,
                nfrags,
                r.elapsed_s,
                r.share_input * 100.0,
                r.share_search * 100.0,
                r.share_output * 100.0
            );
            if pi > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n      {{\"platform\": \"{}\", \"elapsed_s\": {:.6}, \"share_input\": {:.6}, \
                 \"share_search\": {:.6}, \"share_output\": {:.6}, \"output_bytes\": {}}}",
                platform.name,
                r.elapsed_s,
                r.share_input,
                r.share_search,
                r.share_output,
                r.report.len()
            );
            if platform.name == Platform::altix().name {
                // Pool invisibility holds for the nucleotide path too.
                let solo = run_scale(platform, &w, nranks, nfrags, 1, false);
                assert_eq!(
                    solo.report, r.report,
                    "dna {nranks} ranks: report bytes diverged between pool 1 and pool {POOL}"
                );
            }
        }
        json.push_str("\n    ], \"pool_identity\": \"ok\"}");
    }
    json.push_str("\n  ],\n");

    // ---- 512-rank blade: thread economy + rank-count invariance ----
    let b512 = blade_512.expect("blade 512 run recorded");
    let peak = PEAK_THREADS.load(Ordering::Relaxed);
    if peak > 0 {
        assert!(
            peak <= POOL + 1,
            "512-rank blade run peaked at {peak} OS threads (pool {POOL} + main allows {})",
            POOL + 1
        );
    }
    let w512 = scale_workload(512);
    let ref16 = run_scale(
        &Platform::blade_cluster(),
        &w512,
        16,
        blade_512_frags,
        POOL,
        false,
    );
    assert_eq!(
        b512.report, ref16.report,
        "512-rank blade report diverged from the 16-rank run on the same fragments"
    );
    println!(
        "512-rank blade: peak OS threads {peak} (≤ {}), report identical to 16 ranks \
         on {blade_512_frags} fragments",
        POOL + 1
    );
    let _ = writeln!(
        json,
        "  \"blade_512\": {{\"peak_os_threads\": {}, \"pool_plus_one\": {}, \
         \"report_matches_16_ranks\": true}},",
        peak,
        POOL + 1
    );

    // ---- trace-diff across scales: where does the extra time go? ----
    let a = profile_chrome(&altix_chrome[0].1).expect("128-rank profile");
    let b = profile_chrome(&altix_chrome[2].1).expect("512-rank profile");
    let d = diff_profiles(&a, &b);
    assert!(
        !d.cluster.is_empty(),
        "128 vs 512 ranks must diverge in at least one lane/phase"
    );
    let top = &d.cluster[0];
    println!("\ntrace-diff, Altix 128 vs 512 ranks (top rows):");
    for line in render_diff(&d, 5).lines() {
        println!("  {line}");
    }
    let _ = writeln!(
        json,
        "  \"trace_diff_128_vs_512\": {{\"top_lane\": \"{}\", \"top_phase\": \"{}\", \
         \"a_ns\": {}, \"b_ns\": {}}}\n}}",
        top.lane, top.name, top.a_ns, top.b_ns
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("\nwrote {path}");
}
