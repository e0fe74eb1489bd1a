//! Ablation: what does intra-rank slot parallelism buy once the I/O
//! plane is out of the way?
//!
//! pioBLAST's `--threads N` shards each granted fragment's subject scan
//! across N virtual compute slots inside a rank; the DES charges the
//! maximum slot load plus per-shard fork/join, while the fragment's
//! fixed kernel setup stays serial (it does not replicate per shard).
//! This harness holds the workload fixed and sweeps 1/2/4/8 slots at 16
//! ranks on every platform profile, skipping counts the profile's
//! hardware cannot schedule (`--threads` > `cores_per_node` is a typed
//! config error, and silently clamping would misreport coverage).
//!
//! Assertions, per the hybrid-parallelism roadmap item:
//! * the merged report is byte-identical at every slot count — the
//!   deterministic shard merge is doing its job;
//! * the SEARCH-phase critical path strictly shrinks as slots double;
//! * headline: on the blade cluster, 4 slots shrink the SEARCH critical
//!   path >= 2.5x vs 1 slot;
//! * the slot-parallel Chrome export passes the trace-check validator
//!   (per-slot sub-lanes included) and every rank's flat phase timeline
//!   still tiles `[0, wall]` exactly.
//!
//! Results land in `BENCH_hybrid.json` at the workspace root.

use std::fmt::Write as _;

use blast_bench::runner::PHASE_PRECEDENCE;
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like, Workload};
use mpiblast::{phases, Platform};
use pioblast::PioBlastConfig;
use simcluster::Sim;

const RANKS: usize = 16;
const SLOTS: [usize; 4] = [1, 2, 4, 8];

struct Run {
    slots: usize,
    elapsed_s: f64,
    /// SEARCH-phase share of the trace-derived critical path, seconds.
    search_path_s: f64,
    /// Final merged report bytes, for byte-identity assertions.
    output: Vec<u8>,
    trace: tracelog::Trace,
}

fn run_one(platform: &Platform, workload: &Workload, slots: usize) -> Run {
    let sim = Sim::new(RANKS);
    let tracer = tracelog::Tracer::new(RANKS);
    sim.set_tracer(tracer.clone());
    let cfg = PioBlastConfig {
        compute: workload.compute,
        params: workload.params.clone(),
        report: workload.report,
        threads: slots,
        ..PioBlastConfig::staged(&sim, platform, &workload.db, &workload.queries)
    };
    let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    for r in &outcome.outputs {
        r.as_ref().expect("rank completed");
    }
    let wall = outcome.elapsed.since(simcluster::SimTime::ZERO).0;
    let trace = tracer.finish(wall);
    let path = tracelog::analyze::critical_path(&trace, &PHASE_PRECEDENCE);
    assert_eq!(
        path.total(),
        trace.wall,
        "critical path must partition the DES wall exactly"
    );
    // Slot-parallel compute must not corrupt the per-rank accounting:
    // every rank's flat phase timeline still tiles [0, wall] exactly.
    for rank in 0..RANKS {
        let mut cursor = 0;
        for seg in tracelog::analyze::rank_phase_timeline(&trace, rank) {
            assert_eq!(seg.start, cursor, "rank {rank}: gap in phase timeline");
            cursor = seg.end;
        }
        assert_eq!(cursor, trace.wall, "rank {rank}: span sums != DES wall");
    }
    let output = cfg
        .env
        .shared
        .peek(&cfg.output_path)
        .expect("merged output present");
    Run {
        slots,
        elapsed_s: outcome.elapsed.as_secs_f64(),
        search_path_s: path.get(phases::SEARCH) as f64 / 1e9,
        output,
        trace,
    }
}

fn main() {
    // Three times the default database: per-fragment residue cost must
    // dominate the fixed per-fragment kernel setup, or there is nothing
    // for slot parallelism to win.
    let workload = nr_like(3 * default_db_residues(), default_query_bytes(), 2005);
    println!("== Ablation: intra-rank compute slots, 16 ranks, all profiles ==");
    println!(
        "{:<35} {:>5} {:>10} {:>12} {:>10}",
        "platform", "slots", "elapsed(s)", "search(s)", "vs 1 slot"
    );
    let mut json =
        String::from("{\n  \"bench\": \"ablate_hybrid\",\n  \"ranks\": 16,\n  \"platforms\": [\n");
    let mut blade_shrink = 0.0f64;
    let mut blade_trace_checked = false;
    for (pi, platform) in [
        Platform::altix(),
        Platform::blade_cluster(),
        Platform::manycore(),
    ]
    .iter()
    .enumerate()
    {
        for &skipped in SLOTS.iter().filter(|&&s| s > platform.cores_per_node) {
            println!(
                "{:<35} {:>5} skipped: exceeds the profile's {} hardware threads",
                platform.name, skipped, platform.cores_per_node
            );
        }
        let mut runs: Vec<Run> = Vec::new();
        for &slots in SLOTS.iter().filter(|&&s| s <= platform.cores_per_node) {
            let r = run_one(platform, &workload, slots);
            println!(
                "{:<35} {:>5} {:>10.3} {:>12.3} {:>9.2}x",
                platform.name,
                r.slots,
                r.elapsed_s,
                r.search_path_s,
                runs.first()
                    .map_or(1.0, |b| b.search_path_s / r.search_path_s)
            );
            runs.push(r);
        }
        // Byte-identity: every slot count produces the serial report.
        for r in &runs[1..] {
            assert_eq!(
                r.output, runs[0].output,
                "{}: {} slots changed the merged report bytes",
                platform.name, r.slots
            );
        }
        // Doubling the slots must strictly shrink the SEARCH critical
        // path — the residue scan is the parallel part and dominates.
        for w in runs.windows(2) {
            assert!(
                w[1].search_path_s < w[0].search_path_s,
                "{}: SEARCH path must shrink going {} -> {} slots ({:.3}s -> {:.3}s)",
                platform.name,
                w[0].slots,
                w[1].slots,
                w[0].search_path_s,
                w[1].search_path_s
            );
        }
        if pi > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"platform\": \"{}\", \"cores_per_node\": {}, \"runs\": [",
            platform.name, platform.cores_per_node
        );
        for (i, r) in runs.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "{{\"slots\": {}, \"elapsed_s\": {:.6}, \"search_path_s\": {:.6}, \
                 \"output_bytes\": {}, \"bytes_identical\": true}}",
                r.slots,
                r.elapsed_s,
                r.search_path_s,
                r.output.len()
            );
        }
        json.push_str("]}");

        if platform.name.contains("Blade") {
            let one = runs.iter().find(|r| r.slots == 1).expect("1-slot run");
            let four = runs.iter().find(|r| r.slots == 4).expect("4-slot run");
            blade_shrink = one.search_path_s / four.search_path_s.max(1e-12);
            println!(
                "{:<35} headline: 4 slots shrink SEARCH {:.2}x vs 1 slot",
                platform.name, blade_shrink
            );
            assert!(
                blade_shrink >= 2.5,
                "{}: 4 slots must shrink the SEARCH critical path >= 2.5x \
                 vs 1 slot (got {blade_shrink:.2}x)",
                platform.name
            );
            // Validator coverage on the slot-parallel trace: the Chrome
            // export routes each slot's slices to its own sub-thread and
            // still balances begin/end with monotone time everywhere.
            let chrome = tracelog::chrome::export_chrome(&four.trace, None);
            let stats = tracelog::check::validate_chrome(&chrome)
                .expect("slot-parallel chrome export validates");
            assert_eq!(stats.ranks, RANKS);
            assert!(
                chrome.contains("\"search slot 3\""),
                "4-slot run must populate all four slot sub-lanes"
            );
            blade_trace_checked = true;
        }
    }
    assert!(blade_trace_checked, "blade profile missing from the sweep");
    json.push_str("\n  ],\n");
    let _ = writeln!(
        json,
        "  \"blade_headline\": {{\"slots\": 4, \"search_shrink_vs_serial\": {blade_shrink:.4}, \
         \"bytes_identical\": true, \"trace_validated\": true}}"
    );
    json.push('}');
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hybrid.json");
    std::fs::write(path, &json).expect("write BENCH_hybrid.json");
    println!("wrote {path}");
    println!("slot parallelism pays exactly where search still dominates the critical path");
}
