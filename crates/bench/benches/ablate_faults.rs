//! Ablation: what does fault recovery cost, and what does fragment
//! checkpointing save?
//!
//! The recovery protocol (dynamic schedule + `FaultMode::Recover`) must
//! keep output byte-identical while reassigning a dead worker's
//! fragments to the survivors. This harness injects 0–3 worker failures
//! at staggered points in the run, on both file-system profiles, with
//! checkpointing off (requeue everything the victim held) and on (adopt
//! the victim's checkpointed fragments, requeue only the unfinished
//! ones), and reports the recovery overhead relative to the same mode's
//! fault-free run. Overhead comes from re-searching requeued fragments
//! on surviving workers plus the liveness-sweep epoch restart;
//! checkpointing attacks the first, dominant term.
//!
//! Results land in `BENCH_faults.json` at the workspace root so the
//! perf trajectory is tracked across PRs. The harness asserts the
//! headline claim: at 16 processes, checkpointing cuts the per-epoch
//! recovery overhead by at least 2x.

use std::fmt::Write as _;

use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use mpiblast::Platform;
use pioblast::{FaultMode, FragmentSchedule, PioBlastConfig};
use simcluster::{FaultPlan, Sim};

const NPROCS: usize = 16;

/// Victims staggered across the distribution phase: each dies after a
/// different number of protocol sends (past some grant acks, so each
/// has searched — and, when enabled, checkpointed — work that recovery
/// must account for), and recovery epochs cascade.
const VICTIMS: [(usize, u64); 3] = [(5, 3), (9, 4), (13, 4)];

struct Run {
    failures: usize,
    elapsed_s: f64,
    overhead_s: f64,
}

fn run_mode(platform: &Platform, checkpoint: bool) -> Vec<Run> {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let nfrags = (NPROCS - 1) * 2;
    let mut runs = Vec::new();
    let mut baseline_elapsed = 0.0f64;
    let mut baseline_bytes: Vec<u8> = Vec::new();
    for failures in 0usize..=3 {
        let mut plan = FaultPlan::none();
        for &(rank, sends) in &VICTIMS[..failures] {
            plan = plan.kill_after_sends(rank, sends);
        }
        let sim = Sim::new(NPROCS);
        let cfg = PioBlastConfig {
            compute: workload.compute,
            report: workload.report,
            num_fragments: Some(nfrags),
            collective_output: false,
            schedule: FragmentSchedule::Dynamic,
            fault: FaultMode::Recover,
            checkpoint,
            ..PioBlastConfig::staged(&sim, platform, &workload.db, &workload.queries)
        };
        let outcome = sim.run_faulty(plan, |ctx| pioblast::run_rank(&ctx, &cfg));
        assert_eq!(outcome.killed.len(), failures, "every planned kill fires");
        assert!(
            matches!(outcome.outputs[0], Some(Ok(_))),
            "master completes despite {failures} failures"
        );
        let bytes = cfg
            .env
            .shared
            .peek(&cfg.output_path)
            .expect("output written");
        let elapsed = outcome.elapsed.as_secs_f64();
        if failures == 0 {
            baseline_elapsed = elapsed;
            baseline_bytes = bytes.clone();
        }
        assert_eq!(bytes, baseline_bytes, "recovery must preserve output bytes");
        runs.push(Run {
            failures,
            elapsed_s: elapsed,
            overhead_s: elapsed - baseline_elapsed,
        });
    }
    runs
}

/// Mean overhead per recovery epoch across the faulty runs.
fn per_epoch(runs: &[Run]) -> f64 {
    let faulty: Vec<&Run> = runs.iter().filter(|r| r.failures > 0).collect();
    faulty
        .iter()
        .map(|r| r.overhead_s / r.failures as f64)
        .sum::<f64>()
        / faulty.len() as f64
}

fn main() {
    println!(
        "== Ablation: recovery overhead vs injected worker failures, {NPROCS} processes, \
         checkpointing off/on =="
    );
    println!(
        "{:<35} {:>5} {:>9} {:>12} {:>12} {:>12}",
        "platform", "ckpt", "failures", "total(s)", "overhead(s)", "per-epoch(s)"
    );
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"bench\": \"ablate_faults\",\n  \"nprocs\": {NPROCS},\n  \"victims\": {},\n  \"modes\": [\n",
        VICTIMS.len()
    );
    let mut first = true;
    for platform in [Platform::altix(), Platform::blade_cluster()] {
        let mut epoch_cost = [0.0f64; 2];
        for (i, checkpoint) in [false, true].into_iter().enumerate() {
            let runs = run_mode(&platform, checkpoint);
            let per = per_epoch(&runs);
            epoch_cost[i] = per;
            for r in &runs {
                println!(
                    "{:<35} {:>5} {:>9} {:>12.3} {:>12.3} {:>12.3}",
                    platform.name,
                    checkpoint,
                    r.failures,
                    r.elapsed_s,
                    r.overhead_s,
                    if r.failures > 0 {
                        r.overhead_s / r.failures as f64
                    } else {
                        0.0
                    }
                );
            }
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"platform\": \"{}\", \"checkpoint\": {}, \"per_epoch_overhead_s\": {:.6}, \"runs\": [",
                platform.name, checkpoint, per
            );
            for (j, r) in runs.iter().enumerate() {
                if j > 0 {
                    json.push_str(", ");
                }
                let _ = write!(
                    json,
                    "{{\"failures\": {}, \"elapsed_s\": {:.6}, \"overhead_s\": {:.6}}}",
                    r.failures, r.elapsed_s, r.overhead_s
                );
            }
            json.push_str("]}");
        }
        let reduction = epoch_cost[0] / epoch_cost[1];
        println!(
            "{:<35} checkpointing cuts per-epoch overhead {:.2}x ({:.3}s -> {:.3}s)\n",
            platform.name, reduction, epoch_cost[0], epoch_cost[1]
        );
        assert!(
            reduction >= 2.0,
            "{}: checkpointing must cut per-epoch recovery overhead >= 2x, got {reduction:.2}x",
            platform.name
        );
    }
    json.push_str("\n  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    std::fs::write(path, &json).expect("write BENCH_faults.json");
    println!("wrote {path}");
    println!("recovery trades wall time for completion: failures never change the report bytes");
}
