//! Define a custom simulated platform and see how storage characteristics
//! move the pioBLAST/mpiBLAST trade-off: a "future" cluster with a fast
//! parallel file system vs a laptop-class NFS setup.
//!
//! Run with: `cargo run --release --example custom_platform`

use mpiblast::{MpiBlastConfig, Platform};
use mpisim::NetProfile;
use parafs::FsProfile;
use pioblast::PioBlastConfig;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use simcluster::Sim;

fn custom(name: &str, shared: FsProfile, net: NetProfile) -> Platform {
    Platform {
        name: name.to_string(),
        net,
        shared_fs: shared,
        local_disk: Some(FsProfile::local_disk()),
        staging: FsProfile::burst_buffer(),
        aggregators: 4,
        compute_scale: 1.0,
        cores_per_node: 8,
    }
}

fn main() {
    let records = generate(&SynthConfig::nr_like(42, 300_000));
    let db = format_records(&records, &FormatDbConfig::protein("nr-sim"));
    let queries = sample_queries(&records, 1500, 9);

    let platforms = [
        custom(
            "lustre-like (fast striped storage)",
            FsProfile {
                per_client_bw: 800.0e6,
                aggregate_bw: 12.0e9,
                op_latency: 100e-6,
            },
            NetProfile {
                latency: 2e-6,
                bandwidth: 3.0e9,
            },
        ),
        custom(
            "workgroup NFS (one slow server)",
            FsProfile {
                per_client_bw: 30.0e6,
                aggregate_bw: 40.0e6,
                op_latency: 5e-3,
            },
            NetProfile {
                latency: 100e-6,
                bandwidth: 60.0e6,
            },
        ),
    ];

    for platform in platforms {
        println!("== {} ==", platform.name);
        for program in ["mpiBLAST", "pioBLAST"] {
            let sim = Sim::new(16);
            let elapsed = if program == "mpiBLAST" {
                let cfg = MpiBlastConfig::staged(&sim, &platform, &db, &queries, 15);
                sim.run(|ctx| mpiblast::run_rank(&ctx, &cfg)).elapsed
            } else {
                let cfg = PioBlastConfig::staged(&sim, &platform, &db, &queries);
                sim.run(|ctx| pioblast::run_rank(&ctx, &cfg)).elapsed
            };
            println!("  {program:<9} total {:.3}s", elapsed.as_secs_f64());
        }
        println!();
    }
}
