//! The CLI subcommands: generate, formatdb, sample, run.

use std::fs;
use std::path::Path;

use blast_core::alphabet::Molecule;
use blast_core::fasta;
use mpiblast::{ComputeModel, MpiBlastConfig, Platform};
use pioblast::PioBlastConfig;
use seqfmt::formatdb::FormatDbConfig;
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, generate_dna, SynthConfig};
use seqfmt::{AliasFile, FormattedDb};
use simcluster::Sim;

use crate::args::OptKind::{self, Flag, Value};
use crate::args::{ArgError, ParsedArgs};

/// A CLI-level error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError(format!("I/O error: {e}"))
    }
}

/// The usage text.
pub const USAGE: &str = "\
pioblast-sim — simulated parallel BLAST (IPPS'05 pioBLAST reproduction)

USAGE:
  pioblast-sim gen      --residues N --out db.fa [--seed S] [--dna]
  pioblast-sim formatdb --in db.fa --title NAME --out-dir DIR [--volume-cap N] [--dna]
  pioblast-sim sample   --in db.fa --bytes N --out queries.fa [--seed S] [--dna]
  pioblast-sim run      --program pio|mpi --procs N --db-dir DIR --queries q.fa
                        --out report.txt [--platform PLATFORM] [--frags N]
                        [--threads N] [--pool-threads N] [--batch N] [--measured] [--dna]
                        [--no-collective] [--collective-input] [--prune] [--dynamic]
                        [--fault-detect] [--recover] [--checkpoint]
                        [--io-strategy independent|sieve|two-phase]
                        [--sieve-threshold N] [--io-async] [--burst-buffer]
                        [--burst-capacity BYTES]
                        [--trace out.json] [--trace-filter LANE[,LANE...]]
  pioblast-sim serve    --procs N --db-dir DIR --queries q.fa --out report.txt
                        [--platform PLATFORM] [--users N] [--stream-batches N]
                        [--mean-gap-ms N] [--resident-mb N] [--affinity] [--frags N]
                        [--threads N] [--pool-threads N] [--recover] [--checkpoint]
                        [--io-strategy independent|sieve|two-phase]
                        [--sieve-threshold N] [--io-async] [--burst-buffer]
                        [--burst-capacity BYTES]
                        [--seed S] [--measured] [--dna] [--trace out.json]
                        [--trace-filter LANE[,...]]
  pioblast-sim trace-check --in trace.json
  pioblast-sim trace-diff  --a run1.json --b run2.json [--top N]
  pioblast-sim trace-diff  --in trace.json --write-baseline profile.tsv
  pioblast-sim trace-diff  --in trace.json --baseline profile.tsv
                           [--max-growth-pct N] [--min-delta-ns N]

Integer options accept k/M/G suffixes (e.g. --residues 12M). An option
a subcommand does not list above is an error. pioblast-sim --help (or
help) prints this text.

PLATFORM is one of altix (SGI Altix: NUMAlink + striped XFS), blade
(IBM blades: gigabit + NFS + local disks), manycore (64-core nodes),
objectstore (10 GbE + S3/Ceph-class store: huge aggregate bandwidth,
HTTP-scale request overhead), multisite (two sites over a WAN: tens of
milliseconds per message and per shared-fs operation).

--pool-threads N sets the DES engine's worker-pool width (default
min(ncpus, 16)). Ranks run as resumable continuations on the pool, so
a 512-rank run needs pool+1 OS threads, not 512 — and the width never
changes a single output, clock, or trace byte.

serve replays a seeded query stream (--users users submitting
--stream-batches batches, inter-arrival gaps averaging --mean-gap-ms)
against a long-lived cluster. Each stream batch's report is written to
<--out>.q<batch> and is byte-identical to running that batch alone.
--resident-mb caps each worker's resident fragment store (0 keeps
nothing); --affinity re-grants fragments to the workers that already
hold them, so resident re-grants skip their reads entirely.

--collective-input and --prune apply to pio only. --collective-input
reads the shared database with aggregated reads instead of independent
ranged ones; --prune has workers trim their hit lists to the report
limits before submitting. Neither changes output bytes.

--threads N (pio only) shards each granted fragment's subjects across N
intra-rank compute slots with a deterministic merge — output bytes never
change. N must be between 1 and the platform's cores per node (altix 16,
blade 2, manycore 64).

--trace writes a Chrome trace_event JSON (loadable in Perfetto or
chrome://tracing): one process per rank, one thread per subsystem lane.
--trace-filter limits the export to the named lanes (phase, search, io,
net, runtime, sched, engine). trace-check validates a trace file:
monotonic timestamps per lane and balanced begin/end span pairs.
trace-diff aligns two exported runs by (rank, lane, phase) and reports
which lane/phase diverged and by how much (--top rows per section);
runs at different rank counts compare cluster totals and per-rank
means, identical runs report an empty diff. With --in it profiles one
trace instead: --write-baseline commits the cluster busy-ns profile to
a file, --baseline gates the trace against a committed profile and
exits nonzero when any lane/phase (or the wall clock) grew more than
--max-growth-pct percent (default 25) and more than --min-delta-ns
(default 50k) — the CI perf-regression gate.

--burst-buffer stages output and checkpoint writes in a per-node burst
buffer (the platform's staging profile), one write per put, draining to
the shared file system in the background; drains are fenced at epoch
boundaries under --recover and always before the run ends, so reports
stay byte-identical.
--burst-capacity bounds staged-but-undrained bytes (default 256M);
a full buffer degrades that write to a direct one (typed backpressure).
";

type Handler = fn(&ParsedArgs) -> Result<String, CliError>;

/// A subcommand's name, its handler, and the options it accepts.
type Subcommand = (&'static str, Handler, &'static [(&'static str, OptKind)]);

/// Every subcommand with its handler and the options it accepts.
/// `dispatch` rejects anything else before the handler runs, and a
/// test holds each table equal to the subcommand's USAGE synopsis.
const SUBCOMMANDS: &[Subcommand] = &[
    (
        "gen",
        cmd_gen,
        &[
            ("residues", Value),
            ("out", Value),
            ("seed", Value),
            ("dna", Flag),
        ],
    ),
    (
        "formatdb",
        cmd_formatdb,
        &[
            ("in", Value),
            ("title", Value),
            ("out-dir", Value),
            ("volume-cap", Value),
            ("dna", Flag),
        ],
    ),
    (
        "sample",
        cmd_sample,
        &[
            ("in", Value),
            ("bytes", Value),
            ("out", Value),
            ("seed", Value),
            ("dna", Flag),
        ],
    ),
    (
        "run",
        cmd_run,
        &[
            ("program", Value),
            ("procs", Value),
            ("db-dir", Value),
            ("queries", Value),
            ("out", Value),
            ("platform", Value),
            ("frags", Value),
            ("threads", Value),
            ("pool-threads", Value),
            ("batch", Value),
            ("measured", Flag),
            ("dna", Flag),
            ("no-collective", Flag),
            ("collective-input", Flag),
            ("prune", Flag),
            ("dynamic", Flag),
            ("fault-detect", Flag),
            ("recover", Flag),
            ("checkpoint", Flag),
            ("io-strategy", Value),
            ("sieve-threshold", Value),
            ("io-async", Flag),
            ("burst-buffer", Flag),
            ("burst-capacity", Value),
            ("trace", Value),
            ("trace-filter", Value),
        ],
    ),
    (
        "serve",
        cmd_serve,
        &[
            ("procs", Value),
            ("db-dir", Value),
            ("queries", Value),
            ("out", Value),
            ("platform", Value),
            ("users", Value),
            ("stream-batches", Value),
            ("mean-gap-ms", Value),
            ("resident-mb", Value),
            ("affinity", Flag),
            ("frags", Value),
            ("threads", Value),
            ("pool-threads", Value),
            ("recover", Flag),
            ("checkpoint", Flag),
            ("io-strategy", Value),
            ("sieve-threshold", Value),
            ("io-async", Flag),
            ("burst-buffer", Flag),
            ("burst-capacity", Value),
            ("seed", Value),
            ("measured", Flag),
            ("dna", Flag),
            ("trace", Value),
            ("trace-filter", Value),
        ],
    ),
    ("trace-check", cmd_trace_check, &[("in", Value)]),
    (
        "trace-diff",
        cmd_trace_diff,
        &[
            ("a", Value),
            ("b", Value),
            ("top", Value),
            ("in", Value),
            ("write-baseline", Value),
            ("baseline", Value),
            ("max-growth-pct", Value),
            ("min-delta-ns", Value),
        ],
    ),
    ("help", |_| Ok(USAGE.to_string()), &[]),
];

/// Dispatch a parsed command line, rejecting any option the subcommand
/// does not declare before running it.
pub fn dispatch(args: &ParsedArgs) -> Result<String, CliError> {
    let Some((_, handler, known)) = SUBCOMMANDS
        .iter()
        .find(|(name, _, _)| *name == args.command)
    else {
        return Err(CliError(format!(
            "unknown subcommand {:?}\n\n{USAGE}",
            args.command
        )));
    };
    args.check(known)?;
    handler(args)
}

fn molecule_of(args: &ParsedArgs) -> Molecule {
    if args.flag("dna") {
        Molecule::Dna
    } else {
        Molecule::Protein
    }
}

fn compute_model(args: &ParsedArgs) -> ComputeModel {
    if args.flag("measured") {
        ComputeModel::measured()
    } else {
        ComputeModel::modeled()
    }
}

/// An optional count option, rejected when given as zero.
fn count_opt(args: &ParsedArgs, key: &str) -> Result<Option<usize>, CliError> {
    match args.u64_opt(key)? {
        Some(0) => Err(CliError(format!("--{key} must be at least 1"))),
        n => Ok(n.map(|v| v as usize)),
    }
}

fn cmd_gen(args: &ParsedArgs) -> Result<String, CliError> {
    let residues = args.require_u64("residues")?;
    let out = args.require("out")?;
    let seed = args.u64_or("seed", 42)?;
    let molecule = molecule_of(args);
    let cfg = match molecule {
        Molecule::Protein => SynthConfig::nr_like(seed, residues),
        Molecule::Dna => SynthConfig::nt_like_dna(seed, residues),
    };
    let records = match molecule {
        Molecule::Protein => generate(&cfg),
        Molecule::Dna => generate_dna(&cfg),
    };
    let text = fasta::to_string(&records, 60);
    fs::write(out, &text)?;
    Ok(format!(
        "wrote {} sequences, {} residues ({} bytes FASTA) to {}",
        records.len(),
        records.iter().map(|r| r.len() as u64).sum::<u64>(),
        text.len(),
        out
    ))
}

fn cmd_formatdb(args: &ParsedArgs) -> Result<String, CliError> {
    let input = args.require("in")?;
    let title = args.require("title")?;
    let out_dir = args.require("out-dir")?;
    let molecule = molecule_of(args);
    let text = fs::read(input)?;
    let db = seqfmt::format_fasta(
        &text,
        &FormatDbConfig {
            title: title.to_string(),
            molecule,
            volume_residue_cap: args.u64_opt("volume-cap")?,
        },
    )
    .map_err(|e| CliError(format!("parsing {input}: {e}")))?;
    fs::create_dir_all(out_dir)?;
    let mut bytes = 0u64;
    let files = db.files();
    for (name, data) in &files {
        bytes += data.len() as u64;
        fs::write(Path::new(out_dir).join(name), data)?;
    }
    Ok(format!(
        "formatted {}: {} sequences, {} residues -> {} volume(s), {} files, {} bytes under {}",
        title,
        db.stats().num_sequences,
        db.stats().total_residues,
        db.volumes.len(),
        files.len(),
        bytes,
        out_dir
    ))
}

fn cmd_sample(args: &ParsedArgs) -> Result<String, CliError> {
    let input = args.require("in")?;
    let bytes = args.require_u64("bytes")?;
    let out = args.require("out")?;
    let seed = args.u64_or("seed", 7)?;
    let molecule = molecule_of(args);
    let text = fs::read(input)?;
    let records =
        fasta::parse(molecule, &text).map_err(|e| CliError(format!("parsing {input}: {e}")))?;
    if records.is_empty() {
        return Err(CliError(format!("{input} holds no sequences")));
    }
    let queries = sample_queries(&records, bytes, seed);
    fs::write(out, fasta::to_string(&queries, 60))?;
    Ok(format!("sampled {} queries to {}", queries.len(), out))
}

/// Load a formatted database from a host directory by its alias file.
pub fn load_db(db_dir: &str) -> Result<FormattedDb, CliError> {
    let dir = Path::new(db_dir);
    let alias_path = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().map(|x| x == "al").unwrap_or(false))
        .ok_or_else(|| CliError(format!("no .al alias file in {db_dir}")))?;
    let alias = AliasFile::decode(&fs::read(&alias_path)?)
        .map_err(|e| CliError(format!("bad alias file: {e}")))?;
    let mut volumes = Vec::new();
    for name in &alias.volumes {
        let read = |ext: &str| -> Result<Vec<u8>, CliError> {
            Ok(fs::read(dir.join(format!("{name}.{ext}")))?)
        };
        let idx = read("idx")?;
        let index = seqfmt::VolumeIndex::decode(&idx)
            .map_err(|e| CliError(format!("bad index {name}.idx: {e}")))?;
        volumes.push(seqfmt::EncodedVolume {
            name: name.clone(),
            idx,
            seq: read("seq")?,
            hdr: read("hdr")?,
            index,
        });
    }
    Ok(FormattedDb { alias, volumes })
}

/// Parse `--platform` into one of the simulated machines.
fn parse_platform(args: &ParsedArgs) -> Result<Platform, CliError> {
    match args.get("platform").unwrap_or("altix") {
        "altix" => Ok(Platform::altix()),
        "blade" => Ok(Platform::blade_cluster()),
        "manycore" => Ok(Platform::manycore()),
        "objectstore" => Ok(Platform::objectstore()),
        "multisite" => Ok(Platform::multisite()),
        other => Err(CliError(format!(
            "unknown platform {other:?} (expected altix, blade, manycore, objectstore, or multisite)"
        ))),
    }
}

/// Build the simulation, honoring `--pool-threads` when present.
fn make_sim(args: &ParsedArgs, nprocs: usize) -> Result<Sim, CliError> {
    match args.u64_opt("pool-threads")? {
        None => Ok(Sim::new(nprocs)),
        Some(0) => Err(CliError("--pool-threads must be at least 1".into())),
        Some(p) => Ok(Sim::with_pool(nprocs, p as usize)),
    }
}

/// Parse `--io-strategy` / `--sieve-threshold` / `--burst-buffer` /
/// `--burst-capacity` into plane options.
fn io_options(args: &ParsedArgs) -> Result<pioblast::IoOptions, CliError> {
    let defaults = pioblast::IoOptions::default();
    let strategy = match args.get("io-strategy") {
        None => defaults.strategy,
        Some(text) => text
            .parse::<pioblast::IoStrategy>()
            .map_err(|e| CliError(e.to_string()))?,
    };
    let burst = if args.flag("burst-buffer") {
        let capacity = match args.get("burst-capacity") {
            None => pioblast::BurstOptions::default().capacity,
            Some(text) => parse_size(text)?,
        };
        if capacity == 0 {
            return Err(CliError("--burst-capacity must be positive".into()));
        }
        Some(pioblast::BurstOptions { capacity })
    } else {
        if args.get("burst-capacity").is_some() {
            return Err(CliError("--burst-capacity requires --burst-buffer".into()));
        }
        None
    };
    Ok(pioblast::IoOptions {
        strategy,
        sieve_threshold: args.u64_or("sieve-threshold", defaults.sieve_threshold)?,
        io_async: args.flag("io-async"),
        burst,
    })
}

/// Parse a byte size with an optional k/M/G suffix (e.g. `256M`).
fn parse_size(text: &str) -> Result<u64, CliError> {
    let (digits, mult) = match text.chars().last() {
        Some('k' | 'K') => (&text[..text.len() - 1], 1u64 << 10),
        Some('m' | 'M') => (&text[..text.len() - 1], 1u64 << 20),
        Some('g' | 'G') => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| CliError(format!("bad size {text:?} (expected e.g. 1048576 or 64M)")))
}

/// Parse `--trace-filter io,net` into lanes (`None` = all lanes).
fn trace_filter(args: &ParsedArgs) -> Result<Option<Vec<tracelog::Lane>>, CliError> {
    let Some(spec) = args.get("trace-filter") else {
        return Ok(None);
    };
    let mut lanes = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let lane = tracelog::Lane::parse(part).ok_or_else(|| {
            CliError(format!(
                "unknown trace lane {part:?} (expected one of: phase, search, io, net, runtime, sched, engine)"
            ))
        })?;
        lanes.push(lane);
    }
    Ok(Some(lanes))
}

fn cmd_trace_check(args: &ParsedArgs) -> Result<String, CliError> {
    let input = args.require("in")?;
    let text = fs::read_to_string(input)?;
    let stats = tracelog::check::validate_chrome(&text)
        .map_err(|e| CliError(format!("{input}: invalid trace: {e}")))?;
    Ok(format!(
        "{input}: valid Chrome trace — {} events ({} spans, {} instants, {} counter samples) across {} rank(s)",
        stats.events, stats.spans, stats.instants, stats.counters, stats.ranks
    ))
}

fn cmd_trace_diff(args: &ParsedArgs) -> Result<String, CliError> {
    let load = |path: &str| -> Result<tracelog::diff::RunProfile, CliError> {
        let text = fs::read_to_string(path)?;
        tracelog::diff::profile_chrome(&text)
            .map_err(|e| CliError(format!("{path}: invalid trace: {e}")))
    };
    // Baseline modes: profile one trace and either commit its cluster
    // busy-ns profile (--write-baseline) or gate it against a committed
    // one (--baseline), failing with a nonzero exit when any lane/phase
    // grew past --max-growth-pct.
    if let Some(input) = args.get("in") {
        let input = input.to_string();
        let profile = load(&input)?;
        if let Some(out) = args.get("write-baseline") {
            let text = tracelog::diff::render_baseline(&profile);
            let rows = profile.cluster_totals().len();
            fs::write(out, text)?;
            return Ok(format!(
                "{input}: wrote baseline ({rows} lane/phase rows, {} rank(s)) to {out}",
                profile.ranks
            ));
        }
        let base_path = args.require("baseline")?;
        let base = tracelog::diff::parse_baseline(&fs::read_to_string(base_path)?)
            .map_err(|e| CliError(format!("{base_path}: invalid baseline: {e}")))?;
        let pct = args.u64_or("max-growth-pct", 25)? as f64;
        let min_delta = match args.get("min-delta-ns") {
            None => 50_000,
            Some(text) => parse_size(text)?,
        };
        let failures = tracelog::diff::check_baseline(&base, &profile, pct, min_delta);
        return if failures.is_empty() {
            Ok(format!(
                "{input}: within {pct}% of baseline {base_path} ({} lane/phase rows checked)",
                profile.cluster_totals().len()
            ))
        } else {
            Err(CliError(format!(
                "{input}: {} regression(s) vs baseline {base_path} (max growth {pct}%):\n  {}",
                failures.len(),
                failures.join("\n  ")
            )))
        };
    }
    let path_a = args.require("a")?;
    let path_b = args.require("b")?;
    let top = args.u64_or("top", 12)? as usize;
    let d = tracelog::diff::diff_profiles(&load(path_a)?, &load(path_b)?);
    Ok(tracelog::diff::render_diff(&d, top.max(1)))
}

fn cmd_run(args: &ParsedArgs) -> Result<String, CliError> {
    let program = args.require("program")?.to_string();
    let nprocs = args.require_u64("procs")? as usize;
    if nprocs < 2 {
        return Err(CliError("--procs must be at least 2".into()));
    }
    let db_dir = args.require("db-dir")?;
    let queries_path = args.require("queries")?;
    let out = args.require("out")?;
    let platform = parse_platform(args)?;
    let threads = args.u64_or("threads", 1)? as usize;
    let nfrags = count_opt(args, "frags")?;
    let query_batch = count_opt(args, "batch")?;
    let molecule = molecule_of(args);
    let db = load_db(db_dir)?;
    let query_text = fs::read(queries_path)?;
    let queries = fasta::parse(molecule, &query_text)
        .map_err(|e| CliError(format!("parsing {queries_path}: {e}")))?;

    let filter = trace_filter(args)?;
    let sim = make_sim(args, nprocs)?;
    let tracer = tracelog::Tracer::new(nprocs);
    sim.set_tracer(tracer.clone());
    // Not the library default: the shared report path shows up in
    // burst-buffer trace args, and traces stay comparable across versions.
    let output_path = "report.txt".to_string();
    let (env, outcome) = match program.as_str() {
        "mpi" => {
            let nfrags = nfrags.unwrap_or(nprocs - 1);
            let cfg = MpiBlastConfig {
                compute: compute_model(args),
                output_path: output_path.clone(),
                fault_detection: args.flag("fault-detect"),
                ..MpiBlastConfig::staged(&sim, &platform, &db, &queries, nfrags)
            };
            let o = sim.run(|ctx| mpiblast::run_rank(&ctx, &cfg).map_err(|e| e.to_string()));
            (cfg.env, o)
        }
        "pio" => {
            let cfg = PioBlastConfig {
                compute: compute_model(args),
                output_path: output_path.clone(),
                num_fragments: nfrags,
                collective_output: !args.flag("no-collective"),
                local_prune: args.flag("prune"),
                query_batch,
                collective_input: args.flag("collective-input"),
                schedule: if args.flag("dynamic") || args.flag("recover") {
                    pioblast::FragmentSchedule::Dynamic
                } else {
                    pioblast::FragmentSchedule::Static
                },
                fault: if args.flag("recover") {
                    pioblast::FaultMode::Recover
                } else if args.flag("fault-detect") {
                    pioblast::FaultMode::Detect
                } else {
                    pioblast::FaultMode::Off
                },
                checkpoint: args.flag("checkpoint"),
                threads,
                io: io_options(args)?,
                ..PioBlastConfig::staged(&sim, &platform, &db, &queries)
            };
            let o = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg).map_err(|e| e.to_string()));
            (cfg.env, o)
        }
        other => {
            return Err(CliError(format!(
                "--program must be pio or mpi, got {other:?}"
            )))
        }
    };
    for r in &outcome.outputs {
        if let Err(e) = r {
            return Err(CliError(format!("run failed: {e}")));
        }
    }
    let (elapsed, stats) = (outcome.elapsed, outcome.stats);
    let report = env
        .shared
        .peek(&output_path)
        .map_err(|e| CliError(format!("no report produced: {e}")))?;
    fs::write(out, &report)?;
    let mut trace_note = String::new();
    if let Some(path) = args.get("trace") {
        let trace = tracer.finish(elapsed.since(simcluster::SimTime::ZERO).0);
        let json = tracelog::chrome::export_chrome(&trace, filter.as_deref());
        fs::write(path, &json)?;
        trace_note = format!(
            ", trace {} events{} -> {path}",
            trace.events.len(),
            if trace.dropped > 0 {
                format!(" ({} dropped)", trace.dropped)
            } else {
                String::new()
            }
        );
    }
    Ok(format!(
        "{program}BLAST, {nprocs} processes on {}: {:.3}s virtual time, {} messages, report {} bytes -> {}{trace_note}",
        db.alias.title,
        elapsed.as_secs_f64(),
        stats.messages,
        report.len(),
        out
    ))
}

/// `serve`: replay a seeded query stream against a long-lived cluster,
/// writing each stream batch's report to `<out>.q<batch>`.
fn cmd_serve(args: &ParsedArgs) -> Result<String, CliError> {
    let nprocs = args.require_u64("procs")? as usize;
    if nprocs < 2 {
        return Err(CliError("--procs must be at least 2".into()));
    }
    let db_dir = args.require("db-dir")?;
    let queries_path = args.require("queries")?;
    let out = args.require("out")?.to_string();
    let platform = parse_platform(args)?;
    let users = u32::try_from(args.u64_or("users", 4)?)
        .map_err(|_| CliError(format!("--users must be at most {}", u32::MAX)))?;
    if users == 0 {
        return Err(CliError("--users must be at least 1".into()));
    }
    let nbatches = args.u64_or("stream-batches", 8)? as usize;
    if nbatches == 0 {
        return Err(CliError("--stream-batches must be at least 1".into()));
    }
    // Every arrival, up to 1.5 mean gaps apart, must fit the u64 ns clock.
    let mean_gap_ns = args
        .u64_or("mean-gap-ms", 1)?
        .checked_mul(1_000_000)
        .filter(|ns| {
            ns.checked_mul((nbatches as u64).saturating_mul(2))
                .is_some()
        })
        .ok_or_else(|| CliError("--mean-gap-ms is too large for the virtual clock".into()))?;
    let resident_bytes = args
        .u64_or("resident-mb", 0)?
        .checked_mul(1 << 20)
        .ok_or_else(|| CliError("--resident-mb is too large for a byte count".into()))?;
    let nfrags = count_opt(args, "frags")?;
    let seed = args.u64_or("seed", 42)?;
    let threads = args.u64_or("threads", 1)? as usize;
    let molecule = molecule_of(args);
    let db = load_db(db_dir)?;
    let query_text = fs::read(queries_path)?;
    let queries = fasta::parse(molecule, &query_text)
        .map_err(|e| CliError(format!("parsing {queries_path}: {e}")))?;
    if queries.len() < nbatches {
        return Err(CliError(format!(
            "--stream-batches {} needs at least that many queries ({queries_path} holds {})",
            nbatches,
            queries.len()
        )));
    }
    let plan =
        pioblast::QueryStreamPlan::generate(users, nbatches, queries.len(), mean_gap_ns, seed);

    let filter = trace_filter(args)?;
    let sim = make_sim(args, nprocs)?;
    let tracer = tracelog::Tracer::new(nprocs);
    sim.set_tracer(tracer.clone());
    let output_path = "report.txt".to_string();
    let cfg = PioBlastConfig {
        compute: compute_model(args),
        output_path: output_path.clone(),
        num_fragments: nfrags,
        collective_output: false,
        schedule: pioblast::FragmentSchedule::Dynamic,
        fault: if args.flag("recover") {
            pioblast::FaultMode::Recover
        } else {
            pioblast::FaultMode::Off
        },
        checkpoint: args.flag("checkpoint"),
        threads,
        io: io_options(args)?,
        service: Some(pioblast::ServiceOptions {
            plan,
            resident_bytes,
            affinity: args.flag("affinity"),
        }),
        ..PioBlastConfig::staged(&sim, &platform, &db, &queries)
    };
    let o = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    for r in &o.outputs {
        if let Err(e) = r {
            return Err(CliError(format!("serve failed: {e}")));
        }
    }
    let mut bytes = 0usize;
    for b in 0..nbatches {
        let report = cfg
            .env
            .shared
            .peek(&format!("{output_path}.q{b}"))
            .map_err(|e| CliError(format!("stream batch {b} produced no report: {e}")))?;
        bytes += report.len();
        fs::write(format!("{out}.q{b}"), &report)?;
    }
    let trace = tracer.finish(o.elapsed.since(simcluster::SimTime::ZERO).0);
    let metrics = pioblast::ServiceMetrics::from_trace(&trace);
    let mut trace_note = String::new();
    if let Some(path) = args.get("trace") {
        let json = tracelog::chrome::export_chrome(&trace, filter.as_deref());
        fs::write(path, &json)?;
        trace_note = format!(", trace {} events -> {path}", trace.events.len());
    }
    Ok(format!(
        "pioBLAST service, {nprocs} processes on {}: {} users x {} batches in {:.3}s virtual time, \
         {:.2} queries/s, p50 {:.3}s, p99 {:.3}s, hit rate {:.1}% ({}/{} grants), \
         {bytes} report bytes -> {out}.q0..q{}{trace_note}",
        db.alias.title,
        users,
        nbatches,
        o.elapsed.as_secs_f64(),
        metrics.queries_per_sec,
        metrics.p50_latency_s,
        metrics.p99_latency_s,
        100.0 * metrics.hit_rate(),
        metrics.cache_hits,
        metrics.cache_hits + metrics.cache_misses,
        nbatches - 1
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pioblast-cli-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn gen_formatdb_sample_run_pipeline() {
        let dir = tmpdir("pipeline");
        let fa = dir.join("db.fa");
        let qfa = dir.join("q.fa");
        let dbdir = dir.join("db");
        let report = dir.join("report.txt");

        let msg = dispatch(&args(&[
            "gen",
            "--residues",
            "30k",
            "--seed",
            "5",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("wrote"));

        let msg = dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "clidb",
            "--out-dir",
            dbdir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("1 volume(s)"), "{msg}");

        let msg = dispatch(&args(&[
            "sample",
            "--in",
            fa.to_str().unwrap(),
            "--bytes",
            "1k",
            "--out",
            qfa.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("sampled"));

        // Run both programs; reports must match byte-for-byte. Each run
        // also exports a trace that trace-check must accept.
        let mut outputs = Vec::new();
        for program in ["pio", "mpi"] {
            let out = dir.join(format!("{program}.txt"));
            let trace = dir.join(format!("{program}.json"));
            let msg = dispatch(&args(&[
                "run",
                "--program",
                program,
                "--procs",
                "4",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--queries",
                qfa.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(msg.contains("report"), "{msg}");
            assert!(msg.contains("trace"), "{msg}");
            let check = dispatch(&args(&["trace-check", "--in", trace.to_str().unwrap()])).unwrap();
            assert!(check.contains("valid Chrome trace"), "{check}");
            outputs.push(fs::read(&out).unwrap());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert!(!outputs[0].is_empty());

        // trace-diff: a trace against itself is equivalent; pio vs mpi
        // runs differ and the divergence report names lanes.
        let pio_trace = dir.join("pio.json");
        let mpi_trace = dir.join("mpi.json");
        let same = dispatch(&args(&[
            "trace-diff",
            "--a",
            pio_trace.to_str().unwrap(),
            "--b",
            pio_trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(same.contains("equivalent"), "{same}");
        let diff = dispatch(&args(&[
            "trace-diff",
            "--a",
            pio_trace.to_str().unwrap(),
            "--b",
            mpi_trace.to_str().unwrap(),
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(diff.contains("cluster totals"), "{diff}");

        // Baseline gate: a committed profile of the pio trace admits
        // the identical trace and rejects a run that moved (the mpi
        // trace, at zero tolerance).
        let baseline = dir.join("baseline.tsv");
        let wrote = dispatch(&args(&[
            "trace-diff",
            "--in",
            pio_trace.to_str().unwrap(),
            "--write-baseline",
            baseline.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(wrote.contains("wrote baseline"), "{wrote}");
        let ok = dispatch(&args(&[
            "trace-diff",
            "--in",
            pio_trace.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(ok.contains("within"), "{ok}");
        let gate = dispatch(&args(&[
            "trace-diff",
            "--in",
            mpi_trace.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
            "--max-growth-pct",
            "0",
            "--min-delta-ns",
            "0",
        ]))
        .unwrap_err();
        assert!(gate.0.contains("regression"), "{}", gate.0);

        // --threads shards the scan across compute slots without changing
        // a single output byte.
        let threaded_out = dir.join("pio-t4.txt");
        dispatch(&args(&[
            "run",
            "--program",
            "pio",
            "--procs",
            "4",
            "--threads",
            "4",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--queries",
            qfa.to_str().unwrap(),
            "--out",
            threaded_out.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(fs::read(&threaded_out).unwrap(), outputs[0]);
        let _ = report;
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_flag_is_validated() {
        let dir = tmpdir("threads");
        let fa = dir.join("db.fa");
        let qfa = dir.join("q.fa");
        let dbdir = dir.join("db");
        dispatch(&args(&[
            "gen",
            "--residues",
            "10k",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "t",
            "--out-dir",
            dbdir.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "sample",
            "--in",
            fa.to_str().unwrap(),
            "--bytes",
            "256",
            "--out",
            qfa.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dir.join("out.txt");
        let run = |extra: &[&str]| {
            let mut v = vec![
                "run",
                "--program",
                "pio",
                "--procs",
                "3",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--queries",
                qfa.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            dispatch(&args(&v))
        };
        // Zero slots and oversubscribing the platform's cores are typed
        // errors, not panics.
        let err = run(&["--threads", "0"]).unwrap_err();
        assert!(err.0.contains("--threads must be at least 1"), "{err}");
        let err = run(&["--platform", "blade", "--threads", "8"]).unwrap_err();
        assert!(err.0.contains("cores per node"), "{err}");
        // The platform ceiling itself is fine (blade HS20s expose four
        // hardware threads).
        run(&["--platform", "blade", "--threads", "4"]).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_threads_and_new_platforms() {
        let dir = tmpdir("pool");
        let fa = dir.join("db.fa");
        let qfa = dir.join("q.fa");
        let dbdir = dir.join("db");
        dispatch(&args(&[
            "gen",
            "--residues",
            "15k",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "p",
            "--out-dir",
            dbdir.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "sample",
            "--in",
            fa.to_str().unwrap(),
            "--bytes",
            "256",
            "--out",
            qfa.to_str().unwrap(),
        ]))
        .unwrap();
        let run = |label: &str, extra: &[&str]| {
            let out = dir.join(format!("{label}.txt"));
            let mut v = vec![
                "run",
                "--program",
                "pio",
                "--procs",
                "3",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--queries",
                qfa.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            dispatch(&args(&v)).map(|_| fs::read(&out).unwrap())
        };
        // The pool width never changes report bytes.
        let narrow = run(
            "pool1",
            &["--platform", "objectstore", "--pool-threads", "1"],
        )
        .unwrap();
        let wide = run(
            "pool4",
            &["--platform", "objectstore", "--pool-threads", "4"],
        )
        .unwrap();
        assert_eq!(narrow, wide, "pool width leaked into the report");
        // The new platforms both complete; their I/O regimes differ, so
        // reports agree (same database, same queries) even though times
        // do not.
        let multi = run("multisite", &["--platform", "multisite"]).unwrap();
        assert_eq!(multi, narrow);
        // Bad values are typed errors.
        let err = run("bad", &["--pool-threads", "0"]).unwrap_err();
        assert!(err.0.contains("--pool-threads"), "{err}");
        let err = run("badplat", &["--platform", "cloud9"]).unwrap_err();
        assert!(err.0.contains("objectstore"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_streams_batches_and_reports_metrics() {
        let dir = tmpdir("serve");
        let fa = dir.join("db.fa");
        let qfa = dir.join("q.fa");
        let dbdir = dir.join("db");
        dispatch(&args(&[
            "gen",
            "--residues",
            "30k",
            "--seed",
            "5",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "servedb",
            "--out-dir",
            dbdir.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "sample",
            "--in",
            fa.to_str().unwrap(),
            "--bytes",
            "2k",
            "--out",
            qfa.to_str().unwrap(),
        ]))
        .unwrap();

        // Affinity on and off: per-batch reports must agree byte for
        // byte (residency is a cache, never a result change), and the
        // affinity run must actually hit its resident store.
        let serve = |label: &str, extra: &[&str]| {
            let out = dir.join(format!("svc-{label}.txt"));
            let mut v = vec![
                "serve",
                "--procs",
                "4",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--queries",
                qfa.to_str().unwrap(),
                "--users",
                "2",
                "--stream-batches",
                "3",
                "--seed",
                "9",
                "--out",
                out.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            let msg = dispatch(&args(&v)).unwrap();
            let reports: Vec<Vec<u8>> = (0..3)
                .map(|b| fs::read(format!("{}.q{b}", out.to_str().unwrap())).unwrap())
                .collect();
            (msg, reports)
        };
        let (msg_off, off) = serve("off", &[]);
        let (msg_on, on) = serve("on", &["--affinity", "--resident-mb", "64"]);
        assert!(msg_off.contains("hit rate 0.0%"), "{msg_off}");
        assert!(!msg_on.contains("hit rate 0.0%"), "{msg_on}");
        assert!(msg_on.contains("queries/s"), "{msg_on}");
        assert_eq!(on, off, "affinity changed report bytes");
        assert!(on.iter().all(|r| !r.is_empty()));

        // A traced serve exports a validator-clean Chrome trace.
        let trace = dir.join("svc.json");
        let (msg, _) = serve(
            "traced",
            &[
                "--affinity",
                "--resident-mb",
                "64",
                "--trace",
                trace.to_str().unwrap(),
            ],
        );
        assert!(msg.contains("trace"), "{msg}");
        let check = dispatch(&args(&["trace-check", "--in", trace.to_str().unwrap()])).unwrap();
        assert!(check.contains("valid Chrome trace"), "{check}");

        // More batches than queries is a typed error, not a panic.
        let err = dispatch(&args(&[
            "serve",
            "--procs",
            "4",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--queries",
            qfa.to_str().unwrap(),
            "--stream-batches",
            "100000",
            "--out",
            dir.join("x.txt").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.0.contains("needs at least that many queries"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_filter_parses_and_rejects_unknown_lanes() {
        let a = args(&["run", "--trace-filter", "io,net, search"]);
        let lanes = trace_filter(&a).unwrap().unwrap();
        assert_eq!(
            lanes,
            vec![
                tracelog::Lane::Io,
                tracelog::Lane::Net,
                tracelog::Lane::Search
            ]
        );
        assert!(trace_filter(&args(&["run", "--trace-filter", "gpu"])).is_err());
        assert_eq!(trace_filter(&args(&["run"])).unwrap(), None);
    }

    #[test]
    fn multivolume_round_trips_through_disk() {
        let dir = tmpdir("mv");
        let fa = dir.join("db.fa");
        let dbdir = dir.join("db");
        dispatch(&args(&[
            "gen",
            "--residues",
            "30k",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "mv",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--volume-cap",
            "10k",
        ]))
        .unwrap();
        assert!(msg.contains("volume(s)"));
        let db = load_db(dbdir.to_str().unwrap()).unwrap();
        assert!(db.volumes.len() >= 3, "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_strategy_flags_parse() {
        let a = args(&["run", "--io-strategy", "sieve", "--sieve-threshold", "128k"]);
        let io = io_options(&a).unwrap();
        assert_eq!(io.strategy, pioblast::IoStrategy::Sieve);
        assert_eq!(io.sieve_threshold, 128_000);

        let defaults = io_options(&args(&["run"])).unwrap();
        assert_eq!(defaults, pioblast::IoOptions::default());

        assert!(io_options(&args(&["run", "--io-strategy", "mmap"])).is_err());

        let burst =
            |cap: &str| io_options(&args(&["run", "--burst-buffer", "--burst-capacity", cap]));
        assert_eq!(burst("64M").unwrap().burst.unwrap().capacity, 64 << 20);
        assert!(burst("20000000000G").is_err(), "overflowing size accepted");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(dispatch(&args(&["run", "--program", "pio"])).is_err());
        assert!(dispatch(&args(&["nope"])).is_err());
        assert!(dispatch(&args(&[
            "run",
            "--program",
            "xyz",
            "--procs",
            "4",
            "--db-dir",
            "/nonexistent",
            "--queries",
            "x",
            "--out",
            "y",
        ]))
        .is_err());
        let help = dispatch(&args(&["help"])).unwrap();
        assert!(help.contains("USAGE"));
        assert_eq!(dispatch(&args(&["--help"])).unwrap(), help);
    }

    #[test]
    fn unknown_and_misused_options_are_rejected_before_running() {
        // The database and query paths do not exist: each call fails on
        // its option before the subcommand touches a file.
        for (extra, option) in [
            (&["--recovr"][..], "--recovr"),
            (&["--thread", "4"][..], "--thread"),
            (&["--measured", "1"][..], "--measured"),
            (&["--stripe-files", "4"][..], "--stripe-files"),
        ] {
            let mut v = vec![
                "run",
                "--program",
                "pio",
                "--procs",
                "4",
                "--db-dir",
                "/nonexistent",
                "--queries",
                "q.fa",
                "--out",
                "out.txt",
            ];
            v.extend_from_slice(extra);
            let err = dispatch(&args(&v)).unwrap_err();
            assert!(
                err.0.contains(option) && err.0.contains("run"),
                "{extra:?}: {err}"
            );
        }
    }

    #[test]
    fn out_of_range_numbers_are_rejected_before_running() {
        // As above, the paths do not exist: each call fails on its
        // number, naming the option, before any file is read.
        let paths = [
            "--db-dir",
            "/nonexistent",
            "--queries",
            "q.fa",
            "--out",
            "out.txt",
        ];
        for (cmd, extra) in [
            ("serve", ["--users", "4294967297"]),
            ("serve", ["--users", "0"]),
            ("serve", ["--resident-mb", "17592186044416"]),
            ("serve", ["--mean-gap-ms", "18446744073710"]),
            ("serve", ["--mean-gap-ms", "18446744073709"]),
            ("serve", ["--frags", "0"]),
            ("run", ["--frags", "0"]),
            ("run", ["--batch", "0"]),
        ] {
            let mut v = vec![cmd, "--procs", "4"];
            if cmd == "run" {
                v.extend_from_slice(&["--program", "pio"]);
            }
            v.extend_from_slice(&paths);
            v.extend_from_slice(&extra);
            let err = dispatch(&args(&v)).unwrap_err();
            assert!(err.0.contains(extra[0]), "{cmd} {extra:?}: {err}");
        }
        // In-range values get past the numbers to the missing database.
        let v = [
            "serve",
            "--procs",
            "4",
            "--users",
            "4294967295",
            "--resident-mb",
            "17592186044415",
            "--mean-gap-ms",
            "1000000",
        ];
        let err = dispatch(&args(&[&v[..], &paths[..]].concat())).unwrap_err();
        assert!(err.0.starts_with("I/O error"), "{err}");
    }

    #[test]
    fn option_tables_match_the_usage_synopsis() {
        // Each synopsis line under USAGE: starts `pioblast-sim <cmd>`;
        // indented continuation lines extend the last command. `[--x]`
        // is a flag; `--x VALUE` and `[--x VALUE]` take a value.
        let mut synopsis: Vec<(&str, Vec<(String, OptKind)>)> = Vec::new();
        let body = USAGE.split("USAGE:\n").nth(1).unwrap();
        for line in body.lines().take_while(|l| !l.trim().is_empty()) {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"pioblast-sim") {
                words.next();
                let cmd = words.next().unwrap();
                if synopsis.last().map(|(c, _)| *c) != Some(cmd) {
                    synopsis.push((cmd, Vec::new()));
                }
            }
            let opts = &mut synopsis.last_mut().unwrap().1;
            for word in words {
                let Some(name) = word.trim_start_matches('[').strip_prefix("--") else {
                    continue;
                };
                opts.push(match name.strip_suffix(']') {
                    Some(flag) => (flag.to_string(), Flag),
                    None => (name.to_string(), Value),
                });
            }
        }
        for (cmd, _, known) in SUBCOMMANDS {
            let mut table: Vec<(String, OptKind)> =
                known.iter().map(|&(n, k)| (n.to_string(), k)).collect();
            let mut listed = synopsis
                .iter()
                .find(|(c, _)| c == cmd)
                .map(|(_, o)| o.clone())
                .unwrap_or_default();
            table.sort_by(|a, b| a.0.cmp(&b.0));
            listed.sort_by(|a, b| a.0.cmp(&b.0));
            listed.dedup();
            assert_eq!(table, listed, "{cmd}: option table vs USAGE synopsis");
        }
        let covered: Vec<&str> = synopsis.iter().map(|(c, _)| *c).collect();
        for cmd in covered {
            assert!(
                SUBCOMMANDS.iter().any(|(c, _, _)| *c == cmd),
                "USAGE lists {cmd}, which dispatch does not know"
            );
        }
    }
}
