//! Per-layer probes for the repository benchmark (`perfbench/run.py`).
//!
//! `run.py` runs the CLI for end-to-end numbers; this binary times the
//! library layers underneath it on the same workload inputs. Each
//! subcommand prints one JSON object on stdout:
//!
//! * `serial` — build the serial reference report(s) with
//!   `mpiblast::report::serial_report`: the oracle every CLI report is
//!   compared against byte for byte.
//! * `layers` — time `PreparedQueries::prepare`, the `BlastSearcher`
//!   scan, the `MetaSubmission` wire codec, `merge_and_layout` and the
//!   DES engine (`Sim::run` with an empty and a ping-pong body), with a
//!   host-time span around each call.
//! * `trace` — rebuild a CLI Chrome trace in memory, time
//!   `export_chrome` on it and fold its critical path per phase.
//!
//! Inputs are the files the CLI reads: a formatted database directory
//! and a query FASTA, optionally split into a seeded query stream exactly
//! as `pioblast-sim serve` splits it.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use blast_core::alphabet::Molecule;
use blast_core::fasta;
use blast_core::format::ReportConfig;
use blast_core::search::{
    BlastSearcher, PreparedQueries, SearchParams, SearchScratch, SearchStats,
};
use blast_core::SeqRecord;
use bytes::Bytes;
use mpiblast::report::{serial_report, ReportOptions};
use mpiblast::wire::MetaSubmission;
use pioblast::{merge_and_layout, phases, QueryStreamPlan, ResultCache};
use seqfmt::{FormattedDb, FragmentData};
use simcluster::{Sim, SimDuration};
use tracelog::{ArgVal, EventKind, Lane, Tracer};

/// The critical-path precedence the repository's benches use: an instant
/// where any rank searches counts as search; copy/input gate output.
const PHASE_PRECEDENCE: [&str; 5] = [
    phases::SEARCH,
    phases::COPY,
    phases::INPUT,
    phases::OUTPUT,
    phases::OTHER,
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serial") => Opts::parse(&argv[1..]).and_then(|o| cmd_serial(&o)),
        Some("layers") => Opts::parse(&argv[1..]).and_then(|o| cmd_layers(&o)),
        Some("trace") => Opts::parse(&argv[1..]).and_then(|o| cmd_trace(&o)),
        _ => Err("usage: perfbench-layers serial|layers|trace --key value ...".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` options.
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        self.str(key)?.parse().map_err(|e| format!("--{key}: {e}"))
    }
}

/// The database and the query batches one CLI call searches: the whole
/// query file for `run`, the stream's batches for `serve`.
struct Inputs {
    db: FormattedDb,
    batches: Vec<Vec<SeqRecord>>,
}

fn load_inputs(o: &Opts) -> Result<Inputs, String> {
    let db = pioblast_cli::commands::load_db(o.str("db-dir")?).map_err(|e| e.to_string())?;
    let path = o.str("queries")?;
    let text = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let queries = fasta::parse(Molecule::Protein, &text).map_err(|e| format!("{path}: {e}"))?;
    let batches = match o.0.get("stream-batches") {
        None => vec![queries],
        Some(_) => {
            let plan = QueryStreamPlan::generate(
                o.num("users")? as u32,
                o.num("stream-batches")? as usize,
                queries.len(),
                o.num("mean-gap-ms")? * 1_000_000,
                o.num("seed")?,
            );
            plan.partition(&queries).map_err(|e| e.to_string())?
        }
    };
    Ok(Inputs { db, batches })
}

/// Host-time spans around each layer call, in seconds since start.
struct Spans {
    origin: Instant,
    spans: Vec<(String, f64, f64)>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its seconds and result.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push((name.to_string(), start, end));
        (end - start, out)
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|(n, s, e)| format!("[\"{n}\",{s},{e}]"))
            .collect();
        format!("[{}]", rows.join(","))
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// `serial`: write the serial reference for each batch — `<out>` for a
/// one-shot run, `<out>.q<b>` for stream batch `b` — and report the
/// seconds it took.
fn cmd_serial(o: &Opts) -> Result<String, String> {
    let inputs = load_inputs(o)?;
    let out = o.str("out")?;
    let stream = o.0.contains_key("stream-batches");
    let params = SearchParams::blastp();
    let mut spans = Spans::new();
    let mut secs = 0.0;
    for (b, queries) in inputs.batches.into_iter().enumerate() {
        let (dt, report) = spans.time("ref.serial", || {
            serial_report(&params, queries, &inputs.db, ReportOptions::default())
        });
        secs += dt;
        let report = report.map_err(|e| e.to_string())?;
        let path = if stream {
            format!("{out}.q{b}")
        } else {
            out.to_string()
        };
        fs::write(&path, report).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(json_object(&[
        ("serial_s", secs.to_string()),
        ("spans", spans.json()),
    ]))
}

/// One batch's prepared queries and the per-rank metadata its search
/// produced (index 0 is the master's empty submission).
struct BatchWork {
    prepared: PreparedQueries,
    subs: Vec<MetaSubmission>,
}

/// `layers`: time each library layer on the workload's inputs.
fn cmd_layers(o: &Opts) -> Result<String, String> {
    let inputs = load_inputs(o)?;
    let nprocs = o.num("procs")? as usize;
    let pool = o.num("pool-threads")? as usize;
    let messages = o.num("messages")?;
    if nprocs < 2 {
        return Err("--procs must be at least 2".into());
    }
    let db = &inputs.db;
    let params = SearchParams::blastp();
    let stats = db.stats();
    let report_cfg = ReportConfig::for_molecule(db.alias.molecule, db.alias.title.clone(), stats);
    let mut spans = Spans::new();

    // The fragments the run's workers search: one virtual fragment per
    // worker, sliced from the formatted volumes.
    let (_, frags): (_, Vec<FragmentData>) = spans.time("seqfmt.fragments", || {
        let indexes: Vec<_> = db.volumes.iter().map(|v| &v.index).collect();
        seqfmt::virtual_fragments(&indexes, nprocs - 1)
            .iter()
            .map(|s| FragmentData::from_volume_slice(&db.volumes[s.volume], s))
            .collect()
    });

    // blast-core: prepare each batch (several times when there is only
    // one), then scan every fragment with it.
    let reps = if inputs.batches.len() == 1 { 7 } else { 1 };
    let mut prepare_s = Vec::new();
    let mut scan_s = 0.0;
    let mut search = SearchStats::default();
    let mut work = Vec::new();
    for queries in &inputs.batches {
        let mut prepared = None;
        for _ in 0..reps {
            let (dt, p) = spans.time("blast.prepare", || {
                PreparedQueries::prepare(&params, queries.clone(), stats)
            });
            prepare_s.push(dt);
            prepared = Some(p);
        }
        let prepared = prepared.expect("at least one prepare repetition");
        let searcher = BlastSearcher::new(&params, &prepared);
        let mut scratch = SearchScratch::new();
        let mut caches: Vec<ResultCache> = (1..nprocs).map(|_| ResultCache::default()).collect();
        for (i, frag) in frags.iter().enumerate() {
            let (dt, result) = spans.time("blast.scan", || searcher.search(frag, &mut scratch));
            scan_s += dt;
            search.merge(&result.stats);
            caches[i % (nprocs - 1)]
                .add_fragment(&params, &report_cfg, &prepared, frag, result.per_query)
                .map_err(|e| e.to_string())?;
        }
        let mut subs = vec![MetaSubmission::default()];
        subs.extend(caches.iter().map(ResultCache::metadata));
        work.push(BatchWork { prepared, subs });
    }

    // mpiblast wire codec: every worker submission of every batch.
    let all_subs: Vec<&MetaSubmission> = work.iter().flat_map(|w| w.subs.iter()).collect();
    let hits: usize = all_subs
        .iter()
        .flat_map(|s| s.per_query.iter())
        .map(|(_, h)| h.len())
        .sum();
    let mut enc_s = Vec::new();
    let mut dec_s = Vec::new();
    for _ in 0..5 {
        let (dt, encoded) = spans.time("wire.encode", || {
            all_subs.iter().map(|s| s.encode()).collect::<Vec<_>>()
        });
        enc_s.push(dt);
        let (dt, decoded) = spans.time("wire.decode", || {
            encoded
                .iter()
                .map(|b| MetaSubmission::decode(b))
                .collect::<Result<Vec<_>, _>>()
        });
        dec_s.push(dt);
        let decoded = decoded.map_err(|e| format!("wire decode: {e}"))?;
        if decoded.iter().zip(&all_subs).any(|(d, s)| d != *s) {
            return Err("wire round trip changed a MetaSubmission".into());
        }
    }
    let per_hit = |s: f64| s * 1e9 / hits.max(1) as f64;

    // pioblast merge: one merge per batch (median of three), summed.
    let mut merge_s = 0.0;
    for w in &work {
        let mut xs = Vec::new();
        for _ in 0..3 {
            let (dt, _) = spans.time("merge", || {
                merge_and_layout(
                    &report_cfg,
                    &params,
                    &w.prepared,
                    &w.subs,
                    ReportOptions::default(),
                    0,
                )
            });
            xs.push(dt);
        }
        merge_s += median(xs);
    }

    // simcluster engine: the workload's rank count with an empty body,
    // then the same ranks exchanging the workload's message count.
    let mut empty_s = Vec::new();
    let mut pingpong_s = Vec::new();
    for _ in 0..5 {
        empty_s.push(
            spans
                .time("des.empty", || Sim::with_pool(nprocs, pool).run(|_ctx| ()))
                .0,
        );
        pingpong_s.push(
            spans
                .time("des.pingpong", || ping_pong(nprocs, pool, messages))
                .0,
        );
    }
    let (empty_s, pingpong_s) = (median(empty_s), median(pingpong_s));

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let metrics = [
        ("blast.prepare_ms", median(prepare_s) * 1e3),
        (
            "blast.prepare_calls",
            (nprocs * inputs.batches.len()) as f64,
        ),
        (
            "blast.scan_ns_per_res",
            scan_s * 1e9 / search.residues.max(1) as f64,
        ),
        ("blast.seed_hits", search.seed_hits as f64),
        (
            "blast.ungapped_per_seed",
            ratio(search.ungapped_extensions, search.seed_hits),
        ),
        (
            "blast.gapped_per_ungapped",
            ratio(search.gapped_extensions, search.ungapped_extensions),
        ),
        (
            "blast.hsps_per_gapped",
            ratio(search.hsps_kept, search.gapped_extensions),
        ),
        ("wire.encode_ns_per_hit", per_hit(median(enc_s))),
        ("wire.decode_ns_per_hit", per_hit(median(dec_s))),
        ("wire.hits", hits as f64),
        ("merge.ms", merge_s * 1e3),
        (
            "des.host_ns_per_msg",
            (pingpong_s - empty_s) * 1e9 / messages.max(1) as f64,
        ),
        ("des.host_ms_per_rank", empty_s * 1e3 / nprocs as f64),
    ];
    let metrics: Vec<(&str, String)> = metrics.iter().map(|(k, v)| (*k, v.to_string())).collect();
    Ok(json_object(&[
        ("metrics", json_object(&metrics)),
        ("spans", spans.json()),
    ]))
}

/// Rank 0 exchanges `messages` messages (half pings, half pongs) with
/// the other ranks in turn; nothing else runs.
fn ping_pong(nranks: usize, pool: usize, messages: u64) {
    let pings = (messages / 2).max(1) as usize;
    let workers = nranks - 1;
    Sim::with_pool(nranks, pool).run(|ctx| {
        let rank = ctx.rank();
        if rank == 0 {
            for i in 0..pings {
                let dst = 1 + i % workers;
                ctx.post(dst, 1, Bytes::copy_from_slice(&[]), SimDuration(1_000));
                ctx.recv(Some(dst), Some(2));
            }
        } else {
            let mine = pings / workers + usize::from(rank - 1 < pings % workers);
            for _ in 0..mine {
                ctx.recv(Some(0), Some(1));
                ctx.post(0, 2, Bytes::copy_from_slice(&[]), SimDuration(1_000));
            }
        }
    });
}

/// `trace`: rebuild a CLI trace in memory, time its Chrome export and
/// fold its critical path.
fn cmd_trace(o: &Opts) -> Result<String, String> {
    let path = o.str("in")?;
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spans = Spans::new();
    let trace = spans.time("trace.rebuild", || rebuild_trace(&text)).1?;
    let mut export_s = Vec::new();
    for _ in 0..3 {
        let (dt, _) = spans.time("trace.export", || {
            tracelog::chrome::export_chrome(&trace, None)
        });
        export_s.push(dt);
    }
    let (_, path_ns) = spans.time("trace.critical_path", || {
        tracelog::analyze::critical_path(&trace, &PHASE_PRECEDENCE)
    });
    let mut crit = Vec::new();
    for phase in PHASE_PRECEDENCE {
        crit.push((phase, path_ns.get(phase).to_string()));
    }
    Ok(json_object(&[
        ("events", trace.events.len().to_string()),
        ("wall_ns", trace.wall.to_string()),
        ("export_ms", (median(export_s) * 1e3).to_string()),
        ("critical_path_ns", json_object(&crit)),
        ("spans", spans.json()),
    ]))
}

/// Parse the exporter's one-event-per-line Chrome JSON back into a
/// [`tracelog::Trace`]. Metadata lines are regenerated by the exporter
/// and skipped here; per-slot search sub-lanes are not mapped back.
fn rebuild_trace(text: &str) -> Result<tracelog::Trace, String> {
    let mut keys: HashMap<String, &'static str> = HashMap::new();
    let mut events = Vec::new();
    let mut nranks = 0usize;
    let mut wall = 0u64;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let bad = |what: &str| format!("trace line {}: {what}", lineno + 1);
        let ph = str_field(line, "ph").ok_or_else(|| bad("no ph"))?;
        let pid = num_field(line, "pid").ok_or_else(|| bad("no pid"))? as usize;
        nranks = nranks.max(pid + 1);
        if ph == "M" {
            continue;
        }
        let tid = num_field(line, "tid").ok_or_else(|| bad("no tid"))?;
        let Some(lane) = Lane::ALL.into_iter().find(|l| l.tid() == tid) else {
            continue;
        };
        let name = str_field(line, "name").ok_or_else(|| bad("no name"))?;
        let t = ts_field(line).ok_or_else(|| bad("no ts"))?;
        wall = wall.max(t);
        let mut args = Vec::new();
        for (k, v) in args_field(line) {
            let key: &'static str = match keys.get(k) {
                Some(key) => key,
                None => {
                    let leaked: &'static str = Box::leak(k.to_string().into_boxed_str());
                    keys.insert(k.to_string(), leaked);
                    leaked
                }
            };
            args.push((key, v));
        }
        let kind = match ph {
            "B" => EventKind::Begin,
            "E" => EventKind::End,
            "i" => EventKind::Instant,
            "C" => {
                let value = match args.first() {
                    Some((_, ArgVal::U64(v))) => *v,
                    _ => return Err(bad("counter without a value")),
                };
                args.clear();
                EventKind::Counter(value)
            }
            other => return Err(bad(&format!("unknown ph {other:?}"))),
        };
        events.push((pid, t, lane, kind, name.to_string(), args));
    }
    let tracer = Tracer::with_capacity(nranks, events.len() + 1);
    for (rank, t, lane, kind, name, args) in events {
        tracer.record(rank, t, lane, kind, Cow::Owned(name), args);
    }
    Ok(tracer.finish(wall))
}

/// The string value of `"key":"..."` (the exporter never escapes quotes
/// in the fields read here).
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// `"ts":<us>.<3 digits>` as integer nanoseconds.
fn ts_field(line: &str) -> Option<u64> {
    let start = line.find("\"ts\":")? + 5;
    let text: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    let (us, frac) = text.split_once('.').unwrap_or((&text, "0"));
    let mut frac = frac.to_string();
    while frac.len() < 3 {
        frac.push('0');
    }
    Some(us.parse::<u64>().ok()? * 1000 + frac[..3].parse::<u64>().ok()?)
}

/// The flat `"args":{...}` object: integers and plain strings.
fn args_field(line: &str) -> Vec<(&str, ArgVal)> {
    let Some(start) = line.find("\"args\":{").map(|i| i + 8) else {
        return Vec::new();
    };
    let Some(len) = line[start..].rfind('}') else {
        return Vec::new();
    };
    let body = &line[start..start + len];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(kstart) = rest.find('"') {
        let after = &rest[kstart + 1..];
        let Some(kend) = after.find('"') else { break };
        let key = &after[..kend];
        let value = after[kend + 1..].trim_start_matches(':');
        if let Some(s) = value.strip_prefix('"') {
            let Some(vend) = s.find('"') else { break };
            out.push((key, ArgVal::Str(Cow::Owned(s[..vend].to_string()))));
            rest = &s[vend + 1..];
        } else {
            let digits: String = value.chars().take_while(|c| c.is_ascii_digit()).collect();
            out.push((key, ArgVal::U64(digits.parse().unwrap_or(0))));
            rest = &value[digits.len()..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exporter_fields() {
        let line = r#"{"name":"service.done","ph":"i","pid":0,"tid":5,"ts":118721.438,"s":"t","args":{"query":0,"latency_ns":118721438}}"#;
        assert_eq!(str_field(line, "name"), Some("service.done"));
        assert_eq!(num_field(line, "tid"), Some(5));
        assert_eq!(ts_field(line), Some(118_721_438));
        let args = args_field(line);
        assert_eq!(args.len(), 2);
        assert_eq!(args[1].0, "latency_ns");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
