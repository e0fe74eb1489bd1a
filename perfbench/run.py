#!/usr/bin/env python3
"""The repository benchmark: the pioblast-sim pipeline on two clocks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scale512|search16|serve_nfs \
        --seed N --seconds S --trace 0|1

`run.py` builds `pioblast-sim` and the layer probes
(`perfbench/layers`) from source, generates the workload's inputs from
the seed with `pioblast-sim gen/formatdb/sample`, builds the serial
reference reports, then runs the CLI one child process at a time for
`--seconds` seconds and checks every report byte for byte against the
reference. It prints a metric table (name, value, unit, clock) and, as
its last line, one JSON object: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

# Rank-pool width for every CLI call: fixed, and never wider than the host.
POOL = max(1, min(2, os.cpu_count() or 1))
SETUP_REPS = 5
# Each run must end within 180 s of wall time, the build aside.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0

WORKLOADS = {
    "scale512": {
        "kind": "run",
        "residues": "2M",
        "queries": (8, 300),
        "procs": 512,
        "platform": "blade",
    },
    "search16": {
        "kind": "run",
        "residues": "6M",
        "queries": (18, 300),
        "procs": 16,
        "platform": "altix",
    },
    "serve_nfs": {
        "kind": "serve",
        "residues": "750k",
        "queries": (64, 125),
        "procs": 16,
        "platform": "blade",
        "users": 8,
        "batches": 48,
        "flags": ["--affinity", "--resident-mb", "64", "--io-async", "--burst-buffer"],
        # Leg name -> mean inter-arrival gap in ms.
        "legs": {"saturating": 1, "paced": 60},
    },
}

# The order and clock of every metric this script prints.
END_TO_END = [
    ("host_s", "s", "host"),
    ("virtual_s", "s", "virtual"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("serve_bps", "1/s", "virtual"),
    ("serve_p50_s", "s", "virtual"),
    ("serve_tail_s", "s", "virtual"),
]
PER_LAYER = [
    ("blast.prepare_ms", "ms", "host"),
    ("blast.prepare_calls", "count", "count"),
    ("blast.scan_ns_per_res", "ns", "host"),
    ("blast.seed_hits", "count", "count"),
    ("blast.ungapped_per_seed", "ratio", "count"),
    ("blast.gapped_per_ungapped", "ratio", "count"),
    ("blast.hsps_per_gapped", "ratio", "count"),
    ("ref.serial_s", "s", "host"),
    ("seqfmt.gen_s", "s", "host"),
    ("seqfmt.formatdb_s", "s", "host"),
    ("wire.encode_ns_per_hit", "ns", "host"),
    ("wire.decode_ns_per_hit", "ns", "host"),
    ("merge.ms", "ms", "host"),
    ("vt.phase.input_s", "s", "virtual"),
    ("vt.phase.search_s", "s", "virtual"),
    ("vt.phase.output_s", "s", "virtual"),
    ("vt.phase.other_s", "s", "virtual"),
    ("cache.hit_rate", "ratio", "count"),
    ("cache.evictions", "count", "count"),
    ("des.host_ns_per_msg", "ns", "host"),
    ("des.host_ms_per_rank", "ms", "host"),
    ("net.messages", "count", "count"),
    ("vt.net.recv_s", "s", "virtual"),
    ("vt.net.collective_s", "s", "virtual"),
    ("vt.io.plane_read_s", "s", "virtual"),
    ("vt.io.plane_write_s", "s", "virtual"),
    ("vt.io.plane_wait_s", "s", "virtual"),
    ("vt.io.fs_read_s", "s", "virtual"),
    ("vt.io.fs_write_s", "s", "virtual"),
    ("io.data_ops", "count", "count"),
    ("vt.stage.put_s", "s", "virtual"),
    ("vt.stage.drain_s", "s", "virtual"),
    ("stage.backpressure", "count", "count"),
    ("trace.events", "count", "count"),
    ("trace.export_ms", "ms", "host"),
    ("trace.overhead_pct", "%", "host"),
    ("model.search_ratio", "ratio", "virtual"),
    ("model.other_ratio", "ratio", "virtual"),
    ("model.output_ratio", "ratio", "virtual"),
    ("host.pool1_s", "s", "host"),
]
# Printed but not reported in the JSON line (see README.md).
EXTRA = [
    ("fail_frac", "ratio", "count"),
    ("host_samples", "count", "count"),
    ("host_tail_s", "s", "host"),
    ("wire.hits", "count", "count"),
]

SUMMARY_RUN = re.compile(r"([0-9.]+)s virtual time, (\d+) messages")
SUMMARY_SERVE = re.compile(r"in ([0-9.]+)s virtual time")


class Failure(Exception):
    """A setup step that leaves nothing to measure."""


class Bench:
    def __init__(self, args):
        self.args = args
        self.w = WORKLOADS[args.workload]
        self.t0 = time.perf_counter()
        self.started = 0.0
        self.target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.cli = os.path.join(self.target, "release", "pioblast-sim")
        self.probe = os.path.join(self.target, "release", "perfbench-layers")
        self.state_dir = os.path.join(self.target, "perfbench")
        self.work = os.path.join(
            self.state_dir, "work", f"{args.workload}-s{args.seed}-{os.getpid()}"
        )
        self.spans = []  # host-time spans, kept in memory until exit
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.m = {}  # metric name -> value
        self.notes = {}  # metric name -> remark printed beside it

    # -- bookkeeping -------------------------------------------------

    def now(self):
        return time.perf_counter() - self.t0

    def span(self, name, start, end, parent=None, cat="bench"):
        self.spans.append(
            {"id": len(self.spans), "name": name, "cat": cat,
             "start": start, "end": end, "parent": parent}
        )
        return len(self.spans) - 1

    def fail(self, what, ops=1):
        """Count `ops` failed operations (also attempted) and say why."""
        self.attempted += ops
        self.failed += ops
        self.problems.append(what)

    def ok(self, ops=1):
        self.attempted += ops

    def drift(self, what):
        """A determinism violation: a failure, never an average."""
        self.failed += 1
        self.attempted += 1
        self.problems.append("drift: " + what)

    # -- child processes ---------------------------------------------

    def child(self, name, argv, timeout=None, cat="cli"):
        """Run one child to completion; returns (rc, wall_s, stdout, peak_rss_mb)."""
        if timeout is None:
            left = RUN_BUDGET_S - (self.now() - self.started)
            timeout = max(5.0, left)
        os.makedirs(self.work, exist_ok=True)
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = self.now()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            # The child stays a zombie until reaped under the lock, so a
            # timeout can never signal a recycled pid.
            lock, reaped = threading.Lock(), threading.Event()

            def expire():
                with lock:
                    if not reaped.is_set():
                        proc.kill()

            timer = threading.Timer(timeout, expire)
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                end = self.now()
                with lock:
                    _, status, usage = os.wait4(proc.pid, 0)
                    reaped.set()
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.span(name, start, end, cat=cat)
        with open(out_path, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as f:
                sys.stderr.write(f"[{name}] exit {proc.returncode}: {f.read()[-2000:]}\n")
        return proc.returncode, end - start, stdout, usage.ru_maxrss / 1024.0

    def probe_json(self, name, argv):
        rc, wall, out, _ = self.child(name, [self.probe] + argv, cat="probe")
        if rc != 0:
            raise Failure(f"{name} exited {rc}")
        data = json.loads(out.strip().splitlines()[-1])
        parent = len(self.spans) - 1
        start = self.spans[parent]["start"]
        for n, s, e in data.pop("spans", []):
            self.span(n, start + s, start + e, parent=parent, cat="layer")
        return data, wall

    # -- phases ------------------------------------------------------

    def build(self):
        for what, argv in (
            ("build.cli", ["cargo", "build", "--release", "--offline", "-q",
                           "-p", "pioblast-cli"]),
            ("build.layers", ["cargo", "build", "--release", "--offline", "-q",
                              "--manifest-path", "perfbench/layers/Cargo.toml"]),
        ):
            start = self.now()
            proc = subprocess.run(
                argv, stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
                env={**os.environ, "CARGO_TARGET_DIR": self.target}, timeout=BUILD_TIMEOUT_S,
            )
            self.span(what, start, self.now(), cat="build")
            if proc.returncode != 0:
                raise Failure(f"{what} failed with exit code {proc.returncode}")

    def setup(self):
        """Generate the inputs SETUP_REPS times; keep the first copy."""
        a, w = self.args, self.w
        count, length = w["queries"]
        totals, gens, fmts = [], [], []
        digests = set()
        for rep in range(SETUP_REPS):
            d = os.path.join(self.work, f"setup{rep}")
            os.makedirs(d, exist_ok=True)
            steps = [
                ("setup.gen", [self.cli, "gen", "--residues", w["residues"],
                               "--out", f"{d}/db.fa", "--seed", str(a.seed)]),
                ("setup.formatdb", [self.cli, "formatdb", "--in", f"{d}/db.fa",
                                    "--title", f"{a.workload}-{a.seed}", "--out-dir", f"{d}/db"]),
                ("setup.sample", [self.cli, "sample", "--in", f"{d}/db.fa",
                                  "--bytes", str(4 * count * length), "--out", f"{d}/raw.fa",
                                  "--seed", str(a.seed + 7919)]),
            ]
            walls = []
            for name, argv in steps:
                rc, wall, _, _ = self.child(name, argv, cat="setup")
                if rc != 0:
                    raise Failure(f"{name} exited {rc}")
                walls.append(wall)
            cut_queries(f"{d}/raw.fa", f"{d}/q.fa", count, length)
            totals.append(sum(walls))
            gens.append(walls[0])
            fmts.append(walls[1])
            digests.add(tuple(file_digest(f"{d}/{f}") for f in ("db.fa", "q.fa")))
        if len(digests) != 1:
            self.drift("gen/sample produced different inputs from one seed")
        self.m["setup_s"] = statistics.median(totals)
        self.m["seqfmt.gen_s"] = statistics.median(gens)
        self.m["seqfmt.formatdb_s"] = statistics.median(fmts)
        self.db = os.path.join(self.work, "setup0", "db")
        self.queries = os.path.join(self.work, "setup0", "q.fa")

    def stream_args(self, gap_ms):
        w = self.w
        return ["--users", str(w["users"]), "--stream-batches", str(w["batches"]),
                "--mean-gap-ms", str(gap_ms), "--seed", str(self.args.seed)]

    def legs(self):
        if self.w["kind"] == "run":
            return ["run"]
        return list(self.w["legs"])

    def oracle(self):
        """Serial reference report(s), outside the timed region."""
        self.ref = os.path.join(self.work, "ref.txt")
        argv = ["serial", "--db-dir", self.db, "--queries", self.queries, "--out", self.ref]
        if self.w["kind"] == "serve":
            argv += self.stream_args(self.w["legs"]["paced"])
        data, _ = self.probe_json("oracle.serial", argv)
        self.m["ref.serial_s"] = data["serial_s"]
        self.ref_digests = {}
        if self.w["kind"] == "run":
            self.ref_digests[None] = file_digest(self.ref)
        else:
            for b in range(self.w["batches"]):
                self.ref_digests[b] = file_digest(f"{self.ref}.q{b}")

    def cli_argv(self, leg, out, extra=()):
        w = self.w
        common = ["--procs", str(w["procs"]), "--platform", w["platform"],
                  "--db-dir", self.db, "--queries", self.queries, "--out", out]
        if w["kind"] == "run":
            argv = [self.cli, "run", "--program", "pio"] + common
        else:
            argv = [self.cli, "serve"] + common + w["flags"] + self.stream_args(w["legs"][leg])
        return argv + ["--pool-threads", str(POOL)] + list(extra)

    def call(self, leg, label, extra=(), pool=None):
        """One CLI call on `leg`, its reports checked against the oracle.

        Returns (wall_s, peak_rss_mb, fingerprint)."""
        out = os.path.join(self.work, f"out-{leg}")
        self.clear_outputs(out)
        argv = self.cli_argv(leg, out, extra)
        if pool is not None:
            argv[argv.index("--pool-threads") + 1] = str(pool)
        rc, wall, stdout, rss = self.child(f"{label}.{leg}", argv)
        ops = len(self.ref_digests)
        if rc != 0:
            self.fail(f"{label}.{leg}: exit code {rc}", ops)
            return wall, rss, None
        bad = []
        for b in self.ref_digests:
            path = out if b is None else f"{out}.q{b}"
            if not os.path.exists(path) or file_digest(path) != self.ref_digests[b]:
                bad.append(b)
        if bad:
            self.fail(f"{label}.{leg}: {len(bad)} report(s) differ from the serial reference",
                      len(bad))
        self.ok(ops - len(bad))
        pattern = SUMMARY_RUN if self.w["kind"] == "run" else SUMMARY_SERVE
        found = pattern.search(stdout)
        fingerprint = found.groups() if found else None
        if fingerprint is None:
            self.drift(f"{label}.{leg}: no virtual time in the CLI summary")
        return wall, rss, fingerprint

    def clear_outputs(self, out):
        base = os.path.basename(out)
        for name in os.listdir(self.work):
            if name == base or name.startswith(base + ".q"):
                os.remove(os.path.join(self.work, name))

    def traced(self, leg, label="traced", extra=()):
        """A traced CLI call: its reports, trace file, baseline and event tally."""
        path = os.path.join(self.work, f"{label}-{leg}.json")
        wall, _, fp = self.call(leg, label, ["--trace", path] + list(extra))
        base = os.path.join(self.work, f"{label}-{leg}.tsv")
        rc, _, _, _ = self.child(f"{label}.baseline.{leg}",
                                 [self.cli, "trace-diff", "--in", path, "--write-baseline", base],
                                 cat="tool")
        if rc != 0:
            raise Failure(f"trace-diff --write-baseline failed on {label}.{leg}")
        return {"path": path, "wall": wall, "fp": fp,
                "baseline": read_baseline(base), "tally": tally_trace(path)}

    def trace_check(self, label, path):
        rc, _, _, _ = self.child(f"trace-check.{label}",
                                 [self.cli, "trace-check", "--in", path], cat="tool")
        if rc == 0:
            self.ok()
        else:
            self.fail(f"trace-check rejected the {label} trace")

    def virtual_pass(self):
        """Exact virtual-clock metrics from one traced call per leg."""
        self.tr = {leg: self.traced(leg) for leg in self.legs()}
        w = self.w
        if w["kind"] == "run":
            t = self.tr["run"]
            vs = t["baseline"]["wall_ns"] / 1e9
            self.m["virtual_s"] = vs
            # A one-shot job is a stream of one batch, due at time zero.
            self.m["serve_bps"] = 1.0 / vs
            self.m["serve_p50_s"] = vs
            self.m["serve_tail_s"] = vs
        else:
            sat, paced = self.tr["saturating"], self.tr["paced"]
            vs = sat["baseline"]["wall_ns"] / 1e9
            self.m["virtual_s"] = vs
            self.m["serve_bps"] = len(sat["tally"]["latencies"]) / vs
            lat = sorted(paced["tally"]["latencies"])
            if len(lat) != w["batches"]:
                self.drift(f"paced leg completed {len(lat)} of {w['batches']} batches")
            if lat:
                self.m["serve_p50_s"] = statistics.median(lat) / 1e9
                value, self.notes["serve_tail_s"] = tail(lat)
                self.m["serve_tail_s"] = value / 1e9

    def timed_loop(self):
        """Untraced passes over the workload's calls for --seconds seconds.

        With --trace 1 each pass is followed by the same calls traced,
        so the tracing overhead comes from interleaved pairs."""
        walls, traced_walls, rss = [], [], []
        start = self.now()
        while True:
            pass_wall = traced_wall = 0.0
            for leg in self.legs():
                wall, peak, fp = self.call(leg, "timed")
                pass_wall += wall
                rss.append(peak)
                if fp != self.tr[leg]["fp"]:
                    self.drift(f"{leg}: untraced summary {fp} vs traced {self.tr[leg]['fp']}")
            if self.args.trace:
                for leg in self.legs():
                    path = os.path.join(self.work, "timed-trace.json")
                    wall, _, fp = self.call(leg, "timed.traced", ["--trace", path])
                    traced_wall += wall
                    if fp != self.tr[leg]["fp"]:
                        self.drift(f"{leg}: traced summary {fp} vs {self.tr[leg]['fp']}")
                traced_walls.append(traced_wall)
            walls.append(pass_wall)
            if self.now() - start >= self.args.seconds:
                break
        if traced_walls:
            self.m["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        self.m["host_s"] = statistics.median(walls)
        self.m["host_samples"] = len(walls)
        self.m["peak_rss_mb"] = max(rss)
        self.m["host_tail_s"], self.notes["host_tail_s"] = tail(walls)

    def layer_pass(self):
        """Per-layer metrics: trace folding, probes and the extra legs."""
        w = self.w
        main_leg = "run" if w["kind"] == "run" else "paced"
        t = self.tr[main_leg]
        for leg, tr in self.tr.items():
            self.trace_check(leg, tr["path"])

        folded, _ = self.probe_json("probe.trace", ["trace", "--in", t["path"]])
        if folded["wall_ns"] != t["baseline"]["wall_ns"]:
            self.drift("probe and trace-diff disagree on the wall clock")
        crit = folded["critical_path_ns"]
        for phase in ("input", "search", "output", "other"):
            self.m[f"vt.phase.{phase}_s"] = crit[phase] / 1e9
        self.m["trace.events"] = folded["events"]
        self.m["trace.export_ms"] = folded["export_ms"]

        rows = t["baseline"]["rows"]
        busy = lambda lane, name: rows.get((lane, name), 0) / 1e9
        self.m["vt.net.recv_s"] = busy("net", "recv")
        self.m["vt.net.collective_s"] = sum(
            ns for (lane, name), ns in rows.items()
            if lane == "net" and name not in ("send", "recv")) / 1e9
        self.m["vt.io.plane_read_s"] = busy("io", "plane.read")
        self.m["vt.io.plane_write_s"] = busy("io", "plane.write")
        self.m["vt.io.plane_wait_s"] = busy("io", "plane.async.wait")
        self.m["vt.io.fs_read_s"] = busy("io", "fs.read")
        self.m["vt.io.fs_write_s"] = busy("io", "fs.write")
        self.m["vt.stage.put_s"] = busy("io", "stage.put")
        self.m["vt.stage.drain_s"] = busy("io", "stage.drain")
        c = t["tally"]["counts"]
        self.m["io.data_ops"] = (c.get(("B", "fs.read"), 0) + c.get(("B", "fs.write"), 0)
                                 + c.get(("i", "fs.read.begin"), 0)
                                 + c.get(("i", "fs.write.begin"), 0))
        hits, misses = c.get(("i", "cache.hit"), 0), c.get(("i", "cache.miss"), 0)
        self.m["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        self.m["cache.evictions"] = c.get(("i", "store.evict"), 0)
        self.m["stage.backpressure"] = c.get(("i", "stage.backpressure"), 0)
        if w["kind"] == "run":
            messages = int(t["fp"][1]) if t["fp"] else c.get(("B", "send"), 0)
        else:
            messages = c.get(("B", "send"), 0)
        self.m["net.messages"] = messages

        # Pool width 1 against the pinned width: same bytes, same clocks.
        pool1 = 0.0
        for leg in self.legs():
            wall, _, fp = self.call(leg, "pool1", pool=1)
            pool1 += wall
            if fp != self.tr[leg]["fp"]:
                self.drift(f"{leg}: --pool-threads 1 summary {fp} vs {self.tr[leg]['fp']}")
        self.m["host.pool1_s"] = pool1

        # Model residual: measured / modeled critical path per phase.
        measured = self.traced(main_leg, label="measured", extra=["--measured"])
        self.trace_check("measured", measured["path"])
        mfold, _ = self.probe_json("probe.trace.measured", ["trace", "--in", measured["path"]])
        for phase in ("search", "other", "output"):
            modeled = crit[phase]
            self.m[f"model.{phase}_ratio"] = (
                mfold["critical_path_ns"][phase] / modeled if modeled else 0.0)

        # Library layers replayed on this workload's inputs.
        argv = ["layers", "--db-dir", self.db, "--queries", self.queries,
                "--procs", str(w["procs"]), "--pool-threads", str(POOL),
                "--messages", str(messages)]
        if w["kind"] == "serve":
            argv += self.stream_args(w["legs"]["paced"])
        layers, _ = self.probe_json("probe.layers", argv)
        self.m.update(layers["metrics"])

    def check_history(self):
        """Virtual results must repeat exactly across runs of one build."""
        key = {leg: {"wall_ns": tr["baseline"]["wall_ns"],
                     "summary": list(tr["fp"] or []),
                     "busy_ns": {f"{lane}/{name}": ns
                                 for (lane, name), ns in sorted(tr["baseline"]["rows"].items())},
                     "events": {f"{ph} {name}": n
                                for (ph, name), n in sorted(tr["tally"]["counts"].items())},
                     "latencies": sorted(tr["tally"]["latencies"])}
               for leg, tr in self.tr.items()}
        hist_dir = os.path.join(self.state_dir, "history")
        os.makedirs(hist_dir, exist_ok=True)
        # Keyed by the CLI binary and this script, so only a rerun of the
        # same code is compared.
        build = hashlib.sha256((file_digest(self.cli) + file_digest(__file__)).encode())
        path = os.path.join(hist_dir, f"{build.hexdigest()[:16]}-{self.args.workload}"
                                      f"-{self.args.seed}.json")
        if os.path.exists(path):
            with open(path) as f:
                if json.load(f) != key:
                    self.drift("virtual results differ from an earlier run of this build")
        else:
            tmp = path + f".{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(key, f)
            os.replace(tmp, path)

    # -- output ------------------------------------------------------

    def write_spans(self):
        """Write the in-memory host spans as a Chrome trace."""
        spans_dir = os.path.join(self.state_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        events = [
            {"name": s["name"], "cat": s["cat"], "ph": "X", "pid": 0,
             "tid": 1 if s["cat"] == "layer" else 0,
             "ts": round(s["start"] * 1e6, 3), "dur": round((s["end"] - s["start"]) * 1e6, 3),
             "args": {"id": s["id"], "parent": s["parent"]}}
            for s in self.spans
        ]
        path = os.path.join(
            spans_dir, f"{self.args.workload}-s{self.args.seed}-t{self.args.trace}.json")
        with open(path, "w") as f:
            json.dump(events, f)

    def report(self):
        self.m["fail_frac"] = self.failed / max(1, self.attempted)
        chosen = PER_LAYER if self.args.trace else END_TO_END
        missing = [name for name, _, _ in chosen if name not in self.m]
        if missing:
            self.problems.append(f"missing metrics: {missing}")
        print(f"# workload {self.args.workload}, seed {self.args.seed}, "
              f"pool width {POOL}, {self.attempted} operations, {self.failed} failed")
        for p in self.problems:
            print(f"# problem: {p}")
        rows = END_TO_END + EXTRA + (PER_LAYER if self.args.trace else [])
        print(f"{'metric':<26} {'value':>16} {'unit':<6} clock")
        for name, unit, clock in rows:
            if name in self.m:
                note = f"  ({self.notes[name]})" if name in self.notes else ""
                print(f"{name:<26} {fmt(self.m[name]):>16} {unit:<6} {clock}{note}")
        print(json.dumps({
            "correct": self.failed == 0 and not missing,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": self.m[name], "unit": unit}
                        for name, unit, _ in chosen if name in self.m},
        }))

    def run(self):
        try:
            self.build()
            self.started = self.now()
            self.setup()
            self.oracle()
            self.virtual_pass()
            self.timed_loop()
            if self.args.trace:
                self.layer_pass()
            self.check_history()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            self.write_spans()
        self.report()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cut_queries(raw, out, count, length):
    """Cut sampled sequences into `count` queries of exactly `length`
    residues, in file order, so every seed searches the same amount of
    query material."""
    seqs, cur = [], None
    with open(raw) as f:
        for line in f:
            if line.startswith(">"):
                cur = []
                seqs.append(cur)
            elif cur is not None:
                cur.append(line.strip())
    chunks = []
    for parts in seqs:
        seq = "".join(parts)
        chunks += [seq[i:i + length] for i in range(0, len(seq) - length + 1, length)]
    if len(chunks) < count:
        raise Failure(f"{raw}: {len(chunks)} chunks of {length} residues, need {count}")
    with open(out, "w") as f:
        for i, q in enumerate(chunks[:count]):
            f.write(f">query{i} {length} residues cut from a sampled sequence\n")
            f.writelines(q[j:j + 60] + "\n" for j in range(0, length, 60))


def read_baseline(path):
    """A `trace-diff --write-baseline` file: wall clock and busy ns per (lane, span)."""
    wall, rows = None, {}
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "wall_ns":
                wall = int(parts[1])
            elif len(parts) == 3:
                rows[(parts[0], parts[1])] = int(parts[2])
    if wall is None:
        raise Failure(f"{path}: no wall_ns line")
    return {"wall_ns": wall, "rows": rows}


EVENT = re.compile(r'^\{"name":"([^"]*)","ph":"(.)"')
LATENCY = re.compile(r'"latency_ns":(\d+)')


def tally_trace(path):
    """Count (ph, name) pairs of a Chrome trace and collect the
    `service.done` latencies (ns from each batch's due time)."""
    counts, latencies = {}, []
    with open(path) as f:
        for line in f:
            m = EVENT.match(line)
            if not m:
                continue
            name, ph = m.groups()
            counts[(ph, name)] = counts.get((ph, name), 0) + 1
            if name == "service.done":
                lat = LATENCY.search(line)
                if lat:
                    latencies.append(int(lat.group(1)))
    return {"counts": counts, "latencies": latencies}


def tail(values):
    """The highest percentile with at least ten samples beyond it, when
    that percentile lies above the median; otherwise the maximum, flagged."""
    xs = sorted(values)
    n = len(xs)
    if n - 11 < n // 2:
        return xs[-1], f"max of n={n}; a tail with ten samples beyond needs n>=22"
    return xs[n - 11], f"p{100 * (n - 10) // n} of n={n}"


def fmt(v):
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/cli/Cargo.toml")):
        sys.stderr.write("perfbench: run from the root of a repository checkout "
                         "(no Cargo.toml / crates/cli here)\n")
        return 2
    try:
        Bench(args).run()
    except (Failure, subprocess.SubprocessError, OSError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
