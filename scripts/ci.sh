#!/usr/bin/env bash
# Tier-1 gate plus lint: what every PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
# --workspace: the root facade package does not depend on pioblast-cli,
# and the observability gate below runs the release binary.
cargo build --release --workspace
# --workspace: a bare `cargo test` selects only the root facade package,
# which builds the integration tests but never runs the crates' own unit
# and doc tests.
cargo test --workspace -q
# The fault-recovery proptests run under the vendored proptest's
# deterministic per-test RNG (TestRng::from_name), so this is a fixed
# seed: failures reproduce exactly, in CI and locally.
cargo test --release -q --test fault_recovery
# The lifted restriction must stay lifted: aggregated input under the
# dynamic schedule + Recover, byte-identical across worker kills.
cargo test --release -q --test fault_recovery collective_input_under_recovery_is_byte_identical
# Nonblocking-plane interleaving proptests: async begin/wait orderings
# (epoch-fence crossings, worker kills with ops in flight under
# Recover) must stay byte-identical to the sync plane, and malformed
# inputs / a full file system must degrade to typed errors, not aborts.
cargo test --release -q --test async_io
# Intra-rank compute slots: the sharded subject scan + deterministic
# merge must stay byte-identical to the serial kernel across shard
# counts x fragment shapes x Recover kills x the async plane.
cargo test --release -q --test hybrid
# Query-stream service mode: every stream batch's report byte-identical
# to its one-shot run across affinity x io-async x threads x Recover
# kills, and the resident store actually hits.
cargo test --release -q --test service
# Pooled rank execution: pool width must be invisible (byte-identical
# reports, traces, clocks, stats across pool 1/2/ncpus), and a rank-body
# panic must drain the pool into a typed error, never a deadlock.
cargo test --release -q --test pool
# Burst-buffer staging tier: bounded staging capacity must degrade to
# direct writes byte-identically across io-async x threads x batched
# epochs, and a worker killed with staged-but-undrained data must
# recover to the unstaged bytes (fence-before-ack).
cargo test --release -q --test burst
# Bench targets (paper exhibits + kernel perf gate, ablate_hybrid
# included via --workspace) must at least compile.
cargo bench --workspace --no-run
# Lint every crate and every target (tests, benches, examples), not just
# the facade's library.
cargo clippy --workspace --all-targets -- -D warnings
# The I/O plane is a public API layer: its docs must build clean.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# End-to-end observability gate: run a real search with --trace and
# validate the exported Chrome trace (monotonic per-lane timestamps,
# balanced begin/end span pairs).
tracetmp="$(mktemp -d)"
trap 'rm -rf "$tracetmp"' EXIT
cli=target/release/pioblast-sim
"$cli" gen --residues 30k --seed 5 --out "$tracetmp/db.fa"
"$cli" formatdb --in "$tracetmp/db.fa" --title cidb --out-dir "$tracetmp/db"
"$cli" sample --in "$tracetmp/db.fa" --bytes 1k --out "$tracetmp/q.fa"
"$cli" run --program pio --procs 4 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report.txt" --trace "$tracetmp/trace.json"
"$cli" trace-check --in "$tracetmp/trace.json"
# Same run on the nonblocking plane: the async begin/wait spans must
# still produce a well-formed trace, and the report must not change.
"$cli" run --program pio --procs 4 --io-async \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-async.txt" --trace "$tracetmp/trace-async.json"
"$cli" trace-check --in "$tracetmp/trace-async.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-async.txt"
# Slot-parallel run: four compute slots per worker must export a
# well-formed trace (per-slot Search sub-lanes validate too) and the
# report must stay byte-identical to the serial run.
"$cli" run --program pio --procs 4 --threads 4 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-hybrid.txt" --trace "$tracetmp/trace-hybrid.json"
"$cli" trace-check --in "$tracetmp/trace-hybrid.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-hybrid.txt"
# Service-mode gate: a traced 16-rank serve with affinity + residency,
# one query per stream batch, must export a well-formed trace AND every
# per-batch report must be byte-identical to running that query alone.
nq="$(grep -c '^>' "$tracetmp/q.fa")"
"$cli" serve --procs 16 --affinity --resident-mb 64 \
  --users 2 --stream-batches "$nq" --seed 9 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/svc.txt" --trace "$tracetmp/trace-serve.json"
"$cli" trace-check --in "$tracetmp/trace-serve.json"
for b in $(seq 0 $((nq - 1))); do
  awk -v n="$b" 'BEGIN{c=-1} /^>/{c++} c==n' "$tracetmp/q.fa" >"$tracetmp/q$b.fa"
  "$cli" run --program pio --procs 16 --dynamic --no-collective \
    --db-dir "$tracetmp/db" --queries "$tracetmp/q$b.fa" \
    --out "$tracetmp/ref$b.txt"
  cmp "$tracetmp/svc.txt.q$b" "$tracetmp/ref$b.txt"
done
# The same serve on the nonblocking plane: the worker's pipelined
# ingest (one-ahead begin/end reads, no posted batch) must export a
# well-formed trace and leave every per-batch report unchanged.
"$cli" serve --procs 16 --affinity --resident-mb 64 --io-async \
  --users 2 --stream-batches "$nq" --seed 9 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/svc-async.txt" --trace "$tracetmp/trace-serve-async.json"
"$cli" trace-check --in "$tracetmp/trace-serve-async.json"
for b in $(seq 0 $((nq - 1))); do
  cmp "$tracetmp/svc.txt.q$b" "$tracetmp/svc-async.txt.q$b"
done
# Pooled-engine smoke at scale: 128 ranks run as fibers on the default
# worker pool. The trace must validate, and the report must be
# byte-identical to a 16-rank run over the same 15 fragments — rank
# count is a simulation parameter, not an OS resource.
"$cli" run --program pio --procs 128 --frags 15 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-128.txt" --trace "$tracetmp/trace-128.json"
"$cli" trace-check --in "$tracetmp/trace-128.json"
"$cli" run --program pio --procs 16 --frags 15 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-16ref.txt"
cmp "$tracetmp/report-128.txt" "$tracetmp/report-16ref.txt"
# Same scale with query batches of two: all 128 ranks prepare every
# batch, so the run-scoped prepare memo serves hits across ranks and
# batches. The report must match a 16-rank run with the same batches.
# (The batched reference is itself batched: on these queries batching
# changes the report bytes, because an ungapped extension can run
# across the sentinel into a neighbouring query.)
"$cli" run --program pio --procs 128 --frags 15 --batch 2 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-128b2.txt"
"$cli" run --program pio --procs 16 --frags 15 --batch 2 \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-16b2.txt"
cmp "$tracetmp/report-128b2.txt" "$tracetmp/report-16b2.txt"
# Burst-buffer gate: staging output writes in the per-node burst buffer
# must export a well-formed trace (stage.put/stage.drain spans validate
# with everything else) and the merged report must stay byte-identical
# to the unstaged run.
"$cli" run --program pio --procs 4 --burst-buffer \
  --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
  --out "$tracetmp/report-burst.txt" --trace "$tracetmp/trace-burst.json"
"$cli" trace-check --in "$tracetmp/trace-burst.json"
cmp "$tracetmp/report.txt" "$tracetmp/report-burst.txt"
# The CLI rejects options it does not know (a removed flag, a typo) and
# numbers it would otherwise mangle (a --users past u32, zero fragments):
# each must exit nonzero instead of running with something else.
for bad in "run --program pio --burst-buffer --stripe-files 4" \
  "run --program pio --burst-buffer --recovr" \
  "run --program pio --frags 0" \
  "serve --users 4294967297"; do
  if "$cli" $bad --procs 4 \
    --db-dir "$tracetmp/db" --queries "$tracetmp/q.fa" \
    --out "$tracetmp/report-bad.txt" 2>/dev/null; then
    echo "accepted bad input: $bad" >&2
    exit 1
  fi
done
# And the trace-diff of two identical runs must be empty. (Via a file:
# grep -q would close the pipe early and SIGPIPE the still-printing CLI.)
"$cli" trace-diff --a "$tracetmp/trace-128.json" --b "$tracetmp/trace-128.json" \
  >"$tracetmp/diff-self.txt"
grep -q "traces are equivalent" "$tracetmp/diff-self.txt"
# Perf-regression gate: every traced run above is diffed against the
# committed per-(lane,phase) busy-ns baselines. The DES is
# deterministic, so the profiles must match exactly: the growth check
# runs first for its per-lane diagnostics, then the regenerated profile
# is compared byte-for-byte, so shrinkage fails too.
# When a change legitimately moves a profile, regenerate it with
#   target/release/pioblast-sim trace-diff --in <trace.json> \
#     --write-baseline scripts/trace-baselines/<name>.tsv
# and commit the result.
for t in trace trace-async trace-hybrid trace-serve trace-serve-async trace-128 trace-burst; do
  "$cli" trace-diff --in "$tracetmp/$t.json" \
    --baseline "scripts/trace-baselines/$t.tsv" --max-growth-pct 25
  "$cli" trace-diff --in "$tracetmp/$t.json" --write-baseline "$tracetmp/$t.tsv"
  cmp "$tracetmp/$t.tsv" "scripts/trace-baselines/$t.tsv"
done
