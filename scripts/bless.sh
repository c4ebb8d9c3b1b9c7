#!/usr/bin/env bash
# Re-record the golden KPI snapshots in tests/goldens/ after an
# *intentional* change to simulator semantics.
#
#   ./scripts/bless.sh
#
# Runs the testkit golden suite with BLESS=1 so every matrix case
# rewrites its snapshot, then prints the resulting diff for review.
# Treat that diff like any other code change: every drifted number
# needs an explanation in the PR.

set -euo pipefail
cd "$(dirname "$0")/.."

BLESS=1 cargo test -q -p testkit --test golden_kpis
BLESS=1 cargo test -q -p testkit --test obs_conformance

# Re-record the control-plane replay golden.  The `golden` subcommand
# itself asserts live ≡ DES before printing anything, so a blessed file
# is always an agreed-upon rendering, never a one-sided snapshot.
cargo run --release -q -p prorp-server --bin prorp-server -- \
    golden --trace tests/goldens/event_stream_small.jsonl \
    --end 259200 --policy proactive --shards 2 --step 21600 \
    > tests/goldens/server_replay.txt

# Re-record the fleet-composition export (deterministic; check.sh diffs
# a fresh run against it).
cargo run --release -q -p prorp-bench --bin fleet_report -- \
    --json results/BENCH_fleet.json

# Re-record the paper's figure, table and example outputs at their one
# pinned scale (300 databases, 35 days, seed 42; check.sh diffs a fresh
# run against them).  Figure 10 prints timings and is not re-recorded.
./scripts/figures.sh results

# Re-record the full-scale prediction-index A/B numbers alongside the
# goldens (timings are machine-dependent; the committed file documents a
# representative run, the smoke run in check.sh guards the equivalence).
cargo run --release -q -p prorp-bench --bin predict_bench -- \
    --json results/BENCH_predict.json

# Re-record the million-database scale sweep (10k/100k/1m × 1/4/16
# shards; several minutes of wall time at the top end).  As above:
# timings and RSS are machine-dependent snapshots, the shard-invariance
# and streamed-vs-materialised assertions are the guarantees.
cargo run --release -q -p prorp-bench --bin scale_bench -- \
    --json results/BENCH_scale.json

# Re-record the observability throughput numbers (sketch insert/merge
# rates, SLO rollup events/sec at 1M databases, span-trace emit/order/
# merge ns per record).  The merge ≡ pooled, shard-split ≡
# single-series and lanes ≡ sorted-whole gates inside the binary are
# the guarantees; the rates are a representative snapshot.
cargo run --release -q -p prorp-bench --bin obs_bench -- \
    --json results/BENCH_obs.json

# Re-record the storage-backend A/B (write amplification and trim cost
# for btree and lsm, plus the shared live-read window-scan latency and
# the LSM snapshot-cut cost).  The equality gate and checksum
# assertions inside the binary are the guarantees; the timings are a
# representative snapshot.
cargo run --release -q -p prorp-bench --bin storage_bench -- \
    --json results/BENCH_storage.json

# Re-record the whole performance ledger — five workloads, end to end
# and layer by layer, the server's numbers among them — with the `meta`
# (host, commit, rustc, mode) the ledger writes itself.  Timings are a
# machine-dependent snapshot; the ledger's own correctness gates
# (`kpi_fingerprint` equality, live ≡ DES, no failed request) are the
# guarantees.  A few minutes of wall time.
cargo run --release -q -p prorp-ledger --bin ledger -- \
    --seed 42 --out results/BENCH_ledger.json

echo "==> goldens re-blessed; review the drift:"
git --no-pager diff --stat -- tests/goldens/ results/
