#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before it ships.
#
#   ./scripts/check.sh
#
# Runs, in order: the feature-matrix builds (no default features, the
# default release build, and all features so `strict-invariants` and the
# observability layer compile together), the full test suite, the golden
# snapshot checks (bit-stable simulator output; re-record intentional
# changes with scripts/bless.sh), the `prorp-trace` CLI against the
# golden trace, the control-plane server replay gate (live ≡ DES over
# HTTP), the machine-readable fleet-composition export, clippy
# (warnings are errors), rustdoc (warnings are errors), and the
# formatting check.  Fails fast on the first broken step.

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Feature matrix: every combination a downstream crate can select.
run cargo build --workspace --no-default-features
run cargo build --release
run cargo build --workspace --all-features

run cargo test -q
run env BLESS=0 cargo test -q -p testkit --test golden_kpis
run env BLESS=0 cargo test -q -p testkit --test obs_conformance

# The incremental prediction index must stay bit-identical to the naive
# Algorithm 4 scan (single-table interleavings, whole-fleet reports, and
# shard invariance with the index enabled).
run cargo test -q -p testkit --test prediction_index

# The LSM backend must stay observationally identical to the B+Tree
# behind the HistoryStore seam (op interleavings, fleet differentials,
# shard invariance, span traces, and time-travel reproduction).
run cargo test -q -p testkit --test storage_conformance

# A registered database is a slot: the slot-addressed cluster must stay
# indistinguishable from the id-keyed `HashMap`/`HashSet` one it replaced
# (every outcome, home and counter under random place / allocate /
# release / move / rebalance with spill and over-subscription),
# row-addressed `sys.databases` writes must be id-keyed writes with the
# secondary index equal to a rebuild after every op, and `pop_before`
# must be `peek_ts` + `pop` over the one-heap queue.  These are what
# catch an id-keyed map coming back beside a column and drifting from it.
run cargo test -q -p prorp-sim --lib cluster::tests::slots_are_the_id_keyed_cluster
run cargo test -q -p prorp-storage --lib metadata::tests::row_addressed_writes_are_id_keyed_writes
run cargo test -q -p prorp-sim --lib events::tests::two_lanes_are_one_heap

# The allocation guard: a warm 3 000-database loop, reactive and
# proactive, must make fewer than one heap allocation per three events
# (counting global allocator; the counts are deterministic).  This is
# what catches a per-event `Vec` — an engine reply, a sweep result —
# or a node-allocating map coming back onto the event path.  The same
# loop over the LSM history (inline compaction) must stay under one per
# two events: 0.24 / 0.34 with one log record per mutation, 0.77 / 0.92
# when a mutation also fed a memtable of per-key `Vec`s, an eagerly
# encoded WAL and a timeline — any of those coming back trips it.
run cargo test -q -p prorp-sim --test alloc_guard

# The live driver must stay bit-identical to the DES under any admitted
# stream, and the server's touched-set publish must leave the backend
# holding what a republish of the whole fleet would (every record and
# every read checked after every advance); the HTTP surface, incident
# 503s and the publisher's self-metrics are pinned end to end.
run cargo test -q -p testkit --test live_differential
run cargo test -q -p prorp-server --test service_mode

# The HTTP transport's contract: a fixed set of workers (the test with
# 4× as many concurrent clients as workers fails if the handler ever
# runs on more threads than `serve` started — that is what catches a
# per-connection thread coming back), the listen backlog as the queue
# under saturation, both deadlines (408), truncated and chunked heads
# (400), a panicking handler (500), and a prompt shutdown.
run cargo test -q -p prorp-server --lib http

# The trace-query CLI must keep parsing the pinned trace format.
run cargo run --release -q -p prorp-obs --bin prorp-trace -- \
    tests/goldens/trace_small.jsonl summary
run cargo run --release -q -p prorp-obs --bin prorp-trace -- \
    tests/goldens/trace_small.jsonl qos-misses 5
run cargo run --release -q -p prorp-obs --bin prorp-trace -- \
    tests/goldens/trace_small.jsonl time-travel 7 200000
run cargo run --release -q -p prorp-obs --bin prorp-trace -- \
    tests/goldens/trace_decisions_small.jsonl why 2 209053

# Control-plane service mode: boot the virtual-clock server, replay the
# golden event stream through the real HTTP API, and let the binary
# assert the live report is bit-identical to the DES over the same
# stream.  The canonical decision rendering is then diffed against the
# checked-in golden (re-record intentional drift with scripts/bless.sh).
echo "==> prorp-server golden (live ≡ DES over HTTP)"
cargo run --release -q -p prorp-server --bin prorp-server -- \
    golden --trace tests/goldens/event_stream_small.jsonl \
    --end 259200 --policy proactive --shards 2 --step 21600 \
    > target/server_replay.txt
run diff -u tests/goldens/server_replay.txt target/server_replay.txt

# Machine-readable fleet composition for downstream tooling.  The
# output is deterministic, so the committed record is a gate, not a
# by-product: a fresh run must reproduce it byte for byte (re-record
# intentional drift with scripts/bless.sh; nothing here writes under
# results/).
run cargo run --release -q -p prorp-bench --bin fleet_report -- \
    --json target/fleet_report.json
run diff -u results/BENCH_fleet.json target/fleet_report.json

# Prediction-index A/B in smoke mode: asserts naive ≡ incremental on
# every timed case, and that the two cases with many window positions
# over few logins (`young_sparse`, `fine_slide`) cost the incremental
# arm at most 2× what `default` does — this is what catches the sweep
# stepping through every position again instead of visiting the ones
# where a login enters or leaves (3–7× at PR 19).  The committed
# full-scale numbers in results/BENCH_predict.json come from
# scripts/bless.sh; smoke runs never write under results/.
run cargo run --release -q -p prorp-bench --bin predict_bench -- \
    --smoke --json target/predict_smoke.json

# Scale sweep in smoke mode: asserts streamed ≡ materialised, KPI
# shard-invariance, an event-queue heap of at most two entries per
# database on every cell (recorded sessions must stay out of it), and
# the observability overhead gate (rollup-only
# obs must leave KPIs bit-identical and cost < 2% wall time) on a tiny
# fleet (the committed full-scale numbers in results/BENCH_scale.json
# come from scripts/bless.sh).  The smoke JSON is a scratch artefact —
# only the assertions matter here.
run cargo run --release -q -p prorp-bench --bin scale_bench -- \
    --smoke --json target/scale_smoke.json

# Observability throughput in smoke mode: asserts sketch merge ≡ pooled
# observation, the 8-way SLO rollup shard split ≡ single-series
# ingest, and span-trace lanes + merge ≡ the one buffer sorted whole at
# 1, 2 and 8 shards (the committed full-scale numbers in
# results/BENCH_obs.json come from scripts/bless.sh).
run cargo run --release -q -p prorp-bench --bin obs_bench -- \
    --smoke --json target/obs_smoke.json

# Storage-backend A/B in smoke mode, under BOTH LSM compaction modes:
# asserts btree ≡ lsm fleet KPIs, checksummed window-scan agreement
# (B+Tree table ≡ LSM store ≡ snapshot over the shared read layer),
# flat range-tombstone trim cost, and — in background mode — a
# stall-free event-loop path (the committed full-scale numbers in
# results/BENCH_storage.json come from scripts/bless.sh).
run cargo run --release -q -p prorp-bench --bin storage_bench -- \
    --smoke --compaction deterministic --json target/storage_smoke.json
run cargo run --release -q -p prorp-bench --bin storage_bench -- \
    --smoke --compaction background --json target/storage_smoke_bg.json

# Hand-rolled multi-thread stress of the compaction scheduler: pinned
# snapshots stay exact while a real worker compacts underneath them,
# and many stores share one scheduler without cross-talk.
run cargo test -q -p prorp-storage --features shuttle-compaction \
    --test shuttle_compaction

run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
run cargo fmt --check

echo "==> all checks passed"
