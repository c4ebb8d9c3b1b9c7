#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before it ships.
#
#   ./scripts/check.sh
#
# Runs, in order: the feature-matrix builds (no default features, the
# default release build, and all features so `strict-invariants` and the
# observability layer compile together), the full test suite — once,
# golden snapshots included (bit-stable simulator output; re-record
# intentional changes with scripts/bless.sh) — and a check that every
# guard test is still in it, the `prorp-trace` CLI against the
# golden trace, the control-plane server replay gate (live ≡ DES over
# HTTP), the machine-readable fleet-composition export, the paper's
# figure, table and example outputs (byte for byte), clippy
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

# `BLESS=0`: an exported `BLESS=1` must not re-record a golden inside
# the gate.
run env BLESS=0 cargo test -q

# The suite above ran every test once.  What is left to check is that
# the guards below are still *in* it: a filter that matches nothing
# (`cargo test some::deleted_test`) exits 0, so a renamed or deleted
# guard has to fail here, by name.
guards=(
    # Golden snapshots: bit-stable simulator KPIs, the pinned trace,
    # Prometheus, SLO-rollup and alert exports, and every recorded
    # decision re-derived by time travel.
    golden_kpi_matrix
    golden_trace_and_prometheus_exports
    golden_slo_rollup_and_alert_exports
    recorded_decisions_replay_through_time_travel

    # The incremental prediction index must stay bit-identical to the
    # naive Algorithm 4 scan (single-table interleavings, whole-fleet
    # reports, and shard invariance with the index enabled).
    incremental_never_diverges_from_rebuild
    naive_and_incremental_fleets_are_bit_identical
    index_enabled_fleet_is_shard_invariant_at_1_2_8

    # This is where the clustered B-tree of §5 is checked now that the
    # native table is a sorted view alone: `sql_vs_native` holds
    # sqlmini's B+Tree-backed `sys.pause_resume_history` equal to the
    # native table row for row after every Algorithm 2 insert and every
    # Algorithm 3 trim.
    insert_history_agrees
    delete_old_history_agrees

    # A table that keeps its mutation log (log-on, `StorageBackend::Lsm`)
    # must stay observationally identical to one that does not (log-off):
    # op interleavings, fleet differentials, shard invariance, span
    # traces, and time-travel reproduction.
    interleavings_agree_and_snapshots_rebuild
    fleet_behaviour_is_backend_independent
    lsm_reports_are_shard_invariant
    span_traces_are_byte_identical_across_backends
    time_travel_reproduces_a_recorded_prediction

    # A log-on table is its view and its mutation log: one attached to
    # the (thread-free) `CompactionScheduler` the benchmark still builds
    # must equal a never-attached twin on events, version, WAL image and
    # every snapshot.  A compaction worker coming back fails it.
    an_attached_lsm_store_equals_a_never_attached_twin

    # Time travel is exact below a trim: with the log as the only record
    # of the past, a snapshot at day 30 of a 60-day, daily-trimmed store
    # is the 349 tuples it held then (193 while merges garbage-collected
    # trimmed versions).
    a_snapshot_below_a_collected_trim_is_exact

    # Crash recovery is exact to the record: a backup at seqno `s` plus
    # its WAL image cut at any byte recovers the snapshot at
    # `s + cut / 26`; a bad checksum mid-image is an error and on the
    # final record a torn tail.  Snapshots, the audit and recovery share
    # one replay, so a second replay path coming back fails it.
    a_torn_wal_recovers_the_snapshot_at_its_last_whole_record

    # A registered database is a slot: the slot-addressed cluster must
    # stay indistinguishable from the id-keyed `HashMap`/`HashSet` one it
    # replaced (every outcome, home and counter under random place /
    # allocate / release / move / rebalance with spill and
    # over-subscription), row-addressed `sys.databases` writes must be
    # id-keyed writes with the secondary index equal to a rebuild after
    # every op, and the two-lane queue (calendar run-time lane, radix-
    # sealed recorded run) must pop what one heap over every event would,
    # `pop_before` being `peek_ts` + `pop`, across buckets, past the
    # calendar's horizon and behind its clock, with the radix seal equal
    # to a comparison sort on the full key.  These are what catch an
    # id-keyed map coming back beside a column and drifting from it, or
    # a queue fast path that reorders a tie.
    cluster::tests::slots_are_the_id_keyed_cluster
    metadata::tests::row_addressed_writes_are_id_keyed_writes
    events::tests::two_lanes_are_one_heap
    events::tests::the_radix_seal_is_the_full_key_sort
    # The shard loop prefetches by the recorded lane's look-ahead: after
    # every pop, `recorded_ahead(k)` must name the k-th recorded event
    # the loop pops next, across run-time pops and a re-seal, and nothing
    # before the seal or past the run's end.  A look-ahead off by one
    # costs no output, only the speed it was for, so this is where it
    # shows.
    events::tests::the_look_ahead_names_the_kth_recorded_pop

    # The allocation guard: a warm 3 000-database loop, reactive and
    # proactive, must make fewer than one heap allocation per three
    # events (counting global allocator; the counts are deterministic).
    # This is what catches a per-event `Vec` — an engine reply, a sweep
    # result — or a node-allocating map coming back onto the event path.
    # On the default backend the table is its sorted view alone, one
    # row column reserved a 16-row block at a time: 0.041 / 0.128 per
    # event, 0.108 / 0.201 while the view's parallel columns regrew row
    # by row and 0.16 / 0.26 while every row was also written into a
    # per-database B+Tree, so the `writes_each_history_row_once` cells
    # (< 0.065 / < 0.155) fail when a second per-row structure comes
    # back.  The same loop over log-on tables reads 0.079 / 0.169 as the
    # view plus its append-only log, against bars of < 0.10 / < 0.195:
    # not the view-only table's bars, since the log's amortised growth
    # allocates.  It read 0.17 / 0.27 with runs flushed and merged
    # beneath the log and 0.77 / 0.92 when a mutation also fed a memtable
    # of per-key `Vec`s, an eagerly encoded WAL and a timeline — any of
    # those coming back trips it.
    a_warm_reactive_loop_allocates_less_than_once_per_three_events
    a_warm_proactive_loop_allocates_less_than_once_per_three_events
    a_warm_reactive_loop_writes_each_history_row_once
    a_warm_proactive_loop_writes_each_history_row_once
    a_warm_reactive_lsm_loop_allocates_less_than_once_per_two_events
    a_warm_proactive_lsm_loop_allocates_less_than_once_per_two_events
    # Its byte cell: a one-shard driver holding 3 000 registered
    # databases with empty traces keeps 1 201 400 live heap bytes, bar
    # 3 B per database above that.  A second id column (8 B) or id→slot
    # map (≥ 4 B) beside `sys.databases`' own fails it; the fleet's
    # copy of both read 1 330 120.
    registering_a_database_keeps_one_id_column_and_one_id_map

    # The live driver must stay bit-identical to the DES under any
    # admitted stream, and every server read must be the record a
    # mirrored driver holds (every database read back after every
    # advance, operator action and finish); a read follows an advance
    # at once, and after finish answers from the backend; the HTTP
    # surface and incident 503s are pinned end to end, and a batch with
    # a malformed event ingests none of it.
    live_matches_des_at_one_and_eight_shards
    live_matches_des_under_fault_injection
    every_read_matches_the_mirrored_driver
    http_surface_basics
    retry_exhaustion_escalates_to_503_with_incident
    reads_follow_the_driver_and_after_finish_the_backend
    a_rejected_batch_ingests_nothing

    # The HTTP workers serve each request under the driver's lock: eight
    # clients posting and reading at once must seal the DES's report (a
    # compile-time `Send` guard on `LiveDriver` sits beside it), a route
    # that panicked with the lock held answers 503 from then on, and an
    # advance the run refuses moves no clock (it moved `LiveClock`
    # before the run was checked, so a second one answered 400).
    concurrent_clients_match_the_des
    api::tests::a_poisoned_driver_answers_503_to_every_request
    an_advance_after_finish_answers_409_and_moves_nothing

    # Ingest decodes in one linear pass, straight into `LiveEvent`s: the
    # decoder is the tree path it replaced (parse, look up `"events"`,
    # read each item) on every body, valid or not — the same events or
    # the same error text, and the route's 200 or 400 — and the direct
    # reply is the tree's render.  A batch at the 1 MiB body cap must
    # not hold the driver (a read behind it waited ≈6 s while string
    # parsing re-scanned the rest of the input per character), nor a
    # 1 MiB string take more than a second; the pull reader's skip
    # accepts and rejects exactly what parsing does.
    api::tests::the_decoder_is_the_tree_reading_of_every_body
    api::tests::decode_errors_keep_their_texts_and_syntax_comes_first
    api::tests::the_direct_reply_is_the_tree_render
    a_full_size_batch_does_not_hold_the_driver
    json::tests::a_mebibyte_string_parses_within_a_second
    json::tests::skipping_a_value_accepts_and_rejects_what_parsing_does

    # The HTTP transport's contract: a fixed set of workers (the test
    # with 4× as many concurrent clients as workers fails if the handler
    # ever runs on more threads than `serve` started — that is what
    # catches a per-connection thread coming back), the listen backlog
    # as the queue under saturation, both deadlines (408), truncated and
    # chunked heads (400), a panicking handler (500), and a prompt
    # shutdown.
    http::tests::every_reply_is_its_own_and_the_handler_threads_are_the_workers
    http::tests::a_saturated_pool_serves_the_backlog_once_the_stalled_peers_time_out
    http::tests::a_stalled_peer_gets_408_and_a_closed_connection
    http::tests::a_trickling_peer_gets_408_at_the_request_deadline
    http::tests::a_head_cut_short_or_chunked_is_a_400_the_handler_never_sees
    http::tests::a_panicking_handler_costs_a_500_not_a_worker
    http::tests::shutdown_does_not_wait_for_a_stalled_peer
    # Any request head — from a grammar of request lines and headers,
    # oversized lines, bad or duplicated `Content-Length`,
    # `Transfer-Encoding`, cut off anywhere — answers a parseable 200,
    # 400 or 413 without a handler panic, and the next request is served.
    http::tests::any_request_head_is_answered_and_the_server_serves_on
    # Any `POST /v1/clock/advance` body — `to` missing, mistyped,
    # negative, behind the watermark, past the end, `i64::MIN` or
    # `i64::MAX`, truncated or corrupted — answers 200 or 400 without a
    # panic; only a 200 moves the watermark, and to `to`.
    api::tests::every_advance_body_answers_200_or_400_and_only_a_200_moves_the_clock
    # Any `:id` — overflowing, negative, empty, non-ASCII — on the
    # record, `why`, forced resume and forced pause routes, with any
    # body, answers 200, 400, 404, 409 or 503 without a panic, and only
    # a forced action's 200 schedules anything: a twin sent only those
    # reads the same after the next advance.
    api::tests::every_id_route_answers_and_only_a_scheduled_action_changes_the_run

    # A per-engine field coming back (680 bytes with the prediction
    # cache, 576 with the history view's parallel key and value columns,
    # 552 with the run's knobs copied into every engine, 392 / 312 with
    # a session flag beside a tracker that buffered any number of
    # events) is a named failure, not an RSS drift to bisect — for the
    # reactive baseline too.  The run's knobs are one allocation per
    # shard: every engine and predictor a shard registers points at it,
    # and two shards' differ (one per process bounced its count between
    # cores).
    proactive::tests::an_engine_is_336_bytes
    reactive::tests::a_reactive_engine_is_256_bytes
    every_engine_points_at_its_shards_one_knobs_allocation
    # A database's slot in the shard's segment book is its open segment
    # alone (16 bytes; 64 while every database kept its own per-kind
    # totals), and the shard's totals count exactly each segment's
    # overlap with the measured window — the clamp that replaced the
    # warm-up reset pass.
    segments::tests::an_open_segment_is_16_bytes
    the_clamped_book_counts_each_segments_overlap_with_the_window

    # Table 1's `k` has one home, the policy: two proactive runs that
    # differ only in `PolicyConfig::prewarm` must pre-warm differently
    # (they were identical while the Algorithm 5 scan read a second,
    # config-level `k` that no policy reached).
    the_policys_k_reaches_the_resume_scan
    # A pause counted twice: a forced pause, or the stale timer after it,
    # adding a second `physical-pause` record, segment move or span.
    a_forced_pause_is_accounted_once
    # The §7 sweep's rule for a resume whose customer leaves: a hung one
    # is still mitigated (and escalates the second time), a staged one
    # the logout superseded is not, and `prorp_workflows_in_flight` is
    # the count of unresolved resumes at every snapshot.
    a_hung_resume_outlives_its_logout_and_a_superseded_one_is_not_swept
    # An ingest outcome that goes uncounted on `/metrics`.
    ingest_outcomes_are_counted_on_metrics
    # `/metrics` that is not one exposition: with shard texts pasted
    # together, a 2-shard server typed every series twice.  Its `prorp_*`
    # lines must be the 1-shard server's.
    metrics_is_one_exposition_at_any_shard_count
    # An event at or past the run's end answered `accepted`: no window
    # ever commits it, so it sat in the buffer for the driver's life.
    an_event_past_the_end_is_not_accepted
    # A live `/metrics` scrape that reads anything other than what a
    # recorded snapshot at the same instant holds: a shard stepped to
    # each instant of a twin's 10-s series must scrape the twin's entry
    # (it read `prorp_workflows_in_flight` as 0 throughout while scrapes
    # re-read gauges only a recorded snapshot set).
    a_live_scrape_is_the_recorded_snapshot
    # The paper's shape, read off the gated figure outputs
    # (`tests/paper_shape.rs`): proactive QoS above reactive in every
    # region (Figure 6) and on every evaluation day, where it also idles
    # more (Figure 7), QoS and idle time higher at a 7-h window than a
    # 1-h one (Figure 8), every proactive idle decomposition summing to
    # its total, Figure 3's two shares inside their stated band, the
    # busiest interval growing from 1 to 15 minutes (Figures 11 and 12)
    # with proactive pausing more than reactive, and QoS, idle time and
    # pre-warms all falling from c = 0.1 to c = 0.8 (Figure 9).
    proactive_qos_beats_reactive_in_every_region
    figure_7_proactive_beats_reactive_qos_and_idles_more_every_day
    qos_and_idle_rise_from_a_1h_to_a_7h_window
    the_idle_decomposition_sums_to_the_total
    short_idle_intervals_are_common_and_carry_little_idle_time
    figure_11_busiest_interval_grows_from_1_to_15_min
    figure_12_pauses_grow_with_the_interval_and_proactive_pauses_more
    figure_9_a_stricter_confidence_lowers_qos_idle_and_resumes
)
echo "==> every guard test is in the suite"
listed=$(cargo test -q -- --list 2>/dev/null)
missing=0
for guard in "${guards[@]}"; do
    if ! grep -qE "(^|::)${guard}: test\$" <<<"$listed"; then
        echo "guard test missing from the suite: ${guard}"
        missing=1
    fi
done
[ "$missing" -eq 0 ]

# `unsafe` stays in two known places outside the ledger (which measures
# from outside and denies it itself): the shard loop's prefetch
# (`crates/sim/src/prefetch.rs`), the one function that carries
# `#[allow(unsafe_code)]` in a crate that denies it, and the allocation
# guard's counting allocator (`crates/sim/tests/alloc_guard.rs`), which
# implements the `unsafe` trait `GlobalAlloc`.  Every other library root
# forbids it, so an `allow` cannot reopen it there; bins, tests, benches
# and examples are crate roots of their own, so every `.rs` file is
# counted, not only the library roots.
echo "==> unsafe is confined to the shard loop's prefetch and the allocation guard"
confined=1
for dir in crates/*/; do
    root="${dir}src/lib.rs"
    [ -f "$root" ] || root="${dir}src/main.rs"
    case "$dir" in
        crates/ledger/) continue ;;
        crates/sim/) lint='#![deny(unsafe_code)]' ;;
        *) lint='#![forbid(unsafe_code)]' ;;
    esac
    if ! grep -qxF "$lint" "$root"; then
        echo "${root} lacks ${lint}"
        confined=0
    fi
done
sources=$(find crates tests examples -name '*.rs' -not -path 'crates/ledger/*' | sort)
unsafe_re='(^|[^_[:alnum:]])unsafe[[:space:]]*(\{|fn|impl|trait|extern)'
allow_re='allow\([^)]*unsafe_code'
for file in $sources; do
    case "$file" in
        crates/sim/src/prefetch.rs) max_blocks=1 max_allows=1 ;;
        crates/sim/tests/alloc_guard.rs) max_blocks=4 max_allows=0 ;;
        *) max_blocks=0 max_allows=0 ;;
    esac
    blocks=$(grep -cE "$unsafe_re" "$file" || true)
    allows=$(grep -cE "$allow_re" "$file" || true)
    if [ "$blocks" -gt "$max_blocks" ] || [ "$allows" -gt "$max_allows" ]; then
        echo "${file} holds ${blocks} unsafe items or blocks and ${allows} allow(unsafe_code); ${max_blocks} and ${max_allows} are allowed"
        confined=0
    fi
done
[ "$confined" -eq 1 ]

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

# The paper's figure, table and example outputs are deterministic at
# their pinned scale too: a fresh run must reproduce every committed
# file byte for byte (Figure 10, which prints timings, is not gated).
run ./scripts/figures.sh target/figures
for fresh in target/figures/*.txt; do
    run diff -u "results/$(basename "$fresh")" "$fresh"
done

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
# shard-invariance, a queue run-time lane of at most two entries per
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

# Storage-backend A/B in smoke mode: asserts log-off ≡ log-on fleet
# KPIs, checksummed window-scan agreement (log-off table ≡ log-on table
# ≡ a snapshot replayed from the log) and flat range-delete trim cost (the committed full-scale numbers in results/BENCH_storage.json
# come from scripts/bless.sh).
run cargo run --release -q -p prorp-bench --bin storage_bench -- \
    --smoke --json target/storage_smoke.json

# The A/B harness, self against self in smoke mode, so it cannot rot:
# one build (BASE is HEAD), one pair, no timing bar, and its record
# kept out of results/.
run ./scripts/ab.sh --out target/ab_smoke.json HEAD 1 -- scale_bench --smoke

run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
run cargo fmt --check

echo "==> all checks passed"
