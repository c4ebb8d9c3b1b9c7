#!/usr/bin/env bash
# A/B timing of one bench bin or of the ledger: the working tree against
# a base commit, in alternated pairs, in one sitting.
#
#   ./scripts/ab.sh [--out PATH] BASE N -- BIN ARGS...
#
# BASE is any commit git can name (`HEAD~1`, a hash).  It is cloned into
# target/ab/<hash>/ (a plain local `git clone`, checked out detached at
# BASE) and built there; the working tree is built as it stands.  When
# BASE is HEAD's commit and the working tree has no change, tracked or
# untracked, the two sides are one build (a self-against-self run); with
# changes, BASE is HEAD as committed, built from its clone like any
# other.
#
# BIN names the reader, and no flag does:
#
# * `ledger` — both sides build `--manifest-path crates/ledger/Cargo.toml
#   --bin ledger`, as BENCHMARK.json's command does, and run ARGS as one
#   ledger child (e.g. `--workload des_sharded_full --seed 42 --seconds
#   10 --trace 0`).  Its last standard-output line is one JSON object; a
#   side whose line does not read `"correct": true` is refused.  The
#   record has two cells, `activity_events_per_ref_s` (higher is better)
#   and `setup_s` (lower is better).
# * any other BIN — both sides build `-p prorp-bench --bin BIN`, and a
#   record whose `meta.profile` is not `"release"` is refused: a debug
#   build runs the simulator's per-event lifecycle checks, so it is no
#   timing.  No other `meta` field is read (an older BASE stamps one more
#   build flag beside `profile`; it is kept in the record and ignored).
#   BIN must accept `--json PATH` and write a record with
#   `meta` and an `entries` array whose items carry `wall_s` —
#   `scale_bench` does.  Each entry is a cell, keyed by its `databases` ×
#   `shards` × `days`, and lower is better.
#
# Pair i runs both sides once, base first when i is odd and the working
# tree first when it is even.  Per cell the script prints each side's
# median with its quartiles, the median of the per-pair ratios — above 1
# when the working tree is better: base / head for a lower-is-better
# metric, head / base for a higher-is-better one — and the pairs the
# working tree won.  It writes every pair, both commits and both sides'
# `meta` (null for the ledger, which writes none) to PATH (default
# results/AB_BIN.json); the record's `name` is PATH's file name without
# its `AB_` prefix and `.json` suffix.  Nothing here judges the numbers:
# it has no timing bar.

set -euo pipefail
cd "$(dirname "$0")/.."

out=""
if [ "${1:-}" = "--out" ]; then
    out="${2:?--out needs a path}"
    shift 2
fi
if [ $# -lt 4 ] || [ "$3" != "--" ]; then
    echo "usage: $0 [--out PATH] BASE N -- BIN ARGS..." >&2
    exit 2
fi
base_rev="$1"
pairs="$2"
bin="$4"
shift 4
args=("$@")
case "$pairs" in
    '' | *[!0-9]* | 0) echo "N must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
out="${out:-results/AB_${bin}.json}"
name=$(basename "$out" .json)
name="${name#AB_}"
if [ "$bin" = ledger ]; then
    build=(cargo build --release -q --manifest-path crates/ledger/Cargo.toml --bin ledger)
else
    build=(cargo build --release -q -p prorp-bench --bin "$bin")
fi

base_commit=$(git rev-parse --verify "${base_rev}^{commit}")
head_commit=$(git rev-parse --verify HEAD)
dirty=false
[ -z "$(git status --porcelain --untracked-files=no)" ] || dirty=true

echo "==> building ${bin} from the working tree (${head_commit:0:12}, dirty: ${dirty})"
"${build[@]}"
mkdir -p target/ab
head_bin="$PWD/target/ab/head-${bin}"
cp "target/release/${bin}" "$head_bin"
head_dir="$PWD"

if [ "$base_commit" = "$head_commit" ] && [ -z "$(git status --porcelain)" ]; then
    echo "==> BASE is HEAD and the tree is clean: one build, run against itself"
    base_bin="$head_bin"
    base_dir="$head_dir"
else
    tree="target/ab/${base_commit:0:12}"
    if [ ! -d "$tree" ]; then
        git clone -q --no-checkout . "$tree"
        git -C "$tree" checkout -q --detach "$base_commit"
    fi
    echo "==> building ${bin} at ${base_commit:0:12} in ${tree}"
    (cd "$tree" && "${build[@]}")
    base_dir="$PWD/${tree}"
    base_bin="${base_dir}/target/release/${bin}"
fi

runs=$(mktemp)
record=$(mktemp)
trap 'rm -f "$runs" "$record"' EXIT

# One timed run of `side`, from its own tree; appends {pair, side,
# first, meta, cells} to the run log, each cell a {cell, key, better,
# value}.
run_side() {
    local pair="$1" side="$2" first="$3" exe="$4" dir="$5"
    if [ "$bin" = ledger ]; then
        (cd "$dir" && "$exe" "${args[@]}") | tail -n 1 >"$record"
        if [ "$(jq '.correct' "$record")" != "true" ]; then
            echo "refusing a ${side} ledger run whose last line does not read \"correct\": true" >&2
            exit 1
        fi
        jq -c --argjson pair "$pair" --arg side "$side" --arg first "$first" '{
            pair: $pair, side: $side, first: $first, meta: null,
            cells: [
                {cell: "activity_events_per_ref_s", better: "higher",
                 value: .metrics.activity_events_per_ref_s.value},
                {cell: "setup_s", better: "lower", value: .metrics.setup_s.value}
            ] | map(. + {key: .cell})
        }' "$record" >>"$runs"
        return
    fi
    (cd "$dir" && "$exe" "${args[@]}" --json "$record" >/dev/null)
    if [ "$(jq -r '.meta.profile' "$record")" != "release" ]; then
        echo "refusing a ${side} record whose meta.profile is not \"release\"" >&2
        exit 1
    fi
    jq -c --argjson pair "$pair" --arg side "$side" --arg first "$first" '{
        pair: $pair, side: $side, first: $first, meta: .meta,
        cells: [.entries[] | {
            cell: "\(.databases // "-") x \(.shards // "-") x \(.days // "-")",
            key: "wall_s", better: "lower", value: .wall_s
        }]
    }' "$record" >>"$runs"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then first=base; else first=head; fi
    if [ "$first" = base ]; then
        run_side "$i" base base "$base_bin" "$base_dir"
        run_side "$i" head base "$head_bin" "$head_dir"
    else
        run_side "$i" head head "$head_bin" "$head_dir"
        run_side "$i" base head "$base_bin" "$base_dir"
    fi
    echo "    pair ${i}/${pairs} done (${first} first)"
done

mkdir -p "$(dirname "$out")"
jq -s \
    --arg name "$name" --arg bin "$bin" --arg base "$base_commit" \
    --arg head "$head_commit" --argjson dirty "$dirty" \
    --argjson args "$(printf '%s\n' "${args[@]}" | jq -R . | jq -sc 'map(select(. != ""))')" '
    def quantile(p): sort as $s | ((($s | length) - 1) * p) as $i
        | $s[$i | floor] + ($s[$i | ceil] - $s[$i | floor]) * ($i - ($i | floor));
    def spread: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75)};
    . as $runs
    | {
        name: $name, bin: $bin, args: $args,
        base: {commit: $base, meta: ([$runs[] | select(.side == "base")][0].meta)},
        head: {commit: $head, dirty: $dirty,
               meta: ([$runs[] | select(.side == "head")][0].meta)},
        metric: "per cell; ratio above 1: the working tree is better (base / head when lower is better, head / base when higher is)",
        cells: [$runs[0].cells[] as $c | ("base_" + $c.key) as $b | ("head_" + $c.key) as $h | {
            cell: $c.cell, better: $c.better,
            pairs: [$runs | group_by(.pair)[] | {
                pair: .[0].pair, first: .[0].first,
                ($b): (.[] | select(.side == "base") | .cells[] | select(.cell == $c.cell) | .value),
                ($h): (.[] | select(.side == "head") | .cells[] | select(.cell == $c.cell) | .value)
            }]
        } | . + {
            ($b): ([.pairs[][$b]] | spread),
            ($h): ([.pairs[][$h]] | spread),
            ratio_median: ([.pairs[] | if $c.better == "lower" then .[$b] / .[$h] else .[$h] / .[$b] end]
                | quantile(0.5)),
            head_won: ([.pairs[] | select(if $c.better == "lower" then .[$h] < .[$b] else .[$h] > .[$b] end)]
                | length),
            n_pairs: (.pairs | length)
        }]
    }' "$runs" >"$out"

echo "==> ${name}: base ${base_commit:0:12} vs working tree ${head_commit:0:12} (dirty: ${dirty})"
jq -r '
    def r3: if . > 1000 then round else . * 1000 | round / 1000 end;
    def side: "\(.median | r3) [\(.q1 | r3), \(.q3 | r3)]";
    .cells[] | (to_entries | map(select(.key | startswith("base_") or startswith("head_")))
        | from_entries) as $sides
    | ($sides | keys | map(select(startswith("base_")))[0]) as $b
    | ($sides | keys | map(select(startswith("head_")))[0]) as $h
    | "\(.cell) (\(.better) is better): base \(.[$b] | side)  head \(.[$h] | side)  ratio \(.ratio_median | r3)  head won \(.head_won)/\(.n_pairs)"' "$out"
echo "==> wrote ${out}"
