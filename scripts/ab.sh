#!/usr/bin/env bash
# A/B timing of one bench bin: the working tree against a base commit,
# in alternated pairs, in one sitting.
#
#   ./scripts/ab.sh [--out PATH] BASE N -- BIN ARGS...
#
# BASE is any commit git can name (`HEAD~1`, a hash).  It is checked out
# into a `git worktree` under target/ab/ and built there; the working
# tree is built as it stands.  Both sides build `-p prorp-bench --bin
# BIN` only, never the workspace, so testkit's `strict-invariants` is
# not unified in; a record whose `meta.strict_invariants` is `true` is
# refused all the same.  When BASE is HEAD's commit the two sides are
# one build of the working tree (a self-against-self run).
#
# BIN must accept `--json PATH` and write a record with `meta` and an
# `entries` array whose items carry `wall_s` — `scale_bench` does.  Each
# entry is a cell, keyed by its `databases` × `shards` × `days`.  Pair i
# runs both sides once, base first when i is odd and the working tree
# first when it is even.  Per cell the script prints each side's median
# wall time with its quartiles, the median of the per-pair ratios
# base / head (above 1: the working tree is faster) and the pairs the
# working tree won.  It writes every pair, both commits and both sides'
# `meta` to PATH (default results/AB_BIN.json); the record's `name` is
# PATH's file name without its `AB_` prefix and `.json` suffix.
# Nothing here judges the numbers: it has no timing bar.

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

base_commit=$(git rev-parse --verify "${base_rev}^{commit}")
head_commit=$(git rev-parse --verify HEAD)
dirty=false
[ -z "$(git status --porcelain --untracked-files=no)" ] || dirty=true

echo "==> building ${bin} from the working tree (${head_commit:0:12}, dirty: ${dirty})"
cargo build --release -q -p prorp-bench --bin "$bin"
mkdir -p target/ab
head_bin="$PWD/target/ab/head-${bin}"
cp "target/release/${bin}" "$head_bin"
head_dir="$PWD"

if [ "$base_commit" = "$head_commit" ]; then
    echo "==> BASE is HEAD: one build, run against itself"
    base_bin="$head_bin"
    base_dir="$head_dir"
else
    tree="target/ab/${base_commit:0:12}"
    if [ ! -d "$tree" ]; then
        git worktree add --detach "$tree" "$base_commit" >/dev/null
    fi
    echo "==> building ${bin} at ${base_commit:0:12} in ${tree}"
    (cd "$tree" && cargo build --release -q -p prorp-bench --bin "$bin")
    base_dir="$PWD/${tree}"
    base_bin="${base_dir}/target/release/${bin}"
fi

runs=$(mktemp)
record=$(mktemp)
trap 'rm -f "$runs" "$record"' EXIT

# One timed run of `side`, from its own tree so that the record's
# `meta.commit` is that side's; appends {pair, side, first, meta, cells}
# to the run log.
run_side() {
    local pair="$1" side="$2" first="$3" exe="$4" dir="$5"
    (cd "$dir" && "$exe" "${args[@]}" --json "$record" >/dev/null)
    if [ "$(jq '.meta.strict_invariants' "$record")" != "false" ]; then
        echo "refusing a ${side} record whose meta.strict_invariants is not false" >&2
        exit 1
    fi
    jq -c --argjson pair "$pair" --arg side "$side" --arg first "$first" '{
        pair: $pair, side: $side, first: $first, meta: .meta,
        cells: [.entries[] | {
            cell: "\(.databases // "-") x \(.shards // "-") x \(.days // "-")",
            wall_s
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
    | [$runs[0].cells[].cell] as $cells
    | {
        name: $name, bin: $bin, args: $args,
        base: {commit: $base, meta: ([$runs[] | select(.side == "base")][0].meta)},
        head: {commit: $head, dirty: $dirty,
               meta: ([$runs[] | select(.side == "head")][0].meta)},
        metric: "wall_s (lower is better); ratio = base / head",
        cells: [$cells[] as $c | {
            cell: $c,
            pairs: [$runs | group_by(.pair)[] | {
                pair: .[0].pair, first: .[0].first,
                base_wall_s: (.[] | select(.side == "base") | .cells[] | select(.cell == $c) | .wall_s),
                head_wall_s: (.[] | select(.side == "head") | .cells[] | select(.cell == $c) | .wall_s)
            }]
        } | . + {
            base_wall_s: ([.pairs[].base_wall_s] | spread),
            head_wall_s: ([.pairs[].head_wall_s] | spread),
            ratio_median: ([.pairs[] | .base_wall_s / .head_wall_s] | quantile(0.5)),
            head_won: ([.pairs[] | select(.head_wall_s < .base_wall_s)] | length),
            n_pairs: (.pairs | length)
        }]
    }' "$runs" >"$out"

echo "==> ${name}: base ${base_commit:0:12} vs working tree ${head_commit:0:12} (dirty: ${dirty}), wall s"
jq -r '
    def r3: . * 1000 | round / 1000;
    def side: "\(.median | r3) [\(.q1 | r3), \(.q3 | r3)]";
    .cells[] | "\(.cell): base \(.base_wall_s | side)  head \(.head_wall_s | side)  ratio \(.ratio_median | r3)  head won \(.head_won)/\(.n_pairs)"' "$out"
echo "==> wrote ${out}"
