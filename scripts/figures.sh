#!/usr/bin/env bash
# Regenerate the paper's figure, table and example outputs into OUTDIR.
#
#   ./scripts/figures.sh OUTDIR
#
# Every output below is deterministic at one pinned scale — 300
# databases, 35 days, 28 warm-up days, seed 42 — so bless.sh writes
# them to results/ and check.sh writes them under target/ and diffs
# them against results/ byte for byte.  Figure 10 stays out: it prints
# wall-clock prediction latencies.  About 2 s of run time once built.

set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:?usage: scripts/figures.sh OUTDIR}
mkdir -p "$out"
export PRORP_FLEET=300 PRORP_DAYS=35 PRORP_WARMUP=28 PRORP_SEED=42

bins=(
    ablation_confidence_basis
    ablation_seasonality
    archetype_breakdown
    fig03_idle_fragmentation
    fig06_regions
    fig07_days
    fig08_window_size
    fig09_confidence
    fig11_resume_frequency
    fig12_pause_frequency
    fleet_report
    predictor_comparison
    table1_config
)
examples=(knob_tuning quickstart regional_fleet sql_history_explorer)

for bin in "${bins[@]}"; do
    cargo run --release -q -p prorp-bench --bin "$bin" >"$out/$bin.txt"
done
for example in "${examples[@]}"; do
    cargo run --release -q -p prorp-bench --example "$example" >"$out/example_$example.txt"
done
