#!/usr/bin/env bash
# Exit-code and detection contract of tools/bench_diff.py (documented in
# its module docstring: 0 no regressions, 1 regressions, 2 usage /
# malformed input). Exercises file-vs-file and dir-vs-dir modes against
# synthesized reports shaped like bench_common.h JsonReport output.
set -u

diff_tool="$1"
python="${2:-python3}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
fail=0

expect() {
  local want="$1"
  shift
  "$python" "$diff_tool" "$@" >/dev/null 2>&1
  local got=$?
  if [[ "$got" -ne "$want" ]]; then
    echo "FAIL: bench_diff $* -> exit $got (want $want)"
    fail=1
  fi
}

base="$work/base.json"
cat > "$base" <<'EOF'
{
  "bench": "dynamic_rebuild",
  "keys": 1000,
  "rows": [
    {"series": "phase", "phase": 0, "managed_cpr": 2.0, "epoch": 0},
    {"series": "phase", "phase": 1, "managed_cpr": 1.9, "epoch": 1},
    {"series": "summary", "managed_cpr_final": 1.9, "rebal_spread": 1.1,
     "ns_per_char_b1": 10.0, "rebuilds": 4}
  ]
}
EOF

# Identical results: clean pass.
cp "$base" "$work/same.json"
expect 0 "$base" "$work/same.json"

# CPR drop beyond 5%: regression.
sed 's/"managed_cpr_final": 1.9/"managed_cpr_final": 1.7/' "$base" \
  > "$work/cpr_drop.json"
expect 1 "$base" "$work/cpr_drop.json"

# CPR drop within the default 5% gate: pass.
sed 's/"managed_cpr_final": 1.9/"managed_cpr_final": 1.85/' "$base" \
  > "$work/cpr_small.json"
expect 0 "$base" "$work/cpr_small.json"
# ...but a tightened gate catches it.
expect 1 "$base" "$work/cpr_small.json" --cpr-threshold 0.01

# Latency up 50% (default gate 25%): regression; CPR improving does not
# mask it.
sed -e 's/"ns_per_char_b1": 10.0/"ns_per_char_b1": 15.0/' \
    -e 's/"managed_cpr_final": 1.9/"managed_cpr_final": 2.5/' "$base" \
  > "$work/lat_up.json"
expect 1 "$base" "$work/lat_up.json"
# A loose latency gate lets it through; inf disables the family
# entirely (the cross-machine CI mode) without touching the spread gate.
expect 0 "$base" "$work/lat_up.json" --latency-threshold 0.6
expect 0 "$base" "$work/lat_up.json" --latency-threshold inf
sed 's/"rebal_spread": 1.1/"rebal_spread": 2.0/' "$work/lat_up.json" \
  > "$work/lat_inf_spread_up.json"
expect 1 "$base" "$work/lat_inf_spread_up.json" --latency-threshold inf

# Spread (load imbalance) counts as lower-is-better.
sed 's/"rebal_spread": 1.1/"rebal_spread": 2.0/' "$base" \
  > "$work/spread_up.json"
expect 1 "$base" "$work/spread_up.json"

# Non-metric counters (epoch, rebuilds) never gate.
sed 's/"rebuilds": 4/"rebuilds": 9/' "$base" > "$work/counts.json"
expect 0 "$base" "$work/counts.json"

# Improvements never gate.
sed 's/"managed_cpr_final": 1.9/"managed_cpr_final": 2.4/' "$base" \
  > "$work/better.json"
expect 0 "$base" "$work/better.json"

# Directory mode: shared files compared, one-sided files only noted.
mkdir -p "$work/a" "$work/b"
cp "$base" "$work/a/BENCH_dynamic.json"
cp "$work/cpr_drop.json" "$work/b/BENCH_dynamic.json"
cp "$base" "$work/a/BENCH_only_in_baseline.json"
expect 1 "$work/a" "$work/b"
cp "$base" "$work/b/BENCH_dynamic.json"
expect 0 "$work/a" "$work/b"

# Volatile descriptive strings (shard_epochs-style) are not identity:
# a row whose epoch string shifted still matches, so a CPR drop in it
# is still caught...
base_epochs="$work/base_epochs.json"
cat > "$base_epochs" <<'EOF'
{
  "bench": "dynamic_rebuild",
  "keys": 1000,
  "rows": [
    {"series": "rebalance_phase", "phase": 1, "rebal_cpr": 2.0,
     "rebal_shard_epochs": "0/0/3/0"}
  ]
}
EOF
sed -e 's|"0/0/3/0"|"0/0/2/0"|' -e 's/"rebal_cpr": 2.0/"rebal_cpr": 1.5/' \
  "$base_epochs" > "$work/epochs_shift.json"
expect 1 "$base_epochs" "$work/epochs_shift.json"
# ...and an epoch-string shift alone never gates.
sed 's|"0/0/3/0"|"0/0/2/0"|' "$base_epochs" > "$work/epochs_only.json"
expect 0 "$base_epochs" "$work/epochs_only.json"

# A different run configuration (keys / full_scale) is skipped loudly,
# never reported as a perf regression.
sed -e 's/"keys": 1000/"keys": 50/' \
    -e 's/"managed_cpr_final": 1.9/"managed_cpr_final": 1.0/' "$base" \
  > "$work/other_config.json"
expect 0 "$base" "$work/other_config.json"

# Serving rows: latency (*_ns), throughput (*ops_per_sec), correctness
# (*_failures / *_violations) families, identity includes "op".
serving="$work/serving.json"
cat > "$serving" <<'EOF'
{
  "bench": "serving",
  "keys": 1000,
  "rows": [
    {"series": "serving", "phase": "read_heavy", "op": "lookup",
     "p99_ns": 1000.0, "ops_per_sec": 50000.0, "check_failures": 0,
     "scan_order_violations": 0},
    {"series": "serving", "phase": "read_heavy", "op": "scan",
     "p99_ns": 9000.0, "ops_per_sec": 2000.0, "check_failures": 0,
     "scan_order_violations": 0}
  ]
}
EOF
cp "$serving" "$work/serving_same.json"
expect 0 "$serving" "$work/serving_same.json"

# Tail latency up 50%: gated by --latency-threshold, inf disables.
sed 's/"p99_ns": 1000.0/"p99_ns": 1500.0/' "$serving" \
  > "$work/serving_lat.json"
expect 1 "$serving" "$work/serving_lat.json"
expect 0 "$serving" "$work/serving_lat.json" --latency-threshold inf

# Throughput down 50%: gated by --throughput-threshold, inf disables.
sed 's/"ops_per_sec": 50000.0/"ops_per_sec": 25000.0/' "$serving" \
  > "$work/serving_tput.json"
expect 1 "$serving" "$work/serving_tput.json"
expect 0 "$serving" "$work/serving_tput.json" --throughput-threshold inf
expect 0 "$serving" "$work/serving_tput.json" --throughput-threshold 1.5

# Correctness counters: ANY increase fails, even 0 -> 1, and no
# threshold flag exempts it.
sed 's/"scan_order_violations": 0}$/"scan_order_violations": 1}/' \
  "$serving" > "$work/serving_corrupt.json"
expect 1 "$serving" "$work/serving_corrupt.json"
expect 1 "$serving" "$work/serving_corrupt.json" \
  --latency-threshold inf --throughput-threshold inf

# Identity includes "op": swapping op names un-matches rows (noted, not
# silently compared across different ops).
sed -e 's/"op": "lookup"/"op": "erase"/' "$serving" \
  > "$work/serving_op.json"
expect 0 "$serving" "$work/serving_op.json"

# Figure rows: dataset / tree / config / dict_size are identity, so rows
# that differ only in one of them are compared separately (fig12's
# per-tree rows, fig9's 4K vs 16K rows) instead of collapsing onto one
# key where the last row silently wins.
fig="$work/fig.json"
cat > "$fig" <<'EOF'
{
  "bench": "fig12_point_queries",
  "keys": 1000,
  "rows": [
    {"dataset": "Email", "tree": "ART", "config": "3-Grams",
     "dict_size": "16K", "lookup_ns": 100.0, "cpr": 2.0},
    {"dataset": "Email", "tree": "HOT", "config": "3-Grams",
     "dict_size": "16K", "lookup_ns": 200.0, "cpr": 2.0},
    {"dataset": "Email", "tree": "ART", "config": "3-Grams",
     "dict_size": "4K", "lookup_ns": 100.0, "cpr": 1.5}
  ]
}
EOF
cp "$fig" "$work/fig_same.json"
expect 0 "$fig" "$work/fig_same.json"
# A latency regression in the HOT row only: caught, not masked by the
# ART row it differs from only in "tree".
sed 's/"lookup_ns": 200.0/"lookup_ns": 400.0/' "$fig" > "$work/fig_tree.json"
expect 1 "$fig" "$work/fig_tree.json"
# A CPR regression in the 4K row only: caught, not masked by the 16K row
# it differs from only in "dict_size".
sed 's/"cpr": 1.5/"cpr": 1.0/' "$fig" > "$work/fig_dict.json"
expect 1 "$fig" "$work/fig_dict.json"

# Telemetry rows: telemetry_* health rates take --telemetry-threshold
# (default 0.5), telemetry_*_ns ride the latency family, *_rejects and
# *check_failures are zero-tolerance correctness, and "mode" is
# identity (open vs closed loop rows never compare against each other).
telem="$work/telemetry.json"
cat > "$telem" <<'EOF'
{
  "bench": "serving",
  "keys": 1000,
  "rows": [
    {"series": "telemetry", "phase": "read_heavy", "mode": "closed",
     "telemetry_rebuild_rejects": 0, "telemetry_check_failures": 0,
     "telemetry_lookup_slow_paths_per_mop": 10.0,
     "telemetry_ebr_pending": 4.0,
     "telemetry_queue_delay_p99_ns": 100000.0}
  ]
}
EOF
cp "$telem" "$work/telem_same.json"
expect 0 "$telem" "$work/telem_same.json"

# Slow-path rate up 40%: within the default 50% telemetry gate...
sed 's/"telemetry_lookup_slow_paths_per_mop": 10.0/"telemetry_lookup_slow_paths_per_mop": 14.0/' \
  "$telem" > "$work/telem_rate_small.json"
expect 0 "$telem" "$work/telem_rate_small.json"
# ...up 100%: regression; a loosened/disabled gate lets it through.
sed 's/"telemetry_lookup_slow_paths_per_mop": 10.0/"telemetry_lookup_slow_paths_per_mop": 20.0/' \
  "$telem" > "$work/telem_rate_big.json"
expect 1 "$telem" "$work/telem_rate_big.json"
expect 0 "$telem" "$work/telem_rate_big.json" --telemetry-threshold 1.5
expect 0 "$telem" "$work/telem_rate_big.json" --telemetry-threshold inf

# telemetry_*_ns is a latency, so --latency-threshold governs it.
sed 's/"telemetry_queue_delay_p99_ns": 100000.0/"telemetry_queue_delay_p99_ns": 150000.0/' \
  "$telem" > "$work/telem_lat.json"
expect 1 "$telem" "$work/telem_lat.json"
expect 0 "$telem" "$work/telem_lat.json" --latency-threshold inf

# *_rejects: any increase fails, even 0 -> 1, no flag exempts it.
sed 's/"telemetry_rebuild_rejects": 0/"telemetry_rebuild_rejects": 1/' \
  "$telem" > "$work/telem_reject.json"
expect 1 "$telem" "$work/telem_reject.json"
expect 1 "$telem" "$work/telem_reject.json" \
  --latency-threshold inf --telemetry-threshold inf

# "mode" is identity: flipping it un-matches the row (noted, not gated).
sed 's/"mode": "closed"/"mode": "open"/' "$telem" > "$work/telem_mode.json"
expect 0 "$telem" "$work/telem_mode.json"
expect 2 "$telem" "$work/telem_same.json" --telemetry-threshold -1

# Encode-hot rows: cycles_per_* rides the latency family, *chars_per_sec*
# (including batch-suffixed mchars_per_sec_b32) the throughput family,
# and "mode" is identity (single vs sorted_b32 never compare).
hot="$work/encode_hot.json"
cat > "$hot" <<'EOF'
{
  "bench": "encode_hot",
  "keys": 1000,
  "rows": [
    {"series": "encode_hot", "scheme": "3-Grams", "mode": "single",
     "ns_per_char": 20.0, "mchars_per_sec": 50.0, "cycles_per_byte": 60.0},
    {"series": "encode_hot", "scheme": "3-Grams", "mode": "sorted_b32",
     "ns_per_char": 5.0, "mchars_per_sec": 200.0, "cycles_per_byte": 15.0},
    {"series": "fig14", "scheme": "3-Grams", "mchars_per_sec_b32": 210.0}
  ]
}
EOF
cp "$hot" "$work/hot_same.json"
expect 0 "$hot" "$work/hot_same.json"

# Throughput down 50% (mchars_per_sec): gated, inf/loose disables.
sed 's/"mchars_per_sec": 200.0/"mchars_per_sec": 100.0/' "$hot" \
  > "$work/hot_tput.json"
expect 1 "$hot" "$work/hot_tput.json"
expect 0 "$hot" "$work/hot_tput.json" --throughput-threshold inf
expect 0 "$hot" "$work/hot_tput.json" --throughput-threshold 1.5

# Batch-suffixed throughput twin (mchars_per_sec_b32) gates the same way.
sed 's/"mchars_per_sec_b32": 210.0/"mchars_per_sec_b32": 100.0/' "$hot" \
  > "$work/hot_tput_b32.json"
expect 1 "$hot" "$work/hot_tput_b32.json"
expect 0 "$hot" "$work/hot_tput_b32.json" --throughput-threshold inf

# cycles_per_byte up 50%: latency family, --latency-threshold governs.
sed 's/"cycles_per_byte": 15.0/"cycles_per_byte": 22.5/' "$hot" \
  > "$work/hot_cyc.json"
expect 1 "$hot" "$work/hot_cyc.json"
expect 0 "$hot" "$work/hot_cyc.json" --latency-threshold inf

# "mode" is identity: flipping it un-matches the row (noted, not gated),
# so a would-be regression hiding behind a mode rename never fires.
sed -e 's/"mode": "sorted_b32"/"mode": "shuffled_b32"/' \
    -e 's/"mchars_per_sec": 200.0/"mchars_per_sec": 100.0/' "$hot" \
  > "$work/hot_mode.json"
expect 0 "$hot" "$work/hot_mode.json"

# A null metric (cycle counter unavailable on one machine) never gates.
sed 's/"cycles_per_byte": 15.0/"cycles_per_byte": null/' "$hot" \
  > "$work/hot_null.json"
expect 0 "$hot" "$work/hot_null.json"
expect 0 "$work/hot_null.json" "$hot"

# --history: dated run subdirectories; candidate gates against the
# LATEST run (regression vs latest fails even if older runs were worse).
hist="$work/history"
mkdir -p "$hist/2026-08-01" "$hist/2026-08-02" "$work/hist_cand"
sed 's/"ops_per_sec": 50000.0/"ops_per_sec": 20000.0/' "$serving" \
  > "$hist/2026-08-01/BENCH_serving.json"
cp "$serving" "$hist/2026-08-02/BENCH_serving.json"
cp "$serving" "$work/hist_cand/BENCH_serving.json"
expect 0 "$hist" "$work/hist_cand" --history
# Candidate regresses vs latest (even though it beats the oldest run).
sed 's/"ops_per_sec": 50000.0/"ops_per_sec": 30000.0/' "$serving" \
  > "$work/hist_cand/BENCH_serving.json"
expect 1 "$hist" "$work/hist_cand" --history
# Trend output mentions best/worst/latest.
if ! "$python" "$diff_tool" "$hist" "$work/hist_cand" --history 2>/dev/null \
    | grep -q "best .* worst .* latest"; then
  echo "FAIL: --history printed no trend line"
  fail=1
fi
# Empty history directory: usage error.
mkdir -p "$work/hist_empty"
expect 2 "$work/hist_empty" "$work/hist_cand" --history
# --history with a file baseline: usage error.
expect 2 "$serving" "$work/hist_cand" --history

# Malformed input and bad usage.
echo '{"rows": "nope"}' > "$work/broken.json"
expect 2 "$base" "$work/broken.json"
expect 2 "$base" "$work/does_not_exist.json"
expect 2 "$base" "$work/a"           # file vs dir
expect 2 "$base" "$work/same.json" --cpr-threshold -1
expect 2 "$base" "$work/same.json" --throughput-threshold -1

if [[ "$fail" -ne 0 ]]; then
  echo "bench_diff_test FAILED"
  exit 1
fi
echo "bench_diff_test OK"
