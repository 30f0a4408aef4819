#!/usr/bin/env python3
"""Bench trend diffing: compare two BENCH_*.json results and fail on
regressions beyond a threshold.

Usage:
  bench_diff.py BASELINE CANDIDATE [--cpr-threshold F] [--latency-threshold F]
  bench_diff.py HISTORY_DIR CANDIDATE --history [...]

BASELINE and CANDIDATE are either two JSON files produced by the bench
binaries' --json mode (bench/bench_common.h JsonReport: {"bench": ...,
"rows": [...]}), or two directories, in which case every BENCH_*.json
present in BOTH is compared (files only in one side are reported but do
not fail the run — new benches appear, retired ones disappear).

Rows are matched across files by a fixed whitelist of identity fields
(series / scheme / phase / op / shard counts / dataset / tree / config /
dict_size); volatile descriptive strings such as shard_epochs are
neither identity nor metrics, so a benign rebuild-count shift cannot
un-match a row and silently exempt its CPR from the gate. Within
matched rows, only recognized metric families are compared:

  higher is better:  *cpr* (compression rate), *gain*,
                     *ops_per_sec and *chars_per_sec* (throughput — the
                     latter is the encode hot path's Mchars/s series)
  lower is better:   ns_per_* and *_ns (latency), cycles_per_* (cycle
                     cost of the encode hot path; machine-bound, rides
                     the latency threshold), *_spread (load imbalance),
                     *_failures / *_violations / *_rejects
                     (correctness — any increase fails, even from a
                     zero baseline), telemetry_* (subsystem health
                     counters from the unified registry)

Latency and *_spread take separate thresholds: spread is a behavioral
metric (deterministic given the workload), while absolute latency is
machine-bound — when comparing runs from DIFFERENT machines (e.g. a CI
runner against a committed developer-machine baseline) pass
`--latency-threshold inf` to disable the latency gate rather than
training people to ignore spurious red. Throughput
(--throughput-threshold) is machine-bound too, but far less volatile
than tail percentiles, so it gets its own threshold (and `inf` opt-out)
rather than riding the latency one. Correctness counters take no
threshold: a self-check that started failing is a bug, not a trend.
Telemetry health rates (e.g. telemetry_lookup_slow_paths_per_mop,
telemetry_ebr_pending) are legitimate but load-bearing side channels:
they get a loose dedicated threshold (--telemetry-threshold, default
0.5) — except telemetry_*_ns fields, which are latencies and ride the
latency threshold, and telemetry_*_rejects / telemetry_*check_failures,
which are correctness and take none.

With --history, BASELINE is instead a directory of dated run
subdirectories (runs/2026-08-01/BENCH_*.json, ...); the candidate is
gated against the LATEST run (lexicographically last subdirectory, so
ISO dates sort chronologically) and a best/worst/latest summary across
the whole history is printed per bench file. Exit 2 if the history
directory holds no run subdirectories.

Everything else (epochs, rebuild counts, router versions, lookup checks)
is informational and ignored here. A regression is a relative change in
the bad direction beyond the family's threshold; CPR is nearly
deterministic so its default gate is tight (5%), latency runs on shared
CI hardware so its default is loose (25%, `inf` to disable).

Exit codes: 0 = no regressions, 1 = at least one regression,
2 = usage / malformed input.
"""

import argparse
import json
import math
import sys
from pathlib import Path

# Fields that identify a row rather than measure it. A fixed whitelist,
# not "all strings": volatile descriptive strings (shard_epochs and the
# like) change benignly run-to-run, and folding them into identity would
# un-match the row and silently skip its metric comparison.
ID_FIELDS = {
    "series", "scheme", "phase", "op", "num_shards", "victim_shard",
    "mix_fraction_b", "mode", "dataset", "tree", "config", "dict_size",
}


def is_latency(name: str) -> bool:
    # cycles_per_* (encode hot path cycle cost) is machine-bound the same
    # way wall-clock latency is, so it rides the latency threshold.
    return (name.startswith("ns_per_") or name.endswith("_ns")
            or name.startswith("cycles_per_"))


def is_throughput(name: str) -> bool:
    # *chars_per_sec* covers the encode hot path's mchars_per_sec series
    # (including batch-suffixed variants like mchars_per_sec_b32).
    return name.endswith("ops_per_sec") or "chars_per_sec" in name


def is_correctness(name: str) -> bool:
    # *_rejects rides along: a rebuild the manager refused to publish
    # (validation round-trip failed, compression got worse) is a
    # correctness event, not a trend.
    return (name.endswith("_failures") or name.endswith("_violations")
            or name.endswith("_rejects"))


def is_telemetry(name: str) -> bool:
    return name.startswith("telemetry_")


def is_lower_better(name: str) -> bool:
    return (is_latency(name) or is_correctness(name)
            or is_telemetry(name) or name.endswith("_spread"))


def is_higher_better(name: str) -> bool:
    return "cpr" in name or "gain" in name or is_throughput(name)


def row_key(row: dict) -> tuple:
    return tuple((field, row[field]) for field in sorted(row)
                 if field in ID_FIELDS)


def load_report(path: Path) -> dict:
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(report, dict) or not isinstance(report.get("rows"), list):
        print(f"error: {path} is not a bench report (no rows[])",
              file=sys.stderr)
        raise SystemExit(2)
    return report


def metric_value(value):
    """JsonReport emits null for non-finite values; treat those (and
    non-numbers) as unavailable."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if not math.isfinite(value):
        return None
    return float(value)


def diff_reports(name, baseline, candidate, cpr_thr, lat_thr, spread_thr,
                 tput_thr, tel_thr):
    """Returns (regressions, notes): regressions are formatted lines."""
    regressions, notes = [], []
    # Different run configurations (keys per dataset, full-scale flag)
    # measure different workloads; comparing them would report the
    # config delta as a perf regression. Skip, loudly.
    for cfg in ("keys", "full_scale", "bench"):
        if baseline.get(cfg) != candidate.get(cfg):
            notes.append(
                f"{name}: skipped — run config differs "
                f"({cfg}: {baseline.get(cfg)} vs {candidate.get(cfg)})")
            return regressions, notes
    base_rows = {}
    for row in baseline["rows"]:
        base_rows[row_key(row)] = row

    matched = 0
    for row in candidate["rows"]:
        key = row_key(row)
        base = base_rows.get(key)
        if base is None:
            notes.append(f"{name}: new row {dict(key)}")
            continue
        matched += 1
        for field, value in row.items():
            lower = is_lower_better(field)
            higher = is_higher_better(field)
            if not lower and not higher:
                continue
            if field in ID_FIELDS:
                continue
            new = metric_value(value)
            old = metric_value(base.get(field))
            if new is None or old is None:
                continue
            # Correctness counters are gated BEFORE the old == 0 skip:
            # the interesting baseline for a failure counter is exactly
            # zero, and any increase is a regression, thresholds be
            # damned.
            if is_correctness(field):
                if new > old:
                    regressions.append(
                        f"{name}: {dict(key)} {field}: {old:g} -> "
                        f"{new:g} (correctness counter increased)")
                continue
            if old == 0:
                continue
            change = (new - old) / abs(old)
            if lower:
                # Latency check first: telemetry_*_ns fields are
                # latencies that happen to come from the registry.
                if is_latency(field):
                    threshold = lat_thr
                elif is_telemetry(field):
                    threshold = tel_thr
                else:
                    threshold = spread_thr
            else:
                threshold = tput_thr if is_throughput(field) else cpr_thr
            if math.isinf(threshold):
                continue
            bad = change > threshold if lower else change < -threshold
            if bad:
                direction = "up" if change > 0 else "down"
                regressions.append(
                    f"{name}: {dict(key)} {field}: {old:g} -> {new:g} "
                    f"({change * 100:+.1f}% {direction}, "
                    f"threshold {threshold * 100:.0f}%)")
    if matched == 0:
        notes.append(f"{name}: no rows matched between baseline and "
                     "candidate (identity fields changed?)")
    return regressions, notes


def collect_pairs(baseline: Path, candidate: Path):
    if baseline.is_dir() != candidate.is_dir():
        print("error: BASELINE and CANDIDATE must both be files or both "
              "be directories", file=sys.stderr)
        raise SystemExit(2)
    if not baseline.is_dir():
        return [(baseline.name, baseline, candidate)], []
    base_files = {p.name: p for p in sorted(baseline.glob("BENCH_*.json"))}
    cand_files = {p.name: p for p in sorted(candidate.glob("BENCH_*.json"))}
    notes = []
    for only in sorted(set(base_files) - set(cand_files)):
        notes.append(f"{only}: present only in baseline")
    for only in sorted(set(cand_files) - set(base_files)):
        notes.append(f"{only}: present only in candidate")
    shared = sorted(set(base_files) & set(cand_files))
    if not shared:
        print("error: no shared BENCH_*.json between the two directories",
              file=sys.stderr)
        raise SystemExit(2)
    return [(n, base_files[n], cand_files[n]) for n in shared], notes


def gated_fields(report: dict):
    """(row_key, field) pairs of every gated metric in a report."""
    for row in report["rows"]:
        key = row_key(row)
        for field, value in row.items():
            if field in ID_FIELDS:
                continue
            if not (is_lower_better(field) or is_higher_better(field)):
                continue
            if metric_value(value) is None:
                continue
            yield key, field


def history_trend(history: Path):
    """Prints a best/worst/latest line per gated metric across the dated
    run subdirectories of `history` and returns the latest run's
    directory (the gate baseline). Exits 2 on an empty history."""
    runs = sorted(p for p in history.iterdir() if p.is_dir())
    if not runs:
        print(f"error: history directory {history} has no run "
              "subdirectories", file=sys.stderr)
        raise SystemExit(2)
    latest = runs[-1]
    print(f"history: {len(runs)} run(s), {runs[0].name} .. {latest.name}, "
          f"gating against {latest.name}")
    # Metric series across runs, seeded from the latest run's shape so
    # retired rows do not clutter the trend.
    for bench_file in sorted(latest.glob("BENCH_*.json")):
        latest_report = load_report(bench_file)
        series = {}  # (key, field) -> [values in run order]
        for run in runs:
            path = run / bench_file.name
            if not path.is_file():
                continue
            report = load_report(path)
            rows = {row_key(r): r for r in report["rows"]}
            for key, field in gated_fields(latest_report):
                value = metric_value(rows.get(key, {}).get(field))
                if value is not None:
                    series.setdefault((key, field), []).append(value)
        for (key, field), values in series.items():
            if len(values) < 2:
                continue
            best = max(values) if is_higher_better(field) else min(values)
            worst = min(values) if is_higher_better(field) else max(values)
            print(f"trend {bench_file.name}: {dict(key)} {field}: "
                  f"best {best:g} worst {worst:g} latest {values[-1]:g} "
                  f"({len(values)} runs)")
    return latest


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two bench results; exit 1 on regressions.")
    parser.add_argument("baseline", type=Path,
                        help="baseline report/dir; with --history, a "
                             "directory of dated run subdirectories")
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--cpr-threshold", type=float, default=0.05,
                        help="max relative CPR/gain drop (default 0.05)")
    parser.add_argument("--latency-threshold", type=float, default=0.25,
                        help="max relative latency (ns_per_*, *_ns) "
                             "increase (default 0.25; 'inf' disables — "
                             "use when baseline and candidate ran on "
                             "different machines)")
    parser.add_argument("--spread-threshold", type=float, default=0.25,
                        help="max relative *_spread increase "
                             "(default 0.25)")
    parser.add_argument("--throughput-threshold", type=float, default=0.25,
                        help="max relative *ops_per_sec drop (default "
                             "0.25; 'inf' disables)")
    parser.add_argument("--telemetry-threshold", type=float, default=0.5,
                        help="max relative increase of telemetry_* health "
                             "rates (default 0.5; 'inf' disables; "
                             "telemetry latencies/correctness counters "
                             "ride their own families)")
    parser.add_argument("--history", action="store_true",
                        help="treat BASELINE as a directory of dated run "
                             "subdirectories: print a best/worst/latest "
                             "trend and gate against the latest run")
    args = parser.parse_args()
    if (args.cpr_threshold < 0 or args.latency_threshold < 0
            or args.spread_threshold < 0 or args.throughput_threshold < 0
            or args.telemetry_threshold < 0):
        parser.error("thresholds must be non-negative")

    notes = []
    baseline = args.baseline
    if args.history:
        if not baseline.is_dir():
            print(f"error: --history baseline {baseline} is not a "
                  "directory", file=sys.stderr)
            return 2
        baseline = history_trend(baseline)

    pairs, pair_notes = collect_pairs(baseline, args.candidate)
    notes += pair_notes
    regressions = []
    for name, base_path, cand_path in pairs:
        r, n = diff_reports(name, load_report(base_path),
                            load_report(cand_path),
                            args.cpr_threshold, args.latency_threshold,
                            args.spread_threshold, args.throughput_threshold,
                            args.telemetry_threshold)
        regressions += r
        notes += n

    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(f"{len(regressions)} regression(s):")
        for line in regressions:
            print(f"  REGRESSION {line}")
        return 1
    print(f"ok: {len(pairs)} report(s) compared, no regressions beyond "
          f"thresholds (cpr {args.cpr_threshold:.0%}, "
          f"latency {args.latency_threshold:.0%}, "
          f"spread {args.spread_threshold:.0%}, "
          f"throughput {args.throughput_threshold:.0%}, "
          f"telemetry {args.telemetry_threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
