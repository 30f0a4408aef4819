#!/usr/bin/env python3
"""Builds and runs hope_bench, the repository's benchmark (stdlib only).

One run (the last line of stdout is the result as one JSON object):
  python3 hope_bench/run.py --workload W --seed N --seconds S --trace 0|1
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, and writes a Chrome trace-event file under
build_bench/results/.

Several seeds, with the median and quartiles of every metric the binary
reports, and a flag on each end-to-end metric whose spread is too wide:
  python3 hope_bench/run.py --workload all --repeat 5 [--trace 1]

Every workload at 1/50 scale, checking correctness only:
  python3 hope_bench/run.py --smoke
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# Under build*/, which the repository's .gitignore already names.
BUILD_DIR = os.path.join(ROOT, "build_bench", "hope_bench")
RESULTS_DIR = os.path.join(ROOT, "build_bench", "results")
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.02
SMOKE_SECONDS = 1


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "hope_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(BUILD_DIR, "hope_bench")


def run_once(binary, workload, seed, seconds, trace, scale=None):
    """Runs the binary once; returns its report with the exit code."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}")
    json_path = stem + (".traced.json" if trace else ".json")
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", json_path]
    if trace:
        cmd += ["--trace", stem + ".trace.json"]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: no result within "
                         f"{RUN_TIMEOUT_S}s")
    # Exit code 1 with a report means a result check failed.
    if proc.returncode not in (0, 1) or not os.path.exists(json_path):
        raise BenchError(f"{workload} seed {seed}: hope_bench exited with "
                         f"{proc.returncode}")
    with open(json_path) as f:
        report = json.load(f)
    report["exit_code"] = proc.returncode
    if trace:
        log(f"trace written to {stem}.trace.json")
    return report


def correct(report):
    return report["exit_code"] == 0 and report["failed"] == 0


def result_line(spec, report, trace):
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = report["metrics"].get(m["name"])
        if value is None:
            raise BenchError(f"{report['workload']}: metric {m['name']} was "
                             "not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct(report), "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_report(spec, report):
    unit = units(spec)
    log(f"{report['workload']} seed {report['seed']}: attempted "
        f"{report['attempted']}, failed {report['failed']}")
    for name, value in report["metrics"].items():
        log(f"  {name:32} {value!s:>24} {unit.get(name, '')}")


def print_repeat(spec, workload, reports):
    """Median [q1, q3] of every metric; flags end-to-end spreads."""
    unit = units(spec)
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(reports[0]["metrics"])
    for name in names:
        values = [r["metrics"][name] for r in reports
                  if r["metrics"].get(name) is not None]
        if not values:
            continue
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        flag = ""
        if name in bound and median:
            iqr = (q3 - q1) / abs(median)
            full = (max(values) - min(values)) / abs(median)
            flag = f"  iqr {iqr:.3f} range {full:.3f} bound {bound[name]}"
            if iqr > bound[name] / 3:
                flag += "  UNSTEADY (iqr over a third of the bound)"
            if full > bound[name]:
                flag += "  WIDE (range over the bound)"
        print(f"{workload} {name} {median:.6g} [{q1:.6g},{q3:.6g}] "
              f"{unit.get(name, '')}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run N seeds and print medians and quartiles")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/50 scale, correctness only")
    args = parser.parse_args()

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    if args.smoke or args.workload == "all":
        workloads = known
    elif args.workload in known:
        workloads = [args.workload]
    else:
        parser.error(f"--workload must be one of {known} or 'all'")
    seconds = args.seconds or spec["run_seconds"]

    binary = build()
    if args.smoke:
        ok = True
        for w in workloads:
            for trace in (0, 1):
                report = run_once(binary, w, args.seed, SMOKE_SECONDS, trace,
                                  scale=SMOKE_SCALE)
                log(f"{w} trace={trace}: attempted {report['attempted']}, "
                    f"failed {report['failed']}")
                ok = ok and correct(report)
        print("smoke: ok" if ok else "smoke: FAILED")
        return 0 if ok else 1
    if args.repeat:
        ok = True
        for w in workloads:
            reports = [run_once(binary, w, args.seed + i, seconds, args.trace)
                       for i in range(args.repeat)]
            ok = ok and all(correct(r) for r in reports)
            print_repeat(spec, w, reports)
        print("correct" if ok else "INCORRECT: a result check failed")
        return 0 if ok else 1
    if len(workloads) != 1:
        parser.error("a single run takes one --workload")
    report = run_once(binary, workloads[0], args.seed, seconds, args.trace)
    print_report(spec, report)
    print(json.dumps(result_line(spec, report, args.trace)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
