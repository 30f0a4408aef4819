#!/usr/bin/env python3
"""Coverage floor gate: parses llvm-cov export JSON or a directory of
gcov --json-format output and enforces a per-file line-coverage floor on
the gated files. Used by tools/coverage_report.sh.

Exit: 0 floor met, 1 a gated file is below the floor or missing from
the report, 2 usage errors.
"""
import argparse
import glob
import gzip
import json
import os
import sys


def load_llvm(path):
    """llvm-cov export -summary-only: {data: [{files: [{filename,
    summary: {lines: {count, covered, percent}}}]}]}."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for data in doc.get("data", []):
        for fe in data.get("files", []):
            lines = fe.get("summary", {}).get("lines", {})
            count, covered = lines.get("count", 0), lines.get("covered", 0)
            out[os.path.abspath(fe["filename"])] = (covered, count)
    return out


def load_gcov(dirname):
    """Directory of gcov JSON (possibly .gz): one doc per object file,
    {files: [{file, lines: [{line_number, count}]}]}. The same source
    appears once per including object file; a line counts as covered if
    any object executed it."""
    hits = {}  # abspath -> {line: max_count}
    for path in glob.glob(os.path.join(dirname, "*.gcov.json.gz")) + \
            glob.glob(os.path.join(dirname, "*.gcov.json")):
        opener = gzip.open if path.endswith(".gz") else open
        try:
            with opener(path, "rt") as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        for fe in doc.get("files", []):
            name = os.path.abspath(fe.get("file", ""))
            per = hits.setdefault(name, {})
            for ln in fe.get("lines", []):
                n = ln.get("line_number")
                per[n] = max(per.get(n, 0), ln.get("count", 0))
    return {name: (sum(1 for c in per.values() if c > 0), len(per))
            for name, per in hits.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--format", choices=["llvm", "gcov"], required=True)
    ap.add_argument("report")
    ap.add_argument("--floor", type=float, default=80.0)
    ap.add_argument("--repo-root", required=True)
    ap.add_argument("gated", nargs="+")
    args = ap.parse_args()

    cov = load_llvm(args.report) if args.format == "llvm" \
        else load_gcov(args.report)

    # Informational: everything under src/.
    root = os.path.abspath(args.repo_root)
    print(f"{'file':<44} {'lines':>7} {'covered':>8} {'pct':>7}")
    for name in sorted(cov):
        if not name.startswith(os.path.join(root, "src")):
            continue
        covered, count = cov[name]
        pct = 100.0 * covered / count if count else 0.0
        print(f"{os.path.relpath(name, root):<44} {count:>7} "
              f"{covered:>8} {pct:>6.1f}%")

    failed = False
    print(f"\ngate: floor {args.floor:.0f}% on gated files")
    for rel in args.gated:
        name = os.path.abspath(os.path.join(root, rel))
        if name not in cov or cov[name][1] == 0:
            print(f"  FAIL {rel}: not in the coverage report")
            failed = True
            continue
        covered, count = cov[name]
        pct = 100.0 * covered / count
        mark = "ok  " if pct >= args.floor else "FAIL"
        if pct < args.floor:
            failed = True
        print(f"  {mark} {rel}: {pct:.1f}% ({covered}/{count})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
