#!/usr/bin/env bash
# Line-coverage report with a floor gate on the untrusted-input files.
#
#   tools/coverage_report.sh <build-dir> [floor-pct]
#
# <build-dir> must be configured with -DHOPE_COVERAGE=ON. Runs the ctest
# suite to produce profiles, then reports per-file line coverage:
#   * Clang builds: llvm-profdata merge + llvm-cov export
#   * gcc builds:   gcov --json-format over the .gcda files
# The gate: every file on the gated list (the surfaces that parse bytes
# an attacker controls, and the B+tree) must reach the floor (default 80%
# of lines). Overall numbers are informational; the floor is the CI
# contract — fuzz targets and unit tests together must actually reach
# the validation branches they claim to cover.
#
# Exit: 0 floor met, 1 a gated file is below the floor, 2 usage/env.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-}"
floor="${2:-80}"
if [[ -z "$build_dir" || ! -d "$build_dir" ]]; then
  echo "usage: coverage_report.sh <build-dir> [floor-pct]" >&2
  exit 2
fi

# The gated surfaces: blob deserialization, code-trie construction and
# decode, the rank/select structure with always-on bounds contracts, and
# the CLI/env parsers; plus the B+tree, whose key arena has an escape
# path for long keys and a chunk roll-over that only rare keys reach.
gated=(
  "src/hope/hope.cc"
  "src/hope/decoder.cc"
  "src/common/bitvector.cc"
  "src/btree/btree.cc"
)

# Absolute: the paths below are used after the cd.
build_dir="$(cd "$build_dir" && pwd)" || exit 2
cd "$build_dir" || exit 2

# Runs the suite to produce profiles, keeping its output in
# coverage-ctest.log. On failure the failing tests' output and the
# summary go to stderr before exit 2, so a failure that does not recur
# on rerun is still on record.
ctest_log="$build_dir/coverage-ctest.log"
run_ctest() {
  ctest --output-on-failure -j "$(nproc)" >"$ctest_log" 2>&1 && return 0
  echo "coverage_report: ctest failed (full log: $ctest_log)" >&2
  awk '/^ *[0-9]+\/[0-9]+ Test +#[0-9]+:/ { show = ($0 !~ / Passed +[0-9.]+ sec$/) }
       /^[0-9]+% tests passed/ { show = 1 }
       show' "$ctest_log" >&2
  exit 2
}

compiler_is_clang=0
if grep -qs "CMAKE_CXX_COMPILER_ID:INTERNAL=Clang" CMakeCache.txt ||
   grep -qs 'CMAKE_CXX_COMPILER:FILEPATH=.*clang' CMakeCache.txt; then
  compiler_is_clang=1
fi

json="$build_dir/coverage.json"
if [[ "$compiler_is_clang" -eq 1 ]]; then
  command -v llvm-profdata >/dev/null || { echo "llvm-profdata missing" >&2; exit 2; }
  command -v llvm-cov >/dev/null || { echo "llvm-cov missing" >&2; exit 2; }
  export LLVM_PROFILE_FILE="$build_dir/profiles/%p-%m.profraw"
  mkdir -p "$build_dir/profiles"
  run_ctest
  llvm-profdata merge -sparse "$build_dir"/profiles/*.profraw \
    -o "$build_dir/coverage.profdata" || exit 2
  # Any instrumented test binary maps the library code; use them all as
  # -object args so tool/CLI-only lines are attributed too.
  objects=()
  while IFS= read -r bin; do objects+=("-object" "$bin"); done \
    < <(find tests tools -maxdepth 3 -type f -executable \
          -name '*test*' -o -type f -executable -name 'hope_cli' \
          2>/dev/null | head -40)
  llvm-cov export "${objects[@]}" \
    -instr-profile="$build_dir/coverage.profdata" \
    -summary-only > "$json" || exit 2
  python3 "$repo_root/tools/coverage_gate.py" \
    --format llvm "$json" --floor "$floor" --repo-root "$repo_root" \
    "${gated[@]}"
else
  command -v gcov >/dev/null || { echo "gcov missing" >&2; exit 2; }
  run_ctest
  # gcov --json-format drops one .gcov.json.gz per source next to cwd;
  # collect them in a scratch dir.
  scratch="$build_dir/gcov-json"
  rm -rf "$scratch" && mkdir -p "$scratch"
  ( cd "$scratch" &&
    find "$build_dir" -name '*.gcda' -print0 |
      xargs -0 -r gcov --json-format --branch-probabilities \
        >/dev/null 2>&1 )
  python3 "$repo_root/tools/coverage_gate.py" \
    --format gcov "$scratch" --floor "$floor" --repo-root "$repo_root" \
    "${gated[@]}"
fi
