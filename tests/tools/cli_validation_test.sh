#!/usr/bin/env bash
# Exit-code contract of hope_cli argument validation (documented in the
# CLI header: 0 ok, 1 runtime error, 2 usage error). Probes the cheap
# paths only — selftest runs are covered by hope_cli_smoke, serve runs
# by hope_cli_serve_smoke. The drift experiments live in
# bench_dynamic_rebuild (ctest bench_dynamic_rebuild_smoke).
set -u

cli="$1"
fail=0

expect() {
  local want="$1"
  shift
  "$cli" "$@" >/dev/null 2>&1
  local got=$?
  if [[ "$got" -ne "$want" ]]; then
    echo "FAIL: hope_cli $* -> exit $got (want $want)"
    fail=1
  fi
}

# serve arguments share the digits-only ParsePositiveUint contract:
# keys, workers, shards each reject non-numeric, signed, zero, trailing
# junk and out-of-range values (workers > 64, shards > 256 or < 2).
expect 2 serve single-char abc
expect 2 serve single-char +7
expect 2 serve single-char 0
expect 2 serve single-char 100 0
expect 2 serve single-char 100 2x
expect 2 serve single-char 100 65
expect 2 serve single-char 100 2 0
expect 2 serve single-char 100 2 1
expect 2 serve single-char 100 2 257
expect 2 serve single-char 100 2 -4
expect 2 serve single-char 99999999999999999999
expect 2 serve bogus-scheme
# bad scheme / subcommand / missing args; drift is not a subcommand.
expect 2 bogus-subcommand
expect 2 drift single-char 100
expect 2 build double-char only-two-args
# help is success, and prints the serve demo.
expect 0 --help
expect 0 help
if ! "$cli" --help 2>/dev/null | grep -q serve; then
  echo "FAIL: --help does not mention the serve demo"
  fail=1
fi

exit "$fail"
