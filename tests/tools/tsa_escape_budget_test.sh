#!/usr/bin/env bash
# Budget for HOPE_NO_THREAD_SAFETY_ANALYSIS, the escape hatch from
# Clang's thread-safety analysis: the tree under <src_dir> may apply it
# at most <budget> times (its #define does not count), and every use
# must carry a `// NO_TSA:` line in the comment block above its
# declaration, stating the invariant the analysis cannot prove.
# Before checking the tree, the script proves on generated fixtures
# that both rules fire.
#
# Usage: tsa_escape_budget_test.sh <src_dir> [budget]   (default 5)
set -u

src="${1:?usage: $0 <src_dir> [budget]}"
budget="${2:-5}"

# Per file: one "use FILE:LINE" per application of the macro outside
# comments and #define lines, plus "undocumented FILE:LINE" when the
# comment block above the declaration (code lines between it and the
# macro are skipped) has no `// NO_TSA:` line.
read -r -d '' scan_prog <<'AWK'
{ line[FNR] = $0 }
END {
  for (i = 1; i <= FNR; i++) {
    code = line[i]
    sub(/\/\/.*/, "", code)
    if (code !~ /(^|[^A-Za-z0-9_])HOPE_NO_THREAD_SAFETY_ANALYSIS([^A-Za-z0-9_]|$)/)
      continue
    if (code ~ /^[ \t]*#[ \t]*define/) continue
    print "use " FILENAME ":" i
    j = i - 1
    while (j > 0 && i - j <= 8 && line[j] !~ /^[ \t]*(\/\/.*)?$/) j--
    doc = 0
    for (; j > 0 && line[j] ~ /^[ \t]*\/\//; j--)
      if (line[j] ~ /^[ \t]*\/\/[ \t]*NO_TSA:/) doc = 1
    if (!doc) print "undocumented " FILENAME ":" i
  }
}
AWK

scan() {
  find "$1" -type f \( -name '*.h' -o -name '*.cc' \) | sort |
    while IFS= read -r f; do awk "$scan_prog" "$f"; done
}

# Exit status 0 iff the tree at $1 keeps budget $2; reports otherwise.
check() {
  local out uses
  out="$(scan "$1")"
  uses="$(grep -c '^use ' <<<"$out")"
  local rc=0
  if [[ "$uses" -gt "$2" ]]; then
    echo "$1: HOPE_NO_THREAD_SAFETY_ANALYSIS applied $uses times" \
         "(budget $2):"
    grep '^use ' <<<"$out" | sed 's/^use /  /'
    rc=1
  fi
  if grep -q '^undocumented ' <<<"$out"; then
    grep '^undocumented ' <<<"$out" |
      sed 's/^undocumented \(.*\)/\1: escape without a "\/\/ NO_TSA:" comment/'
    rc=1
  fi
  return "$rc"
}

fail=0
fixtures="$(mktemp -d)"
trap 'rm -rf "$fixtures"' EXIT

documented='  // NO_TSA: invariant stated here.
  void F() HOPE_NO_THREAD_SAFETY_ANALYSIS {}'
mkdir "$fixtures/good" "$fixtures/bare" "$fixtures/over"
{
  echo '#define HOPE_NO_THREAD_SAFETY_ANALYSIS \'
  echo '  HOPE_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)'
  echo '// HOPE_NO_THREAD_SAFETY_ANALYSIS in a comment does not count.'
  printf '%s\n' '  /// A doc comment.' '  //' '  // NO_TSA: a wrapped' \
    '  // declaration is skipped.' '  void G(int a)' \
    '      HOPE_NO_THREAD_SAFETY_ANALYSIS {}'
} >"$fixtures/good/a.h"
{
  echo '  // A comment without the tag.'
  echo '  void F() HOPE_NO_THREAD_SAFETY_ANALYSIS {}'
} >"$fixtures/bare/a.cc"
for i in 1 2 3; do
  printf '%s\n%s\n' "$documented" "$documented" >"$fixtures/over/$i.h"
done

check "$fixtures/good" 2 >/dev/null ||
  { echo "FAIL: documented fixture rejected"; fail=1; }
check "$fixtures/bare" 5 >/dev/null &&
  { echo "FAIL: undocumented escape accepted"; fail=1; }
check "$fixtures/over" 5 >/dev/null &&
  { echo "FAIL: 6 escapes accepted under a budget of 5"; fail=1; }
check "$fixtures/over" 6 >/dev/null ||
  { echo "FAIL: 6 escapes rejected under a budget of 6"; fail=1; }

if [[ ! -d "$src" ]]; then
  echo "FAIL: $src is not a directory"
  exit 1
fi
check "$src" "$budget" || fail=1

if [[ "$fail" -ne 0 ]]; then
  echo "tsa_escape_budget_test FAILED"
  exit 1
fi
echo "tsa_escape_budget_test OK ($(scan "$src" | grep -c '^use ') of" \
     "$budget escapes used)"
