#!/usr/bin/env bash
# Runs a gtest binary under a --gtest_filter, but first fails if any of the
# filter's positive patterns selects no test. gtest 1.12 passes a filter
# that matches nothing, so a renamed or deleted test would otherwise drop
# out of a filtered CI step without a trace.
#
# Usage: tools/run_gtest_filter.sh <test-binary> <filter> [gtest args...]
#   tools/run_gtest_filter.sh build/tests/wfrt_test '*Fleet*:Steal*'
#
# Patterns are ':'-separated; negative patterns (after the first '-') only
# exclude, so they are not checked.

set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <test-binary> <filter> [gtest args...]" >&2
  exit 2
fi
binary="$1"
filter="$2"
shift 2

IFS=':' read -r -a patterns <<< "${filter%%-*}"
for pattern in "${patterns[@]}"; do
  [[ -n "$pattern" ]] || continue
  listing="$("$binary" --gtest_list_tests --gtest_filter="$pattern")"
  # Test lines are indented; suite lines are not.
  count="$(grep -c '^  ' <<< "$listing" || true)"
  if [[ "$count" -eq 0 ]]; then
    echo "$0: pattern '$pattern' selects no test in $binary" >&2
    exit 1
  fi
  echo "$pattern: $count tests" >&2
done

exec "$binary" --gtest_filter="$filter" "$@"
