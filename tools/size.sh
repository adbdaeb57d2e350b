#!/bin/bash
# Prints the non-test Go line count of every internal/* package (subpackages
# counted with their parent's tree). With -check, fails when a package listed
# in tools/size_budget.txt ("<package> <max lines>") exceeds its budget: the
# budget is a ratchet, so a change lowers it or justifies raising it in the
# same diff.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$1" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }

for dir in internal/*/; do
  printf '%-24s %6d\n' "${dir%/}" "$(lines "$dir")"
done

[ "${1:-}" = "-check" ] || exit 0
fail=0
while read -r pkg budget; do
  case "$pkg" in ''|'#'*) continue ;; esac
  n=$(lines "$pkg")
  if [ "$n" -gt "$budget" ]; then
    echo "size: $pkg has $n non-test Go lines, over its budget of $budget (tools/size_budget.txt)" >&2
    fail=1
  fi
done < tools/size_budget.txt
exit $fail
