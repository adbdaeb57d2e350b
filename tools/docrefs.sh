#!/bin/bash
# Fails when a *.go path named in DESIGN.md, README.md, ROADMAP.md or
# bench/README.md no longer resolves to a tracked file. A name resolves when
# some tracked path equals it or ends with "/<name>", so `shard.go`,
# `engine/shard.go` and `internal/engine/shard.go` all name the same file.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(DESIGN.md README.md ROADMAP.md bench/README.md)
tracked=$(git ls-files '*.go')
fail=0
for name in $(grep -ohE '[A-Za-z_][A-Za-z0-9_./-]*\.go\b' "${docs[@]}" | sort -u); do
  if ! grep -qE "(^|/)${name//./\\.}\$" <<<"$tracked"; then
    echo "docrefs: $name is named in the docs but no tracked file ends with it:" >&2
    grep -nF "$name" "${docs[@]}" | sed 's/^/  /' >&2
    fail=1
  fi
done
exit $fail
