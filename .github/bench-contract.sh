#!/usr/bin/env bash
# Usage: bench-contract.sh BENCH_<fig>.json
#
# Run after regenerating a committed BENCH file in the working tree: fails
# when `git diff` shows a changed line other than the wall-time fields
# ("wall_ns" per run, "Wall" in the summary), which are the only ones that
# depend on the machine.
set -euo pipefail
changed=$(git diff -U0 -- "$1" | grep -E '^[-+]' | grep -vE '^(\+\+\+|---) ' |
  grep -vE '^[-+][[:space:]]*"(wall_ns|Wall)": [0-9]+,?$' || true)
if [ -n "$changed" ]; then
  echo "$1: regenerated lines other than wall time differ from the committed file:" >&2
  echo "$changed" | head -40 >&2
  exit 1
fi
