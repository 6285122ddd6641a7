#!/usr/bin/env bash
# Usage: changes-lint.sh [CHANGES.md]
#
# Holds the newest CHANGES.md entry to its size: the entry runs from the last
# line starting "- YYYY-MM-DD:" to the end of the file, and fails when it has
# more than 10 lines or a line longer than 100 characters. Numbers belong in
# the BENCH files and mutants beside their tests, so an entry is a summary.
set -euo pipefail
export LC_ALL=C.UTF-8 # ${#line} counts characters, not bytes
file=${1:-CHANGES.md}
start=$(grep -nE '^- [0-9]{4}-[0-9]{2}-[0-9]{2}:' "$file" | tail -n 1 | cut -d: -f1)
if [ -z "$start" ]; then
  echo "$file: no '- YYYY-MM-DD:' entry" >&2
  exit 1
fi
lines=$(tail -n +"$start" "$file" | wc -l)
fail=0
if [ "$lines" -gt 10 ]; then
  echo "$file: the newest entry (line $start) has $lines lines, more than 10" >&2
  fail=1
fi
n=$start
while IFS= read -r line; do
  if [ ${#line} -gt 100 ]; then
    echo "$file:$n: ${#line} characters, more than 100" >&2
    fail=1
  fi
  n=$((n + 1))
done < <(tail -n +"$start" "$file")
exit $fail
