#!/usr/bin/env bash
# Check that E10–E19 records carry the keys and the prose of the committed
# baselines.
#
# Usage:
#   scripts/bench_keys.sh RECORD...   # e.g. /tmp/BENCH_e1[0-9]_*.json
#
# Each RECORD is compared with the committed file of the same name at the
# repository root. Both sides are reduced to their sorted key paths (every
# path to a non-null value, array indices written `[]`), so a record from
# a smaller sweep still matches; any path present on one side only fails
# the check. One path may be missing from a record: E11 reports
# `aggregate.cold_speedup_at_4_shards` only when its `--shards` sweep has
# a 4-shard entry. Every `title` and `note` string, wherever it sits, must
# also read the same on both sides: they describe the design that made the
# numbers, so a committed file whose prose a bin no longer prints fails.
# Needs `jq`.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
optional=(aggregate.cold_speedup_at_4_shards)

key_paths() {
  jq -r '[paths(. != null) | map(if type == "number" then "[]" else . end) | join(".")]
         | unique[]' "$1"
}

prose() {
  jq -r 'paths(type == "string") as $p | select($p[-1] == "title" or $p[-1] == "note")
         | "\($p | map(tostring) | join(".")): \(getpath($p))"' "$1"
}

if [[ $# -eq 0 ]]; then
  echo "usage: scripts/bench_keys.sh RECORD..." >&2
  exit 2
fi
status=0
for record in "$@"; do
  committed="$root/$(basename "$record")"
  if [[ ! -f "$committed" ]]; then
    echo "$record: no committed $(basename "$record") to compare with" >&2
    status=1
    continue
  fi
  expected="$(key_paths "$committed")"
  actual="$(key_paths "$record")"
  for path in "${optional[@]}"; do
    if ! grep -qxF "$path" <<<"$actual"; then
      expected="$(grep -vxF "$path" <<<"$expected" || true)"
    fi
  done
  if diff <(echo "$expected") <(echo "$actual") >/dev/null; then
    echo "$(basename "$record"): $(wc -l <<<"$actual") key paths match"
  else
    echo "$(basename "$record"): key paths differ (< committed, > record):" >&2
    diff <(echo "$expected") <(echo "$actual") | grep '^[<>]' >&2 || true
    status=1
  fi
  if ! diff <(prose "$committed") <(prose "$record") >/dev/null; then
    echo "$(basename "$record"): titles or notes differ (< committed, > record):" >&2
    diff <(prose "$committed") <(prose "$record") | grep '^[<>]' >&2 || true
    status=1
  fi
done
exit "$status"
