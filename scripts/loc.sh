#!/usr/bin/env bash
# Code lines per source file, the way ROADMAP aim 2 counts them: non-blank
# lines that are not `//` comments, before the file's first column-0
# `#[cfg(test)]` (in-file unit tests are not product code). A file compiled
# only under `#[cfg(test)] mod name;` says so itself with a `#![cfg(test)]`
# after its module docs, and counts nothing from there on.
#
# Usage:
#   scripts/loc.sh              # every file under crates/*/src, then a total
#   scripts/loc.sh FILE...      # only the named files
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
  mapfile -t files < <(find crates/*/src -name '*.rs' | sort)
else
  files=("$@")
fi

awk '
  FNR == 1 { if (file != "") printf "%6d %s\n", n, file; file = FILENAME; n = 0; skip = 0 }
  /^#!?\[cfg\(test\)\]/ { skip = 1 }
  skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
  { n++; total++ }
  END { if (file != "") printf "%6d %s\n", n, file; printf "%6d total\n", total }
' "${files[@]}"
