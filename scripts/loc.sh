#!/usr/bin/env bash
# Code lines per source file, the way ROADMAP aim 2 counts them: non-blank
# lines that are not `//` comments, before the file's first column-0
# `#[cfg(test)]` (in-file unit tests are not product code). A file compiled
# only under `#[cfg(test)] mod name;` says so itself with a `#![cfg(test)]`
# after its module docs, and counts nothing from there on.
#
# Usage:
#   scripts/loc.sh              # every file under crates/*/src, then a total;
#                               # then the offline shims (crates/shims/*/src),
#                               # each file and a separate `shims` subtotal
#   scripts/loc.sh FILE...      # only the named files
set -euo pipefail
cd "$(dirname "$0")/.."

# count LABEL FILE...: one line per file, then the sum labelled LABEL.
count() {
  local label=$1
  shift
  awk -v label="$label" '
    FNR == 1 { if (file != "") printf "%6d %s\n", n, file; file = FILENAME; n = 0; skip = 0 }
    /^#!?\[cfg\(test\)\]/ { skip = 1 }
    skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++; total++ }
    END { if (file != "") printf "%6d %s\n", n, file; printf "%6d %s\n", total, label }
  ' "$@"
}

if [ "$#" -eq 0 ]; then
  mapfile -t files < <(find crates/*/src -name '*.rs' | sort)
  count total "${files[@]}"
  mapfile -t shims < <(find crates/shims/*/src -name '*.rs' | sort)
  count shims "${shims[@]}"
else
  count total "$@"
fi
