#!/usr/bin/env bash
# List the library's callerless public items: every `pub fn`, `struct`,
# `enum`, `type`, `const`, `trait` or `mod` declared in the product code of
# ppwf-{model,views,core,repo,query,workloads} whose name no caller mentions.
#
# Product code is a file's text before its first column-0 `#[cfg(test)]` or
# `#![cfg(test)]` (the cut `scripts/loc.sh` makes). Callers are the product
# code of those six crates, of `crates/bench` (library, bins, benches) and of
# the root `src/`, plus `examples/`, the root `tests/`, every
# `crates/*/tests` and `perfbench/{src,tests}`. In-file unit tests are not
# callers. Before names are counted, every caller drops its comments and
# string literals, its `pub use` re-exports, the name each definition
# introduces (`fn NAME`, `struct NAME`, ...) and the self type of each
# `impl` header, so an item's declaration and its own impl blocks do not
# call it.
#
# The scan matches names, not paths: an item shares its fate with every
# other item of the same name (`EngineCluster::insert_spec` hides behind
# `Repository::insert_spec`). A hit is either deleted or listed in `allow`
# below with the one reason it stays; the script exits 1 on a hit that is
# not listed, on a listed entry that is no longer a hit, and on an entry
# without a reason.
#
# Usage:
#   scripts/orphans.sh          # exit 0 when every hit is allowed
set -euo pipefail
cd "$(dirname "$0")/.."

# FILE:NAME|reason. The reasons are the kinds a simplicity review keeps:
# a reference implementation that tests compare against, a check on outside
# input, and the like.
allow=(
  "crates/core/src/enforce.rs:disclose_exact|exact optimum the greedy disclose is tested against"
  "crates/workloads/src/zipf.rs:pmf|reference distribution the sampler's tests compare draws against"
)

mapfile -t libs < <(find crates/{model,views,core,repo,query,workloads}/src -name '*.rs' | sort)
mapfile -t callers < <(
  find crates/{model,views,core,repo,query,workloads,bench}/src crates/bench/benches \
    src examples tests crates/*/tests perfbench/src perfbench/tests \
    -name '*.rs' 2>/dev/null | sort
)

# Every public definition in product code, as FILE:LINE:KIND:NAME.
defs="$(awk '
  FNR == 1 { skip = 0 }
  /^#!?\[cfg\(test\)\]/ { skip = 1 }
  skip { next }
  /^[ \t]*pub (const |async |unsafe )*(fn|struct|enum|type|const|trait|mod) [A-Za-z_]/ {
    line = $0
    sub(/^[ \t]*pub /, "", line)
    if (line ~ /^(const |async |unsafe )+fn /) sub(/^(const |async |unsafe )+/, "", line)
    kind = line; sub(/ .*/, "", kind)
    name = line; sub(/^[a-z]+ /, "", name)
    match(name, /^[A-Za-z_][A-Za-z0-9_]*/)
    print FILENAME ":" FNR ":" kind ":" substr(name, 1, RLENGTH)
  }
' "${libs[@]}")"

# Every name a caller mentions, as NAME FILE for a file's unit tests and
# NAME * for product code.
uses="$(awk '
  FNR == 1 { tag = "*"; reexport = 0 }
  /^#!?\[cfg\(test\)\]/ { tag = FILENAME }
  reexport || /^[ \t]*pub use / { reexport = ($0 !~ /;/); next }
  {
    line = $0
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    sub(/\/\/.*/, "", line)
    if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?(unsafe )?impl[ <]/) {
      brace = index(line, "{")
      head = brace ? substr(line, 1, brace - 1) : line
      self = head
      sub(/ where .*/, "", self)
      if (self ~ / for /) sub(/.* for +/, "", self)
      else sub(/^[ \t]*[a-z() ]*impl(<[^>]*>)? */, "", self)
      match(self, /^[A-Za-z_][A-Za-z0-9_:]*/)
      self = substr(self, 1, RLENGTH)
      sub(/.*::/, "", self)
      if (self != "") gsub("(^|[^A-Za-z0-9_])" self "([^A-Za-z0-9_]|$)", " ", head)
      line = head (brace ? substr(line, brace) : "")
    }
    gsub(/(^|[^A-Za-z0-9_])(fn|struct|enum|type|const|trait|mod|static|union) +[A-Za-z_][A-Za-z0-9_]*/, " ", line)
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      print substr(line, RSTART, RLENGTH), tag
      line = substr(line, RSTART + RLENGTH)
    }
  }
' "${callers[@]}" | sort -u)"

# A definition is a hit when every mention of its name is in its own file's
# unit tests.
hits="$(awk '
  NR == FNR { if ($2 == "*") product[$1] = 1; else tests[$1] = tests[$1] " " $2; next }
  { split($0, def, ":"); file = def[1]; name = def[4] }
  name in product { next }
  {
    n = split(tests[name], where, " ")
    for (i = 1; i <= n; i++) if (where[i] != file) next
    print
  }
' <(echo "$uses") <(echo "$defs"))"

status=0
for entry in "${allow[@]}"; do
  key="${entry%%|*}"
  reason="${entry#*|}"
  if [[ "$entry" != *"|"* || -z "${reason// /}" ]]; then
    echo "allowlist entry $key has no reason" >&2
    status=1
  fi
  if ! grep -q "^${key%%:*}:[0-9]*:[a-z]*:${key#*:}\$" <<<"$hits"; then
    echo "allowlist entry $key is not a hit any more: remove it" >&2
    status=1
  fi
done
count=0
while IFS=: read -r file line kind name; do
  [[ -n "$file" ]] || continue
  allowed=0
  for entry in "${allow[@]}"; do
    [[ "${entry%%|*}" == "$file:$name" ]] && allowed=1
  done
  if [[ "$allowed" -eq 0 ]]; then
    echo "$file:$line: pub $kind $name has no caller" >&2
    count=$((count + 1))
    status=1
  fi
done <<<"$hits"
echo "library orphans: $count unallowed, ${#allow[@]} allowed"
exit "$status"
