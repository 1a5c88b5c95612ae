#!/bin/sh
# Consumer gate: every strong function of the library must be kept by a
# binary that is not a test. Tests do not count as consumers; a function
# only they call belongs with the tests.
#
# The library is built with -ffunction-sections (one section per
# function) and each consumer is linked with -Wl,--gc-sections, so the
# linker drops every function the consumer cannot reach. A function that
# no consumer's symbol table holds has no caller outside the tests. A
# function called only through a pointer counts as kept: taking its
# address keeps its section. Build Debug: at -O2 same-file inlining drops
# the out-of-line copy of live functions and they would read as unused.
#
# Usage: tools/check_consumers.sh SOURCE_DIR LIBRARY CONSUMER...
# Every SOURCE_DIR/bench/bench_*.cpp and SOURCE_DIR/examples/*.cpp, and
# SOURCE_DIR/perfbench when it exists, must have its binary among the
# CONSUMERs (matched by file name): a function kept by a missing binary
# alone would read as unused.
#
# Prints each unused function as `NO CONSUMER: <demangled name>` and exits
# 1 when there is one, 0 when there is none. Exits 2 on input it cannot
# check: a library without per-function sections, or consumers that keep
# no library function at all. Exits 77 (skip) when a required consumer
# binary is missing, or off GCC, GNU ld or the binutils tools.
set -eu
[ $# -ge 3 ] || { echo "usage: $0 SOURCE_DIR LIBRARY CONSUMER..."; exit 2; }
src=$1
lib=$2
shift 2
for t in nm objdump readelf; do
  command -v "$t" >/dev/null 2>&1 || { echo "skip: no $t"; exit 77; }
done
for f in "$lib" "$@"; do
  [ -r "$f" ] || { echo "cannot read $f"; exit 2; }
done

# --- every non-test binary of the tree is present ---------------------------
required=$(
  for f in "$src"/bench/bench_*.cpp "$src"/examples/*.cpp; do
    [ -e "$f" ] && basename "$f" .cpp
  done
  [ -d "$src/perfbench" ] && echo perfbench
  true)
for name in $required; do
  found=0
  for c in "$@"; do
    [ "$(basename "$c")" = "$name" ] && found=1
  done
  if [ "$found" = 0 ]; then
    echo "skip: no built binary for $name among the consumers"
    exit 77
  fi
done

# --- toolchain ----------------------------------------------------------------
comment=$(readelf -p .comment "$lib" 2>/dev/null || true)
case "$comment" in
  *clang*) echo "skip: the library was not built by GCC"; exit 77 ;;
  *GCC:*) ;;
  *) echo "skip: the library was not built by GCC"; exit 77 ;;
esac
for c in "$@"; do
  if readelf -p .comment "$c" 2>/dev/null | grep -q -e LLD -e mold ||
     readelf -SW "$c" 2>/dev/null | grep -q '\.note\.gnu\.gold-version'; then
    echo "skip: $c was not linked by GNU ld"
    exit 77
  fi
done

# --- the scan -----------------------------------------------------------------
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Strong (global, non-weak) functions of the library, with their sections.
# objdump -t lines: ADDRESS FLAGS(7 chars) SECTION<tab>SIZE NAME
objdump -t "$lib" | awk '
  /^[0-9a-f]+ / {
    flags = substr($0, index($0, " ") + 1, 7)
    if (substr(flags, 1, 1) != "g" || substr(flags, 2, 1) != " " ||
        substr(flags, 7, 1) != "F") next
    rest = substr($0, index($0, " ") + 9)
    section = substr(rest, 1, index(rest, "\t") - 1)
    n = split(rest, word, /[ \t]+/)
    print word[n], section
  }' | sort -u > "$tmp/lib"

if [ ! -s "$tmp/lib" ]; then
  echo "refused: $lib holds no strong function"
  exit 2
fi
# With -ffunction-sections each function sits in a section named after it
# (.text.NAME, or .text.unlikely.NAME and the like; a complete-object
# constructor shares its alias's). In a shared .text, a dead function
# inside a used object file is kept with the live ones and the gate would
# pass with nothing checked.
shared=$(awk '$2 ~ /^\.text(\.(unlikely|hot|startup|exit))?$/ {
  n++; if (n == 1) f = $1
} END { if (n) print n, f }' "$tmp/lib")
if [ -n "$shared" ]; then
  set -- $shared
  echo "refused: $1 functions of $lib share a section, e.g. $2;" \
       "build the library with -ffunction-sections"
  exit 2
fi
cut -d' ' -f1 "$tmp/lib" > "$tmp/functions"

for c in "$@"; do
  nm --defined-only "$c" 2>/dev/null | awk '{ print $NF }'
done | sort -u > "$tmp/kept"
comm -12 "$tmp/functions" "$tmp/kept" > "$tmp/used"
comm -23 "$tmp/functions" "$tmp/kept" > "$tmp/unused"

total=$(wc -l < "$tmp/functions")
used=$(wc -l < "$tmp/used")
if [ "$used" -eq 0 ]; then
  echo "refused: the consumers keep none of the $total library functions;" \
       "check that they link $lib and are not stripped"
  exit 2
fi
if [ -s "$tmp/unused" ]; then
  if command -v c++filt >/dev/null 2>&1; then
    c++filt < "$tmp/unused"
  else
    cat "$tmp/unused"
  fi | sed 's/^/NO CONSUMER: /'
  echo "consumer gate FAILED: $(wc -l < "$tmp/unused") of $total library" \
       "functions have no caller outside the tests"
  exit 1
fi
echo "consumer gate OK: all $total library functions are kept by $# consumers"
