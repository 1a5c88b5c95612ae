#!/bin/sh
# Self-test of tools/check_consumers.sh on a fixture tree: a library of two
# functions and one example whose main calls one of them, built with the
# gate's flags in a temporary directory. Checks that the gate
#   1. reports exactly the uncalled function and exits 1;
#   2. exits 0 once main calls both;
#   3. refuses the library built without -ffunction-sections (exit 2);
#   4. skips (exit 77) and names the example when its binary is missing.
#
# Usage: tools/check_consumers_selftest.sh CXX AR
# Exits 77 (skip) where the gate skips: off GCC or GNU ld.
set -eu
[ $# -eq 2 ] || { echo "usage: $0 CXX AR"; exit 2; }
cxx=$1
ar=$2
gate="$(cd "$(dirname "$0")" && pwd)/check_consumers.sh"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
mkdir examples
cat > lib.cpp <<'EOF'
int fixture_called(int x) { return x + 1; }
int fixture_uncalled(int x) { return x * 3; }
EOF

# build LIB_FLAGS MAIN_BODY: the fixture library and examples/app.
build() {
  printf 'int fixture_called(int);\nint fixture_uncalled(int);\nint main(int argc, char**) { return %s; }\n' \
    "$2" > examples/app.cpp
  rm -f libfixture.a
  "$cxx" -g -O0 $1 -c lib.cpp -o lib.o
  "$ar" rcs libfixture.a lib.o
  "$cxx" -g -O0 -ffunction-sections examples/app.cpp libfixture.a \
    -Wl,--gc-sections -o app
}

# run: the gate's exit code in $rc, its output in out.txt.
run() {
  rc=0
  sh "$gate" "$tmp" libfixture.a "$@" > out.txt 2>&1 || rc=$?
  cat out.txt
}

fail() { echo "consumers gate self-test FAILED: $*"; exit 1; }

build -ffunction-sections 'fixture_called(argc) == 0'
run app
[ "$rc" -ne 77 ] || exit 77
[ "$rc" -eq 1 ] || fail "one uncalled function: exit $rc, want 1"
[ "$(grep '^NO CONSUMER: ' out.txt)" = "NO CONSUMER: fixture_uncalled(int)" ] ||
  fail "the report must name exactly fixture_uncalled(int)"

build -ffunction-sections 'fixture_called(argc) + fixture_uncalled(argc) == 0'
run app
[ "$rc" -eq 0 ] || fail "every function called: exit $rc, want 0"

build '' 'fixture_called(argc) == 0'
run app
[ "$rc" -eq 2 ] || fail "library without -ffunction-sections: exit $rc, want 2"

mv app renamed
run renamed
[ "$rc" -eq 77 ] && grep -q 'app' out.txt ||
  fail "missing example binary: exit $rc, want 77 naming app"

echo "consumers gate self-test OK"
