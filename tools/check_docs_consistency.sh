#!/bin/sh
# Docs drift gate: every daemon verb (and EVENT subcommand) that exists in
# the shared protocol handler (src/net/protocol.cpp) must be documented in
# docs/DAEMON_PROTOCOL.md, every daemon command-line flag must appear
# there too (and every flag it names must exist), as must every STATS
# key the daemon prints, and every runtime
# environment switch read anywhere in src/ must appear in the README's
# switch table; every example must be run by a ctest entry. Run from anywhere; CI (and `ctest -R docs_consistency`)
# fails when code grows a verb, flag, switch or example without its docs
# or test.
set -eu
cd "$(dirname "$0")/.."
fail=0

# --- daemon verbs ----------------------------------------------------------
verbs=$(grep -o 'cmd == "[A-Z]*"' src/net/protocol.cpp \
          | sed 's/.*"\([A-Z]*\)".*/\1/' | sort -u)
[ -n "$verbs" ] || { echo "BUG: no daemon verbs found — check the grep"; exit 1; }
for v in $verbs; do
  if ! grep -q "## $v" docs/DAEMON_PROTOCOL.md; then
    echo "MISSING: daemon verb $v has no '## $v' section in docs/DAEMON_PROTOCOL.md"
    fail=1
  fi
done

# --- EVENT subcommands -----------------------------------------------------
subs=$(grep -o 'what == "[A-Z]*"' src/net/protocol.cpp \
         | sed 's/.*"\([A-Z]*\)".*/\1/' | sort -u)
for s in $subs; do
  if ! grep -q "EVENT $s" docs/DAEMON_PROTOCOL.md; then
    echo "MISSING: EVENT subcommand $s undocumented in docs/DAEMON_PROTOCOL.md"
    fail=1
  fi
done

# --- daemon flags -----------------------------------------------------------
# Every --flag the daemon binary registers must be mentioned (as `--flag`)
# in the protocol reference — flags are part of the operator contract.
flags=$(grep -o '\.\(option\|flag\)("[a-z-]*"' examples/scheduler_service.cpp \
          | sed 's/.*"\([a-z-]*\)".*/\1/' | sort -u)
[ -n "$flags" ] || { echo "BUG: no daemon flags found — check the grep"; exit 1; }
for f in $flags; do
  if ! grep -q -- "--$f" docs/DAEMON_PROTOCOL.md; then
    echo "MISSING: daemon flag --$f undocumented in docs/DAEMON_PROTOCOL.md"
    fail=1
  fi
done

# ...and every `--flag` the protocol reference names must be one the
# daemon registers, so a removed flag cannot linger in the docs.
doc_flags=$(grep -o '`--[a-z][a-z-]*' docs/DAEMON_PROTOCOL.md \
              | sed 's/^`--//' | sort -u)
for f in $doc_flags; do
  if ! echo "$flags" | grep -qx -- "$f"; then
    echo "STALE: docs/DAEMON_PROTOCOL.md names --$f, which examples/scheduler_service.cpp does not register"
    fail=1
  fi
done

# --- STATS keys --------------------------------------------------------------
# Every `key=` token the STATS formatter (stats_line in src/net/protocol.cpp)
# prints must be named in docs/DAEMON_PROTOCOL.md — scripts parse STATS
# by key, so an undocumented key is one nobody knows to read.
stats_keys=$(sed -n '/^std::string stats_line(/,/^}/p' src/net/protocol.cpp \
               | grep -o '"[^"]*="' \
               | sed -e 's/^"//' -e 's/="$//' -e 's/^STATS //' -e 's/^ *//' \
               | sort -u)
[ -n "$stats_keys" ] || { echo "BUG: no STATS keys found — check the sed"; exit 1; }
for k in $stats_keys; do
  if ! grep -qE "(^|[^a-z0-9_])$k=" docs/DAEMON_PROTOCOL.md; then
    echo "MISSING: STATS key $k= undocumented in docs/DAEMON_PROTOCOL.md"
    fail=1
  fi
done

# --- span taxonomy ---------------------------------------------------------
# Every SpanKind name the code can emit (obs::to_string) must appear in
# docs/OBSERVABILITY.md's taxonomy table — trace consumers read the docs.
kinds=$(grep -o 'return "[a-z_]*";' src/obs/trace.cpp \
          | sed 's/return "\([a-z_]*\)";/\1/' | grep -v '^x$' | sort -u)
[ -n "$kinds" ] || { echo "BUG: no span kinds found — check the grep"; exit 1; }
for k in $kinds; do
  if ! grep -q "\`$k\`" docs/OBSERVABILITY.md; then
    echo "MISSING: span kind $k not in docs/OBSERVABILITY.md's taxonomy"
    fail=1
  fi
done

# --- failpoint sites --------------------------------------------------------
# Every PACGA_FAILPOINT("name") site placed in production code must be
# listed (backticked) in docs/ROBUSTNESS.md's site catalog — operators
# arm sites by name, so an undocumented site is unusable. The macro's
# own header is excluded (its doc comment shows a placeholder name).
sites=$(grep -rho 'PACGA_FAILPOINT("[a-z_.]*")' src \
          --exclude=failpoints.hpp \
          | sed 's/.*"\([a-z_.]*\)".*/\1/' | sort -u)
[ -n "$sites" ] || { echo "BUG: no failpoint sites found — check the grep"; exit 1; }
for s in $sites; do
  if ! grep -q "\`$s\`" docs/ROBUSTNESS.md; then
    echo "MISSING: failpoint site $s not in docs/ROBUSTNESS.md's catalog"
    fail=1
  fi
done

# --- examples ----------------------------------------------------------------
# Every example binary must be run by some ctest entry (named as
# `$<TARGET_FILE:name>` in CMakeLists.txt), so an example no test runs
# cannot come back.
examples=$(ls examples/*.cpp | sed 's|.*/\(.*\)\.cpp$|\1|')
[ -n "$examples" ] || { echo "BUG: no examples found — check the ls"; exit 1; }
for e in $examples; do
  if ! grep -qF "\$<TARGET_FILE:$e>" CMakeLists.txt; then
    echo "MISSING: example $e is run by no ctest entry in CMakeLists.txt"
    fail=1
  fi
done

# --- runtime environment switches ------------------------------------------
switches=$(grep -rho 'getenv("PACGA_[A-Z_]*")' src \
             | sed 's/.*"\(PACGA_[A-Z_]*\)".*/\1/' | sort -u)
[ -n "$switches" ] || { echo "BUG: no env switches found — check the grep"; exit 1; }
for s in $switches; do
  if ! grep -q "\`$s" README.md; then
    echo "MISSING: env switch $s not in the README switch table"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "docs consistency OK ($(echo "$verbs" | wc -w | tr -d ' ') verbs, $(echo "$subs" | wc -w | tr -d ' ') EVENT subcommands, $(echo "$flags" | wc -w | tr -d ' ') flags, $(echo "$stats_keys" | wc -w | tr -d ' ') STATS keys, $(echo "$sites" | wc -w | tr -d ' ') failpoint sites, $(echo "$examples" | wc -w | tr -d ' ') examples, $(echo "$switches" | wc -w | tr -d ' ') switches)"
fi
exit $fail
