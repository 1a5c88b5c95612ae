#!/bin/sh
# Chaos smoke of the pipe daemon's fault-injection surface.
#
# Drives one scheduler_service in pipe mode through the FAILPOINT verb:
#
#   1. FAILPOINT with a bad spec must answer ERR FAILPOINT (grammar).
#   2. solver.solve armed `once:throw` must fail exactly the next job —
#      RESULT id=1 status=failed ... error=solver:_failpoint_solver.solve
#      — and the job after it (the `once` shot is spent) must be done.
#   3. With --max-retries 2 the same `once` shot is absorbed by the
#      retry machinery: the job comes back status=done retries=1.
#   4. FAILPOINT <site> off must echo like any other reconfigure.
#
# Usage: chaos_soak.sh <path-to-scheduler_service>
set -eu

daemon=${1:?usage: chaos_soak.sh <scheduler_service>}

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

# minmin everywhere: the smoke tests the failure plumbing, not the
# solver, and an anytime policy would legitimately run to the deadline.
flags="--workers 1 --policy minmin"

# One session: bad grammar, a one-shot solver fault, the job after it.
# shellcheck disable=SC2086
"$daemon" $flags > "$workdir/out" <<'EOF'
FAILPOINT solver.solve sometimes
FAILPOINT solver.solve once:throw
INSTANCE 0 200 1 u_c_hihi.0
WAIT 1
INSTANCE 0 200 2 u_c_hihi.0
WAIT 2
FAILPOINT solver.solve off
STATS
QUIT
EOF

fail=0
check() {
  if ! grep -qE "$1" "$workdir/out"; then
    echo "FAIL: missing /$1/ in:"; cat "$workdir/out"; fail=1
  fi
}
check '^ERR FAILPOINT .*sometimes'
check '^FAILPOINT solver.solve once:throw$'
check '^RESULT id=1 status=failed .*error=solver:_failpoint_solver\.solve'
check '^RESULT id=2 status=done '
check '^FAILPOINT solver.solve off$'
check '^STATS submitted=2 completed=1 .* failed=1 '
[ "$fail" -eq 0 ] || exit 1

# Same one-shot fault, but with a retry budget: the failure must be
# retried to success and the RESULT must carry the retry count.
# shellcheck disable=SC2086
printf 'FAILPOINT solver.solve once:throw\nINSTANCE 0 200 1 u_c_hihi.0\nWAIT 1\nQUIT\n' \
  | "$daemon" $flags --max-retries 2 > "$workdir/retry_out"
grep -qE '^RESULT id=1 status=done .*retries=1' "$workdir/retry_out" || {
  echo "FAIL: one-shot fault not absorbed by --max-retries 2:"
  cat "$workdir/retry_out"; exit 1; }

echo "chaos soak OK (FAILPOINT verb, one-shot fault, retry absorption)"
exit 0
