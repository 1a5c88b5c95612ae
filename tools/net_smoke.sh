#!/bin/sh
# Socket smoke test: the TCP edge must give every client the same bytes
# the pipe daemon gives a solo client.
#
# Starts one scheduler_service with --listen 0 (ephemeral port), runs N
# concurrent pipelined socket clients with DISTINCT deterministic scripts
# (static submits, double-WAIT error, an unknown-id CANCEL, a dynamic
# session with churn and a warm RESCHEDULE), and byte-compares each
# client's transcript against a fresh pipe-daemon run of the same script.
# Determinism: --deterministic strips timing fields, --policy minmin is
# timing-independent, --cache-capacity 0 stops one client's solve from
# flipping another's cache_hit field.
#
# Usage: net_smoke.sh <path-to-scheduler_service> [clients]
set -eu

daemon=${1:?usage: net_smoke.sh <scheduler_service> [clients]}
clients=${2:-6}
tools_dir=$(dirname "$0")

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  [ -n "$daemon_pid" ] && wait "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

flags="--workers 2 --deterministic --policy minmin --cache-capacity 0"

# Distinct per-client scripts: seeds and dynamic shapes differ, so a
# cross-wired response (another tenant's bytes) cannot accidentally match.
i=0
while [ "$i" -lt "$clients" ]; do
  cat > "$workdir/script_$i" <<EOF
INSTANCE 0 60000 $((i + 1)) u_c_hihi.0
WAIT 1
INSTANCE 0 60000 $((i + 1)) u_c_hilo.0
WAIT 2
WAIT 2
CANCEL 77
DYNAMIC $((24 + i)) 6 $((i + 1))
EVENT DOWN 2
EVENT ARRIVE 1500
RESCHEDULE 0 60000 $((i + 1)) 0
QUIT
EOF
  i=$((i + 1))
done

# Expected transcripts: each script through its own pipe daemon.
i=0
while [ "$i" -lt "$clients" ]; do
  # shellcheck disable=SC2086
  "$daemon" $flags < "$workdir/script_$i" > "$workdir/expected_$i"
  i=$((i + 1))
done

# One socket daemon for all clients.
# shellcheck disable=SC2086
"$daemon" $flags --listen 0 > "$workdir/daemon_out" 2> "$workdir/daemon_err" &
daemon_pid=$!

# Wait for the LISTENING announcement and read the ephemeral port back.
port=""
tries=0
while [ "$tries" -lt 100 ]; do
  # The backgrounded shell may not have created daemon_out yet; a sed on a
  # missing file would trip set -e into a cleanup that waits on the daemon.
  if [ -f "$workdir/daemon_out" ]; then
    port=$(sed -n 's/^LISTENING .*:\([0-9]*\)$/\1/p' "$workdir/daemon_out")
  fi
  [ -n "$port" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || { echo "FAIL: daemon died at startup"; cat "$workdir/daemon_err"; exit 1; }
  sleep 0.1
  tries=$((tries + 1))
done
[ -n "$port" ] || { echo "FAIL: no LISTENING line from the daemon"; exit 1; }

# All clients concurrently, each pipelining its whole script.
i=0
while [ "$i" -lt "$clients" ]; do
  python3 "$tools_dir/net_client.py" --port "$port" \
    --script "$workdir/script_$i" > "$workdir/actual_$i" &
  eval "client_$i=\$!"
  i=$((i + 1))
done
i=0
while [ "$i" -lt "$clients" ]; do
  eval "wait \$client_$i" || { echo "FAIL: client $i exited non-zero"; exit 1; }
  i=$((i + 1))
done

kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

fail=0
i=0
while [ "$i" -lt "$clients" ]; do
  if ! cmp -s "$workdir/expected_$i" "$workdir/actual_$i"; then
    echo "FAIL: client $i socket transcript differs from the pipe daemon:"
    diff "$workdir/expected_$i" "$workdir/actual_$i" || true
    fail=1
  fi
  i=$((i + 1))
done
[ "$fail" -eq 0 ] && echo "net smoke OK ($clients concurrent clients, transcripts byte-identical to the pipe daemon)"
exit $fail
