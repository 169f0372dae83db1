#!/bin/sh
# Runs two copies of every given test binary at once, LOOPS times over, and
# fails if any run fails. Twins that share a scratch-file name collide, so a
# fixed name under the temp directory shows up here as a failed run.
#
# usage: run_side_by_side.sh LOOPS BINARY...
set -u
Loops=$1
shift
Logs=$(mktemp -d)
trap 'rm -rf "$Logs"' EXIT

# Runs one copy; on failure prints which binary failed and its output tail.
run() {
  if ! "$1" > "$2" 2>&1; then
    echo "FAIL: $1 (loop $3)"
    tail -n 20 "$2"
    return 1
  fi
}

Failed=0
Loop=1
while [ "$Loop" -le "$Loops" ]; do
  Pids=""
  N=0
  for Binary in "$@"; do
    for Copy in a b; do
      run "$Binary" "$Logs/$N.$Copy" "$Loop" &
      Pids="$Pids $!"
    done
    N=$((N + 1))
  done
  for Pid in $Pids; do
    wait "$Pid" || Failed=$((Failed + 1))
  done
  Loop=$((Loop + 1))
done
echo "$Failed failed run(s) out of $((Loops * 2 * $#))"
[ "$Failed" -eq 0 ]
