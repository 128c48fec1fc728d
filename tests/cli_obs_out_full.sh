#!/bin/sh
# Usage: cli_obs_out_full.sh PREPARE_CLI
#
# A structured trace that cannot be written is an error: writing it to
# /dev/full (every write fails with ENOSPC) prints "cannot write FILE"
# and exits 1, not a success line and 0. Skips (77) where /dev/full is
# absent.
cli=$1
[ -c /dev/full ] || exit 77
status=0

out=$("$cli" --seed 1 --record-episodes --obs-out /dev/full 2>&1)
code=$?
if [ "$code" -ne 1 ]; then
  echo "FAIL: exit $code, not 1, for --obs-out /dev/full"
  status=1
fi
if ! printf '%s\n' "$out" | grep -q "cannot write /dev/full"; then
  echo "FAIL: no 'cannot write /dev/full' message"
  status=1
fi
if printf '%s\n' "$out" | grep -q "structured trace written"; then
  echo "FAIL: reports the trace written"
  status=1
fi
exit $status
