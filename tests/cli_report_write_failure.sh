#!/bin/sh
# Usage: cli_report_write_failure.sh PREPARE_CLI
#
# A report or an export that cannot be written is an error, as for
# --obs-out: prepare_cli prints "cannot open FILE for writing" when the
# file cannot be created and "cannot write FILE" when the write fails
# (/dev/full fails every write with ENOSPC), and exits 1, not with a
# success line and 0 or an uncaught exception. Skips (77) where
# /dev/full is absent.
cli=$1
[ -c /dev/full ] || exit 77
status=0

# expect FLAG VALUE MESSAGE SUCCESS_LINE
expect() {
  out=$("$cli" --seed 1 "$1" "$2" 2>&1)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL: exit $code, not 1, for $1 $2"
    status=1
  fi
  if ! printf '%s\n' "$out" | grep -qF "$3"; then
    echo "FAIL: no '$3' message for $1 $2"
    status=1
  fi
  if printf '%s\n' "$out" | grep -qF "$4"; then
    echo "FAIL: reports '$4' for $1 $2"
    status=1
  fi
}

missing=/nonexistent-prepare-dir/x
expect --report /dev/full "cannot write /dev/full" "report written"
expect --report "$missing.html" \
  "cannot open $missing.html for writing" "report written"
expect --export "$missing" \
  "cannot open ${missing}_metrics.csv for writing" "exported"
exit $status
