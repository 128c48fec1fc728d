#!/bin/sh
# Usage: cli_replay_bad_input.sh PREPARE_CLI
#
# --replay PREFIX reads PREFIX_metrics.csv and PREFIX_slo.csv. A file
# that is missing, lacks its columns or holds a field that is not a
# number is an error: prepare_cli prints "cannot read FILE: reason" and
# exits 1, not with an uncaught exception. An --export followed by a
# --replay of the same prefix exits 0 and prints the replay's summary.
cli=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
status=0

# expect PREFIX MESSAGE
expect() {
  out=$("$cli" --replay "$1" 2>&1)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL: exit $code, not 1, for --replay $1"
    status=1
  fi
  if ! printf '%s\n' "$out" | grep -qF "$2"; then
    echo "FAIL: no '$2' message for --replay $1"
    printf '%s\n' "$out" | head -5
    status=1
  fi
  if printf '%s\n' "$out" | grep -qF "replay of"; then
    echo "FAIL: reports a replay for --replay $1"
    status=1
  fi
}

# The round trip: an exported run replays.
good=$dir/good
if ! "$cli" --seed 1 --export "$good" > "$dir/export.out" 2>&1; then
  echo "FAIL: --export $good exited $?"
  cat "$dir/export.out"
  exit 1
fi
out=$("$cli" --replay "$good" 2>&1)
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: exit $code, not 0, for --replay of an export"
  printf '%s\n' "$out" | head -5
  status=1
fi
if ! printf '%s\n' "$out" | grep -qF "replay of $good:"; then
  echo "FAIL: no 'replay of $good:' line"
  status=1
fi

missing=/nonexistent-prepare-dir/x
expect "$missing" "cannot read ${missing}_metrics.csv: "

# Metrics readable, SLO log missing.
cp "${good}_metrics.csv" "$dir/noslo_metrics.csv"
expect "$dir/noslo" "cannot read $dir/noslo_slo.csv: "

# A metrics file with only the first two header columns.
printf 'time_s,vm\n' > "$dir/header_metrics.csv"
cp "${good}_slo.csv" "$dir/header_slo.csv"
expect "$dir/header" "cannot read $dir/header_metrics.csv: "

# A field that is not a number, in each file.
sed '2s/^\([^,]*,[^,]*,\)[^,]*/\1abc/' "${good}_metrics.csv" \
  > "$dir/nan_metrics.csv"
cp "${good}_slo.csv" "$dir/nan_slo.csv"
expect "$dir/nan" "cannot read $dir/nan_metrics.csv: malformed number 'abc'"

cp "${good}_metrics.csv" "$dir/tail_metrics.csv"
sed '3s/^\([^,]*\),/\1x,/' "${good}_slo.csv" > "$dir/tail_slo.csv"
expect "$dir/tail" "cannot read $dir/tail_slo.csv: malformed number"
exit $status
