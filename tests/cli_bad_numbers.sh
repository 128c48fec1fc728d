#!/bin/sh
# Usage: cli_bad_numbers.sh PREPARE_CLI EXT_SCALE
#
# A malformed or out-of-range number on the command line prints usage
# and exits 2 before any scenario runs, and so does a config that
# run_scenario rejects. A well-formed run still works.
cli=$1
scale=$2
status=0

expect2() {
  "$@" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: exit $code, not 2: $*"
    status=1
  fi
}

expect2 "$cli" --seed abc
expect2 "$cli" --seed 5x
expect2 "$cli" --seed -1
expect2 "$cli" --seed ""
expect2 "$cli" --repeats abc
expect2 "$cli" --repeats -1
expect2 "$cli" --repeats 0
expect2 "$cli" --sampling 0
expect2 "$cli" --sampling -5
expect2 "$cli" --sampling nan
expect2 "$cli" --sampling inf
expect2 "$cli" --sampling 5s
expect2 "$cli" --sampling 2.5
expect2 "$cli" --serve-metrics abc
expect2 "$cli" --serve-metrics -1
expect2 "$cli" --serve-metrics 65536
expect2 "$cli" --serve-hold-s -1
expect2 "$cli" --serve-hold-s x
expect2 "$scale" --apps=1x
expect2 "$scale" --apps=0
expect2 "$scale" --apps=-1
expect2 "$scale" --apps=1,,2

if ! "$cli" --sampling 2.5 2>&1 | grep -q "multiple of dt"; then
  echo "FAIL: --sampling 2.5 does not print the check's message"
  status=1
fi
if ! "$cli" --seed 5 --sampling 10 | grep -q "seed=5 repeats=1"; then
  echo "FAIL: --seed 5 --sampling 10 does not run"
  status=1
fi
exit $status
