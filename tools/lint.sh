#!/usr/bin/env bash
# Repo lint runner: custom invariant lint, Clang thread-safety analysis,
# clang-tidy, and the project AST rules.
#
# Usage: tools/lint.sh [PATHS...]
#   PATHS default to src. clang-tidy and analyze need a compilation
#   database; point PREPARE_BUILD_DIR at a configured build tree
#   (default: build) — the top-level CMakeLists exports
#   compile_commands.json automatically. When that build dir has no
#   database, lint.sh configures a throwaway one into .lint-build/
#   (gitignored) so a fresh checkout can lint without building first.
#
# Passes (each skippable, each individually requirable):
#   invariants     python3 tools/check_invariants.py  (always available)
#   thread-safety  clang++ -fsyntax-only -Wthread-safety -Werror over the
#                  .cpp files under PATHS — the compile-time race detector
#   clang-tidy     full clang-tidy with .clang-tidy config
#   analyze        python3 tools/prepare_analyze.py — AST-grounded project
#                  rules: per-TU (layering DAG, determinism, strong-type
#                  boundaries, mutex discipline) plus the interprocedural
#                  contracts (PREPARE_DRIVER_CONFINED thread confinement,
#                  PREPARE_HOT allocation/lock/IO freedom) over the
#                  whole-program call graph; needs libclang + the python
#                  clang bindings, skips with a notice otherwise
#
# Every pass that runs is blocking: a finding fails the script. The
# run ends with a per-pass PASS/FAIL/SKIP summary table (with the skip
# reason), so a green exit can be audited for what actually ran.
#
# Environment:
#   PREPARE_LINT_SKIP     comma/space list of passes to skip outright
#                         (e.g. PREPARE_LINT_SKIP=clang-tidy,thread-safety
#                         for a quick local run).
#   PREPARE_LINT_REQUIRE  comma/space list of passes that must RUN: a
#                         required pass whose tool is missing fails the
#                         script instead of being skipped with a notice.
#                         CI sets this so "clang not found" can never turn
#                         into a silently green lint job.
#   PREPARE_CLANG         clang++ binary for the thread-safety pass
#                         (default: clang++; set clang++-18 on pinned CI).
#   PREPARE_CLANG_TIDY    clang-tidy binary (default: clang-tidy).
#   PREPARE_BUILD_DIR     build tree holding compile_commands.json
#                         (default: build).
#   PREPARE_ANALYZE_STRICT  non-empty (or CI set): unused allow()
#                         suppressions are errors, not warnings.
#   PREPARE_ANALYZE_SARIF   write the analyze pass findings to this path
#                         as SARIF 2.1.0 (CI uploads it to code scanning).
#
# Exits non-zero if any pass that ran reported a finding, or if a
# required pass could not run.
set -u -o pipefail

cd "$(dirname "$0")/.."

PATHS=("$@")
if [ ${#PATHS[@]} -eq 0 ]; then
  PATHS=(src)
fi

CLANG_BIN="${PREPARE_CLANG:-clang++}"
CLANG_TIDY_BIN="${PREPARE_CLANG_TIDY:-clang-tidy}"
build_dir="${PREPARE_BUILD_DIR:-build}"

# clang-tidy and analyze consume compile_commands.json. If the chosen
# build dir has none, configure a minimal throwaway tree so linting a
# fresh checkout needs no manual cmake step.
if [ ! -f "$build_dir/compile_commands.json" ] \
    && command -v cmake > /dev/null 2>&1; then
  echo "== no $build_dir/compile_commands.json; configuring .lint-build/"
  mkdir -p .lint-build
  if cmake -B .lint-build -S . > .lint-build/configure.log 2>&1; then
    build_dir=.lint-build
  else
    echo "lint.sh: configure failed (see .lint-build/configure.log)" >&2
  fi
fi

# has_word LIST WORD — true if WORD appears in the comma/space list.
has_word() {
  case ",${1//[ ,]/,}," in
    *",$2,"*) return 0 ;;
    *) return 1 ;;
  esac
}

skip_pass() { has_word "${PREPARE_LINT_SKIP:-}" "$1"; }
require_pass() { has_word "${PREPARE_LINT_REQUIRE:-}" "$1"; }

status=0
summary_names=()
summary_results=()
summary_notes=()

# record PASS RESULT NOTE — one row of the final summary table.
record() {
  summary_names+=("$1")
  summary_results+=("$2")
  summary_notes+=("${3:-}")
}

# Pass could not run (tool/config missing): fatal when required,
# a SKIP row otherwise.
unavailable() {  # unavailable PASS REASON
  if require_pass "$1"; then
    echo "lint.sh: required pass '$1' cannot run: $2" >&2
    record "$1" FAIL "required but unavailable: $2"
    status=1
  else
    echo "== $1 skipped: $2"
    record "$1" SKIP "$2"
  fi
}

if skip_pass invariants; then
  echo "== invariants skipped (PREPARE_LINT_SKIP)"
  record invariants SKIP "PREPARE_LINT_SKIP"
else
  echo "== check_invariants.py ${PATHS[*]}"
  if python3 tools/check_invariants.py "${PATHS[@]}"; then
    record invariants PASS ""
  else
    record invariants FAIL "findings (see above)"
    status=1
  fi
fi

# analyze_fixtures and invariants_fixtures hold deliberate rule
# violations for the analyzer's and check_invariants.py's self-tests (and
# are not in the compile database): keep them out of the generic sweeps
# — prepare_analyze.py --fixtures and check_invariants_test cover them.
mapfile -t cpp_files < <(find "${PATHS[@]}" -name '*.cpp' \
    -not -path '*/analyze_fixtures/*' \
    -not -path '*/invariants_fixtures/*' | sort)

if skip_pass thread-safety; then
  echo "== thread-safety skipped (PREPARE_LINT_SKIP)"
  record thread-safety SKIP "PREPARE_LINT_SKIP"
elif ! command -v "$CLANG_BIN" > /dev/null 2>&1; then
  unavailable thread-safety "$CLANG_BIN not installed"
else
  echo "== thread-safety ($CLANG_BIN -Wthread-safety, ${#cpp_files[@]} files)"
  ts_status=0
  for f in "${cpp_files[@]}"; do
    if ! "$CLANG_BIN" -fsyntax-only -std=c++20 -Isrc \
        -Wthread-safety -Werror=thread-safety "$f"; then
      ts_status=1
    fi
  done
  if [ $ts_status -ne 0 ]; then
    record thread-safety FAIL "findings (see above)"
    status=1
  else
    record thread-safety PASS "${#cpp_files[@]} files"
  fi
fi

if skip_pass clang-tidy; then
  echo "== clang-tidy skipped (PREPARE_LINT_SKIP)"
  record clang-tidy SKIP "PREPARE_LINT_SKIP"
elif ! command -v "$CLANG_TIDY_BIN" > /dev/null 2>&1; then
  unavailable clang-tidy "$CLANG_TIDY_BIN not installed"
elif [ ! -f "$build_dir/compile_commands.json" ]; then
  unavailable clang-tidy "no $build_dir/compile_commands.json (run: cmake -B $build_dir -S .)"
else
  echo "== clang-tidy ($CLANG_TIDY_BIN, ${#cpp_files[@]} files, config .clang-tidy)"
  if "$CLANG_TIDY_BIN" -p "$build_dir" --quiet --warnings-as-errors='*' \
      "${cpp_files[@]}"; then
    record clang-tidy PASS "${#cpp_files[@]} files"
  else
    record clang-tidy FAIL "findings (see above)"
    status=1
  fi
fi

if skip_pass analyze; then
  echo "== analyze skipped (PREPARE_LINT_SKIP)"
  record analyze SKIP "PREPARE_LINT_SKIP"
elif [ ! -f "$build_dir/compile_commands.json" ]; then
  unavailable analyze "no $build_dir/compile_commands.json (run: cmake -B $build_dir -S .)"
else
  analyze_args=(--build-dir "$build_dir")
  if [ -n "${PREPARE_ANALYZE_STRICT:-}" ] || [ -n "${CI:-}" ]; then
    analyze_args+=(--strict-suppressions)
  fi
  if [ -n "${PREPARE_ANALYZE_SARIF:-}" ]; then
    analyze_args+=(--sarif "$PREPARE_ANALYZE_SARIF")
  fi
  echo "== prepare_analyze.py ${analyze_args[*]} ${PATHS[*]}"
  python3 tools/prepare_analyze.py "${analyze_args[@]}" "${PATHS[@]}"
  analyze_rc=$?
  if [ $analyze_rc -eq 77 ]; then
    unavailable analyze "clang python bindings / libclang not installed"
  elif [ $analyze_rc -ne 0 ]; then
    record analyze FAIL "findings (see above)"
    status=1
  else
    record analyze PASS "per-TU + interprocedural rules"
  fi
fi

echo
echo "== lint summary"
for i in "${!summary_names[@]}"; do
  note="${summary_notes[$i]}"
  printf '   %-14s %-5s %s\n' "${summary_names[$i]}" \
      "${summary_results[$i]}" "${note:+($note)}"
done
if [ $status -eq 0 ]; then
  echo "   overall        PASS"
else
  echo "   overall        FAIL"
fi

exit $status
