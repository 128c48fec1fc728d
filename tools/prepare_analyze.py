#!/usr/bin/env python3
"""prepare_analyze: AST-grounded project rules for the PREPARE tree.

Complements the regex pass (check_invariants.py) and the generic
clang-tidy pass with rules that need real type and scope information,
computed from Clang's AST via the python `clang.cindex` bindings over
the build's exported compile_commands.json. The per-TU rules below run
during extraction; the interprocedural rules run over a merged
whole-program call graph (tools/prepare_callgraph.py) built from every
analyzed TU, so a contract annotated in one file is enforced against
call chains that cross translation units.

Rule catalog (v2):

  layering         Includes must follow the dependency DAG between the
                   top-level directories under src/ (ALLOWED_EDGES).
  determinism      (a) Unordered-container iteration in any TU whose
                   include closure reaches trace/span/event/metrics
                   output. (b) Wall-clock / libc randomness outside
                   src/sim/clock.* and src/obs/stage_profiler.*.
  strong-type      Public API scalars with id/index/probability/
                   duration roles must use common/units.h types.
  mutex-type       Only prepare::Mutex / prepare::MutexLock may lock.
  thread-confined  [interprocedural] No method of a type annotated
                   PREPARE_DRIVER_CONFINED (common/analyze_annotations.h)
                   — SpanTracer, ModelIntrospect, EventLog, Application
                   — may be reachable from a
                   lambda handed to ThreadPool::parallel_for. Virtual
                   calls dispatch to every override; local objects
                   charge their destructors.
  hot-alloc/-lock/-io
                   [interprocedural] No allocation (operator new,
                   malloc, growing container ops, string construction,
                   std::function construction), lock acquisition
                   (prepare::Mutex, std lock vocabulary), or stdio /
                   iostream call may be reachable from a function
                   annotated PREPARE_HOT or from a parallel_for worker
                   lambda. PREPARE_CHECK failure arms are cold and
                   excluded.
  suppression      allow() comments must carry a justification.
  unused-suppression
                   allow() comments must match a diagnostic (reported
                   as warnings locally; --strict-suppressions, set in
                   CI, turns them into errors).

Suppression: a comment on the flagged line, or on a comment line
directly above it:

    // prepare-analyze: allow(RULE): reason

Because interprocedural findings anchor at the offending call site,
one allow at a primitive covers every hot root that reaches it.

Known soundness limits (documented, deliberate): implicitly-generated
special members (e.g. a defaulted copy-assignment that copies a
vector) are not modeled, and calls into repo functions whose bodies
live in TUs outside the analyzed path set end the walk — the analysis
is a conservative may-analysis over named primitives, not an escape
analysis.

Usage:
    prepare_analyze.py [--build-dir DIR] [PATH...]   # default: src
    prepare_analyze.py --fixtures [DIR]              # self-test mode

Options: --json FILE and --sarif FILE write machine-readable findings
(SARIF 2.1.0 uploads to GitHub code scanning); --strict-suppressions
promotes unused-suppression warnings to errors; --no-cache disables
the content-hashed per-TU cache in <build-dir>/prepare_analyze_cache/
(entries are keyed on the analyzer sources + parse args + file hash
and validated against the hash of every repo header the TU includes,
so CI re-analyzes only what changed).

The build dir (default $PREPARE_BUILD_DIR or ./build) must contain
compile_commands.json (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON;
tools/lint.sh does this automatically). libclang is located via
$PREPARE_LIBCLANG, or by globbing the usual LLVM install paths. When
the clang python bindings or libclang are unavailable the script exits
77 (the ctest skip code) so local runs without LLVM degrade to a skip
while CI — which pins LLVM 18 — still enforces the pass.

Fixture mode parses each tests/analyze_fixtures/*.{h,cpp} standalone
(-std=c++20 -Isrc), scopes rules by the fixture's declared `as=` path,
runs the interprocedural rules over the fixture's own call graph
(findings outside the fixture file are dropped), audits the fixture's
suppressions strictly, and compares diagnostics against the matching
*.expected golden file.
"""

import argparse
import glob
import json
import os
import re
import shlex
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import prepare_callgraph as pcg  # noqa: E402  (needs the path insert)

EXIT_CLEAN = 0
EXIT_DIAGNOSTICS = 1
EXIT_ERROR = 2
EXIT_UNAVAILABLE = 77  # matches ctest SKIP_RETURN_CODE

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --- rule configuration ----------------------------------------------------

# Directory layering under src/: maps each top-level dir to the set of
# dirs it may #include from (itself is always allowed). This is the
# measured dependency DAG of the tree; growing a new legitimate edge
# means updating this table in the same PR that adds the include.
ALLOWED_EDGES = {
    "common": set(),
    "obs": {"common"},
    "timeseries": {"common"},
    "workload": {"common"},
    "models": {"common"},
    "sim": {"common", "obs"},
    "faults": {"common", "sim"},
    "monitor": {"common", "sim", "timeseries"},
    "apps": {"common", "sim", "workload"},
    "core": {"apps", "common", "faults", "models", "monitor", "obs", "sim",
             "timeseries", "workload"},
    "report": {"common", "core", "monitor", "sim"},
}

# TUs whose include closure reaches one of these headers write (or can
# write) trace/span/event/metrics artifacts that CI byte-diffs across
# two runs of one seed; unordered iteration there is a determinism bug.
OUTPUT_HEADERS = {
    "src/obs/span_tracer.h",
    "src/obs/trace_export.h",
    "src/obs/metrics.h",
    "src/obs/prom_export.h",
    "src/sim/event_log.h",
}

# Wall-clock / libc-randomness symbols (qualified names) banned outside
# TIME_ALLOWED_FILES. steady_clock is deliberately NOT here: it is
# monotonic and only used for profiler stopwatches.
BANNED_TIME_REFS = {
    "std::rand": "std::rand",
    "rand": "rand",
    "std::srand": "std::srand",
    "srand": "srand",
    "std::time": "time()",
    "time": "time()",
    "std::chrono::system_clock": "std::chrono::system_clock",
    "std::chrono::high_resolution_clock": "std::chrono::high_resolution_clock",
}
TIME_ALLOWED_FILES = (
    "src/sim/clock.h", "src/sim/clock.cpp",
    "src/obs/stage_profiler.h", "src/obs/stage_profiler.cpp",
)

# strong-type scope: public API headers of the predict->diagnose->
# prevent chain. Rule fires on public (or free) function parameters of
# raw builtin scalar type whose name matches a role below.
STRONG_TYPE_SCOPE = re.compile(
    r"^src/(models/[^/]+\.h|sim/[^/]+\.h|core/controller\.h|"
    r"core/anomaly_predictor\.h)$")

SCALAR_TYPES = {
    "int", "unsigned int", "short", "unsigned short", "long",
    "unsigned long", "long long", "unsigned long long", "float", "double",
}

ROLE_RULES = [
    (re.compile(r"^(vm_id|vmid|vm_index)$"), "VmId"),
    (re.compile(r"^(tick|ticks|tick_index|step|steps|lookahead_steps)$"),
     "TickIndex"),
    (re.compile(r"^(bin|bin_index|bin_idx|symbol)$"), "BinIndex"),
    (re.compile(r"^(p|prob|probability)$|_prob(ability)?$"), "Probability"),
    (re.compile(r"^(log_odds|logodds|l_i)$"), "LogOdds"),
    (re.compile(r"^(dt|delay)$|_(s|seconds)$"), "Seconds"),
]

# std locking vocabulary banned outside MUTEX_ALLOWED_FILE (matched on
# canonical types, so `using M = std::mutex;` cannot dodge it).
BANNED_MUTEX_TYPES = (
    "std::mutex", "std::timed_mutex", "std::recursive_mutex",
    "std::recursive_timed_mutex", "std::shared_mutex",
    "std::shared_timed_mutex", "std::lock_guard", "std::unique_lock",
    "std::scoped_lock", "std::shared_lock",
)
MUTEX_ALLOWED_FILE = "src/common/mutex.h"

# --- hot-path primitive vocabulary -----------------------------------------
# Calls into non-repo code (plus the project lock wrappers) classified
# as allocation / lock / IO primitives for the PREPARE_HOT proof. The
# anchor is always the call site, so one suppression covers every hot
# root reaching it.

CONTAINER_CLASSES = {
    "vector", "deque", "list", "forward_list", "map", "multimap", "set",
    "multiset", "unordered_map", "unordered_multimap", "unordered_set",
    "unordered_multiset", "queue", "priority_queue", "stack", "basic_string",
}
GROW_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
    "emplace_hint", "insert", "insert_or_assign", "try_emplace", "resize",
    "reserve", "assign", "append", "push", "shrink_to_fit", "operator+=",
}
MAP_SUBSCRIPT_CLASSES = {"map", "unordered_map"}

STD_MUTEX_CLASSES = {
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex",
}
LOCK_GUARD_CLASSES = {"lock_guard", "unique_lock", "scoped_lock",
                      "shared_lock"}
CONDITION_CLASSES = {"condition_variable", "condition_variable_any"}
# The project wrappers are repo code, but the contract treats taking
# them as the primitive itself (anchored at the call site) rather than
# walking into common/mutex.h.
PREPARE_LOCK_CALLS = {
    "prepare::Mutex::lock", "prepare::Mutex::try_lock",
    "prepare::MutexLock::MutexLock",
}

STREAM_CTOR_CLASSES = {
    "basic_stringstream", "basic_ostringstream", "basic_istringstream",
    "basic_ofstream", "basic_ifstream", "basic_fstream",
}
OSTREAM_CLASSES = {"basic_ostream", "basic_istream", "basic_iostream",
                   "basic_streambuf", "basic_filebuf"}

ALLOC_FREE_FUNCS = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "posix_memalign", "std::to_string", "std::make_unique",
    "std::make_shared",
}
IO_FREE_FUNCS = {
    "printf", "fprintf", "sprintf", "snprintf", "puts", "fputs", "fwrite",
    "fread", "fopen", "fclose", "fflush", "fgets", "fscanf", "scanf",
    "perror", "std::operator<<", "std::operator>>",
}
IO_FREE_FUNCS |= {"std::" + n for n in tuple(IO_FREE_FUNCS)
                  if "::" not in n}
LOCK_FREE_FUNCS = {
    "pthread_mutex_lock", "pthread_rwlock_rdlock", "pthread_rwlock_wrlock",
}

# PREPARE_CHECK failure arms allocate and stream, but only on the path
# that throws — every call whose callee lives under this prefix has its
# whole argument subtree excluded from the hot proof.
COLD_CALLEE_PREFIX = "prepare::detail::Check"

# --- libclang bootstrap ----------------------------------------------------


def load_cindex():
    """Returns the clang.cindex module with libclang configured, or None."""
    try:
        import clang.cindex as ci
    except ImportError:
        return None
    override = os.environ.get("PREPARE_LIBCLANG")
    candidates = [override] if override else []
    if not override:
        for pattern in (
                "/usr/lib/llvm-*/lib/libclang.so*",
                "/usr/lib/llvm-*/lib/libclang-*.so*",
                "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
                "/usr/lib/x86_64-linux-gnu/libclang.so*",
                "/usr/local/lib/libclang*.so*",
        ):
            candidates.extend(sorted(glob.glob(pattern), reverse=True))
    for path in candidates:
        if not path or not os.path.exists(path):
            continue
        try:
            ci.Config.set_library_file(path)
            ci.Index.create()
            return ci
        except Exception:  # try the next candidate
            ci.Config.loaded = False
            continue
    try:  # maybe the bindings know their own library
        ci.Index.create()
        return ci
    except Exception:
        return None


# --- helpers ---------------------------------------------------------------


def rel(path):
    return os.path.relpath(os.path.abspath(path), REPO)


# First-party source roots. Build trees live inside the repo (and pull
# in _deps/ gtest etc.), so "under the repo root" alone is not enough.
SOURCE_ROOTS = ("src", "tests", "bench", "examples", "tools")


def in_repo(path):
    relpath = rel(path)
    return (not relpath.startswith("..")
            and relpath.split(os.sep, 1)[0] in SOURCE_ROOTS)


def src_layer(relpath):
    """Top-level dir under src/ for a repo-relative path, else None."""
    parts = relpath.split(os.sep)
    if len(parts) >= 2 and parts[0] == "src":
        return parts[1] if parts[1] in ALLOWED_EDGES else None
    return None


RESERVED_NS_RE = re.compile(r"^_[_A-Z0-9]")  # __1, _V2, ... (inline nss)


def qualified_name(cursor):
    parts = []
    cur = cursor
    while cur is not None and cur.kind.name != "TRANSLATION_UNIT":
        if cur.spelling and not RESERVED_NS_RE.match(cur.spelling):
            parts.append(cur.spelling)
        cur = cur.semantic_parent
    return "::".join(reversed(parts))


class RawSink:
    """Pre-suppression diagnostics for one TU, cache-serializable."""

    def __init__(self):
        self.items = []  # [path, line, rule, message, real_path-or-None]

    def add(self, path, line, rule, message, real_path=None):
        if real_path is not None and rel(real_path) == path:
            real_path = None  # redundant: the scoped path is the file
        self.items.append([path, line, rule, message, real_path])


# --- the per-TU analysis ---------------------------------------------------


class Analyzer:
    def __init__(self, ci, diags):
        self.ci = ci
        self.diags = diags  # anything with .add(path, line, rule, msg, ...)

    def analyze_tu(self, tu, main_as, real_main, restrict_to_main):
        """Runs every per-TU rule over one translation unit.

        main_as:          repo-relative path the main file is scoped as
                          (differs from the real path in fixture mode).
        real_main:        real filesystem path of the main file.
        restrict_to_main: only diagnose the main file (fixture mode).
        """
        included = self.check_layering(tu, main_as, real_main,
                                       restrict_to_main)
        reaches_output = main_as in OUTPUT_HEADERS or bool(
            included & OUTPUT_HEADERS)
        for cursor in tu.cursor.get_children():
            loc_file = cursor.location.file
            if loc_file is None:
                continue
            real = os.path.abspath(loc_file.name)
            if restrict_to_main:
                if real != os.path.abspath(real_main):
                    continue
                scoped = main_as
            else:
                if not in_repo(real):
                    continue
                scoped = rel(real)
            self.walk(cursor, scoped, real, reaches_output)

    # -- layering --

    def check_layering(self, tu, main_as, real_main, restrict_to_main):
        """Checks include edges; returns the repo-relative include set."""
        included = set()
        for inc in tu.get_includes():
            target = os.path.abspath(inc.include.name)
            if not in_repo(target):
                continue
            target_rel = rel(target)
            included.add(target_rel)
            source_file = inc.location.file
            if source_file is None:
                continue
            source_real = os.path.abspath(source_file.name)
            if source_real == os.path.abspath(real_main):
                source_rel = main_as
            elif restrict_to_main or not in_repo(source_real):
                continue
            else:
                source_rel = rel(source_real)
            src = src_layer(source_rel)
            dst = src_layer(target_rel)
            if src is None or dst is None or src == dst:
                continue  # outside src/, or an intra-layer include
            if dst not in ALLOWED_EDGES[src]:
                self.diags.add(
                    source_rel, inc.location.line, "layering",
                    "%s/ must not include %s/ (%s): allowed from %s/ are {%s}"
                    % (src, dst, target_rel, src,
                       ", ".join(sorted(ALLOWED_EDGES[src])) or "none"),
                    real_path=source_real)
        return included

    # -- recursive cursor walk for determinism / strong-type / mutex-type --

    def walk(self, cursor, scoped, real, reaches_output):
        kind = cursor.kind.name
        if kind in ("FUNCTION_DECL", "CXX_METHOD", "CONSTRUCTOR",
                    "FUNCTION_TEMPLATE"):
            self.check_strong_type(cursor, scoped, real)
        if kind == "CXX_FOR_RANGE_STMT" and reaches_output:
            self.check_unordered_walk(cursor, scoped, real)
        if kind in ("VAR_DECL", "FIELD_DECL"):
            self.check_mutex_type(cursor, scoped, real)
            if reaches_output:
                self.check_unordered_iterator(cursor, scoped, real)
        if kind in ("DECL_REF_EXPR", "TYPE_REF"):
            self.check_time_ref(cursor, scoped, real)
        for child in cursor.get_children():
            self.walk(child, scoped, real, reaches_output)

    def check_strong_type(self, cursor, scoped, real):
        if not STRONG_TYPE_SCOPE.match(scoped):
            return
        access = cursor.access_specifier.name
        if access in ("PROTECTED", "PRIVATE"):
            return  # only the public boundary is policed
        for child in cursor.get_children():
            if child.kind.name != "PARM_DECL":
                continue
            canonical = child.type.get_canonical().spelling
            if canonical.startswith("const "):
                canonical = canonical[len("const "):]
            if canonical not in SCALAR_TYPES:
                continue
            name = child.spelling
            if not name:
                continue
            for pattern, strong in ROLE_RULES:
                if pattern.search(name):
                    self.diags.add(
                        scoped, child.location.line, "strong-type",
                        "public parameter '%s %s' of %s() plays the %s role; "
                        "take prepare::%s (common/units.h) instead"
                        % (canonical, name, cursor.spelling, strong, strong),
                        real_path=real)
                    break

    def check_unordered_walk(self, cursor, scoped, real):
        for child in cursor.get_children():
            if child.kind.name == "VAR_DECL":
                continue  # the loop variable
            canonical = child.type.get_canonical().spelling
            if "unordered_map<" in canonical or "unordered_set<" in canonical:
                self.diags.add(
                    scoped, cursor.location.line, "determinism",
                    "range-for over %s in a TU that reaches trace/span/event "
                    "output: iteration order is nondeterministic; use an "
                    "ordered container or sort first"
                    % canonical.split("<")[0], real_path=real)
                return

    def check_unordered_iterator(self, cursor, scoped, real):
        canonical = cursor.type.get_canonical().spelling
        if "_Node_iterator" in canonical or "_Node_const_iterator" in canonical:
            self.diags.add(
                scoped, cursor.location.line, "determinism",
                "iterator into an unordered container in a TU that reaches "
                "trace/span/event output: iteration order is "
                "nondeterministic", real_path=real)

    def check_mutex_type(self, cursor, scoped, real):
        if scoped == MUTEX_ALLOWED_FILE:
            return
        canonical = cursor.type.get_canonical().spelling
        for banned in BANNED_MUTEX_TYPES:
            if canonical == banned or canonical.startswith(banned + "<"):
                self.diags.add(
                    scoped, cursor.location.line, "mutex-type",
                    "'%s' declared as %s: use prepare::Mutex / "
                    "prepare::MutexLock (common/mutex.h) so -Wthread-safety "
                    "sees the capability" % (cursor.spelling, banned),
                    real_path=real)
                return

    def check_time_ref(self, cursor, scoped, real):
        if scoped in TIME_ALLOWED_FILES:
            return
        ref = cursor.referenced
        if ref is None:
            return
        qname = qualified_name(ref)
        label = BANNED_TIME_REFS.get(qname)
        if label is None:
            return
        self.diags.add(
            scoped, cursor.location.line, "determinism",
            "reference to %s: wall-clock time and libc randomness are "
            "banned outside sim/clock and obs/stage_profiler (use SimClock "
            "/ prepare::Rng)" % label, real_path=real)


# --- call-graph extraction -------------------------------------------------

FN_KINDS = {"FUNCTION_DECL", "CXX_METHOD", "CONSTRUCTOR", "DESTRUCTOR",
            "CONVERSION_FUNCTION", "FUNCTION_TEMPLATE"}
CLASS_KINDS = {"CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE",
               "CLASS_TEMPLATE_PARTIAL_SPECIALIZATION"}


def annotations_of(cursor):
    out = set()
    for child in cursor.get_children():
        if child.kind.name == "ANNOTATE_ATTR":
            out.add(child.spelling or child.displayname)
    return out


class Extractor:
    """Builds prepare_callgraph facts for one TU.

    `scope_of` maps a real absolute path to its scoped repo-relative
    path (the fixture `as=` alias for the fixture main file), or None
    for files outside the first-party tree.
    """

    def __init__(self, scope_of):
        self.scope_of = scope_of
        self.facts = pcg.new_facts()
        self.fn_stack = []
        self.var_stack = []
        self.lambda_vars = {}  # VAR_DECL usr -> lambda fid

    def extract(self, tu):
        for cursor in tu.cursor.get_children():
            loc = cursor.location.file
            if loc is None:
                continue
            if self.scope_of(os.path.abspath(loc.name)) is None:
                continue
            self.visit(cursor)
        return self.facts

    # -- registration helpers --

    def site(self, cursor):
        loc = cursor.location
        scoped = self.scope_of(os.path.abspath(loc.file.name)) \
            if loc.file is not None else None
        return scoped, loc.line, loc.column

    def register_function(self, fid, entry):
        cur = self.facts["functions"].get(fid)
        if cur is None:
            self.facts["functions"][fid] = entry
            return
        if entry["has_body"] and not cur["has_body"]:
            cur["file"], cur["line"] = entry["file"], entry["line"]
            cur["has_body"] = True
        cur["hot"] = cur["hot"] or entry["hot"]
        cur["confined"] = cur["confined"] or entry["confined"]
        if cur.get("cls") is None:
            cur["cls"] = entry.get("cls")

    # -- the walk --

    def visit(self, cursor):
        kind = cursor.kind.name
        if kind in CLASS_KINDS:
            if cursor.is_definition():
                self.on_class(cursor)
            for child in cursor.get_children():
                self.visit(child)
            return
        if kind in FN_KINDS:
            self.on_function(cursor)
            return
        if kind == "LAMBDA_EXPR":
            self.on_lambda(cursor)
            return
        if kind == "VAR_DECL":
            self.on_var(cursor)
            return
        if kind == "CALL_EXPR":
            if self.on_call(cursor):
                return  # cold failure arm: whole subtree excluded
        elif kind == "CXX_NEW_EXPR" and self.fn_stack:
            scoped, line, _ = self.site(cursor)
            if scoped:
                self.facts["prims"].append(
                    [self.fn_stack[-1], "hot-alloc", "operator new",
                     scoped, line])
        elif kind == "CXX_DELETE_EXPR" and self.fn_stack:
            scoped, line, _ = self.site(cursor)
            if scoped:
                self.facts["prims"].append(
                    [self.fn_stack[-1], "hot-alloc", "operator delete",
                     scoped, line])
        for child in cursor.get_children():
            self.visit(child)

    def on_class(self, cursor):
        cid = cursor.get_usr()
        if not cid:
            return
        bases = []
        for child in cursor.get_children():
            if child.kind.name == "CXX_BASE_SPECIFIER":
                decl = child.type.get_declaration()
                usr = decl.get_usr() if decl is not None else None
                if usr:
                    bases.append(usr)
        cur = self.facts["classes"].setdefault(
            cid, {"name": qualified_name(cursor), "confined": False,
                  "bases": []})
        if pcg.CONFINED_ANNOTATION in annotations_of(cursor):
            cur["confined"] = True
        for base in bases:
            if base not in cur["bases"]:
                cur["bases"].append(base)

    def on_function(self, cursor):
        fid = cursor.get_usr()
        if not fid:
            return
        scoped, line, _ = self.site(cursor)
        if scoped is None:
            return
        ann = annotations_of(cursor)
        canonical = cursor.canonical
        if canonical is not None and canonical != cursor:
            ann |= annotations_of(canonical)
        parent = cursor.semantic_parent
        cls = None
        if parent is not None and parent.kind.name in CLASS_KINDS:
            cls = parent.get_usr() or None
        self.register_function(fid, {
            "name": qualified_name(cursor),
            "spelling": cursor.spelling,
            "file": scoped,
            "line": line,
            "cls": cls,
            "hot": pcg.HOT_ANNOTATION in ann,
            "confined": pcg.CONFINED_ANNOTATION in ann,
            "has_body": bool(cursor.is_definition()),
            "is_lambda": False,
        })
        if cursor.is_definition():
            self.fn_stack.append(fid)
            for child in cursor.get_children():
                self.visit(child)
            self.fn_stack.pop()

    def lambda_fid(self, cursor):
        scoped, line, col = self.site(cursor)
        if scoped is None:
            return None
        return "lambda@%s:%d:%d" % (scoped, line, col)

    def on_lambda(self, cursor):
        fid = self.lambda_fid(cursor)
        if fid is None:
            return
        scoped, line, _ = self.site(cursor)
        self.register_function(fid, {
            "name": "lambda(%s:%d)" % (scoped, line),
            "spelling": "operator()",
            "file": scoped,
            "line": line,
            "cls": None,
            "hot": False,
            "confined": False,
            "has_body": True,
            "is_lambda": True,
        })
        if self.fn_stack:
            # Conservative: defining a lambda charges the enclosing
            # function with (eventually) running it.
            self.facts["calls"].append(
                [self.fn_stack[-1], fid, scoped, line])
        if self.var_stack:
            self.lambda_vars.setdefault(self.var_stack[-1], fid)
        self.fn_stack.append(fid)
        for child in cursor.get_children():
            self.visit(child)
        self.fn_stack.pop()

    def on_var(self, cursor):
        usr = cursor.get_usr()
        self.var_stack.append(usr)
        for child in cursor.get_children():
            self.visit(child)
        self.var_stack.pop()
        # A block-scope object of a repo class type runs that class's
        # destructor when the enclosing function leaves the scope.
        if not self.fn_stack:
            return
        decl = cursor.type.get_canonical().get_declaration()
        if decl is None or decl.kind.name not in CLASS_KINDS:
            return
        loc = decl.location.file
        if loc is None or self.scope_of(os.path.abspath(loc.name)) is None:
            return
        cid = decl.get_usr()
        scoped, line, _ = self.site(cursor)
        if cid and scoped:
            self.facts["uses"].append([self.fn_stack[-1], cid, scoped, line])

    def on_call(self, cursor):
        """Handles one call expression; True = skip the whole subtree."""
        callee = cursor.referenced
        if callee is None:
            return False
        qn = qualified_name(callee)
        if qn.startswith(COLD_CALLEE_PREFIX):
            return True  # PREPARE_CHECK failure arm: cold by contract
        if callee.spelling == "parallel_for":
            parent = callee.semantic_parent
            if parent is not None and parent.spelling == "ThreadPool":
                self.find_workers(cursor)
        if self.fn_stack:
            self.record_callee(callee, qn, cursor)
        return False

    def find_workers(self, call_cursor):
        """Argument subtrees of a parallel_for call: lambdas become
        implicit hot + confinement roots, directly or through a local
        std::function / auto variable."""
        def search(node):
            kind = node.kind.name
            if kind == "LAMBDA_EXPR":
                fid = self.lambda_fid(node)
                if fid:
                    self.facts["workers"].append(fid)
                return
            if kind == "DECL_REF_EXPR":
                ref = node.referenced
                if ref is not None:
                    fid = self.lambda_vars.get(ref.get_usr())
                    if fid:
                        self.facts["workers"].append(fid)
                return
            for child in node.get_children():
                search(child)
        search(call_cursor)

    def record_callee(self, callee, qn, node):
        caller = self.fn_stack[-1]
        scoped, line, _ = self.site(node)
        if scoped is None:
            return
        ckind = callee.kind.name
        if qn in PREPARE_LOCK_CALLS:
            self.facts["prims"].append(
                [caller, "hot-lock", qn, scoped, line])
            return
        callee_loc = callee.location.file
        callee_in_repo = (
            callee_loc is not None
            and self.scope_of(os.path.abspath(callee_loc.name)) is not None)
        if callee_in_repo:
            fid = callee.get_usr()
            if not fid:
                return
            if ckind == "CXX_METHOD" and callee.is_virtual_method():
                parent = callee.semantic_parent
                cid = parent.get_usr() if parent is not None else None
                self.facts["vcalls"].append(
                    [caller, fid, cid or "", callee.spelling, scoped, line])
            else:
                self.facts["calls"].append([caller, fid, scoped, line])
            return
        prim = self.classify_primitive(callee, qn, node)
        if prim is not None:
            rule, detail = prim
            self.facts["prims"].append([caller, rule, detail, scoped, line])

    def classify_primitive(self, callee, qn, node):
        """(rule, detail) for a non-repo callee, or None if benign."""
        ckind = callee.kind.name
        parent = callee.semantic_parent
        pspell = parent.spelling if parent is not None else ""
        if ckind == "CONSTRUCTOR":
            if "&&" in callee.displayname:
                return None  # move construction does not allocate
            if pspell in LOCK_GUARD_CLASSES:
                return ("hot-lock", "std::%s construction" % pspell)
            if pspell in STREAM_CTOR_CLASSES:
                return ("hot-io", "std::%s construction" % pspell)
            if pspell == "thread":
                return ("hot-lock", "std::thread spawn")
            nargs = len(list(node.get_arguments()))
            if nargs == 0:
                return None  # default construction is allocation-free
            if pspell == "function":
                return ("hot-alloc", "std::function construction")
            if pspell == "basic_string":
                return ("hot-alloc", "std::string construction")
            if pspell in CONTAINER_CLASSES:
                return ("hot-alloc", "std::%s construction" % pspell)
            return None
        if ckind == "CXX_METHOD":
            spelling = callee.spelling
            if pspell in CONTAINER_CLASSES:
                if spelling in GROW_METHODS:
                    return ("hot-alloc", "std::%s::%s" % (pspell, spelling))
                if (spelling == "operator[]"
                        and pspell in MAP_SUBSCRIPT_CLASSES):
                    return ("hot-alloc",
                            "std::%s::operator[] (inserts)" % pspell)
                return None
            if pspell in STD_MUTEX_CLASSES and spelling in (
                    "lock", "try_lock", "lock_shared", "try_lock_shared"):
                return ("hot-lock", "std::%s::%s" % (pspell, spelling))
            if pspell in CONDITION_CLASSES and spelling.startswith("wait"):
                return ("hot-lock", "std::%s::%s" % (pspell, spelling))
            if pspell in OSTREAM_CLASSES:
                return ("hot-io", "std::%s::%s" % (pspell, spelling))
            return None
        if qn in ALLOC_FREE_FUNCS:
            return ("hot-alloc", qn + "()")
        if qn in IO_FREE_FUNCS:
            return ("hot-io", qn + "()")
        if qn in LOCK_FREE_FUNCS:
            return ("hot-lock", qn + "()")
        return None


# --- compile_commands driving ---------------------------------------------

KEEP_PREFIX = ("-I", "-D", "-std=")
KEEP_WITH_VALUE = ("-isystem", "-include", "-iquote")


def parse_args_from_entry(entry):
    if "arguments" in entry:
        tokens = list(entry["arguments"])
    else:
        tokens = shlex.split(entry["command"])
    directory = entry.get("directory", REPO)
    out = []
    i = 1  # skip the compiler itself
    while i < len(tokens):
        tok = tokens[i]
        if tok in KEEP_WITH_VALUE and i + 1 < len(tokens):
            out.extend([tok, absolutize(tokens[i + 1], directory)])
            i += 2
            continue
        if tok.startswith("-I"):
            out.append("-I" + absolutize(tok[2:], directory))
        elif any(tok.startswith(p) for p in KEEP_PREFIX):
            out.append(tok)
        i += 1
    return out


def absolutize(path, directory):
    return path if os.path.isabs(path) else os.path.join(directory, path)


# --- per-TU cache ----------------------------------------------------------


def analyzer_fingerprint():
    """Hash of the analyzer sources: any rule change invalidates."""
    chunks = []
    for name in ("prepare_analyze.py", "prepare_callgraph.py"):
        path = os.path.join(REPO, "tools", name)
        try:
            with open(path, "rb") as f:
                chunks.append(pcg.content_hash(f.read()))
        except OSError:
            chunks.append("missing:" + name)
    return pcg.content_hash("|".join(chunks))


def hash_file(path):
    try:
        with open(path, "rb") as f:
            return pcg.content_hash(f.read())
    except OSError:
        return None


class TUCache:
    """Content-hashed cache of (raw diagnostics, call-graph facts) per TU.

    An entry is keyed on the analyzer fingerprint + parse args + source
    path, and is valid only while every repo file in the TU's include
    closure still hashes to the value recorded at parse time. Raw
    (pre-suppression) diagnostics are cached so suppression comments
    are always re-applied against the current sources at report time.
    """

    def __init__(self, build_dir):
        self.dir = os.path.join(build_dir, "prepare_analyze_cache")
        self.salt = analyzer_fingerprint()
        self.hits = 0

    def key(self, source_rel, args):
        return pcg.content_hash(
            json.dumps([self.salt, source_rel, args], sort_keys=True))

    def load(self, key):
        path = os.path.join(self.dir, key + ".json")
        try:
            with open(path, encoding="utf-8") as f:
                entry = json.load(f)
        except (OSError, ValueError):
            return None
        deps = entry.get("deps", {})
        for dep_rel, digest in deps.items():
            if hash_file(os.path.join(REPO, dep_rel)) != digest:
                return None
        self.hits += 1
        return entry

    def store(self, key, entry):
        try:
            os.makedirs(self.dir, exist_ok=True)
            tmp = os.path.join(self.dir, key + ".tmp")
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(entry, f)
            os.replace(tmp, os.path.join(self.dir, key + ".json"))
        except OSError:
            pass  # caching is best-effort


def collect_deps(tu, source):
    """{repo-relative path: content hash} for the TU's include closure."""
    deps = {}
    files = {os.path.abspath(source)}
    for inc in tu.get_includes():
        files.add(os.path.abspath(inc.include.name))
    for path in files:
        if in_repo(path):
            digest = hash_file(path)
            if digest is not None:
                deps[rel(path)] = digest
    return deps


# --- tree mode -------------------------------------------------------------


def tree_scope(real_abs):
    return rel(real_abs) if in_repo(real_abs) else None


def write_outputs(diags, opts):
    if opts.json:
        pcg.dump_json(pcg.to_json(diags.items, diags.found, diags.suppressed),
                      opts.json)
    if opts.sarif:
        pcg.dump_json(pcg.to_sarif(diags.items), opts.sarif)


def run_tree(ci, build_dir, paths, opts):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        sys.stderr.write("prepare_analyze: %s not found (configure with "
                         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)\n" % db_path)
        return EXIT_ERROR
    with open(db_path, encoding="utf-8") as f:
        entries = json.load(f)

    wanted = [os.path.abspath(os.path.join(REPO, p)) for p in paths]
    diags = pcg.Diagnostics()
    cache = None if opts.no_cache else TUCache(build_dir)
    graph = pcg.CallGraph()
    dep_files = {}  # scoped path -> readable path (both repo-relative here)
    analyzer = None
    index = None
    analyzed = 0
    for entry in entries:
        source = absolutize(entry["file"], entry.get("directory", REPO))
        source = os.path.abspath(source)
        if not any(source == w or source.startswith(w + os.sep)
                   for w in wanted):
            continue
        args = parse_args_from_entry(entry) + ["-x", "c++"]
        source_rel = rel(source)
        cached = None
        key = None
        if cache is not None:
            key = cache.key(source_rel, args)
            cached = cache.load(key)
        if cached is not None:
            raw = cached["raw"]
            facts = cached["facts"]
            deps = cached["deps"]
        else:
            if index is None:
                index = ci.Index.create()
                analyzer = Analyzer(ci, None)
            try:
                tu = index.parse(
                    source, args=args,
                    options=ci.TranslationUnit
                    .PARSE_DETAILED_PROCESSING_RECORD)
            except ci.TranslationUnitLoadError as err:
                sys.stderr.write("prepare_analyze: cannot parse %s: %s\n"
                                 % (source_rel, err))
                return EXIT_ERROR
            fatal = [d for d in tu.diagnostics if d.severity >= d.Fatal]
            if fatal:
                sys.stderr.write("prepare_analyze: %s: %s\n"
                                 % (source_rel, fatal[0].spelling))
                return EXIT_ERROR
            sink = RawSink()
            analyzer.diags = sink
            analyzer.analyze_tu(tu, source_rel, source,
                                restrict_to_main=False)
            facts = Extractor(tree_scope).extract(tu)
            deps = collect_deps(tu, source)
            raw = sink.items
            if cache is not None:
                cache.store(key, {"deps": deps, "raw": raw, "facts": facts})
        for item in raw:
            diags.add(*item)
        graph.add_facts(facts)
        for dep in deps:
            dep_files[dep] = dep
        analyzed += 1

    if analyzed == 0:
        sys.stderr.write("prepare_analyze: no translation units under: %s\n"
                         % " ".join(paths))
        return EXIT_ERROR

    graph.finalize()
    for finding in graph.confinement_findings() + graph.hot_findings():
        diags.add(finding["file"], finding["line"], finding["rule"],
                  finding["message"])

    unused = diags.unused_suppressions(dep_files)
    if opts.strict_suppressions:
        for item in unused:
            diags.items.append(item)
            diags.found["unused-suppression"] = (
                diags.found.get("unused-suppression", 0) + 1)
    else:
        for path, line, rule, message in unused:
            sys.stderr.write("%s:%d: warning: [%s] %s\n"
                             % (path, line, rule, message))

    diags.report()
    write_outputs(diags, opts)
    if not opts.no_summary:
        rows = diags.summary_lines()
        if rows:
            print("prepare_analyze: per-rule summary:")
            for row in rows:
                print(row)
    cached_note = " (%d cached)" % cache.hits if cache is not None else ""
    if diags.items:
        sys.stderr.write("prepare_analyze: %d diagnostic(s) in %d TU(s)%s\n"
                         % (len(diags.items), analyzed, cached_note))
        return EXIT_DIAGNOSTICS
    print("prepare_analyze: %d TU(s) clean%s" % (analyzed, cached_note))
    return EXIT_CLEAN


# --- fixture (self-test) mode ----------------------------------------------

FIXTURE_AS_RE = re.compile(r"//\s*prepare-analyze-fixture:\s*as=(\S+)")


def run_fixtures(ci, fixture_dir):
    fixtures = sorted(
        glob.glob(os.path.join(fixture_dir, "*.cpp")) +
        glob.glob(os.path.join(fixture_dir, "*.h")))
    if not fixtures:
        sys.stderr.write("prepare_analyze: no fixtures in %s\n" % fixture_dir)
        return EXIT_ERROR

    index = ci.Index.create()
    failures = 0
    for path in fixtures:
        with open(path, encoding="utf-8") as f:
            first = f.readline()
        m = FIXTURE_AS_RE.search(first)
        if not m:
            sys.stderr.write("%s: missing `// prepare-analyze-fixture: "
                             "as=src/...` directive on line 1\n" % path)
            failures += 1
            continue
        main_as = m.group(1)
        expected_path = os.path.splitext(path)[0] + ".expected"
        if not os.path.exists(expected_path):
            sys.stderr.write("%s: missing golden file %s\n"
                             % (path, expected_path))
            failures += 1
            continue
        expected = set()
        with open(expected_path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#"):
                    lineno, rule = line.split(":", 1)
                    expected.add((int(lineno), rule.strip()))

        args = ["-x", "c++", "-std=c++20", "-I" + os.path.join(REPO, "src")]
        tu = index.parse(
            path, args=args,
            options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
        fatal = [d for d in tu.diagnostics if d.severity >= d.Error]
        if fatal:
            sys.stderr.write("%s: fixture does not parse: %s\n"
                             % (path, fatal[0].spelling))
            failures += 1
            continue

        real_main = os.path.abspath(path)

        def fixture_scope(real_abs, _main=real_main, _as=main_as):
            if real_abs == _main:
                return _as
            return rel(real_abs) if in_repo(real_abs) else None

        diags = pcg.Diagnostics()
        sink = RawSink()
        Analyzer(ci, sink).analyze_tu(tu, main_as, path,
                                      restrict_to_main=True)
        for item in sink.items:
            diags.add(*item)
        graph = pcg.CallGraph()
        graph.add_facts(Extractor(fixture_scope).extract(tu))
        graph.finalize()
        for finding in graph.confinement_findings() + graph.hot_findings():
            if finding["file"] != main_as:
                continue  # keep goldens scoped to the fixture file
            diags.add(finding["file"], finding["line"], finding["rule"],
                      finding["message"], real_path=path)
        # Fixtures audit their suppressions strictly, so the unused-
        # suppression rule is itself golden-tested.
        for item in diags.unused_suppressions({main_as: path}):
            diags.items.append(item)

        actual = set((line, rule) for _, line, rule, _ in diags.items)
        if actual != expected:
            failures += 1
            sys.stderr.write("FAIL %s (as %s)\n" % (os.path.basename(path),
                                                    main_as))
            for line, rule in sorted(expected - actual):
                sys.stderr.write("  missing expected %d:%s\n" % (line, rule))
            for line, rule in sorted(actual - expected):
                sys.stderr.write("  unexpected %d:%s\n" % (line, rule))
            for item in sorted(diags.items):
                sys.stderr.write("  got %s:%d: [%s] %s\n" % item)
        else:
            print("ok %s (%d diagnostic(s) as expected)"
                  % (os.path.basename(path), len(expected)))

    if failures:
        sys.stderr.write("prepare_analyze: %d fixture failure(s)\n" % failures)
        return EXIT_DIAGNOSTICS
    print("prepare_analyze: all %d fixtures pass" % len(fixtures))
    return EXIT_CLEAN


# --- entry point -----------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(
        description="AST-grounded PREPARE project rules (see module "
                    "docstring for the rule catalog)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="repo-relative dirs/files to analyze "
                             "(default: src)")
    parser.add_argument("--build-dir",
                        default=os.environ.get("PREPARE_BUILD_DIR", "build"),
                        help="build dir containing compile_commands.json")
    parser.add_argument("--fixtures", nargs="?", const="tests/analyze_fixtures",
                        default=None, metavar="DIR",
                        help="run the self-test fixtures instead of the tree")
    parser.add_argument("--json", metavar="FILE",
                        help="write findings as JSON")
    parser.add_argument("--sarif", metavar="FILE",
                        help="write findings as SARIF 2.1.0")
    parser.add_argument("--strict-suppressions", action="store_true",
                        help="unused allow() comments are errors (CI)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the per-TU analysis cache")
    parser.add_argument("--no-summary", action="store_true",
                        help="skip the per-rule summary table")
    opts = parser.parse_args()

    sys.setrecursionlimit(10000)  # the cursor walk recurses per AST node
    ci = load_cindex()
    if ci is None:
        sys.stderr.write(
            "prepare_analyze: clang python bindings / libclang unavailable; "
            "skipping (install python3-clang + libclang, or set "
            "PREPARE_LIBCLANG)\n")
        return EXIT_UNAVAILABLE

    os.chdir(REPO)
    if opts.fixtures is not None:
        return run_fixtures(ci, opts.fixtures)
    return run_tree(ci, opts.build_dir, opts.paths or ["src"], opts)


if __name__ == "__main__":
    sys.exit(main())
