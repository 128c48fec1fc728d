#!/usr/bin/env python3
"""Validator for the observability JSONL trace (schema versions 1-4).

A trace file is one JSON object per line (see src/obs/trace_export.h):

  line 1    {"record":"run","schema":1|2|3,"run_id":ID,"sim_time_end":T,...}
  then      {"record":"event","run_id":ID,"t":T,"kind":K,"subject":S,
             "detail":D}
            {"record":"metric","run_id":ID,"t":T,"name":N,
             "type":"counter"|"gauge","value":V}
            {"record":"histogram","run_id":ID,"t":T,"name":N,"count":C,
             "sum":S,"min":m,"max":M,"p50":...,"p90":...,"p99":...}

Schema v2 adds alert-lifecycle span records (src/obs/span_tracer.h):

            {"record":"span","run_id":ID,"trace_id":TR,"span_id":SP,
             "parent_id":P,"vm":VM,"stage":STAGE,"t_start":T0,
             "t_end":T1,<flat attributes...>}

Schema v3 adds model-introspection records (src/obs/model_introspect.h):

            {"record":"calibration","run_id":ID,"t":T,"horizon_step":S,
             "horizon_s":H,"n":N,"hits":K,"p_mean":...,"brier":...,
             "logloss":...,"bin0_n":...,"bin0_hits":...,...}
            {"record":"model_drift","run_id":ID,"t":T,
             "kind":"calibration"|"occupancy","triggered":0|1,
             ["attribute":A,]<numeric drift values...>}

Checked per record: required fields present, field types correct, flat
values only (no nested objects/arrays), run_id matches the header, and
histogram quantiles are ordered (min <= p50 <= p90 <= p99 <= max; a
numeric field may be null = unavailable).

Checked per span chain (v2): span_id uniqueness, parent linkage (every
parent_id resolves to an earlier span of the same trace_id; exactly one
root per trace), monotone timestamps (t_end >= t_start, child t_start >=
parent t_start), and terminal state (each trace closes with exactly one
terminal span — validated/escalated/expired — as its last span).

Schema v4 adds episode flight-recorder records (src/obs/flight_recorder.h),
a `kind` family sharing the owning span episode's trace_id:

            {"record":"episode_evidence","kind":"bundle","run_id":ID,
             "trace_id":TR,"vm":VM,"t_open":T0,"t_close":T1,
             "outcome":O,"ticks":N,"pre_ticks":P,"truncated_ticks":X,
             "attributes":13,"filter_k":k,...,"attr0":NAME,...}
            {"record":"episode_evidence","kind":"tick",...,"seq":S,
             "t":T,"phase":"pre"|"episode","abnormal":0|1,...,
             "raw<i>":...,"bin<i>":...,"mode<i>":...,"impact<i>":...,
             "modep<i>":...,"horizon_len":H}
            {"record":"episode_evidence","kind":"diagnosis"|"prevention"
             |"counterfactual",...}

Checked per evidence group (v4): every bundle's trace_id resolves to a
span episode of the same VM; tick seq values are 0..ticks-1 in order
with exactly one raw/bin/mode/impact/modep field per attribute (and
attributes matching the 13-attribute monitoring vector); "pre"-phase
ticks precede the owning episode root's t_start and "episode"-phase
ticks lie inside the episode's span lifetime; diagnosis carries one
rank<r>_attr/_impact pair per count.

Usage: check_obs_schema.py FILE.jsonl [--require-stages]
                                      [--require-outcomes]
                                      [--require-calibration]
                                      [--require-evidence]

--require-stages additionally demands one non-empty
stage.<name>.seconds histogram per controller pipeline stage (the seven
stages of src/obs/stage_profiler.h).

--require-outcomes (v2 traces) additionally demands span records plus
the outcome-ledger counters (alert.outcome.*), and cross-checks the
prevented / false_alarm / escalated / expired counters against the
outcomes derived from the terminal spans.

--require-calibration (v3 traces) additionally demands at least one
calibration record (with consistent reliability bins: per record, the
bin<b>_n fields sum to n and the bin<b>_hits fields sum to hits), the
model.calibration.samples_total counter, and the pooled reliability
bin counters (model.calibration.reliability.bin<b>.n/.hits).

--require-evidence (v4 traces) additionally demands at least one
episode_evidence bundle and the recorder.bundles_total /
recorder.dropped_total counters.

Always checked, with no flag: every number written with a fraction or
an exponent is its value's "%.17g", the text src/obs/json.cpp writes
for every double (printf's format in the C locale; Python's % operator
gives the same text). A shortest form such as 0.1 for the double
0.10000000000000001 is rejected, so a writer that stops keeping that
contract shows here.

Exits 0 when valid, 1 with one "FILE:line: message" per violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PIPELINE_STAGES = [
    "monitor_sample",
    "discretize",
    "markov_lookahead",
    "tan_classify",
    "alarm_filter",
    "cause_inference",
    "prevention",
]

SUPPORTED_SCHEMAS = (1, 2, 3, 4)

SPAN_STAGES = {
    "raw_alert",
    "confirmed",
    "cause_inferred",
    "prevention_issued",
    "validated",
    "escalated",
    "expired",
}
TERMINAL_STAGES = {"validated", "escalated", "expired"}

# Ledger counters derivable from terminal-span `outcome` attributes.
SPAN_DERIVED_OUTCOMES = ("prevented", "false_alarm", "escalated", "expired")
# Ledger counters that exist without a span (a violation nothing
# predicted leaves no episode).
EXTRA_OUTCOME_METRICS = ("alert.outcome.missed", "alert.suppressed_total")

# field -> required type(s); None in a numeric field means "unavailable".
STR = (str,)
NUM = (int, float)
REQUIRED = {
    "run": {"schema": NUM, "run_id": STR, "sim_time_end": NUM},
    "event": {"run_id": STR, "t": NUM, "kind": STR, "subject": STR,
              "detail": STR},
    "metric": {"run_id": STR, "t": NUM, "name": STR, "type": STR,
               "value": NUM},
    "histogram": {"run_id": STR, "t": NUM, "name": STR, "count": NUM,
                  "sum": NUM, "min": NUM, "max": NUM, "p50": NUM,
                  "p90": NUM, "p99": NUM},
    "span": {"run_id": STR, "trace_id": STR, "span_id": STR,
             "parent_id": STR, "vm": STR, "stage": STR, "t_start": NUM,
             "t_end": NUM},
    "calibration": {"run_id": STR, "t": NUM, "horizon_step": NUM,
                    "horizon_s": NUM, "n": NUM, "hits": NUM,
                    "p_mean": NUM, "brier": NUM, "logloss": NUM},
    "model_drift": {"run_id": STR, "t": NUM, "kind": STR,
                    "triggered": NUM},
    "episode_evidence": {"run_id": STR, "trace_id": STR, "vm": STR,
                         "kind": STR},
}
DRIFT_KINDS = {"calibration", "occupancy"}
NULLABLE = {"sum", "min", "max", "p50", "p90", "p99", "value"}

# Per-kind required fields of episode_evidence records (on top of the
# shared run_id/trace_id/vm/kind base).
EVIDENCE_KIND_REQUIRED = {
    "bundle": {"t_open": NUM, "t_close": NUM, "outcome": STR,
               "ticks": NUM, "pre_ticks": NUM, "truncated_ticks": NUM,
               "attributes": NUM, "filter_k": NUM, "filter_w": NUM,
               "alert_min_top_impact": NUM, "prevention_mode": NUM,
               "companion_scaling": NUM, "lookahead_s": NUM,
               "sampling_interval_s": NUM, "decomposable": NUM},
    "tick": {"seq": NUM, "t": NUM, "phase": STR, "abnormal": NUM,
             "raw_alert": NUM, "confirmed": NUM, "score": NUM,
             "prior": NUM, "decomposable": NUM, "horizon_len": NUM},
    "diagnosis": {"t": NUM, "count": NUM},
    "prevention": {"t": NUM, "phase": STR, "attribute": STR,
                   "metric_kind": STR, "scale_possible": NUM,
                   "migrate_possible": NUM, "mode": NUM, "applied": STR},
    "counterfactual": {"policy": NUM, "compared": NUM, "diverged": NUM,
                       "detail": STR},
}
EVIDENCE_FLAG_FIELDS = {
    "tick": ("abnormal", "raw_alert", "confirmed", "decomposable"),
    "bundle": ("companion_scaling", "decomposable"),
    "prevention": ("scale_possible", "migrate_possible"),
}
EVIDENCE_TICK_PHASES = {"pre", "episode"}
EVIDENCE_PREVENTION_PHASES = {"initial", "companion", "fallback"}
EVIDENCE_APPLIED = {"none", "scale", "migrate"}
EVIDENCE_METRIC_KINDS = {"cpu", "memory", "other"}
# The monitoring vector is fixed (monitor/attributes.h).
ATTRIBUTE_COUNT = 13


def parse_precision17(token: str, mismatches: list[str]) -> float:
    """json.loads' parse_float: the token's value, noting in
    `mismatches` a token that is not that value's "%.17g"."""
    value = float(token)
    if "%.17g" % value != token:
        mismatches.append(token)
    return value


def check_record(obj: dict, lineno: int, errors: list[str],
                 run_id: str | None) -> None:
    record = obj.get("record")
    if record not in REQUIRED:
        errors.append(f"{lineno}: unknown record type {record!r}")
        return
    for field, types in REQUIRED[record].items():
        if field not in obj:
            errors.append(f"{lineno}: {record} record missing {field!r}")
            continue
        value = obj[field]
        if value is None and field in NULLABLE:
            continue
        # bool is an int subclass but never a valid trace value.
        if isinstance(value, bool) or not isinstance(value, types):
            errors.append(
                f"{lineno}: field {field!r} has type "
                f"{type(value).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}")
    for key, value in obj.items():
        if isinstance(value, (dict, list)):
            errors.append(f"{lineno}: field {key!r} is nested; "
                          "records must be flat")
    if record == "metric" and obj.get("type") not in ("counter", "gauge"):
        errors.append(f"{lineno}: metric type {obj.get('type')!r} is not "
                      "counter/gauge")
    if record != "run" and run_id is not None and obj.get("run_id") != run_id:
        errors.append(f"{lineno}: run_id {obj.get('run_id')!r} does not "
                      f"match header {run_id!r}")
    if record == "histogram":
        ordered = [obj.get(f) for f in ("min", "p50", "p90", "p99", "max")]
        numeric = [v for v in ordered if isinstance(v, NUM)
                   and not isinstance(v, bool)]
        if numeric != sorted(numeric):
            errors.append(f"{lineno}: histogram quantiles out of order: "
                          f"{ordered}")
    if record == "span" and obj.get("stage") not in SPAN_STAGES:
        errors.append(f"{lineno}: unknown span stage {obj.get('stage')!r}")
    if record == "calibration":
        bin_n = sum(v for k, v in obj.items()
                    if k.startswith("bin") and k.endswith("_n")
                    and isinstance(v, NUM) and not isinstance(v, bool))
        bin_hits = sum(v for k, v in obj.items()
                       if k.startswith("bin") and k.endswith("_hits")
                       and isinstance(v, NUM) and not isinstance(v, bool))
        if isinstance(obj.get("n"), NUM) and bin_n != obj["n"]:
            errors.append(f"{lineno}: calibration bin counts sum to "
                          f"{bin_n}, but n is {obj['n']}")
        if isinstance(obj.get("hits"), NUM) and bin_hits != obj["hits"]:
            errors.append(f"{lineno}: calibration bin hits sum to "
                          f"{bin_hits}, but hits is {obj['hits']}")
    if record == "model_drift":
        if obj.get("kind") not in DRIFT_KINDS:
            errors.append(f"{lineno}: unknown drift kind "
                          f"{obj.get('kind')!r}")
        if obj.get("triggered") not in (0, 1):
            errors.append(f"{lineno}: model_drift triggered must be 0 or "
                          f"1, got {obj.get('triggered')!r}")
    if record == "episode_evidence":
        kind = obj.get("kind")
        if kind not in EVIDENCE_KIND_REQUIRED:
            errors.append(f"{lineno}: unknown evidence kind {kind!r}")
            return
        for field, types in EVIDENCE_KIND_REQUIRED[kind].items():
            value = obj.get(field)
            if field not in obj:
                errors.append(f"{lineno}: evidence {kind} record missing "
                              f"{field!r}")
            elif isinstance(value, bool) or not isinstance(value, types):
                errors.append(
                    f"{lineno}: field {field!r} has type "
                    f"{type(value).__name__}, expected "
                    f"{'/'.join(t.__name__ for t in types)}")
        for field in EVIDENCE_FLAG_FIELDS.get(kind, ()):
            if obj.get(field) not in (0, 1):
                errors.append(f"{lineno}: evidence {kind} field "
                              f"{field!r} must be 0 or 1, got "
                              f"{obj.get(field)!r}")
        if kind == "tick" and obj.get("phase") not in EVIDENCE_TICK_PHASES:
            errors.append(f"{lineno}: unknown tick phase "
                          f"{obj.get('phase')!r}")
        if kind == "prevention":
            if obj.get("phase") not in EVIDENCE_PREVENTION_PHASES:
                errors.append(f"{lineno}: unknown prevention phase "
                              f"{obj.get('phase')!r}")
            if obj.get("metric_kind") not in EVIDENCE_METRIC_KINDS:
                errors.append(f"{lineno}: unknown prevention metric_kind "
                              f"{obj.get('metric_kind')!r}")
            if obj.get("applied") not in EVIDENCE_APPLIED:
                errors.append(f"{lineno}: unknown prevention applied "
                              f"{obj.get('applied')!r}")


def check_spans(spans: list[tuple[int, dict]], errors: list[str]) -> None:
    """Chain-level span checks: ids, linkage, timestamps, terminals."""
    by_id: dict[str, tuple[int, dict]] = {}
    for lineno, span in spans:
        span_id = span.get("span_id")
        if not isinstance(span_id, str):
            continue
        if span_id in by_id:
            errors.append(f"{lineno}: duplicate span_id {span_id!r} "
                          f"(first at line {by_id[span_id][0]})")
        else:
            by_id[span_id] = (lineno, span)

    traces: dict[str, list[tuple[int, dict]]] = {}
    for lineno, span in spans:
        trace_id = span.get("trace_id")
        if isinstance(trace_id, str):
            traces.setdefault(trace_id, []).append((lineno, span))

    for lineno, span in spans:
        t_start, t_end = span.get("t_start"), span.get("t_end")
        if (isinstance(t_start, NUM) and isinstance(t_end, NUM)
                and t_end < t_start):
            errors.append(f"{lineno}: span {span.get('span_id')!r} has "
                          f"t_end {t_end} < t_start {t_start}")
        parent_id = span.get("parent_id")
        if not isinstance(parent_id, str) or parent_id == "":
            continue  # root (or already reported as a type error)
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(f"{lineno}: span {span.get('span_id')!r} parent "
                          f"{parent_id!r} not found")
            continue
        parent_lineno, parent_span = parent
        if parent_lineno >= lineno:
            errors.append(f"{lineno}: span {span.get('span_id')!r} appears "
                          f"before its parent (line {parent_lineno})")
        if parent_span.get("trace_id") != span.get("trace_id"):
            errors.append(f"{lineno}: span {span.get('span_id')!r} parent "
                          f"belongs to trace "
                          f"{parent_span.get('trace_id')!r}")
        parent_start = parent_span.get("t_start")
        if (isinstance(t_start, NUM) and isinstance(parent_start, NUM)
                and t_start < parent_start):
            errors.append(f"{lineno}: span {span.get('span_id')!r} starts "
                          f"at {t_start}, before its parent "
                          f"({parent_start})")

    for trace_id, members in traces.items():
        roots = [s for _, s in members if s.get("parent_id") == ""]
        if len(roots) != 1:
            errors.append(f"trace {trace_id!r} has {len(roots)} root spans, "
                          "expected exactly 1")
        last_lineno, last = members[-1]
        for lineno, span in members:
            terminal = span.get("stage") in TERMINAL_STAGES
            if terminal and lineno != last_lineno:
                errors.append(f"{lineno}: terminal span "
                              f"{span.get('span_id')!r} is not the last "
                              f"span of trace {trace_id!r}")
        if last.get("stage") not in TERMINAL_STAGES:
            errors.append(f"trace {trace_id!r} does not end in a terminal "
                          f"span (last stage {last.get('stage')!r} at line "
                          f"{last_lineno})")


def check_evidence(evidence: list[tuple[int, dict]],
                   spans: list[tuple[int, dict]],
                   errors: list[str]) -> None:
    """Group-level flight-recorder checks: bundle <-> span linkage,
    tick sequencing, per-attribute field families, tick-in-lifetime."""
    # Span episode extents: root t_start and latest t_end per trace_id.
    episodes: dict[str, dict] = {}
    for _, span in spans:
        trace_id = span.get("trace_id")
        if not isinstance(trace_id, str):
            continue
        info = episodes.setdefault(
            trace_id, {"vm": span.get("vm"), "root_start": None,
                       "end": None})
        if span.get("parent_id") == "" and isinstance(
                span.get("t_start"), NUM):
            info["root_start"] = span["t_start"]
        t_end = span.get("t_end")
        if isinstance(t_end, NUM):
            info["end"] = (t_end if info["end"] is None
                           else max(info["end"], t_end))

    groups: dict[str, list[tuple[int, dict]]] = {}
    for lineno, obj in evidence:
        trace_id = obj.get("trace_id")
        if isinstance(trace_id, str):
            groups.setdefault(trace_id, []).append((lineno, obj))

    for trace_id, members in groups.items():
        bundles = [(l, o) for l, o in members if o.get("kind") == "bundle"]
        if len(bundles) != 1:
            errors.append(f"evidence group {trace_id!r} has "
                          f"{len(bundles)} bundle records, expected "
                          "exactly 1")
            continue
        blineno, bundle = bundles[0]
        episode = episodes.get(trace_id)
        if episode is None:
            errors.append(f"{blineno}: evidence bundle {trace_id!r} has "
                          "no matching span episode")
        elif episode["vm"] != bundle.get("vm"):
            errors.append(f"{blineno}: bundle vm {bundle.get('vm')!r} != "
                          f"span episode vm {episode['vm']!r}")
        attrs = bundle.get("attributes")
        if attrs != ATTRIBUTE_COUNT:
            errors.append(f"{blineno}: bundle attributes {attrs!r}, "
                          f"expected {ATTRIBUTE_COUNT} "
                          "(the monitoring vector)")
        if isinstance(attrs, int):
            for i in range(attrs):
                if not isinstance(bundle.get(f"attr{i}"), str):
                    errors.append(f"{blineno}: bundle missing attribute "
                                  f"name attr{i}")

        ticks = [(l, o) for l, o in members if o.get("kind") == "tick"]
        expected = bundle.get("ticks")
        if isinstance(expected, int) and len(ticks) != expected:
            errors.append(f"{blineno}: bundle declares {expected} ticks, "
                          f"trace has {len(ticks)}")
        pre_ticks = bundle.get("pre_ticks")
        for idx, (lineno, tick) in enumerate(ticks):
            if tick.get("seq") != idx:
                errors.append(f"{lineno}: tick seq {tick.get('seq')!r}, "
                              f"expected {idx}")
            if isinstance(attrs, int):
                for family in ("raw", "bin", "mode", "impact", "modep"):
                    count = sum(1 for key in tick
                                if key.startswith(family)
                                and key[len(family):].isdigit())
                    if count != attrs:
                        errors.append(f"{lineno}: tick has {count} "
                                      f"{family}<i> fields, expected "
                                      f"{attrs}")
            phase = tick.get("phase")
            if isinstance(pre_ticks, int) and phase in EVIDENCE_TICK_PHASES:
                if (idx < pre_ticks) != (phase == "pre"):
                    errors.append(f"{lineno}: tick {idx} phase {phase!r} "
                                  f"inconsistent with pre_ticks "
                                  f"{pre_ticks}")
            t = tick.get("t")
            if episode is None or not isinstance(t, NUM):
                continue
            root, end = episode["root_start"], episode["end"]
            # Reactive-opened episodes open *after* the driver records
            # the current tick, so the opening tick legitimately lands
            # in the pre-context with t == root start.
            if phase == "pre" and isinstance(root, NUM) and t > root:
                errors.append(f"{lineno}: pre tick at t={t} after the "
                              f"episode root start {root}")
            if (phase == "episode" and isinstance(root, NUM)
                    and isinstance(end, NUM) and not root <= t <= end):
                errors.append(f"{lineno}: episode tick at t={t} outside "
                              f"the span lifetime [{root}, {end}]")

        for lineno, diag in members:
            if diag.get("kind") != "diagnosis":
                continue
            count = diag.get("count")
            if not isinstance(count, int):
                continue
            for r in range(1, count + 1):
                if (not isinstance(diag.get(f"rank{r}_attr"), str)
                        or not isinstance(diag.get(f"rank{r}_impact"),
                                          NUM)):
                    errors.append(f"{lineno}: diagnosis missing "
                                  f"rank{r}_attr/_impact pair")
                    break


def check_outcomes(spans: list[tuple[int, dict]],
                   counters: dict[str, float],
                   errors: list[str]) -> None:
    if not spans:
        errors.append("--require-outcomes: trace has no span records")
    derived = {name: 0 for name in SPAN_DERIVED_OUTCOMES}
    for _, span in spans:
        if span.get("stage") in TERMINAL_STAGES:
            outcome = span.get("outcome")
            if outcome not in derived:
                errors.append(f"terminal span {span.get('span_id')!r} has "
                              f"invalid outcome {outcome!r}")
            else:
                derived[outcome] += 1
    for name, expected in derived.items():
        metric = f"alert.outcome.{name}"
        actual = counters.get(metric)
        if actual is None:
            errors.append(f"--require-outcomes: missing {metric} counter")
        elif actual != expected:
            errors.append(f"{metric} counter is {actual}, but the spans "
                          f"derive {expected}")
    for metric in EXTRA_OUTCOME_METRICS:
        if metric not in counters:
            errors.append(f"--require-outcomes: missing {metric} counter")


def validate(path: Path, require_stages: bool, require_outcomes: bool,
             require_calibration: bool = False,
             require_evidence: bool = False) -> list[str]:
    errors: list[str] = []
    run_id: str | None = None
    schema: int | None = None
    stage_counts: dict[str, float] = {}
    counters: dict[str, float] = {}
    spans: list[tuple[int, dict]] = []
    calibrations: list[tuple[int, dict]] = []
    evidence: list[tuple[int, dict]] = []
    lines = path.read_text().splitlines()
    if not lines:
        return ["1: empty trace (expected a run header)"]
    for lineno, line in enumerate(lines, start=1):
        not_precision17: list[str] = []
        try:
            obj = json.loads(
                line, parse_float=lambda token: parse_precision17(
                    token, not_precision17))
        except json.JSONDecodeError as e:
            errors.append(f"{lineno}: invalid JSON: {e}")
            continue
        for token in not_precision17:
            errors.append(f"{lineno}: number {token} is not its value's "
                          f"%.17g ({'%.17g' % float(token)})")
        if not isinstance(obj, dict):
            errors.append(f"{lineno}: expected a JSON object")
            continue
        if lineno == 1:
            if obj.get("record") != "run":
                errors.append("1: first record must be the run header")
            elif obj.get("schema") not in SUPPORTED_SCHEMAS:
                errors.append(f"1: schema {obj.get('schema')!r}, expected "
                              f"one of {SUPPORTED_SCHEMAS}")
            else:
                run_id = obj.get("run_id")
                schema = obj.get("schema")
        elif obj.get("record") == "run":
            errors.append(f"{lineno}: duplicate run header")
        check_record(obj, lineno, errors, run_id)
        if obj.get("record") == "span":
            if schema == 1:
                errors.append(f"{lineno}: span record in a schema-1 trace")
            spans.append((lineno, obj))
        if obj.get("record") in ("calibration", "model_drift"):
            if schema is not None and schema < 3:
                errors.append(f"{lineno}: {obj['record']} record in a "
                              f"schema-{schema} trace")
            if obj.get("record") == "calibration":
                calibrations.append((lineno, obj))
        if obj.get("record") == "episode_evidence":
            if schema is not None and schema < 4:
                errors.append(f"{lineno}: episode_evidence record in a "
                              f"schema-{schema} trace")
            evidence.append((lineno, obj))
        if obj.get("record") == "histogram":
            name = obj.get("name")
            count = obj.get("count")
            if isinstance(name, str) and isinstance(count, NUM):
                stage_counts[name] = count
        if obj.get("record") == "metric" and obj.get("type") == "counter":
            name = obj.get("name")
            value = obj.get("value")
            if isinstance(name, str) and isinstance(value, NUM):
                counters[name] = value
    check_spans(spans, errors)
    check_evidence(evidence, spans, errors)
    if require_stages:
        for stage in PIPELINE_STAGES:
            name = f"stage.{stage}.seconds"
            if name not in stage_counts:
                errors.append(f"trace has no {name} histogram")
            elif stage_counts[name] <= 0:
                errors.append(f"{name} histogram is empty")
    if require_outcomes:
        check_outcomes(spans, counters, errors)
    if require_calibration:
        if not calibrations:
            errors.append("--require-calibration: trace has no "
                          "calibration records")
        if "model.calibration.samples_total" not in counters:
            errors.append("--require-calibration: missing "
                          "model.calibration.samples_total counter")
        bin_counters = [name for name in counters
                        if name.startswith("model.calibration.reliability."
                                           "bin")]
        if not bin_counters:
            errors.append("--require-calibration: missing "
                          "model.calibration.reliability.bin<b>.* counters")
    if require_evidence:
        if not any(o.get("kind") == "bundle" for _, o in evidence):
            errors.append("--require-evidence: trace has no "
                          "episode_evidence bundle records")
        for metric in ("recorder.bundles_total", "recorder.dropped_total"):
            if metric not in counters:
                errors.append(f"--require-evidence: missing {metric} "
                              "counter")
    return errors


def main(argv: list[str]) -> int:
    flags = {"--require-stages", "--require-outcomes",
             "--require-calibration", "--require-evidence"}
    args = [a for a in argv[1:] if a not in flags]
    require_stages = "--require-stages" in argv[1:]
    require_outcomes = "--require-outcomes" in argv[1:]
    require_calibration = "--require-calibration" in argv[1:]
    require_evidence = "--require-evidence" in argv[1:]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(f"usage: {argv[0]} FILE.jsonl [--require-stages] "
              "[--require-outcomes] [--require-calibration] "
              "[--require-evidence]",
              file=sys.stderr)
        return 2
    path = Path(args[0])
    if not path.is_file():
        print(f"{path}: no such file", file=sys.stderr)
        return 1
    errors = validate(path, require_stages, require_outcomes,
                      require_calibration, require_evidence)
    for error in errors:
        print(f"{path}:{error}")
    if not errors:
        print(f"{path}: OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
