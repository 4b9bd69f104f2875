"""Span tracing around the public functions of each `threatfix` layer.

The tracer replaces each function at the name its caller looks it up
(`engine.witnesses`, `cli.parse_model`, `SolverStack.add`, ...), so the
program under test is not edited.  Spans (name, start, end, parent, request
id) stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover and minus the tracer's own bookkeeping
inside it (counting clauses and variables happens after the span closes and
is charged to nobody).
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "request", "start", "end", "covered", "counts")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.covered = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[Span] = []

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count(args, result)` adds counters."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.request)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, return_value)
            if parent is not None:
                parent.covered += perf_counter() - span.start
            return return_value

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "request": s.request,
                    "parent": index[id(s.parent)] if s.parent else None,
                    "start": s.start, "end": s.end, "self": s.self_time,
                    **({"counts": s.counts} if s.counts else {}),
                }) + "\n")


def _live_vars(args, result):
    clauses, num_vars = args[0], args[1]
    live = {abs(lit) for clause in clauses for lit in clause}
    return {"clauses_in": len(clauses), "vars_in": num_vars, "live_vars": len(live)}


def _targets():
    """(span name, owner object, attribute, counter) for every wrapped function."""
    from threatfix import cli, encoder, engine, sat, semantics
    return [
        ("cli.main", cli, "main", None),
        ("model.parse_model", cli, "parse_model", None),
        ("model.load_costs", cli, "load_costs", None),
        ("dsl.parse_rules", cli, "parse_rules", None),
        ("engine.check", engine, "check", None),
        ("engine.repair", engine, "repair", None),
        ("semantics.witnesses", engine, "witnesses",
         lambda a, r: {"witnesses_out": len(r)}),
        ("semantics.paths", semantics, "enumerate_paths",
         lambda a, r: {"paths_out": len(r)}),
        ("encoder.paths", encoder, "enumerate_paths",
         lambda a, r: {"paths_out": len(r)}),
        ("encoder.init", encoder.Grounder, "__init__", None),
        ("encoder.ground", encoder.Grounder, "ground",
         lambda a, r: {"clauses_out": len(r)}),
        ("sat.solve", sat, "solve_clauses", _live_vars),
        ("sat.bound", sat, "weighted_bound_clauses",
         lambda a, r: {"bound_clauses": len(r[0])}),
        ("sat.maxsat", sat.SolverStack, "max_solve", None),
        ("sat.add", sat.SolverStack, "add", None),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for name, owner, attr, count in _targets():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(spans: list[Span], scale=None) -> dict[str, float]:
    """Per-layer sums over all spans: self times in s, plus counters.

    `sat.maxsat_s` is inclusive (everything under `SolverStack.max_solve`);
    every other `_s` metric is self time.  `scale` maps a request id to a
    factor applied to the times of its spans.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    maxsat_total = 0.0
    maxsat_solves = 0
    for s in spans:
        w = scale[s.request] if scale else 1.0
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_time * w
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in (s.counts or {}).items():
            counts[s.name + "." + key] = counts.get(s.name + "." + key, 0) + value
        if s.name == "sat.maxsat":
            maxsat_total += s.duration * w
        elif s.name == "sat.solve":
            p = s.parent
            while p is not None and p.name != "sat.maxsat":
                p = p.parent
            maxsat_solves += p is not None

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(key):
        return counts.get(key, 0)

    vars_in = c("sat.solve.vars_in")
    return {
        "cli.self_s": t("cli.main"),
        "model.parse_s": t("model.parse_model", "model.load_costs"),
        "dsl.parse_s": t("dsl.parse_rules"),
        "engine.self_s": t("engine.check", "engine.repair"),
        "encoder.init_s": t("encoder.init"),
        "encoder.grounders": calls.get("encoder.init", 0),
        "encoder.ground_s": t("encoder.ground"),
        "encoder.ground_calls": calls.get("encoder.ground", 0),
        "encoder.clauses_out": c("encoder.ground.clauses_out"),
        "encoder.paths_s": t("encoder.paths"),
        "encoder.paths_out": c("encoder.paths.paths_out"),
        "semantics.witness_s": t("semantics.witnesses"),
        "semantics.witnesses_out": c("semantics.witnesses.witnesses_out"),
        "semantics.paths_s": t("semantics.paths"),
        "semantics.paths_out": c("semantics.paths.paths_out"),
        "sat.solve_s": t("sat.solve"),
        "sat.solve_calls": calls.get("sat.solve", 0),
        "sat.clauses_in": c("sat.solve.clauses_in"),
        "sat.vars_in": vars_in,
        "sat.live_var_frac": c("sat.solve.live_vars") / vars_in if vars_in else 0.0,
        "sat.maxsat_s": maxsat_total,
        "sat.maxsat_self_s": t("sat.maxsat"),
        "sat.maxsat_solves": maxsat_solves,
        "sat.bound_s": t("sat.bound"),
        "sat.bound_clauses": c("sat.bound.bound_clauses"),
        "sat.add_s": t("sat.add"),
        "sat.add_calls": calls.get("sat.add", 0),
    }
