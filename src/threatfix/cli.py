"""Command line front end.

Exit codes: 0 no threats / repair found, 1 threats present or repair
impossible, 2 usage or input errors, 3 solver budget exhausted.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import engine
from .dsl import DslError, parse_rules
from .model import ModelError, load_costs, parse_model
from .sat import SAT, UNKNOWN, UNSAT
from .semantics import Path
from .smtlib import emit_smtlib

_BUDGET_ENV = "THREATFIX_BUDGET"


@functools.cache   # built on first use, not at import, so importing stays cheap
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threatfix",
        description="detect and repair security threats in system models")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p, with_mode=False):
        p.add_argument("--model", required=True, help="system model JSON file")
        p.add_argument("--rules", required=True, help="threat rule file")
        p.add_argument("--costs", help="cost table CSV file")
        if with_mode:
            p.add_argument("--mode", choices=["exact", "partial", "heuristic"],
                           default="partial", help="repair strategy")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; rules are checked "
                            "sequentially")
        p.add_argument("--seed", type=int, default=0, help="solver seed")
        p.add_argument("--budget", type=int,
                       help=f"conflict budget (default from ${_BUDGET_ENV})")

    io_flags(sub.add_parser("check", help="report which rules match"))
    io_flags(sub.add_parser("repair", help="compute attribute repairs"),
             with_mode=True)
    io_flags(sub.add_parser("explain", help="list witnesses for matched rules"))

    export = sub.add_parser("export", help="write solver input files")
    export.add_argument("--model", required=True)
    export.add_argument("--rules", required=True)
    export.add_argument("--costs")
    export.add_argument("--smtlib", help="write an SMT-LIB encoding here")
    export.add_argument("--wcnf", help="write a weighted DIMACS encoding here")
    return parser


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ModelError(f"{path}: {exc}") from None


def _load(args):
    m = parse_model(_read(args.model))
    rules = parse_rules(_read(args.rules))
    if getattr(args, "costs", None):
        m = load_costs(m, _read(args.costs))
    return m, rules


def _budget(args) -> Optional[int]:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        raw = os.environ.get(_BUDGET_ENV)
        if raw is None:
            return None
        try:
            budget = int(raw)
        except ValueError:
            raise ModelError(f"invalid {_BUDGET_ENV} value {raw!r}")
        source = _BUDGET_ENV
    if budget < 0:
        raise ModelError(f"{source} must be at least 0, got {budget}")
    return budget


def _config(args, **fields) -> engine.EngineConfig:
    if args.jobs < 1:
        raise ModelError(f"--jobs must be at least 1, got {args.jobs}")
    return engine.EngineConfig(conflict_budget=_budget(args), seed=args.seed,
                               jobs=args.jobs, **fields)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _binding_text(binding) -> str:
    if isinstance(binding, Path):
        return "[" + ", ".join(binding.connectors) + "]"
    return binding


def _witness_lines(found, indent="  "):
    lines = []
    for w in found:
        parts = ", ".join(f"{var} = {_binding_text(b)}" for var, b in w.bindings)
        lines.append(f"{indent}witness: {parts}")
    return lines


def _check_text(report) -> str:
    lines = []
    for r in report.results:
        if r.verdict == SAT:
            lines.append(f"rule {r.rule}: threat found")
            lines.extend(_witness_lines(r.witnesses))
        elif r.verdict == UNKNOWN:
            lines.append(f"rule {r.rule}: unknown (budget exhausted)")
        else:
            lines.append(f"rule {r.rule}: no threat")
    return "\n".join(lines) + "\n"


def _repair_text(report) -> str:
    lines = [f"status: {report.status}"]
    if report.total_cost is not None:
        lines.append(f"total cost: {engine.cost_json(report.total_cost)}")
    for c in report.changes:
        lines.append(f"change: {c.item} {c.attr!r}: {c.old} -> {c.new} "
                     f"(cost {engine.cost_json(c.cost)})")
    if report.no_threat:
        lines.append("no threat: " + ", ".join(report.no_threat))
    if report.repaired:
        lines.append("repaired: " + ", ".join(report.repaired))
    for name in report.unrepairable:
        lines.append(f"unrepairable: {name}")
        lines.extend(_witness_lines(report.witnesses.get(name, ())))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# exit code by report status; a check's status ranks a match above unknown
_CHECK_EXITS = {SAT: 1, UNKNOWN: 3, UNSAT: 0}
_REPAIR_EXITS = {SAT: 0, UNKNOWN: 3, UNSAT: 1}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        m, rules = _load(args)
        if args.command == "export":
            if not args.smtlib and not args.wcnf:
                print("error: export needs --smtlib and/or --wcnf",
                      file=sys.stderr)
                return 2
            if args.smtlib:
                # render first, so that an error leaves no empty file behind
                text = emit_smtlib(m, rules, mode="check")
                with open(args.smtlib, "w", encoding="utf-8") as fh:
                    fh.write(text)
            if args.wcnf:
                with open(args.wcnf, "w", encoding="utf-8") as fh:
                    fh.write(engine.repair_wcnf(m, rules))
            return 0
        if args.command == "repair":
            report = engine.repair(m, rules, _config(args, mode=args.mode))
            render, exits = _repair_text, _REPAIR_EXITS
        else:   # check and explain
            report = engine.check(m, rules, _config(args))
            render, exits = _check_text, _CHECK_EXITS
        _emit(args, _json_text(report.to_json()) if args.format == "json"
              else render(report))
        return exits[report.status]
    except (ModelError, DslError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
