"""Output checks for one request, against the generator's expected answers.

Each function returns a list of problems; an empty list means the request
passed.  Reports are read as the JSON the CLI printed, so a change that keeps
the engine right but breaks rendering still fails here.
"""
from __future__ import annotations

import json
from fractions import Fraction

from generator import DOMAINS, Instance


def _load(out: str, problems: list[str]):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"report is not JSON: {exc}")
        return None


def _cost(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"cost {value!r} is neither an integer nor a fraction string")
    return Fraction(value)


def check_check(inst: Instance, code: int, out: str) -> list[str]:
    """`threatfix check --format json` against the expected verdicts."""
    problems: list[str] = []
    expected = {r.name: r.expected(inst.graph, inst.valuation) for r in inst.rules}
    want_code = 1 if any(expected.values()) else 0
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    report = _load(out, problems)
    if report is None:
        return problems
    names = [r.get("name") for r in report.get("rules", [])]
    if names != list(expected):
        return problems + [f"rules {names}, expected {list(expected)}"]
    for r in report["rules"]:
        if r.get("matched") is not expected[r["name"]]:
            problems.append(f"rule {r['name']}: matched={r.get('matched')!r}, "
                            f"expected {expected[r['name']]}")
        if bool(r.get("matched")) != bool(r.get("witnesses")):
            problems.append(f"rule {r['name']}: matched={r.get('matched')!r} "
                            f"with {len(r.get('witnesses') or ())} witnesses")
    return problems


def check_repair(inst: Instance, mode: str, code: int, out: str) -> list[str]:
    """`threatfix repair --format json` in `mode` against the generated instance.

    The generator guarantees a valuation that falsifies every rule with an
    attribute predicate, and no budget is set, so both modes must succeed.
    """
    problems: list[str] = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    report = _load(out, problems)
    if report is None:
        return problems
    if report.get("status") != "sat":
        problems.append(f"status {report.get('status')!r}, expected 'sat'")
    valuation = dict(inst.valuation)
    total = Fraction(0)
    try:
        for c in report.get("changes", []):
            cell = (c["item"], c["attribute"])
            if cell not in inst.valuation:
                problems.append(f"change to unknown cell {cell}")
                continue
            if c["from"] != inst.valuation[cell]:
                problems.append(f"change {cell} from {c['from']!r}, "
                                f"but the value is {inst.valuation[cell]!r}")
            if c["to"] not in DOMAINS[cell[1]] or c["to"] == c["from"]:
                problems.append(f"change {cell} to {c['to']!r} is not a new value")
            want = inst.cost(cell[0], cell[1], inst.valuation[cell], c["to"])
            if _cost(c["cost"]) != want:
                problems.append(f"change {cell} costs {c['cost']}, table says {want}")
            total += _cost(c["cost"])
            valuation[cell] = c["to"]
        if _cost(report.get("totalCost")) != total:
            problems.append(f"totalCost {report.get('totalCost')} != sum of "
                            f"change costs {total}")
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"malformed repair report: {exc!r}"]

    groups = report.get("rules", {})
    no_threat = list(groups.get("noThreat", []))
    repaired = list(groups.get("repaired", []))
    entries = groups.get("unrepairable", [])
    unrepairable = [u.get("name") for u in entries]
    by_name = {r.name: r for r in inst.rules}
    if sorted(no_threat + repaired + unrepairable) != sorted(by_name):
        return problems + [f"rule groups {no_threat} / {repaired} / {unrepairable} "
                           f"do not partition {sorted(by_name)}"]
    for name in no_threat + repaired:
        if by_name[name].expected(inst.graph, valuation):
            problems.append(f"rule {name} still matches after the repair")
    for u in entries:
        if not u.get("witnesses"):
            problems.append(f"unrepairable rule {u.get('name')} has no witnesses")
    if mode == "partial":
        before = {r.name: r.expected(inst.graph, inst.valuation) for r in inst.rules}
        want_no_threat = [n for n in by_name if not before[n]]
        want_excluded = [n for n in by_name if before[n] and not by_name[n].has_attr]
        if no_threat != want_no_threat:
            problems.append(f"noThreat {no_threat}, expected {want_no_threat}")
        if unrepairable != want_excluded:
            problems.append(f"unrepairable {unrepairable}, expected {want_excluded}")
    return problems


def check_pair(partial_out: str, heuristic_out: str) -> list[str]:
    """The optimal partial repair never costs more than the heuristic one
    when both leave the same rules unrepaired."""
    try:
        p, h = json.loads(partial_out), json.loads(heuristic_out)
        p_un = sorted(u["name"] for u in p["rules"]["unrepairable"])
        h_un = sorted(u["name"] for u in h["rules"]["unrepairable"])
        if p_un == h_un and _cost(p["totalCost"]) > _cost(h["totalCost"]):
            return [f"partial cost {p['totalCost']} > heuristic cost {h['totalCost']}"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return [f"cannot compare the repair pair: {exc!r}"]
    return []
