"""Detection and repair on top of the grounded encoding.

Three repair strategies share one soft-assertion encoding:

- minimal_repair: every rule negated at once, one optimal solve.  Unsat means
  the rule set cannot be falsified by attribute changes alone.
- partial_repair: rules whose matches do not depend on attributes are set
  aside as unrepairable (with witnesses), the rest are repaired jointly.
- heuristic_partial_repair: rules are processed in file order against an
  evolving valuation; each candidate fix is kept only if it does not
  re-trigger a rule that was already settled.  Faster, not optimal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import dsl
from .encoder import Grounder, render_wcnf, scale_costs
from .model import ModelError, SystemModel
from .sat import SAT, UNKNOWN, UNSAT, SolverStack
from .semantics import Path, Witness, witnesses


@dataclass(frozen=True)
class EngineConfig:
    mode: str = "partial"
    conflict_budget: Optional[int] = None
    max_witnesses: int = 10
    seed: int = 0
    jobs: int = 1   # accepted for compatibility; rules are checked sequentially


@dataclass(frozen=True)
class Change:
    item: str
    attr: str
    old: str
    new: str
    cost: Fraction


@dataclass(frozen=True)
class RuleCheck:
    rule: str
    verdict: str  # sat / unsat / unknown
    witnesses: tuple[Witness, ...] = ()

    @property
    def matched(self) -> bool:
        return self.verdict == SAT


@dataclass(frozen=True)
class CheckReport:
    results: tuple[RuleCheck, ...]

    @property
    def status(self) -> str:
        if any(r.matched for r in self.results):
            return SAT
        if any(r.verdict == UNKNOWN for r in self.results):
            return UNKNOWN
        return UNSAT

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "rules": [
                {
                    "name": r.rule,
                    "matched": r.matched,
                    "verdict": r.verdict,
                    "witnesses": [_witness_json(w) for w in r.witnesses],
                }
                for r in self.results
            ],
        }


@dataclass(frozen=True)
class RepairReport:
    status: str  # sat / unsat / unknown
    total_cost: Optional[Fraction]
    changes: tuple[Change, ...]
    no_threat: tuple[str, ...] = ()
    repaired: tuple[str, ...] = ()
    unrepairable: tuple[str, ...] = ()
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "totalCost": cost_json(self.total_cost),
            "changes": [
                {
                    "item": c.item,
                    "attribute": c.attr,
                    "from": c.old,
                    "to": c.new,
                    "cost": cost_json(c.cost),
                }
                for c in self.changes
            ],
            "rules": {
                "noThreat": list(self.no_threat),
                "repaired": list(self.repaired),
                "unrepairable": [
                    {
                        "name": name,
                        "witnesses": [_witness_json(w)
                                      for w in self.witnesses.get(name, ())],
                    }
                    for name in self.unrepairable
                ],
            },
        }


def cost_json(cost: Optional[Fraction]):
    if cost is None:
        return None
    if cost.denominator == 1:
        return int(cost)
    return f"{cost.numerator}/{cost.denominator}"


def _witness_json(w: Witness) -> dict:
    out = {}
    for var, binding in w.bindings:
        if isinstance(binding, Path):
            out[var] = list(binding.connectors)
        else:
            out[var] = binding
    return out


def _new_stack(config: EngineConfig) -> SolverStack:
    return SolverStack(seed=config.seed, conflict_budget=config.conflict_budget)


def _changes_between(m: SystemModel, old: dict, new: dict) -> tuple[Change, ...]:
    out = []
    for key in sorted(old):
        if new[key] != old[key]:
            item, attr = key
            out.append(Change(item, attr, old[key], new[key],
                              m.cost(item, attr, old[key], new[key])))
    return tuple(out)


def _add_softs(stack: SolverStack, grounder: Grounder, valuation=None) -> None:
    softs = grounder.soft_assertions(valuation)
    scale = scale_costs([s.cost for s in softs])
    for s in softs:
        weight = int(s.cost * scale)
        if weight == 0:
            continue
        stack.add_soft([grounder.soft_clause(s)], weight)


def check(m: SystemModel, rules, config: EngineConfig = EngineConfig()) -> CheckReport:
    grounder = Grounder(m)
    stack = _new_stack(config)
    stack.add(grounder.base_clauses)
    stack.add(grounder.pin_clauses())
    results = []
    for rule in rules:
        stack.push()
        stack.add(grounder.ground(rule.formula))
        verdict = stack.solve()
        stack.pop()
        found: tuple[Witness, ...] = ()
        if verdict == SAT:
            found = witnesses(m, rule.formula, rule.name, cap=config.max_witnesses)
        results.append(RuleCheck(rule.name, verdict, found))
    return CheckReport(tuple(results))


def minimal_repair(m: SystemModel, rules,
                   config: EngineConfig = EngineConfig()) -> RepairReport:
    rules = list(rules)
    detection = check(m, rules, config)
    if any(r.verdict == UNKNOWN for r in detection.results):
        return RepairReport(UNKNOWN, None, ())
    unmatched = tuple(r.rule for r in detection.results if not r.matched)
    matched = tuple(r.rule for r in detection.results if r.matched)
    grounder = Grounder(m)
    stack = _new_stack(config)
    stack.add(grounder.base_clauses)
    for rule in rules:
        stack.add(grounder.ground(dsl.Not(rule.formula)))
    _add_softs(stack, grounder)
    verdict, _ = stack.max_solve()
    if verdict == UNKNOWN:
        return RepairReport(UNKNOWN, None, (), no_threat=unmatched)
    if verdict == UNSAT:
        wits = {r.rule: r.witnesses for r in detection.results if r.matched}
        return RepairReport(UNSAT, None, (), no_threat=unmatched,
                            unrepairable=matched, witnesses=wits)
    new_valuation = grounder.decode_valuation(stack.model())
    changes = _changes_between(m, m.valuation, new_valuation)
    total = sum((c.cost for c in changes), Fraction(0))
    return RepairReport(SAT, total, changes, no_threat=unmatched,
                        repaired=matched)


def partial_repair(m: SystemModel, rules,
                   config: EngineConfig = EngineConfig()) -> RepairReport:
    rules = list(rules)
    detection = check(m, rules, config)
    if any(r.verdict == UNKNOWN for r in detection.results):
        return RepairReport(UNKNOWN, None, ())
    unmatched = [r.rule for r in detection.results if not r.matched]
    matched = {r.rule: r for r in detection.results if r.matched}
    excluded = []   # matched, but no attribute predicate to act on
    wits = {}
    keep = []
    by_name = {rule.name: rule for rule in rules}
    for name, result in matched.items():
        if dsl.has_attr(by_name[name].formula):
            keep.append(name)
        else:
            excluded.append(name)
            wits[name] = result.witnesses
    grounder = Grounder(m)
    stack = _new_stack(config)
    stack.add(grounder.base_clauses)
    for rule in rules:
        if rule.name in excluded:
            continue
        stack.add(grounder.ground(dsl.Not(rule.formula)))
    _add_softs(stack, grounder)
    verdict, _ = stack.max_solve()
    if verdict == UNKNOWN:
        return RepairReport(UNKNOWN, None, (), no_threat=tuple(unmatched),
                            unrepairable=tuple(excluded), witnesses=wits)
    if verdict == UNSAT:
        for name in keep:
            wits[name] = matched[name].witnesses
        return RepairReport(UNSAT, None, (), no_threat=tuple(unmatched),
                            unrepairable=tuple(excluded + keep), witnesses=wits)
    new_valuation = grounder.decode_valuation(stack.model())
    changes = _changes_between(m, m.valuation, new_valuation)
    total = sum((c.cost for c in changes), Fraction(0))
    return RepairReport(SAT, total, changes, no_threat=tuple(unmatched),
                        repaired=tuple(keep), unrepairable=tuple(excluded),
                        witnesses=wits)


def heuristic_partial_repair(m: SystemModel, rules,
                             config: EngineConfig = EngineConfig()) -> RepairReport:
    rules = list(rules)
    grounder = Grounder(m)
    stack = _new_stack(config)
    stack.add(grounder.base_clauses)
    current = dict(m.valuation)
    no_threat: list[str] = []
    repaired: list[str] = []
    unrepairable: list[str] = []
    wits = {}
    saw_unknown = False
    settled_formulas: list = []

    def settled_disjunction():
        phi = settled_formulas[0]
        for extra in settled_formulas[1:]:
            phi = dsl.Or(phi, extra)
        return phi

    for rule in rules:
        snapshot = m.with_valuation(current)
        stack.push()
        stack.add(grounder.pin_clauses(current))
        stack.add(grounder.ground(rule.formula))
        verdict = stack.solve()
        stack.pop()
        if verdict == UNKNOWN:
            saw_unknown = True
            continue
        if verdict == UNSAT:
            no_threat.append(rule.name)
            settled_formulas.append(rule.formula)
            continue
        if not dsl.has_attr(rule.formula):
            unrepairable.append(rule.name)
            wits[rule.name] = witnesses(snapshot, rule.formula, rule.name,
                                        cap=config.max_witnesses)
            continue
        stack.push()
        stack.add(grounder.ground(dsl.Not(rule.formula)))
        _add_softs(stack, grounder, current)
        verdict, _ = stack.max_solve()
        if verdict != SAT:
            stack.pop()
            if verdict == UNKNOWN:
                saw_unknown = True
            else:
                unrepairable.append(rule.name)
                wits[rule.name] = witnesses(snapshot, rule.formula, rule.name,
                                            cap=config.max_witnesses)
            continue
        candidate = grounder.decode_valuation(stack.model())
        stack.pop()
        if settled_formulas:
            stack.push()
            stack.add(grounder.pin_clauses(candidate))
            stack.add(grounder.ground(settled_disjunction()))
            recheck = stack.solve()
            stack.pop()
            if recheck == UNKNOWN:
                saw_unknown = True
                continue
            if recheck == SAT:
                # the fix would re-trigger an already settled rule
                unrepairable.append(rule.name)
                wits[rule.name] = witnesses(snapshot, rule.formula, rule.name,
                                            cap=config.max_witnesses)
                continue
        repaired.append(rule.name)
        settled_formulas.append(rule.formula)
        current = candidate

    changes = _changes_between(m, m.valuation, current)
    total = sum((c.cost for c in changes), Fraction(0))
    status = UNKNOWN if saw_unknown else SAT
    return RepairReport(status, total, changes, no_threat=tuple(no_threat),
                        repaired=tuple(repaired), unrepairable=tuple(unrepairable),
                        witnesses=wits)


def repair(m: SystemModel, rules, config: EngineConfig = EngineConfig()) -> RepairReport:
    if config.mode == "exact":
        return minimal_repair(m, rules, config)
    if config.mode == "partial":
        return partial_repair(m, rules, config)
    if config.mode == "heuristic":
        return heuristic_partial_repair(m, rules, config)
    raise ValueError(f"unknown repair mode {config.mode!r}")


def apply_repair(m: SystemModel, changes) -> SystemModel:
    valuation = dict(m.valuation)
    for c in changes:
        if (c.item, c.attr) not in valuation:
            raise ModelError(f"change references unknown cell "
                             f"({c.item!r}, {c.attr!r})", identifier=c.item)
        valuation[(c.item, c.attr)] = c.new
    return m.with_valuation(valuation)


def repair_wcnf(m: SystemModel, rules) -> str:
    """Weighted DIMACS encoding of the joint repair problem."""
    grounder = Grounder(m)
    hard = list(grounder.base_clauses)
    for rule in rules:
        hard.extend(grounder.ground(dsl.Not(rule.formula)))
    softs = grounder.soft_assertions()
    scale = scale_costs([s.cost for s in softs])
    weighted = []
    for s in softs:
        weight = int(s.cost * scale)
        if weight == 0:
            continue
        weighted.append((grounder.soft_clause(s), weight))
    return render_wcnf(grounder.vt.next_var - 1, hard, weighted)
