"""Detection and repair on top of the grounded encoding.

Every mode is built from two operations on one encoding session (a Grounder
plus a SolverStack):

- pinned check: does a formula hold with every cell pinned to a valuation?
- repair step: the cheapest valuation that makes a set of formulas false,
  costed from a given valuation.  A zero-cost change is kept only if needed.

check makes one pinned check per rule.  Exact repair (minimal_repair) runs
that detection, then one repair step over every rule in the same session;
unsat means no attribute change falsifies them all.  Partial repair
(partial_repair) first sets aside the matched rules that have no attribute
predicate and reports them unrepairable, with witnesses.
Heuristic repair (heuristic_partial_repair) takes the rules in file order
against an evolving valuation: a pinned check, a repair step for that rule
alone, and a pinned check that the fix re-triggers no settled rule.  Faster,
not optimal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Optional

from . import dsl
from .encoder import Grounder, render_wcnf, soft_weights
from .model import ModelError, SystemModel
from .sat import SAT, UNKNOWN, UNSAT, SolverStack
from .semantics import Path, Witness, evaluate, witnesses


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


class _Session:
    """One Grounder plus SolverStack; its two operations serve every mode."""

    def __init__(self, m: SystemModel, config: EngineConfig):
        self.m = m
        self.config = config
        self.grounder = Grounder(m)
        self.stack = SolverStack(seed=config.seed,
                                 conflict_budget=config.conflict_budget)
        self.stack.add(self.grounder.base_clauses)

    def holds(self, phi: dsl.Formula, valuation) -> str:
        """Pinned check: verdict of phi with every cell pinned to `valuation`."""
        stack = self.stack
        stack.push()
        stack.add(self.grounder.pin_clauses(valuation))
        stack.add(self.grounder.ground(phi))
        verdict = stack.solve()
        stack.pop()
        return verdict

    def falsify(self, formulas, valuation) -> tuple[str, Optional[dict]]:
        """Repair step: the cheapest valuation making every formula false.

        Costs are counted from `valuation`.  Returns the verdict and, when it
        is sat, the new valuation; a zero-cost change stays only if some
        formula needs it to remain false.
        """
        stack, grounder = self.stack, self.grounder
        stack.push()
        for phi in formulas:
            stack.add(grounder.ground(dsl.Not(phi)))
        for soft, weight in soft_weights(grounder.soft_assertions(valuation)):
            stack.add_soft([grounder.soft_clause(soft)], weight)
        verdict, _ = stack.max_solve()
        found = grounder.decode_valuation(stack.model()) if verdict == SAT else None
        stack.pop()
        if found is None:
            return verdict, None
        for key in sorted(found):
            old, new = valuation[key], found[key]
            if new == old or self.m.cost(*key, old, new) != 0:
                continue
            reverted = dict(found)
            reverted[key] = old
            trial = self.m.with_valuation(reverted)
            if not any(evaluate(trial, phi) for phi in formulas):
                found = reverted
        return verdict, found


def _changes_between(m: SystemModel, old: dict,
                     new: dict) -> tuple[tuple[Change, ...], Fraction]:
    """The changed cells in sorted order, and their total cost."""
    changes = []
    for key in sorted(old):
        if new[key] != old[key]:
            item, attr = key
            changes.append(Change(item, attr, old[key], new[key],
                                  m.cost(item, attr, old[key], new[key])))
    return tuple(changes), sum((c.cost for c in changes), Fraction(0))


def _detect(session: _Session, rules) -> CheckReport:
    """One pinned check per rule on the model's own valuation."""
    m, cap = session.m, session.config.max_witnesses
    results = []
    for rule in rules:
        verdict = session.holds(rule.formula, m.valuation)
        found: tuple[Witness, ...] = ()
        if verdict == SAT:
            found = witnesses(m, rule.formula, rule.name, cap=cap)
        results.append(RuleCheck(rule.name, verdict, found))
    return CheckReport(tuple(results))


def check(m: SystemModel, rules, config: EngineConfig = EngineConfig()) -> CheckReport:
    return _detect(_Session(m, config), rules)


def _joint_repair(m: SystemModel, rules, config: EngineConfig,
                  set_aside_structural: bool) -> RepairReport:
    """One repair step over all rules, minus those set aside as unrepairable."""
    rules = list(rules)
    session = _Session(m, config)
    detection = _detect(session, rules)
    if any(r.verdict == UNKNOWN for r in detection.results):
        return RepairReport(UNKNOWN, None, ())
    no_threat = tuple(r.rule for r in detection.results if not r.matched)
    excluded, keep = [], []   # excluded: matched, but no attribute predicate to act on
    for rule, result in zip(rules, detection.results):
        if result.matched:
            structural = set_aside_structural and not dsl.has_attr(rule.formula)
            (excluded if structural else keep).append(result)
    aside = tuple(r.rule for r in excluded)
    wits = {r.rule: r.witnesses for r in excluded}
    verdict, found = session.falsify(
        [rule.formula for rule in rules if rule.name not in aside], m.valuation)
    if verdict == UNKNOWN:
        return RepairReport(UNKNOWN, None, (), no_threat=no_threat,
                            unrepairable=aside, witnesses=wits)
    if verdict == UNSAT:
        wits.update((r.rule, r.witnesses) for r in keep)
        return RepairReport(UNSAT, None, (), no_threat=no_threat,
                            unrepairable=aside + tuple(r.rule for r in keep),
                            witnesses=wits)
    changes, total = _changes_between(m, m.valuation, found)
    return RepairReport(SAT, total, changes, no_threat=no_threat,
                        repaired=tuple(r.rule for r in keep), unrepairable=aside,
                        witnesses=wits)


def minimal_repair(m: SystemModel, rules,
                   config: EngineConfig = EngineConfig()) -> RepairReport:
    return _joint_repair(m, rules, config, set_aside_structural=False)


def partial_repair(m: SystemModel, rules,
                   config: EngineConfig = EngineConfig()) -> RepairReport:
    return _joint_repair(m, rules, config, set_aside_structural=True)


# verdict of "the candidate keeps every settled rule false" from the check of
# their disjunction
_KEEPS_SETTLED = {SAT: UNSAT, UNSAT: SAT, UNKNOWN: UNKNOWN}


def heuristic_partial_repair(m: SystemModel, rules,
                             config: EngineConfig = EngineConfig()) -> RepairReport:
    session = _Session(m, config)
    current = dict(m.valuation)
    no_threat: list[str] = []
    repaired: list[str] = []
    unrepairable: list[str] = []
    wits = {}
    saw_unknown = False
    settled: list[dsl.Formula] = []

    for rule in rules:
        verdict = session.holds(rule.formula, current)
        if verdict == UNSAT:
            no_threat.append(rule.name)
            settled.append(rule.formula)
            continue
        if verdict == SAT and dsl.has_attr(rule.formula):
            verdict, candidate = session.falsify([rule.formula], current)
            if verdict == SAT and settled:
                # the fix must not re-trigger an already settled rule
                verdict = _KEEPS_SETTLED[
                    session.holds(reduce(dsl.Or, settled), candidate)]
            if verdict == SAT:
                repaired.append(rule.name)
                settled.append(rule.formula)
                current = candidate
                continue
        if verdict == UNKNOWN:
            saw_unknown = True
            continue
        unrepairable.append(rule.name)
        wits[rule.name] = witnesses(m.with_valuation(current), rule.formula,
                                    rule.name, cap=config.max_witnesses)

    changes, total = _changes_between(m, m.valuation, current)
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
    weighted = [(grounder.soft_clause(s), weight)
                for s, weight in soft_weights(grounder.soft_assertions())]
    return render_wcnf(grounder.vt.next_var - 1, hard, weighted)
