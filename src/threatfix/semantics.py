"""Reference semantics for threat formulas.

Straightforward enumerative evaluation over a system model: paths are
enumerated explicitly, quantifiers loop over their sort, predicates look up
the model relations.  This module is the ground truth the SAT pipeline is
tested against, and it backs witness extraction and the exhaustive repair
oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Union

from . import dsl
from .model import SystemModel, transitive_containment


class OracleBoundError(ValueError):
    pass


@dataclass(frozen=True)
class Path:
    """Acyclic path, recorded as its connector id sequence (>= 1 connector)."""
    connectors: tuple[str, ...]


Binding = Union[str, Path]


@dataclass(frozen=True)
class Witness:
    rule: str
    bindings: tuple[tuple[str, Binding], ...]   # quantifier order, outermost first


def path_elements(m: SystemModel, path: Path) -> tuple[str, ...]:
    first = m.source[path.connectors[0]]
    return (first,) + tuple(m.target[c] for c in path.connectors)


def enumerate_paths(m: SystemModel) -> tuple[Path, ...]:
    """All acyclic paths, lexicographic by connector id sequence.

    A path alternates elements and connectors, consecutive connectors chain
    target to source, and the visited elements are pairwise distinct.
    """
    outgoing: dict[str, list[str]] = {e: [] for e in m.elements}
    for c in m.connectors:
        outgoing[m.source[c]].append(c)
    for conns in outgoing.values():
        conns.sort()
    found: list[Path] = []

    def extend(prefix: list[str], visited: set[str], at: str) -> None:
        for c in outgoing[at]:
            nxt = m.target[c]
            if nxt in visited:
                continue
            prefix.append(c)
            found.append(Path(tuple(prefix)))
            visited.add(nxt)
            extend(prefix, visited, nxt)
            visited.remove(nxt)
            prefix.pop()

    for e in m.elements:
        extend([], {e}, e)
    found.sort(key=lambda p: p.connectors)
    return tuple(found)


class _Ctx:
    """Model views shared across one evaluation: closure, assets, paths."""

    def __init__(self, m: SystemModel):
        self.m = m
        self.valuation: Mapping = m.valuation
        self.bstar = set(transitive_containment(m))
        self.held = set(m.asset_rel)
        self._paths: Optional[tuple[Path, ...]] = None

    def paths(self) -> tuple[Path, ...]:
        if self._paths is None:
            self._paths = enumerate_paths(self.m)
        return self._paths


def _eval(ctx: _Ctx, phi: dsl.Formula, env: dict[str, Binding]) -> bool:
    m = ctx.m
    if isinstance(phi, dsl.TypeIs):
        return m.type_of[env[phi.var]] == phi.type_name
    if isinstance(phi, dsl.ValIs):
        # val on an inapplicable attribute is false, never an error
        return ctx.valuation.get((env[phi.var], phi.attr)) == phi.value
    if isinstance(phi, dsl.SrcIs):
        return m.source[env[phi.conn]] == env[phi.elem]
    if isinstance(phi, dsl.TgtIs):
        return m.target[env[phi.conn]] == env[phi.elem]
    if isinstance(phi, dsl.PathSrcIs):
        return m.source[env[phi.path].connectors[0]] == env[phi.elem]
    if isinstance(phi, dsl.PathTgtIs):
        return m.target[env[phi.path].connectors[-1]] == env[phi.elem]
    if isinstance(phi, dsl.InPath):
        path = env[phi.path]
        item = env[phi.item]
        return item in path.connectors or item in path_elements(m, path)
    if isinstance(phi, dsl.Connects):
        c = env[phi.conn]
        return m.source[c] == env[phi.elem] or m.target[c] == env[phi.elem]
    if isinstance(phi, dsl.Crosses):
        c = env[phi.conn]
        b = env[phi.boundary]
        return ((b, m.source[c]) in ctx.bstar) != ((b, m.target[c]) in ctx.bstar)
    if isinstance(phi, dsl.Contained):
        return (env[phi.boundary], env[phi.inner]) in ctx.bstar
    if isinstance(phi, dsl.Holds):
        return (env[phi.holder], env[phi.asset]) in ctx.held
    if isinstance(phi, dsl.Not):
        return not _eval(ctx, phi.body, env)
    if isinstance(phi, dsl.Or):
        return _eval(ctx, phi.left, env) or _eval(ctx, phi.right, env)
    if isinstance(phi, dsl.ExistsItem):
        for item in m.items_of_sort(phi.sort):
            env[phi.var] = item
            if _eval(ctx, phi.body, env):
                del env[phi.var]
                return True
        env.pop(phi.var, None)
        return False
    if isinstance(phi, dsl.ExistsPath):
        for path in ctx.paths():
            env[phi.var] = path
            if _eval(ctx, phi.body, env):
                del env[phi.var]
                return True
        env.pop(phi.var, None)
        return False
    raise dsl.DslError(f"not a formula node: {phi!r}")


def evaluate(m: SystemModel, phi: dsl.Formula,
             env: Optional[dict[str, Binding]] = None) -> bool:
    return _eval(_Ctx(m), phi, dict(env or {}))


def witnesses(m: SystemModel, phi: dsl.Formula, rule_name: str = "",
              cap: Optional[int] = None) -> tuple[Witness, ...]:
    """Satisfying bindings of the leading existential prefix.

    Enumeration is outermost-quantifier-major: items in identifier order,
    paths in enumerate_paths order.  Nonempty iff the formula evaluates true.
    Instantiation is guard-first: at each prefix quantifier, a candidate that
    makes one of the quantifier's dsl.guards false is skipped before anything
    inside it is bound.  Such a candidate has no satisfying extension, so the
    bindings that remain, and their order, are those of the full product.
    """
    ctx = _Ctx(m)
    out: list[Witness] = []
    env: dict[str, Binding] = {}
    bound: list[tuple[str, Binding]] = []
    guards_of: dict[int, tuple[dsl.Formula, ...]] = {}   # id(quantifier) -> guards

    def rec(phi: dsl.Formula) -> None:
        if cap is not None and len(out) >= cap:
            return
        if isinstance(phi, dsl.ExistsItem):
            domain: Iterable[Binding] = m.items_of_sort(phi.sort)
        elif isinstance(phi, dsl.ExistsPath):
            domain = ctx.paths()
        else:
            if _eval(ctx, phi, env):
                out.append(Witness(rule_name, tuple(bound)))
            return
        guards = guards_of.get(id(phi))
        if guards is None:
            guards = guards_of[id(phi)] = dsl.guards(phi)
        for candidate in domain:
            env[phi.var] = candidate
            if all(_eval(ctx, g, env) for g in guards):
                bound.append((phi.var, candidate))
                rec(phi.body)
                bound.pop()
                if cap is not None and len(out) >= cap:
                    break
        env.pop(phi.var, None)

    rec(phi)
    return tuple(out)


def brute_force_min_repair(
        m: SystemModel, formulas: Iterable[dsl.Formula],
        bound: int = 10 ** 6) -> Optional[tuple[Fraction, dict[tuple[str, str], str]]]:
    """Exhaustive minimum repair over all total valuations.

    Returns (cost, valuation) for the cheapest valuation falsifying every
    formula, ties broken by enumeration order (cells sorted by identifier,
    values in domain order), or None when no valuation works.  Raises
    OracleBoundError when the valuation space exceeds `bound`.
    """
    formulas = list(formulas)
    cells = sorted(m.valuation)
    domains = []
    changes = []   # per cell: change cost of each value of its domain
    space = 1
    for item, attr in cells:
        domain = m.meta.attribute(attr).domain
        domains.append(domain)
        space *= len(domain)
        if space > bound:
            raise OracleBoundError(
                f"valuation space exceeds the oracle bound of {bound}")
        old = m.valuation[(item, attr)]
        changes.append({new: m.cost(item, attr, old, new) if new != old else Fraction(0)
                        for new in domain})
    # sum candidate costs as integers, in units of the costs' common denominator
    scale = lcm(*(c.denominator for row in changes for c in row.values()))
    int_changes = [{v: int(c * scale) for v, c in row.items()} for row in changes]
    best: Optional[tuple[int, dict]] = None
    ctx = _Ctx(m)   # structure only; each candidate replaces the valuation
    for values in itertools.product(*domains):
        cost = sum(row[v] for row, v in zip(int_changes, values))
        if best is not None and cost >= best[0]:
            continue
        candidate = dict(zip(cells, values))
        ctx.valuation = candidate
        if all(not _eval(ctx, phi, {}) for phi in formulas):
            best = (cost, candidate)
    return None if best is None else (Fraction(best[0], scale), best[1])
