"""Propositional encoding of models and rules.

Attribute cells become one-hot variable blocks; fixed structure (types,
endpoints, containment, assets) is evaluated away while grounding.  Path
quantifiers in positive positions get the slot encoding: n-1 one-hot
connector slots plus a one-hot length selector, guarded by chaining and
acyclicity constraints (smtlib renders the SMT-LIB form of the same slots
on its own).  Negative positions are expanded over the model's concrete path
set instead, which keeps the encoding equivalent (the slot form is only
equisatisfiable, so it must not be negated).  CNF conversion is a
polarity-reduced Tseitin transform; its auxiliary variables are allocated
after the semantic ones.

Quantifiers are instantiated guard-first.  Each item quantifier, and each
path quantifier expanded over concrete paths, first evaluates its guards
(dsl.guards: the structural conjuncts of its body) on every candidate and
skips those that make a guard false.  A skipped body would fold to false and
be dropped by the disjunction anyway, so the clauses are unchanged.  A guard
on a path variable bound to a slot block is not structural and is not used.
Folding also stops once a result is decided: `or` returns true without
building its right side when its left side folds to true, and a quantifier
stops at its first true instance.  soft_weights turns change costs into
integer weights for the engine and both exporters.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from . import dsl
from .model import SystemModel, transitive_containment
from .semantics import Path, enumerate_paths

# -- propositional formula IR (negation normal form, constant folded) --------

TRUE = ("true",)
FALSE = ("false",)


def flit(lit: int):
    return ("lit", lit)


def fand(children) -> tuple:
    out = []
    for c in children:
        if c == FALSE:
            return FALSE
        if c == TRUE:
            continue
        if c[0] == "and":
            out.extend(c[1])
        else:
            out.append(c)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return ("and", tuple(out))


def for_(children) -> tuple:
    out = []
    for c in children:
        if c == TRUE:
            return TRUE
        if c == FALSE:
            continue
        if c[0] == "or":
            out.extend(c[1])
        else:
            out.append(c)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return ("or", tuple(out))


def fneg(f) -> tuple:
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if f[0] == "lit":
        return ("lit", -f[1])
    if f[0] == "and":
        return for_(fneg(c) for c in f[1])
    return fand(fneg(c) for c in f[1])


def const(value: bool) -> tuple:
    return TRUE if value else FALSE


# -- variable bookkeeping -----------------------------------------------------

@dataclass
class PathGroup:
    """Slot encoding for one positive path-quantifier instance."""
    var: str
    slots: dict[tuple[int, str], int]   # (slot index, connector id) -> sat var
    lens: dict[int, int]                # path length -> sat var


class VarTable:
    """Bijections from semantic objects to solver variables."""

    def __init__(self):
        self.attr: dict[tuple[str, str, str], int] = {}
        self.cells: list[tuple[str, str]] = []
        self.groups: list[PathGroup] = []
        self.next_var = 1

    def alloc(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v


def _exactly_one(lits: list[int]) -> list[list[int]]:
    clauses = [list(lits)]
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            clauses.append([-lits[i], -lits[j]])
    return clauses


@dataclass(frozen=True)
class SoftAssertion:
    """Keep cell (item, attr) away from `value`; violated by a repair to it."""
    item: str
    attr: str
    value: str
    cost: Fraction


class Grounder:
    """Encoding session for one model: variable table plus grounding state."""

    def __init__(self, m: SystemModel):
        self.m = m
        self.vt = VarTable()
        self.bstar = set(transitive_containment(m))
        self.held = set(m.asset_rel)
        self._paths: Optional[tuple[Path, ...]] = None
        self._guard_cache: dict[int, tuple] = {}   # id(quantifier) -> guards
        for item, attr in sorted(m.valuation):
            self.vt.cells.append((item, attr))
            for value in m.meta.attribute(attr).domain:
                self.vt.attr[(item, attr, value)] = self.vt.alloc()
        self.base_clauses: list[list[int]] = []
        for item, attr in self.vt.cells:
            domain = m.meta.attribute(attr).domain
            self.base_clauses.extend(_exactly_one(
                [self.vt.attr[(item, attr, v)] for v in domain]))

    def paths(self) -> tuple[Path, ...]:
        if self._paths is None:
            self._paths = enumerate_paths(self.m)
        return self._paths

    # -- model-side clauses ---------------------------------------------------

    def pin_clauses(self, valuation=None) -> list[list[int]]:
        """Unit clauses fixing every cell to its current value."""
        valuation = self.m.valuation if valuation is None else valuation
        return [[self.vt.attr[(item, attr, value)]]
                for (item, attr), value in sorted(valuation.items())]

    def soft_assertions(self, valuation=None) -> list[SoftAssertion]:
        """One keep-away assertion per cell and non-current value."""
        valuation = self.m.valuation if valuation is None else valuation
        out = []
        for item, attr in self.vt.cells:
            current = valuation[(item, attr)]
            for value in self.m.meta.attribute(attr).domain:
                if value != current:
                    out.append(SoftAssertion(
                        item, attr, value, self.m.cost(item, attr, current, value)))
        return out

    def soft_clause(self, assertion: SoftAssertion) -> list[int]:
        return [-self.vt.attr[(assertion.item, assertion.attr, assertion.value)]]

    # -- grounding ----------------------------------------------------------

    def _path_group(self) -> tuple[PathGroup, tuple]:
        """Fresh slot block and its validity constraints (as an IR conjunct)."""
        m = self.m
        n = len(m.elements)
        group = PathGroup("", {}, {})
        for i in range(1, n):
            for c in m.connectors:
                group.slots[(i, c)] = self.vt.alloc()
        for k in range(1, n):
            group.lens[k] = self.vt.alloc()
        self.vt.groups.append(group)

        def at_least(i: int):
            if i <= 1:
                return TRUE
            return for_(flit(group.lens[k]) for k in range(i, n))

        parts = []
        for i in range(1, n):
            slot_lits = [group.slots[(i, c)] for c in m.connectors]
            for clause in _exactly_one(slot_lits):
                parts.append(for_(flit(x) for x in clause))
        for clause in _exactly_one([group.lens[k] for k in range(1, n)]):
            parts.append(for_(flit(x) for x in clause))
        for i in range(2, n):
            # active slots chain target to source
            for c in m.connectors:
                successors = for_(flit(group.slots[(i, d)]) for d in m.connectors
                                  if m.source[d] == m.target[c])
                parts.append(for_([fneg(at_least(i)),
                                   flit(-group.slots[(i - 1, c)]), successors]))
        for i in range(1, n):
            # an active slot never revisits an element seen at or before it
            for j in range(1, i + 1):
                for c in m.connectors:
                    for d in m.connectors:
                        if m.target[c] != m.source[d]:
                            continue
                        if j == i and c != d:
                            continue   # distinct connectors on one slot: impossible
                        parts.append(for_([fneg(at_least(i)),
                                           flit(-group.slots[(i, c)]),
                                           flit(-group.slots[(j, d)])]))
        return group, fand(parts)

    def _build(self, phi: dsl.Formula, env: dict, positive: bool) -> tuple:
        m = self.m
        if isinstance(phi, dsl.TypeIs):
            return const(m.type_of[env[phi.var]] == phi.type_name)
        if isinstance(phi, dsl.ValIs):
            key = (env[phi.var], phi.attr, phi.value)
            if key in self.vt.attr:
                return flit(self.vt.attr[key])
            return FALSE   # inapplicable attribute or out-of-domain value
        if isinstance(phi, dsl.SrcIs):
            return const(m.source[env[phi.conn]] == env[phi.elem])
        if isinstance(phi, dsl.TgtIs):
            return const(m.target[env[phi.conn]] == env[phi.elem])
        if isinstance(phi, dsl.Connects):
            c = env[phi.conn]
            e = env[phi.elem]
            return const(m.source[c] == e or m.target[c] == e)
        if isinstance(phi, dsl.Crosses):
            c = env[phi.conn]
            b = env[phi.boundary]
            return const(((b, m.source[c]) in self.bstar)
                         != ((b, m.target[c]) in self.bstar))
        if isinstance(phi, dsl.Contained):
            return const((env[phi.boundary], env[phi.inner]) in self.bstar)
        if isinstance(phi, dsl.Holds):
            return const((env[phi.holder], env[phi.asset]) in self.held)
        if isinstance(phi, dsl.PathSrcIs):
            bound = env[phi.path]
            if isinstance(bound, Path):
                return const(m.source[bound.connectors[0]] == env[phi.elem])
            return for_(flit(bound.slots[(1, c)]) for c in m.connectors
                        if m.source[c] == env[phi.elem])
        if isinstance(phi, dsl.PathTgtIs):
            bound = env[phi.path]
            if isinstance(bound, Path):
                return const(m.target[bound.connectors[-1]] == env[phi.elem])
            n = len(m.elements)
            return for_(
                fand([flit(bound.lens[k]),
                      for_(flit(bound.slots[(k, c)]) for c in m.connectors
                           if m.target[c] == env[phi.elem])])
                for k in range(1, n))
        if isinstance(phi, dsl.InPath):
            bound = env[phi.path]
            item = env[phi.item]
            if isinstance(bound, Path):
                elems = {m.source[bound.connectors[0]]}
                elems.update(m.target[c] for c in bound.connectors)
                return const(item in bound.connectors or item in elems)
            n = len(m.elements)
            branches = []
            for i in range(1, n):
                hits = [c for c in m.connectors
                        if c == item or m.source[c] == item or m.target[c] == item]
                here = for_(flit(bound.slots[(i, c)]) for c in hits)
                active = for_(flit(bound.lens[k]) for k in range(i, n))
                branches.append(fand([active, here]))
            return for_(branches)
        if isinstance(phi, dsl.Not):
            return fneg(self._build(phi.body, env, not positive))
        if isinstance(phi, dsl.Or):
            left = self._build(phi.left, env, positive)
            if left == TRUE:
                return TRUE
            return for_([left, self._build(phi.right, env, positive)])
        if isinstance(phi, dsl.ExistsItem):
            return self._exists(phi, m.items_of_sort(phi.sort), env, positive)
        if isinstance(phi, dsl.ExistsPath):
            if len(m.elements) <= 1 or not m.connectors:
                return FALSE
            if positive:
                group, valid = self._path_group()
                group.var = phi.var
                env[phi.var] = group
                body = self._build(phi.body, env, positive)
                del env[phi.var]
                return fand([valid, body])
            return self._exists(phi, self.paths(), env, positive)
        raise dsl.DslError(f"not a formula node: {phi!r}")

    def _guards(self, q, env: dict) -> list:
        """dsl.guards of q, except those on a path variable bound to slots."""
        entry = self._guard_cache.get(id(q))
        if entry is None:
            # the entry holds q, so no other node can reuse its id meanwhile
            entry = (q, [(g, dsl.free_vars(g) - {q.var}) for g in dsl.guards(q)])
            self._guard_cache[id(q)] = entry
        return [g for g, others in entry[1]
                if not any(isinstance(env[v], PathGroup) for v in others)]

    def _exists(self, q, domain, env: dict, positive: bool) -> tuple:
        """Disjunction of q's body over the candidates its guards admit."""
        guards = self._guards(q, env)
        branches = []
        for candidate in domain:
            env[q.var] = candidate
            if any(self._build(g, env, positive) == FALSE for g in guards):
                continue
            branch = self._build(q.body, env, positive)
            if branch == TRUE:
                branches = [TRUE]
                break
            branches.append(branch)
        env.pop(q.var, None)
        return for_(branches)

    def _to_clauses(self, f: tuple) -> list[list[int]]:
        clauses: list[list[int]] = []

        def lit_of(g: tuple) -> int:
            if g[0] == "lit":
                return g[1]
            v = self.vt.alloc()
            if g[0] == "and":
                for child in g[1]:
                    clauses.append([-v, lit_of(child)])
            else:
                clauses.append([-v] + [lit_of(child) for child in g[1]])
            return v

        if f == TRUE:
            return []
        if f == FALSE:
            return [[]]
        conjuncts = f[1] if f[0] == "and" else (f,)
        for c in conjuncts:
            if c[0] == "lit":
                clauses.append([c[1]])
            elif c[0] == "or":
                clauses.append([lit_of(child) for child in c[1]])
            else:
                clauses.append([lit_of(c)])
        return clauses

    def ground(self, phi: dsl.Formula) -> list[list[int]]:
        """Clauses asserting phi over the model's structure."""
        return self._to_clauses(self._build(phi, {}, True))

    # -- decoding -----------------------------------------------------------

    def decode_valuation(self, model: list[bool]) -> dict[tuple[str, str], str]:
        out = {}
        for item, attr in self.vt.cells:
            chosen = [v for v in self.m.meta.attribute(attr).domain
                      if model[self.vt.attr[(item, attr, v)]]]
            if len(chosen) != 1:
                raise ValueError(f"cell ({item!r}, {attr!r}) decodes to {chosen!r}")
            out[(item, attr)] = chosen[0]
        return out

    def decode_path(self, group: PathGroup, model: list[bool]) -> Path:
        k = [length for length, var in group.lens.items() if model[var]]
        if len(k) != 1:
            raise ValueError(f"path length decodes to {k!r}")
        conns = []
        for i in range(1, k[0] + 1):
            chosen = [c for c in self.m.connectors if model[group.slots[(i, c)]]]
            if len(chosen) != 1:
                raise ValueError(f"path slot {i} decodes to {chosen!r}")
            conns.append(chosen[0])
        return Path(tuple(conns))


def scale_costs(costs: Iterable[Fraction]) -> int:
    """Least common denominator turning all costs into integers."""
    scale = 1
    for c in costs:
        scale = lcm(scale, c.denominator)
    return scale


def soft_weights(softs: list[SoftAssertion]) -> list[tuple[SoftAssertion, int]]:
    """Integer weights: costs scaled by their LCD, zero-cost assertions dropped."""
    scale = scale_costs(s.cost for s in softs)
    return [(s, int(s.cost * scale)) for s in softs if s.cost != 0]


# -- WCNF rendering -----------------------------------------------------------

def render_wcnf(num_vars: int, hard: list[list[int]],
                soft: list[tuple[list[int], int]]) -> str:
    """Classic weighted DIMACS; hard clauses carry 1 + total soft weight."""
    top = 1 + sum(w for _, w in soft)
    lines = [f"p wcnf {num_vars} {len(hard) + len(soft)} {top}"]
    for clause in hard:
        lines.append(" ".join(str(x) for x in [top, *clause, 0]))
    for clause, weight in soft:
        lines.append(" ".join(str(x) for x in [weight, *clause, 0]))
    return "\n".join(lines) + "\n"
