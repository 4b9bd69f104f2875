"""SMT-LIB2 export of models and rules.

Items, types, attribute names and values become enum datatypes; two names
that would export as one constructor symbol raise ModelError.  The fixed
structure (typing, endpoints, containment closure, asset holding) is asserted
pointwise.  Rules are rendered straight from the rule AST.  A path quantifier
over n elements binds connector slots p.1 .. p.n-1 and a length p.len in
1..n-1; each slot i <= p.len is guarded by acyclicity (its target is no
source of slots 1..i) and, from slot 2 on, chaining (the previous slot's
target is its source).  tgt(p) is a disjunction over the lengths, and
`x in p` reads a slot itself for a connector x, its endpoints for an element.
Mode "check" pins every attribute cell to its current value and asserts every
rule positively in one context; an outermost item quantifier's body carries a
`:weight 0` annotation.  Mode "repair" keeps cells open inside their validity
disjunction, asserts each rule negated, and adds weighted assert-soft lines
for the change costs.  Output is byte-deterministic for a given model and
rule list.
"""
from __future__ import annotations

from . import dsl
from .encoder import Grounder, soft_weights
from .model import (ASSET, BOUNDARY, CONNECTOR, ELEMENT, ModelError, SystemModel,
                    transitive_containment)

_ID_SORT = {ELEMENT: "ElemId", CONNECTOR: "ConnId", ASSET: "AssetId", BOUNDARY: "BoundId"}
_TYPE_SORT = {ELEMENT: "ElemType", CONNECTOR: "ConnType", ASSET: "AssetType",
              BOUNDARY: "BoundType"}
_ATTR_FUN = {ELEMENT: "elem-attr", CONNECTOR: "conn-attr", ASSET: "asset-attr",
             BOUNDARY: "bound-attr"}
_TYPE_FUN = {ELEMENT: "elem-type", CONNECTOR: "conn-type", ASSET: "asset-type",
             BOUNDARY: "bound-type"}


def _sym(text: str) -> str:
    safe = text.replace("|", "_").replace("\\", "_")
    return f"|{safe}|"


def _type_sym(name: str) -> str:
    return _sym(f"t.{name}")


def _value_sym(value: str) -> str:
    return _sym(f"v.{value}")


def _attr_sym(name: str) -> str:
    return _sym(f"a.{name}")


def _any(disjuncts) -> str:
    parts = list(disjuncts)
    return f"(or {' '.join(parts)})" if parts else "false"


class _Emitter:
    def __init__(self, m: SystemModel, mode: str):
        if mode not in ("check", "repair"):
            raise ValueError(f"unknown SMT-LIB mode {mode!r}")
        self.m = m
        self.mode = mode
        self.lines: list[str] = []
        self.kinds_present = {kind for kind in _ID_SORT if m.items_of_sort(kind)}
        self.bstar = set(transitive_containment(m))
        values: list[str] = []
        for attr in m.meta.attributes:
            for v in attr.domain:
                if v not in values:
                    values.append(v)
        sentinel = "NoValue"
        while sentinel in values:
            sentinel += "_"
        self.sentinel = sentinel
        self.values = values
        self.has_attrs = bool(m.meta.attributes)
        self.slots = range(1, len(m.elements))   # connector slots of a path quantifier
        self.owners: dict[str, str] = {}         # constructor symbol -> what it names

    def out(self, line: str) -> None:
        self.lines.append(line)

    # -- declarations ---------------------------------------------------------

    def _enum(self, sort: str, constructors: list[tuple[str, str]]) -> None:
        """Declare an enum datatype from (symbol, what it names) pairs."""
        for symbol, name in constructors:
            owner = self.owners.setdefault(symbol, name)
            if owner != name:
                raise ModelError(f"{owner} and {name} both export as SMT-LIB "
                                 f"symbol {symbol}")
        body = " ".join(f"({c})" for c, _ in constructors)
        self.out(f"(declare-datatypes (({sort} 0)) (({body})))")

    def declare(self) -> None:
        m = self.m
        for kind in (ELEMENT, CONNECTOR, ASSET, BOUNDARY):
            items = m.items_of_sort(kind)
            if items:
                self._enum(_ID_SORT[kind], [(_sym(i), f"{kind} {i!r}") for i in items])
                kind_types = {ELEMENT: m.meta.element_types,
                              CONNECTOR: m.meta.connector_types,
                              ASSET: m.meta.asset_types,
                              BOUNDARY: m.meta.boundary_types}[kind]
                self._enum(_TYPE_SORT[kind], [(_type_sym(t), f"{kind} type {t!r}")
                                              for t in kind_types])
                self.out(f"(declare-fun {_TYPE_FUN[kind]} ({_ID_SORT[kind]}) "
                         f"{_TYPE_SORT[kind]})")
                for i in items:
                    self.out(f"(assert (= ({_TYPE_FUN[kind]} {_sym(i)}) "
                             f"{_type_sym(m.type_of[i])}))")
        if CONNECTOR in self.kinds_present:
            self.out("(declare-fun src (ConnId) ElemId)")
            self.out("(declare-fun tgt (ConnId) ElemId)")
            for c in m.connectors:
                self.out(f"(assert (= (src {_sym(c)}) {_sym(m.source[c])}))")
                self.out(f"(assert (= (tgt {_sym(c)}) {_sym(m.target[c])}))")
        if BOUNDARY in self.kinds_present:
            for kind, fun in ((ELEMENT, "contains-elem"), (BOUNDARY, "contains-bound")):
                if kind not in self.kinds_present:
                    continue
                self.out(f"(declare-fun {fun} (BoundId {_ID_SORT[kind]}) Bool)")
                for b in m.boundaries:
                    for x in m.items_of_sort(kind):
                        fact = f"({fun} {_sym(b)} {_sym(x)})"
                        if (b, x) not in self.bstar:
                            fact = f"(not {fact})"
                        self.out(f"(assert {fact})")
        if ASSET in self.kinds_present:
            held = set(m.asset_rel)
            for kind, fun in ((ELEMENT, "holds-elem"), (CONNECTOR, "holds-conn")):
                if kind not in self.kinds_present:
                    continue
                self.out(f"(declare-fun {fun} ({_ID_SORT[kind]} AssetId) Bool)")
                for x in m.items_of_sort(kind):
                    for a in m.assets:
                        fact = f"({fun} {_sym(x)} {_sym(a)})"
                        if (x, a) not in held:
                            fact = f"(not {fact})"
                        self.out(f"(assert {fact})")
        if self.has_attrs:
            self._enum("AttrName", [(_attr_sym(a.name), f"attribute {a.name!r}")
                                    for a in self.m.meta.attributes])
            self._enum("AttrVal",
                       [(_value_sym(v), f"value {v!r}") for v in self.values]
                       + [(_value_sym(self.sentinel), f"no-value marker {self.sentinel!r}")])
            for kind in (ELEMENT, CONNECTOR, ASSET, BOUNDARY):
                if kind in self.kinds_present:
                    self.out(f"(declare-fun {_ATTR_FUN[kind]} ({_ID_SORT[kind]} AttrName) "
                             f"AttrVal)")

    def attribute_constraints(self) -> None:
        m = self.m
        if not self.has_attrs:
            return
        for kind in (ELEMENT, CONNECTOR, ASSET, BOUNDARY):
            for item in m.items_of_sort(kind):
                fun = _ATTR_FUN[kind]
                for attr in m.meta.attributes:
                    cell = f"({fun} {_sym(item)} {_attr_sym(attr.name)})"
                    if (item, attr.name) in m.valuation:
                        if self.mode == "check":
                            # pinned to the current value
                            self.out(f"(assert (= {cell} "
                                     f"{_value_sym(m.valuation[(item, attr.name)])}))")
                        else:
                            choices = " ".join(f"(= {cell} {_value_sym(v)})"
                                               for v in attr.domain)
                            self.out(f"(assert (or {choices}))")
                    else:
                        self.out(f"(assert (= {cell} {_value_sym(self.sentinel)}))")

    def soft_costs(self) -> None:
        for s, weight in soft_weights(Grounder(self.m).soft_assertions()):
            kind = self.m.kind_of(s.item)
            cell = f"({_ATTR_FUN[kind]} {_sym(s.item)} {_attr_sym(s.attr)})"
            self.out(f"(assert-soft (not (= {cell} {_value_sym(s.value)})) "
                     f":weight {weight})")

    # -- formula rendering ------------------------------------------------------

    def render(self, phi, env: dict[str, str]) -> str:
        m = self.m
        if isinstance(phi, dsl.TypeIs):
            sort = env[phi.var]
            if m.meta.kind_of_type(phi.type_name) != sort:
                return "false"
            return f"(= ({_TYPE_FUN[sort]} {phi.var}) {_type_sym(phi.type_name)})"
        if isinstance(phi, dsl.ValIs):
            attr = m.meta.attribute(phi.attr)
            if attr is None or phi.value not in attr.domain or not self.has_attrs:
                return "false"
            fun = _ATTR_FUN[env[phi.var]]
            return (f"(= ({fun} {phi.var} {_attr_sym(phi.attr)}) "
                    f"{_value_sym(phi.value)})")
        if isinstance(phi, dsl.SrcIs):
            return f"(= (src {phi.conn}) {phi.elem})"
        if isinstance(phi, dsl.TgtIs):
            return f"(= (tgt {phi.conn}) {phi.elem})"
        if isinstance(phi, dsl.Connects):
            return (f"(or (= (src {phi.conn}) {phi.elem}) "
                    f"(= (tgt {phi.conn}) {phi.elem}))")
        if isinstance(phi, dsl.Crosses):
            if BOUNDARY not in self.kinds_present:
                return "false"
            return (f"(xor (contains-elem {phi.boundary} (src {phi.conn})) "
                    f"(contains-elem {phi.boundary} (tgt {phi.conn})))")
        if isinstance(phi, dsl.Contained):
            fun = "contains-bound" if env[phi.inner] == BOUNDARY else "contains-elem"
            return f"({fun} {phi.boundary} {phi.inner})"
        if isinstance(phi, dsl.Holds):
            fun = "holds-conn" if env[phi.holder] == CONNECTOR else "holds-elem"
            return f"({fun} {phi.holder} {phi.asset})"
        if isinstance(phi, dsl.PathSrcIs):
            return f"(= (src {phi.path}.1) {phi.elem})"
        if isinstance(phi, dsl.PathTgtIs):
            p = phi.path
            return _any(f"(and (= {p}.len {i}) (= (tgt {p}.{i}) {phi.elem}))"
                        for i in self.slots)
        if isinstance(phi, dsl.InPath):
            p, x = phi.path, phi.item

            def member(i: int) -> str:
                if env.get(x) == CONNECTOR:
                    return f"(= {p}.{i} {x})"
                return f"(or (= (src {p}.{i}) {x}) (= (tgt {p}.{i}) {x}))"
            return _any(f"(and (<= {i} {p}.len) {member(i)})" for i in self.slots)
        if isinstance(phi, dsl.Not):
            return f"(not {self.render(phi.body, env)})"
        if isinstance(phi, dsl.Or):
            return f"(or {self.render(phi.left, env)} {self.render(phi.right, env)})"
        if isinstance(phi, dsl.ExistsItem):
            if phi.sort not in self.kinds_present:
                return "false"
            inner = {**env, phi.var: phi.sort}
            return (f"(exists (({phi.var} {_ID_SORT[phi.sort]})) "
                    f"{self.render(phi.body, inner)})")
        if isinstance(phi, dsl.ExistsPath):
            if not self.slots or CONNECTOR not in self.kinds_present:
                return "false"
            p = phi.var
            binders = " ".join(f"({p}.{i} ConnId)" for i in self.slots)
            guards = []
            for i in self.slots:
                per_slot = [f"(not (= (tgt {p}.{i}) (src {p}.{j})))" for j in range(1, i + 1)]
                if i >= 2:
                    per_slot.append(f"(= (tgt {p}.{i - 1}) (src {p}.{i}))")
                guards.append(f"(or (not (<= {i} {p}.len)) (and {' '.join(per_slot)}))")
            inner = {**env, p: dsl.PATH}
            return (f"(exists ({binders} ({p}.len Int)) "
                    f"(and (<= 1 {p}.len) (<= {p}.len {len(self.slots)}) "
                    f"(and {' '.join(guards)} {self.render(phi.body, inner)})))")
        raise dsl.DslError(f"cannot render {phi!r}")

    def rule_assert(self, rule: dsl.Rule) -> None:
        self.out(f"; rule {rule.name}")
        if self.mode == "check":
            self.out(f"(assert {self._with_weight(rule.formula)})")
        else:
            self.out(f"(assert (not {self.render(rule.formula, {})}))")

    def _with_weight(self, phi) -> str:
        # annotate the outermost quantifier body, mirroring common tool output
        if isinstance(phi, dsl.ExistsItem) and phi.sort in self.kinds_present:
            body = self.render(phi.body, {phi.var: phi.sort})
            return (f"(exists (({phi.var} {_ID_SORT[phi.sort]})) "
                    f"(! {body} :weight 0))")
        return self.render(phi, {})


def emit_smtlib(m: SystemModel, rules, mode: str = "check") -> str:
    """Render model facts plus rules; see the module docstring for the modes."""
    emitter = _Emitter(m, mode)
    emitter.out("; system model encoding")
    emitter.declare()
    emitter.attribute_constraints()
    if mode == "repair":
        emitter.soft_costs()
    for rule in rules:
        emitter.rule_assert(rule)
    emitter.out("(check-sat)")
    if mode == "repair":
        emitter.out("(get-objectives)")
    emitter.out("(get-model)")
    return "\n".join(emitter.lines) + "\n"
