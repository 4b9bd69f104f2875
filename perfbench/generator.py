"""Seeded instance generator with independent expected answers.

An instance is a chain-plus-chord architecture graph (element `e0` is a
MobilePhone, every third element a WebServer, the rest Nodes; chain
connectors `e_i -> e_{i+1}` plus random chords), a random attribute
valuation, a rule file drawn from the templates below and, for repair
workloads, a cost CSV with rational costs.

Every rule template carries its expected verdict as a plain-Python function
over the generated graph and a valuation (BFS reachability, loops over
connectors).  None of it comes from `threatfix`, so the
benchmark's output checks stay independent of the code they measure.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

PHONE, SERVER, NODE = "MobilePhone", "WebServer", "Node"
WIRE, WIRELESS = "Wire", "Wireless"
LOGGING, ENCRYPTION, CHANNEL = "Data Logging", "Data Encryption", "Channel Encryption"

DOMAINS = {
    LOGGING: ("undefined", "Yes", "No"),
    ENCRYPTION: ("None", "Weak", "Strong"),
    CHANNEL: ("None", "TLS"),
}
APPLIES = {LOGGING: (SERVER, NODE), ENCRYPTION: (SERVER,), CHANNEL: (WIRE, WIRELESS)}
# Every rule with an attribute predicate is false under this valuation, so a
# joint repair always exists and `repair --mode partial` must exit 0.
SAFE_VALUES = {LOGGING: "Yes", ENCRYPTION: "Strong", CHANNEL: "TLS"}

COST_HEADER = "item,attribute,from,to,cost"


@dataclass(frozen=True)
class Graph:
    elements: tuple[str, ...]
    types: dict            # element or connector id -> type
    conns: tuple[tuple[str, str, str], ...]   # (connector id, source, target)
    attrs: tuple[str, ...]                    # attribute names in the meta model

    def cells(self) -> list[tuple[str, str]]:
        out = []
        for item in self.elements + tuple(c for c, _, _ in self.conns):
            for attr in self.attrs:
                if self.types[item] in APPLIES[attr]:
                    out.append((item, attr))
        return out

    def successors(self) -> dict[str, list[str]]:
        out = {e: [] for e in self.elements}
        for _, s, t in self.conns:
            out[s].append(t)
        return out


def reachable(g: Graph, start: str) -> set[str]:
    """Elements reachable from `start` over one or more connectors."""
    succ = g.successors()
    seen: set[str] = set()
    todo = list(succ[start])
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.extend(succ[x])
    return seen


# -- rule templates -----------------------------------------------------------

Expected = Callable[[Graph, dict], bool]


@dataclass(frozen=True)
class RuleSpec:
    name: str
    text: str
    expected: Expected
    has_attr: bool = True


def _of_type(g: Graph, t: str) -> list[str]:
    return [e for e in g.elements if g.types[e] == t]


def logging_without_encryption(name: str) -> RuleSpec:
    text = (f'rule {name} :\n'
            f'  exists element e .\n'
            f'    type(e) = "{SERVER}" and val(e, "{LOGGING}") = "Yes" and\n'
            f'    val(e, "{ENCRYPTION}") = "None"\n')

    def expected(g, val):
        return any(val[(e, LOGGING)] == "Yes" and val[(e, ENCRYPTION)] == "None"
                   for e in _of_type(g, SERVER))
    return RuleSpec(name, text, expected)


def phone_reaches_unlogged_server(name: str) -> RuleSpec:
    text = (f'rule {name} :\n'
            f'  exists path p . exists element e1 . exists element e2 .\n'
            f'    src(p) = e1 and tgt(p) = e2 and\n'
            f'    type(e2) = "{SERVER}" and type(e1) = "{PHONE}" and\n'
            f'    val(e2, "{LOGGING}") != "Yes"\n')

    def expected(g, val):
        return any(g.types[e] == SERVER and val[(e, LOGGING)] != "Yes"
                   for ph in _of_type(g, PHONE) for e in reachable(g, ph))
    return RuleSpec(name, text, expected)


def phone_route_through_unlogged_node(name: str) -> RuleSpec:
    """Positive path rule using `x in p`."""
    text = (f'rule {name} :\n'
            f'  exists path p . exists element e1 . exists element x .\n'
            f'    src(p) = e1 and type(e1) = "{PHONE}" and x in p and\n'
            f'    type(x) = "{NODE}" and val(x, "{LOGGING}") = "No"\n')

    def expected(g, val):
        # an element lies on some acyclic path from e1 iff it is reachable
        return any(g.types[x] == NODE and val[(x, LOGGING)] == "No"
                   for ph in _of_type(g, PHONE) for x in reachable(g, ph))
    return RuleSpec(name, text, expected)


def plain_server_feeds_unlogged_node(name: str) -> RuleSpec:
    """Positive path rule using `tgt(p)`."""
    text = (f'rule {name} :\n'
            f'  exists path p . exists element e1 . exists element e2 .\n'
            f'    src(p) = e1 and tgt(p) = e2 and type(e1) = "{SERVER}" and\n'
            f'    val(e1, "{ENCRYPTION}") = "None" and type(e2) = "{NODE}" and\n'
            f'    val(e2, "{LOGGING}") = "No"\n')

    def expected(g, val):
        return any(g.types[e] == NODE and val[(e, LOGGING)] == "No"
                   for s in _of_type(g, SERVER) if val[(s, ENCRYPTION)] == "None"
                   for e in reachable(g, s))
    return RuleSpec(name, text, expected)


def weak_server_unreachable(name: str) -> RuleSpec:
    """Negated path rule: a weakly encrypted server some phone cannot reach."""
    text = (f'rule {name} :\n'
            f'  exists element e1 . exists element e2 .\n'
            f'    type(e1) = "{PHONE}" and type(e2) = "{SERVER}" and\n'
            f'    val(e2, "{ENCRYPTION}") = "Weak" and\n'
            f'    not (exists path p . src(p) = e1 and tgt(p) = e2)\n')

    def expected(g, val):
        return any(val[(e, ENCRYPTION)] == "Weak" and e not in reachable(g, ph)
                   for ph in _of_type(g, PHONE) for e in _of_type(g, SERVER))
    return RuleSpec(name, text, expected)


def edge_into_logging(name: str, src_type: str, tgt_type: str, value: str) -> RuleSpec:
    """Item-only rule: a connector between two typed elements, target logging test."""
    text = (f'rule {name} :\n'
            f'  exists connector c . exists element e1 . exists element e2 .\n'
            f'    src(c) = e1 and tgt(c) = e2 and type(e1) = "{src_type}" and\n'
            f'    type(e2) = "{tgt_type}" and val(e2, "{LOGGING}") = "{value}"\n')

    def expected(g, val):
        return any(g.types[s] == src_type and g.types[t] == tgt_type
                   and val[(t, LOGGING)] == value for _, s, t in g.conns)
    return RuleSpec(name, text, expected)


def endpoint_encryption(name: str, conn_type: str, value: str) -> RuleSpec:
    """Item-only rule using `connector(e, c)`."""
    text = (f'rule {name} :\n'
            f'  exists element e . exists connector c .\n'
            f'    connector(e, c) and type(e) = "{SERVER}" and\n'
            f'    type(c) = "{conn_type}" and val(e, "{ENCRYPTION}") = "{value}"\n')

    def expected(g, val):
        return any(g.types[c] == conn_type and g.types[e] == SERVER
                   and val[(e, ENCRYPTION)] == value
                   for c, s, t in g.conns for e in (s, t))
    return RuleSpec(name, text, expected)


def relay_without_logging(name: str, mid_type: str, in_type: str) -> RuleSpec:
    """Item-only rule: two chained connectors through an element that does not log."""
    text = (f'rule {name} :\n'
            f'  exists connector c . exists connector d . exists element e .\n'
            f'    tgt(c) = e and src(d) = e and type(e) = "{mid_type}" and\n'
            f'    type(c) = "{in_type}" and val(e, "{LOGGING}") != "Yes"\n')

    def expected(g, val):
        return any(g.types[c] == in_type and g.types[e] == mid_type
                   and val[(e, LOGGING)] != "Yes"
                   and any(s2 == e for _, s2, _ in g.conns)
                   for c, _, e in g.conns)
    return RuleSpec(name, text, expected)


def plaintext_channel_from(name: str, src_type: str) -> RuleSpec:
    """Item-only rule on a connector attribute."""
    text = (f'rule {name} :\n'
            f'  exists connector c . exists element e .\n'
            f'    src(c) = e and type(e) = "{src_type}" and\n'
            f'    val(c, "{CHANNEL}") = "None"\n')

    def expected(g, val):
        return any(g.types[s] == src_type and val[(c, CHANNEL)] == "None"
                   for c, s, _ in g.conns)
    return RuleSpec(name, text, expected)


def phone_on_wireless(name: str) -> RuleSpec:
    """No attribute predicate: attribute changes cannot repair a match."""
    text = (f'rule {name} :\n'
            f'  exists connector c . exists element e .\n'
            f'    src(c) = e and type(e) = "{PHONE}" and type(c) = "{WIRELESS}"\n')

    def expected(g, val):
        return any(g.types[s] == PHONE and g.types[c] == WIRELESS
                   for c, s, _ in g.conns)
    return RuleSpec(name, text, expected, has_attr=False)


def item_rule(rng: random.Random, name: str, channel: bool) -> RuleSpec:
    """One item-only rule with random parameters."""
    kinds = ["edge", "endpoint", "relay"] + (["channel"] if channel else [])
    kind = rng.choice(kinds)
    if kind == "edge":
        return edge_into_logging(name, rng.choice([PHONE, SERVER, NODE]),
                                 rng.choice([SERVER, NODE]),
                                 rng.choice(["undefined", "No"]))
    if kind == "endpoint":
        return endpoint_encryption(name, rng.choice([WIRE, WIRELESS]),
                                   rng.choice(["None", "Weak"]))
    if kind == "relay":
        return relay_without_logging(name, rng.choice([SERVER, NODE]),
                                     rng.choice([WIRE, WIRELESS]))
    return plaintext_channel_from(name, rng.choice([PHONE, SERVER, NODE]))


# -- instances ----------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    """Generator knobs (the axes of the scaling sweep)."""
    n: int                       # element count
    chords: int                  # random connectors on top of the chain
    mix: tuple[str, ...] = ("two",)   # rule groups, see rules_for
    multiplier: int = 1          # each rule group repeated this many times
    item_rules: int = 0          # random item-only rules ("items" group)
    channel: bool = False        # connectors carry "Channel Encryption"
    denominators: Optional[tuple[int, ...]] = None   # cost CSV when set


@dataclass
class Instance:
    graph: Graph
    valuation: dict
    rules: list[RuleSpec]
    costs: dict = field(default_factory=dict)   # (item or "*", attr, from, to) -> Fraction

    def model_json(self) -> str:
        g = self.graph
        attrs = [{"name": a, "domain": list(DOMAINS[a]), "appliesTo": list(APPLIES[a])}
                 for a in g.attrs]
        doc = {
            "meta": {"elementTypes": [PHONE, SERVER, NODE],
                     "connectorTypes": [WIRE, WIRELESS],
                     "assetTypes": [], "boundaryTypes": [], "attributes": attrs},
            "elements": [{"id": e, "type": g.types[e], "attrs": self._attrs(e)}
                         for e in g.elements],
            "connectors": [{"id": c, "type": g.types[c], "source": s, "target": t,
                            "attrs": self._attrs(c)} for c, s, t in g.conns],
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    def _attrs(self, item: str) -> dict:
        return {a: self.valuation[(item, a)] for a in self.graph.attrs
                if (item, a) in self.valuation}

    def rules_text(self) -> str:
        return "\n".join(r.text for r in self.rules)

    def costs_csv(self) -> str:
        rows = [COST_HEADER]
        for (item, attr, old, new), cost in self.costs.items():
            rows.append(f"{item},{attr},{old},{new},{cost}")
        return "\n".join(rows) + "\n"

    def write(self, directory: str, prefix: str = "") -> list[str]:
        """Write the model, rule and (if any) cost files; return their CLI flags."""
        files = {"--model": ("model.json", self.model_json()),
                 "--rules": ("rules.tl", self.rules_text())}
        if self.costs:
            files["--costs"] = ("costs.csv", self.costs_csv())
        argv = []
        for flag, (name, text) in files.items():
            path = os.path.join(directory, prefix + name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv += [flag, path]
        return argv

    def cost(self, item: str, attr: str, old: str, new: str) -> Fraction:
        """Cost of one change under the generated table (README's lookup order)."""
        for key in ((item, attr, old, new), ("*", attr, old, new)):
            if key in self.costs:
                return self.costs[key]
        return Fraction(0) if old == new else Fraction(1)


def make_graph(rng: random.Random, n: int, chords: int, channel: bool) -> Graph:
    elements = tuple(f"e{i}" for i in range(n))
    types = {}
    for i, e in enumerate(elements):
        types[e] = PHONE if i == 0 else SERVER if i % 3 == 0 else NODE
    pairs = [(f"e{i}", f"e{i + 1}") for i in range(n - 1)]
    taken = set(pairs)
    candidates = [(a, b) for a in elements for b in elements
                  if a != b and (a, b) not in taken]
    pairs += rng.sample(candidates, min(chords, len(candidates)))
    conns = []
    for k, (s, t) in enumerate(pairs):
        c = f"c{k}"
        types[c] = rng.choice([WIRE, WIRELESS])
        conns.append((c, s, t))
    attrs = (LOGGING, ENCRYPTION) + ((CHANNEL,) if channel else ())
    return Graph(elements, types, tuple(conns), attrs)


_GROUPS = {
    # the two rules of the bundled example file
    "two": (logging_without_encryption, phone_reaches_unlogged_server),
    "path": (phone_route_through_unlogged_node, plain_server_feeds_unlogged_node),
    "negpath": (weak_server_unreachable,),
    "noattr": (phone_on_wireless,),
}


def rules_for(rng: random.Random, spec: Spec) -> list[RuleSpec]:
    rules = []
    for rep in range(spec.multiplier):
        suffix = f"_{rep}" if spec.multiplier > 1 else ""
        for group in spec.mix:
            if group == "items":
                for k in range(spec.item_rules):
                    rules.append(item_rule(rng, f"item_{k}{suffix}", spec.channel))
                continue
            for template in _GROUPS[group]:
                rules.append(template(template.__name__ + suffix))
    return rules


def make_costs(rng: random.Random, g: Graph, denominators: tuple[int, ...]) -> dict:
    """Wildcard rows for every transition plus a few per-item overrides.

    Every denominator of the pool is used at least once, so the LCM of the
    table's denominators is the LCM of the pool.
    """
    keys = []
    for attr in g.attrs:
        domain = DOMAINS[attr]
        keys += [("*", attr, a, b) for a in domain for b in domain if a != b]
    cells = g.cells()
    for item, attr in rng.sample(cells, min(3, len(cells))):
        a, b = rng.sample(DOMAINS[attr], 2)
        keys.append((item, attr, a, b))
    dens = list(denominators) + [rng.choice(denominators)
                                 for _ in range(len(keys) - len(denominators))]
    rng.shuffle(dens)
    costs = {}
    for key, den in zip(keys, dens):
        # a numerator coprime to den keeps den as the reduced denominator
        numerator = rng.choice([k for k in range(1, 2 * den + 1) if gcd(k, den) == 1])
        costs[key] = Fraction(numerator, den)
    return costs


def make_instance(seed: int, spec: Spec) -> Instance:
    rng = random.Random(seed)
    g = make_graph(rng, spec.n, spec.chords, spec.channel)
    valuation = {cell: rng.choice(DOMAINS[cell[1]]) for cell in g.cells()}
    rules = rules_for(rng, spec)
    costs = make_costs(rng, g, spec.denominators) if spec.denominators else {}
    return Instance(g, valuation, rules, costs)


def safe_valuation(inst: Instance) -> dict:
    return {cell: SAFE_VALUES[cell[1]] for cell in inst.valuation}
