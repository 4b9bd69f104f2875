"""Typed item-graph system models.

A system model is a graph of identified items (elements, connectors, assets,
boundaries) over a meta model that fixes the type vocabulary, the attribute
domains, and which attributes apply to which item types.  Attribute changes
carry rational costs consumed by the repair engine.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional

ELEMENT = "element"
CONNECTOR = "connector"
ASSET = "asset"
BOUNDARY = "boundary"
ITEM_KINDS = (ELEMENT, CONNECTOR, ASSET, BOUNDARY)

DEFAULT_VALUE = "undefined"

COST_HEADER = ("item", "attribute", "from", "to", "cost")


class ModelError(ValueError):
    """Raised on schema violations; carries the offending identifier."""

    def __init__(self, message: str, identifier: Optional[str] = None):
        super().__init__(message)
        self.identifier = identifier


@dataclass(frozen=True)
class AttributeDef:
    name: str
    domain: tuple[str, ...]
    applies_to: tuple[str, ...]


@dataclass(frozen=True)
class MetaModel:
    element_types: tuple[str, ...]
    connector_types: tuple[str, ...]
    asset_types: tuple[str, ...]
    boundary_types: tuple[str, ...]
    attributes: tuple[AttributeDef, ...]

    def kind_of_type(self, type_name: str) -> Optional[str]:
        for kind, names in zip(ITEM_KINDS, (self.element_types, self.connector_types,
                                            self.asset_types, self.boundary_types)):
            if type_name in names:
                return kind
        return None

    def attribute(self, name: str) -> Optional[AttributeDef]:
        for a in self.attributes:
            if a.name == name:
                return a
        return None

    def attrs_of_type(self, type_name: str) -> tuple[AttributeDef, ...]:
        return tuple(a for a in self.attributes if type_name in a.applies_to)


@dataclass(frozen=True)
class SystemModel:
    meta: MetaModel
    elements: tuple[str, ...]
    connectors: tuple[str, ...]
    assets: tuple[str, ...]
    boundaries: tuple[str, ...]
    type_of: Mapping[str, str]
    source: Mapping[str, str]           # connector id -> element id
    target: Mapping[str, str]           # connector id -> element id
    valuation: Mapping[tuple[str, str], str]   # (item id, attribute) -> value
    containment: tuple[tuple[str, str], ...]   # (boundary id, child id), direct
    asset_rel: tuple[tuple[str, str], ...]     # (holder id, asset id)
    cost_overrides: Mapping[tuple[str, str, str, str], Fraction] = field(default_factory=dict)

    # -- lookups ------------------------------------------------------------

    def kind_of(self, item_id: str) -> str:
        return self.meta.kind_of_type(self.type_of[item_id])

    def items_of_sort(self, sort: str) -> tuple[str, ...]:
        return {ELEMENT: self.elements, CONNECTOR: self.connectors,
                ASSET: self.assets, BOUNDARY: self.boundaries}[sort]

    def items(self) -> tuple[str, ...]:
        return self.elements + self.connectors + self.assets + self.boundaries

    def applicable_attrs(self, item_id: str) -> tuple[AttributeDef, ...]:
        return self.meta.attrs_of_type(self.type_of[item_id])

    def value(self, item_id: str, attr: str) -> Optional[str]:
        return self.valuation.get((item_id, attr))

    def cost(self, item_id: str, attr: str, old: str, new: str) -> Fraction:
        """Change cost for one cell; explicit row, then wildcard row, then default."""
        for key in ((item_id, attr, old, new), ("*", attr, old, new)):
            if key in self.cost_overrides:
                return self.cost_overrides[key]
        return Fraction(0) if old == new else Fraction(1)

    def with_valuation(self, valuation: Mapping[tuple[str, str], str]) -> "SystemModel":
        return replace(self, valuation=dict(valuation))


def transitive_containment(m: SystemModel) -> tuple[tuple[str, str], ...]:
    """Strict transitive closure of the direct containment relation, sorted."""
    children: dict[str, set[str]] = {}
    for parent, child in m.containment:
        children.setdefault(parent, set()).add(child)
    closure: set[tuple[str, str]] = set()
    for b in m.boundaries:
        seen: set[str] = set()
        stack = list(children.get(b, ()))
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            closure.add((b, x))
            stack.extend(children.get(x, ()))
    return tuple(sorted(closure))


# -- parsing ----------------------------------------------------------------

def _object(value, where: str) -> Mapping:
    if not isinstance(value, dict):
        raise ModelError(f"{where} must be an object", identifier=where)
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ModelError(f"{where} must be a list", identifier=where)
    return value


def _strings(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ModelError(f"{where} must be a list of strings", identifier=where)
    return value


def _require(doc, key: str, where: str):
    if key not in _object(doc, where):
        raise ModelError(f"{where}: missing required key {key!r}", identifier=where)
    return doc[key]


def _parse_meta(doc) -> MetaModel:
    _object(doc, "meta")
    kinds = {}
    for key in ("elementTypes", "connectorTypes", "assetTypes", "boundaryTypes"):
        names = _strings(doc.get(key, []), f"meta.{key}")
        if len(set(names)) != len(names):
            dup = sorted(n for n in names if names.count(n) > 1)[0]
            raise ModelError(f"duplicate type name {dup!r} in meta.{key}", identifier=dup)
        kinds[key] = tuple(names)
    seen: dict[str, str] = {}
    for key, names in kinds.items():
        for n in names:
            if n in seen:
                raise ModelError(f"type {n!r} declared in both {seen[n]} and {key}",
                                 identifier=n)
            seen[n] = key
    attrs = []
    for a in _list(doc.get("attributes", []), "meta.attributes"):
        name = _require(a, "name", "attribute")
        domain = _strings(_require(a, "domain", f"attribute {name!r}"),
                          f"domain of attribute {name!r}")
        applies = _strings(_require(a, "appliesTo", f"attribute {name!r}"),
                           f"appliesTo of attribute {name!r}")
        if not domain:
            raise ModelError(f"attribute {name!r} has an empty domain", identifier=name)
        if len(set(domain)) != len(domain):
            raise ModelError(f"attribute {name!r} has duplicate domain values", identifier=name)
        for t in applies:
            if t not in seen:
                raise ModelError(f"attribute {name!r} applies to unknown type {t!r}",
                                 identifier=t)
        if any(x.name == name for x in attrs):
            raise ModelError(f"duplicate attribute {name!r}", identifier=name)
        attrs.append(AttributeDef(name, tuple(domain), tuple(applies)))
    return MetaModel(kinds["elementTypes"], kinds["connectorTypes"],
                     kinds["assetTypes"], kinds["boundaryTypes"], tuple(attrs))


def _default_value(attr: AttributeDef) -> str:
    return DEFAULT_VALUE if DEFAULT_VALUE in attr.domain else attr.domain[0]


def parse_model(text: str) -> SystemModel:
    """Parse and validate a JSON model document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"model document is not valid JSON: {e}") from None
    meta = _parse_meta(_require(doc, "meta", "document"))

    type_of: dict[str, str] = {}
    valuation: dict[tuple[str, str], str] = {}
    ids_by_kind: dict[str, list[str]] = {k: [] for k in ITEM_KINDS}

    def add_item(entry: Mapping, kind: str) -> str:
        item_id = _require(entry, "id", kind)
        if not isinstance(item_id, str) or not item_id:
            raise ModelError(f"{kind} id must be a non-empty string", identifier=str(item_id))
        if item_id in type_of:
            raise ModelError(f"duplicate item id {item_id!r}", identifier=item_id)
        t = _require(entry, "type", f"{kind} {item_id!r}")
        if meta.kind_of_type(t) != kind:
            raise ModelError(f"{kind} {item_id!r} has type {t!r} which is not "
                             f"a declared {kind} type", identifier=item_id)
        type_of[item_id] = t
        ids_by_kind[kind].append(item_id)
        applicable = meta.attrs_of_type(t)
        given = entry.get("attrs", {})
        if not isinstance(given, dict):
            raise ModelError(f"attrs of item {item_id!r} must be an object", identifier=item_id)
        for name, value in given.items():
            attr = meta.attribute(name)
            if attr is None or t not in attr.applies_to:
                raise ModelError(f"attribute {name!r} does not apply to item {item_id!r}",
                                 identifier=item_id)
            if value not in attr.domain:
                raise ModelError(f"value {value!r} for attribute {name!r} on item "
                                 f"{item_id!r} is not in the domain", identifier=item_id)
            valuation[(item_id, name)] = value
        for attr in applicable:
            valuation.setdefault((item_id, attr.name), _default_value(attr))
        return item_id

    for entry in _list(doc.get("elements", []), "elements"):
        add_item(entry, ELEMENT)
    source: dict[str, str] = {}
    target: dict[str, str] = {}
    for entry in _list(doc.get("connectors", []), "connectors"):
        cid = add_item(entry, CONNECTOR)
        for key, table in (("source", source), ("target", target)):
            endpoint = _require(entry, key, f"connector {cid!r}")
            if endpoint not in ids_by_kind[ELEMENT]:
                raise ModelError(f"connector {cid!r} {key} {endpoint!r} is not an element",
                                 identifier=cid)
            table[cid] = endpoint
    asset_rel: list[tuple[str, str]] = []
    for entry in _list(doc.get("assets", []), "assets"):
        aid = add_item(entry, ASSET)
        for holder in _strings(_require(entry, "heldBy", f"asset {aid!r}"),
                               f"heldBy of asset {aid!r}"):
            if holder not in ids_by_kind[ELEMENT] and holder not in ids_by_kind[CONNECTOR]:
                raise ModelError(f"asset {aid!r} held by {holder!r} which is neither an "
                                 f"element nor a connector", identifier=aid)
            asset_rel.append((holder, aid))
    containment: list[tuple[str, str]] = []
    for entry in _list(doc.get("boundaries", []), "boundaries"):
        bid = add_item(entry, BOUNDARY)
        for child in _strings(_require(entry, "contains", f"boundary {bid!r}"),
                              f"contains of boundary {bid!r}"):
            containment.append((bid, child))
    for bid, child in containment:
        if child not in type_of or type_of[child] not in meta.element_types + meta.boundary_types:
            raise ModelError(f"boundary {bid!r} contains {child!r} which is not an element "
                             f"or boundary", identifier=bid)
    # containment encodes a forest: unique parent, no cycles
    parent: dict[str, str] = {}
    for bid, child in containment:
        if child in parent:
            raise ModelError(f"item {child!r} is contained in two boundaries", identifier=child)
        parent[child] = bid
    for start in parent:
        x, hops = start, 0
        while x in parent:
            x = parent[x]
            hops += 1
            if hops > len(parent):
                raise ModelError(f"containment cycle through {start!r}", identifier=start)

    return SystemModel(
        meta=meta,
        elements=tuple(sorted(ids_by_kind[ELEMENT])),
        connectors=tuple(sorted(ids_by_kind[CONNECTOR])),
        assets=tuple(sorted(ids_by_kind[ASSET])),
        boundaries=tuple(sorted(ids_by_kind[BOUNDARY])),
        type_of=type_of,
        source=source,
        target=target,
        valuation=valuation,
        containment=tuple(sorted(containment)),
        asset_rel=tuple(sorted(asset_rel)),
    )


def serialize_model(m: SystemModel) -> str:
    """Inverse of parse_model up to model equality."""
    def attrs_of(item_id: str) -> dict:
        return {a.name: m.valuation[(item_id, a.name)]
                for a in m.applicable_attrs(item_id)
                if (item_id, a.name) in m.valuation}

    doc = {
        "meta": {
            "elementTypes": list(m.meta.element_types),
            "connectorTypes": list(m.meta.connector_types),
            "assetTypes": list(m.meta.asset_types),
            "boundaryTypes": list(m.meta.boundary_types),
            "attributes": [{"name": a.name, "domain": list(a.domain),
                            "appliesTo": list(a.applies_to)} for a in m.meta.attributes],
        },
        "elements": [{"id": e, "type": m.type_of[e], "attrs": attrs_of(e)}
                     for e in m.elements],
        "connectors": [{"id": c, "type": m.type_of[c], "source": m.source[c],
                        "target": m.target[c], "attrs": attrs_of(c)}
                       for c in m.connectors],
        "assets": [{"id": a, "type": m.type_of[a],
                    "heldBy": sorted(h for h, x in m.asset_rel if x == a),
                    **({"attrs": attrs_of(a)} if attrs_of(a) else {})}
                   for a in m.assets],
        "boundaries": [{"id": b, "type": m.type_of[b],
                        "contains": sorted(c for p, c in m.containment if p == b),
                        **({"attrs": attrs_of(b)} if attrs_of(b) else {})}
                       for b in m.boundaries],
    }
    return json.dumps(doc, indent=2)


# -- change costs -----------------------------------------------------------

def load_costs(m: SystemModel, csv_text: str) -> SystemModel:
    """Merge a cost CSV into the model.

    Header must be item,attribute,from,to,cost.  The item column accepts `*`
    to cover every item the attribute applies to.  Unlisted transitions keep
    the defaults: 0 when from == to, 1 otherwise.
    """
    reader = csv.reader(io.StringIO(csv_text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows or tuple(cell.strip() for cell in rows[0]) != COST_HEADER:
        raise ModelError("cost CSV header must be exactly item,attribute,from,to,cost")
    overrides = dict(m.cost_overrides)
    for row in rows[1:]:
        if len(row) != 5:
            raise ModelError(f"cost row {row!r} does not have 5 columns")
        item, attr_name, old, new, cost_text = (cell.strip() for cell in row)
        attr = m.meta.attribute(attr_name)
        if attr is None:
            raise ModelError(f"cost row names unknown attribute {attr_name!r}",
                             identifier=attr_name)
        if item != "*":
            if item not in m.type_of:
                raise ModelError(f"cost row names unknown item {item!r}", identifier=item)
            if m.type_of[item] not in attr.applies_to:
                raise ModelError(f"attribute {attr_name!r} does not apply to item {item!r}",
                                 identifier=item)
        for v in (old, new):
            if v not in attr.domain:
                raise ModelError(f"cost row value {v!r} is not in the domain of "
                                 f"{attr_name!r}", identifier=v)
        try:
            cost = Fraction(cost_text)
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"cost {cost_text!r} is not a rational number") from None
        if cost < 0:
            raise ModelError(f"cost {cost_text!r} is negative", identifier=item)
        overrides[(item, attr_name, old, new)] = cost
    return replace(m, cost_overrides=overrides)
