import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from threatfix import load_costs, parse_model, serialize_model
from threatfix.model import ModelError, transitive_containment

from conftest import random_model


def base_doc():
    return {
        "meta": {
            "elementTypes": ["Host", "Router"],
            "connectorTypes": ["Wire"],
            "assetTypes": ["Key"],
            "boundaryTypes": ["Zone"],
            "attributes": [
                {"name": "enc", "domain": ["undefined", "on", "off"],
                 "appliesTo": ["Host", "Wire"]},
                {"name": "auth", "domain": ["no", "yes"], "appliesTo": ["Wire"]},
            ],
        },
        "elements": [
            {"id": "h1", "type": "Host", "attrs": {"enc": "on"}},
            {"id": "h2", "type": "Host", "attrs": {}},
            {"id": "r1", "type": "Router", "attrs": {}},
        ],
        "connectors": [
            {"id": "w1", "type": "Wire", "source": "h1", "target": "h2",
             "attrs": {"auth": "yes"}},
        ],
        "assets": [
            {"id": "k1", "type": "Key", "heldBy": ["w1", "h1"]},
        ],
        "boundaries": [
            {"id": "z1", "type": "Zone", "contains": ["h1", "z2"]},
            {"id": "z2", "type": "Zone", "contains": ["h2"]},
        ],
    }


def parse_doc(doc):
    return parse_model(json.dumps(doc))


def test_parse_basic_shape():
    m = parse_doc(base_doc())
    assert m.elements == ("h1", "h2", "r1")
    assert m.connectors == ("w1",)
    assert m.assets == ("k1",)
    assert m.boundaries == ("z1", "z2")
    assert m.type_of["w1"] == "Wire"
    assert m.source["w1"] == "h1" and m.target["w1"] == "h2"
    assert sorted(m.asset_rel) == [("h1", "k1"), ("w1", "k1")]
    assert ("z1", "h1") in m.containment and ("z2", "h2") in m.containment


def test_absent_attributes_take_defaults():
    m = parse_doc(base_doc())
    # "undefined" is in enc's domain, so it is the default
    assert m.value("h2", "enc") == "undefined"
    # auth has no "undefined"; the first domain value stands in
    doc = base_doc()
    doc["connectors"][0]["attrs"] = {}
    m = parse_doc(doc)
    assert m.value("w1", "auth") == "no"


def test_inapplicable_attribute_has_no_cell():
    m = parse_doc(base_doc())
    assert m.value("r1", "enc") is None
    assert ("r1", "enc") not in m.valuation
    assert m.value("h1", "auth") is None


def test_transitive_containment_is_strict_closure():
    m = parse_doc(base_doc())
    closure = set(transitive_containment(m))
    assert ("z1", "h2") in closure          # through z2
    assert ("z1", "z2") in closure
    assert not any(a == b for a, b in closure)


def test_serialize_round_trip():
    m = parse_doc(base_doc())
    m2 = parse_model(serialize_model(m))
    assert m2 == m


def test_serialize_round_trip_random():
    rng = random.Random(4)
    for _ in range(50):
        m = random_model(rng)
        assert parse_model(serialize_model(m)) == m


def test_fixture_round_trip(smarthome, motivating):
    assert parse_model(serialize_model(smarthome)) == smarthome
    # cost overrides are not part of the document, so compare without them
    stripped = motivating.with_valuation(motivating.valuation)
    assert parse_model(serialize_model(motivating)).valuation == stripped.valuation


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["elements"].append({"id": "h1", "type": "Host", "attrs": {}}),
     "duplicate item id"),
    (lambda d: d["elements"].append({"id": "x", "type": "Nope", "attrs": {}}),
     "not a declared element type"),
    (lambda d: d["elements"].append({"id": "x", "type": "Wire", "attrs": {}}),
     "not a declared element type"),
    (lambda d: d["elements"][0]["attrs"].update(auth="yes"),
     "does not apply"),
    (lambda d: d["elements"][0]["attrs"].update(enc="sideways"),
     "not in the domain"),
    (lambda d: d["connectors"][0].update(source="k1"),
     "is not an element"),
    (lambda d: d["connectors"][0].pop("target"),
     "missing required key"),
    (lambda d: d["assets"][0]["heldBy"].append("z1"),
     "neither an element nor a connector"),
    (lambda d: d["boundaries"][0]["contains"].append("w1"),
     "not an element or boundary"),
    (lambda d: d["boundaries"][1]["contains"].append("h1"),
     "contained in two boundaries"),
    (lambda d: d["elements"].append({"id": "", "type": "Host", "attrs": {}}),
     "non-empty string"),
    (lambda d: d.pop("meta"),
     "missing required key"),
    (lambda d: d.update(assets={"id": "k2"}),
     "assets must be a list"),
    (lambda d: d["boundaries"].append("z3"),
     "boundary must be an object"),
    (lambda d: d["assets"][0].update(heldBy="w1"),
     "heldBy of asset 'k1' must be a list of strings"),
    (lambda d: d["boundaries"][0]["contains"].append(["h2"]),
     "contains of boundary 'z1' must be a list of strings"),
    (lambda d: d["meta"]["attributes"][0].update(domain="on"),
     "domain of attribute 'enc' must be a list of strings"),
])
def test_validation_errors(mutate, fragment):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ModelError, match=fragment):
        parse_doc(doc)


def test_containment_cycle_detected():
    doc = base_doc()
    doc["boundaries"][1]["contains"].append("z1")
    with pytest.raises(ModelError, match="cycle"):
        parse_doc(doc)


def test_error_carries_identifier():
    doc = base_doc()
    doc["elements"].append({"id": "h1", "type": "Host", "attrs": {}})
    with pytest.raises(ModelError) as exc:
        parse_doc(doc)
    assert exc.value.identifier == "h1"


def test_meta_errors():
    doc = base_doc()
    doc["meta"]["connectorTypes"].append("Host")
    with pytest.raises(ModelError, match="declared in both"):
        parse_doc(doc)
    doc = base_doc()
    doc["meta"]["attributes"][0]["domain"] = []
    with pytest.raises(ModelError, match="empty domain"):
        parse_doc(doc)
    doc = base_doc()
    doc["meta"]["attributes"][0]["appliesTo"] = ["Ghost"]
    with pytest.raises(ModelError, match="unknown type"):
        parse_doc(doc)
    doc = base_doc()
    doc["meta"]["attributes"].append(dict(doc["meta"]["attributes"][0]))
    with pytest.raises(ModelError, match="duplicate attribute"):
        parse_doc(doc)


def test_not_json():
    with pytest.raises(ModelError, match="not valid JSON"):
        parse_model("{nope")


def test_default_costs():
    m = parse_doc(base_doc())
    assert m.cost("h1", "enc", "on", "on") == 0
    assert m.cost("h1", "enc", "on", "off") == 1


def test_load_costs_explicit_and_wildcard():
    m = parse_doc(base_doc())
    csv_text = (
        "item,attribute,from,to,cost\n"
        "h1,enc,on,off,5\n"
        "*,enc,off,on,1/2\n"
        "h1,enc,off,on,3/2\n"
    )
    m = load_costs(m, csv_text)
    assert m.cost("h1", "enc", "on", "off") == 5
    assert m.cost("h1", "enc", "off", "on") == Fraction(3, 2)   # explicit beats wildcard
    assert m.cost("h2", "enc", "off", "on") == Fraction(1, 2)
    assert m.cost("h2", "enc", "on", "off") == 1                # untouched default


@pytest.mark.parametrize("row, fragment", [
    ("h1,bogus,on,off,1", "unknown attribute"),
    ("ghost,enc,on,off,1", "unknown item"),
    ("r1,enc,on,off,1", "does not apply"),
    ("h1,enc,sideways,off,1", "not in the domain"),
    ("h1,enc,on,off,-1", "negative"),
    ("h1,enc,on,off,cheap", "not a rational"),
    ("h1,enc,on,off", "5 columns"),
])
def test_load_costs_bad_rows(row, fragment):
    m = parse_doc(base_doc())
    with pytest.raises(ModelError, match=fragment):
        load_costs(m, "item,attribute,from,to,cost\n" + row + "\n")


def test_load_costs_bad_header():
    m = parse_doc(base_doc())
    with pytest.raises(ModelError, match="header"):
        load_costs(m, "item,attr,from,to,cost\nh1,enc,on,off,1\n")


def test_load_costs_zero_cost_row_allowed():
    m = parse_doc(base_doc())
    m = load_costs(m, "item,attribute,from,to,cost\nh1,enc,on,off,0\n")
    assert m.cost("h1", "enc", "on", "off") == 0


@given(st.integers(0, 10 ** 9), st.integers(1, 10 ** 9))
def test_costs_stay_exact_rationals(num, den):
    m = parse_doc(base_doc())
    m = load_costs(m, f"item,attribute,from,to,cost\nh1,enc,on,off,{num}/{den}\n")
    assert m.cost("h1", "enc", "on", "off") == Fraction(num, den)
