import json
import random
from fractions import Fraction

import pytest

from threatfix import dsl, parse_model
from threatfix.semantics import (
    OracleBoundError, Path, brute_force_min_repair, enumerate_paths, evaluate,
    path_elements, witnesses,
)

from conftest import (
    naive_closure, naive_eval, naive_min_repair, naive_paths, random_closed_formula,
    random_model,
)


def k3():
    """Complete digraph on three nodes: both arcs between every pair."""
    doc = {
        "meta": {"elementTypes": ["N"], "connectorTypes": ["A"],
                 "assetTypes": [], "boundaryTypes": [], "attributes": []},
        "elements": [{"id": e, "type": "N", "attrs": {}} for e in "xyz"],
        "connectors": [
            {"id": f"{a}{b}", "type": "A", "source": a, "target": b, "attrs": {}}
            for a in "xyz" for b in "xyz" if a != b],
        "assets": [], "boundaries": [],
    }
    return parse_model(json.dumps(doc))


def test_k3_has_twelve_paths():
    paths = enumerate_paths(k3())
    assert len(paths) == 12
    lengths = sorted(len(p.connectors) for p in paths)
    assert lengths == [1] * 6 + [2] * 6


def test_paths_are_acyclic_and_chained():
    rng = random.Random(5)
    for _ in range(100):
        m = random_model(rng)
        for p in enumerate_paths(m):
            elems = path_elements(m, p)
            assert len(elems) == len(p.connectors) + 1
            assert len(set(elems)) == len(elems)
            for a, b in zip(p.connectors, p.connectors[1:]):
                assert m.target[a] == m.source[b]


def test_paths_match_product_filter_enumeration():
    rng = random.Random(6)
    for _ in range(150):
        m = random_model(rng)
        got = [p.connectors for p in enumerate_paths(m)]
        assert sorted(got) == sorted(naive_paths(m))
        assert len(set(got)) == len(got)
        # declared order: sorted by connector id sequence
        assert got == sorted(got)


def test_single_element_model_has_no_paths():
    doc = {"meta": {"elementTypes": ["N"], "connectorTypes": [],
                    "assetTypes": [], "boundaryTypes": [], "attributes": []},
           "elements": [{"id": "e", "type": "N", "attrs": {}}],
           "connectors": [], "assets": [], "boundaries": []}
    assert enumerate_paths(parse_model(json.dumps(doc))) == ()


def test_evaluate_agrees_with_independent_oracle():
    rng = random.Random(17)
    for _ in range(400):
        m = random_model(rng)
        phi = random_closed_formula(rng, m, depth=4)
        assert evaluate(m, phi) == naive_eval(m, phi)


def test_val_on_inapplicable_cell_is_false():
    m = k3()   # no attributes at all
    phi = dsl.parse_formula('exists element e . val(e, "enc") = "on"')
    assert not evaluate(m, phi)
    # and the negation inside the quantifier is true for every element
    phi = dsl.parse_formula('exists element e . val(e, "enc") != "on"')
    assert evaluate(m, phi)


def test_crosses_xor_by_hand():
    doc = {
        "meta": {"elementTypes": ["N"], "connectorTypes": ["A"],
                 "assetTypes": [], "boundaryTypes": ["Z"], "attributes": []},
        "elements": [{"id": e, "type": "N", "attrs": {}} for e in ("in1", "in2", "out")],
        "connectors": [
            {"id": "inside", "type": "A", "source": "in1", "target": "in2", "attrs": {}},
            {"id": "leaves", "type": "A", "source": "in1", "target": "out", "attrs": {}},
        ],
        "assets": [],
        "boundaries": [{"id": "z", "type": "Z", "contains": ["in1", "in2"]}],
    }
    m = parse_model(json.dumps(doc))
    crossing = dsl.Crosses("c", "b")
    assert not evaluate(m, crossing, {"c": "inside", "b": "z"})
    assert evaluate(m, crossing, {"c": "leaves", "b": "z"})


def test_contained_uses_transitive_closure():
    doc = {
        "meta": {"elementTypes": ["N"], "connectorTypes": [],
                 "assetTypes": [], "boundaryTypes": ["Z"], "attributes": []},
        "elements": [{"id": "e", "type": "N", "attrs": {}}],
        "connectors": [], "assets": [],
        "boundaries": [{"id": "outer", "type": "Z", "contains": ["inner"]},
                       {"id": "inner", "type": "Z", "contains": ["e"]}],
    }
    m = parse_model(json.dumps(doc))
    assert evaluate(m, dsl.Contained("x", "b"), {"x": "e", "b": "outer"})
    assert not evaluate(m, dsl.Contained("x", "b"), {"x": "outer", "b": "outer"})


def test_witness_order_is_outermost_major():
    m = k3()
    phi = dsl.parse_formula(
        'exists element e . exists element f . exists connector c . '
        'src(c) = e and tgt(c) = f')
    ws = witnesses(m, phi, "r")
    assert len(ws) == 6
    assert ws[0].bindings == (("e", "x"), ("f", "y"), ("c", "xy"))
    firsts = [dict(w.bindings)["e"] for w in ws]
    assert firsts == sorted(firsts)


def test_witness_cap():
    m = k3()
    phi = dsl.parse_formula('exists connector c . exists element e . src(c) = e')
    assert len(witnesses(m, phi, "r", cap=2)) == 2
    assert len(witnesses(m, phi, "r")) == 6


def test_witnesses_empty_iff_unmatched():
    m = k3()
    phi = dsl.parse_formula('exists element e . type(e) = "Ghost"')
    assert witnesses(m, phi, "r") == ()
    assert not evaluate(m, phi)


def test_witness_includes_paths():
    m = k3()
    phi = dsl.parse_formula('exists path p . exists element e . '
                            'src(p) = e and type(e) = "N"')
    ws = witnesses(m, phi, "r", cap=1)
    binding = dict(ws[0].bindings)["p"]
    assert isinstance(binding, Path)
    assert binding == enumerate_paths(m)[0]


def prefix_bindings(m, phi):
    """Every binding of the leading existential prefix whose matrix holds.

    The full product in witness order (items by identifier, paths by
    connector sequence), each leaf tested with the independent oracle.
    """
    paths = sorted(naive_paths(m))
    closure = naive_closure(m)
    out = []

    def rec(phi, env, bound):
        if isinstance(phi, dsl.ExistsItem):
            for item in m.items_of_sort(phi.sort):
                rec(phi.body, {**env, phi.var: item}, bound + [(phi.var, item)])
        elif isinstance(phi, dsl.ExistsPath):
            for p in paths:
                rec(phi.body, {**env, phi.var: p}, bound + [(phi.var, p)])
        elif naive_eval(m, phi, dict(env), paths=paths, closure=closure):
            out.append(tuple(bound))

    rec(phi, {}, [])
    return out


def as_tuples(found):
    return [tuple((var, b.connectors if isinstance(b, Path) else b)
                  for var, b in w.bindings) for w in found]


def has_path_quantifier(phi):
    if isinstance(phi, dsl.ExistsPath):
        return True
    if isinstance(phi, (dsl.ExistsItem, dsl.Not)):
        return has_path_quantifier(phi.body)
    if isinstance(phi, dsl.Or):
        return has_path_quantifier(phi.left) or has_path_quantifier(phi.right)
    return False


def leading_quantifiers(phi):
    while isinstance(phi, (dsl.ExistsItem, dsl.ExistsPath)):
        yield phi
        phi = phi.body


def test_guard_pruning_leaves_witnesses_unchanged():
    rng = random.Random(77)
    with_paths = guarded = 0
    for _ in range(320):
        m = random_model(rng)
        phi = random_closed_formula(rng, m, depth=4)
        with_paths += has_path_quantifier(phi)
        guarded += any(dsl.guards(q) for q in leading_quantifiers(phi))
        expected = prefix_bindings(m, phi)
        assert as_tuples(witnesses(m, phi, "r")) == expected
        assert as_tuples(witnesses(m, phi, "r", cap=3)) == expected[:3]
    assert with_paths >= 60
    assert guarded >= 60


def test_smarthome_detection(smarthome, iot_rules):
    firewall, spoofing = iot_rules
    assert evaluate(smarthome, firewall.formula)
    assert evaluate(smarthome, spoofing.formula)
    ws = witnesses(smarthome, firewall.formula, firewall.name)
    assert [dict(w.bindings) for w in ws] == [{"e": "46"}]
    ws = witnesses(smarthome, spoofing.formula, spoofing.name)
    assert [dict(w.bindings) for w in ws] == [{"c": "1", "e1": "2", "e2": "6"}]


def test_motivating_brute_force(motivating, two_rules):
    formulas = [r.formula for r in two_rules]
    got = brute_force_min_repair(motivating, formulas)
    assert got is not None
    cost, valuation = got
    assert cost == Fraction(20)
    assert valuation[("webserver", "Data Encryption")] == "Weak"
    assert valuation[("webserver", "Data Logging")] == "Yes"
    fixed = motivating.with_valuation(valuation)
    assert all(not evaluate(fixed, f) for f in formulas)


def test_brute_force_agrees_with_independent_minimum():
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        m = random_model(rng, max_elements=3, max_connectors=3,
                         max_attrs=2, max_domain=2)
        if len(m.valuation) > 6:
            continue
        formulas = [random_closed_formula(rng, m, depth=3) for _ in range(2)]
        got = brute_force_min_repair(m, formulas)
        want = naive_min_repair(m, formulas)
        if got is None:
            assert want is None
        else:
            assert got[0] == want
        checked += 1


def test_brute_force_unrepairable_returns_none():
    m = k3()
    phi = dsl.parse_formula('exists element e . type(e) = "N"')
    assert brute_force_min_repair(m, [phi]) is None


def test_brute_force_bound():
    rng = random.Random(1)
    m = random_model(rng, max_elements=5, max_attrs=3, max_domain=3)
    while len(m.valuation) < 3:
        m = random_model(rng, max_elements=5, max_attrs=3, max_domain=3)
    with pytest.raises(OracleBoundError):
        brute_force_min_repair(m, [], bound=1)
