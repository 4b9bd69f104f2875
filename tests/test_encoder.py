import itertools
import json
import random
from fractions import Fraction

import pytest

from threatfix import dsl, parse_model
from threatfix.encoder import Grounder, render_wcnf, scale_costs
from threatfix.engine import minimal_repair
from threatfix.sat import SolverStack, solve_clauses
from threatfix.semantics import enumerate_paths, evaluate

from conftest import (
    naive_closure, naive_eval, naive_min_repair, naive_paths, probe_paths,
    random_closed_formula, random_model,
)


def k3():
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


def detect(m, phi):
    """Pin the current valuation and ask whether phi is satisfiable."""
    g = Grounder(m)
    stack = SolverStack()
    stack.add(g.base_clauses)
    stack.add(g.pin_clauses())
    stack.add(g.ground(phi))
    return stack.solve()


def test_detection_matches_oracle_fuzz():
    rng = random.Random(41)
    for _ in range(250):
        m = random_model(rng)
        phi = random_closed_formula(rng, m, depth=4)
        verdict = detect(m, phi)
        assert verdict in ("sat", "unsat")
        assert (verdict == "sat") == naive_eval(m, phi)


def test_base_plus_pins_decode_to_current_valuation():
    rng = random.Random(43)
    for _ in range(30):
        m = random_model(rng)
        g = Grounder(m)
        stack = SolverStack()
        stack.add(g.base_clauses)
        stack.add(g.pin_clauses())
        assert stack.solve() == "sat"
        model = stack.model()
        padded = model + [False] * (g.vt.next_var - len(model))
        assert g.decode_valuation(padded) == dict(m.valuation)


def test_exactly_one_rejects_double_assignment():
    rng = random.Random(47)
    m = random_model(rng, max_elements=3)
    while not m.valuation:
        m = random_model(rng, max_elements=3)
    g = Grounder(m)
    (item, attr) = g.vt.cells[0]
    domain = m.meta.attribute(attr).domain
    if len(domain) < 2:
        pytest.skip("one-value domain drawn")
    stack = SolverStack()
    stack.add(g.base_clauses)
    stack.add([[g.vt.attr[(item, attr, domain[0])]],
               [g.vt.attr[(item, attr, domain[1])]]])
    assert stack.solve() == "unsat"


def test_soft_assertions_enumerate_off_values(motivating):
    g = Grounder(motivating)
    softs = g.soft_assertions()
    cells = set(g.vt.cells)
    for sa in softs:
        assert (sa.item, sa.attr) in cells
        current = motivating.valuation[(sa.item, sa.attr)]
        assert sa.value != current
        assert sa.cost == motivating.cost(sa.item, sa.attr, current, sa.value)
        clause = g.soft_clause(sa)
        assert clause == [-g.vt.attr[(sa.item, sa.attr, sa.value)]]
    # webserver encryption: None -> Weak costs 20, None -> Strong 30
    by_key = {(sa.item, sa.attr, sa.value): sa.cost for sa in softs}
    assert by_key[("webserver", "Data Encryption", "Weak")] == 20
    assert by_key[("webserver", "Data Encryption", "Strong")] == 30
    counts = sum(len(motivating.meta.attribute(attr).domain) - 1
                 for _, attr in g.vt.cells)
    assert len(softs) == counts


def test_scale_costs():
    assert scale_costs([]) == 1
    assert scale_costs([Fraction(2), Fraction(7)]) == 1
    assert scale_costs([Fraction(1, 2), Fraction(3, 2)]) == 2
    assert scale_costs([Fraction(1, 3), Fraction(1, 4)]) == 12
    assert scale_costs([Fraction(5, 6), Fraction(3, 4)]) == 12


def test_slot_assignments_decode_to_exactly_the_paths():
    m = k3()
    found = probe_paths(m)
    assert len(found) == 12
    assert set(found) == set(enumerate_paths(m))
    rng = random.Random(53)
    hits = 0
    while hits < 25:
        m = random_model(rng)
        if len(m.elements) < 2 or not m.connectors:
            continue
        found = probe_paths(m)
        want = enumerate_paths(m)
        assert len(found) == len(set(found)) == len(want)
        assert set(found) == set(want)
        hits += 1


def test_negative_path_quantifier_enumerates_concrete_paths():
    m = k3()
    phi = dsl.parse_formula(
        'not exists path p . exists element e . src(p) = e')
    g = Grounder(m)
    clauses = g.ground(phi)
    assert g.vt.groups == []         # no slot block for the negative side
    stack = SolverStack()
    stack.add(g.base_clauses)
    stack.add(g.pin_clauses())
    stack.add(clauses)
    # K3 has paths, so the negation contradicts the structure
    assert stack.solve() == "unsat"


def test_double_negated_path_quantifier_is_positive():
    m = k3()
    phi = dsl.parse_formula(
        'not not exists path p . exists element e . src(p) = e')
    assert detect(m, phi) == "sat"
    assert evaluate(m, phi)


def test_unknown_type_name_grounds_to_false():
    m = k3()
    phi = dsl.parse_formula('exists element e . type(e) = "Ghost"')
    assert detect(m, phi) == "unsat"
    phi = dsl.parse_formula('exists element e . val(e, "no_attr") = "x"')
    assert detect(m, phi) == "unsat"


# -- guard-first instantiation ---------------------------------------------------

def all_valuations(m):
    cells = sorted(m.valuation)
    domains = [m.meta.attribute(attr).domain for _, attr in cells]
    for values in itertools.product(*domains):
        yield dict(zip(cells, values))


def assert_grounding_agrees(m, phi):
    """Both polarities of phi match the oracle under every valuation."""
    paths, closure = naive_paths(m), naive_closure(m)
    verdicts = set()
    for valuation in all_valuations(m):
        mv = m.with_valuation(valuation)
        truth = naive_eval(mv, phi, paths=paths, closure=closure)
        verdicts.add(truth)
        assert (detect(mv, phi) == "sat") == truth
        assert (detect(mv, dsl.Not(phi)) == "sat") == (not truth)
    return verdicts


def quantifiers(phi):
    if isinstance(phi, (dsl.ExistsItem, dsl.ExistsPath)):
        yield phi
    if isinstance(phi, (dsl.ExistsItem, dsl.ExistsPath, dsl.Not)):
        yield from quantifiers(phi.body)
    elif isinstance(phi, dsl.Or):
        yield from quantifiers(phi.left)
        yield from quantifiers(phi.right)


def guards_by_var(phi):
    return {q.var: set(dsl.guards(q)) for q in quantifiers(phi)}


def test_negated_guard(motivating):
    phi = dsl.parse_formula(
        'exists connector c . exists element e . not src(c) = e and '
        'type(e) = "WebServer" and val(e, "Data Logging") = "Yes"')
    assert guards_by_var(phi)["e"] == {dsl.Not(dsl.SrcIs("c", "e")),
                                       dsl.TypeIs("e", "WebServer")}
    assert assert_grounding_agrees(motivating, phi) == {True, False}


def test_guard_under_forall(motivating):
    phi = dsl.parse_formula(
        'exists element e . exists asset a . type(e) = "WebServer" and '
        'val(e, "Data Logging") = "No" and '
        'forall connector c . src(c) = e implies holds(c, a)')
    inner = next(q for q in quantifiers(phi) if q.var == "c")
    assert inner.body == dsl.Not(dsl.Or(dsl.Not(dsl.SrcIs("c", "e")),
                                        dsl.Holds("c", "a")))
    assert set(dsl.guards(inner)) == {dsl.SrcIs("c", "e"),
                                      dsl.Not(dsl.Holds("c", "a"))}
    assert assert_grounding_agrees(motivating, phi) == {True, False}


def test_conjunct_with_inner_variable_is_not_hoisted(motivating):
    phi = dsl.parse_formula(
        'exists element e1 . exists connector c . exists element e2 . '
        'src(c) = e1 and tgt(c) = e2 and type(e1) = "MobilePhone" and '
        'val(e2, "Data Logging") = "No"')
    assert guards_by_var(phi) == {
        "e1": {dsl.TypeIs("e1", "MobilePhone")},
        "c": {dsl.SrcIs("c", "e1")},
        "e2": {dsl.TgtIs("c", "e2")},
    }
    assert assert_grounding_agrees(motivating, phi) == {True, False}


def test_path_guard_in_negative_polarity(motivating, two_rules):
    rule = two_rules[1]   # phone_reaches_unlogged_server
    assert guards_by_var(rule.formula)["e1"] == {
        dsl.PathSrcIs("p", "e1"), dsl.TypeIs("e1", "MobilePhone")}
    assert assert_grounding_agrees(motivating, rule.formula) == {True, False}
    report = minimal_repair(motivating, [rule])
    assert report.status == "sat"
    assert report.total_cost == naive_min_repair(motivating, [rule.formula])


def test_guards_rejecting_every_candidate_ground_to_false(motivating):
    phi = dsl.parse_formula(
        'exists element e . type(e) = "Ghost" and val(e, "Data Logging") = "Yes"')
    assert Grounder(motivating).ground(phi) == [[]]
    assert Grounder(motivating).ground(dsl.Not(phi)) == []
    assert assert_grounding_agrees(motivating, phi) == {False}


def test_decode_valuation_rejects_ambiguous_model(motivating):
    g = Grounder(motivating)
    model = [False] * g.vt.next_var
    (item, attr) = g.vt.cells[0]
    for v in motivating.meta.attribute(attr).domain:
        model[g.vt.attr[(item, attr, v)]] = True
    with pytest.raises(ValueError, match="decodes to"):
        g.decode_valuation(model)


def test_render_wcnf_golden():
    text = render_wcnf(3, [[1, -2]], [([-3], 4), ([2], 1)])
    assert text == ("p wcnf 3 3 6\n"
                    "6 1 -2 0\n"
                    "4 -3 0\n"
                    "1 2 0\n")


def test_render_wcnf_top_invariant():
    rng = random.Random(59)
    for _ in range(50):
        softs = [([rng.choice([-2, -1, 1, 2])], rng.randint(1, 9))
                 for _ in range(rng.randint(0, 6))]
        text = render_wcnf(2, [[1]], softs)
        header = text.splitlines()[0].split()
        assert int(header[4]) == 1 + sum(w for _, w in softs)
