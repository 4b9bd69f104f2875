import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

from threatfix import dsl, load_costs, parse_model
from threatfix.engine import (
    Change, EngineConfig, apply_repair, check, cost_json,
    heuristic_partial_repair, minimal_repair, partial_repair, repair,
    repair_wcnf,
)
from threatfix.model import ModelError
from threatfix.semantics import brute_force_min_repair, evaluate

from conftest import data_text, random_closed_formula, random_costs, random_model

EXACT = EngineConfig(mode="exact")
HEURISTIC = EngineConfig(mode="heuristic")


def single_attr_model(attrs, values, types=("Node",)):
    """One element n1 with the given attribute definitions and values."""
    doc = {
        "meta": {"elementTypes": list(types), "connectorTypes": [],
                 "assetTypes": [], "boundaryTypes": [],
                 "attributes": [{"name": name, "domain": list(domain),
                                 "appliesTo": [types[0]]}
                                for name, domain in attrs]},
        "elements": [{"id": "n1", "type": types[0], "attrs": dict(values)}],
        "connectors": [], "assets": [], "boundaries": [],
    }
    return parse_model(json.dumps(doc))


def gap_instance():
    m = single_attr_model(
        [("G", ["bad", "ok1", "ok2"]), ("H", ["bad", "ok"])],
        {"G": "bad", "H": "bad"})
    m = load_costs(m, (
        "item,attribute,from,to,cost\n"
        "n1,G,bad,ok1,6\n"
        "n1,G,bad,ok2,9\n"
        "n1,G,ok1,ok2,99\n"
        "n1,G,ok2,ok1,99\n"
        "n1,H,bad,ok,5\n"))
    rules = dsl.parse_rules(
        'rule r1 : exists element e . val(e, "G") = "bad"\n'
        'rule r2 : exists element e . '
        'not val(e, "G") = "ok2" and val(e, "H") = "bad"\n')
    return m, rules


def fob_instance():
    m = single_attr_model([("a", ["A", "B"])], {"a": "A"}, types=("KeyFob",))
    rules = dsl.parse_rules(
        'rule r1 : exists element e . val(e, "a") = "A"\n'
        'rule r2 : exists element e . val(e, "a") = "B"\n')
    return m, rules


# -- detection ------------------------------------------------------------------


def test_check_smarthome(smarthome, iot_rules):
    report = check(smarthome, iot_rules)
    assert report.status == "sat"
    firewall, spoofing = report.results
    assert firewall.rule == "firewall_activity_logging" and firewall.matched
    assert [dict(w.bindings) for w in firewall.witnesses] == [{"e": "46"}]
    assert spoofing.matched
    assert [dict(w.bindings) for w in spoofing.witnesses] == \
        [{"c": "1", "e1": "2", "e2": "6"}]


def test_check_motivating(motivating, two_rules):
    report = check(motivating, two_rules)
    logging_rule, phone_rule = report.results
    assert logging_rule.matched
    assert [dict(w.bindings) for w in logging_rule.witnesses] == [{"e": "webserver"}]
    assert not phone_rule.matched
    assert phone_rule.witnesses == ()


def test_check_parallel_equals_serial(smarthome, iot_rules):
    serial = check(smarthome, iot_rules)
    parallel = check(smarthome, iot_rules, EngineConfig(jobs=3))
    assert parallel == serial


def test_check_matches_oracle_fuzz():
    rng = random.Random(61)
    for _ in range(60):
        m = random_model(rng)
        rules = tuple(dsl.Rule(f"r{i}", random_closed_formula(rng, m, depth=3))
                      for i in range(3))
        report = check(m, rules)
        for result, rule in zip(report.results, rules):
            assert result.matched == evaluate(m, rule.formula)
            assert bool(result.witnesses) == result.matched


def test_check_witness_cap(smarthome):
    rules = (dsl.Rule("conn", dsl.parse_formula(
        'exists connector c . exists element e . src(c) = e')),)
    capped = check(smarthome, rules, EngineConfig(max_witnesses=3))
    assert len(capped.results[0].witnesses) == 3
    assert len(check(smarthome, rules).results[0].witnesses) == 10


def test_check_unknown_on_budget(smarthome):
    rules = (dsl.Rule("loop", dsl.parse_formula(
        'exists path p . exists element e . src(p) = e and tgt(p) = e')),)
    assert check(smarthome, rules).results[0].verdict == "unsat"
    budgeted = check(smarthome, rules, EngineConfig(conflict_budget=0))
    assert budgeted.results[0].verdict == "unknown"
    assert budgeted.status == "unknown"


# -- exact repair -----------------------------------------------------------------


def test_minimal_repair_motivating(motivating, two_rules):
    report = minimal_repair(motivating, two_rules)
    assert report.status == "sat"
    assert report.total_cost == Fraction(20)
    assert report.repaired == ("logging_without_encryption",)
    assert report.no_threat == ("phone_reaches_unlogged_server",)
    assert report.unrepairable == ()
    assert report.changes == (Change("webserver", "Data Encryption",
                                     "None", "Weak", Fraction(20)),)
    # logging stays on: the cheap flip is not the optimal one
    assert all(c.attr != "Data Logging" for c in report.changes)


def test_minimal_repair_agrees_with_brute_force_motivating(motivating, two_rules):
    formulas = [r.formula for r in two_rules]
    brute = brute_force_min_repair(motivating, formulas)
    report = minimal_repair(motivating, two_rules)
    assert brute is not None and report.total_cost == brute[0]


def test_apply_repair_falsifies_everything(motivating, two_rules):
    report = minimal_repair(motivating, two_rules)
    fixed = apply_repair(motivating, report.changes)
    for rule in two_rules:
        assert not evaluate(fixed, rule.formula)
    again = minimal_repair(fixed, two_rules)
    assert again.status == "sat" and again.total_cost == 0 and again.changes == ()
    assert set(again.no_threat) == {r.name for r in two_rules}


def test_minimal_repair_unrepairable(smarthome, iot_rules):
    report = minimal_repair(smarthome, iot_rules)
    # ip_spoofing has no attribute predicate, so the joint problem is unsat
    assert report.status == "unsat"
    assert report.total_cost is None and report.changes == ()
    assert set(report.unrepairable) == {"firewall_activity_logging", "ip_spoofing"}
    assert [dict(w.bindings) for w in report.witnesses["ip_spoofing"]] == \
        [{"c": "1", "e1": "2", "e2": "6"}]


def test_minimal_repair_matches_brute_force_fuzz():
    rng = random.Random(67)
    checked = 0
    while checked < 60:
        m = random_model(rng, max_elements=4, max_connectors=4,
                         max_attrs=2, max_domain=3)
        if not (1 <= len(m.valuation) <= 6):
            continue
        m = load_costs(m, random_costs(rng, m))
        rules = tuple(dsl.Rule(f"r{i}", random_closed_formula(rng, m, depth=3))
                      for i in range(rng.randint(1, 3)))
        report = minimal_repair(m, rules)
        brute = brute_force_min_repair(m, [r.formula for r in rules])
        if report.status == "unsat":
            assert brute is None
        else:
            assert report.status == "sat"
            assert brute is not None
            assert report.total_cost == brute[0]
            fixed = apply_repair(m, report.changes)
            assert all(not evaluate(fixed, r.formula) for r in rules)
        checked += 1


# -- partial repair --------------------------------------------------------------


def test_partial_repair_smarthome(smarthome, iot_rules):
    report = partial_repair(smarthome, iot_rules)
    assert report.status == "sat"
    assert report.total_cost == Fraction(1)
    assert report.changes == (Change("46", "Activity Logging",
                                     "undefined", "Yes", Fraction(1)),)
    assert report.repaired == ("firewall_activity_logging",)
    assert report.unrepairable == ("ip_spoofing",)
    ws = report.witnesses["ip_spoofing"]
    assert [dict(w.bindings) for w in ws] == [{"c": "1", "e1": "2", "e2": "6"}]
    fixed = apply_repair(smarthome, report.changes)
    assert not evaluate(fixed, iot_rules[0].formula)
    assert evaluate(fixed, iot_rules[1].formula)   # structural threat stays


def test_partial_equals_exact_when_nothing_is_excluded(motivating, two_rules):
    assert partial_repair(motivating, two_rules).to_json() == \
        minimal_repair(motivating, two_rules).to_json()
    rng = random.Random(79)
    for _ in range(40):
        m = random_model(rng, max_elements=4, max_connectors=4,
                         max_attrs=2, max_domain=3)
        m = load_costs(m, random_costs(rng, m))
        rules = []
        while len(rules) < 2:
            phi = random_closed_formula(rng, m, depth=3)
            if dsl.has_attr(phi):
                rules.append(dsl.Rule(f"r{len(rules)}", phi))
        assert partial_repair(m, rules).to_json() == minimal_repair(m, rules).to_json()


def test_partial_repair_unsat_remainder():
    m, rules = fob_instance()
    report = partial_repair(m, rules)
    assert report.status == "unsat"
    assert report.repaired == () and report.changes == ()
    assert report.unrepairable == ("r1",)
    assert report.no_threat == ("r2",)
    assert [dict(w.bindings) for w in report.witnesses["r1"]] == [{"e": "n1"}]


def test_partial_repair_fuzz_invariants():
    rng = random.Random(71)
    for _ in range(40):
        m = random_model(rng, max_elements=4, max_connectors=4,
                         max_attrs=2, max_domain=3)
        rules = tuple(dsl.Rule(f"r{i}", random_closed_formula(rng, m, depth=3))
                      for i in range(2))
        report = partial_repair(m, rules)
        names = {r.name for r in rules}
        reported = set(report.no_threat) | set(report.repaired) | set(report.unrepairable)
        if report.status in ("sat", "unsat"):
            assert reported == names
        for name in report.unrepairable:
            assert report.witnesses.get(name)
        if report.status == "sat":
            fixed = apply_repair(m, report.changes)
            by_name = {r.name: r for r in rules}
            for name in report.repaired:
                assert not evaluate(fixed, by_name[name].formula)
            total = sum((c.cost for c in report.changes), Fraction(0))
            assert total == report.total_cost


def test_zero_cost_changes_are_reported_only_when_needed(motivating, two_rules):
    # a free logging flip must not ride along with the encryption fix; in
    # heuristic mode it would also re-trigger the settled phone rule
    m = load_costs(motivating, (
        "item,attribute,from,to,cost\n"
        "webserver,Data Encryption,None,Weak,20\n"
        "webserver,Data Encryption,None,Strong,30\n"
        "webserver,Data Logging,Yes,No,0\n"))
    enc_none = dsl.parse_rules(
        'rule enc_none : exists element e . '
        'type(e) = "WebServer" and val(e, "Data Encryption") = "None"\n')
    phone = tuple(r for r in two_rules if r.name == "phone_reaches_unlogged_server")
    fix = (Change("webserver", "Data Encryption", "None", "Weak", Fraction(20)),)
    for rules in (enc_none, phone + enc_none):
        for mode in ("exact", "partial", "heuristic"):
            report = repair(m, rules, EngineConfig(mode=mode))
            assert report.status == "sat"
            assert report.changes == fix and report.total_cost == Fraction(20)
            assert report.repaired == ("enc_none",) and report.unrepairable == ()


# -- heuristic repair -------------------------------------------------------------


def test_heuristic_smarthome(smarthome, iot_rules):
    report = heuristic_partial_repair(smarthome, iot_rules)
    assert report.status == "sat"
    assert report.total_cost == Fraction(1)
    assert report.changes == (Change("46", "Activity Logging",
                                     "undefined", "Yes", Fraction(1)),)
    assert report.repaired == ("firewall_activity_logging",)
    assert report.unrepairable == ("ip_spoofing",)


def test_heuristic_motivating_takes_the_greedy_trap(motivating, two_rules):
    report = heuristic_partial_repair(motivating, two_rules)
    assert report.status == "sat"
    # first rule is killed by the cheap logging flip, which then makes the
    # path rule fire against the evolved valuation
    assert report.total_cost == Fraction(1)
    assert report.changes == (Change("webserver", "Data Logging",
                                     "Yes", "No", Fraction(1)),)
    assert report.repaired == ("logging_without_encryption",)
    assert report.unrepairable == ("phone_reaches_unlogged_server",)
    assert report.no_threat == ()
    ws = report.witnesses["phone_reaches_unlogged_server"]
    assert dict(ws[0].bindings) == {"p": ["c8"], "e1": "phone", "e2": "webserver"} or \
        dict(ws[0].bindings)["e1"] == "phone"


def test_heuristic_gap_instance():
    m, rules = gap_instance()
    exact = minimal_repair(m, rules)
    assert exact.status == "sat" and exact.total_cost == Fraction(9)
    assert exact.changes == (Change("n1", "G", "bad", "ok2", Fraction(9)),)
    heur = heuristic_partial_repair(m, rules)
    assert heur.status == "sat" and heur.total_cost == Fraction(11)
    assert set((c.attr, c.new) for c in heur.changes) == {("G", "ok1"), ("H", "ok")}
    assert heur.repaired == ("r1", "r2") and heur.unrepairable == ()
    assert heur.total_cost > exact.total_cost


def test_heuristic_succeeds_where_partial_is_unsat():
    m, rules = fob_instance()
    assert partial_repair(m, rules).status == "unsat"
    report = heuristic_partial_repair(m, rules)
    assert report.status == "sat"
    assert report.total_cost == Fraction(1)
    assert report.repaired == ("r1",)
    assert report.unrepairable == ("r2",)
    assert report.changes == (Change("n1", "a", "A", "B", Fraction(1)),)


def test_heuristic_never_beats_exact_fuzz():
    rng = random.Random(73)
    compared = 0
    while compared < 30:
        m = random_model(rng, max_elements=4, max_connectors=4,
                         max_attrs=2, max_domain=3)
        if not m.valuation:
            continue
        m = load_costs(m, random_costs(rng, m))
        rules = tuple(dsl.Rule(f"r{i}", random_closed_formula(rng, m, depth=3))
                      for i in range(2))
        exact = minimal_repair(m, rules)
        heur = heuristic_partial_repair(m, rules)
        if exact.status != "sat" or heur.status != "sat" or heur.unrepairable:
            continue
        assert heur.total_cost >= exact.total_cost
        compared += 1


def test_heuristic_total_is_priced_from_the_original_valuation():
    m, rules = gap_instance()
    report = heuristic_partial_repair(m, rules)
    total = sum((m.cost(c.item, c.attr, c.old, c.new) for c in report.changes),
                Fraction(0))
    assert report.total_cost == total


# -- plumbing ---------------------------------------------------------------------


def test_repair_dispatch(motivating, two_rules):
    assert repair(motivating, two_rules, EXACT).total_cost == Fraction(20)
    assert repair(motivating, two_rules).total_cost == Fraction(20)   # partial default
    assert repair(motivating, two_rules, HEURISTIC).total_cost == Fraction(1)
    with pytest.raises(ValueError, match="unknown repair mode"):
        repair(motivating, two_rules, EngineConfig(mode="bogus"))


def test_repair_unknown_propagates(smarthome):
    rules = (dsl.Rule("loop", dsl.parse_formula(
        'exists path p . exists element e . src(p) = e and tgt(p) = e')),)
    budget = EngineConfig(conflict_budget=0)
    assert minimal_repair(smarthome, rules, budget).status == "unknown"
    assert partial_repair(smarthome, rules, budget).status == "unknown"
    assert heuristic_partial_repair(smarthome, rules, budget).status == "unknown"


def test_apply_repair_rejects_unknown_cell(motivating):
    change = Change("ghost", "Data Logging", "Yes", "No", Fraction(1))
    with pytest.raises(ModelError, match="unknown cell"):
        apply_repair(motivating, [change])


def test_cost_json():
    assert cost_json(None) is None
    assert cost_json(Fraction(3)) == 3
    assert cost_json(Fraction(1, 2)) == "1/2"


def test_report_json_shape(smarthome, iot_rules):
    doc = partial_repair(smarthome, iot_rules).to_json()
    assert doc["status"] == "sat"
    assert doc["totalCost"] == 1
    assert doc["changes"] == [{"item": "46", "attribute": "Activity Logging",
                               "from": "undefined", "to": "Yes", "cost": 1}]
    assert doc["rules"]["repaired"] == ["firewall_activity_logging"]
    assert doc["rules"]["noThreat"] == []
    unrep = doc["rules"]["unrepairable"]
    assert unrep[0]["name"] == "ip_spoofing"
    assert unrep[0]["witnesses"] == [{"c": "1", "e1": "2", "e2": "6"}]
    check_doc = check(smarthome, iot_rules).to_json()
    assert check_doc["status"] == "sat"
    assert check_doc["rules"][0]["witnesses"] == [{"e": "46"}]


def test_repair_wcnf_top_counts_soft_weight(motivating, two_rules):
    text = repair_wcnf(motivating, two_rules)
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split()
    assert header[:2] == ["p", "wcnf"]
    top = int(header[4])
    soft_sum = sum(int(ln.split()[0]) for ln in lines[1:]
                   if int(ln.split()[0]) != top)
    assert top == 1 + soft_sum
    n_clauses = int(header[3])
    assert n_clauses == len(lines) - 1


def formula_nodes(phi):
    yield phi
    if isinstance(phi, (dsl.Not, dsl.ExistsItem, dsl.ExistsPath)):
        yield from formula_nodes(phi.body)
    elif isinstance(phi, dsl.Or):
        yield from formula_nodes(phi.left)
        yield from formula_nodes(phi.right)


def test_no_cache_outlives_a_request(motivating):
    rules = dsl.parse_rules(data_text("two.tl"))
    refs = [weakref.ref(node) for rule in rules for node in formula_nodes(rule.formula)]
    reports = [check(motivating, rules)]
    for mode in ("exact", "partial", "heuristic"):
        reports.append(repair(motivating, rules, EngineConfig(mode=mode)))
    assert reports[0].status == "sat"
    assert all(r.status == "sat" for r in reports[1:])
    del rules, reports
    gc.collect()
    assert all(ref() is None for ref in refs)
