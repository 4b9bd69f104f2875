import itertools
import json
import random
import re

import pytest

from threatfix import ModelError, dsl, load_costs, parse_model, repair_wcnf
from threatfix.smtlib import emit_smtlib

from conftest import DATA, data_text, naive_eval, random_closed_formula, random_model

GOLDEN = DATA / "golden"


def costed_motivating():
    m = parse_model(data_text("motivating.json"))
    return load_costs(m, data_text("enc.csv"))


def test_emission_is_deterministic(smarthome, iot_rules):
    first = emit_smtlib(smarthome, iot_rules, mode="check")
    second = emit_smtlib(smarthome, iot_rules, mode="check")
    assert first == second
    assert emit_smtlib(smarthome, iot_rules, mode="repair") == \
        emit_smtlib(smarthome, iot_rules, mode="repair")


def test_check_and_repair_modes_differ(smarthome, iot_rules):
    chk = emit_smtlib(smarthome, iot_rules, mode="check")
    rep = emit_smtlib(smarthome, iot_rules, mode="repair")
    assert chk != rep
    assert "(get-objectives)" in rep and "(get-objectives)" not in chk
    assert "assert-soft" in rep and "assert-soft" not in chk
    assert chk.startswith("; system model encoding\n")
    assert chk.endswith("\n")


def test_check_mode_pins_and_rule_asserts(motivating, two_rules):
    chk = emit_smtlib(motivating, two_rules, mode="check")
    # current valuation pinned cell by cell
    assert "(assert (= (elem-attr |webserver| |a.Data Encryption|) |v.None|))" in chk
    assert "(assert (= (elem-attr |webserver| |a.Data Logging|) |v.Yes|))" in chk
    # rules go in positively; the outer body carries a :weight 0 annotation
    assert "; rule logging_without_encryption" in chk
    assert "(assert (exists ((e ElemId)) (! " in chk
    assert ":weight 0" in chk
    assert chk.rstrip().endswith("(get-model)")


def test_repair_mode_negates_rules_and_scales_weights(two_rules):
    m = costed_motivating()
    rep = emit_smtlib(m, two_rules, mode="repair")
    assert "(assert (not (exists ((e ElemId))" in rep
    assert "(assert-soft (not (= (elem-attr |webserver| |a.Data Encryption|) " \
        "|v.Weak|)) :weight 20)" in rep
    assert "(assert-soft (not (= (elem-attr |webserver| |a.Data Encryption|) " \
        "|v.Strong|)) :weight 30)" in rep
    assert "(assert-soft (not (= (elem-attr |webserver| |a.Data Logging|) " \
        "|v.No|)) :weight 1)" in rep
    # repair mode constrains every cell to its domain instead of pinning it
    assert "(assert (= (elem-attr |webserver| |a.Data Encryption|) |v.None|))" not in rep
    assert "(or (= (elem-attr |webserver| |a.Data Encryption|) |v.None|) " in rep
    lines = [ln for ln in rep.splitlines() if ln.startswith("(")]
    assert lines[-3:] == ["(check-sat)", "(get-objectives)", "(get-model)"]


def test_fractional_costs_scale_to_integers():
    m = parse_model(data_text("motivating.json"))
    m = load_costs(m, (
        "item,attribute,from,to,cost\n"
        "webserver,Data Encryption,None,Weak,1/2\n"
        "webserver,Data Encryption,None,Strong,3/4\n"))
    rep = emit_smtlib(m, (), mode="repair")
    assert ":weight 2)" in rep    # 1/2 scaled by 4
    assert ":weight 3)" in rep
    assert ":weight 4)" in rep    # default 1 scaled by 4
    # a zero-cost row drops its assertion; both exports weigh the rest alike
    m = load_costs(m, "item,attribute,from,to,cost\nwebserver,Data Logging,Yes,No,0\n")
    rep = emit_smtlib(m, (), mode="repair")
    smt_weights = [int(ln.rsplit(" ", 1)[1].rstrip(")"))
                   for ln in rep.splitlines() if ln.startswith("(assert-soft ")]
    wcnf = repair_wcnf(m, ()).splitlines()
    top = int(wcnf[0].split()[4])
    wcnf_weights = [int(ln.split()[0]) for ln in wcnf[1:]
                    if int(ln.split()[0]) != top]
    assert smt_weights == wcnf_weights
    assert smt_weights and 0 not in smt_weights
    assert "Data Logging| |v.No|" not in rep   # the zero-cost assertion is dropped


def test_rule_types_and_slots(smarthome, iot_rules):
    chk = emit_smtlib(smarthome, iot_rules, mode="check")
    assert "(= (conn-type c) |t.Internet Connection|)" in chk
    assert "(= (src c) e1)" in chk and "(= (tgt c) e2)" in chk


def test_path_rules_expand_to_slots(motivating, two_rules):
    chk = emit_smtlib(motivating, two_rules, mode="check")
    n = len(motivating.elements)
    assert f"(<= p.len {n - 1})" in chk
    assert "(p.1 ConnId)" in chk and f"(p.{n - 1} ConnId)" in chk
    assert "(p.len Int)" in chk
    assert "(= (tgt p.1) (src p.2))" in chk          # chaining
    assert "(not (= (tgt p.1) (src p.1)))" in chk    # acyclicity


def chain_model(n):
    """Elements e1..en joined by connectors c1..c(n-1), ci from ei to ei+1."""
    doc = {
        "meta": {"elementTypes": ["T"], "connectorTypes": ["C"],
                 "assetTypes": [], "boundaryTypes": [], "attributes": []},
        "elements": [{"id": f"e{i}", "type": "T", "attrs": {}} for i in range(1, n + 1)],
        "connectors": [{"id": f"c{i}", "type": "C", "source": f"e{i}",
                        "target": f"e{i + 1}", "attrs": {}} for i in range(1, n)],
        "assets": [], "boundaries": [],
    }
    return parse_model(json.dumps(doc))


def rule_forms(m, text):
    """The check-mode assertion of each rule, read back as nested lists."""
    out = emit_smtlib(m, dsl.parse_rules(text), mode="check")
    return {rule: form[1] for rule, form in read_smtlib(out) if form[0] == "assert" and rule}


def test_single_element_model_renders_path_rules_false():
    forms = rule_forms(chain_model(1), (
        "rule top : exists path p . exists element e . src(p) = e\n"
        "rule inner : exists element e . exists path p . src(p) = e\n"))
    assert forms["top"] == "false"
    assert forms["inner"] == ["exists", [["e", "ElemId"]], ["!", "false", ":weight", "0"]]


def test_path_quantifier_binds_slots_then_guards_then_body():
    forms = rule_forms(chain_model(4),
                       "rule r : exists path p . exists element e . src(p) = e\n")
    head, binders, (conj, low, high, (inner_and, *guards, body)) = forms["r"]
    assert head == "exists" and conj == inner_and == "and"
    assert binders == [["p.1", "ConnId"], ["p.2", "ConnId"], ["p.3", "ConnId"],
                       ["p.len", "Int"]]
    assert low == ["<=", "1", "p.len"] and high == ["<=", "p.len", "3"]
    assert len(guards) == 3                  # one per slot
    for i, (op, (_, active), (_, *parts)) in enumerate(guards, start=1):
        assert op == "or" and active == ["<=", str(i), "p.len"]
        acyclic = [["not", ["=", ["tgt", f"p.{i}"], ["src", f"p.{j}"]]]
                   for j in range(1, i + 1)]
        chain = [["=", ["tgt", f"p.{i - 1}"], ["src", f"p.{i}"]]] if i >= 2 else []
        assert parts == acyclic + chain
    assert body == ["exists", [["e", "ElemId"]], ["=", ["src", "p.1"], "e"]]


def test_path_target_is_a_disjunction_over_lengths():
    m = chain_model(4)
    out = emit_smtlib(m, dsl.parse_rules(
        "rule r : exists path p . exists element e . tgt(p) = e\n"), mode="check")
    assert ("(or (and (= p.len 1) (= (tgt p.1) e)) (and (= p.len 2) (= (tgt p.2) e)) "
            "(and (= p.len 3) (= (tgt p.3) e)))") in out


def test_in_path_reads_slots_by_the_variable_sort():
    out = emit_smtlib(chain_model(3), dsl.parse_rules(
        "rule conn : exists path p . exists connector c . c in p\n"
        "rule elem : exists path p . exists element e . e in p\n"), mode="check")
    assert "(or (and (<= 1 p.len) (= p.1 c)) (and (<= 2 p.len) (= p.2 c)))" in out
    assert ("(or (and (<= 1 p.len) (or (= (src p.1) e) (= (tgt p.1) e))) "
            "(and (<= 2 p.len) (or (= (src p.2) e) (= (tgt p.2) e))))") in out


GOLDEN_CASES = {
    "smarthome": ("smarthome.json", None, "iot.tl"),
    "motivating": ("motivating.json", "enc.csv", "two.tl"),
    "smarthome-paths": ("smarthome.json", None, "paths.tl"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_exports_match_golden_files(name):
    model, costs, rules = GOLDEN_CASES[name]
    m = parse_model(data_text(model))
    if costs:
        m = load_costs(m, data_text(costs))
    rules = dsl.parse_rules(data_text(rules))
    for mode in ("check", "repair"):
        want = (GOLDEN / f"{name}.{mode}.smt2").read_text(encoding="utf-8")
        assert emit_smtlib(m, rules, mode=mode) == want
    assert repair_wcnf(m, rules) == (GOLDEN / f"{name}.wcnf").read_text(encoding="utf-8")


# -- an independent reading of check-mode exports ------------------------------

_TOKEN = re.compile(r"; rule (\S+)|;[^\n]*|[()]|\|[^|]*\||[^\s()]+")


def read_smtlib(text):
    """Top-level forms as nested lists, each paired with the rule it follows."""
    stack, forms, rule = [[]], [], None
    for match in _TOKEN.finditer(text):
        tok = match.group(0)
        if match.group(1):
            rule = match.group(1)
        elif tok.startswith(";"):
            continue
        elif tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            if len(stack) == 1:
                forms.append((rule, done))
            else:
                stack[-1].append(done)
        else:
            stack[-1].append(tok.strip("|"))
    return forms


def smt_rule_truths(text):
    """Truth of each rule assertion, over function tables read from the facts."""
    sorts, funs, truths = {}, {}, {}

    def ev(e, env):
        if isinstance(e, str):
            if e in env:
                return env[e]
            if e in ("true", "false"):
                return e == "true"
            return int(e) if e.isdigit() else e
        head, args = e[0], e[1:]
        if head == "exists":
            names = [name for name, _ in args[0]]
            domains = [range(len(sorts["ElemId"]) + 1) if sort == "Int" else sorts[sort]
                       for _, sort in args[0]]
            return any(ev(args[1], {**env, **dict(zip(names, values))})
                       for values in itertools.product(*domains))
        if head == "!":
            return ev(args[0], env)
        if head == "and":
            return all(ev(a, env) for a in args)
        if head == "or":
            return any(ev(a, env) for a in args)
        values = [ev(a, env) for a in args]
        if head == "not":
            return not values[0]
        if head == "xor":
            return values[0] != values[1]
        if head == "=":
            return values[0] == values[1]
        if head == "<=":
            return values[0] <= values[1]
        return funs[head][tuple(values)]

    for rule, form in read_smtlib(text):
        if form[0] == "declare-datatypes":
            sorts[form[1][0][0]] = [c[0] for c in form[2][0]]
        elif form[0] == "declare-fun":
            funs[form[1]] = {}
        elif form[0] == "assert" and rule is None:
            fact, value = form[1], True
            if fact[0] == "not":
                fact, value = fact[1], False
            elif fact[0] == "=":
                fact, value = fact[1], fact[2]
            funs[fact[0]][tuple(fact[1:])] = value
        elif form[0] == "assert":
            truths[rule] = ev(form[1], {})
    return truths


def test_check_export_agrees_with_the_rule_semantics():
    rng = random.Random(97)
    path_rules = dsl.parse_rules(data_text("paths.tl"))
    # random formulas alone miss a dropped acyclicity or chaining guard; the
    # fixed path rules catch both
    for k in range(460):
        if k < 400:
            m = random_model(rng, max_elements=5, max_connectors=6)
            rules = (dsl.Rule("r", random_closed_formula(rng, m, depth=4)),)
        else:
            m = random_model(rng, max_elements=4, max_connectors=6)
            rules = path_rules
        truths = smt_rule_truths(emit_smtlib(m, rules, mode="check"))
        assert truths == {r.name: naive_eval(m, r.formula) for r in rules}, \
            dsl.print_rules(rules)


def test_symbol_collisions_are_rejected():
    doc = {
        "meta": {"elementTypes": ["Host"], "connectorTypes": [],
                 "assetTypes": [], "boundaryTypes": [], "attributes": []},
        "elements": [{"id": i, "type": "Host", "attrs": {}} for i in ("a|b", "a_b")],
        "connectors": [], "assets": [], "boundaries": [],
    }
    with pytest.raises(ModelError, match=r"element 'a_b' and element 'a\|b' both "
                                         r"export as SMT-LIB symbol \|a_b\|"):
        emit_smtlib(parse_model(json.dumps(doc)), (), mode="check")
    doc["elements"] = [{"id": "t.Host", "type": "Host", "attrs": {}}]
    with pytest.raises(ModelError, match="element 't.Host' and element type 'Host'"):
        emit_smtlib(parse_model(json.dumps(doc)), (), mode="repair")


def test_sentinel_value_is_uniquified():
    doc = {
        "meta": {"elementTypes": ["T"], "connectorTypes": [],
                 "assetTypes": [], "boundaryTypes": [],
                 "attributes": [{"name": "x", "domain": ["NoValue", "other"],
                                 "appliesTo": ["T"]}]},
        "elements": [{"id": "e1", "type": "T", "attrs": {"x": "NoValue"}}],
        "connectors": [], "assets": [], "boundaries": [],
    }
    m = parse_model(json.dumps(doc))
    out = emit_smtlib(m, (), mode="check")
    assert "|v.NoValue_|" in out           # the sentinel moved aside
    assert "(assert (= (elem-attr |e1| |a.x|) |v.NoValue|))" in out


def test_identifier_quoting():
    doc = {
        "meta": {"elementTypes": ["Weird|Type"], "connectorTypes": [],
                 "assetTypes": [], "boundaryTypes": [], "attributes": []},
        "elements": [{"id": "spaced id", "type": "Weird|Type", "attrs": {}}],
        "connectors": [], "assets": [], "boundaries": [],
    }
    m = parse_model(json.dumps(doc))
    out = emit_smtlib(m, (), mode="check")
    assert "|spaced id|" in out
    assert "Weird|Type" not in out          # the bar cannot appear inside |..|
    assert "|t.Weird_Type|" in out


def test_empty_sort_quantifier_renders_false():
    doc = {
        "meta": {"elementTypes": ["T"], "connectorTypes": ["C"],
                 "assetTypes": [], "boundaryTypes": [], "attributes": []},
        "elements": [{"id": "e1", "type": "T", "attrs": {}}],
        "connectors": [], "assets": [], "boundaries": [],
    }
    m = parse_model(json.dumps(doc))
    rules = (dsl.Rule("r", dsl.parse_formula(
        'exists connector c . exists element e . src(c) = e')),)
    out = emit_smtlib(m, rules, mode="check")
    assert "(assert false)" in out
    assert "ConnId" not in out              # the empty sort is never declared


def test_unknown_mode_rejected(smarthome, iot_rules):
    with pytest.raises(ValueError):
        emit_smtlib(smarthome, iot_rules, mode="optimize")
