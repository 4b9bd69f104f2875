import json

import pytest

from threatfix import dsl, load_costs, parse_model, repair_wcnf
from threatfix.smtlib import emit_smtlib

from conftest import data_text


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
    # rules go in positively, tagged as zero-weight objectives
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
