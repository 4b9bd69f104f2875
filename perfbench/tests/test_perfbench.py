"""Tests of the benchmark itself: generator, expected answers, checks, tracing.

    python3 -m pytest perfbench/tests -q
"""
import contextlib
import io
import json
import random
from dataclasses import replace
from math import lcm

import pytest

import checks
import generator as G
import run
import tracing
from threatfix import cli, dsl, evaluate, load_costs, parse_model

SMALL = {
    "paths": G.Spec(5, 2, ("two", "path", "negpath")),
    "items": G.Spec(5, 3, ("items", "noattr"), item_rules=12, channel=True),
    "repair": G.Spec(5, 2, run.REPAIR_MIX, item_rules=1, denominators=run.LCM12),
}


def files(inst):
    return inst.model_json(), inst.rules_text(), inst.costs_csv()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generator_is_deterministic(name):
    spec = run.WORKLOADS[name].spec
    for index in range(4):
        a = G.make_instance(run.instance_seed(7, index), spec)
        b = G.make_instance(run.instance_seed(7, index), spec)
        c = G.make_instance(run.instance_seed(8, index), spec)
        assert files(a) == files(b)
        assert files(a) != files(c)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_expected_verdicts_agree_with_evaluate(kind):
    """The plain-Python expected functions match the reference semantics."""
    verdicts = set()
    for seed in range(40):
        inst = G.make_instance(seed, SMALL[kind])
        m = parse_model(inst.model_json())
        parsed = dsl.parse_rules(inst.rules_text())
        assert [r.name for r in parsed] == [r.name for r in inst.rules]
        for spec, rule in zip(inst.rules, parsed):
            want = evaluate(m, rule.formula)
            assert spec.expected(inst.graph, inst.valuation) == want, (seed, spec.name)
            verdicts.add(want)
    # both verdicts occur, so agreement is not vacuous
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_safe_valuation_falsifies_attribute_rules(kind):
    for seed in range(20):
        inst = G.make_instance(seed, SMALL[kind])
        safe = G.safe_valuation(inst)
        for r in inst.rules:
            if r.has_attr:
                assert not r.expected(inst.graph, safe), (seed, r.name)


def test_cost_table_lcm():
    for seed in range(20):
        inst = G.make_instance(seed, SMALL["repair"])
        assert lcm(*(c.denominator for c in inst.costs.values())) == 12
        m = load_costs(parse_model(inst.model_json()), inst.costs_csv())
        for (item, attr), old in inst.valuation.items():
            for new in G.DOMAINS[attr]:
                assert m.cost(item, attr, old, new) == inst.cost(item, attr, old, new)


class CorruptingCli:
    """Runs the real CLI, then edits its JSON report."""

    def __init__(self, edit):
        self.edit = edit

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        report = json.loads(out.getvalue())
        self.edit(report)
        print(json.dumps(report))
        return code


def answers(workload, client, tmp_path, monkeypatch, index=0):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    w = run.WORKLOADS[workload]
    inputs = run.Inputs(replace(w, spec=replace(w.spec, n=5)), 1)
    try:
        return run.serve(client, inputs, index)
    finally:
        inputs.close()


def test_clean_reports_pass(tmp_path, monkeypatch):
    for workload in run.WORKLOADS:
        for o in answers(workload, cli, tmp_path, monkeypatch):
            assert o.problems == []


def test_flipped_matched_is_a_failure(tmp_path, monkeypatch):
    def flip(report):
        report["rules"][0]["matched"] = not report["rules"][0]["matched"]

    outcomes = answers("check-paths", CorruptingCli(flip), tmp_path, monkeypatch)
    assert run.report_failures(outcomes) == 1
    assert any("matched" in p for p in outcomes[0].problems)


def test_altered_total_cost_is_a_failure(tmp_path, monkeypatch):
    def bump(report):
        report["totalCost"] = str(checks._cost(report["totalCost"]) + 1)

    outcomes = answers("repair-costs", CorruptingCli(bump), tmp_path, monkeypatch)
    assert run.report_failures(outcomes) == 2
    assert all(any("totalCost" in p for p in o.problems) for o in outcomes)


def test_repair_that_leaves_a_match_is_a_failure(tmp_path, monkeypatch):
    def undo(report):
        report["changes"] = []
        report["totalCost"] = 0

    # find an instance whose partial repair changes something
    for index in range(20):
        outcomes = answers("repair-costs", CorruptingCli(undo), tmp_path, monkeypatch,
                           index)
        if outcomes[0].problems:
            assert any("still matches" in p for p in outcomes[0].problems)
            return
    pytest.fail("no generated instance needed a repair")


def test_traced_counts_repeat(tmp_path, monkeypatch):
    def counts():
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            for workload in run.WORKLOADS:
                assert all(not o.problems for o in
                           answers(workload, cli, tmp_path, monkeypatch))
        return {k: v for k, v in tracing.layer_metrics(tracer.spans).items()
                if not k.endswith("_s")}

    first = counts()
    assert first["encoder.grounders"] > 0 and first["sat.maxsat_solves"] > 0
    assert counts() == first
    # wrappers are removed again
    assert not hasattr(cli.main, "__wrapped__")


def test_random_specs_agree_with_evaluate():
    """Random knob settings, including the multiplier, stay consistent."""
    rng = random.Random(0)
    for _ in range(10):
        spec = G.Spec(rng.randint(3, 6), rng.randint(0, 3),
                      tuple(rng.sample(["two", "path", "negpath", "items", "noattr"], 2)),
                      multiplier=rng.randint(1, 2), item_rules=2, channel=rng.random() < .5)
        inst = G.make_instance(rng.randint(0, 10 ** 6), spec)
        m = parse_model(inst.model_json())
        rules = dsl.parse_rules(inst.rules_text())
        assert len({r.name for r in rules}) == len(rules)
        for r_spec, rule in zip(inst.rules, rules):
            assert r_spec.expected(inst.graph, inst.valuation) == evaluate(m, rule.formula)
