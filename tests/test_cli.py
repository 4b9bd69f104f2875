import json

import pytest

from threatfix.cli import main

from conftest import DATA

SMARTHOME = str(DATA / "smarthome.json")
IOT = str(DATA / "iot.tl")
MOTIVATING = str(DATA / "motivating.json")
TWO = str(DATA / "two.tl")
ENC = str(DATA / "enc.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_text(capsys):
    code, out, err = run(capsys, "check", "--model", SMARTHOME, "--rules", IOT)
    assert code == 1
    assert "rule firewall_activity_logging: threat found" in out
    assert "  witness: e = 46" in out
    assert "rule ip_spoofing: threat found" in out
    assert "  witness: c = 1, e1 = 2, e2 = 6" in out
    assert err == ""


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--model", SMARTHOME, "--rules", IOT,
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "sat"
    assert doc["rules"][0]["name"] == "firewall_activity_logging"
    assert doc["rules"][0]["witnesses"] == [{"e": "46"}]
    assert doc["rules"][1]["witnesses"] == [{"c": "1", "e1": "2", "e2": "6"}]


def test_check_clean_model_exits_zero(capsys, tmp_path):
    rules = tmp_path / "none.tl"
    rules.write_text('rule none : exists element e . type(e) = "Ghost"\n')
    code, out, _ = run(capsys, "check", "--model", SMARTHOME,
                       "--rules", str(rules))
    assert code == 0
    assert out == "rule none: no threat\n"


def test_explain_lists_witnesses(capsys):
    code, out, _ = run(capsys, "explain", "--model", SMARTHOME, "--rules", IOT)
    assert code == 1
    assert "witness: e = 46" in out


def test_check_jobs_flag(capsys):
    code, out, _ = run(capsys, "check", "--model", SMARTHOME, "--rules", IOT,
                       "--jobs", "2", "--seed", "5")
    assert code == 1
    assert "threat found" in out


def test_repair_default_partial(capsys):
    code, out, _ = run(capsys, "repair", "--model", SMARTHOME, "--rules", IOT,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "sat"
    assert doc["totalCost"] == 1
    assert doc["changes"] == [{"item": "46", "attribute": "Activity Logging",
                               "from": "undefined", "to": "Yes", "cost": 1}]
    assert doc["rules"]["repaired"] == ["firewall_activity_logging"]
    unrep = doc["rules"]["unrepairable"]
    assert [u["name"] for u in unrep] == ["ip_spoofing"]
    assert unrep[0]["witnesses"] == [{"c": "1", "e1": "2", "e2": "6"}]


def test_repair_exact_unsat_exits_one(capsys):
    code, out, _ = run(capsys, "repair", "--model", SMARTHOME, "--rules", IOT,
                       "--mode", "exact")
    assert code == 1
    assert "status: unsat" in out
    assert "unrepairable: ip_spoofing" in out
    assert "witness: c = 1, e1 = 2, e2 = 6" in out


def test_repair_exact_with_costs(capsys):
    code, out, _ = run(capsys, "repair", "--model", MOTIVATING, "--rules", TWO,
                       "--costs", ENC, "--mode", "exact", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["totalCost"] == 20
    assert doc["changes"] == [{"item": "webserver", "attribute": "Data Encryption",
                               "from": "None", "to": "Weak", "cost": 20}]
    assert doc["rules"]["noThreat"] == ["phone_reaches_unlogged_server"]


def test_repair_without_costs_uses_unit_defaults(capsys):
    code, out, _ = run(capsys, "repair", "--model", MOTIVATING, "--rules", TWO,
                       "--mode", "exact", "--format", "json")
    assert code == 0
    assert json.loads(out)["totalCost"] == 1


def test_repair_heuristic(capsys):
    code, out, _ = run(capsys, "repair", "--model", MOTIVATING, "--rules", TWO,
                       "--costs", ENC, "--mode", "heuristic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["totalCost"] == 1
    assert doc["changes"][0]["attribute"] == "Data Logging"
    assert [u["name"] for u in doc["rules"]["unrepairable"]] == \
        ["phone_reaches_unlogged_server"]
    witness = doc["rules"]["unrepairable"][0]["witnesses"][0]
    assert witness["e1"] == "phone" and isinstance(witness["p"], list)


def test_repair_text_format(capsys):
    code, out, _ = run(capsys, "repair", "--model", SMARTHOME, "--rules", IOT)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: sat"
    assert lines[1] == "total cost: 1"
    assert "change: 46 'Activity Logging': undefined -> Yes (cost 1)" in lines
    assert "repaired: firewall_activity_logging" in lines
    assert "unrepairable: ip_spoofing" in lines


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--model", SMARTHOME, "--rules", IOT,
                       "--format", "json", "--out", str(target))
    assert code == 1
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["status"] == "sat"


_GOLDEN_INPUTS = {
    "smarthome": ("--model", SMARTHOME, "--rules", IOT),
    "motivating": ("--model", MOTIVATING, "--rules", TWO, "--costs", ENC),
}
_GOLDEN_COMMANDS = {
    "check": ("check",),
    "explain": ("explain",),
    "repair-exact": ("repair", "--mode", "exact"),
    "repair-partial": ("repair", "--mode", "partial"),
    "repair-heuristic": ("repair", "--mode", "heuristic"),
}


@pytest.mark.parametrize("name, stem, fmt, exit_code", [
    ("smarthome", "check", "text", 1),
    ("smarthome", "check", "json", 1),
    ("smarthome", "explain", "text", 1),
    ("smarthome", "repair-exact", "text", 1),
    ("smarthome", "repair-exact", "json", 1),
    ("smarthome", "repair-partial", "text", 0),
    ("smarthome", "repair-partial", "json", 0),
    ("smarthome", "repair-heuristic", "text", 0),
    ("smarthome", "repair-heuristic", "json", 0),
    ("motivating", "check", "text", 1),
    ("motivating", "check", "json", 1),
    ("motivating", "explain", "text", 1),
    ("motivating", "repair-exact", "text", 0),
    ("motivating", "repair-exact", "json", 0),
    ("motivating", "repair-partial", "text", 0),
    ("motivating", "repair-partial", "json", 0),
    ("motivating", "repair-heuristic", "text", 0),
    ("motivating", "repair-heuristic", "json", 0),
])
def test_reports_match_golden_files(capsys, name, stem, fmt, exit_code):
    code, out, err = run(capsys, *_GOLDEN_COMMANDS[stem], *_GOLDEN_INPUTS[name],
                         "--format", fmt)
    golden = DATA / "golden" / f"{name}.{stem}.{'txt' if fmt == 'text' else 'json'}"
    assert (code, err) == (exit_code, "")
    assert out.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize("flag", ["--model", "--rules", "--costs"])
def test_byte_order_mark_is_accepted(capsys, tmp_path, flag):
    files = {"--model": MOTIVATING, "--rules": TWO, "--costs": ENC}
    with open(files[flag], "rb") as fh:
        content = fh.read()
    marked = tmp_path / "marked"
    marked.write_bytes(b"\xef\xbb\xbf" + content)
    files[flag] = str(marked)
    argv = ["repair", "--mode", "exact"]
    for name, path in files.items():
        argv += [name, path]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == \
        (DATA / "golden" / "motivating.repair-exact.txt").read_bytes()


def test_export_files_are_stable(capsys, tmp_path):
    smt1, smt2 = tmp_path / "a.smt2", tmp_path / "b.smt2"
    wcnf1, wcnf2 = tmp_path / "a.wcnf", tmp_path / "b.wcnf"
    for smt, wcnf in ((smt1, wcnf1), (smt2, wcnf2)):
        code, out, err = run(capsys, "export", "--model", SMARTHOME,
                             "--rules", IOT, "--smtlib", str(smt),
                             "--wcnf", str(wcnf))
        assert code == 0 and out == "" and err == ""
    assert smt1.read_bytes() == smt2.read_bytes()
    assert wcnf1.read_bytes() == wcnf2.read_bytes()
    header = wcnf1.read_text().splitlines()[0].split()
    assert header[:2] == ["p", "wcnf"]


def test_export_smtlib_only(capsys, tmp_path):
    smt = tmp_path / "m.smt2"
    code, _, _ = run(capsys, "export", "--model", MOTIVATING, "--rules", TWO,
                     "--smtlib", str(smt))
    assert code == 0
    assert smt.read_text().startswith("; system model encoding\n")


def test_export_matches_golden_files(capsys, tmp_path):
    smt, wcnf = tmp_path / "m.smt2", tmp_path / "m.wcnf"
    code, out, err = run(capsys, "export", "--model", MOTIVATING, "--rules", TWO,
                         "--costs", ENC, "--smtlib", str(smt), "--wcnf", str(wcnf))
    assert (code, out, err) == (0, "", "")
    assert smt.read_bytes() == (DATA / "golden" / "motivating.check.smt2").read_bytes()
    assert wcnf.read_bytes() == (DATA / "golden" / "motivating.wcnf").read_bytes()


def test_export_symbol_collision_exits_two(capsys, tmp_path):
    doc = {
        "meta": {"elementTypes": ["Host"], "connectorTypes": [],
                 "assetTypes": [], "boundaryTypes": [], "attributes": []},
        "elements": [{"id": i, "type": "Host", "attrs": {}}
                     for i in ("a|b", "a_b", "t.Host")],
        "connectors": [], "assets": [], "boundaries": [],
    }
    model, smt = tmp_path / "m.json", tmp_path / "m.smt2"
    model.write_text(json.dumps(doc))
    code, out, err = run(capsys, "export", "--model", str(model), "--rules", IOT,
                         "--smtlib", str(smt))
    assert code == 2 and out == ""
    assert err == ("error: element 'a_b' and element 'a|b' both export as "
                   "SMT-LIB symbol |a_b|\n")
    assert not smt.exists()


def test_export_requires_a_target(capsys):
    code, _, err = run(capsys, "export", "--model", SMARTHOME, "--rules", IOT)
    assert code == 2
    assert "error:" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "check", "--rules", IOT)[0] == 2       # missing --model
    assert run(capsys, "frobnicate")[0] == 2                  # unknown command
    assert run(capsys, "check", "--model", SMARTHOME, "--rules", IOT,
               "--mode", "exact")[0] == 2                     # mode is repair-only
    assert run(capsys)[0] == 2                                # no command


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "--model", "/no/such/file.json",
                       "--rules", IOT)
    assert code == 2
    assert err.startswith("error:")


def test_bad_rule_file_exits_two(capsys, tmp_path):
    rules = tmp_path / "bad.tl"
    rules.write_text("rule broken : exists element e . type(x) = \"A\"\n")
    code, _, err = run(capsys, "check", "--model", SMARTHOME,
                       "--rules", str(rules))
    assert code == 2
    assert "unbound variable" in err


def test_bad_model_file_exits_two(capsys, tmp_path):
    model = tmp_path / "bad.json"
    model.write_text("{}")
    code, _, err = run(capsys, "check", "--model", str(model), "--rules", IOT)
    assert code == 2
    assert "missing required key" in err


@pytest.mark.parametrize("flag", ["--model", "--rules", "--costs"])
def test_non_utf8_input_file_exits_two(capsys, tmp_path, flag):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe" + "rule x".encode("utf-16-le"))
    files = {"--model": MOTIVATING, "--rules": TWO, "--costs": ENC}
    files[flag] = str(bad)
    argv = ["repair"]
    for name, path in files.items():
        argv += [name, path]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("doc, message", [
    ({"meta": 5}, "meta must be an object"),
    ({"meta": {}, "elements": [5]}, "element must be an object"),
    ({"meta": {}, "connectors": [3]}, "connector must be an object"),
])
def test_malformed_model_shape_exits_two(capsys, tmp_path, doc, message):
    model = tmp_path / "shape.json"
    model.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--model", str(model), "--rules", IOT)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


LOOP_RULE = ('rule loop : exists path p . exists element e . '
             'src(p) = e and tgt(p) = e\n')


def test_budget_flag_reports_unknown(capsys, tmp_path):
    rules = tmp_path / "loop.tl"
    rules.write_text(LOOP_RULE)
    code, out, _ = run(capsys, "check", "--model", SMARTHOME,
                       "--rules", str(rules), "--budget", "0")
    assert code == 3
    assert "unknown (budget exhausted)" in out
    code, out, _ = run(capsys, "repair", "--model", SMARTHOME,
                       "--rules", str(rules), "--budget", "0")
    assert code == 3
    assert "status: unknown" in out
    # and without the budget the same instance settles
    code, _, _ = run(capsys, "check", "--model", SMARTHOME, "--rules", str(rules))
    assert code == 0


def test_budget_env_variable(capsys, tmp_path, monkeypatch):
    rules = tmp_path / "loop.tl"
    rules.write_text(LOOP_RULE)
    monkeypatch.setenv("THREATFIX_BUDGET", "0")
    code, _, _ = run(capsys, "check", "--model", SMARTHOME, "--rules", str(rules))
    assert code == 3
    # an explicit flag wins over the environment
    code, _, _ = run(capsys, "check", "--model", SMARTHOME,
                     "--rules", str(rules), "--budget", "100000")
    assert code == 0


def test_budget_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("THREATFIX_BUDGET", "soon")
    code, _, err = run(capsys, "check", "--model", SMARTHOME, "--rules", IOT)
    assert code == 2
    assert "THREATFIX_BUDGET" in err


@pytest.mark.parametrize("command", ["check", "repair"])
def test_negative_budget_exits_two(capsys, monkeypatch, command):
    code, out, err = run(capsys, command, "--model", SMARTHOME, "--rules", IOT,
                         "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --budget must be at least 0, got -1\n"
    monkeypatch.setenv("THREATFIX_BUDGET", "-1")
    code, out, err = run(capsys, command, "--model", SMARTHOME, "--rules", IOT)
    assert (code, out) == (2, "")
    assert err == "error: THREATFIX_BUDGET must be at least 0, got -1\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_two(capsys, jobs):
    for command in ("check", "explain", "repair"):
        code, out, err = run(capsys, command, "--model", SMARTHOME,
                             "--rules", IOT, "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
