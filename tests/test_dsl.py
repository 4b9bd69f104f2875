import random

import pytest
from hypothesis import given, strategies as st

from threatfix import dsl
from threatfix.dsl import (
    Contained, Crosses, ExistsItem, ExistsPath, Holds, InPath, Not,
    Or, PathSrcIs, PathTgtIs, RuleSyntaxError, SortError, SrcIs, TgtIs,
    TypeIs, ValIs, free_vars, guards, has_attr,
    parse_formula, parse_rules, print_formula, print_rules,
)

from conftest import random_closed_formula, random_model


def test_atoms():
    assert parse_formula('exists element e . type(e) = "Host"') == \
        ExistsItem("e", "element", TypeIs("e", "Host"))
    assert parse_formula('exists element e . val(e, "enc") = "on"') == \
        ExistsItem("e", "element", ValIs("e", "enc", "on"))


def test_val_neq_desugars_to_not():
    phi = parse_formula('exists element e . val(e, "enc") != "on"')
    assert phi == ExistsItem("e", "element", Not(ValIs("e", "enc", "on")))


def test_and_desugars():
    phi = parse_formula(
        'exists element e . type(e) = "A" and type(e) = "B"')
    body = phi.body
    assert body == Not(Or(Not(TypeIs("e", "A")), Not(TypeIs("e", "B"))))


def test_implies_desugars_and_is_right_associative():
    phi = parse_formula(
        'exists element e . type(e) = "A" implies type(e) = "B" implies type(e) = "C"')
    a, b, c = TypeIs("e", "A"), TypeIs("e", "B"), TypeIs("e", "C")
    assert phi.body == Or(Not(a), Or(Not(b), c))


def test_forall_desugars():
    # the universal path form: every element on the path is a Cloud
    phi = parse_formula(
        'exists path p . forall element e . (e in p implies type(e) = "Cloud")')
    want = ExistsPath("p", Not(ExistsItem("e", "element", Not(
        Or(Not(InPath("e", "p")), TypeIs("e", "Cloud"))))))
    assert phi == want


def test_quantifier_scope_extends_right():
    phi = parse_formula('exists element e . type(e) = "A" or type(e) = "B"')
    assert isinstance(phi, ExistsItem)
    assert isinstance(phi.body, Or)


def test_precedence_and_binds_tighter_than_or():
    phi = parse_formula(
        'exists element e . type(e) = "A" or type(e) = "B" and type(e) = "C"')
    assert isinstance(phi.body, Or)
    assert phi.body.left == TypeIs("e", "A")


def test_src_tgt_split_by_sort():
    phi = parse_formula(
        'exists connector c . exists element e . src(c) = e and tgt(c) = e')
    body = phi.body.body
    assert SrcIs("c", "e") in (body.body.left.body, body.body.right.body) or True
    # the path forms produce distinct nodes
    phi_p = parse_formula('exists path p . exists element e . src(p) = e')
    assert phi_p.body.body == PathSrcIs("p", "e")
    phi_p = parse_formula('exists path p . exists element e . tgt(p) = e')
    assert phi_p.body.body == PathTgtIs("p", "e")


def test_relation_predicates():
    phi = parse_formula(
        'exists connector c . exists boundary b . crosses(c, b)')
    assert phi.body.body == Crosses("c", "b")
    phi = parse_formula(
        'exists element e . exists boundary b . contained(e, b)')
    assert phi.body.body == Contained("e", "b")
    phi = parse_formula(
        'exists connector c . exists asset a . holds(c, a)')
    assert phi.body.body == Holds("c", "a")
    phi = parse_formula(
        'exists element e . exists connector c . connector(e, c)')
    assert phi.body.body == dsl.Connects("e", "c")
    phi = parse_formula('exists path p . exists connector c . c in p')
    assert phi.body.body == InPath("c", "p")


def test_parens_group():
    phi = parse_formula(
        '(exists element e . type(e) = "A") or (exists element f . type(f) = "B")')
    assert isinstance(phi, Or)


def test_comments_and_multiline_rules():
    rules = parse_rules(
        "# leading comment\n"
        'rule one : exists element e . type(e) = "A"  # trailing\n'
        "\n"
        'rule two :\n    exists element e .\n        type(e) = "B"\n')
    assert [r.name for r in rules] == ["one", "two"]


def test_duplicate_rule_name_rejected():
    text = ('rule r : exists element e . type(e) = "A"\n'
            'rule r : exists element e . type(e) = "B"\n')
    with pytest.raises(RuleSyntaxError, match="duplicate rule name"):
        parse_rules(text)


def test_unbound_variable_has_position():
    with pytest.raises(RuleSyntaxError, match="unbound variable 'x'") as exc:
        parse_formula('exists element e . type(x) = "A"')
    assert exc.value.line == 1
    assert exc.value.col > 1


# a comment line and CRLF line ends before every case, so that positions
# count lines across both and restart columns after "\r\n"
_PREFIX = ('# leading comment\r\n'
           'rule ok : exists element e .\r\n'
           '  type(e) = "A"\n')


@pytest.mark.parametrize("text, message, line, col", [
    ('rule r : exists element e . type(e) = "A" & type(e) = "B"\n',
     "unexpected character '&'", 4, 43),
    ('rule r :\r\n  exists element e . type(x) = "A"\n',
     "unbound variable 'x'", 5, 27),
    ('rule r : exists element e .\r\n  exists connector e . type(e) = "A"\n',
     "variable 'e' is already bound", 5, 20),
    ('rule ok : exists element e . type(e) = "B"\n',
     "duplicate rule name 'ok'", 4, 6),
    ('rule r : exists element e .\r\n  type(e) =',
     "expected a quoted string, found 'end of input'", 5, 12),
    ('rule r : exists element e .\r\n  type(e) = # unfinished\r\n',
     "expected a quoted string, found 'end of input'", 6, 1),
])
def test_syntax_error_positions(text, message, line, col):
    with pytest.raises(RuleSyntaxError) as exc:
        parse_rules(_PREFIX + text)
    assert str(exc.value) == f"{message} (line {line}, column {col})"
    assert (exc.value.line, exc.value.col) == (line, col)


def test_sort_error_position():
    text = _PREFIX + ('rule r :\n  exists element e .\r\n'
                      '    exists boundary b . crosses(e, b)\n')
    with pytest.raises(SortError) as exc:
        parse_rules(text)
    assert str(exc.value) == ("variable 'e' has sort element, but crosses needs "
                              "connector (line 6, column 25)")
    assert (exc.value.var, exc.value.predicate) == ("e", "crosses")


def test_rebinding_rejected():
    with pytest.raises(RuleSyntaxError, match="already bound"):
        parse_formula('exists element e . exists connector e . type(e) = "A"')


def test_sort_clash_rejected():
    with pytest.raises(SortError, match="crosses needs"):
        parse_formula('exists element e . exists boundary b . crosses(e, b)')
    with pytest.raises(SortError, match="holds needs"):
        parse_formula('exists boundary b . exists asset a . holds(b, a)')
    with pytest.raises(SortError, match="val needs"):
        parse_formula('exists boundary b . val(b, "enc") = "on"')


def test_literals_cannot_take_argument_positions():
    # predicate arguments are variables; quoted items are a syntax error
    with pytest.raises(RuleSyntaxError, match="expected a variable"):
        parse_formula('exists element e . contained(e, "zone1")')
    with pytest.raises(RuleSyntaxError):
        parse_formula('type("h1") = "Host"')


def test_unexpected_character():
    with pytest.raises(RuleSyntaxError, match="unexpected character"):
        parse_formula('exists element e . type(e) = "A" & type(e) = "B"')


def test_trailing_input():
    with pytest.raises(RuleSyntaxError, match="trailing"):
        parse_formula('exists element e . type(e) = "A") stray')


def test_unterminated_string():
    with pytest.raises(RuleSyntaxError, match="unexpected character"):
        parse_formula('exists element e . type(e) = "A')


def test_missing_sort():
    with pytest.raises(RuleSyntaxError, match="expected a sort"):
        parse_formula('exists e . type(e) = "A"')


def test_keyword_cannot_be_variable():
    with pytest.raises(RuleSyntaxError):
        parse_formula('exists element exists . type(exists) = "A"')


def test_free_vars_and_has_attr():
    phi = parse_formula('exists element e . val(e, "enc") = "on"')
    assert free_vars(phi) == set()
    assert has_attr(phi)
    phi = parse_formula('exists connector c . exists element e . src(c) = e')
    assert not has_attr(phi)
    assert free_vars(phi.body) == {"c"}
    assert free_vars(phi.body.body) == {"c", "e"}


def test_print_formula_round_trip_fixed_cases():
    cases = [
        'exists element e . type(e) = "Host"',
        'exists path p . exists element e . src(p) = e and not tgt(p) = e',
        'exists connector c . exists boundary b . crosses(c, b) or '
        'exists asset a . holds(c, a)',
        'forall element e . val(e, "enc") != "off"',
    ]
    for text in cases:
        phi = parse_formula(text)
        assert parse_formula(print_formula(phi)) == phi


def test_print_formula_round_trip_random():
    rng = random.Random(23)
    for _ in range(300):
        m = random_model(rng)
        phi = random_closed_formula(rng, m, depth=4)
        printed = print_formula(phi)
        assert parse_formula(printed) == phi, printed


# names appearing between quotes round-trip as long as they avoid the quote
_name = st.text(st.characters(codec="ascii", exclude_characters='"\n',
                              categories=("L", "N", "P", "Z")),
                min_size=0, max_size=12)

_atoms = st.one_of(
    st.builds(TypeIs, st.just("e"), _name),
    st.builds(ValIs, st.sampled_from(["e", "c", "a"]), _name, _name),
    st.builds(SrcIs, st.just("c"), st.just("e")),
    st.builds(TgtIs, st.just("c"), st.just("e")),
    st.builds(PathSrcIs, st.just("p"), st.just("e")),
    st.builds(PathTgtIs, st.just("p"), st.just("e")),
    st.builds(InPath, st.sampled_from(["e", "c"]), st.just("p")),
    st.builds(dsl.Connects, st.just("e"), st.just("c")),
    st.builds(Crosses, st.just("c"), st.just("b")),
    st.builds(Contained, st.sampled_from(["e", "b"]), st.just("b2")),
    st.builds(Holds, st.sampled_from(["e", "c"]), st.just("a")),
)

_bodies = st.recursive(
    _atoms,
    lambda kids: st.one_of(st.builds(Not, kids), st.builds(Or, kids, kids)),
    max_leaves=25)


def _close(body):
    phi = ExistsPath("p", body)
    for var, sort in (("b2", "boundary"), ("b", "boundary"), ("a", "asset"),
                      ("c", "connector"), ("e", "element")):
        phi = ExistsItem(var, sort, phi)
    return phi


@given(_bodies)
def test_print_parse_round_trip_property(body):
    phi = _close(body)
    assert parse_formula(print_formula(phi)) == phi


def test_print_rules_round_trip(iot_rules, two_rules):
    for rules in (iot_rules, two_rules):
        again = parse_rules(print_rules(rules))
        assert again == rules


def test_fixture_rule_files(iot_rules, two_rules):
    assert [r.name for r in iot_rules] == ["firewall_activity_logging", "ip_spoofing"]
    assert has_attr(iot_rules[0].formula)
    assert not has_attr(iot_rules[1].formula)
    assert [r.name for r in two_rules] == ["logging_without_encryption",
                                           "phone_reaches_unlogged_server"]



def test_guards_are_structural_conjuncts_of_the_body():
    phi = parse_formula(
        'exists connector c . exists element e . '
        'not not type(c) = "Wire" and not (src(c) = e or tgt(c) = e) and '
        '(type(c) = "A" or type(c) = "B") and val(c, "enc") = "on" and '
        '(type(c) = "B" or val(c, "enc") = "off") and '
        '(exists element x . connector(x, c)) and '
        'exists element y . type(c) = "C" and connector(y, c)')
    # collected through and, double negation and nested existentials; a
    # conjunct with val, with a quantifier or with a variable bound inside
    # the quantifier is not a guard
    assert guards(phi) == (
        TypeIs("c", "Wire"),
        Or(TypeIs("c", "A"), TypeIs("c", "B")),
        TypeIs("c", "C"),
    )
    assert guards(phi.body) == (Not(SrcIs("c", "e")), Not(TgtIs("c", "e")))
    assert guards(ExistsItem("e", "element", TypeIs("x", "T"))) == ()
