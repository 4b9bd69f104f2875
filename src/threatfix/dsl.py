"""Threat rule language.

Rules are closed first-order formulas over a system model: predicates over
typed item variables, negation, disjunction, and sorted existential
quantifiers (including quantification over acyclic paths).  The surface
syntax also offers and / implies / forall / !=, all of which desugar to the
core connectives at parse time, so downstream code only ever sees
{predicate, not, or, exists}.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .model import ASSET, BOUNDARY, CONNECTOR, ELEMENT

PATH = "path"
ITEM_SORTS = (ELEMENT, CONNECTOR, ASSET, BOUNDARY)
SORTS = ITEM_SORTS + (PATH,)

KEYWORDS = frozenset({
    "rule", "exists", "forall", "not", "and", "or", "implies", "in",
    "type", "val", "src", "tgt", "connector", "crosses", "contained", "holds",
    "element", "asset", "boundary", "path",
})


class DslError(ValueError):
    pass


class RuleSyntaxError(DslError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class SortError(DslError):
    def __init__(self, message: str, var: str = "", predicate: str = ""):
        super().__init__(message)
        self.var = var
        self.predicate = predicate


# -- abstract syntax (core) ---------------------------------------------------

@dataclass(frozen=True)
class TypeIs:
    var: str
    type_name: str


@dataclass(frozen=True)
class ValIs:
    var: str
    attr: str
    value: str


@dataclass(frozen=True)
class SrcIs:          # src(c) = e, c a connector variable
    conn: str
    elem: str


@dataclass(frozen=True)
class TgtIs:
    conn: str
    elem: str


@dataclass(frozen=True)
class PathSrcIs:      # src(p) = e, p a path variable
    path: str
    elem: str


@dataclass(frozen=True)
class PathTgtIs:
    path: str
    elem: str


@dataclass(frozen=True)
class InPath:         # x in p, x an element or connector variable
    item: str
    path: str


@dataclass(frozen=True)
class Connects:       # connector(e, c): e is an endpoint of c
    elem: str
    conn: str


@dataclass(frozen=True)
class Crosses:
    conn: str
    boundary: str


@dataclass(frozen=True)
class Contained:      # contained(x, b), x an element or boundary variable
    inner: str
    boundary: str


@dataclass(frozen=True)
class Holds:          # holds(x, a), x an element or connector variable
    holder: str
    asset: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ExistsItem:
    var: str
    sort: str          # element | connector | asset | boundary
    body: "Formula"


@dataclass(frozen=True)
class ExistsPath:
    var: str
    body: "Formula"


Pred = Union[TypeIs, ValIs, SrcIs, TgtIs, PathSrcIs, PathTgtIs, InPath,
             Connects, Crosses, Contained, Holds]
Formula = Union[Pred, Not, Or, ExistsItem, ExistsPath]

PRED_TYPES = (TypeIs, ValIs, SrcIs, TgtIs, PathSrcIs, PathTgtIs, InPath,
              Connects, Crosses, Contained, Holds)


@dataclass(frozen=True)
class Rule:
    name: str
    formula: Formula


# -- helpers over the AST -----------------------------------------------------

def conj(left: Formula, right: Formula) -> Formula:
    """a and b, desugared."""
    return Not(Or(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


def forall_item(var: str, sort: str, body: Formula) -> Formula:
    return Not(ExistsItem(var, sort, Not(body)))


def forall_path(var: str, body: Formula) -> Formula:
    return Not(ExistsPath(var, Not(body)))


def has_attr(phi: Formula) -> bool:
    """True when any val predicate occurs, i.e. the rule is attribute-repairable."""
    if isinstance(phi, ValIs):
        return True
    if isinstance(phi, PRED_TYPES):
        return False
    if isinstance(phi, Not):
        return has_attr(phi.body)
    if isinstance(phi, Or):
        return has_attr(phi.left) or has_attr(phi.right)
    return has_attr(phi.body)   # ExistsItem | ExistsPath


def _var_uses(phi: Formula) -> Iterator[str]:
    if isinstance(phi, TypeIs):
        yield phi.var
    elif isinstance(phi, ValIs):
        yield phi.var
    elif isinstance(phi, (SrcIs, TgtIs)):
        yield from (phi.conn, phi.elem)
    elif isinstance(phi, (PathSrcIs, PathTgtIs)):
        yield from (phi.path, phi.elem)
    elif isinstance(phi, InPath):
        yield from (phi.item, phi.path)
    elif isinstance(phi, Connects):
        yield from (phi.elem, phi.conn)
    elif isinstance(phi, Crosses):
        yield from (phi.conn, phi.boundary)
    elif isinstance(phi, Contained):
        yield from (phi.inner, phi.boundary)
    elif isinstance(phi, Holds):
        yield from (phi.holder, phi.asset)


def free_vars(phi: Formula) -> set[str]:
    if isinstance(phi, PRED_TYPES):
        return set(_var_uses(phi))
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, Or):
        return free_vars(phi.left) | free_vars(phi.right)
    return free_vars(phi.body) - {phi.var}   # ExistsItem | ExistsPath


def _structural(phi: Formula) -> bool:
    """Quantifier-free and val-free: decided by the model's structure alone."""
    if isinstance(phi, Not):
        return _structural(phi.body)
    if isinstance(phi, Or):
        return _structural(phi.left) and _structural(phi.right)
    return isinstance(phi, PRED_TYPES) and not isinstance(phi, ValIs)


def guards(q: Union[ExistsItem, ExistsPath]) -> tuple[Formula, ...]:
    """Structural conjuncts that every candidate for q.var must satisfy.

    Conjuncts of q's body are collected through `a and b` (that is,
    Not(Or(Not a, Not b))), double negation and nested existentials.  A
    guard is a conjunct that mentions q.var, mentions no variable bound
    inside q, and contains no val and no quantifier; it may be negated.  The
    body implies each guard, so once the variables bound outside q are fixed,
    a candidate that makes a guard false makes the body false.
    """
    out: list[Formula] = []

    def collect(phi: Formula, inner: frozenset) -> None:
        if isinstance(phi, Not) and isinstance(phi.body, Not):
            collect(phi.body.body, inner)
        elif isinstance(phi, Not) and isinstance(phi.body, Or):
            for side in (phi.body.left, phi.body.right):
                collect(side.body if isinstance(side, Not) else Not(side), inner)
        elif isinstance(phi, (ExistsItem, ExistsPath)):
            collect(phi.body, inner | {phi.var})
        elif _structural(phi):
            used = free_vars(phi)
            if q.var in used and not used & inner:
                out.append(phi)

    collect(q.body, frozenset())
    return tuple(out)


# sorts accepted by each predicate argument, keyed by (predicate, position)
_ARG_SORTS = {
    ("type", 0): set(ITEM_SORTS),
    ("val", 0): {ELEMENT, CONNECTOR, ASSET},
    ("src", 0): {CONNECTOR, PATH},
    ("src", 1): {ELEMENT},
    ("tgt", 0): {CONNECTOR, PATH},
    ("tgt", 1): {ELEMENT},
    ("connector", 0): {ELEMENT},
    ("connector", 1): {CONNECTOR},
    ("crosses", 0): {CONNECTOR},
    ("crosses", 1): {BOUNDARY},
    ("contained", 0): {ELEMENT, BOUNDARY},
    ("contained", 1): {BOUNDARY},
    ("holds", 0): {ELEMENT, CONNECTOR},
    ("holds", 1): {ASSET},
    ("in", 0): {ELEMENT, CONNECTOR},
    ("in", 1): {PATH},
}


# -- lexer --------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    """A token and its offset into the source text.

    Only an error needs a line and column; _line_col derives them from pos.
    """
    kind: str          # IDENT | STR | PUNCT | EOF
    text: str
    pos: int


_TOKEN_RE = re.compile(r"""
      (?P<SKIP>\s+|\#[^\n]*)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STR>"[^"\n]*")
    | (?P<PUNCT>!=|[().,=:])
    | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "STR":
            tokens.append(_Token(kind, match.group()[1:-1], match.start()))
        elif kind == "BAD":
            raise RuleSyntaxError(f"unexpected character {match.group()!r}",
                                  *_line_col(text, match.start()))
        elif kind != "SKIP":
            tokens.append(_Token(kind, match.group(), match.start()))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# -- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> RuleSyntaxError:
        """A syntax error at the next token."""
        return RuleSyntaxError(message, *_line_col(self.text, self.peek().pos))

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def expect_str(self) -> str:
        tok = self.peek()
        if tok.kind != "STR":
            raise self.error(f"expected a quoted string, found {tok.text or 'end of input'!r}")
        return self.next().text

    def expect_var(self, env: dict[str, str]) -> tuple[str, str]:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in KEYWORDS:
            raise self.error(f"expected a variable, found {tok.text or 'end of input'!r}")
        if tok.text not in env:
            raise self.error(f"unbound variable {tok.text!r}")
        self.next()
        return tok.text, env[tok.text]

    def check_sort(self, predicate: str, pos: int, var: str, sort: str,
                   tok: _Token) -> None:
        allowed = _ARG_SORTS[(predicate, pos)]
        if sort not in allowed:
            line, col = _line_col(self.text, tok.pos)
            raise SortError(
                f"variable {var!r} has sort {sort}, but {predicate} needs "
                f"{' or '.join(sorted(allowed))} (line {line}, column {col})",
                var=var, predicate=predicate)

    # formula := or_expr ('implies' formula)?          (right associative)
    def formula(self, env: dict[str, str]) -> Formula:
        left = self.or_expr(env)
        if self.at_keyword("implies"):
            self.next()
            return implies(left, self.formula(env))
        return left

    def or_expr(self, env: dict[str, str]) -> Formula:
        node = self.and_expr(env)
        while self.at_keyword("or"):
            self.next()
            node = Or(node, self.and_expr(env))
        return node

    def and_expr(self, env: dict[str, str]) -> Formula:
        node = self.unary(env)
        while self.at_keyword("and"):
            self.next()
            node = conj(node, self.unary(env))
        return node

    def unary(self, env: dict[str, str]) -> Formula:
        if self.at_keyword("not"):
            self.next()
            return Not(self.unary(env))
        if self.at_keyword("exists") or self.at_keyword("forall"):
            return self.quantifier(env)
        return self.atom(env)

    def quantifier(self, env: dict[str, str]) -> Formula:
        kind = self.next().text
        sort_tok = self.peek()
        if sort_tok.kind != "IDENT" or sort_tok.text not in SORTS:
            raise self.error("expected a sort (element, connector, asset, boundary, path)")
        self.next()
        var_tok = self.peek()
        if var_tok.kind != "IDENT" or var_tok.text in KEYWORDS:
            raise self.error(f"expected a variable name, found {var_tok.text!r}")
        if var_tok.text in env:
            raise self.error(f"variable {var_tok.text!r} is already bound")
        self.next()
        self.expect_punct(".")
        inner = dict(env)
        inner[var_tok.text] = sort_tok.text
        # quantifier scope extends maximally to the right
        body = self.formula(inner)
        if sort_tok.text == PATH:
            node: Formula = ExistsPath(var_tok.text, body)
            return node if kind == "exists" else forall_path(var_tok.text, body)
        node = ExistsItem(var_tok.text, sort_tok.text, body)
        if kind == "exists":
            return node
        return forall_item(var_tok.text, sort_tok.text, body)

    def atom(self, env: dict[str, str]) -> Formula:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == "(":
            self.next()
            node = self.formula(env)
            self.expect_punct(")")
            return node
        if tok.kind != "IDENT":
            raise self.error(f"expected a predicate, found {tok.text or 'end of input'!r}")
        if tok.text in ("type", "val", "src", "tgt", "crosses", "contained", "holds"):
            return self.named_predicate(env)
        if tok.text == "connector":
            return self.named_predicate(env)
        # bare variable: must be the left side of `x in p`
        var, sort = self.expect_var(env)
        if not self.at_keyword("in"):
            raise self.error(f"expected 'in' after variable {var!r}")
        in_tok = self.next()
        self.check_sort("in", 0, var, sort, tok)
        pvar, psort = self.expect_var(env)
        self.check_sort("in", 1, pvar, psort, in_tok)
        return InPath(var, pvar)

    def named_predicate(self, env: dict[str, str]) -> Formula:
        name_tok = self.next()
        name = name_tok.text
        self.expect_punct("(")
        var, sort = self.expect_var(env)
        self.check_sort(name, 0, var, sort, name_tok)
        if name == "type":
            self.expect_punct(")")
            self.expect_punct("=")
            return TypeIs(var, self.expect_str())
        if name == "val":
            self.expect_punct(",")
            attr = self.expect_str()
            self.expect_punct(")")
            op = self.peek()
            if op.kind != "PUNCT" or op.text not in ("=", "!="):
                raise self.error("expected '=' or '!=' after val(...)")
            self.next()
            node: Formula = ValIs(var, attr, self.expect_str())
            return Not(node) if op.text == "!=" else node
        if name in ("src", "tgt"):
            self.expect_punct(")")
            self.expect_punct("=")
            evar, esort = self.expect_var(env)
            self.check_sort(name, 1, evar, esort, name_tok)
            if sort == PATH:
                return PathSrcIs(var, evar) if name == "src" else PathTgtIs(var, evar)
            return SrcIs(var, evar) if name == "src" else TgtIs(var, evar)
        # two-variable relation predicates
        self.expect_punct(",")
        other, other_sort = self.expect_var(env)
        self.check_sort(name, 1, other, other_sort, name_tok)
        self.expect_punct(")")
        if name == "connector":
            return Connects(var, other)
        if name == "crosses":
            return Crosses(var, other)
        if name == "contained":
            return Contained(var, other)
        return Holds(var, other)


def parse_formula(text: str) -> Formula:
    """Parse a single closed formula."""
    parser = _Parser(text)
    phi = parser.formula({})
    if parser.peek().kind != "EOF":
        raise parser.error(f"unexpected trailing input {parser.peek().text!r}")
    return phi


def parse_rules(text: str) -> tuple[Rule, ...]:
    """Parse a rule file: stanzas of `rule NAME : formula`, # comments."""
    parser = _Parser(text)
    rules: list[Rule] = []
    seen: set[str] = set()
    while parser.peek().kind != "EOF":
        if not parser.at_keyword("rule"):
            raise parser.error(f"expected 'rule', found {parser.peek().text!r}")
        parser.next()
        name_tok = parser.peek()
        if name_tok.kind != "IDENT" or name_tok.text in KEYWORDS:
            raise parser.error("expected a rule name")
        if name_tok.text in seen:
            raise parser.error(f"duplicate rule name {name_tok.text!r}")
        parser.next()
        parser.expect_punct(":")
        rules.append(Rule(name_tok.text, parser.formula({})))
        seen.add(name_tok.text)
    return tuple(rules)


# -- printer ----------------------------------------------------------------

def print_formula(phi: Formula) -> str:
    """Core-syntax rendering; parse_formula(print_formula(phi)) == phi."""
    if isinstance(phi, TypeIs):
        return f'type({phi.var}) = "{phi.type_name}"'
    if isinstance(phi, ValIs):
        return f'val({phi.var}, "{phi.attr}") = "{phi.value}"'
    if isinstance(phi, SrcIs):
        return f"src({phi.conn}) = {phi.elem}"
    if isinstance(phi, TgtIs):
        return f"tgt({phi.conn}) = {phi.elem}"
    if isinstance(phi, PathSrcIs):
        return f"src({phi.path}) = {phi.elem}"
    if isinstance(phi, PathTgtIs):
        return f"tgt({phi.path}) = {phi.elem}"
    if isinstance(phi, InPath):
        return f"{phi.item} in {phi.path}"
    if isinstance(phi, Connects):
        return f"connector({phi.elem}, {phi.conn})"
    if isinstance(phi, Crosses):
        return f"crosses({phi.conn}, {phi.boundary})"
    if isinstance(phi, Contained):
        return f"contained({phi.inner}, {phi.boundary})"
    if isinstance(phi, Holds):
        return f"holds({phi.holder}, {phi.asset})"
    if isinstance(phi, Not):
        return f"not {print_formula(phi.body)}"
    if isinstance(phi, Or):
        return f"({print_formula(phi.left)} or {print_formula(phi.right)})"
    if isinstance(phi, ExistsItem):
        return f"(exists {phi.sort} {phi.var} . {print_formula(phi.body)})"
    if isinstance(phi, ExistsPath):
        return f"(exists path {phi.var} . {print_formula(phi.body)})"
    raise DslError(f"not a formula node: {phi!r}")


def print_rules(rules: Iterator[Rule]) -> str:
    return "\n".join(f"rule {r.name} : {print_formula(r.formula)}" for r in rules)
