"""Surface syntax for constraint and instance files.

One `.`-terminated statement per rule or fact, `#` comments to end of line.
Rules read `body -> head`, with `true` for an empty body and `X = Y` for an
EGD head. Identifiers starting with an uppercase letter are variables,
anything else is a constant, and `?name` is a labeled null (instances only).
An optional `label:` prefix names a rule; unlabeled rules are numbered c1,
c2, ... in file order.

Printing inverts parsing as long as names obey the lexical convention
(uppercase variables, lowercase constants and labels).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from chaseterm.model import (
    Atom, Constant, Constraint, EGD, Instance, LabeledNull, ModelError, Term,
    Variable, check_arities, egd, fact_key, instance, tgd,
)


class ParseError(ModelError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


# token kinds
IDENT, NULL, LPAREN, RPAREN, COMMA, ARROW, EQUALS, DOT, COLON, EOF = (
    "ident", "null", "(", ")", ",", "->", "=", ".", ":", "eof")

_PUNCT = {"(": LPAREN, ")": RPAREN, ",": COMMA, "=": EQUALS,
          ".": DOT, ":": COLON}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(Token(ARROW, "->", line, col))
            i += 2
            col += 2
        elif ch in _PUNCT:
            toks.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
        elif ch == "?":
            j = i + 1
            while j < n and _ident_char(text[j]):
                j += 1
            if j == i + 1:
                raise ParseError("'?' must be followed by a null name", line, col)
            toks.append(Token(NULL, text[i + 1:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and _ident_char(text[j]):
                j += 1
            toks.append(Token(IDENT, text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token(EOF, "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self) -> Token:
        t = self.cur
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        if self.cur.kind != kind:
            self.fail(f"expected {what}, found {self.cur.text or 'end of input'!r}")
        return self.advance()

    def fail(self, msg: str):
        raise ParseError(msg, self.cur.line, self.cur.col)

    def atom(self, term) -> Atom:
        rel = self.expect(IDENT, "a relation name")
        self.expect(LPAREN, "'('")
        args = [term()]
        while self.cur.kind == COMMA:
            self.advance()
            args.append(term())
        self.expect(RPAREN, "')'")
        return Atom(rel.text, tuple(args))

    def atoms(self, term) -> List[Atom]:
        out = [self.atom(term)]
        while self.cur.kind == COMMA:
            self.advance()
            out.append(self.atom(term))
        return out


def _rule_term(p: _Parser) -> Term:
    if p.cur.kind == NULL:
        p.fail("nulls cannot occur in rules")
    t = p.expect(IDENT, "a variable or constant")
    if t.text[0].isupper():
        return Variable(t.text)
    return Constant(t.text)


class ConstraintDocument(NamedTuple):
    """Rules in file order, with each rule's (line, column) for messages."""

    constraints: Tuple[Constraint, ...]
    spans: Tuple[Tuple[int, int], ...] = ()

    # equality and the hash read the rules only, wherever they sit in the
    # file. __ne__ is defined too, or tuple's own would compare the spans.
    def __eq__(self, other):
        if other.__class__ is ConstraintDocument:
            return self.constraints == other.constraints
        return NotImplemented

    def __ne__(self, other):
        if other.__class__ is ConstraintDocument:
            return self.constraints != other.constraints
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.constraints,))


def parse_constraints(text: str) -> ConstraintDocument:
    p = _Parser(text)
    out: List[Constraint] = []
    spans: List[Tuple[int, int]] = []
    arities: Dict[str, int] = {}
    used = set()
    serial = 0
    while p.cur.kind != EOF:
        start = p.cur
        label: Optional[str] = None
        if p.cur.kind == IDENT and p.peek().kind == COLON:
            label = p.advance().text
            p.advance()
        if p.cur.kind == IDENT and p.cur.text == "true" and p.peek().kind == ARROW:
            p.advance()
            body: List[Atom] = []
        else:
            body = p.atoms(lambda: _rule_term(p))
        p.expect(ARROW, "'->'")
        if label is None:
            serial += 1
            label = f"c{serial}"
        if label in used:
            raise ParseError(f"duplicate rule label {label!r}", start.line, start.col)
        used.add(label)

        # an EGD head is exactly `Var = Var`
        if p.cur.kind == IDENT and p.peek().kind == EQUALS:
            left, right = p.advance(), None
            p.advance()
            right = p.expect(IDENT, "a variable")
            for side in (left, right):
                if not side.text[0].isupper():
                    raise ParseError("an equality must relate two variables",
                                     side.line, side.col)
            maker = lambda: egd(label, body, Variable(left.text), Variable(right.text))
        else:
            head = p.atoms(lambda: _rule_term(p))
            maker = lambda: tgd(label, body, head)
        p.expect(DOT, "'.'")
        try:
            c = maker()
            arities = check_arities(tuple(c.body) + tuple(c.head), arities)
        except ParseError:
            raise
        except ModelError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc
        out.append(c)
        spans.append((start.line, start.col))
    return ConstraintDocument(tuple(out), tuple(spans))


def parse_instance(text: str, as_query: bool = False) -> Instance:
    p = _Parser(text)
    nulls: Dict[str, LabeledNull] = {}

    def null_for(name: str) -> LabeledNull:
        if name not in nulls:
            nulls[name] = LabeledNull(name, len(nulls) + 1)
        return nulls[name]

    def term() -> Term:
        if p.cur.kind == NULL:
            return null_for(p.advance().text)
        t = p.expect(IDENT, "a constant or null")
        if t.text[0].isupper():
            if not as_query:
                raise ParseError(
                    f"variable {t.text} in an instance (write ?{t.text.lower()},"
                    " or read the file as a query)", t.line, t.col)
            return null_for(t.text)
        return Constant(t.text)

    facts: List[Atom] = []
    arities: Dict[str, int] = {}
    while p.cur.kind != EOF:
        start = p.cur
        facts.append(p.atom(term))
        p.expect(DOT, "'.'")
        try:
            arities = check_arities(facts[-1:], arities)
        except ModelError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc
    return instance(facts)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _print_term(t: Term) -> str:
    if isinstance(t, LabeledNull):
        return f"?{t.name}"
    return t.name


def _print_atom(a: Atom) -> str:
    return f"{a.relation}({', '.join(_print_term(t) for t in a.args)})"


def print_constraint(c: Constraint) -> str:
    body = ", ".join(_print_atom(a) for a in c.body) if c.body else "true"
    if c.kind == EGD:
        left, right = c.equated
        head = f"{left.name} = {right.name}"
    else:
        head = ", ".join(_print_atom(a) for a in c.head)
    return f"{c.id}: {body} -> {head}."


def print_constraints(doc: ConstraintDocument) -> str:
    return "\n".join(print_constraint(c) for c in doc.constraints) + "\n"


def print_instance(I: Instance) -> str:
    lines = [f"{_print_atom(a)}." for a in sorted(I.facts, key=fact_key)]
    return "\n".join(lines) + "\n" if lines else ""
