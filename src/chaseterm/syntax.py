"""Surface syntax for constraint and instance files.

One `.`-terminated statement per rule or fact, `#` comments to end of line.
Rules read `body -> head`, with `true` for an empty body and `X = Y` for an
EGD head. Identifiers starting with an uppercase letter are variables,
anything else is a constant, and `?name` is a labeled null (instances only).
An optional `label:` prefix names a rule; unlabeled rules are numbered c1,
c2, ... in file order.

One regular expression scans the whole text before parsing starts, so a
bad character anywhere is reported before any grammar error. A token is
(kind, text, offset): a punctuation token is its own kind, and a null's
text is its name without the `?`. A name is letters, digits and `_`, as
str.isalnum() reads them, and must start with a letter or `_`. The offset
becomes a line and a column only when a ParseError is raised; every
character but a newline is one column. A comment that ends the text puts
the end of input at its `#`.

Printing inverts parsing as long as names obey the lexical convention
(uppercase variables, lowercase constants and labels). Terms and atoms
print as their repr, which is this syntax.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from chaseterm.model import (
    Atom, Constant, Constraint, EGD, Instance, LabeledNull, ModelError, Term,
    Variable, check_arities, egd, fact_key, tgd,
)


class ParseError(ModelError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


# token kinds
IDENT, NULL, LPAREN, RPAREN, COMMA, ARROW, EQUALS, DOT, COLON, EOF = (
    "ident", "null", "(", ")", ",", "->", "=", ".", ":", "eof")

# layout matches no group; \w and \s agree with str.isalnum() (plus "_")
# and str.isspace() on every code point
_TOKEN = re.compile(r"""
    \s+ | \#[^\n]*
  | (?P<punct> -> | [(),=.:] )
  | \? (?P<null> \w* )
  | (?P<ident> \w+ )
  | (?P<bad> . )
""", re.VERBOSE | re.DOTALL)


def _where(text: str, offset: int) -> Tuple[int, int]:
    """The line and column of offset in text, both counted from 1."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    toks: List[Tuple[str, str, int]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word = m[kind]
        if kind == "punct":
            toks.append((word, word, m.start()))
        elif kind == IDENT and (word[0].isalpha() or word[0] == "_"):
            toks.append((IDENT, word, m.start()))
        elif kind == NULL and word:
            toks.append((NULL, word, m.start()))
        elif kind == NULL:
            raise ParseError("'?' must be followed by a null name",
                             *_where(text, m.start()))
        else:
            raise ParseError(f"unexpected character {word[0]!r}",
                             *_where(text, m.start()))
    last_line = text.rfind("\n") + 1
    comment = text.find("#", last_line)
    toks.append((EOF, "", len(text) if comment < 0 else comment))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.tok = self.toks[0]  # the current token

    def peek(self) -> str:
        """The kind of the token after the current one, which is not EOF."""
        return self.toks[self.pos + 1][0]

    def advance(self) -> Tuple[str, str, int]:
        t = self.tok
        self.pos += 1
        self.tok = self.toks[self.pos]
        return t

    def expect(self, kind: str, what: str) -> Tuple[str, str, int]:
        if self.tok[0] != kind:
            self.fail(f"expected {what}, found {self.tok[1] or 'end of input'!r}")
        return self.advance()

    def fail(self, msg: str, tok: Optional[Tuple[str, str, int]] = None):
        raise ParseError(msg, *_where(self.text, (tok or self.tok)[2]))

    def atom(self, term) -> Atom:
        rel = self.expect(IDENT, "a relation name")
        self.expect(LPAREN, "'('")
        args = [term()]
        while self.tok[0] == COMMA:
            self.advance()
            args.append(term())
        self.expect(RPAREN, "')'")
        return Atom(rel[1], tuple(args))

    def atoms(self, term) -> List[Atom]:
        out = [self.atom(term)]
        while self.tok[0] == COMMA:
            self.advance()
            out.append(self.atom(term))
        return out

    def rule_term(self) -> Term:
        if self.tok[0] == NULL:
            self.fail("nulls cannot occur in rules")
        name = self.expect(IDENT, "a variable or constant")[1]
        return Variable(name) if name[0].isupper() else Constant(name)


class ConstraintDocument(NamedTuple):
    """Rules in file order."""

    constraints: Tuple[Constraint, ...]


def parse_constraints(text: str) -> ConstraintDocument:
    p = _Parser(text)
    out: List[Constraint] = []
    arities: Dict[str, int] = {}
    used = set()
    serial = 0
    while p.tok[0] != EOF:
        start = p.tok
        label: Optional[str] = None
        if p.tok[0] == IDENT and p.peek() == COLON:
            label = p.advance()[1]
            p.advance()
        if p.tok[0] == IDENT and p.tok[1] == "true" and p.peek() == ARROW:
            p.advance()
            body: List[Atom] = []
        else:
            body = p.atoms(p.rule_term)
        p.expect(ARROW, "'->'")
        if label is None:
            serial += 1
            label = f"c{serial}"
        if label in used:
            p.fail(f"duplicate rule label {label!r}", start)
        used.add(label)

        # an EGD head is exactly `Var = Var`
        if p.tok[0] == IDENT and p.peek() == EQUALS:
            left = p.advance()
            p.advance()
            right = p.expect(IDENT, "a variable")
            for side in (left, right):
                if not side[1][0].isupper():
                    p.fail("an equality must relate two variables", side)
            head = None
        else:
            head = p.atoms(p.rule_term)
        p.expect(DOT, "'.'")
        try:
            c = (tgd(label, body, head) if head is not None else
                 egd(label, body, Variable(left[1]), Variable(right[1])))
            arities = check_arities(c.body + c.head, arities)
        except ModelError as exc:
            raise ParseError(str(exc), *_where(text, start[2])) from exc
        out.append(c)
    return ConstraintDocument(tuple(out))


def parse_instance(text: str, as_query: bool = False) -> Instance:
    p = _Parser(text)
    nulls: Dict[str, LabeledNull] = {}

    def null_for(name: str) -> LabeledNull:
        if name not in nulls:
            nulls[name] = LabeledNull(name, len(nulls) + 1)
        return nulls[name]

    def term() -> Term:
        if p.tok[0] == NULL:
            return null_for(p.advance()[1])
        t = p.expect(IDENT, "a constant or null")
        name = t[1]
        if name[0].isupper():
            if not as_query:
                p.fail(f"variable {name} in an instance (write ?{name.lower()},"
                       " or read the file as a query)", t)
            return null_for(name)
        return Constant(name)

    facts: List[Atom] = []
    arities: Dict[str, int] = {}
    while p.tok[0] != EOF:
        start = p.tok
        facts.append(p.atom(term))
        p.expect(DOT, "'.'")
        try:
            arities = check_arities(facts[-1:], arities)
        except ModelError as exc:
            raise ParseError(str(exc), *_where(text, start[2])) from exc
    # the parser admits no variable and checks every arity, and the nulls
    # are numbered 1, 2, ... in order of first appearance
    return Instance(frozenset(facts), len(nulls) + 1)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_constraint(c: Constraint) -> str:
    body = ", ".join(map(repr, c.body)) if c.body else "true"
    if c.kind == EGD:
        left, right = c.equated
        head = f"{left!r} = {right!r}"
    else:
        head = ", ".join(map(repr, c.head))
    return f"{c.id}: {body} -> {head}."


def print_constraints(doc: ConstraintDocument) -> str:
    return "\n".join(print_constraint(c) for c in doc.constraints) + "\n"


def print_instance(I: Instance) -> str:
    return "".join(f"{a!r}.\n" for a in sorted(I.facts, key=fact_key))
