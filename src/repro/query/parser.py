"""Parser for the paper's SQL-like set-query language.

Grammar (the [Kim90]-style syntax the paper's Section 2 uses, extended with
conjunction, scalar equality, subqueries, and the §6 operators)::

    query      := 'select' IDENT 'where' condition
    condition  := predicate ('and' predicate)*
    predicate  := IDENT operator set_literal
                | IDENT '=' literal
    operator   := 'has-subset' | 'in-subset' | 'contains'
                | 'set-equals' | 'overlaps'
    set_literal:= '(' literal (',' literal)* ')'
                | '(' query ')'                 -- subquery: result OIDs
                | literal                        -- for contains
    literal    := STRING | INTEGER | FLOAT

Examples — the paper's Q1/Q2 and the Section 1 two-step query::

    select Student where hobbies has-subset ("Baseball", "Fishing")
    select Student where hobbies in-subset ("Baseball", "Fishing", "Tennis")
    select Student where courses has-subset
        (select Course where category = "DB")
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, NamedTuple, Optional, Tuple

from repro.core.signature import SetPredicateKind
from repro.errors import ParseError
from repro.query.predicates import ScalarPredicate, SetPredicate, SubqueryPredicate

_STRING = r'"(?:[^"\\]|\\.)*"'
_FLOAT = r"-?\d+\.\d+"
_INT = r"-?\d+"

#: Leading whitespace, then exactly one token: ``end`` at the end of the
#: text, ``bad`` for a character that starts no token. It cannot fail.
_TOKEN_RE = re.compile(
    rf"""\s*(?:
    (?P<string>{_STRING})
  | (?P<float>{_FLOAT})
  | (?P<int>{_INT})
  | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrace>\{{)
  | (?P<rbrace>\}})
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<eq>=)
  | (?P<end>\Z)
  | (?P<bad>\S)
    )""",
    re.VERBOSE,
)

#: A whole ``( integer, … )`` anchored at its parenthesis.
_LIST_RE = re.compile(rf"\(\s*({_INT}(?:\s*,\s*{_INT})*)\s*\)")

_OPERATORS = {kind.value: kind for kind in SetPredicateKind}


class Token(NamedTuple):
    kind: str
    text: str
    position: int


def _literal_value(kind: str, text: str) -> Hashable:
    if kind == "int":
        return int(text)
    if kind == "string":
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return float(text)


class Scanner:
    """One pass over a statement: a position and one token of lookahead.

    Tokens are plain ``(kind, text, offset)`` tuples matched on demand, so
    an error is reported at the first offset that offends the grammar and
    nothing past it is lexed. ``what`` names the statement in the
    end-of-text message ("query" here, "statement" in the shell's DDL).
    """

    __slots__ = ("text", "what", "position", "_ahead")

    def __init__(self, text: str, what: str = "query"):
        self.text = text
        self.what = what
        self.position = 0
        self._ahead: Optional[Tuple[str, str, int]] = None

    def _scan(self) -> Tuple[str, str, int]:
        match = _TOKEN_RE.match(self.text, self.position)
        kind = match.lastgroup
        token = (kind, match.group(kind), match.start(kind))
        if kind == "bad":
            raise ParseError(
                f"unexpected character {token[1]!r} at offset {token[2]}"
            )
        self._ahead = token
        return token

    def peek(self) -> Tuple[str, str, int]:
        """The next token, unconsumed; its kind is ``"end"`` at the end."""
        return self._ahead or self._scan()

    def next(self) -> Tuple[str, str, int]:
        token = self._ahead or self._scan()
        if token[0] == "end":
            raise ParseError(f"unexpected end of {self.what}: {self.text!r}")
        self.position = token[2] + len(token[1])
        self._ahead = None
        return token

    def expect(self, kind: str, word: Optional[str] = None) -> Tuple[str, str, int]:
        token = self.next()
        if token[0] != kind or (word is not None and token[1].lower() != word):
            raise ParseError(
                f"expected {(word or kind)!r} at offset {token[2]}, "
                f"got {token[1]!r}"
            )
        return token

    def accept(
        self, kind: str, word: Optional[str] = None
    ) -> Optional[Tuple[str, str, int]]:
        token = self.peek()
        if token[0] != kind or (word is not None and token[1].lower() != word):
            return None
        return self.next()

    def require_end(self) -> None:
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"unexpected {token[1]!r} at offset {token[2]}")

    def literal(self) -> Hashable:
        kind, text, offset = self.next()
        if kind not in ("string", "int", "float"):
            raise ParseError(
                f"expected a literal at offset {offset}, got {text!r}"
            )
        return _literal_value(kind, text)

    def literal_list(self, close: str) -> List[Hashable]:
        """``literal (',' literal)*`` and the ``close`` token, one at a time."""
        elements = [self.literal()]
        while self.accept("comma"):
            elements.append(self.literal())
        self.expect(close)
        return elements

    def element_list(self) -> Optional[FrozenSet[Hashable]]:
        """A well-formed ``( integer, … )`` at the next token, as one slice.

        ``None`` (and nothing consumed) when the text there is anything
        else — a subquery, strings or floats, or a list the token walk
        will find the fault in.
        """
        match = _LIST_RE.match(self.text, self.peek()[2])
        if match is None:
            return None
        self.position = match.end()
        self._ahead = None
        return frozenset(map(int, match.group(1).split(",")))


def tokenize(text: str) -> List[Token]:
    """Every token of ``text``, in order — a listing of what the scanner sees."""
    scanner = Scanner(text)
    tokens: List[Token] = []
    while scanner.peek()[0] != "end":
        tokens.append(Token(*scanner.next()))
    return tokens


@dataclass(frozen=True)
class ParsedQuery:
    """``select <class> where <predicates conjunction>``.

    Predicates are :class:`SetPredicate`, :class:`ScalarPredicate`, or
    (before the executor resolves them) :class:`SubqueryPredicate`.
    """

    class_name: str
    predicates: Tuple[object, ...]

    def has_unresolved_subqueries(self) -> bool:
        return any(isinstance(p, SubqueryPredicate) for p in self.predicates)

    def describe(self) -> str:
        body = " and ".join(p.describe() for p in self.predicates)
        return f"select {self.class_name} where {body}"


def _parse_set_constant(scanner: Scanner):
    """A literal set, or a parenthesized subquery (returns a ParsedQuery)."""
    if scanner.peek()[0] != "lparen":
        # bare literal — convenient for `contains`
        return frozenset([scanner.literal()])
    elements = scanner.element_list()
    if elements is not None:
        return elements
    scanner.next()
    head = scanner.peek()
    if head[0] == "ident" and head[1].lower() == "select":
        subquery = _parse_select(scanner, nested=True)
        scanner.expect("rparen")
        return subquery
    return frozenset(scanner.literal_list("rparen"))


def _parse_predicate(scanner: Scanner):
    attribute = scanner.expect("ident")[1]
    if scanner.accept("eq"):
        return ScalarPredicate(attribute=attribute, value=scanner.literal())
    _, op_text, op_offset = scanner.expect("ident")
    kind = _OPERATORS.get(op_text.lower())
    if kind is None:
        raise ParseError(
            f"unknown operator {op_text!r} at offset {op_offset}; "
            f"expected one of {sorted(_OPERATORS)} or '='"
        )
    constant = _parse_set_constant(scanner)
    if isinstance(constant, ParsedQuery):
        return SubqueryPredicate(attribute=attribute, kind=kind, subquery=constant)
    if kind is SetPredicateKind.CONTAINS and len(constant) != 1:
        raise ParseError("'contains' takes exactly one element")
    return SetPredicate(attribute=attribute, kind=kind, constant=constant)


def _parse_select(scanner: Scanner, nested: bool) -> ParsedQuery:
    scanner.expect("ident", "select")
    class_name = scanner.expect("ident")[1]
    scanner.expect("ident", "where")
    predicates = [_parse_predicate(scanner)]
    # a nested select's caller consumes the closing paren
    closers = ("end", "rparen") if nested else ("end",)
    while scanner.peek()[0] not in closers:
        scanner.expect("ident", "and")
        predicates.append(_parse_predicate(scanner))
    return ParsedQuery(class_name=class_name, predicates=tuple(predicates))


def parse_query(text: str) -> ParsedQuery:
    """Parse one query; raises :class:`ParseError` with position info."""
    scanner = Scanner(text)
    if scanner.peek()[0] == "end":
        raise ParseError("empty query")
    query = _parse_select(scanner, nested=False)
    scanner.require_end()
    return query
