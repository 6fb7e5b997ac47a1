"""The query parser as it was before the single scanner: tokenise, then walk.

``tokenize`` lexes the whole text into frozen ``Token`` objects up front
and a cursor of ``peek`` / ``next`` / ``expect`` calls consumes them, one
object and three calls per literal. It is the oracle
``tests/query/test_parser_oracle.py`` compares :func:`repro.query.parser.parse_query`
against: same :class:`~repro.query.parser.ParsedQuery` or a
:class:`~repro.errors.ParseError` with the same message. The one allowed
difference follows from lexing everything first: a character no token
starts with is reported here even when a grammar error sits before it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Hashable, List

from repro.core.signature import SetPredicateKind
from repro.errors import ParseError
from repro.query.parser import ParsedQuery
from repro.query.predicates import ScalarPredicate, SetPredicate, SubqueryPredicate

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<float>-?\d+\.\d+)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<eq>=)
    """,
    re.VERBOSE,
)

_OPERATORS = {kind.value: kind for kind in SetPredicateKind}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(Token(kind=kind, text=match.group(), position=position))
        position = match.end()
    return tokens


class _Cursor:
    def __init__(self, tokens: List[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.index = 0

    def peek(self) -> Token:
        if self.index >= len(self.tokens):
            raise ParseError(f"unexpected end of query: {self.source!r}")
        return self.tokens[self.index]

    def next(self) -> Token:
        token = self.peek()
        self.index += 1
        return token

    def expect(self, kind: str, text: str = None) -> Token:
        token = self.next()
        if token.kind != kind or (text is not None and token.text.lower() != text):
            expected = text or kind
            raise ParseError(
                f"expected {expected!r} at offset {token.position}, "
                f"got {token.text!r}"
            )
        return token

    def done(self) -> bool:
        return self.index >= len(self.tokens)


def _parse_literal(cursor: _Cursor) -> Hashable:
    token = cursor.next()
    if token.kind == "string":
        body = token.text[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")
    if token.kind == "int":
        return int(token.text)
    if token.kind == "float":
        return float(token.text)
    raise ParseError(
        f"expected a literal at offset {token.position}, got {token.text!r}"
    )


def _parse_set_literal(cursor: _Cursor):
    """A literal set, or a parenthesized subquery (returns a ParsedQuery)."""
    if cursor.peek().kind != "lparen":
        # bare literal — convenient for `contains`
        return frozenset([_parse_literal(cursor)])
    cursor.expect("lparen")
    head = cursor.peek()
    if head.kind == "ident" and head.text.lower() == "select":
        subquery = _parse_select(cursor, nested=True)
        cursor.expect("rparen")
        return subquery
    elements = [_parse_literal(cursor)]
    while cursor.peek().kind == "comma":
        cursor.next()
        elements.append(_parse_literal(cursor))
    cursor.expect("rparen")
    return frozenset(elements)


def _parse_predicate(cursor: _Cursor):
    attribute = cursor.expect("ident").text
    if cursor.peek().kind == "eq":
        cursor.next()
        return ScalarPredicate(attribute=attribute, value=_parse_literal(cursor))
    op_token = cursor.expect("ident")
    kind = _OPERATORS.get(op_token.text.lower())
    if kind is None:
        raise ParseError(
            f"unknown operator {op_token.text!r} at offset {op_token.position}; "
            f"expected one of {sorted(_OPERATORS)} or '='"
        )
    constant = _parse_set_literal(cursor)
    if isinstance(constant, ParsedQuery):
        return SubqueryPredicate(attribute=attribute, kind=kind, subquery=constant)
    if kind is SetPredicateKind.CONTAINS and len(constant) != 1:
        raise ParseError("'contains' takes exactly one element")
    return SetPredicate(attribute=attribute, kind=kind, constant=constant)


def _parse_select(cursor: _Cursor, nested: bool) -> ParsedQuery:
    cursor.expect("ident", "select")
    class_name = cursor.expect("ident").text
    cursor.expect("ident", "where")
    predicates = [_parse_predicate(cursor)]
    while True:
        if cursor.done():
            break
        token = cursor.peek()
        if nested and token.kind == "rparen":
            break  # the caller consumes the closing paren
        cursor.expect("ident", "and")
        predicates.append(_parse_predicate(cursor))
    return ParsedQuery(class_name=class_name, predicates=tuple(predicates))


def reference_parse_query(text: str) -> ParsedQuery:
    """Parse one query; raises :class:`ParseError` with position info."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty query")
    cursor = _Cursor(tokens, text)
    query = _parse_select(cursor, nested=False)
    if not cursor.done():
        token = cursor.peek()
        raise ParseError(
            f"unexpected {token.text!r} at offset {token.position}"
        )
    return query
