"""The single-scanner parser against the tokenise-then-walk parser it replaced.

``tests/reference/query_parser.py`` lexes a whole text into ``Token``
objects and walks them with a cursor; :func:`repro.query.parser.parse_query`
scans lazily and takes an element list as one slice. Every text must come
out the same: an equal ``ParsedQuery``, or a ``ParseError`` with the same
message. One difference is allowed and pinned below by name: the old
tokenizer read the whole text before the grammar saw any of it, so a
character no token starts with won over a grammar error in front of it;
the scanner stops at the first offset that offends, and reports that.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.query.parser import parse_query
from tests.reference.query_parser import reference_parse_query

_STRAY = re.compile(r"unexpected character .+ at offset (\d+)\Z", re.DOTALL)


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as error:
        return None, str(error)


def assert_same_outcome(text: str) -> None:
    expected, expected_error = _outcome(reference_parse_query, text)
    got, got_error = _outcome(parse_query, text)
    if expected_error is None:
        assert got_error is None, f"{text!r}: raised {got_error!r}"
        assert got == expected, text
        return
    assert got_error is not None, f"{text!r}: parsed, expected {expected_error!r}"
    if got_error == expected_error:
        return
    # The allowed difference: the old tokenizer reported a stray character
    # that sits *after* the grammar error the scanner stops at — which is
    # the error the old parser gives once the text is cut before the stray.
    stray = _STRAY.match(expected_error)
    assert stray is not None, (text, expected_error, got_error)
    _, cut_error = _outcome(reference_parse_query, text[: int(stray.group(1))])
    assert got_error == cut_error, (text, expected_error, got_error)


# ----------------------------------------------------------------------
# Text generation
# ----------------------------------------------------------------------
_gap = st.text(alphabet=" \t\n\r", min_size=1, max_size=3)
_pad = st.text(alphabet=" \t\n", max_size=2)
_identifier = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,8}", fullmatch=True).filter(
    lambda s: s.lower() not in {"select", "where", "and"}
)


@st.composite
def _cased(draw, word: str) -> str:
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if flip else c for c, flip in zip(word, flips))


def _quoted(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


_literal = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 1663).map(str),
    st.floats(-1e4, 1e4, allow_nan=False).map(lambda x: f"{x:.3f}"),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
    ).map(_quoted),
    st.sampled_from(['"a\\"b"', '"\\\\"', '"tab\\t"', '"(1, 2)"', '"-3"']),
)

_int_literal = st.integers(-5, 1663).map(str)


@st.composite
def _element_list(draw) -> str:
    size = draw(st.sampled_from([0, 1, 2, 3, 5, 30, 100, 400]))
    # A few drawn literals repeated up to ``size``: long lists stay cheap
    # to generate and always carry duplicate elements.
    pool = draw(
        st.lists(
            _int_literal if draw(st.booleans()) else _literal,
            min_size=min(size, 1),
            max_size=min(size, 12),
        )
    )
    elements = [pool[i % len(pool)] for i in range(size)]
    comma = draw(_pad) + "," + draw(_pad)
    return "(" + draw(_pad) + comma.join(elements) + draw(_pad) + ")"


_SET_OPERATORS = ("has-subset", "in-subset", "set-equals", "overlaps", "contains")


@st.composite
def _predicate(draw, depth: int) -> str:
    attribute = draw(_identifier)
    shape = draw(st.sampled_from(["set", "set", "bare", "scalar", "subquery"]))
    if shape == "scalar":
        return f"{attribute}{draw(_pad)}={draw(_pad)}{draw(_literal)}"
    if shape == "bare":
        return f"{attribute}{draw(_gap)}{draw(_cased('contains'))}{draw(_gap)}{draw(_literal)}"
    operator = draw(_cased(draw(st.sampled_from(_SET_OPERATORS))))
    if shape == "subquery" and depth < 2:
        body = "(" + draw(_pad) + draw(_query(depth + 1)) + draw(_pad) + ")"
    else:
        body = draw(_element_list())
    return f"{attribute}{draw(_gap)}{operator}{draw(_pad)}{body}"


@st.composite
def _query(draw, depth: int = 0) -> str:
    predicates = draw(st.lists(_predicate(depth), min_size=1, max_size=3))
    conjunction = draw(_gap) + draw(_cased("and")) + draw(_gap)
    return (
        draw(_pad if depth == 0 else st.just(""))
        + draw(_cased("select")) + draw(_gap) + draw(_identifier) + draw(_gap)
        + draw(_cased("where")) + draw(_gap) + conjunction.join(predicates)
    )


@st.composite
def _mutated(draw) -> str:
    text = draw(_query())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["cut", "drop", "insert", "swap"]))
        junk = draw(st.sampled_from(list('@#$;(){},."\\-= x1') + ["and", "select"]))
        if edit == "cut":
            text = text[:at]
        elif edit == "drop":
            text = text[:at] + text[at + 1:]
        elif edit == "insert":
            text = text[:at] + junk + text[at:]
        else:
            text = text[:at] + junk + text[at + 1:]
    return text


@settings(max_examples=300, deadline=None)
@given(text=_query())
def test_property_generated_queries_parse_like_the_reference(text):
    assert_same_outcome(text)


@settings(max_examples=500, deadline=None)
@given(text=_mutated())
def test_property_mutated_texts_fail_like_the_reference(text):
    assert_same_outcome(text)


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet='selctwhrandi-SX (),"\\.=1205{}@\n', max_size=60))
def test_property_arbitrary_texts_fail_like_the_reference(text):
    assert_same_outcome(text)


# ----------------------------------------------------------------------
# Fixed cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "select",
        "select S",
        "select S where",
        "select S where h",
        "select S where h has-subset",
        "select S where h has-subset (",
        "select S where h has-subset ()",
        "select S where h has-subset (1",
        "select S where h has-subset (1,",
        "select S where h has-subset (1,)",
        "select S where h has-subset (1 2)",
        "select S where h has-subset (1, 2.)",
        "select S where h has-subset (1, 2.5, -3, 2.5, 1)",
        "select S where h has-subset (1.5.5)",
        'select S where h has-subset ("a""b")',
        'select S where h has-subset ("a\\"b", "c\\\\", 7)',
        'select S where h has-subset ("unterminated, 7)',
        "select S where h has-subset (1, x)",
        "select S where h has-subset (1-2)",
        "select S where h has-subset (1_000)",
        "select S where h has-subset (+5)",
        "select S where h has-subset (١, ٢)",  # \d is Unicode-wide in both
        "select S where h has-subset (1, 2) trailing",
        "select S where h has-subset (1, 2) and",
        "select S where h has-subset (1, 2) and g = 3",
        "select S where h has-subset (1, 2) or g = 3",
        'select S where h contains ("a", "b")',
        "select S where h contains 7",
        "select S where h contains -7.25",
        "select S where h superset-of (1)",
        "select S where h = ",
        "select S where h = (1)",
        "select S where h has-subset (select T where g = 1)",
        "select S where h has-subset (select T where g = 1",
        "select S where h has-subset (select T where g in-subset (1, 2))",
        "select S where h has-subset (select T where g = 1) and k overlaps (4)",
        "select S where h has-subset ((1, 2))",
        "select S where h has-subset {1, 2}",
        "select S where h has-subset (1, 2) @",
        "select S where h has-subset (1, @)",
        "select S where h has-subset (@)",
        "SELECT\tS\nWHERE h\rHAS-SUBSET(1,2)AND g=2",
    ],
)
def test_fixed_texts_parse_like_the_reference(text):
    assert_same_outcome(text)


def test_stray_character_after_a_grammar_error_reports_the_earlier_offset():
    text = "find S where h contains @"
    with pytest.raises(ParseError, match="unexpected character '@' at offset 24"):
        reference_parse_query(text)
    with pytest.raises(ParseError, match="expected 'select' at offset 0, got 'find'"):
        parse_query(text)
    # …and nothing else differs: a stray character the grammar reaches is
    # still reported at its own offset.
    with pytest.raises(ParseError, match="unexpected character '@' at offset 26"):
        parse_query("select S where h contains @")
    assert_same_outcome(text)


def test_element_list_of_400_integers_is_one_slice(monkeypatch):
    """Counting guard: a long all-integer list costs no per-literal token."""
    from repro.query import parser

    scans = []
    real_scan = parser.Scanner._scan

    def counting_scan(scanner):
        scans.append(scanner.position)
        return real_scan(scanner)

    monkeypatch.setattr(parser.Scanner, "_scan", counting_scan)
    body = ", ".join(str(n) for n in range(400))
    query = parse_query(f"select Item where items in-subset ({body})")
    assert query.predicates[0].constant == frozenset(range(400))
    # select, class, where, attribute, operator, the parenthesis, the end
    assert len(scans) == 7
