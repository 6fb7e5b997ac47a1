"""DDL/DML statements for driving a database interactively.

Beyond the paper's query language (handled by :mod:`repro.query.parser`),
the shell accepts schema and maintenance statements::

    create class Student (name scalar, hobbies set, courses set of Course)
    create index bssf on Student.hobbies (F = 500, m = 2)
    create index nix on Student.courses
    insert into Student (name = "Jeff", hobbies = {"Baseball", "Fishing"})
    analyze Student.hobbies
    explain select Student where hobbies contains "Baseball"
    select Student where hobbies has-subset ("Baseball", "Fishing")

Each statement is parsed on the query language's scanner
(:class:`~repro.query.parser.Scanner`) and executed against a
:class:`~repro.objects.database.Database`;
:func:`execute_statement` returns a human-readable result string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.access.catalog import FACILITY_KINDS
from repro.errors import ParseError, QueryError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.obs.sinks import render_span_tree
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions
from repro.query.parser import Scanner

#: a signature index's shell options, in its create_index parameter order
_SIGNATURE_DEFAULTS = {"F": 128, "m": 2, "seed": 0}


def _value(scanner: Scanner) -> Any:
    """A literal, or a set literal ``{a, b, c}`` / ``{}``."""
    if scanner.accept("lbrace"):
        if scanner.accept("rbrace"):
            return set()
        return set(scanner.literal_list("rbrace"))
    return scanner.literal()


def _path(scanner: Scanner) -> Tuple[str, str]:
    """``Class.attribute``."""
    class_name = scanner.expect("ident")[1]
    scanner.expect("dot")
    attribute = scanner.expect("ident")[1]
    return class_name, attribute


# ----------------------------------------------------------------------
# Statement ASTs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CreateClass:
    schema: ClassSchema


@dataclass(frozen=True)
class CreateIndex:
    kind: str
    class_name: str
    attribute: str
    options: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class InsertObject:
    class_name: str
    values: Dict[str, Any]


@dataclass(frozen=True)
class Analyze:
    class_name: str
    attribute: str


@dataclass(frozen=True)
class RunQuery:
    text: str
    explain: bool


Statement = object  # union of the dataclasses above


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def parse_statement(text: str) -> Statement:
    stripped = text.strip().rstrip(";")
    scanner = Scanner(stripped, what="statement")
    kind, head, offset = scanner.peek()
    if kind == "end":
        raise ParseError("empty statement")
    if kind != "ident":
        raise ParseError(f"statement must start with a keyword, got {head!r}")
    keyword = head.lower()
    if keyword == "select":
        return RunQuery(text=stripped, explain=False)
    if keyword == "explain":
        rest = stripped[offset + len(head):].strip()
        if not rest.lower().startswith("select"):
            raise ParseError("explain takes a select query")
        return RunQuery(text=rest, explain=True)
    if keyword == "create":
        return _parse_create(scanner)
    if keyword == "insert":
        return _parse_insert(scanner)
    if keyword == "analyze":
        scanner.expect("ident", "analyze")
        class_name, attribute = _path(scanner)
        scanner.require_end()
        return Analyze(class_name=class_name, attribute=attribute)
    raise ParseError(
        f"unknown statement {keyword!r}; expected create / insert / "
        "analyze / select / explain"
    )


def _parse_create(scanner: Scanner) -> Statement:
    scanner.expect("ident", "create")
    what = scanner.expect("ident")[1].lower()
    if what == "class":
        return _parse_create_class(scanner)
    if what == "index":
        return _parse_create_index(scanner)
    raise ParseError(f"create {what!r} is not supported (class / index)")


def _parse_create_class(scanner: Scanner) -> CreateClass:
    class_name = scanner.expect("ident")[1]
    scanner.expect("lparen")
    specs: Dict[str, str] = {}
    while True:
        attr_name = scanner.expect("ident")[1]
        kind = scanner.expect("ident")[1].lower()
        if kind not in ("scalar", "set"):
            raise ParseError(
                f"attribute kind must be 'scalar' or 'set', got {kind!r}"
            )
        spec = kind
        if scanner.accept("ident", "of"):
            spec += ":" + scanner.expect("ident")[1]
        if attr_name in specs:
            raise ParseError(f"duplicate attribute {attr_name!r}")
        specs[attr_name] = spec
        if not scanner.accept("comma"):
            break
    scanner.expect("rparen")
    scanner.require_end()
    return CreateClass(schema=ClassSchema.build(class_name, **specs))


def _parse_create_index(scanner: Scanner) -> CreateIndex:
    kind = scanner.expect("ident")[1].lower()
    if kind not in FACILITY_KINDS:
        raise ParseError(
            f"index kind must be one of {FACILITY_KINDS}, got {kind!r}"
        )
    scanner.expect("ident", "on")
    class_name, attribute = _path(scanner)
    options: Dict[str, int] = {}
    if scanner.accept("lparen"):
        while True:
            name = scanner.expect("ident")[1]
            scanner.expect("eq")
            value = scanner.literal()
            if not isinstance(value, int):
                raise ParseError(f"index option {name!r} must be an integer")
            options[name] = value
            if not scanner.accept("comma"):
                break
        scanner.expect("rparen")
    scanner.require_end()
    if kind == "nix" and options:
        raise ParseError("nix takes no options")
    unknown = set(options) - set(_SIGNATURE_DEFAULTS)
    if unknown:
        raise ParseError(
            f"unknown index options {sorted(unknown)}; "
            f"expected {sorted(_SIGNATURE_DEFAULTS)}"
        )
    return CreateIndex(
        kind=kind, class_name=class_name, attribute=attribute, options=options
    )


def _parse_insert(scanner: Scanner) -> InsertObject:
    scanner.expect("ident", "insert")
    scanner.expect("ident", "into")
    class_name = scanner.expect("ident")[1]
    scanner.expect("lparen")
    values: Dict[str, Any] = {}
    while True:
        attr_name = scanner.expect("ident")[1]
        scanner.expect("eq")
        if attr_name in values:
            raise ParseError(f"duplicate attribute {attr_name!r}")
        values[attr_name] = _value(scanner)
        if not scanner.accept("comma"):
            break
    scanner.expect("rparen")
    scanner.require_end()
    return InsertObject(class_name=class_name, values=values)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_statement(
    database: Database,
    text: str,
    max_rows: int = 20,
    trace: bool = False,
    service=None,
) -> str:
    """Parse and run one statement; returns a printable result.

    With ``trace=True`` (the shell's ``\\trace on`` mode), queries are
    executed with tracing enabled and the rendered span tree is appended
    to the normal result listing. With a ``service`` (a
    :class:`~repro.server.service.QueryService`, the shell's ``\\workers``
    mode), select queries are served through its worker pool; DDL and
    mutations always run on the calling thread.
    """
    statement = parse_statement(text)
    executor = QueryExecutor(database)

    if isinstance(statement, CreateClass):
        database.define_class(statement.schema)
        return f"class {statement.schema.name} created"

    if isinstance(statement, CreateIndex):
        options = {**_SIGNATURE_DEFAULTS, **statement.options}
        database.create_index(
            statement.kind, statement.class_name, statement.attribute,
            [] if statement.kind == "nix" else list(options.values()),
        )
        return (
            f"{statement.kind} index created on "
            f"{statement.class_name}.{statement.attribute}"
        )

    if isinstance(statement, InsertObject):
        oid = database.insert(statement.class_name, statement.values)
        return f"inserted {oid}"

    if isinstance(statement, Analyze):
        stats = database.analyze(statement.class_name, statement.attribute)
        return (
            f"{stats.class_name}.{stats.attribute}: N={stats.num_objects}, "
            f"V≈{stats.distinct_elements}, "
            f"Dt={stats.mean_cardinality:.1f} "
            f"[{stats.min_cardinality}, {stats.max_cardinality}]"
        )

    if isinstance(statement, RunQuery):
        if statement.explain:
            return executor.explain(statement.text)
        options = ExecutionOptions(trace=trace)
        if service is not None:
            result = service.execute(statement.text, options)
        else:
            result = executor.execute_text(statement.text, options)
        return format_query_result(result, max_rows=max_rows, trace=trace)

    raise QueryError(f"unhandled statement type: {type(statement).__name__}")


def format_query_result(result, max_rows: int = 20, trace: bool = False) -> str:
    """Render one :class:`~repro.query.executor.QueryResult` for the shell."""
    summary = (
        f"{len(result)} row(s); plan: {result.statistics.plan}; "
        f"pages: {result.statistics.page_accesses}; "
        f"false drops: {result.statistics.false_drops}"
    )
    if getattr(result, "partial", False):
        missing = ", ".join(getattr(result, "missing_shards", ()) or ())
        summary += f" — PARTIAL (missing shards: {missing})"
    lines = [summary]
    for oid, values in result.rows[:max_rows]:
        rendered = ", ".join(
            f"{name}={_render(value)}" for name, value in sorted(values.items())
        )
        lines.append(f"  {oid}: {rendered}")
    if len(result) > max_rows:
        lines.append(f"  ... {len(result) - max_rows} more")
    if trace and result.trace is not None:
        lines.append(render_span_tree(result.trace))
    return "\n".join(lines)


def _render(value: Any) -> str:
    if isinstance(value, (set, frozenset)):
        inner = ", ".join(sorted(repr(v) for v in value))
        return "{" + inner + "}"
    return repr(value)
