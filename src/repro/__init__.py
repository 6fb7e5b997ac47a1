"""repro — signature files as set access facilities in OODBs.

A full reproduction of Ishikawa, Kitagawa & Ohbo, *"Evaluation of Signature
Files as Set Access Facilities in OODBs"* (SIGMOD 1993): the superimposed-
coding signature scheme, the sequential (SSF) and bit-sliced (BSSF)
signature file organizations, the nested index (NIX), the Section 4
analytical cost model, the Section 5 smart retrieval strategies, and an
executable paged-storage OODB simulator that validates the model's page-
access predictions.

Quick start::

    from repro import Database, ClassSchema, QueryExecutor

    db = Database()
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.create_bssf_index("Student", "hobbies", signature_bits=64, bits_per_element=2)
    db.insert("Student", {"name": "Jeff", "hobbies": {"Baseball", "Fishing"}})

    executor = QueryExecutor(db)
    result = executor.execute_text(
        'select Student where hobbies has-subset ("Baseball")'
    )

Served over the network (``sigfile-repro serve`` on the other end)::

    from repro import connect

    with connect("sigfile://127.0.0.1:7731") as db:
        result = db.execute('select Student where hobbies has-subset ("Chess")')
"""

from repro.client import RemoteClient
from repro.concurrency import RWLatch
from repro.core.signature import SetPredicateKind, SignatureScheme
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import Attribute, AttributeKind, ClassSchema
from repro.persistence.snapshot import load_database, save_database
from repro.query.executor import QueryExecutor, QueryResult
from repro.query.options import ExecutionOptions
from repro.query.parser import parse_query
from repro.query.planner import CostContext, plan_query
from repro.server.net import TcpQueryServer
from repro.server.service import QueryService
from repro.serving import QueryBackend, connect, make_service

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "AttributeKind",
    "ClassSchema",
    "CostContext",
    "Database",
    "ExecutionOptions",
    "OID",
    "QueryBackend",
    "QueryExecutor",
    "QueryResult",
    "QueryService",
    "RWLatch",
    "RemoteClient",
    "SetPredicateKind",
    "SignatureScheme",
    "TcpQueryServer",
    "connect",
    "load_database",
    "make_service",
    "parse_query",
    "plan_query",
    "save_database",
    "__version__",
]
