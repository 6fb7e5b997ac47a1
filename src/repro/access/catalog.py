"""The facility catalog: one table decides a facility's kind, options and files.

The paper's experiment varies one thing — which set access facility, with
which F and m, indexes the same data. Every path that makes a facility
(:meth:`~repro.objects.database.Database.create_index`, WAL replay, a
rebuild, a shard) or re-opens one (a snapshot load) asks :data:`CATALOG`,
keyed by ``(kind, lsm)``. The kind (``"ssf"``, ``"bssf"``, ``"nix"``) is
the name plans, WAL records, snapshot entries and file names carry; the two
signature kinds also come in the LSM layout
(:class:`~repro.lsm.facility.LSMSignatureFacility`).

A facility's options travel as one positional list, the ``params`` of its
``create_index`` WAL record in :data:`PARAMETERS` order, layout included.
:func:`create_params` reads that list back off a live facility, so a copy
made from it (a shard, a rebuild, a replayed record) has the same kind,
layout and options. A facility's files are named under its ``file_prefix``,
``{kind}:{Class}.{attr}``.
"""

from __future__ import annotations

import base64
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.access.base import SetAccessFacility
from repro.access.bssf import BitSlicedSignatureFile
from repro.access.nix import NestedIndex
from repro.access.ssf import SequentialSignatureFile
from repro.core.signature import SignatureScheme
from repro.errors import ConfigurationError, StorageError

#: memtable entries an LSM facility seals into a run
DEFAULT_FLUSH_THRESHOLD = 256
#: runs per level before an LSM facility merges them
DEFAULT_FANOUT = 4

_SCHEME = ("signature_bits", "bits_per_element", "seed")

#: kind -> the parameters of its ``create_index`` record, in record order
PARAMETERS: Dict[str, Tuple[str, ...]] = {
    "ssf": _SCHEME + ("lsm", "flush_threshold", "fanout"),
    "bssf": _SCHEME + ("worst_case_insert", "lsm", "flush_threshold", "fanout"),
    "nix": ("overflow_chains",),
}

#: the facility kinds, which also head their files' names
FACILITY_KINDS = tuple(PARAMETERS)

#: an omitted or ``None`` parameter; ``lsm``'s default is the database's mode
_DEFAULTS: Dict[str, Any] = {
    "seed": 0,
    "worst_case_insert": False,
    "flush_threshold": DEFAULT_FLUSH_THRESHOLD,
    "fanout": DEFAULT_FANOUT,
    "overflow_chains": False,
}


class Layout(NamedTuple):
    """How one kind in one layout is checked, built, described and
    re-attached."""

    #: the parameters this layout reads; its record logs the rest at default
    uses: Tuple[str, ...]
    #: options -> raises if they make no facility (before anything is logged)
    check: Callable[[Dict[str, Any]], Any]
    #: ``(storage, file prefix, options) ->`` a new, empty facility
    create: Callable[..., SetAccessFacility]
    #: facility -> the fields its snapshot catalog entry adds
    describe: Callable[[Any], Dict[str, Any]]
    #: ``(storage, file prefix, snapshot entry) ->`` the facility over its files
    attach: Callable[..., SetAccessFacility]


def _scheme(options: Dict[str, Any]) -> SignatureScheme:
    return SignatureScheme(
        options["signature_bits"], options["bits_per_element"], seed=options["seed"]
    )


def _entry_scheme(entry: Dict[str, Any]) -> SignatureScheme:
    return SignatureScheme(entry["F"], entry["m"], seed=entry["seed"])


def _describe_signatures(facility, **extra) -> Dict[str, Any]:
    scheme = facility.scheme
    return dict(
        F=scheme.signature_bits,
        m=scheme.bits_per_element,
        seed=scheme.seed,
        entry_count=facility.entry_count,
        **extra,
    )


def _lsm(kind: str) -> Layout:
    # Imported on use: the LSM package imports the database, which
    # imports this module.
    def check(options):
        from repro.lsm.facility import check_options

        _scheme(options)
        check_options(options["flush_threshold"], options["fanout"])

    def create(storage, prefix, options):
        from repro.lsm.facility import LSMSignatureFacility

        return LSMSignatureFacility(
            storage, _scheme(options), kind, prefix,
            flush_threshold=options["flush_threshold"], fanout=options["fanout"],
        )

    def attach(storage, prefix, entry):
        from repro.lsm.facility import LSMSignatureFacility

        # Runs and manifest slots are storage files under the prefix; the
        # entry carries the memtable and counters (a serde blob: element
        # sets are not JSON-safe).
        blob = base64.b64decode(entry["lsm"])
        return LSMSignatureFacility.attach(storage, _entry_scheme(entry), prefix, blob)

    return Layout(
        _SCHEME + ("flush_threshold", "fanout"),
        check,
        create,
        lambda facility: _describe_signatures(
            facility, lsm=base64.b64encode(facility.state_blob()).decode("ascii")
        ),
        attach,
    )


#: ``(kind, lsm) ->`` its :class:`Layout`
CATALOG: Dict[Tuple[str, bool], Layout] = {
    ("ssf", False): Layout(
        _SCHEME,
        _scheme,
        lambda storage, prefix, options: SequentialSignatureFile(
            storage, _scheme(options), file_prefix=prefix
        ),
        _describe_signatures,
        lambda storage, prefix, entry: SequentialSignatureFile.attach(
            storage, _entry_scheme(entry), prefix, entry["entry_count"]
        ),
    ),
    ("bssf", False): Layout(
        _SCHEME + ("worst_case_insert",),
        _scheme,
        lambda storage, prefix, options: BitSlicedSignatureFile(
            storage, _scheme(options), file_prefix=prefix,
            worst_case_insert=options["worst_case_insert"],
        ),
        lambda facility: _describe_signatures(
            facility, worst_case_insert=facility.worst_case_insert
        ),
        lambda storage, prefix, entry: BitSlicedSignatureFile.attach(
            storage, _entry_scheme(entry), prefix, entry["entry_count"],
            worst_case_insert=entry["worst_case_insert"],
        ),
    ),
    ("nix", False): Layout(
        ("overflow_chains",),
        lambda options: None,
        lambda storage, prefix, options: NestedIndex(
            storage, file_prefix=prefix, overflow_chains=options["overflow_chains"]
        ),
        lambda facility: {"overflow_chains": facility.overflow_chains},
        lambda storage, prefix, entry: NestedIndex.attach(
            storage, prefix, overflow_chains=entry.get("overflow_chains", False)
        ),
    ),
    ("ssf", True): _lsm("ssf"),
    ("bssf", True): _lsm("bssf"),
}


def layout(kind: str, lsm: bool = False) -> Layout:
    """The catalog entry of ``kind`` in one layout."""
    if (kind, lsm) not in CATALOG:
        raise ConfigurationError(f"unknown facility kind: {kind!r}")
    return CATALOG[(kind, lsm)]


def file_prefix(kind: str, class_name: str, attribute: str) -> str:
    """The prefix every file of one facility is named under."""
    return f"{kind}:{class_name}.{attribute}"


def facility_of_file(name: str) -> Optional[Tuple[str, str, str]]:
    """``(class_name, attribute, kind)`` that a storage file or path names.

    ``name`` is a facility's file (``{kind}:{Class}.{attr}:{part}``, an
    LSM run's or manifest slot's included) or a ``{Class}.{attr}/{kind}``
    path, the form reports and degraded marks use. Anything else (object
    files, ``"database"``) returns ``None``.
    """
    path, slash, kind = name.rpartition("/")
    if not slash:
        kind, _, rest = name.partition(":")
        path, colon, _ = rest.partition(":")
        if not colon:
            return None
    class_name, dot, attribute = path.partition(".")
    if kind not in FACILITY_KINDS or not dot:
        return None
    return class_name, attribute, kind


def _record(kind: str, lsm: bool, options: Dict[str, Any]) -> list:
    """``kind``'s parameter list; what the layout does not read is logged
    at its default, so the list holds nothing the facility forgets."""
    values = {**_DEFAULTS, "lsm": lsm}
    values.update((name, options[name]) for name in layout(kind, lsm).uses)
    return [values[name] for name in PARAMETERS[kind]]


def resolve(kind: str, params: Sequence, lsm_default: bool) -> list:
    """The ``create_index`` record's parameter list for ``(kind, params)``.

    ``params`` is positional in :data:`PARAMETERS` order; a shorter list
    (an older record) and ``None`` entries take the defaults, and an unset
    ``lsm`` takes ``lsm_default``. Options that make no facility (a bad
    signature scheme, an LSM ``fanout`` of 1) raise here, before anything
    is logged, so the log never holds a record that cannot be replayed.
    """
    if kind not in PARAMETERS:
        raise ConfigurationError(f"unknown facility kind: {kind!r}")
    names = PARAMETERS[kind]
    if len(params) > len(names):
        raise ConfigurationError(f"{kind} takes at most {len(names)} parameters")
    given = {name: value for name, value in zip(names, params) if value is not None}
    options = {**_DEFAULTS, **given}
    missing = [name for name in names if name not in options and name != "lsm"]
    if missing:
        raise ConfigurationError(f"a {kind} index needs {', '.join(missing)}")
    lsm = "lsm" in names and bool(given.get("lsm", lsm_default))
    layout(kind, lsm).check(options)
    return _record(kind, lsm, options)


def create(storage, kind: str, class_name: str, attribute: str, params: list):
    """A new, empty facility from a :func:`resolve`-d parameter list."""
    options = dict(zip(PARAMETERS[kind], params))
    return layout(kind, bool(options.get("lsm"))).create(
        storage, file_prefix(kind, class_name, attribute), options
    )


def create_params(facility: SetAccessFacility) -> Tuple[str, list]:
    """``(kind, params)`` that make another facility like ``facility``."""
    kind, lsm = facility.name, facility.is_lsm
    scheme = getattr(facility, "scheme", None)
    options = {
        name: getattr(scheme if name in _SCHEME else facility, name)
        for name in layout(kind, lsm).uses
    }
    return kind, _record(kind, lsm, options)


def describe(class_name: str, attribute: str, facility) -> Dict[str, Any]:
    """The snapshot catalog entry that re-attaches ``facility``."""
    return {
        "class": class_name,
        "attribute": attribute,
        "facility": facility.name,
        "file_prefix": facility.file_prefix,
        **layout(facility.name, facility.is_lsm).describe(facility),
    }


def attach(storage, entry: Dict[str, Any]) -> SetAccessFacility:
    """The facility a :func:`describe` entry names, over its existing files."""
    key = (entry["facility"], "lsm" in entry)
    if key not in CATALOG:
        raise StorageError(f"unknown facility kind in snapshot: {key[0]!r}")
    return CATALOG[key].attach(storage, entry["file_prefix"], entry)
