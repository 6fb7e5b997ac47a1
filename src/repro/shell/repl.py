"""Interactive shell over one database.

Supports the full statement language of :mod:`repro.shell.ddl` plus shell
meta-commands::

    \\save "file.sigdb"     snapshot the database
    \\load "file.sigdb"     replace the session database from a snapshot
    \\tables               list classes and their object counts
    \\indexes              list facilities and their page counts
    \\trace on|off         append a span tree with per-span page counts
                          to every query result (see repro.obs)
    \\check                run the consistency checker
    \\health               run fsck: checksum sweep, facility verification,
                          degraded-facility listing, replication role
    \\replicas             replication topology: this session's role, or —
                          when \\connect'ed — the fleet's roles and lag
    \\shards               sharding topology: per-shard health when
                          \\connect'ed to a shard map ("a;b;c") or router,
                          or the server's own shard-of announcement
    \\rebuild Class.attr [facility]
                          reconstruct a facility from the object file
    \\workers N            serve select queries through an N-worker
                          QueryService pool (1 restores sequential)
    \\connect URL [TOKEN]  serve select queries through a remote
                          sigfile://host:port server (see `sigfile-repro
                          serve`); DDL and mutations stay local
    \\disconnect           drop the remote connection
    \\help                 this text
    \\quit                 leave

Use programmatically (``Shell.run_line``) or interactively
(``sigfile-repro shell``). A statement script can be replayed with
:meth:`Shell.run_script`, which is also how the shell tests drive it.
"""

from __future__ import annotations

import shlex
import sys
from typing import Iterable, List, Optional

from repro.errors import ReproError
from repro.objects.database import Database
from repro.persistence.snapshot import load_database, save_database
from repro.shell.ddl import execute_statement

_HELP = __doc__

_PROMPT = "sigdb> "


class Shell:
    """Statement-at-a-time driver for one database session."""

    def __init__(self, database: Optional[Database] = None):
        self.database = database or Database()
        self.finished = False
        self.tracing = False
        self.service = None  # QueryService when \workers N (N > 1) is active
        self.remote = None  # RemoteClient when \connect is active

    def _backend(self):
        """The serving backend selects go through; remote wins over pool."""
        return self.remote if self.remote is not None else self.service

    def _replication_line(self) -> str:
        """One-line replication role for ``\\health``."""
        db = self.database
        if getattr(db, "read_only", False):
            return (
                "replication: read-only replica "
                f"(watermark lsn {db.wal_applied_lsn})"
            )
        if db.wal is not None:
            return (
                "replication: wal-mode primary "
                f"(end lsn {db.wal.end_lsn}; serve with `sigfile-repro "
                "serve --wal-dir` to accept subscribers)"
            )
        return "replication: standalone (no wal attached)"

    def _replicas_report(self) -> str:
        """Topology for ``\\replicas``: fleet status when connected."""
        if self.remote is not None:
            try:
                if hasattr(self.remote, "_endpoints"):  # FailoverClient
                    entries = self.remote.status()
                    return "\n".join(
                        "{url}: {role}{lsn}{fails}".format(
                            url=entry["url"],
                            role=entry["role"] if entry["alive"] else "down",
                            lsn=(
                                f" @ lsn {entry['lsn']}"
                                if entry["alive"]
                                else ""
                            ),
                            fails=(
                                f" ({entry['consecutive_failures']} recent "
                                "failure(s))"
                                if entry["consecutive_failures"]
                                else ""
                            ),
                        )
                        for entry in entries
                    )
                status = self.remote.status()
                role = status.get("role", "standalone")
                lines = [
                    f"{self.remote.url}: {role} @ lsn {status.get('lsn', 0)}"
                ]
                for replica in status.get("replicas", []):
                    lines.append(
                        "  replica {name}: acked lsn {acked_lsn}, "
                        "lag {lag_bytes} byte(s)".format(**replica)
                    )
                if role == "primary" and len(lines) == 1:
                    lines.append("  (no subscribed replicas)")
                return "\n".join(lines)
            except (ReproError, OSError) as exc:
                return f"error: {exc}"
        return self._replication_line()

    def _shards_report(self) -> str:
        """Topology for ``\\shards``: router health or PONG announcement."""
        if self.remote is None:
            return "not connected (use \\connect with a ';' shard map)"
        if hasattr(self.remote, "shard_count"):  # ShardRouter
            return "\n".join(
                "shard {shard} {name}: {health}, {requests} request(s), "
                "{failures} failure(s)".format(
                    health="breaker open" if entry["breaker_open"] else "healthy",
                    **entry,
                )
                for entry in self.remote.status()
            )
        if hasattr(self.remote, "_endpoints"):  # FailoverClient
            return (
                f"{self.remote.url}: replicated fleet, not a shard map "
                "(see \\replicas)"
            )
        try:
            status = self.remote.status()  # PONG carries the announcement
        except (ReproError, OSError) as exc:
            return f"error: {exc}"
        shard = status.get("shard")
        if shard:
            return (
                f"{self.remote.url}: shard {shard['index']} of "
                f"{shard['count']} (hash-partitioned)"
            )
        return f"{self.remote.url}: not sharded"

    def _disconnect(self) -> None:
        """Close and drop the remote connection, if any."""
        if self.remote is not None:
            try:
                self.remote.close()
            except OSError:
                pass
            self.remote = None

    def _set_workers(self, workers: int) -> None:
        """Install (or drain) the session QueryService for ``\\workers``."""
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        if workers > 1:
            from repro.server.service import QueryService

            self.service = QueryService(self.database, max_workers=workers)

    # ------------------------------------------------------------------
    # Line handling
    # ------------------------------------------------------------------
    def run_line(self, line: str) -> str:
        """Execute one input line; returns the printable response."""
        line = line.strip()
        if not line or line.startswith("--"):
            return ""
        if line.startswith("\\"):
            return self._meta(line)
        try:
            return execute_statement(
                self.database, line, trace=self.tracing, service=self._backend()
            )
        except ReproError as exc:
            return f"error: {exc}"

    def run_script(self, lines: Iterable[str]) -> List[str]:
        """Run many lines; returns non-empty responses in order."""
        responses = []
        for line in lines:
            if self.finished:
                break
            response = self.run_line(line)
            if response:
                responses.append(response)
        return responses

    # ------------------------------------------------------------------
    # Meta-commands
    # ------------------------------------------------------------------
    def _meta(self, line: str) -> str:
        try:
            parts = shlex.split(line[1:])
        except ValueError as exc:
            return f"error: {exc}"
        if not parts:
            return "error: empty meta-command"
        command, args = parts[0].lower(), parts[1:]
        if command in ("quit", "exit", "q"):
            self.finished = True
            if self.service is not None:
                self.service.shutdown()
                self.service = None
            self._disconnect()
            return "bye"
        if command == "help":
            return _HELP
        if command == "tables":
            names = self.database.objects.class_names()
            if not names:
                return "(no classes)"
            return "\n".join(
                f"{name}: {self.database.count(name)} object(s)"
                for name in names
            )
        if command == "indexes":
            report = self.database.facility_storage_report()
            if not report:
                return "(no indexes)"
            return "\n".join(
                f"{path}: {pages} ({sum(pages.values())} pages)"
                for path, pages in sorted(report.items())
            )
        if command == "trace":
            if len(args) != 1 or args[0].lower() not in ("on", "off"):
                return "usage: \\trace on|off"
            self.tracing = args[0].lower() == "on"
            return f"tracing {'on' if self.tracing else 'off'}"
        if command == "check":
            try:
                checked = self.database.check_consistency()
            except ReproError as exc:
                return f"INCONSISTENT: {exc}"
            if not checked:
                return "consistent (no indexes)"
            body = ", ".join(f"{path}×{n}" for path, n in sorted(checked.items()))
            return f"consistent ({body})"
        if command == "health":
            from repro.recovery import run_fsck

            report = run_fsck(self.database, deep="deep" in args)
            rendered = report.render()
            if report.wal_status is None:
                rendered += "\nfsck: wal disabled (durability: {})".format(
                    self.database.durability
                )
            rendered += "\n" + self._replication_line()
            return rendered
        if command == "replicas":
            return self._replicas_report()
        if command == "shards":
            return self._shards_report()
        if command == "rebuild":
            if not 1 <= len(args) <= 2 or "." not in args[0]:
                return "usage: \\rebuild Class.attribute [facility]"
            class_name, attribute = args[0].split(".", 1)
            facility_name = args[1] if len(args) == 2 else None
            try:
                facility = self.database.rebuild_facility(
                    class_name, attribute, facility_name
                )
            except ReproError as exc:
                return f"error: {exc}"
            return f"rebuilt {facility.name} on {class_name}.{attribute}"
        if command == "connect":
            if not 1 <= len(args) <= 2:
                return "usage: \\connect sigfile://host:port [token]"
            from repro.serving import connect

            try:
                client = connect(
                    args[0], token=args[1] if len(args) == 2 else None
                )
                client.ping()
            except (ReproError, OSError) as exc:
                return f"error: cannot connect to {args[0]}: {exc}"
            self._disconnect()
            self.remote = client
            info = client.server_info or {}
            server = info.get("server", "sigfile-repro")
            return f"connected to {client.url} ({server})"
        if command == "disconnect":
            if self.remote is None:
                return "not connected"
            url = self.remote.url
            self._disconnect()
            return f"disconnected from {url}"
        if command == "workers":
            if len(args) != 1 or not args[0].isdigit() or int(args[0]) < 1:
                return "usage: \\workers N (N >= 1)"
            workers = int(args[0])
            try:
                self._set_workers(workers)
            except ReproError as exc:
                return f"error: {exc}"
            if workers == 1:
                return "serving sequentially"
            return f"serving through {workers} worker(s)"
        if command == "save":
            if len(args) != 1:
                return "usage: \\save <path>"
            try:
                save_database(self.database, args[0])
            except (ReproError, OSError) as exc:
                return f"error: {exc}"
            return f"saved to {args[0]}"
        if command == "load":
            if len(args) != 1:
                return "usage: \\load <path>"
            try:
                self.database = load_database(args[0])
            except (ReproError, OSError) as exc:
                return f"error: {exc}"
            if self.service is not None:
                # Rebind the worker pool to the freshly loaded database.
                self._set_workers(self.service.max_workers)
            return f"loaded {args[0]}"
        return f"error: unknown meta-command \\{command}"


def interactive_loop(
    database: Optional[Database] = None,
    input_stream=None,
    output_stream=None,
) -> int:
    """Blocking read-eval-print loop (the ``sigfile-repro shell`` command)."""
    input_stream = input_stream or sys.stdin
    output_stream = output_stream or sys.stdout
    shell = Shell(database)
    output_stream.write(
        "signature-file OODB shell — \\help for commands, \\quit to exit\n"
    )
    while not shell.finished:
        output_stream.write(_PROMPT)
        output_stream.flush()
        line = input_stream.readline()
        if not line:
            break
        response = shell.run_line(line)
        if response:
            output_stream.write(response + "\n")
    return 0
