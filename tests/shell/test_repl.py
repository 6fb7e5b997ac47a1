"""Tests for the interactive shell."""

import io

import pytest

from repro.shell.repl import Shell, interactive_loop

SETUP = [
    "create class Student (name scalar, hobbies set)",
    "create index nix on Student.hobbies",
    'insert into Student (name = "Jeff", hobbies = {"Baseball"})',
]


class TestShell:
    def test_script_flow(self):
        shell = Shell()
        responses = shell.run_script(
            SETUP + ['select Student where hobbies contains "Baseball"']
        )
        assert any("1 row(s)" in r for r in responses)

    def test_blank_lines_and_comments_ignored(self):
        shell = Shell()
        assert shell.run_line("") == ""
        assert shell.run_line("   ") == ""
        assert shell.run_line("-- a comment") == ""

    def test_errors_reported_not_raised(self):
        shell = Shell()
        response = shell.run_line("select Nope where a contains 1")
        assert response.startswith("error:")

    def test_parse_errors_reported(self):
        shell = Shell()
        assert shell.run_line("create index foo on A.b").startswith("error:")

    def test_tables_and_indexes(self):
        shell = Shell()
        assert shell.run_line("\\tables") == "(no classes)"
        assert shell.run_line("\\indexes") == "(no indexes)"
        shell.run_script(SETUP)
        assert "Student: 1 object(s)" in shell.run_line("\\tables")
        assert "Student.hobbies/nix" in shell.run_line("\\indexes")

    def test_check(self):
        shell = Shell()
        shell.run_script(SETUP)
        assert shell.run_line("\\check").startswith("consistent")

    def test_quit_stops_script(self):
        shell = Shell()
        responses = shell.run_script(["\\quit", "create class T (a set)"])
        assert responses == ["bye"]
        assert shell.finished

    def test_help(self):
        assert "save" in Shell().run_line("\\help")

    def test_unknown_meta(self):
        assert Shell().run_line("\\frobnicate").startswith("error:")

    def test_trace_toggle_appends_span_tree(self):
        shell = Shell()
        shell.run_script(SETUP)
        query = 'select Student where hobbies contains "Baseball"'
        assert "query.execute" not in shell.run_line(query)
        assert shell.run_line("\\trace on") == "tracing on"
        traced = shell.run_line(query)
        assert "1 row(s)" in traced
        assert "query.execute" in traced and "pages=" in traced
        assert shell.run_line("\\trace off") == "tracing off"
        assert "query.execute" not in shell.run_line(query)

    def test_trace_usage_errors(self):
        shell = Shell()
        assert shell.run_line("\\trace").startswith("usage")
        assert shell.run_line("\\trace maybe").startswith("usage")

    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "s.sigdb")
        shell = Shell()
        shell.run_script(SETUP)
        assert shell.run_line(f'\\save "{path}"') == f"saved to {path}"
        fresh = Shell()
        assert fresh.run_line(f'\\load "{path}"') == f"loaded {path}"
        out = fresh.run_line('select Student where hobbies contains "Baseball"')
        assert "1 row(s)" in out

    def test_save_usage_errors(self):
        shell = Shell()
        assert shell.run_line("\\save").startswith("usage")
        assert shell.run_line("\\load a b").startswith("usage")

    def test_load_missing_file(self):
        assert Shell().run_line('\\load "/nonexistent/x.sigdb"').startswith(
            "error:"
        )


class TestShardsMeta:
    def test_not_connected(self):
        assert "not connected" in Shell().run_line("\\shards")

    def test_reports_router_health(self):
        from repro.objects.database import Database
        from repro.objects.schema import ClassSchema
        from repro.serving import make_service
        from repro.sharding import partition_database

        db = Database(page_size=4096, pool_capacity=0)
        db.define_class(
            ClassSchema.build("Student", name="scalar", hobbies="set")
        )
        db.insert("Student", {"name": "Jeff", "hobbies": {"Baseball"}})
        shell = Shell()
        shell.remote = make_service(partition_database(db, 2), max_workers=1)
        try:
            report = shell.run_line("\\shards")
        finally:
            shell._disconnect()
        assert "shard 0" in report
        assert "shard 1" in report
        assert "healthy" in report

    def test_partial_answers_are_flagged(self):
        from repro.objects.oid import OID
        from repro.query.executor import QueryResult, QueryStatistics
        from repro.shell.ddl import format_query_result

        result = QueryResult(
            rows=[(OID(1, 0), {"name": "Jeff"})],
            statistics=QueryStatistics(plan="index(...)"),
            partial=True,
            missing_shards=["sigfile://127.0.0.1:7842"],
        )
        rendered = format_query_result(result)
        assert "PARTIAL" in rendered
        assert "sigfile://127.0.0.1:7842" in rendered
        complete = QueryResult(
            rows=[], statistics=QueryStatistics(plan="scan")
        )
        assert "PARTIAL" not in format_query_result(complete)


class TestInteractiveLoop:
    def test_loop_over_streams(self):
        stdin = io.StringIO(
            "create class T (tags set)\n"
            "insert into T (tags = {1})\n"
            "select T where tags contains 1\n"
            "\\quit\n"
        )
        stdout = io.StringIO()
        code = interactive_loop(input_stream=stdin, output_stream=stdout)
        assert code == 0
        output = stdout.getvalue()
        assert "1 row(s)" in output
        assert "bye" in output

    def test_loop_handles_eof(self):
        stdin = io.StringIO("create class T (a set)\n")  # no quit: EOF ends
        stdout = io.StringIO()
        assert interactive_loop(input_stream=stdin, output_stream=stdout) == 0
