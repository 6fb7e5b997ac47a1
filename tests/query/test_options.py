"""ExecutionOptions: the one object that configures an execution."""

import inspect

import pytest

from repro.query import executor as executor_module
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions, coerce_options
from repro.query.planner import CostContext
from tests.conftest import HOBBIES, populate_students

CTX = CostContext(
    num_objects=120, domain_cardinality=len(HOBBIES), target_cardinality=3
)
QUERY = 'select Student where hobbies contains "Baseball"'


@pytest.fixture
def executor(student_db):
    populate_students(student_db)
    student_db.create_bssf_index(
        "Student", "hobbies", signature_bits=128, bits_per_element=2
    )
    return QueryExecutor(student_db)


class TestExecutionOptions:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.context is None
        assert opts.prefer_facility is None
        assert opts.smart is True
        assert opts.trace is False
        assert opts.tracer is None
        assert not opts.tracing_requested

    def test_evolve_returns_modified_copy(self):
        opts = ExecutionOptions(smart=False)
        traced = opts.evolve(trace=True)
        assert traced.trace and not opts.trace
        assert traced.smart is False

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionOptions().smart = False

    def test_tracer_implies_tracing_requested(self):
        from repro.obs.tracer import Tracer

        assert ExecutionOptions(tracer=Tracer()).tracing_requested


class TestCoerceOptions:
    def test_no_arguments_yields_defaults(self):
        assert coerce_options(None) == ExecutionOptions()

    def test_options_object_passes_through(self):
        opts = ExecutionOptions(smart=False)
        assert coerce_options(opts) is opts

    def test_mixing_styles_is_an_error(self, executor):
        # The pre-ExecutionOptions keywords are gone from every entry point.
        with pytest.raises(TypeError):
            executor.execute_text(QUERY, ExecutionOptions(), smart=False)
        with pytest.raises(TypeError):
            executor.explain(QUERY, context=CTX)

    def test_unknown_keyword_is_an_error(self, executor):
        with pytest.raises(TypeError):
            executor.execute_text(QUERY, facility="bssf")


class TestElapsedClock:
    def test_executor_uses_perf_counter_not_wall_clock(self):
        """Regression guard: elapsed_seconds must come from the monotonic
        high-resolution clock, never ``time.time()`` (coarse, and steps
        backwards on wall-clock adjustment)."""
        source = inspect.getsource(executor_module)
        assert "time.perf_counter()" in source
        assert "time.time()" not in source

    def test_elapsed_is_recorded(self, executor):
        result = executor.execute_text(QUERY, ExecutionOptions(context=CTX))
        assert result.statistics.elapsed_seconds >= 0.0
