"""The workbench's front door: the ``executor`` check and the parse cache."""

import pytest

from repro import MetatheoryWorkbench
from repro.core import workbench
from repro.errors import PlanError
from repro.relational import RelationRef


def make_wb():
    return MetatheoryWorkbench.from_dict(
        {"r": (("a", "b"), [(1, 2), (3, 4), (5, 4)])}
    )


#: Every public entry point that takes ``executor=``.
ENTRY_POINTS = {
    "sql": lambda wb, executor: wb.sql(
        "SELECT r.a FROM r", executor=executor
    ),
    "algebra": lambda wb, executor: wb.algebra(
        RelationRef("r"), executor=executor
    ),
    "calculus": lambda wb, executor: wb.calculus(
        "{(x) | exists y . r(x, y)}", executor=executor
    ),
    "run-sql": lambda wb, executor: wb.run(
        "SELECT r.a FROM r", executor=executor
    ),
    "run-datalog": lambda wb, executor: wb.run(
        "p(X) :- r(X, Y).", executor=executor
    ),
    "datalog": lambda wb, executor: wb.datalog(
        "p(X) :- r(X, Y).", executor=executor
    ),
}


class TestExecutorArgument:
    @pytest.mark.parametrize("recording", [False, True])
    @pytest.mark.parametrize("executor", ["complied", "parallel"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_unknown_value_raises(self, entry, executor, recording):
        wb = make_wb()
        if recording:
            wb.history.enable()
        with pytest.raises(PlanError, match="unknown executor %r" % executor):
            ENTRY_POINTS[entry](wb, executor)


class TestParseCache:
    def test_bounded_and_keeps_the_newest_text(self):
        capacity = workbench.PARSE_CACHE_SIZE
        wb = make_wb()
        texts = [
            "SELECT r.a FROM r WHERE r.b = %d" % i
            for i in range(2 * capacity)
        ]
        for text in texts:
            wb.sql(text, optimized=False)
        assert len(wb._parse_cache) <= capacity
        assert wb.explain_analyze(texts[-1]).parse_cache_hit is True
        assert wb.explain_analyze(texts[0]).parse_cache_hit is False

    def test_a_reused_text_is_never_evicted(self):
        # Least recently used, not first in: a text re-issued more often
        # than once per PARSE_CACHE_SIZE distinct texts keeps hitting.
        capacity = workbench.PARSE_CACHE_SIZE
        wb = make_wb()
        hot = "SELECT r.a FROM r"
        hits = []
        for i in range(2 * capacity):
            wb.sql("SELECT r.a FROM r WHERE r.b = %d" % i, optimized=False)
            if i % (capacity // 2) == 0:
                wb.history.enable()
                wb.sql(hot, optimized=False)
                hits.append(wb.history.last().parse_cache_hit)
                wb.history.disable()
        assert hits == [False, True, True, True]
