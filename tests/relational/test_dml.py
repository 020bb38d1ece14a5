"""DML through the shared plan pipeline: semantics and plumbing.

INSERT/DELETE/UPDATE are planned, optimized, cached, and executed like
queries — every executor route produces the same delta — and the
mutation side keeps the rest of the stack honest: lazy key indexes are
not eagerly rebuilt, catalog statistics are maintained incrementally
(no rescans), cache invalidation is surgical, and the flight recorder
and EXPLAIN ANALYZE see DML as first-class citizens.
"""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.errors import ParseError, SchemaError
from repro.obs.metrics import MetricsRegistry
from repro.opt.catalog import TableStats
from repro.relational.database import Database
from repro.relational.dml import (
    DeleteStatement,
    DMLResult,
    InsertStatement,
    UpdateStatement,
)
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.sql_frontend import parse_sql
from repro.relational.types import INTEGER, Domain


def make_wb(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return MetatheoryWorkbench(
        Database.from_dict(
            {
                "emp": (
                    ("name", "dept", "salary"),
                    [
                        ("ann", "cs", 90),
                        ("bob", "cs", 80),
                        ("cal", "it", 70),
                    ],
                ),
                "dept": (("dept", "city"), [("cs", "sd"), ("it", "la")]),
            }
        ),
        **kwargs,
    )


class TestParsing:
    def test_insert_values(self):
        stmt = parse_sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        assert isinstance(stmt, InsertStatement)
        assert stmt.kind == "insert" and stmt.target == "emp"

    def test_insert_select(self):
        stmt = parse_sql(
            "INSERT INTO emp SELECT name, dept, salary FROM emp "
            "WHERE salary > 80"
        )
        assert isinstance(stmt, InsertStatement)

    def test_delete_and_update(self):
        assert isinstance(
            parse_sql("DELETE FROM emp WHERE dept = 'cs'"), DeleteStatement
        )
        stmt = parse_sql("UPDATE emp SET salary = 95 WHERE name = 'ann'")
        assert isinstance(stmt, UpdateStatement)

    def test_malformed_dml_raises(self):
        with pytest.raises(ParseError):
            parse_sql("INSERT INTO emp")
        with pytest.raises(ParseError):
            parse_sql("UPDATE emp WHERE name = 'ann'")


class TestSemantics:
    def test_insert_values_appends_rows(self):
        wb = make_wb()
        result = wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        assert isinstance(result, DMLResult)
        assert result.rows_inserted == 1 and result.rows_deleted == 0
        assert result.rows_affected == len(result) == 1
        assert ("dee", "it", 60) in wb.db["emp"].tuples

    def test_insert_duplicate_is_a_set_semantics_noop(self):
        wb = make_wb()
        result = wb.sql("INSERT INTO emp VALUES ('ann', 'cs', 90)")
        assert result.rows_affected == 0
        assert len(wb.db["emp"]) == 3

    def test_insert_select_runs_the_source_query(self):
        # Positional assignment, as in SQL: (name, dept) rows land in
        # dept's (dept, city) columns.
        wb = make_wb()
        result = wb.sql(
            "INSERT INTO dept SELECT name, dept FROM emp WHERE salary > 75"
        )
        assert result.rows_inserted == 2
        assert ("ann", "cs") in wb.db["dept"].tuples
        assert ("bob", "cs") in wb.db["dept"].tuples

    def test_delete_where_removes_matches(self):
        wb = make_wb()
        result = wb.sql("DELETE FROM emp WHERE dept = 'cs'")
        assert result.rows_deleted == 2
        assert result.rows_matched == 2
        assert wb.db["emp"].tuples == {("cal", "it", 70)}

    def test_delete_without_matches_affects_nothing(self):
        wb = make_wb()
        before = wb.db["emp"]
        result = wb.sql("DELETE FROM emp WHERE dept = 'hr'")
        assert result.rows_affected == 0
        assert wb.db["emp"] is before

    def test_update_rewrites_matched_rows(self):
        wb = make_wb()
        result = wb.sql("UPDATE emp SET salary = 99 WHERE dept = 'cs'")
        assert result.rows_matched == 2
        assert result.rows_inserted == 2 and result.rows_deleted == 2
        assert ("ann", "cs", 99) in wb.db["emp"].tuples
        assert ("bob", "cs", 99) in wb.db["emp"].tuples

    def test_identity_update_is_a_noop(self):
        wb = make_wb()
        before = wb.db["emp"]
        result = wb.sql("UPDATE emp SET dept = 'cs' WHERE dept = 'cs'")
        assert result.rows_matched == 2
        assert result.rows_affected == 0
        assert wb.db["emp"] is before

    def test_merging_update_keeps_set_cardinality(self):
        # Both cs rows collapse onto one image: 2 deleted, 1 inserted.
        wb = make_wb()
        result = wb.sql(
            "UPDATE emp SET name = 'x', salary = 0 WHERE dept = 'cs'"
        )
        assert result.rows_deleted == 2 and result.rows_inserted == 1
        assert len(wb.db["emp"]) == 2

    def test_dml_on_system_relations_is_rejected(self):
        wb = make_wb()
        with pytest.raises(SchemaError):
            wb.sql("DELETE FROM sys_tables WHERE rows = 0")

    def test_dml_on_unknown_relation_is_rejected(self):
        wb = make_wb()
        with pytest.raises(SchemaError):
            wb.sql("INSERT INTO ghost VALUES (1)")


def make_counted_wb(rows):
    """A workbench over ``acct(id, val)`` whose ``id`` domain counts how
    often it is consulted — one call per validated tuple."""
    calls = []

    def is_int(value):
        calls.append(value)
        return isinstance(value, int) and not isinstance(value, bool)

    schema = RelationSchema("acct", ("id", "val"), (Domain("id", is_int),
                                                    INTEGER))
    db = Database()
    db.add(Relation(schema, [(i, i % 7) for i in range(rows)]))
    calls.clear()
    return MetatheoryWorkbench(db, metrics=MetricsRegistry()), calls


class TestDeltaValidation:
    """A new version validates only the tuples the delta adds: every
    stored tuple was validated when it entered."""

    FOUR_ROWS = (
        "INSERT INTO acct VALUES (5000, 1), (5001, 1), (5002, 1), (5003, 1)"
    )

    def test_autocommit_insert_validates_only_the_added_rows(self):
        wb, calls = make_counted_wb(2000)
        wb.sql(self.FOUR_ROWS)
        assert sorted(calls) == [5000, 5001, 5002, 5003]
        assert len(wb.db["acct"]) == 2004

    def test_transactional_insert_validates_only_the_added_rows(self):
        wb, calls = make_counted_wb(2000)
        with wb.begin() as txn:
            txn.sql(self.FOUR_ROWS)
        assert sorted(calls) == [5000, 5001, 5002, 5003]
        assert len(wb.db["acct"]) == 2004

    def test_update_and_delete_validate_only_new_images(self):
        wb, calls = make_counted_wb(2000)
        wb.sql("UPDATE acct SET val = 9 WHERE acct.id = 3")
        assert calls == [3]
        calls.clear()
        wb.sql("DELETE FROM acct WHERE acct.val = 9")
        assert calls == []
        assert len(wb.db["acct"]) == 1999

    def test_out_of_domain_insert_raises_and_leaves_no_version(self):
        wb, _calls = make_counted_wb(20)
        store = wb.db.store()
        vid, entries = store.vid, len(store.journal.entries())
        with pytest.raises(SchemaError):
            wb.sql("INSERT INTO acct VALUES (1, 1), ('x', 1)")
        assert store.vid == vid
        assert len(store.journal.entries()) == entries
        assert len(wb.db["acct"]) == 20

    def test_out_of_domain_insert_in_a_transaction_stages_nothing(self):
        wb, _calls = make_counted_wb(20)
        store = wb.db.store()
        vid, entries = store.vid, len(store.journal.entries())
        txn = wb.begin()
        with pytest.raises(SchemaError):
            txn.sql("INSERT INTO acct VALUES (100, 1), (101, 2.5)")
        assert txn.writes == set() and txn.binding("acct") is wb.db["acct"]
        assert len(store.journal.entries()) == entries
        txn.commit()
        assert store.vid == vid
        assert len(wb.db["acct"]) == 20

    def test_wrong_arity_rows_raise_on_the_delta_paths(self):
        wb, _calls = make_counted_wb(20)
        store = wb.db.store()
        vid = store.vid
        with pytest.raises(SchemaError):
            wb.db.insert("acct", [(1, 2, 3)])
        with pytest.raises(SchemaError):
            wb.db.apply_delta("acct", insert_rows=[(7,)],
                              delete_rows=[(1, 1)])
        assert store.vid == vid
        assert len(wb.db["acct"]) == 20
        # Through SQL a VALUES arity mismatch is caught earlier still.
        with pytest.raises(ParseError):
            wb.sql("INSERT INTO acct VALUES (1, 2, 3)")

    def test_with_delta_reports_only_actual_changes(self):
        wb, calls = make_counted_wb(5)
        rel = wb.db["acct"]
        same, added, removed = rel.with_delta([(1, 1)], [(99, 0)])
        assert same is rel and added == removed == frozenset()
        assert calls == []
        new, added, removed = rel.with_delta([(7, 0), (2, 2)], [(2, 2)])
        assert added == {(7, 0)} and removed == frozenset()
        assert new.tuples == rel.tuples | {(7, 0)}
        assert calls == [7]


class TestExecutorRoutes:
    ROUTES = [
        {"executor": True},
        {"executor": False},
        {"executor": True, "optimized": False},
        {"executor": "compiled"},
        {"executor": "compiled", "optimized": False},
    ]

    @pytest.mark.parametrize("kwargs", ROUTES)
    def test_all_routes_produce_the_same_delta(self, kwargs):
        wb = make_wb()
        result = wb.sql("DELETE FROM emp WHERE salary > 75", **kwargs)
        assert result.rows_deleted == 2
        assert wb.db["emp"].tuples == {("cal", "it", 70)}

    def test_compiled_insert_select_matches_streaming(self):
        streaming, compiled = make_wb(), make_wb()
        text = (
            "INSERT INTO dept SELECT name, dept FROM emp WHERE salary > 75"
        )
        a = streaming.sql(text)
        b = compiled.sql(text, executor="compiled")
        assert (a.rows_inserted, a.rows_deleted) == (
            b.rows_inserted, b.rows_deleted,
        )
        assert streaming.db["dept"].tuples == compiled.db["dept"].tuples
        assert compiled.kernel_cache.stats()["codegens"] >= 1


class TestLazyIndexes:
    """The satellite regression: mutations must not eagerly rebuild
    cached key indexes — the new binding starts cold and rebuilds
    lazily on first use."""

    def test_insert_does_not_eagerly_rebuild_key_indexes(self):
        wb = make_wb()
        old = wb.db["emp"]
        old._key_index((1,))  # warm an index on the current binding
        assert old.cached_index_patterns() == [(1,)]
        wb.db.insert("emp", [("dee", "it", 60)])
        fresh = wb.db["emp"]
        assert fresh is not old
        assert fresh.cached_index_patterns() == []  # lazy, not rebuilt

    def test_dml_statement_leaves_the_new_binding_cold(self):
        wb = make_wb()
        wb.db["emp"]._key_index((0,))
        wb.sql("UPDATE emp SET salary = 99 WHERE name = 'ann'")
        assert wb.db["emp"].cached_index_patterns() == []

    def test_index_rebuilds_lazily_and_correctly_after_delta(self):
        wb = make_wb()
        wb.db["emp"]._key_index((1,))
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        fresh = wb.db["emp"]
        index = fresh._key_index((1,))
        assert {row for row in index[("it",)]} == {
            ("cal", "it", 70), ("dee", "it", 60),
        }
        assert fresh.cached_index_patterns() == [(1,)]


class TestCatalogMaintenance:
    def test_delta_census_equals_fresh_census_without_rescans(self):
        wb = make_wb()
        catalog = wb.db.catalog()
        catalog.stats("emp")
        assert catalog.rescans == 1
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        wb.sql("UPDATE emp SET salary = 99 WHERE dept = 'cs'")
        wb.sql("DELETE FROM emp WHERE name = 'cal'")
        stats = catalog.stats("emp")
        fresh = TableStats.from_relation(wb.db["emp"])
        assert stats.rows == fresh.rows
        assert stats._values == fresh._values
        assert stats.distincts() == fresh.distincts()
        assert catalog.rescans == 1  # never rescanned on the delta path

    def test_transactional_commit_maintains_the_census_too(self):
        wb = make_wb()
        catalog = wb.db.catalog()
        catalog.stats("emp")
        with wb.begin() as txn:
            txn.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
            txn.sql("DELETE FROM emp WHERE name = 'ann'")
        stats = catalog.stats("emp")
        fresh = TableStats.from_relation(wb.db["emp"])
        assert stats.rows == fresh.rows
        assert stats._values == fresh._values
        assert catalog.rescans == 1


class TestCacheCoherence:
    def test_dml_invalidates_only_plans_touching_the_target(self):
        wb = make_wb()
        wb.sql("SELECT name FROM emp WHERE salary > 75")
        wb.sql("SELECT city FROM dept")
        assert wb.plan_cache.stats()["size"] == 2
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        wb.sql("SELECT city FROM dept")  # untouched relation: still hot
        stats = wb.plan_cache.stats()
        assert stats["hits"] >= 1
        wb.sql("SELECT name FROM emp WHERE salary > 75")  # re-planned
        assert wb.plan_cache.stats()["misses"] > stats["misses"]

    def test_same_shape_dml_keeps_compiled_kernels(self):
        wb = make_wb()
        wb.sql("SELECT name FROM emp WHERE salary > 75",
               executor="compiled")
        codegens = wb.kernel_cache.stats()["codegens"]
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 99)")
        out = wb.sql("SELECT name FROM emp WHERE salary > 75",
                     executor="compiled")
        assert ("dee",) in out.tuples
        # The insert changed data, not shape: the kernel is reused.
        assert wb.kernel_cache.stats()["codegens"] == codegens

    def test_dml_plans_are_themselves_cached(self):
        wb = make_wb()
        wb.sql("DELETE FROM emp WHERE name = 'nobody'")
        misses = wb.plan_cache.stats()["misses"]
        wb.sql("DELETE FROM emp WHERE name = 'nobody'")
        stats = wb.plan_cache.stats()
        assert stats["misses"] == misses
        assert stats["hits"] >= 1


class TestObservability:
    def test_history_records_dml_with_route_and_fingerprint(self):
        wb = make_wb(history=True)
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        record = wb.history.last()
        assert record.kind == "sql"
        assert record.route == "dml:insert:streaming"
        assert record.plan_fingerprint
        assert record.rows == 1  # rows_affected is the cardinality
        wb.sql("DELETE FROM emp WHERE dept = 'it'", executor="compiled")
        assert wb.history.last().route == "dml:delete:compiled"

    def test_metrics_count_statements_and_rows(self):
        wb = make_wb()
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        wb.sql("DELETE FROM emp WHERE dept = 'it'")
        assert wb.metrics.counter(
            "dml_statements_total", kind="insert"
        ).value == 1
        assert wb.metrics.counter(
            "dml_statements_total", kind="delete"
        ).value == 1

    def test_explain_analyze_applies_the_delta_and_reports(self):
        wb = make_wb()
        explained = wb.explain_analyze("DELETE FROM emp WHERE dept = 'cs'")
        result = explained.result
        assert isinstance(result, DMLResult)
        assert result.rows_deleted == 2
        assert wb.db["emp"].tuples == {("cal", "it", 70)}  # ANALYZE runs
        assert explained.plan_cache_hit is False
        assert explained.kernel["fingerprint"]
        assert explained.kernel["status"] in (
            "cold", "compiled", "fallback",
        )
        assert explained.report is not None

    def test_explain_analyze_sees_warm_caches(self):
        wb = make_wb()
        wb.sql("DELETE FROM emp WHERE name = 'nobody'",
               executor="compiled")
        explained = wb.explain_analyze(
            "DELETE FROM emp WHERE name = 'nobody'"
        )
        assert explained.plan_cache_hit is True
        assert explained.parse_cache_hit is True
        assert explained.kernel["status"] == "compiled"
