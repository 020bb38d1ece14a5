"""Partitioning layer: candidates, splits, and sharded plans.

The correctness core of parallel execution is here: which attributes
admit hash partitioning for which plan shapes, and that evaluating the
shard fragments and unioning reproduces the serial answer exactly.
"""

import pickle
import random

import pytest

from repro.errors import PlanError
from repro.parallel import Partitioner, estimate_plan_work, partition_candidates
from repro.parallel.partition import _equi_pairs
from repro.plan import execute
from repro.plan.logical import canonicalize
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


def make_db(rows=200, seed=5):
    rng = random.Random(seed)
    db = Database()
    db.add(Relation(
        RelationSchema("r", ("a", "b")),
        [(rng.randrange(10), rng.randrange(30)) for _ in range(rows)],
    ))
    db.add(Relation(
        RelationSchema("s", ("b", "c")),
        [(rng.randrange(30), rng.randrange(10)) for _ in range(rows)],
    ))
    return db


class TestCandidates:
    def test_leaf_offers_every_attribute(self):
        db = make_db()
        assert partition_candidates(
            ra.RelationRef("r"), db.schema()
        ) == {"a", "b"}

    def test_natural_join_intersects(self):
        db = make_db()
        expr = ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s"))
        assert partition_candidates(expr, db.schema()) == {"b"}

    def test_projection_prunes(self):
        db = make_db()
        expr = ra.Projection(
            ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s")),
            ("a", "c"),
        )
        assert partition_candidates(expr, db.schema()) == set()

    def test_rename_translates(self):
        db = make_db()
        expr = ra.Rename(ra.RelationRef("r"), {"a": "x"})
        assert partition_candidates(expr, db.schema()) == {"x", "b"}

    def test_set_ops_intersect(self):
        db = make_db()
        left = ra.Projection(ra.RelationRef("r"), ("b",))
        right = ra.Projection(ra.RelationRef("s"), ("b",))
        for node in (ra.Union, ra.Difference, ra.Intersection):
            assert partition_candidates(
                node(left, right), db.schema()
            ) == {"b"}

    def test_product_offers_nothing(self):
        db = make_db()
        expr = ra.Product(
            ra.Rename(ra.RelationRef("r"), {"a": "x", "b": "y"}),
            ra.RelationRef("s"),
        )
        assert partition_candidates(expr, db.schema()) == set()

    def test_equi_theta_join_offers_both_sides(self):
        db = make_db()
        expr = ra.ThetaJoin(
            ra.Rename(ra.RelationRef("r"), {"a": "x", "b": "y"}),
            ra.RelationRef("s"),
            ra.Comparison(ra.Attr("y"), "=", ra.Attr("b")),
        )
        assert partition_candidates(expr, db.schema()) == {"y", "b"}
        assert _equi_pairs(expr, db.schema()) == [("y", "b")]

    def test_non_equi_theta_join_offers_nothing(self):
        db = make_db()
        expr = ra.ThetaJoin(
            ra.Rename(ra.RelationRef("r"), {"a": "x", "b": "y"}),
            ra.RelationRef("s"),
            ra.Comparison(ra.Attr("y"), "<", ra.Attr("b")),
        )
        assert partition_candidates(expr, db.schema()) == set()

    def test_equality_under_or_does_not_count(self):
        db = make_db()
        eq = ra.Comparison(ra.Attr("y"), "=", ra.Attr("b"))
        lt = ra.Comparison(ra.Attr("x"), "<", ra.Attr("c"))
        expr = ra.ThetaJoin(
            ra.Rename(ra.RelationRef("r"), {"a": "x", "b": "y"}),
            ra.RelationRef("s"),
            ra.Or(eq, lt),
        )
        assert partition_candidates(expr, db.schema()) == set()


class TestSplits:
    def test_split_relation_partitions_and_covers(self):
        db = make_db()
        shards = Partitioner(4).split_relation(db["r"], "b")
        assert len(shards) == 4
        merged = set()
        for shard in shards:
            assert not (merged & shard.tuples)
            merged |= shard.tuples
        assert merged == db["r"].tuples

    def test_split_respects_hash_alignment(self):
        db = make_db()
        partitioner = Partitioner(3)
        shards = partitioner.split_relation(db["r"], "b")
        for index, shard in enumerate(shards):
            for tup in shard.tuples:
                assert partitioner.shard_of(tup[1]) == index

    def test_split_balance_on_diverse_keys(self):
        rng = random.Random(0)
        rel = Relation(
            RelationSchema("t", ("k",)),
            [(rng.randrange(10**6),) for _ in range(4000)],
        )
        shards = Partitioner(4).split_relation(rel, "k")
        sizes = [len(s) for s in shards]
        assert min(sizes) > 0.5 * max(sizes)

    def test_at_least_one_shard(self):
        with pytest.raises(PlanError):
            Partitioner(0)


class TestShardPlans:
    def run_both(self, expr, db, shards=4, disjoint=True):
        serial = execute(expr, db)
        plan = canonicalize(expr, db.schema())
        sharded = Partitioner(shards).shard_plans(plan, db)
        assert sharded is not None, "expected a partitionable plan"
        _attr, fragments = sharded
        assert len(fragments) == shards
        merged = set()
        for fragment in fragments:
            part = execute(fragment, Database())
            if disjoint:
                assert not (merged & part.tuples), "shards must be disjoint"
            merged |= part.tuples
        assert merged == serial.tuples
        return merged

    def test_join_under_projection_and_selection(self):
        db = make_db()
        expr = ra.Projection(
            ra.Selection(
                ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s")),
                ra.Comparison(ra.Attr("a"), "<", ra.Attr("c")),
            ),
            ("a", "c"),
        )
        # The projection drops the partition attribute, so two shards
        # may derive the same (a, c) pair; the union dedups.
        self.run_both(expr, db, disjoint=False)

    def test_difference_of_projections(self):
        db = make_db()
        expr = ra.Difference(
            ra.Projection(ra.RelationRef("r"), ("b",)),
            ra.Projection(ra.RelationRef("s"), ("b",)),
        )
        self.run_both(expr, db)

    def test_semijoin_and_antijoin(self):
        db = make_db()
        for node in (ra.Semijoin, ra.Antijoin):
            expr = node(ra.RelationRef("r"), ra.RelationRef("s"))
            self.run_both(expr, db)

    def test_self_join_on_different_columns(self):
        # r(a,b) |x| rename(r)(b,c): the partition attribute lands on
        # column b of one copy and column b-as-rename of the other.
        db = make_db()
        expr = ra.NaturalJoin(
            ra.RelationRef("r"),
            ra.Rename(ra.RelationRef("r"), {"a": "b", "b": "c"}),
        )
        self.run_both(expr, db)

    def test_equi_theta_join_splits_each_side_on_its_own_column(self):
        db = make_db()
        expr = ra.ThetaJoin(
            ra.Rename(ra.RelationRef("r"), {"a": "x", "b": "y"}),
            ra.RelationRef("s"),
            ra.Comparison(ra.Attr("y"), "=", ra.Attr("b")),
        )
        self.run_both(expr, db)

    def test_theta_split_skips_pairs_whose_left_side_is_not_aligned(self):
        # Shrunk from the parallel differential suite: ``x1`` appears in
        # two equality pairs, and the first one names ``a3``, which the
        # semijoin below cannot partition on.  Splitting ``x1`` must use
        # the ``(a2, x1)`` pair instead of asking r1 for column a3.
        db = Database()
        rng = random.Random(3)
        for name, attrs in (("r0", ("a0", "a1")), ("r1", ("a1", "a2")),
                            ("r2", ("a2", "a3"))):
            db.add(Relation(RelationSchema(name, attrs), {
                (rng.randrange(5), rng.randrange(5)) for _ in range(12)
            }))
        expr = ra.ThetaJoin(
            ra.Semijoin(ra.RelationRef("r2"), ra.RelationRef("r1")),
            ra.Rename(ra.RelationRef("r0"), {"a0": "x1", "a1": "x2"}),
            ra.And(
                ra.Comparison(ra.Attr("a3"), "=", ra.Attr("x1")),
                ra.Comparison(ra.Attr("a2"), "=", ra.Attr("x1")),
            ),
        )
        plan = canonicalize(expr, db.schema())
        for attribute in sorted(partition_candidates(plan, db.schema())):
            _attr, fragments = Partitioner(2).shard_plans(
                plan, db, attribute=attribute
            )
            merged = set()
            for fragment in fragments:
                merged |= execute(fragment, Database()).tuples
            assert merged == execute(plan, db).tuples

    def test_unpartitionable_plan_returns_none(self):
        db = make_db()
        expr = ra.Product(
            ra.Rename(ra.RelationRef("r"), {"a": "x", "b": "y"}),
            ra.RelationRef("s"),
        )
        plan = canonicalize(expr, db.schema())
        assert Partitioner(4).shard_plans(plan, db) is None

    def test_fragments_are_picklable_and_self_contained(self):
        db = make_db()
        expr = ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s"))
        plan = canonicalize(expr, db.schema())
        _attr, fragments = Partitioner(2).shard_plans(plan, db)
        clone = pickle.loads(pickle.dumps(fragments[0]))
        assert execute(clone, Database()) == execute(fragments[0], Database())


class TestEstimate:
    def test_counts_leaf_rows(self):
        db = make_db(rows=100)
        expected = len(db["r"]) + len(db["s"])
        expr = ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s"))
        assert estimate_plan_work(expr, db) == expected
        assert estimate_plan_work(
            ra.Projection(expr, ("a",)), db
        ) == expected
