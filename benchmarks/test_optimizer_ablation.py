"""Optimizer ablation: which rewrite earns the speedup?

§2(c): "the difficulty of query optimization … came as a surprise, and
necessitated new model development, synthesis, analysis, and
experiments."  This bench is the analysis-by-experiment for our own
optimizer's design choices (DESIGN.md backlog): the same query evaluated
under none / cascade+pushdown / +join formation / +greedy reordering.

Shape claims asserted: every stage preserves results; selection pushdown
delivers the dominant win on the select-over-product query; reordering
helps the chain join.  Table in results/optimizer_ablation.txt.
"""

import random
import statistics

from repro.relational import (
    Database,
    NaturalJoin,
    Projection,
    Relation,
    RelationRef,
    RelationSchema,
    Selection,
    evaluate,
    same_content,
)
from repro.relational.algebra import And, Attr, Comparison, Const
from repro.relational.optimizer import (
    form_joins,
    push_selections,
    reorder_joins,
)

from .conftest import format_table, timed, write_artifact


def star_database(fact_rows=1500, dim_rows=40, seed=0):
    rng = random.Random(seed)
    fact = {
        (rng.randrange(200), rng.randrange(dim_rows))
        for _ in range(fact_rows)
    }
    dim = {(i, "cat%d" % (i % 5)) for i in range(dim_rows)}
    return Database(
        [
            Relation(RelationSchema("fact", ("a", "b")), fact),
            Relation(RelationSchema("dim", ("b", "c")), dim),
        ]
    )


def chain_database(rows=250, seed=1):
    rng = random.Random(seed)
    def rel(name, attrs, n):
        return Relation(
            RelationSchema(name, attrs),
            {(rng.randrange(40), rng.randrange(40)) for _ in range(n)},
        )
    return Database(
        [
            rel("r1", ("a", "b"), rows),
            rel("r2", ("b", "c"), rows),
            rel("r3", ("c", "d"), 5),  # the selective relation
        ]
    )


#: Timing rounds: each variant's figure is its median over this many runs.
ROUNDS = 11


def ablation_rows():
    variants = []

    # Query 1: selection over a product (the pushdown showcase).
    star = star_database()
    query1 = Projection(
        Selection(
            NaturalJoin(RelationRef("fact"), RelationRef("dim")),
            And(
                Comparison(Attr("c"), "=", Const("cat1")),
                Comparison(Attr("a"), "<", Const(10)),
            ),
        ),
        ("a", "c"),
    )
    schema = star.schema()
    reference = evaluate(query1, star)
    variants += [
        ("star/none", query1, star, reference),
        ("star/pushdown", push_selections(query1, schema), star, reference),
        ("star/pushdown+joins",
         form_joins(push_selections(query1, schema), schema), star,
         reference),
    ]

    # Query 2: a 3-way chain join (the reordering showcase).
    chain = chain_database()
    query2 = NaturalJoin(
        NaturalJoin(RelationRef("r1"), RelationRef("r2")),
        RelationRef("r3"),
    )
    reference2 = evaluate(query2, chain)
    variants += [
        ("chain/none", query2, chain, reference2),
        ("chain/reordered", reorder_joins(query2, chain), chain, reference2),
    ]

    # The variants take 2-3 ms each, and on a shared host their timings
    # jump between two speed levels for a few ms at a time.  Interleaving
    # the rounds across variants exposes every variant to the same
    # levels, and the median ignores a rare run on either level, which
    # a best-of-N figure would report for one variant only.
    samples = {label: [] for label, _expr, _db, _expected in variants}
    for _ in range(ROUNDS):
        for label, expr, db, expected in variants:
            seconds, result = timed(lambda: evaluate(expr, db), repeats=1)
            assert same_content(result, expected), label
            samples[label].append(seconds)
    return [
        (label, round(statistics.median(samples[label]) * 1000, 2))
        for label, _expr, _db, _expected in variants
    ]


def test_optimizer_ablation(benchmark):
    rows = benchmark.pedantic(ablation_rows, rounds=1, iterations=1)
    by_label = dict(rows)

    # Pushdown is the dominant win on the star query.
    assert by_label["star/pushdown"] < by_label["star/none"]
    # Join formation must not regress pushdown's result materially.
    assert (
        by_label["star/pushdown+joins"] < by_label["star/none"]
    )
    # Reordering must not lose the chain (r3 is tiny and joins first);
    # the win is workload-dependent, so allow timing jitter.
    assert by_label["chain/reordered"] <= by_label["chain/none"] * 1.5

    table = format_table(("variant", "ms"), rows)
    write_artifact("optimizer_ablation.txt", table)
