"""Hash partitioning of relations and plans for parallel execution.

The door multicore execution walks through is the same one the greedy
join planner opened: equality structure visible in the plan.  A natural
join only combines tuples that *agree* on the shared attributes, so if
every base relation under a plan is split into ``k`` shards by the hash
of one such attribute, every output tuple is derived entirely within one
shard — running the plan fragment per shard and unioning the results is
exactly the original query.  :func:`partition_candidates` computes which
attributes have that property for a canonical plan;
:func:`shard_plans` performs the split, replacing every leaf with a
:class:`~repro.relational.algebra.ConstantRelation` holding its shard
(so fragments are self-contained and picklable — no database handle
crosses the process boundary).

Correct operators (candidate = intersection of both sides' candidates):

* ``Selection``/``Projection``/``Rename`` — per-tuple, pass through
  (projection keeps only surviving attributes; rename translates names);
* ``NaturalJoin`` — matching tuples agree on the candidate, hence land
  in the same shard;
* ``Union``/``Difference``/``Intersection`` — union-compatible sides
  partitioned on the same attribute align shard-by-shard;
* ``Semijoin``/``Antijoin`` — a candidate common to both sides is a
  shared attribute, so witnesses live in the probing tuple's shard
  (including the antijoin's *absence* of witnesses).

``ThetaJoin`` is hash-alignable exactly when its condition carries a
cross-side equality conjunct ``left.x = right.y`` (the shape every SQL
equi-join compiles to): partitioning the left input on ``x`` and the
right on ``y`` puts every satisfying pair in the same shard, whatever
the remaining conjuncts filter.  ``Product``, non-equi ``ThetaJoin``,
and ``Division`` have no hash-alignment to exploit and report no
candidates; plans containing them fall back to the serial executor.

The cost gate (:func:`estimate_plan_work`) keeps small queries off the
pool entirely: below the threshold the fork/pickle/IPC overhead dwarfs
any per-shard win, so the backend never spawns workers for them (a test
pins this).
"""

from __future__ import annotations

from ..errors import PlanError
from ..opt.cost import estimate_plan_work  # noqa: F401  (re-export: the
# cost gate's estimator lives on the unified optimizer cost surface now)
from ..relational import algebra as ra
from ..relational.relation import Relation

#: Node types whose partition candidates are the intersection of both
#: sides' candidates (see module docstring for the per-operator
#: correctness argument).
_ALIGNED_BINARY = (
    ra.NaturalJoin,
    ra.Union,
    ra.Difference,
    ra.Intersection,
    ra.Semijoin,
    ra.Antijoin,
)


def _equi_pairs(expr, db_schema):
    """Cross-side equality pairs ``(left_attr, right_attr)`` of a ThetaJoin.

    Only *top-level conjuncts* of the condition count: an equality under
    an ``Or`` or ``Not`` does not constrain every surviving pair.
    """
    left_attrs = set(expr.left.schema(db_schema).attributes)
    right_attrs = set(expr.right.schema(db_schema).attributes)
    condition = expr.condition
    conjuncts = (
        condition.parts if isinstance(condition, ra.And) else (condition,)
    )
    pairs = []
    for part in conjuncts:
        if not (
            isinstance(part, ra.Comparison)
            and part.op == "="
            and isinstance(part.left, ra.Attr)
            and isinstance(part.right, ra.Attr)
        ):
            continue
        a, b = part.left.name, part.right.name
        if a in left_attrs and b in right_attrs:
            pairs.append((a, b))
        elif b in left_attrs and a in right_attrs:
            pairs.append((b, a))
    return pairs


def partition_candidates(expr, db_schema):
    """Attributes of ``expr``'s output that admit hash partitioning.

    An attribute ``a`` is a candidate when splitting every leaf relation
    under ``expr`` by ``hash(a-value) % k`` and evaluating the plan
    per-shard reproduces the unpartitioned result as a union.

    Args:
        expr: a canonical algebra expression.
        db_schema: the database schema the plan runs against.

    Returns:
        A set of attribute names (empty when the plan is not
        partitionable).
    """
    if isinstance(expr, ra.RelationRef):
        return set(db_schema[expr.name].attributes)
    if isinstance(expr, ra.ConstantRelation):
        return set(expr.relation.schema.attributes)
    if isinstance(expr, ra.Selection):
        return partition_candidates(expr.child, db_schema)
    if isinstance(expr, ra.Projection):
        return partition_candidates(expr.child, db_schema) & set(
            expr.attributes
        )
    if isinstance(expr, ra.Rename):
        inner = partition_candidates(expr.child, db_schema)
        return {expr.mapping.get(a, a) for a in inner}
    if isinstance(expr, _ALIGNED_BINARY):
        return partition_candidates(
            expr.left, db_schema
        ) & partition_candidates(expr.right, db_schema)
    if isinstance(expr, ra.ThetaJoin):
        out = set()
        left = partition_candidates(expr.left, db_schema)
        right = partition_candidates(expr.right, db_schema)
        for a, b in _equi_pairs(expr, db_schema):
            if a in left and b in right:
                out.add(a)
                out.add(b)
        return out
    return set()


def _leaf_columns(expr, attribute, db, out):
    """Collect ``(relation, position)`` for ``attribute`` at every leaf."""
    if isinstance(expr, ra.RelationRef):
        relation = db[expr.name]
        out.append((relation, relation.schema.position(attribute)))
    elif isinstance(expr, ra.ConstantRelation):
        relation = expr.relation
        out.append((relation, relation.schema.position(attribute)))
    elif isinstance(expr, (ra.Selection, ra.Projection)):
        _leaf_columns(expr.child, attribute, db, out)
    elif isinstance(expr, ra.Rename):
        inverse = {new: old for old, new in expr.mapping.items()}
        _leaf_columns(expr.child, inverse.get(attribute, attribute), db, out)
    elif isinstance(expr, _ALIGNED_BINARY):
        _leaf_columns(expr.left, attribute, db, out)
        _leaf_columns(expr.right, attribute, db, out)
    elif isinstance(expr, ra.ThetaJoin):
        left_attr, right_attr = _theta_split(expr, attribute, db)
        _leaf_columns(expr.left, left_attr, db, out)
        _leaf_columns(expr.right, right_attr, db, out)
    else:
        raise PlanError("no partition column through %r" % (expr,))
    return out


def _theta_split(expr, attribute, db):
    """The (left attr, right attr) alignment pair naming ``attribute``.

    Only a pair whose two sides are partition candidates of their own
    inputs aligns the shards: with ``a3 = x1 AND a2 = x1`` and only
    ``a2`` partitionable on the left, ``x1`` splits along ``(a2, x1)``.
    """
    schema = db.schema()
    left = partition_candidates(expr.left, schema)
    right = partition_candidates(expr.right, schema)
    for a, b in _equi_pairs(expr, schema):
        if attribute in (a, b) and a in left and b in right:
            return a, b
    raise PlanError(
        "no equality pair for %r in %r" % (attribute, expr.condition)
    )




class Partitioner:
    """Splits tuples, relations, and whole plans into ``k`` hash shards."""

    __slots__ = ("shards",)

    def __init__(self, shards):
        if shards < 1:
            raise PlanError("need at least one shard, got %r" % (shards,))
        self.shards = shards

    def shard_of(self, key):
        """Shard index for a hashable key."""
        return hash(key) % self.shards

    def split_tuples(self, tuples, position):
        """Partition raw tuples by the hash of one column."""
        shards = [[] for _ in range(self.shards)]
        k = self.shards
        for t in tuples:
            shards[hash(t[position]) % k].append(t)
        return shards

    def split_relation(self, relation, attribute):
        """Partition a Relation by the hash of one attribute's values."""
        position = relation.schema.position(attribute)
        return [
            Relation(relation.schema, shard, validate=False)
            for shard in self.split_tuples(relation.tuples, position)
        ]

    def split_facts(self, store, predicates=None):
        """Partition a fact store's tuples into ``k`` dicts.

        Unlike plan sharding, *any* split of a semi-naive delta is
        correct (differential firings are linear in the delta literal),
        so this hashes whole tuples purely for balance.

        Returns:
            A list of ``{predicate: [tuples]}`` dicts.
        """
        shards = [{} for _ in range(self.shards)]
        k = self.shards
        for predicate in (
            store.predicates() if predicates is None else predicates
        ):
            for tup in store.get(predicate):
                bucket = shards[hash(tup) % k]
                bucket.setdefault(predicate, []).append(tup)
        return shards

    def choose_attribute(self, expr, db):
        """The best partition attribute for a plan, or None.

        Among the candidates, picks the one whose *least diverse* leaf
        column still has the most distinct values — hash balance is only
        as good as the narrowest column it flows through.  Returns None
        when every candidate flows through a column with at most one
        distinct value (partitioning would put all the work in one
        shard).
        """
        candidates = partition_candidates(expr, db.schema())
        best, best_spread = None, 1
        for attribute in sorted(candidates):
            columns = _leaf_columns(expr, attribute, db, [])
            spread = min(
                (len({t[p] for t in rel.tuples}) for rel, p in columns),
                default=0,
            )
            if spread > best_spread:
                best, best_spread = attribute, spread
        return best

    def shard_plans(self, expr, db, attribute=None):
        """``(attribute, fragments)`` — ``k`` self-contained plan
        fragments — or None.

        Every leaf is replaced by a ConstantRelation holding its shard,
        so a fragment needs no database to run and ships whole to a
        worker.  A partition attribute only has to stay *visible*
        (survive projections) up to the last aligned binary operator,
        not to the root: unary operators above that point apply to each
        fragment unchanged.  Returns None when no usable partition
        attribute exists anywhere on the unary spine.
        """
        wrappers = []
        node = expr
        while True:
            chosen = (
                attribute
                if attribute is not None
                else self.choose_attribute(node, db)
            )
            if chosen is not None:
                break
            if isinstance(node, (ra.Selection, ra.Projection, ra.Rename)):
                wrappers.append(node)
                node = node.child
                continue
            return None
        fragments = self._rewrite(node, chosen, db)
        for wrapper in reversed(wrappers):
            fragments = [
                _rewrap(wrapper, fragment) for fragment in fragments
            ]
        return chosen, fragments

    def _rewrite(self, expr, attribute, db):
        if isinstance(expr, ra.RelationRef):
            return [
                ra.ConstantRelation(shard)
                for shard in self.split_relation(db[expr.name], attribute)
            ]
        if isinstance(expr, ra.ConstantRelation):
            return [
                ra.ConstantRelation(shard)
                for shard in self.split_relation(expr.relation, attribute)
            ]
        if isinstance(expr, ra.Selection):
            return [
                ra.Selection(child, expr.condition)
                for child in self._rewrite(expr.child, attribute, db)
            ]
        if isinstance(expr, ra.Projection):
            return [
                ra.Projection(child, expr.attributes)
                for child in self._rewrite(expr.child, attribute, db)
            ]
        if isinstance(expr, ra.Rename):
            inverse = {new: old for old, new in expr.mapping.items()}
            return [
                ra.Rename(child, expr.mapping)
                for child in self._rewrite(
                    expr.child, inverse.get(attribute, attribute), db
                )
            ]
        if isinstance(expr, _ALIGNED_BINARY):
            lefts = self._rewrite(expr.left, attribute, db)
            rights = self._rewrite(expr.right, attribute, db)
            return [
                type(expr)(left, right) for left, right in zip(lefts, rights)
            ]
        if isinstance(expr, ra.ThetaJoin):
            left_attr, right_attr = _theta_split(expr, attribute, db)
            lefts = self._rewrite(expr.left, left_attr, db)
            rights = self._rewrite(expr.right, right_attr, db)
            return [
                ra.ThetaJoin(left, right, expr.condition)
                for left, right in zip(lefts, rights)
            ]
        raise PlanError("cannot shard through %r" % (expr,))

    def __repr__(self):
        return "Partitioner(shards=%d)" % self.shards


def _rewrap(wrapper, child):
    """Re-apply one unary operator from the spine above the split point."""
    if isinstance(wrapper, ra.Selection):
        return ra.Selection(child, wrapper.condition)
    if isinstance(wrapper, ra.Projection):
        return ra.Projection(child, wrapper.attributes)
    return ra.Rename(child, wrapper.mapping)
