"""Online verification equals the batch predicates, commit by commit.

:class:`IncrementalPrecedenceGraph` and :class:`StrictnessFold` fold a
history in piece by piece; at every commit their verdicts must equal
:func:`is_conflict_serializable` on the committed projection of the
prefix and ``recovery_class(prefix) == "ST"`` — the batch predicates
stay the oracle.  The live manager's ``verify()`` is built on the online
checkers, so hand-built histories recorded into a manager must make it
raise at exactly the commit where the batch predicates first fail.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionError
from repro.obs.metrics import MetricsRegistry
from repro.relational.database import Database
from repro.storage.txn import TransactionManager
from repro.transactions import (
    IncrementalPrecedenceGraph,
    Op,
    Schedule,
    StrictnessFold,
    is_conflict_serializable,
    parse_schedule,
    recovery_class,
)
from repro.transactions.schedule import COMMIT

ITEMS = ("x", "y", "z")


@st.composite
def deferred_histories(draw):
    """Interleaved deferred-update histories: reads whenever, each
    committing transaction's writes directly before its commit, aborts
    with no writes (the live manager's shape)."""
    items = ITEMS[: draw(st.integers(min_value=1, max_value=3))]
    item = st.sampled_from(items)
    n_txns = draw(st.integers(min_value=2, max_value=6))
    queues = {}
    for txn in range(1, n_txns + 1):
        reads = draw(st.lists(item, max_size=3))
        if draw(st.booleans()) and draw(st.booleans()):
            tail = [Op.abort(txn)]
        else:
            writes = draw(st.lists(item, max_size=3))
            tail = [Op.write(txn, x) for x in writes] + [Op.commit(txn)]
        queues[txn] = [Op.read(txn, x) for x in reads] + [tail]
    return _interleave(draw, queues)


@st.composite
def general_histories(draw):
    """Interleaved histories with reads and writes anywhere — dirty
    reads and overwrites included — and commit or abort terminals."""
    items = ITEMS[: draw(st.integers(min_value=1, max_value=3))]
    n_txns = draw(st.integers(min_value=2, max_value=6))
    queues = {}
    for txn in range(1, n_txns + 1):
        ops = [
            Op(kind, txn, x)
            for kind, x in draw(
                st.lists(
                    st.tuples(st.sampled_from("rw"), st.sampled_from(items)),
                    max_size=4,
                )
            )
        ]
        terminal = Op.abort(txn) if draw(st.integers(0, 3)) == 0 else (
            Op.commit(txn)
        )
        queues[txn] = ops + [[terminal]]
    return _interleave(draw, queues)


def _interleave(draw, queues):
    """Pop the queues in a drawn order; a list entry is emitted whole."""
    ops = []
    alive = sorted(queues)
    while alive:
        txn = draw(st.sampled_from(alive))
        step = queues[txn].pop(0)
        if isinstance(step, list):
            ops.extend(step)
        else:
            ops.append(step)
        if not queues[txn]:
            alive.remove(txn)
    return Schedule(ops)


def assert_online_matches_batch(history):
    graph, fold = IncrementalPrecedenceGraph(), StrictnessFold()
    fed = 0
    for end, op in enumerate(history.ops, start=1):
        if op.kind != COMMIT:
            continue
        new = history.ops[fed:end]
        fed = end
        prefix = Schedule(history.ops[:end])
        assert graph.feed(new) == is_conflict_serializable(
            prefix.committed_projection()
        ), str(prefix)
        assert fold.feed(new) == (recovery_class(prefix) == "ST"), str(
            prefix
        )
        assert graph.committed == len(prefix.committed())


class TestOnlineEqualsBatch:
    @settings(max_examples=300, deadline=None)
    @given(deferred_histories())
    def test_deferred_update_histories(self, history):
        assert_online_matches_batch(history)

    @settings(max_examples=300, deadline=None)
    @given(general_histories())
    def test_histories_with_dirty_operations(self, history):
        assert_online_matches_batch(history)

    @pytest.mark.parametrize("text", [
        # lost update: both read x, both write it
        "r1(x) r2(x) w2(x) c2 w1(x) c1",
        # each reads what the other overwrites
        "r1(x) r2(y) w2(x) c2 w1(y) c1",
        # a three-transaction cycle closed by the last commit
        "r1(x) w2(x) c2 r3(x) r3(y) c3 w1(y) c1",
        # the cycle T3 -> T1 -> T2 -> T3 runs through T2, which
        # committed before T3 began: by T3's commit T2 is past the
        # horizon and its read of z lives only in z's summary
        "r1(y) r2(z) w2(y) c2 r3(x) w1(x) c1 w3(z) c3",
        # serializable, with the horizon advancing in between
        "r1(x) c1 r2(x) w2(x) c2 r3(x) w3(y) c3 r4(y) c4",
        # dirty read and dirty overwrite
        "w1(x) r2(x) c1 c2",
        "w1(x) w2(x) c1 c2",
        "r1(x) c1 w2(y) r3(y) c3 c2",
        # aborts restore before-images; no dirty access follows
        "w1(x) a1 r2(x) w2(x) c2",
    ])
    def test_hand_built_histories(self, text):
        assert_online_matches_batch(parse_schedule(text))

    def test_the_verdict_is_sticky(self):
        graph = IncrementalPrecedenceGraph()
        assert not graph.feed(parse_schedule(
            "r1(x) r2(x) w2(x) c2 w1(x) c1"
        ))
        assert not graph.feed([Op.read(3, "y"), Op.commit(3)])
        assert graph.committed == 3


def first_batch_failure(history):
    """Index of the first commit after which the batch predicates fail."""
    for end, op in enumerate(history.ops, start=1):
        if op.kind != COMMIT:
            continue
        prefix = Schedule(history.ops[:end])
        if not is_conflict_serializable(prefix.committed_projection()):
            return end - 1, "conflict serializability"
        if recovery_class(prefix) != "ST":
            return end - 1, "not strict"
    return None


def first_verify_failure(manager, history):
    """Record ``history`` into ``manager``, verifying at every commit."""
    for index, op in enumerate(history.ops):
        manager._record(op)
        if op.kind == COMMIT:
            try:
                manager.verify()
            except TransactionError as exc:
                return index, str(exc)
    return None


def make_manager():
    return TransactionManager(Database(), metrics=MetricsRegistry())


class TestManagerRaisesAtTheSameCommit:
    @pytest.mark.parametrize("text", [
        "r1(x) r2(x) w2(x) c2 w1(x) c1",
        "r1(x) w2(x) c2 r3(x) r3(y) c3 w1(y) c1",
        "r1(y) r2(z) w2(y) c2 r3(x) w1(x) c1 w3(z) c3",
        "r1(x) c1 w2(y) r3(y) c3 c2",
        "w1(x) r2(x) c1 c2",
        "w1(x) w2(x) c2 c1",
    ])
    def test_violations_raise_where_the_batch_predicates_fail(self, text):
        history = parse_schedule(text)
        manager = make_manager()
        expected = first_batch_failure(history)
        got = first_verify_failure(manager, history)
        assert expected is not None and got is not None
        assert got[0] == expected[0]
        assert expected[1] in got[1]
        prefix = Schedule(history.ops[: got[0] + 1])
        report = manager.last_report
        assert report["conflict_serializable"] == is_conflict_serializable(
            prefix.committed_projection()
        )
        assert report["recovery_class"] == recovery_class(prefix)
        assert report["committed"] == len(prefix.committed())

    def test_the_failure_message_names_the_committed_projection(self):
        history = parse_schedule("r1(x) r2(x) w2(x) c2 w1(x) c1")
        _index, message = first_verify_failure(make_manager(), history)
        assert str(history.committed_projection()) in message

    def test_a_non_strict_history_is_classified_in_full(self):
        history = parse_schedule("w1(x) r2(x) c1 c2")
        manager = make_manager()
        first_verify_failure(manager, history)
        assert manager.last_report["recovery_class"] == recovery_class(
            Schedule(history.ops[:3])
        ) == "RC"

    @settings(max_examples=150, deadline=None)
    @given(general_histories())
    def test_random_histories_raise_at_the_same_commit(self, history):
        expected = first_batch_failure(history)
        got = first_verify_failure(make_manager(), history)
        assert (got and got[0]) == (expected and expected[0])
