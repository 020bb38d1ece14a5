"""Recoverability: the RC ⊋ ACA ⊋ ST hierarchy.

"Reliability and recovery" is the other half of the transaction-
processing tradition.  The classical schedule classes:

* **Recoverable (RC)** — no transaction commits before every transaction
  it read from has committed (so aborts never invalidate commits).
* **Avoids cascading aborts (ACA)** — transactions read only committed
  data (so one abort never forces others).
* **Strict (ST)** — no read *or overwrite* of dirty data (so before-image
  recovery works).

The strict containments ST ⊂ ACA ⊂ RC (and their incomparability with
serializability) are property-tested, and the separating examples from
the textbooks live in the test suite as goldens.
"""

from __future__ import annotations

from .schedule import ABORT, COMMIT, READ, WRITE


def _positions(schedule):
    return {id(op): i for i, op in enumerate(schedule.ops)}


def _terminal_position(schedule, txn, kind):
    for i, op in enumerate(schedule.ops):
        if op.txn == txn and op.kind == kind:
            return i
    return None


def reads_from_pairs(schedule):
    """Pairs ``(reader, writer, item, read_position)``: reader read
    writer's (not-yet-overwritten, uncommitted-or-not) write.

    Aborts restore before-images: each item keeps a version stack, and
    aborting a transaction removes its writes from every stack, so a
    read *after* the abort is attributed to the restored version's
    writer, never to the aborted transaction.  Reads that happened
    before the abort keep their recorded pair (that is the read the
    classical RC definition quantifies over — see the
    ``w1(x) r2(x) c2 a1`` golden).  The conformance kit's scheduler
    oracle caught the earlier flat ``last_writer`` model attributing
    post-abort reads to deadlock victims, which made strict 2PL outputs
    look non-recoverable.
    """
    pairs = []
    stacks = {}
    for i, op in enumerate(schedule.ops):
        if op.kind == WRITE:
            stacks.setdefault(op.item, []).append(op.txn)
        elif op.kind == READ:
            stack = stacks.get(op.item)
            writer = stack[-1] if stack else None
            if writer is not None and writer != op.txn:
                pairs.append((op.txn, writer, op.item, i))
        elif op.kind == ABORT:
            for stack in stacks.values():
                while op.txn in stack:
                    stack.remove(op.txn)
    return pairs


def is_recoverable(schedule):
    """RC: every reader commits only after its writers committed."""
    for reader, writer, _item, _pos in reads_from_pairs(schedule):
        reader_commit = _terminal_position(schedule, reader, COMMIT)
        if reader_commit is None:
            continue  # reader never committed: nothing to violate
        writer_commit = _terminal_position(schedule, writer, COMMIT)
        if writer_commit is None or writer_commit > reader_commit:
            return False
    return True


def avoids_cascading_aborts(schedule):
    """ACA: reads only from committed transactions.

    Same version-stack abort model as :func:`reads_from_pairs`: a read
    after an abort sees the restored version, so it is not a dirty read
    of the aborted transaction.
    """
    committed_at = {}
    stacks = {}
    for i, op in enumerate(schedule.ops):
        if op.kind == COMMIT:
            committed_at[op.txn] = i
        elif op.kind == ABORT:
            for stack in stacks.values():
                while op.txn in stack:
                    stack.remove(op.txn)
        elif op.kind == WRITE:
            stacks.setdefault(op.item, []).append(op.txn)
        elif op.kind == READ:
            stack = stacks.get(op.item)
            writer = stack[-1] if stack else None
            if writer is not None and writer != op.txn:
                if writer not in committed_at:
                    return False
    return True


class StrictnessFold:
    """ST as a resumable left fold over a history's operations.

    :meth:`feed` folds more operations into the same state, so a live
    history can be checked piece by piece with the work of each call
    proportional to the operations it adds; :func:`is_strict` is one
    :meth:`feed` of a whole schedule.  The verdict is sticky: once a
    read or overwrite of dirty data is seen, no longer history is strict.

    Only *dirty* authorship is kept — ``{item: uncommitted last writer}``
    plus each uncommitted writer's items — so the state is bounded by
    the in-flight writes, never by history length: a committed writer
    can no longer make a later operation non-strict, so its entries go
    at its commit.
    """

    __slots__ = ("strict", "_dirty", "_written")

    def __init__(self):
        self.strict = True
        self._dirty = {}
        self._written = {}

    def feed(self, ops):
        """Fold ``ops`` in; returns whether the history so far is strict."""
        if not self.strict:
            return False
        dirty = self._dirty
        for op in ops:
            if op.kind in (COMMIT, ABORT):
                # A commit makes its writes clean; an abort undoes them
                # and the previous committed values reappear.  Either
                # way the transaction stops authoring dirty data (and
                # while the history is strict, nobody else can have
                # overwritten an item it dirtied).
                for item in self._written.pop(op.txn, ()):
                    dirty.pop(item, None)
                continue
            writer = dirty.get(op.item)
            if writer is not None and writer != op.txn:
                self.strict = False
                return False
            if op.kind == WRITE:
                dirty[op.item] = op.txn
                self._written.setdefault(op.txn, set()).add(op.item)
        return True


def is_strict(schedule):
    """ST: no reading *or overwriting* of uncommitted (dirty) data."""
    return StrictnessFold().feed(schedule.ops)


def recovery_class(schedule):
    """The narrowest class: "ST", "ACA", "RC", or "none".

    The containment chain makes this well-defined; a property test checks
    the chain on random schedules.
    """
    if is_strict(schedule):
        return "ST"
    if avoids_cascading_aborts(schedule):
        return "ACA"
    if is_recoverable(schedule):
        return "RC"
    return "none"


def cascading_abort_set(schedule, failed_txn):
    """Transactions transitively forced to abort when ``failed_txn`` dies.

    The operational meaning of "cascading": anyone who read from the
    failure (directly or through intermediaries) before it aborted.
    """
    doomed = {failed_txn}
    changed = True
    while changed:
        changed = False
        for reader, writer, _item, _pos in reads_from_pairs(schedule):
            if writer in doomed and reader not in doomed:
                doomed.add(reader)
                changed = True
    doomed.discard(failed_txn)
    return doomed
