"""Serializability: conflict, view, and the classical characterizations.

The paper points to "the prevalence of a few simple algorithms in
concurrency control … supported by negative results severely delimiting
the feasibly implementable solutions".  Both halves live here:

* **Conflict serializability** — polynomial, via the precedence
  (serialization) graph; the positive result practice adopted.
* **View serializability** — the more permissive notion, NP-complete to
  test; implemented by exhaustive permutation for small inputs, standing
  in as the delimiting negative result (the checker's exponential shape
  *is* the theorem's content, operationally).
"""

from __future__ import annotations

import bisect
import collections
import itertools

from ..errors import TransactionError
from .schedule import ABORT, COMMIT, READ, WRITE, Schedule


def conflicts(schedule):
    """Ordered conflicting pairs ``(earlier_op, later_op)``."""
    ops = schedule.data_ops()
    out = []
    for i, earlier in enumerate(ops):
        for later in ops[i + 1:]:
            if earlier.conflicts_with(later):
                out.append((earlier, later))
    return out


def precedence_graph(schedule, committed_only=True):
    """The serialization graph: edge Ti -> Tj per conflict Ti before Tj.

    Args:
        schedule: the history.
        committed_only: restrict to committed transactions (the classical
            definition); pass False to analyze in-flight histories.

    Returns:
        ``{txn: set of successor txns}`` over the relevant transactions.
    """
    base = schedule.committed_projection() if committed_only else schedule
    graph = {txn: set() for txn in base.transactions()}
    for earlier, later in conflicts(base):
        graph[earlier.txn].add(later.txn)
    return graph


def _find_cycle(graph):
    """Some cycle as a list of nodes, or None (iterative DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    parent = {}
    for root in sorted(graph, key=repr):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(graph[root], key=repr)))]
        color[root] = GRAY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if color[succ] == GRAY:
                    # Back edge: walk the parent chain back to the target.
                    cycle = [node]
                    walker = node
                    while walker != succ:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    parent[succ] = node
                    stack.append((succ, iter(sorted(graph[succ], key=repr))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def is_conflict_serializable(schedule):
    """The fundamental theorem: CSR iff the precedence graph is acyclic."""
    return _find_cycle(precedence_graph(schedule)) is None


class IncrementalPrecedenceGraph:
    """Conflict serializability of a growing history, checked per commit.

    The online twin of :func:`is_conflict_serializable`: :meth:`feed`
    folds further operations of one history in and returns whether the
    committed projection of everything fed so far is conflict
    serializable — the batch verdict on that prefix, at a cost per
    commit that does not grow with history length.

    * **Edges at commit.**  A transaction's operations enter the
      committed projection when it commits, so that is when its conflict
      edges are added, each oriented by operation position exactly as
      :func:`precedence_graph` orients it.  The graph was acyclic before,
      so a new cycle must run through the committing transaction, and a
      search from it alone decides the verdict.
    * **Adjacent conflicts only.**  Per item, an operation is compared
      with the nearest committed write on each side and with the
      committed reads between it and those writes.  Every farther
      conflict follows by transitivity through that chain (an earlier
      writer already reaches the last one), so reachability — and with
      it every cycle — is the batch graph's.
    * **Pruning.**  Only a transaction still active can add an edge, and
      it conflicts only with operations at or after its own first one.
      So a committed transaction that ended before the oldest active
      transaction began gains no new in-edges; once it also has none
      left it can never lie on a cycle and leaves the graph.  Per item,
      accesses before that horizon fold into a summary: the last write
      and the still-live reads after it.

    The verdict is sticky, like the batch one: a cycle among committed
    transactions stays a cycle in every longer history.
    """

    __slots__ = ("serializable", "committed", "_position", "_active",
                 "_pending", "_logs", "_succ", "_indegree", "_reads_of",
                 "_unfrozen", "_frozen")

    def __init__(self):
        self.serializable = True
        self.committed = 0
        self._position = 0
        # txn -> position of its first operation, in first-op order.
        self._active = {}
        # active txn -> its data operations as [(position, op)].
        self._pending = {}
        # item -> _ItemLog of the committed accesses still relevant.
        self._logs = {}
        # The live graph over committed, unpruned transactions.
        self._succ = {}
        self._indegree = {}
        self._reads_of = {}
        # (commit position, txn) in commit order, not yet past the horizon.
        self._unfrozen = collections.deque()
        # Live transactions past the horizon: no new in-edges possible.
        self._frozen = set()

    def feed(self, ops):
        """Fold ``ops`` in; returns the verdict on the history so far."""
        for op in ops:
            position = self._position
            self._position += 1
            if op.kind == COMMIT:
                self.committed += 1
            if not self.serializable:
                continue
            if op.kind == COMMIT:
                self._commit(op.txn, position)
            elif op.kind == ABORT:
                self._active.pop(op.txn, None)
                self._pending.pop(op.txn, None)
                self._advance()
            else:
                self._active.setdefault(op.txn, position)
                self._pending.setdefault(op.txn, []).append((position, op))
        return self.serializable

    def _horizon(self):
        """Position of the oldest active transaction's first operation."""
        return next(iter(self._active.values()), self._position)

    def _commit(self, txn, position):
        floor = self._horizon()
        self._active.pop(txn, None)
        accesses = self._pending.pop(txn, ())
        self._succ[txn] = set()
        self._indegree[txn] = 0
        logs = self._logs
        for at, op in accesses:
            log = logs.get(op.item)
            if log is None:
                log = logs[op.item] = _ItemLog()
            log.trim(floor, self._succ)
            log.link(at, op, self._edge)
        for at, op in accesses:
            logs[op.item].insert(at, op)
        reads = {op.item for _at, op in accesses if op.kind == READ}
        if reads:
            self._reads_of[txn] = reads
        if self._indegree[txn] and self._succ[txn] and self._on_cycle(txn):
            self.serializable = False
            return
        self._unfrozen.append((position, txn))
        self._advance()

    def _edge(self, source, target):
        succ = self._succ
        if source in succ and target in succ and target not in succ[source]:
            succ[source].add(target)
            self._indegree[target] += 1

    def _on_cycle(self, txn):
        seen = set()
        stack = list(self._succ[txn])
        while stack:
            node = stack.pop()
            if node == txn:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(self._succ[node])
        return False

    def _advance(self):
        """Freeze transactions the horizon passed; prune the sources."""
        horizon = self._horizon()
        unfrozen = self._unfrozen
        while unfrozen and unfrozen[0][0] < horizon:
            _at, txn = unfrozen.popleft()
            self._frozen.add(txn)
            if not self._indegree[txn]:
                self._prune(txn)

    def _prune(self, txn):
        stack = [txn]
        while stack:
            node = stack.pop()
            self._frozen.discard(node)
            del self._indegree[node]
            for succ in self._succ.pop(node):
                self._indegree[succ] -= 1
                if not self._indegree[succ] and succ in self._frozen:
                    stack.append(succ)
            for item in self._reads_of.pop(node, ()):
                self._logs[item].base_reads.pop(node, None)


class _ItemLog:
    """One item's committed accesses that a commit can still conflict with.

    ``recent`` holds ``(position, op)`` at or after the floor (the
    horizon when last trimmed), in position order; older accesses are
    summarized by the last write before the floor (``base_write``) and
    the live transactions' reads after it (``base_reads``).
    """

    __slots__ = ("base_write", "base_reads", "recent")

    def __init__(self):
        self.base_write = None
        self.base_reads = {}
        self.recent = []

    def trim(self, floor, live):
        recent = self.recent
        cut = 0
        while cut < len(recent) and recent[cut][0] < floor:
            op = recent[cut][1]
            if op.kind == WRITE:
                self.base_write = op
                self.base_reads = {}
            elif op.txn in live:
                self.base_reads.setdefault(op.txn, op)
            cut += 1
        del recent[:cut]

    def link(self, at, op, edge):
        """Add the edges between ``op`` (at ``at``) and its adjacent
        conflicting accesses: the nearest write on each side, plus — for
        a write — the reads between it and those writes."""
        recent = self.recent
        index = bisect.bisect_left(recent, (at,))
        writes = op.kind == WRITE
        for k in range(index - 1, -1, -1):
            other = recent[k][1]
            if other.kind == WRITE:
                if other.conflicts_with(op):
                    edge(other.txn, op.txn)
                break
            if writes and other.conflicts_with(op):
                edge(other.txn, op.txn)
        else:
            if writes:
                for reader in self.base_reads.values():
                    if reader.conflicts_with(op):
                        edge(reader.txn, op.txn)
            if self.base_write is not None and (
                self.base_write.conflicts_with(op)
            ):
                edge(self.base_write.txn, op.txn)
        for k in range(index, len(recent)):
            other = recent[k][1]
            if other.kind == WRITE:
                if op.conflicts_with(other):
                    edge(op.txn, other.txn)
                break
            if writes and op.conflicts_with(other):
                edge(op.txn, other.txn)

    def insert(self, at, op):
        recent = self.recent
        recent.insert(bisect.bisect_left(recent, (at,)), (at, op))


def serialization_order(schedule):
    """A serial order witnessing conflict serializability.

    Returns:
        Transaction ids in a topological order of the precedence graph.

    Raises:
        TransactionError: if the schedule is not conflict serializable.
    """
    graph = precedence_graph(schedule)
    cycle = _find_cycle(graph)
    if cycle is not None:
        raise TransactionError(
            "schedule is not conflict serializable; cycle: %s"
            % " -> ".join(map(str, cycle))
        )
    indegree = {node: 0 for node in graph}
    for successors in graph.values():
        for succ in successors:
            indegree[succ] += 1
    ready = sorted(
        (node for node, deg in indegree.items() if deg == 0), key=repr
    )
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in sorted(graph[node], key=repr):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort(key=repr)
    return order


def equivalent_serial_schedule(schedule):
    """The serial schedule in the serialization order (committed txns)."""
    base = schedule.committed_projection()
    order = serialization_order(schedule)
    by_txn = {txn: base.ops_of(txn) for txn in order}
    ops = []
    for txn in order:
        ops.extend(by_txn[txn])
    return Schedule(ops)


# ---------------------------------------------------------------------------
# View serializability
# ---------------------------------------------------------------------------


def reads_from(schedule):
    """The reads-from relation of the committed projection.

    Returns:
        ``{(reader_txn, item, position): writer_txn_or_None}`` where None
        means the read saw the initial database state.  Positions make
        multiple reads of the same item distinct.
    """
    base = schedule.committed_projection()
    last_writer = {}
    relation = {}
    read_counter = {}
    for op in base.ops:
        if op.kind == READ:
            count = read_counter.get((op.txn, op.item), 0)
            read_counter[(op.txn, op.item)] = count + 1
            relation[(op.txn, op.item, count)] = last_writer.get(op.item)
        elif op.kind == WRITE:
            last_writer[op.item] = op.txn
    return relation


def final_writers(schedule):
    """``{item: txn}`` of the last committed write per item."""
    base = schedule.committed_projection()
    out = {}
    for op in base.ops:
        if op.kind == WRITE:
            out[op.item] = op.txn
    return out


def view_equivalent(left, right):
    """Same reads-from relation and same final writers."""
    return (
        reads_from(left) == reads_from(right)
        and final_writers(left) == final_writers(right)
    )


def is_view_serializable(schedule, limit=8):
    """View serializability by serial-order enumeration.

    Testing VSR is NP-complete; this checker enumerates the permutations
    of the committed transactions, so it is exact but exponential —
    ``limit`` guards against accidental factorial blowups (raise it
    explicitly for bigger experiments).
    """
    base = schedule.committed_projection()
    txns = base.transactions()
    if len(txns) > limit:
        raise TransactionError(
            "view-serializability check over %d transactions exceeds the "
            "limit of %d (NP-complete by Papadimitriou's own theorem; "
            "raise limit= to force it)" % (len(txns), limit)
        )
    by_txn = {txn: base.ops_of(txn) for txn in txns}
    for order in itertools.permutations(txns):
        ops = []
        for txn in order:
            ops.extend(by_txn[txn])
        if view_equivalent(base, Schedule(ops)):
            return True
    return False


def is_blind_write_free(schedule):
    """No write without a preceding read of the item by the same txn.

    The classical special case: without blind writes, VSR = CSR (so the
    polynomial test is complete) — asserted by a property test.
    """
    seen_reads = set()
    for op in schedule.ops:
        if op.kind == READ:
            seen_reads.add((op.txn, op.item))
        elif op.kind == WRITE:
            if (op.txn, op.item) not in seen_reads:
                return False
    return True
