"""The four workloads: seeded inputs, plain-Python references, sessions.

Each workload class turns a seed into a session's inputs once; every
session of a run replays the same inputs on a freshly built workbench,
so a traced run's counts do not depend on how many sessions fit into
the run.  The program sees only the generated rows and statement texts.

Every answer is compared with a reference computed here in plain Python
(dict lookups, hash joins, a dict model of each written table, a BFS
closure and a hand-written same-generation fixpoint), outside the timed
calls.  See README.md for why each workload exists.
"""

from __future__ import annotations

import bisect
import itertools
import random
from time import perf_counter as _clock

from repro.core.workbench import MetatheoryWorkbench
from repro.storage.txn import TransactionConflict


class Session:
    """One session's measurements: per-operation latency and failures.

    ``call`` times one call into the program and charges it to an
    operation; an operation may span several calls (a transaction).
    ``latency`` holds raw seconds per operation and ``scaled`` the same
    calls in reference-host seconds (see hostspeed.py), filled in by
    :meth:`rescale` once the session is over.  ``sql_kwargs`` is empty
    in the untraced pass, so every call uses the API's default
    arguments; the traced pass adds ``stats=``.
    """

    def __init__(self, host, tracer=None, estats=None, dstats=None):
        self.host = host
        self.tracer = tracer
        self.estats = estats
        self.dstats = dstats
        self.sql_kwargs = {} if estats is None else {"stats": estats}
        self.dl_kwargs = {} if dstats is None else {"stats": dstats}
        self.latency = []
        self.scaled = []
        self.ok = []
        self._calls = []
        self.errors = []
        self.statements = 0
        self.repeated = 0
        self._seen = set()

    def warm(self, text):
        """Note a warm-up text: later uses of it count as repeated."""
        self._seen.add(text)
        return text

    def text(self, text):
        """Note a statement text issued by a timed operation."""
        self.statements += 1
        if text in self._seen:
            self.repeated += 1
        self._seen.add(text)
        return text

    def _grow(self, op):
        while len(self.latency) <= op:
            self.latency.append(0.0)
            self.ok.append(True)

    def call(self, op, fn, *args, **kwargs):
        self._grow(op)
        self.host.maybe_probe()
        start = _clock()
        try:
            if self.tracer is not None:
                return self.tracer.op(fn, *args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            took = _clock() - start
            self.latency[op] += took
            self._calls.append((op, start, took))

    def rescale(self):
        """Fill ``scaled`` from the calls and the probes around them."""
        self.scaled = [0.0] * len(self.latency)
        for op, start, took in self._calls:
            self.scaled[op] += took * self.host.scale(start, start + took)

    def fail(self, op, message):
        self._grow(op)
        self.ok[op] = False
        if len(self.errors) < 20:
            self.errors.append("op %d: %s" % (op, message))

    def expect(self, op, got, want, what):
        if got != want:
            self.fail(op, "%s: got %r, want %r" % (
                what, _short(got), _short(want)))


def _short(value):
    text = repr(value)
    return text if len(text) < 200 else text[:200] + "..."


class WarmUpError(RuntimeError):
    """A warm-up query returned a wrong answer."""


def _warm_check(got, want, what):
    if got != want:
        raise WarmUpError("warm-up %s: got %r, want %r" % (
            what, _short(got), _short(want)))


# -- point-read ---------------------------------------------------------------


class PointRead:
    """Single-row ``SELECT ... WHERE id = k`` over one keyed table.

    Keys follow a Zipf-Mandelbrot law over a seeded permutation of the
    ids (weight ``1 / (rank + Q) ** S``): the offset flattens the head,
    so more than 128 texts (the plan cache's capacity) repeat within a
    session and about 30% of statements repeat an earlier text, well
    away from one half.
    """

    name = "point-read"
    ROWS = 20000
    OPS = 800
    ZIPF_Q = 400
    ZIPF_S = 2.5

    def __init__(self, seed):
        rng = random.Random(seed)
        self.vals = [rng.randrange(1_000_000) for _ in range(self.ROWS)]
        self.rows = [(i, i % 100, v) for i, v in enumerate(self.vals)]
        ids = list(range(self.ROWS))
        rng.shuffle(ids)
        cum = list(itertools.accumulate(
            1.0 / (rank + self.ZIPF_Q) ** self.ZIPF_S
            for rank in range(self.ROWS)
        ))
        self.keys = [
            ids[min(bisect.bisect_left(cum, rng.random() * cum[-1]),
                    self.ROWS - 1)]
            for _ in range(self.OPS)
        ]

    @staticmethod
    def _text(key):
        return "SELECT item.val FROM item WHERE item.id = %d" % key

    def setup(self, session):
        wb = MetatheoryWorkbench.from_dict(
            {"item": (("id", "grp", "val"), self.rows)}
        )
        # The first run of the statement shape (a key outside the table)
        # pays lazy set-up such as catalog statistics.
        warm = wb.sql(session.warm(self._text(self.ROWS)))
        _warm_check(warm.tuples, frozenset(), "point read")
        return wb

    def operate(self, wb, session):
        for op, key in enumerate(self.keys):
            text = session.text(self._text(key))
            try:
                result = session.call(op, wb.sql, text, **session.sql_kwargs)
            except Exception as exc:  # an unexpected error fails the op
                session.fail(op, "%s: %r" % (text, exc))
                continue
            session.expect(
                op, result.tuples, frozenset({(self.vals[key],)}), text
            )

    def finish(self, wb, session):
        pass


# -- join-report ----------------------------------------------------------------


class JoinReport:
    """A balanced, seeded cycle over 16 fixed star-join texts.

    A 30k-row fact table joins two dimensions; each text carries one
    selective predicate per dimension (1 of 10 regions, 1 of 8
    categories).  Every key and every dimension value occurs equally
    often, so the texts of every seed select about the same number of
    rows.  Warm-up runs every text once, so every plan is cached
    before timing starts.
    """

    name = "join-report"
    FACT = 30000
    CUST = 500
    PROD = 200
    REGIONS = 10
    CATS = 8
    TEXTS = 16
    OPS = 96

    def __init__(self, seed):
        rng = random.Random(seed)

        def balanced(n, values):
            column = [i % values for i in range(n)]
            rng.shuffle(column)
            return column

        self.cust = list(enumerate(balanced(self.CUST, self.REGIONS)))
        self.prod = list(enumerate(balanced(self.PROD, self.CATS)))
        self.fact = [
            (f, cid, pid, rng.randrange(10000))
            for f, (cid, pid) in enumerate(zip(
                balanced(self.FACT, self.CUST), balanced(self.FACT, self.PROD)
            ))
        ]
        pairs = rng.sample(
            [(r, c) for r in range(self.REGIONS) for c in range(self.CATS)],
            self.TEXTS,
        )
        self.texts = [
            "SELECT f.fid, f.amt, c.region, p.cat FROM fact f, cust c, "
            "prod p WHERE f.cid = c.cid AND f.pid = p.pid AND "
            "c.region = %d AND p.cat = %d" % pair
            for pair in pairs
        ]
        self.expected = [self._reference(r, c) for r, c in pairs]
        cycle = list(range(self.TEXTS))
        rng.shuffle(cycle)
        self.order = [cycle[op % self.TEXTS] for op in range(self.OPS)]

    def _reference(self, region, cat):
        """Hash join: build on the filtered dimensions, probe with facts."""
        regions = {cid: r for cid, r in self.cust if r == region}
        cats = {pid: c for pid, c in self.prod if c == cat}
        return frozenset(
            (fid, amt, regions[cid], cats[pid])
            for fid, cid, pid, amt in self.fact
            if cid in regions and pid in cats
        )

    def setup(self, session):
        wb = MetatheoryWorkbench.from_dict({
            "fact": (("fid", "cid", "pid", "amt"), self.fact),
            "cust": (("cid", "region"), self.cust),
            "prod": (("pid", "cat"), self.prod),
        })
        for text, want in zip(self.texts, self.expected):
            _warm_check(wb.sql(session.warm(text)).tuples, want, text)
        return wb

    def operate(self, wb, session):
        for op, index in enumerate(self.order):
            text = session.text(self.texts[index])
            try:
                result = session.call(op, wb.sql, text, **session.sql_kwargs)
            except Exception as exc:  # an unexpected error fails the op
                session.fail(op, "%s: %r" % (text, exc))
                continue
            session.expect(op, result.tuples, self.expected[index], text)

    def finish(self, wb, session):
        pass


# -- txn-mix --------------------------------------------------------------------


class _Txn:
    """One generated transaction and its reference answers."""

    __slots__ = ("steps", "after", "after_want")

    def __init__(self, steps, after, after_want):
        self.steps = steps
        self.after = after
        self.after_want = after_want


class TxnMix:
    """Pairs of interleaved transactions, each read-insert-update-delete.

    Operation ``i`` is one ``wb.begin()`` transaction on one of three
    tables, followed by an autocommit read of a row it wrote.  The two
    transactions of a pair interleave statement by statement; in a
    seeded ``CONFLICT`` share of pairs both pick the same table, and under
    relation-level no-wait 2PL one of them aborts and the client retries
    it after the other commits.

    A transaction writes only rows it inserted itself and reads only
    base rows or rows of transactions that committed in earlier pairs,
    so every answer is the same in any serial order and the reference
    needs no knowledge of which transaction the concurrency control
    aborts.
    """

    name = "txn-mix"
    TABLES = 3
    ROWS = 2000
    OPS = 200
    INSERT_ROWS = 4
    CONFLICT = 0.1
    MAX_ATTEMPTS = 5

    def __init__(self, seed):
        rng = random.Random(seed)
        self.tables = ["acct%d" % t for t in range(self.TABLES)]
        self.base = {
            name: [(i, 0, rng.randrange(1000)) for i in range(self.ROWS)]
            for name in self.tables
        }
        model = {name: {row[0]: row for row in rows}
                 for name, rows in self.base.items()}
        readable = {name: [] for name in self.tables}
        next_id = self.ROWS
        self.txns = []
        pairs = self.OPS // 2
        clashing = set(rng.sample(range(pairs), round(self.CONFLICT * pairs)))
        for pair in range(pairs):
            first = rng.randrange(self.TABLES)
            if pair in clashing:
                second = first
            else:
                second = (first + 1 + rng.randrange(self.TABLES - 1)) % (
                    self.TABLES
                )
            written = []
            for slot, table_index in enumerate((first, second)):
                table = self.tables[table_index]
                grp = 2 * pair + slot + 1
                ids = list(range(next_id, next_id + self.INSERT_ROWS))
                next_id += self.INSERT_ROWS
                self.txns.append(self._txn(rng, table, grp, ids,
                                           model[table], readable[table]))
                written.append((table, ids))
            for table, ids in written:
                readable[table].extend(ids[1:])
        self.model = {name: frozenset(rows.values())
                      for name, rows in model.items()}

    def _txn(self, rng, t, grp, ids, model, readable):
        if readable and rng.random() < 0.5:
            key = rng.choice(readable)
        else:
            key = rng.randrange(self.ROWS)
        value = rng.randrange(1000, 100000)
        inserted = [(i, grp, j) for j, i in enumerate(ids)]
        steps = [
            ("SELECT %s.val FROM %s WHERE %s.id = %d" % (t, t, t, key),
             "rows", frozenset({(model[key][2],)})),
            ("INSERT INTO %s VALUES %s" % (
                t, ", ".join("(%d, %d, %d)" % row for row in inserted)),
             "inserted", len(inserted)),
            ("UPDATE %s SET val = %d WHERE %s.grp = %d AND %s.id >= %d" % (
                t, value, t, grp, t, ids[2]),
             "matched", len(ids) - 2),
            ("DELETE FROM %s WHERE %s.grp = %d AND %s.id = %d" % (
                t, t, grp, t, ids[0]),
             "deleted", 1),
        ]
        for i, _grp, j in inserted[1:]:
            model[i] = (i, grp, value if j >= 2 else j)
        after = "SELECT %s.val FROM %s WHERE %s.id = %d" % (t, t, t, ids[-1])
        return _Txn(steps, after, frozenset({(value,)}))

    def setup(self, session):
        wb = MetatheoryWorkbench.from_dict({
            name: (("id", "grp", "val"), rows)
            for name, rows in self.base.items()
        })
        for name in self.tables:
            text = session.warm(
                "SELECT %s.val FROM %s WHERE %s.id = %d"
                % (name, name, name, self.ROWS)
            )
            _warm_check(wb.sql(text).tuples, frozenset(), text)
        return wb

    @staticmethod
    def _answer(result, kind):
        if kind == "rows":
            return result.tuples
        if kind == "inserted":
            return result.rows_inserted
        if kind == "matched":
            return result.rows_matched
        return result.rows_deleted

    def _step(self, session, op, txn, step):
        text, kind, want = step
        result = session.call(op, txn.sql, session.text(text),
                              **session.sql_kwargs)
        session.expect(op, self._answer(result, kind), want, text)

    def _after(self, wb, session, op):
        spec = self.txns[op]
        result = session.call(op, wb.sql, session.text(spec.after),
                              **session.sql_kwargs)
        session.expect(op, result.tuples, spec.after_want, spec.after)

    def _alone(self, wb, session, op):
        """Run one transaction by itself, retrying conflicts."""
        for _attempt in range(self.MAX_ATTEMPTS):
            txn = session.call(op, wb.begin)
            try:
                for step in self.txns[op].steps:
                    self._step(session, op, txn, step)
                session.call(op, txn.commit)
            except TransactionConflict:
                continue
            self._after(wb, session, op)
            return
        session.fail(op, "no commit in %d attempts" % self.MAX_ATTEMPTS)

    def _pair(self, wb, session, ops):
        live = {op: session.call(op, wb.begin) for op in ops}
        retry = []
        for index in range(len(self.txns[ops[0]].steps)):
            for op in ops:
                if op not in live:
                    continue
                try:
                    self._step(session, op, live[op],
                               self.txns[op].steps[index])
                except TransactionConflict:
                    del live[op]
                    retry.append(op)
        for op, txn in live.items():
            try:
                session.call(op, txn.commit)
            except TransactionConflict:
                retry.append(op)
                continue
            self._after(wb, session, op)
        for op in retry:
            self._alone(wb, session, op)

    def operate(self, wb, session):
        for first in range(0, self.OPS, 2):
            ops = (first, first + 1)
            try:
                self._pair(wb, session, ops)
            except Exception as exc:  # an unexpected error fails the pair
                for op in ops:
                    session.fail(op, repr(exc))
                for txn in list(wb.txns.active.values()):
                    txn.rollback()

    def finish(self, wb, session):
        """Compare every table with the reference model."""
        for name in self.tables:
            session.expect(
                self.OPS - 1, wb.db[name].tuples, self.model[name],
                "final content of %s" % name,
            )


# -- datalog-closure ------------------------------------------------------------

PROGRAM = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
sg(X, Y) :- edge(P, X), edge(P, Y).
sg(X, Y) :- edge(P, X), sg(P, Q), edge(Q, Y).
"""


def closure(edges):
    """Transitive closure by a BFS from every node."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    out = set()
    for start in succ:
        seen = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        out.update((start, node) for node in seen)
    return frozenset(out)


def same_generation(edges):
    """Same-generation pairs: siblings, then children of sg pairs."""
    children = {}
    for parent, child in edges:
        children.setdefault(parent, set()).add(child)
    sg = set()
    for kids in children.values():
        sg.update(itertools.product(kids, kids))
    delta = set(sg)
    while delta:
        new = set()
        for p, q in delta:
            for x in children.get(p, ()):
                for y in children.get(q, ()):
                    if (x, y) not in sg:
                        new.add((x, y))
        sg |= new
        delta = new
    return frozenset(sg)


class DatalogClosure:
    """Transitive closure and same generation over a layered DAG.

    ``wb.run(PROGRAM, kind="datalog")`` per operation; every tenth
    operation first inserts one new edge through SQL, so no cached model
    could serve a stale answer.

    Node ``k`` of layer ``L`` has an edge to nodes ``k + o`` (mod
    ``WIDTH``) of layer ``L + 1`` for each offset in ``OFFSETS``; the
    inserted edges use offset ``INSERT_OFFSET`` at a fixed sequence of
    layers, starting from a seeded node.  The seed relabels the nodes of
    every layer, so every seed gives an isomorphic graph: the same
    closure sizes and the same work, under different names.
    """

    name = "datalog-closure"
    LAYERS = 10
    WIDTH = 10
    OFFSETS = (0, 1)
    INSERT_OFFSET = 3
    OPS = 100
    INSERT_EVERY = 10

    def __init__(self, seed):
        rng = random.Random(seed)
        width = self.WIDTH
        labels = []
        for layer in range(self.LAYERS):
            names = list(range(layer * width, (layer + 1) * width))
            rng.shuffle(names)
            labels.append(names)

        def edge(layer, k, offset):
            return (labels[layer][k], labels[layer + 1][(k + offset) % width])

        current = {
            edge(layer, k, offset)
            for layer in range(self.LAYERS - 1)
            for k in range(width)
            for offset in self.OFFSETS
        }
        self.edges = sorted(current)
        self.inserts = {}
        self.expected = {}
        start = rng.randrange(width)
        want = self.initial = (closure(current), same_generation(current))
        for op in range(self.OPS):
            if op % self.INSERT_EVERY == self.INSERT_EVERY - 1:
                n = op // self.INSERT_EVERY
                new = edge(n % (self.LAYERS - 1), (start + 3 * n) % width,
                           self.INSERT_OFFSET)
                current.add(new)
                self.inserts[op] = "INSERT INTO edge VALUES (%d, %d)" % new
                want = (closure(current), same_generation(current))
            self.expected[op] = want

    def setup(self, session):
        wb = MetatheoryWorkbench.from_dict(
            {"edge": (("src", "dst"), self.edges)}
        )
        model = wb.run(session.warm(PROGRAM), kind="datalog")
        _warm_check((model.get("tc"), model.get("sg")), self.initial,
                    "closure")
        return wb

    def operate(self, wb, session):
        for op in range(self.OPS):
            try:
                insert = self.inserts.get(op)
                if insert is not None:
                    done = session.call(op, wb.sql, session.text(insert),
                                        **session.sql_kwargs)
                    session.expect(op, done.rows_inserted, 1, insert)
                model = session.call(op, wb.run, session.text(PROGRAM),
                                     kind="datalog", **session.dl_kwargs)
            except Exception as exc:  # an unexpected error fails the op
                session.fail(op, repr(exc))
                continue
            tc, sg = self.expected[op]
            session.expect(op, model.get("tc"), tc, "tc")
            session.expect(op, model.get("sg"), sg, "sg")

    def finish(self, wb, session):
        pass


WORKLOADS = {
    cls.name: cls for cls in (PointRead, JoinReport, TxnMix, DatalogClosure)
}
