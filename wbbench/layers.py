"""Traced mode: spans around each layer's public functions, from outside.

:class:`LayerTracer` replaces each traced function at the name its
caller looks it up under (``repro.core.workbench.parse_sql`` rather than
``repro.relational.sql_frontend.parse_sql``), records one span per call
while an operation is open, and puts every original back on
:meth:`LayerTracer.uninstall`.  Nothing under ``src/`` changes.

A span's self time is its duration minus the time its direct child
spans cover.  The harness opens a root span per timed call
(:meth:`LayerTracer.op`), so the root's self time is the time the
workbench spends outside every traced layer.
"""

from __future__ import annotations

import importlib
import json
import time

#: ``(span name, module, attribute path)`` of each wrapped function.  The
#: module is the one whose namespace the caller resolves the name in.
TRACED = (
    ("sql_frontend.parse", "repro.core.workbench", "parse_sql"),
    ("logical.canonicalize", "repro.core.workbench", "canonicalize"),
    ("opt.optimize", "repro.opt", "Optimizer.optimize_info"),
    ("compile.resolve", "repro.compile", "KernelCache.resolve"),
    ("executor.execute", "repro.core.workbench", "execute_physical"),
    ("executor.execute", "repro.compile.codegen", "CompiledKernel.execute"),
    ("relation.build", "repro.relational.relation", "Relation.__init__"),
    ("database.apply", "repro.relational.database", "Database.apply_delta"),
    ("database.apply", "repro.relational.database",
     "Database.apply_overlay"),
    ("txn.commit", "repro.storage.txn", "Transaction.commit"),
    ("txn.verify", "repro.storage.txn", "TransactionManager.verify"),
    ("datalog.parse", "repro.core.workbench", "parse_program"),
    ("datalog.ingest", "repro.datalog.facts", "FactStore.from_database"),
    ("datalog.fixpoint", "repro.datalog.engine", "seminaive_evaluate"),
    ("plan_cache.invalidate", "repro.plan.cache",
     "PlanCache.invalidate_relations"),
)

ROOT = "op"


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``self_s[name]`` and ``calls[name]`` accumulate per span name;
    ``rows_out`` counts result rows of executor calls,
    ``tuples_built`` tuples held by every constructed Relation and
    ``invalidated`` plan-cache entries dropped by invalidation.
    """

    def __init__(self):
        self.spans = []
        self.self_s = {}
        self.calls = {}
        self.rows_out = 0
        self.tuples_built = 0
        self.invalidated = 0
        self._stack = []
        self._op_id = 0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([name, span_id, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        name, span_id, start, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        self.spans[span_id] = (
            self._op_id, span_id, parent[1] if parent else None, name,
            start, end,
        )

    def op(self, fn, *args, **kwargs):
        """Call ``fn`` under a root span (one timed call of an operation)."""
        self._op_id += 1
        self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        if name == "executor.execute":
            self.rows_out += len(result[0])
        elif name == "relation.build":
            self.tuples_built += len(args[0].tuples)
        elif name == "plan_cache.invalidate":
            self.invalidated += result

    # -- install / uninstall -----------------------------------------------

    def install(self):
        """Replace every traced function; :meth:`uninstall` restores."""
        for name, module_name, path in TRACED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else (
                getattr(owner, attr)
            )
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapper = self._wrap(name, raw)
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, raw))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path):
        """One JSON object per span: op, id, parent, name, start, end."""
        with open(path, "w") as out:
            for op_id, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "op": op_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
