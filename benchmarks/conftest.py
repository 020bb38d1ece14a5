"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures or one of the
classical experiments its survey rests on (see DESIGN.md's
per-experiment index).  Because ``pytest --benchmark-only`` captures
stdout, each bench also writes its table to
``benchmarks/results/<name>.txt`` so the regenerated figures survive the
run as artifacts; EXPERIMENTS.md records the paper-vs-measured reading.

Measurement discipline (the observability layer's contract): a bench
records every number it measures into a
:class:`~repro.obs.metrics.MetricsRegistry` and derives its printed
table *from the registry* — so the human-readable table and the
machine-readable ``*_metrics.json`` artifact cannot drift apart.
Trace-producing benches write rendered span trees via
:func:`write_trace`.
"""

from __future__ import annotations

import json
import os
import time

from repro.obs import render_trace

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def timed(fn, repeats=5):
    """Best-of-N wall clock (seconds) plus the last result."""
    best, result = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def write_artifact(name, text):
    """Write a regenerated table/figure to benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    return path


def write_stats(name, sections):
    """Write labelled engine-statistics dumps to benchmarks/results/.

    Args:
        name: artifact file name.
        sections: iterable of ``(label, EngineStatistics)`` pairs; each is
            rendered via :meth:`EngineStatistics.format`.
    """
    blocks = [
        "%s\n%s" % (label, stats.format()) for label, stats in sections
    ]
    return write_artifact(name, "\n\n".join(blocks))


def write_json(name, payload):
    """Write a JSON artifact (machine-readable twin of a table)."""
    return write_artifact(
        name, json.dumps(payload, indent=2, sort_keys=True)
    )


def write_metrics(name, registry):
    """Write a registry's canonical flat dump as a JSON artifact.

    This is the single source of truth a bench's printed table is
    derived from; committing it makes the raw measurements diffable.
    """
    return write_json(name, registry.dump())


def write_trace(name, tracer):
    """Write a tracer's rendered span forest to benchmarks/results/."""
    return write_artifact(name, render_trace(tracer))


def format_table(header, rows):
    """Plain-text table with aligned columns."""
    rendered = [tuple(str(v) for v in row) for row in rows]
    header = tuple(str(h) for h in header)
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rendered), default=0))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
