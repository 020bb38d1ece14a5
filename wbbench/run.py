"""Run one workbench workload and print its metrics.

Usage (from the root of a checkout)::

    python3 wbbench/run.py --workload point-read --seed 1 --seconds 24 \\
        --trace 0

Workloads: point-read, join-report, txn-mix, datalog-closure (see
README.md).  One client thread runs a closed loop against
``MetatheoryWorkbench`` through its public API.  A run is a sequence of
whole sessions; each session builds a fresh workbench (the set-up) and
then runs a fixed number of operations.  Sessions start while the run's
time budget lasts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the budget on untraced sessions, replays the same number of sessions
with every layer wrapped (see layers.py), and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every answer matched its reference.  Times are
scaled to a reference host speed (see hostspeed.py); the raw times are
printed beside them as ``raw_*``.  A run record
and, when traced, the spans as JSON lines are written under
``wbbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: An untraced run times set-up at least this many times and for at
#: least this many seconds in all (sessions plus extra set-ups, at most
#: ``SETUP_MAX`` samples); ``setup_s`` is the median.
SETUP_SAMPLES = 7
SETUP_TOTAL_S = 1.0
SETUP_MAX = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit_id():
    """The checkout's commit from ``.git``, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, share):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def timed_setup(workload, session):
    """Run the workload's set-up; record raw and scaled seconds."""
    host = session.host
    host.probe(3)
    start = time.perf_counter()
    wb = workload.setup(session)
    end = time.perf_counter()
    host.probe(3)
    session.setup_raw_s = end - start
    session.setup_s = (end - start) * host.scale(start, end)
    return wb


def run_session(workload, host, tracer=None):
    """Build a fresh workbench, run the fixed operations, collect counts."""
    from repro.datalog.stats import EngineStatistics
    from workloads import Session

    gc.collect()
    traced = tracer is not None
    session = Session(
        host,
        tracer,
        estats=EngineStatistics() if traced else None,
        dstats=EngineStatistics() if traced else None,
    )
    wb = timed_setup(workload, session)
    plan0 = wb.plan_cache.stats()
    codegens0 = wb.kernel_cache.stats()["codegens"]
    commits0, aborts0 = wb.txns.commits, wb.txns.aborts
    workload.operate(wb, session)
    host.probe(3)
    session.rescale()
    workload.finish(wb, session)
    plan = wb.plan_cache.stats()
    store = wb.db.store()
    session.counts = {
        "plan_hits": plan["hits"] - plan0["hits"],
        "plan_misses": plan["misses"] - plan0["misses"],
        "plan_evictions": plan["evictions"] - plan0["evictions"],
        "codegens": wb.kernel_cache.stats()["codegens"] - codegens0,
        "commits": wb.txns.commits - commits0,
        "aborts": wb.txns.aborts - aborts0,
        "history_ops": len(wb.txns.ops),
        "retained_txns": len(wb.txns.finished),
        "retained_versions": len(store.versions()),
        "journal_entries": len(store.journal),
    }
    wb.close()
    return session


def run_pass(workload, host, budget_s=None, sessions=None, tracer=None):
    """Whole sessions: a fixed count, or while ``budget_s`` lasts.

    Another session starts only when it is expected to end within half
    a session of the budget, so a run's length stays near the budget.
    """
    done = []
    start = time.perf_counter()
    while True:
        done.append(run_session(workload, host, tracer))
        if sessions is not None:
            if len(done) >= sessions:
                return done
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(done) / 2 > budget_s:
            return done


def op_totals(sessions, field="scaled"):
    """Latencies of the operations that succeeded, and op counts.

    ``field`` is "scaled" (reference-host seconds) or "latency" (raw).
    """
    latencies = [
        lat for s in sessions for lat, ok in zip(getattr(s, field), s.ok)
        if ok
    ]
    attempted = sum(len(s.latency) for s in sessions)
    failed = sum(ok is False for s in sessions for ok in s.ok)
    return latencies, attempted, failed


def ops_per_s(sessions):
    latencies = op_totals(sessions)[0]
    return len(latencies) / sum(latencies)


def timings(sessions, field):
    """ops/s, p50, p90 and late p50 of one latency field."""
    latencies = op_totals(sessions, field)[0]
    late = []
    for s in sessions:
        tenth = max(1, len(s.latency) // 10)
        late.extend(
            lat for lat, ok in zip(getattr(s, field)[-tenth:], s.ok[-tenth:])
            if ok
        )
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "late_p50_ms": (statistics.median(late) * 1e3, "ms"),
    }, len(latencies), len(late)


def end_to_end(sessions, setups):
    metrics, samples, late_samples = timings(sessions, "scaled")
    raw, _samples, _late = timings(sessions, "latency")
    _latencies, attempted, failed = op_totals(sessions)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["setup_s"] = (
        statistics.median(s.setup_s for s in setups), "s")
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    extra = {
        "samples": samples,
        "late_samples": late_samples,
        "setup_samples": len(setups),
        "failed_frac": failed / attempted,
        "raw_setup_s": statistics.median(s.setup_raw_s for s in setups),
    }
    extra.update(("raw_" + name, value) for name, (value, _u) in raw.items())
    return metrics, extra


def per_layer(sessions, tracer, untraced_ops_per_s):
    ops = op_totals(sessions)[1]
    counts = {
        key: sum(s.counts[key] for s in sessions) for key in (
            "plan_hits", "plan_misses", "plan_evictions", "codegens",
            "commits", "aborts",
        )
    }

    def last(key):
        return statistics.median(s.counts[key] for s in sessions)

    # Span self times are raw; scale them like the operations they are in.
    factor = sum(sum(s.scaled) for s in sessions) / sum(
        sum(s.latency) for s in sessions)

    def ms(name):
        return tracer.self_s.get(name, 0.0) * factor * 1e3 / ops

    def per_op(value):
        return value / ops

    def per_kop(value):
        return value * 1e3 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def stat(which, field):
        return sum(getattr(getattr(s, which), field) for s in sessions)

    calls = tracer.calls
    statements = sum(s.statements for s in sessions)
    parses = calls.get("sql_frontend.parse", 0)
    lookups = counts["plan_hits"] + counts["plan_misses"]
    finished = counts["commits"] + counts["aborts"]
    return {
        "sql_frontend.parse_ms": (ms("sql_frontend.parse"), "ms"),
        "sql_frontend.parse_calls_per_op": (per_op(parses), "1/op"),
        "workbench.parse_cache_hit_ratio": (
            1.0 - ratio(parses, statements) if statements else 0.0, "1"),
        "workbench.unattributed_ms": (ms("op"), "ms"),
        "logical.canonicalize_ms": (ms("logical.canonicalize"), "ms"),
        "plan_cache.hit_ratio": (ratio(counts["plan_hits"], lookups), "1"),
        "plan_cache.evictions_per_kop": (
            per_kop(counts["plan_evictions"]), "1/kop"),
        "plan_cache.invalidated_per_kop": (
            per_kop(tracer.invalidated), "1/kop"),
        "opt.optimize_ms": (ms("opt.optimize"), "ms"),
        "opt.calls_per_kop": (per_kop(calls.get("opt.optimize", 0)), "1/kop"),
        "compile.resolve_ms": (ms("compile.resolve"), "ms"),
        "compile.codegens_per_kop": (per_kop(counts["codegens"]), "1/kop"),
        "executor.execute_ms": (ms("executor.execute"), "ms"),
        "executor.facts_scanned_per_row": (
            ratio(stat("estats", "facts_scanned"), tracer.rows_out), "1/row"),
        "executor.index_probes_per_op": (
            per_op(stat("estats", "index_probes")), "1/op"),
        "executor.tuples_materialized_per_op": (
            per_op(stat("estats", "tuples_materialized")), "1/op"),
        "relation.build_ms": (ms("relation.build"), "ms"),
        "relation.tuples_built_per_op": (per_op(tracer.tuples_built), "1/op"),
        "database.apply_ms": (ms("database.apply"), "ms"),
        "txn.commit_ms": (ms("txn.commit"), "ms"),
        "txn.verify_ms": (ms("txn.verify"), "ms"),
        "txn.history_ops": (last("history_ops"), "count"),
        "txn.retained_txns": (last("retained_txns"), "count"),
        "txn.abort_ratio": (ratio(counts["aborts"], finished), "1"),
        "mvcc.retained_versions": (last("retained_versions"), "count"),
        "journal.retained_entries": (last("journal_entries"), "count"),
        "datalog.parse_ms": (ms("datalog.parse"), "ms"),
        "datalog.ingest_ms": (ms("datalog.ingest"), "ms"),
        "datalog.fixpoint_ms": (ms("datalog.fixpoint"), "ms"),
        "datalog.iterations_per_op": (
            per_op(stat("dstats", "iterations")), "1/op"),
        "datalog.facts_scanned_per_op": (
            per_op(stat("dstats", "facts_scanned")), "1/op"),
        "datalog.index_probes_per_op": (
            per_op(stat("dstats", "index_probes")), "1/op"),
        "trace_overhead": (ops_per_s(sessions) / untraced_ops_per_s, "1"),
    }


def main(argv):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing makes set and dict orders, and with them
        # the traced counts, repeat exactly under a fixed seed.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__] + argv, env)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS, WarmUpError
    except ImportError as exc:
        print("cannot import the workbench from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        return measure(args, workload)
    except WarmUpError as exc:
        print(exc, file=sys.stderr)
        return 1


def measure(args, workload):
    """Run the passes, write the run record, print the result line."""
    from hostspeed import HostSpeed
    from workloads import Session

    host = HostSpeed()
    if args.trace:
        from layers import LayerTracer

        plain = run_pass(workload, host, budget_s=args.seconds / 2)
        with LayerTracer() as tracer:
            traced = run_pass(workload, host, sessions=len(plain),
                              tracer=tracer)
        sessions = plain + traced
        untraced = ops_per_s(plain)
        metrics = per_layer(traced, tracer, untraced)
        extra = {"untraced_ops_per_s": untraced}
    else:
        tracer = None
        sessions = run_pass(workload, host, budget_s=args.seconds)
        setups = list(sessions)
        while len(setups) < SETUP_SAMPLES or (
            sum(s.setup_raw_s for s in setups) < SETUP_TOTAL_S
            and len(setups) < SETUP_MAX
        ):
            gc.collect()
            extra_setup = Session(host)
            timed_setup(workload, extra_setup)
            setups.append(extra_setup)
        metrics, extra = end_to_end(sessions, setups)

    _latencies, attempted, failed = op_totals(sessions)
    errors = [e for s in sessions for e in s.errors]
    statements = sum(s.statements for s in sessions)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit_id(),
            "machine": platform.machine(),
        },
        "ops_per_session": len(sessions[0].latency),
        "sessions": len(sessions),
        "repeated_text_share": (
            sum(s.repeated for s in sessions) / statements
            if statements else 0.0
        ),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / ("run-%s.json" % stem)).write_text(json.dumps(record, indent=2))
    if tracer is not None:
        tracer.write_jsonl(OUT / ("spans-%s.jsonl" % stem))

    for line in errors:
        print("FAILED", line)
    print("%s seed %d: %d sessions x %d ops, %d attempted, %d failed, "
          "repeated texts %.3f, cpus %s, python %s, commit %s" % (
              args.workload, args.seed, record["sessions"],
              record["ops_per_session"], attempted, failed,
              record["repeated_text_share"], record["env"]["cpus"],
              record["env"]["python"], record["env"]["commit"][:12]))
    for key, value in extra.items():
        print("  %-36s %s" % (key, value))
    for name, (value, unit) in metrics.items():
        print("  %-36s %12.6g %s" % (name, value, unit))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
