"""The timed loop, the traced pass, and the metrics they report."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter

from lamorder import lambda_order as lo

import corpus as cp
from timing import (BUDGET, DEADLINE, OK, OPTIMIZED_STEPS, RAISED, RECURSION,
                    WRONG, CallBudget, Gauge, failure_latency, install_alarm,
                    speed_factor, tail_rank, timed)

# Per-operation deadline, a safeguard: every timed operation completes far
# inside it, so hitting it is a failure of the code under test.  Pair
# compares take tens of microseconds to about 50 ms (LPO's nonground
# blow-ups); a deep_nest operation up to about 0.15 s (the nonground LPO nest
# at depth 6).  A slow stretch of the host can double these.
DEADLINE_S = {"random_pairs": 1.0, "related_pairs": 1.0, "deep_nest": 2.0}
# Recursive calls a naive reference compare may make before its pair is
# set aside as unverified.
NAIVE_CALLS = 5000
# Deadline of each oracle check of a ground pair.
ORACLE_S = 0.01
# Recursive calls of the optimized algorithm allowed to a probe of a
# budgeted family, and the deadline of every probe, a safeguard.
PROBE_CALLS = 200000
PROBE_DEADLINE_S = 30.0
# Set-ups per run; setup_s reports their median.
SETUP_REPEATS = 3
# Operations are timed in blocks of about this much wall time, with the
# speed kernel timed between blocks.
BLOCK_S = 0.005
# A traced operation may open this many spans, and take this long, as a
# safeguard; every timed operation needs far less.
TRACE_SPANS = 10000000
TRACE_DEADLINE_S = 120.0


class Outcomes:
    """Per-status counts of attempted operations, and the closest call."""

    def __init__(self):
        self.status = Counter()
        self.raised = Counter()
        self.max_ok_s = 0.0

    def add(self, status: str, elapsed: float, detail) -> None:
        self.status[status] += 1
        if status == OK:
            self.max_ok_s = max(self.max_ok_s, elapsed)
        elif status == RAISED:
            self.raised[detail] += 1

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.status[OK]

    def margin(self, deadline: float):
        """Smallest ratio of the deadline to a successful operation's time."""
        return deadline / self.max_ok_s if self.max_ok_s else None


def _check(status: str, verdict, want) -> str:
    if status == OK and want is not None and verdict != want:
        return WRONG
    return status


def _setup(workload: str, seed: int, repeats: int):
    """Build the corpus ``repeats`` times; return the last build and the
    median build time at the reference speed.  Every build must produce
    the same inputs."""
    times, first = [], None
    for _ in range(repeats):
        corpus = None
        gc.collect()
        before = speed_factor()
        t0 = time.perf_counter()
        corpus = cp.BUILDERS[workload](seed)
        wall = time.perf_counter() - t0
        times.append(wall * (before + speed_factor()) / 2)
        shape = (corpus.sizes, corpus.drawn, corpus.expected)
        if first is None:
            first = shape
        elif shape != first:
            raise SystemExit("perfbench: two builds from seed %d differ" % seed)
    return corpus, statistics.median(times)


def _timed_rounds(corpus, deadline: float, seconds: float):
    """Run every operation of both orders once per round, for as many rounds
    as fit in ``seconds`` (at least one).  Operations run in blocks of about
    BLOCK_S of wall time, and the gauge rescales each block to the reference
    speed.  Returns, per order, each operation's latency in every round (at
    the reference speed, failures counted by failure_latency), the time
    spent on the order's operations (at the reference speed, and wall), and
    the successes; then the outcomes, the rounds and the gauge."""
    lat = {o: [[] for _ in corpus.ops[o]] for o in cp.ORDERS}
    spent = {o: [0.0, 0.0] for o in cp.ORDERS}
    ok = dict.fromkeys(cp.ORDERS, 0)
    outcomes = Outcomes()
    gauge = Gauge()
    rounds = 0
    t_end = time.perf_counter() + seconds
    while True:
        r0 = time.perf_counter()
        for order in cp.ORDERS:
            want = corpus.expected[order]
            block, block_s = [], 0.0
            for i, (fn, args) in enumerate(corpus.ops[order]):
                status, verdict, dt, detail = timed(fn, args, deadline)
                status = _check(status, verdict, want[i])
                outcomes.add(status, dt, detail)
                ok[order] += status == OK
                block.append((i, dt, status == OK))
                block_s += dt
                if block_s >= BLOCK_S:
                    _close_block(gauge, block, lat[order], spent[order], deadline)
                    block, block_s = [], 0.0
            if block:
                _close_block(gauge, block, lat[order], spent[order], deadline)
        rounds += 1
        now = time.perf_counter()
        if now + (now - r0) > t_end:
            return lat, spent, ok, outcomes, rounds, gauge


def _close_block(gauge: Gauge, block, lat, spent, deadline: float) -> None:
    f = gauge.factor()
    for i, dt, good in block:
        at_ref = dt * f
        lat[i].append(at_ref if good else failure_latency(at_ref, deadline))
        spent[0] += at_ref
        spent[1] += dt


def _latency_metrics(order: str, lat, spent, ok: int):
    """Median and tail over the operations of each one's median latency
    across the rounds, and successful operations per second of the time
    spent on the order's operations, all at the reference speed."""
    per_op = sorted(statistics.median(x) for x in lat)
    q, k = tail_rank(len(per_op))
    metrics = {
        "%s_ops_per_s" % order: (ok / spent[0], "1/s"),
        "%s_p50_us" % order: (statistics.median(per_op) * 1e6, "us"),
        "%s_tail_us" % order: (per_op[k - 1] * 1e6, "us"),
    }
    tail = {"percentile": round(100 * q, 2), "samples": len(per_op),
            "beyond": len(per_op) - k}
    return metrics, tail, ok / spent[1]


def _run_probes(corpus):
    """Run each probe once.  A probe of a family whose time explodes runs
    under a budget of PROBE_CALLS recursive calls of the optimized
    algorithm, so it ends at the same point on every run; the others run as
    shipped, so the depth where they overflow the stack is the library's
    own.  Returns the count of each outcome and the outcome of each probe."""
    budget = CallBudget(OPTIMIZED_STEPS, PROBE_CALLS)
    counts = dict.fromkeys((OK, BUDGET, RECURSION, DEADLINE, RAISED), 0)
    each = []
    for name, depth, order, fn, args in corpus.probes:
        if name in cp.BUDGETED_FAMILIES:
            with budget:
                status = timed(budget.bounded(fn), args, PROBE_DEADLINE_S)[0]
        else:
            status = timed(fn, args, PROBE_DEADLINE_S)[0]
        counts[status] += 1
        each.append("%s/%d/%s %s" % (name, depth, order, status))
    return counts, each


def _settle_heap() -> None:
    """Collect, then move everything alive out of the collector's reach, so
    that collections during the timed operations cost what the comparisons
    allocate and not what the run holds; otherwise the corpus is traversed
    at whichever operation a full collection happens to hit."""
    gc.collect()
    gc.freeze()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float):
    """One run of one workload.  Returns the result object, the lines to
    print before it, and the run record."""
    install_alarm()
    deadline = DEADLINE_S[workload]
    if trace:
        return _run_traced(workload, seed, deadline)
    corpus, build_s = _setup(workload, seed, SETUP_REPEATS)
    setup_s = import_s + build_s
    ref = cp.reference_pass(corpus, NAIVE_CALLS, ORACLE_S)
    probes, probe_each = _run_probes(corpus)
    _settle_heap()
    lat, spent, ok, outcomes, rounds, gauge = _timed_rounds(corpus, deadline, seconds)

    metrics, tails, wall_ops = {}, {}, {}
    for order in cp.ORDERS:
        m, tails[order], wall_ops[order] = _latency_metrics(
            order, lat[order], spent[order], ok[order])
        metrics.update(m)
    fail_frac = outcomes.failed / outcomes.attempted
    metrics["ok_frac"] = (1.0 - fail_frac, "ratio")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")

    correct = not ref.conflicts and outcomes.status[WRONG] == 0
    wall_s = sum(w for _, w in spent.values())
    ref_s = sum(r for r, _ in spent.values())
    lines = _header(corpus, deadline, rounds)
    lines += ["%-16s %14.4f %s" % (name, v, unit) for name, (v, unit) in metrics.items()]
    lines.append("%-16s %14.4f ratio  (%d of %d attempted failed: %s)"
                 % ("fail_frac", fail_frac, outcomes.failed, outcomes.attempted,
                    _status_text(outcomes)))
    lines.append("wall clock: kbo %.1f, lpo %.1f ops/s; the host ran at %.3f of "
                 "the reference speed (%d kernel timings)"
                 % (wall_ops["kbo"], wall_ops["lpo"], ref_s / wall_s, gauge.kernels))
    lines += _probe_lines(probes, probe_each)
    lines += ref.conflicts
    record = _record(corpus, deadline, ref, outcomes,
                     probes if probe_each else None)
    record.update(rounds=rounds, tails=tails, import_s=import_s, build_s=build_s,
                  wall_ops_per_s=wall_ops, speed=ref_s / wall_s)
    result = {"correct": correct, "attempted": outcomes.attempted,
              "failed": outcomes.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines, record


def _run_traced(workload: str, seed: int, deadline: float):
    """One pass over the corpus.  Each operation runs untraced first, which
    gives the outcome of the code as shipped, and then traced.  The traced
    run is bounded by a span limit, a safeguard, and its counts are kept
    only if it completes; so the same operations count on every run and the
    counts repeat exactly."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        corpus = cp.BUILDERS[workload](seed)
    finally:
        tracer.uninstall()
    gen_self_s = tracer.self_s["gen"]
    tracer.reset()
    ref = cp.reference_pass(corpus, NAIVE_CALLS, ORACLE_S)
    probes, probe_each = _run_probes(corpus)
    _settle_heap()

    outcomes = Outcomes()
    untraced_s = traced_s = 0.0
    committed = incomplete = weight_calls = mismatches = 0
    tracer.span_limit = TRACE_SPANS
    for order in cp.ORDERS:
        tracer.order = order
        want = corpus.expected[order]
        for i, (fn, args) in enumerate(corpus.ops[order]):
            status, verdict, dt, detail = timed(fn, args, deadline)
            status = _check(status, verdict, want[i])
            outcomes.add(status, dt, detail)
            snap = tracer.snapshot()
            lo.reset_weight_calls()
            tracer.install()
            try:
                status2, verdict2, dt2, _ = timed(tracer.rooted(fn), args,
                                                  TRACE_DEADLINE_S)
            finally:
                tracer.uninstall()
            if status2 != OK:
                tracer.restore(snap)
                incomplete += 1
                continue
            if status == OK and verdict2 != verdict:
                mismatches += 1
            weight_calls += lo.weight_calls()
            committed += 1
            if status == OK:
                untraced_s += dt
                traced_s += dt2

    c, ms = tracer.counts, {k: v * 1e3 for k, v in tracer.self_s.items()}
    metrics = {
        "ordinal.calls": (c["ordinal.calls"], "count"),
        "ordinal.self_ms": (ms.get("ordinal", 0.0), "ms"),
        "poly.constructions": (c["poly.constructions"], "count"),
        "poly.analyze_calls": (c["poly.analyze_calls"], "count"),
        "poly.self_ms": (ms.get("poly", 0.0), "ms"),
        "term.type_of_calls": (c["term.type_of_calls"], "count"),
        "term.normalize_calls": (c["term.normalize_calls"], "count"),
        "term.self_ms": (ms.get("term", 0.0), "ms"),
        "fo_order.type_compares": (c["fo_order.type_compares"], "count"),
        "fo_order.self_ms": (ms.get("fo_order", 0.0), "ms"),
        "cmp.ext_calls": (c["cmp.ext_calls"], "count"),
        "cmp.self_ms": (ms.get("cmp", 0.0), "ms"),
        "lambda_order.calls": (c["lambda_order.calls"], "count"),
        "lambda_order.weight_builds": (c["lambda_order.weight_builds"], "count"),
        "lambda_order.kbo_self_ms": (ms.get("kbo", 0.0), "ms"),
        "lambda_order.lpo_self_ms": (ms.get("lpo", 0.0), "ms"),
        "lambda_order.recursion_errors": (probes[RECURSION], "count"),
        "lambda_order.budget_exceeded": (probes[BUDGET], "count"),
        "lambda_order.deadline_margin": (outcomes.margin(deadline) or 0.0, "ratio"),
        "parse.terms": (c["parse.terms"], "count"),
        "parse.self_ms": (ms.get("parse", 0.0), "ms"),
        "gen.accept_frac": (corpus.accept_frac(), "ratio"),
        "gen.self_ms": (gen_self_s * 1e3, "ms"),
        "reference.naive_ms": (ref.naive_s * 1e3, "ms"),
        "oracle.verify_ms": (ref.oracle_s * 1e3, "ms"),
        "reference.unverified": (ref.unverified, "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio"),
        "trace.compares": (committed, "count"),
        "trace.spans": (c["trace.spans"], "count"),
        "trace.incomplete": (incomplete, "count"),
    }
    weights_agree = c["lambda_order.weight_builds"] == weight_calls
    correct = (not ref.conflicts and outcomes.status[WRONG] == 0
               and weights_agree and not mismatches)

    lines = _header(corpus, deadline, 1)
    lines += ["%-30s %14.4f %s" % (name, v, unit) if isinstance(v, float)
              else "%-30s %14d %s" % (name, v, unit)
              for name, (v, unit) in metrics.items()]
    lines.append("weight_calls() %d, traced weight_poly calls %d: %s"
                 % (weight_calls, c["lambda_order.weight_builds"],
                    "equal" if weights_agree else "MISMATCH"))
    if mismatches:
        lines.append("%d operations gave another verdict traced" % mismatches)
    if tracer.missing:
        lines.append("not traced, missing from the library: "
                     + ", ".join(tracer.missing))
    lines += _probe_lines(probes, probe_each)
    lines += ref.conflicts
    record = _record(corpus, deadline, ref, outcomes,
                     probes if probe_each else None)
    record["untraced_functions"] = tracer.missing
    result = {"correct": correct, "attempted": outcomes.attempted,
              "failed": outcomes.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines, record


def _header(corpus, deadline, rounds):
    return ["workload %s: %d kbo and %d lpo operations, %d round(s), deadline %g ms"
            % (corpus.name, len(corpus.ops["kbo"]), len(corpus.ops["lpo"]),
               rounds, deadline * 1e3)]


def _status_text(outcomes: Outcomes) -> str:
    parts = ["%s %d" % (s, outcomes.status[s])
             for s in (WRONG, DEADLINE, RECURSION, RAISED)]
    parts += ["%s %d" % kv for kv in sorted(outcomes.raised.items())]
    return ", ".join(parts)


def _probe_lines(counts, each):
    if not each:
        return []
    return ["limits (probes, not timed): "
            + ", ".join("%s %d" % kv for kv in counts.items()),
            "  " + "; ".join(sorted(each))]


def _record(corpus, deadline, ref, outcomes, probes):
    return {
        "deadline_s": deadline,
        "deadline_margin": outcomes.margin(deadline),
        "operations": {o: len(corpus.ops[o]) for o in cp.ORDERS},
        "side_size_quartiles": corpus.size_quartiles(),
        "gen_accept_frac": corpus.accept_frac(),
        "reference_unverified": ref.unverified,
        "reference_conflicts": len(ref.conflicts),
        "naive_calls_budget": NAIVE_CALLS,
        "outcomes": dict(outcomes.status),
        "raised": dict(outcomes.raised),
        "probes": probes,
    }
