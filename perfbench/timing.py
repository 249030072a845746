"""Per-operation deadline, work budgets, and timing at a reference speed.

The deadline is an in-process ``ITIMER_REAL`` alarm, so a runaway comparison
is interrupted where it stands and the run goes on with the next one.  A
work budget bounds a comparison by the number of recursive calls it makes,
which, unlike a deadline, ends the same comparisons on every run.

Wall times are rescaled to a reference speed by ``Gauge``.  On a shared host
the speed of a core swings by up to a factor of two from one second to the
next while the process keeps the core (its CPU time grows as fast as wall
time), so no amount of repetition steadies raw wall times.  A fixed
pure-Python kernel, independent of the library, is timed between blocks of
a few milliseconds of operations; each block's wall time is scaled by the
kernel's reference time over its measured time around that block.
"""

from __future__ import annotations

import signal
import statistics
import time

from lamorder import lambda_order as lo

OK = "ok"
DEADLINE = "deadline"
BUDGET = "budget"
RECURSION = "recursion"
RAISED = "raised"
WRONG = "wrong"


class Deadline(BaseException):
    """Raised by the alarm handler.  A BaseException, so that no handler in
    the code under test can swallow it."""


class WorkLimit(BaseException):
    """An operation exceeded its work budget."""


def _on_alarm(signum, frame):
    raise Deadline()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def timed(fn, args, deadline: float):
    """Run ``fn(*args)`` under the deadline.

    Returns ``(status, verdict, elapsed_s, detail)``.  Every operation of a
    run is started through this one function, from the same call depth, so
    the stack available to the code under test does not depend on the caller.
    """
    verdict = detail = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            t0 = time.perf_counter()  # again, so arming the timer is untimed
            verdict = fn(*args)
            status = OK
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        status = DEADLINE
    except WorkLimit:
        status = BUDGET
    except RecursionError:
        status = RECURSION
    except Exception as exc:  # any other error is a failed operation
        status, detail = RAISED, type(exc).__name__
    return status, verdict, time.perf_counter() - t0, detail


def failure_latency(elapsed: float, deadline: float) -> float:
    """A failed operation counts as the deadline plus the time it ran, so it
    reads slower than any success and fixing it never reads as a slowdown."""
    return deadline + elapsed


def tail_rank(n: int):
    """The highest percentile with at least ten samples beyond it, capped at
    p99: returns (fraction, 1-based rank in ascending order)."""
    q = min(0.99, (n - 10) / n)
    k = max(1, int(q * n + 1e-9))
    return q, k


# ---------------------------------------------------------------------------
# Work budgets
# ---------------------------------------------------------------------------

# The recursive step of each comparison algorithm; a budget counts its calls.
NAIVE_STEPS = ("_KboNaive.compare", "_LpoNaive.compare")
OPTIMIZED_STEPS = ("_KboOpt.process", "_LpoOpt.compare")


class CallBudget:
    """While installed, counts the calls of the given ``lambda_order``
    methods and raises WorkLimit on the call past ``limit``.  ``missing``
    names the methods the library no longer has."""

    def __init__(self, paths, limit: int):
        self.limit = limit
        self.calls = 0
        self.missing = []
        self._patches = []
        for path in paths:
            cls_name, attr = path.split(".")
            cls = getattr(lo, cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                self.missing.append("lambda_order." + path)
            else:
                self._patches.append((cls, attr, orig, self._wrap(orig)))

    def _wrap(self, fn):
        budget = self

        def counted(*args, **kwargs):
            budget.calls += 1
            if budget.calls > budget.limit:
                raise WorkLimit()
            return fn(*args, **kwargs)

        return counted

    def bounded(self, fn):
        """fn with the call count reset before each call."""
        budget = self

        def call(*args):
            budget.calls = 0
            return fn(*args)

        return call

    def __enter__(self):
        for cls, attr, _, wrapper in self._patches:
            setattr(cls, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for cls, attr, orig, _ in self._patches:
            setattr(cls, attr, orig)


# ---------------------------------------------------------------------------
# Reference speed
# ---------------------------------------------------------------------------

# The kernel's time at the reference speed: about its fastest time on the
# 2-core shared x86-64 host the benchmark was written on (CPython 3.11).
KERNEL_REFERENCE_S = 265e-6


def _tree(depth: int):
    return (depth, _tree(depth - 1), _tree(depth - 1)) if depth else ("leaf",)


_TREE = _tree(9)


def _walk(t, acc: int) -> int:
    if len(t) == 1:
        return acc + 1
    return _walk(t[2], _walk(t[1], acc))


def _kernel() -> int:
    """Calls, tuple indexing and dict updates, as the comparisons do."""
    n = _walk(_TREE, 0) + _walk(_TREE, 0)
    d = {}
    for i in range(800):
        key = (i & 63, i & 7)
        d[key] = d.get(key, 0) + 1
    return n + len(d)


def kernel_s() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def speed_factor(samples: int = 5) -> float:
    """Reference time over the median of a few kernel timings: multiply a
    wall time measured just now by it."""
    return KERNEL_REFERENCE_S / statistics.median(kernel_s() for _ in range(samples))


class Gauge:
    """Rescales the wall time of consecutive blocks of operations: each call
    of ``factor`` times the kernel once and returns the factor for the block
    since the previous call, from the kernel times on both sides of it."""

    def __init__(self):
        self.last = kernel_s()
        self.kernels = 1

    def factor(self) -> float:
        k = kernel_s()
        f = 2.0 * KERNEL_REFERENCE_S / (self.last + k)
        self.last = k
        self.kernels += 1
        return f
