"""Print what the library's hot operations cost, one line per probe.

    python tests/cost.py SRC

``SRC`` is the ``src`` directory of a checkout.  Each probe prints the best
of 3 timed loops with the collector off, per operation: microseconds, and
minor page faults of this process.  The probes intern a ``Var`` of a new
name and hit the table with ``Sym("a", (), (), ())``; add, negate and
multiply small finite ordinals; weigh the left side of
``checks.adversarial_lpo_pair(8)``; and compare the depth-256 ground nest
and chain of ``checks`` under each order of ``checks.bench_signature()``.
A deep compare's faults follow where CPython's data-stack chunks break, so
they move with the frames below it: ``main``, ``best_of`` and the loop take
55 slots, and ``main`` builds only the deep probes to keep them so.
"""

import gc
import resource
import sys
import time

FRESH, HITS, OPS, WEIGHS = 30_000, 300_000, 300_000, 20_000
DEPTH, COMPARES, REPEATS = 256, 20, 3


def best_of(loop):
    """The lowest seconds and the lowest minor page faults of ``REPEATS``
    runs of ``loop()``, each taken apart."""
    times, faults = [], []
    for _ in range(REPEATS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(times), min(faults)


def light_probes(kbo, term):
    """The six light probes, as (label, loop, operations per loop)."""
    from lamorder.lambda_order import weight_poly
    from lamorder.ordinal import from_int, ord_add, ord_mul
    from lamorder.term import Sym, TyCon, Var
    k = TyCon("k")
    names = [["intern_cost_%d_%d" % (i, j) for j in range(FRESH)] for i in range(REPEATS)]
    a, b = from_int(2), from_int(3)

    def fresh():
        for name in names.pop():
            Var(name, k)
    def hit():
        for _ in range(HITS):
            Sym("a", (), (), ())
    def add():
        for _ in range(OPS):
            ord_add(a, b)
    def neg():
        for _ in range(OPS):
            -b
    def mul():
        for _ in range(OPS):
            ord_mul(a, b)
    def weigh():
        for _ in range(WEIGHS):
            weight_poly(term, kbo)

    return [("fresh Var", fresh, FRESH), ("Sym hit", hit, HITS),
            ("finite ord_add", add, OPS), ("finite negation", neg, OPS),
            ("finite ord_mul", mul, OPS), ("weight_poly, 17 nodes", weigh, WEIGHS)]


def main(src: str) -> None:
    sys.path.insert(0, src)
    from lamorder.checks import adversarial_lpo_pair, bench_signature, deep_chain_pair
    from lamorder.lambda_order import compare
    _, kbo, lpo = bench_signature()
    probes = light_probes(kbo, adversarial_lpo_pair(8)[0])
    for shape, (t, s) in (("ground nest", adversarial_lpo_pair(DEPTH)),
                          ("chain", deep_chain_pair(DEPTH))):
        for name, p in (("kbo", kbo), ("lpo", lpo)):
            def loop(t=t, s=s, p=p):
                for _ in range(COMPARES):
                    compare(t, s, p)
            probes.append(("%s %s, depth %d" % (name, shape, DEPTH), loop, COMPARES))
    gc.disable()
    for label, loop, n in probes:
        seconds, faults = best_of(loop)
        print("%s: %.3f us, %.2f minor faults per operation (best of %d x %d)"
              % (label, seconds / n * 1e6, faults / n, REPEATS, n))


if __name__ == "__main__":
    main(sys.argv[1])
