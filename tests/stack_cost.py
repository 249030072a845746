"""Print what a deep comparison costs: one optimized KBO and LPO compare of
a depth-256 ground nest and of a depth-256 chain.

    python tests/stack_cost.py SRC

``SRC`` is the ``src`` directory of a checkout.  The nest is
``checks.adversarial_lpo_pair(256)`` and the chain
``checks.deep_chain_pair(256)``, compared under
``checks.bench_signature()``.  Each figure is the best of 3 timed loops, in
microseconds and in minor page faults of this process
(``resource.getrusage``) per compare, with the garbage collector off.  A
recursive comparison spends frames per nesting level, so a change to a
frame's layout shows here as time and as faults.
"""

import gc
import resource
import sys
import time

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


def main(src: str) -> None:
    sys.path.insert(0, src)
    from lamorder.checks import adversarial_lpo_pair, bench_signature, deep_chain_pair
    from lamorder.lambda_order import compare
    _, kbo, lpo = bench_signature()
    gc.disable()
    for shape, (t, s) in (("ground nest", adversarial_lpo_pair(DEPTH)),
                          ("chain", deep_chain_pair(DEPTH))):
        for name, p in (("kbo", kbo), ("lpo", lpo)):
            def loop():
                for _ in range(COMPARES):
                    compare(t, s, p)
            seconds, faults = best_of(loop)
            print("%s %s, depth %d: %.1f us, %.1f minor faults per compare (best of %d x %d)"
                  % (name, shape, DEPTH, seconds / COMPARES * 1e6, faults / COMPARES,
                     REPEATS, COMPARES))


if __name__ == "__main__":
    main(sys.argv[1])
