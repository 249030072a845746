"""Print what finite weight arithmetic costs: an ``ord_add``, a negation and
an ``ord_mul`` of finite values, and one ``weight_poly`` of a ground term.

    python tests/ordinal_cost.py SRC

``SRC`` is the ``src`` directory of a checkout.  Each cost is the best of
3 timed loops, in microseconds per operation, with the garbage collector
off.  The operands are small integers, as a weight pass meets them; the
term is the left side of ``checks.adversarial_lpo_pair(8)``, 17 nodes,
weighed under ``checks.bench_signature()``'s KBO, where every weight and
coefficient is 1.
"""

import gc
import sys
import time

OPS, WEIGHS, REPEATS = 300_000, 20_000, 3


def best_of(loop) -> float:
    """The lowest of ``REPEATS`` timings of ``loop()``, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return min(times)


def main(src: str) -> None:
    sys.path.insert(0, src)
    from lamorder.checks import adversarial_lpo_pair, bench_signature
    from lamorder.lambda_order import weight_poly
    from lamorder.ordinal import from_int, ord_add, ord_mul
    a, b = from_int(2), from_int(3)
    _, kbo, _ = bench_signature()
    t, _ = adversarial_lpo_pair(8)

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
            weight_poly(t, kbo)

    gc.disable()
    for what, loop, n in (("finite ord_add", add, OPS), ("finite negation", neg, OPS),
                          ("finite ord_mul", mul, OPS),
                          ("weight_poly, 17 nodes", weigh, WEIGHS)):
        print("%s: %.3f us (best of %d x %d)" % (what, best_of(loop) / n * 1e6, REPEATS, n))


if __name__ == "__main__":
    main(sys.argv[1])
