"""Print what interning costs: a fresh ``Var`` node and a ``Sym`` table hit.

    python tests/intern_cost.py SRC

``SRC`` is the ``src`` directory of a checkout.  Each cost is the best of
3 timed loops, in microseconds per value, with the garbage collector off,
so that the size of the table does not enter it.  A fresh node pays the
miss path: the key, the table lookup that fails, the fields and the node's
facts; a hit pays the key and one lookup.
"""

import gc
import sys
import time

FRESH, HITS, REPEATS = 30_000, 300_000, 3


def best_of(loop) -> float:
    """The lowest of ``REPEATS`` timings of ``loop(i)``, in seconds."""
    times = []
    for i in range(REPEATS):
        start = time.perf_counter()
        loop(i)
        times.append(time.perf_counter() - start)
    return min(times)


def main(src: str) -> None:
    sys.path.insert(0, src)
    from lamorder.term import Sym, TyCon, Var
    k = TyCon("k")
    names = [["intern_cost_%d_%d" % (i, j) for j in range(FRESH)] for i in range(REPEATS)]

    def fresh(i):
        for name in names[i]:
            Var(name, k)

    def hit(i):
        for _ in range(HITS):
            Sym("a", (), (), ())

    gc.disable()
    print("fresh Var: %.2f us (best of %d x %d)"
          % (best_of(fresh) / FRESH * 1e6, REPEATS, FRESH))
    print("Sym hit: %.3f us (best of %d x %d)"
          % (best_of(hit) / HITS * 1e6, REPEATS, HITS))


if __name__ == "__main__":
    main(sys.argv[1])
