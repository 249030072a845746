"""The small-scope corpus: every term of type k up to a size over one fixed
signature and variable pool, and the orders checked on every pair of them.

    python tests/small_scope.py SRC SIZE

checks, with the ``lamorder`` under the source directory SRC, every ordered
pair of the terms up to SIZE under the KBO and under the LPO at the lowest
and the highest watershed: the naive and optimized algorithms agree, each
verdict is the flip of the reverse pair's, and a G, GE or E verdict keeps
the smaller side's variables within the bigger side's, as the dual does for
L, LE or E.  It prints one line per order and fails at the first pair that
breaks one of these.
"""

import sys

PRECEDENCE = ["a", "b", "f", "g", "h"]
# the lowest and the highest symbol
WATERSHEDS = ("a", "h")
# the number of terms up to each size
TERM_COUNTS = {4: 222, 5: 1072}


def signature():
    """a, b : k, f : k -> k, g : k -> k -> k and h : (k -> k) -> k."""
    from lamorder.term import Signature, TyCon, TypeDecl, arrow, arrows
    k = TyCon("k")
    sig = Signature()
    sig.add_type("k", 0)
    for name, ty in (("a", k), ("b", k), ("f", arrow(k, k)), ("g", arrows([k, k], k)),
                     ("h", arrow(arrow(k, k), k))):
        sig.add_symbol(name, TypeDecl((), (), ty))
    return sig


def variables():
    """X, Y : k, Z : k -> k and W : (k -> k) -> k; W applied to a lambda
    makes a node that is not rigid, which the optimized orders must not
    decide by identity."""
    from lamorder.term import TyCon, arrow
    k = TyCon("k")
    return [("X", k), ("Y", k), ("Z", arrow(k, k)), ("W", arrow(arrow(k, k), k))]


def terms(sig, size: int):
    """Every term of type k up to ``size`` over ``sig`` and the variables."""
    from lamorder.oracle import enum_ground_terms
    from lamorder.term import TyCon
    out = enum_ground_terms(sig, TyCon("k"), size, var_pool=variables())
    if size in TERM_COUNTS and len(out) != TERM_COUNTS[size]:
        raise AssertionError("%d terms up to size %d, not %d"
                             % (len(out), size, TERM_COUNTS[size]))
    return out


def orders(sig):
    """The name and parameters of each order checked."""
    from lamorder.lambda_order import KBO, LPO, OrderParams
    out = [("kbo", OrderParams(sig, KBO, prec=PRECEDENCE))]
    out += [("lpo at watershed %s" % w, OrderParams(sig, LPO, prec=PRECEDENCE, watershed=w))
            for w in WATERSHEDS]
    return out


def check(terms, p) -> int:
    """The number of GE verdicts on the ordered pairs of ``terms`` under
    ``p``; an AssertionError names the first pair whose verdicts break
    agreement, flip symmetry or the variable condition.  Each pair and its
    reverse are compared together, by each algorithm once."""
    from lamorder.cmp import E, G, GE, L, LE, flip
    from lamorder.lambda_order import ALGORITHMS
    naive, opt = ALGORITHMS[p.kind]
    ge = 0
    for i, t in enumerate(terms):
        for s in terms[i:]:
            c, d = naive(t, s, p), naive(s, t, p)
            for u, v, want in ((t, s, c), (s, t, d)):
                got = opt(u, v, p)
                if got is not want:
                    raise AssertionError("naive %s, optimized %s on\n  %r\n  %r"
                                         % (want.value, got.value, u, v))
            if c is not flip(d):
                raise AssertionError("%s on\n  %r\n  %r\nbut %s reversed"
                                     % (c.value, t, s, d.value))
            # the variable condition, on the variables outside parameters
            if (c in (G, GE, E) and not s.arg_vars <= t.all_vars
                    or c in (L, LE, E) and not t.arg_vars <= s.all_vars):
                raise AssertionError("%s breaks the variable condition on\n  %r\n  %r"
                                     % (c.value, t, s))
            ge += (c is GE) + (d is GE and s is not t)
    return ge


def main(argv) -> None:
    sys.path.insert(0, argv[1])
    size = int(argv[2])
    sig = signature()
    corpus = terms(sig, size)
    for name, p in orders(sig):
        try:
            ge = check(corpus, p)
        except AssertionError as fault:
            sys.exit("%s: %s" % (name, fault))
        print("%s: %d terms, %d ordered pairs agree, flip and keep the variable "
              "condition, %d GE" % (name, len(corpus), len(corpus) ** 2, ge))


if __name__ == "__main__":
    main(sys.argv)
