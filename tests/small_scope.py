"""The small-scope corpus: every term of type k up to a size over one fixed
signature and variable pool, and the orders checked on every pair of them.

    python tests/small_scope.py SRC SIZE

checks, with the ``lamorder`` under the source directory SRC, every ordered
pair of the terms up to SIZE under the KBO and under the LPO at the lowest
and the highest watershed: the naive and optimized algorithms agree, each
verdict is the flip of the reverse pair's, and a G, GE or E verdict keeps
the smaller side's variables within the bigger side's, as the dual does for
L, LE or E.  Under the LPO it also checks the three bounds by which the
optimized LPO skips a call: a term whose reach is below the other side's
head key is not at least that side; when the optimized ``beats`` of one
term over the immediate subterms of another is not L, none of those
subterms is at least the first term; and a variable-free term whose reach
is below the key of a symbol above the watershed is below that symbol.  It
prints one line per order, with the histogram of its verdicts and a SHA-256
of its verdict matrix, and fails at the first pair that breaks one of
these, or when the histogram or the digest differs from ``PINNED``.
"""

import hashlib
import random
import sys

PRECEDENCE = ["a", "b", "f", "g", "h"]
# the lowest and the highest symbol
WATERSHEDS = ("a", "h")
# the number of terms up to each size
TERM_COUNTS = {4: 222, 5: 1072}
# the verdicts, in the order of each histogram; a verdict's position in it is
# its character in the matrix that the digest hashes
VERDICT_ORDER = "G GE E LE L U".split()
# each order's histogram and digest of its verdicts, by corpus size; a
# deliberate verdict change re-pins them and names the pairs it moved
PINNED = {
    4: {"kbo": ((3054, 309, 222, 309, 3054, 42336),
                "8346484713c725e80e3868c02d22ad2e4fbce036935fe84d1ec0181a28762e98"),
        "lpo at watershed a": ((2653, 306, 222, 306, 2653, 43144),
                               "8ef461b49023a3ff24883e92d3ac60760d5510ae90855ac88680de102c2a0be0"),
        "lpo at watershed h": ((2668, 306, 222, 306, 2668, 43114),
                               "f5ed4565c193878bd67f40d0ac27844ac35af0e6e16e12f1d842460aa28d2083")},
    5: {"kbo": ((52172, 3830, 1072, 3830, 52172, 1036108),
                "eff374dd0221e477800100f135a3bc90aaa5758ac94dbf67be8b52f6d844aef0"),
        "lpo at watershed a": ((44921, 3423, 1072, 3423, 44921, 1051424),
                               "2e4d79388ca3e3491852d659bd111e254149312093e05b4033c47506f426c05c"),
        "lpo at watershed h": ((44983, 3436, 1072, 3436, 44983, 1051274),
                               "5f68cc734876088e10163ba884601f64a14123b8981e5fe0ffc735a7ba89e621")},
}


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
    return {"X": k, "Y": k, "Z": arrow(k, k), "W": arrow(arrow(k, k), k)}


def terms(sig, size: int):
    """Every term of type k up to ``size`` over ``sig`` and the variables."""
    from lamorder.gen import TermGen
    from lamorder.term import TyCon
    out = TermGen(random.Random(0), sig, var_types=variables()).every(
        TyCon("k"), size, ground=False)
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


def check(terms, p):
    """The histogram of the verdicts on the ordered pairs of ``terms``
    under ``p``, as counts in ``VERDICT_ORDER``, and the SHA-256 of the
    verdict matrix, one character per verdict, row by row in corpus order;
    an AssertionError names the first pair whose verdicts break agreement,
    flip symmetry, the variable condition or, under the LPO, one of the
    optimized LPO's three bounds.  Each pair and its reverse are compared
    together, by each algorithm once, and the bounds read these naive
    verdicts."""
    from lamorder.cmp import E, G, GE, L, LE, flip
    from lamorder.lambda_order import LPO, compare
    # naive[i][j] is the naive verdict of terms[i] against terms[j]
    naive = [[None] * len(terms) for _ in terms]
    for i, t in enumerate(terms):
        for j, s in enumerate(terms[i:], i):
            c, d = compare(t, s, p, "naive"), compare(s, t, p, "naive")
            naive[i][j], naive[j][i] = c, d
            for u, v, want in ((t, s, c), (s, t, d)):
                got = compare(u, v, p, "optimized")
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
    if p.kind == LPO:
        check_reach_bound(terms, p, naive)
        check_beaten_subterms(terms, p, naive)
        check_outranked(terms, p, naive)
    code = {v: str(n) for n, v in enumerate(VERDICT_ORDER)}
    matrix = "".join(code[c.value] for row in naive for c in row)
    return (tuple(matrix.count(str(n)) for n in range(len(VERDICT_ORDER))),
            hashlib.sha256(matrix.encode()).hexdigest())


def check_reach_bound(terms, p, naive) -> None:
    """A term whose ``lpo_reach`` is below the ``lpo_key`` of another's head
    is not at least it by the naive LPO: ``check_subs`` skips it."""
    from lamorder.cmp import E, G, GE
    for t, row in zip(terms, naive):
        reach = p.lpo_reach(t)
        for s, c in zip(terms, row):
            if reach < p.lpo_key(s) and c in (G, GE, E):
                raise AssertionError("reach %d below key %d, but naive %s on\n  %r\n  %r"
                                     % (reach, p.lpo_key(s), c.value, t, s))


def check_beaten_subterms(terms, p, naive) -> None:
    """When the optimized ``beats`` of ``hi`` over the immediate subterms of
    ``lo`` is not L, none of them is at least ``hi`` by the naive LPO: the
    optimized ``leave`` skips that subterm rule of a loser by heads.  A
    subterm outside ``terms``, a lambda, is compared apart, and so is
    ``hi`` itself, which ``compare`` answers E by identity although below
    the root a non-rigid one is U."""
    from lamorder.cmp import E, G, GE, L
    from lamorder.lambda_order import _LpoNaive, _LpoOpt, _subterms
    index = {t: i for i, t in enumerate(terms)}
    for lo in terms:
        subs, d = _subterms(lo, 0)
        if not subs:
            continue
        for j, hi in enumerate(terms):
            if _LpoOpt(p).beats(hi, 0, subs, d) is L:
                continue
            for b in subs:
                c = (naive[index[b]][j] if b in index and b is not hi
                     else _LpoNaive(p).compare(b, hi, d, 0))
                if c in (G, GE, E):
                    raise AssertionError("beats %r over the subterms of %r is not L, "
                                         "but naive %s on\n  %r\n  %r"
                                         % (hi, lo, c.value, b, hi))


def check_outranked(terms, p, naive) -> None:
    """A term free of variables outside parameters whose ``lpo_reach`` is
    below the ``lpo_key`` of a symbol above the watershed is below that
    symbol's term by the naive LPO: the optimized ``beats`` passes it."""
    from lamorder.cmp import G
    from lamorder.term import Sym
    for t, row in zip(terms, naive):
        if isinstance(t, Sym) and p.above_watershed(t.name):
            for b, c in zip(terms, row):
                if not b.arg_vars and p.lpo_reach(b) < p.lpo_key(t) and c is not G:
                    raise AssertionError("reach %d below key %d, but naive %s on\n  %r\n  %r"
                                         % (p.lpo_reach(b), p.lpo_key(t), c.value, t, b))


def main(argv) -> None:
    sys.path.insert(0, argv[1])
    size = int(argv[2])
    sig = signature()
    corpus = terms(sig, size)
    moved = []
    for name, p in orders(sig):
        try:
            histogram, digest = check(corpus, p)
        except AssertionError as fault:
            sys.exit("%s: %s" % (name, fault))
        print("%s: %d terms, %d ordered pairs agree, flip and keep the variable "
              "condition; %s %s; sha256 %s"
              % (name, len(corpus), len(corpus) ** 2, "/".join(VERDICT_ORDER),
                 "/".join(map(str, histogram)), digest))
        if size in PINNED and PINNED[size][name] != (histogram, digest):
            moved.append(name)
    if moved:
        sys.exit("verdicts differ from PINNED[%d] under %s" % (size, ", ".join(moved)))


if __name__ == "__main__":
    main(sys.argv)
