"""First-order KBO and LPO over pluggable providers."""

import itertools
import random

import pytest

from lamorder.cmp import Cmp
from lamorder.fo_order import FoParams, fo_kbo_compare, fo_kbo_weight, fo_lpo_compare
from lamorder.lambda_order import KBO, LPO, OrderParams
from lamorder.ordinal import ONE, ZERO, from_int
from lamorder.term import Signature, TyCon, TyVar, TypeDecl, arrow, subst_type


def make_params(weights=None, coeffs=None, order=("a", "b", "f", "g", "h")):
    weights = weights or {}
    coeffs = coeffs or {}
    ranks = {s: i for i, s in enumerate(order)}
    return FoParams(weight=lambda k: weights.get(k, ONE),
                    coeff=lambda k, i: coeffs.get((k, i), ONE),
                    prec=lambda x, y: ranks[x] - ranks[y])


def a():
    return TyCon("a")


def f(*args):
    return TyCon("f", tuple(args))


def g(*args):
    return TyCon("g", tuple(args))


X, Y = TyVar("x"), TyVar("y")


def test_kbo_weight():
    p = make_params()
    assert fo_kbo_weight(X, p) == ZERO
    assert fo_kbo_weight(f(X), p) == ONE
    p2 = make_params(coeffs={("f", 1): from_int(2)})
    assert fo_kbo_weight(f(a()), p2) == from_int(3)


def test_kbo_weighs_each_subterm_once():
    """A same-head descent down a depth-100 chain asks the weight provider
    at most once per node of either side."""
    t, s = a(), TyCon("b")
    for _ in range(100):
        t, s = f(t), f(s)
    calls = []
    p = make_params()
    p.weight = lambda k: calls.append(k) or ONE
    assert fo_kbo_compare(t, s, p) is Cmp.L
    assert len(calls) <= 2 * 101


def test_kbo_compare_examples():
    p = make_params()
    assert fo_kbo_compare(f(X), X, p) is Cmp.G
    assert fo_kbo_compare(g(a()), f(a()), p) is Cmp.G  # same weight, g above f
    assert fo_kbo_compare(X, Y, p) is Cmp.U
    assert fo_kbo_compare(f(X), f(X), p) is Cmp.E


def test_kbo_variable_condition():
    p = make_params(weights={"f": from_int(5)})
    # heavier but misses the variable
    assert fo_kbo_compare(f(a()), X, p) is Cmp.U


def test_lpo_compare_examples():
    p = make_params()
    assert fo_lpo_compare(f(g(a())), g(a()), p) is Cmp.G  # subterm rule wins
    assert fo_lpo_compare(f(g(a())), f(a()), p) is Cmp.G
    assert fo_lpo_compare(g(a()), f(a()), p) is Cmp.G
    assert fo_lpo_compare(X, a(), p) is Cmp.U
    assert fo_lpo_compare(f(X), X, p) is Cmp.G  # subterm rule


def enum_fo(symbols, size):
    """All ground terms over unary f, g and constant a up to the given size."""
    if size <= 0:
        return []
    out = [a()]
    for sub in enum_fo(symbols, size - 1):
        out.append(f(sub))
        out.append(g(sub))
    return out


def test_ground_trichotomy_and_order_laws():
    p = make_params(weights={"g": from_int(2)}, coeffs={("f", 1): from_int(2)})
    terms = enum_fo(None, 4)
    for kind in (fo_kbo_compare, fo_lpo_compare):
        table = {}
        for t, s in itertools.product(terms, terms):
            c = kind(t, s, p)
            table[(t, s)] = c
            assert c in (Cmp.G, Cmp.E, Cmp.L)
            assert (c is Cmp.E) == (t == s)
        for t, s in itertools.product(terms, terms):
            assert table[(t, s)] == {Cmp.G: Cmp.L, Cmp.L: Cmp.G,
                                     Cmp.E: Cmp.E}[table[(s, t)]]
        for t, s, u in itertools.product(terms[:12], terms[:12], terms[:12]):
            if table[(t, s)] is Cmp.G and table[(s, u)] is Cmp.G:
                assert table[(t, u)] is Cmp.G


def test_lpo_subterm_property():
    p = make_params()
    rng = random.Random(3)
    terms = enum_fo(None, 5)
    for _ in range(200):
        t = rng.choice(terms)
        u = f(g(t))
        assert fo_lpo_compare(u, t, p) is Cmp.G


def random_fo_term(rng, depth, vars_ok=True):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        if vars_ok and r < 0.15:
            return rng.choice([X, Y])
        return a()
    head = rng.choice(["f", "g", "h"])
    n = 1 if head in ("f", "g") else 2
    return TyCon(head, tuple(random_fo_term(rng, depth - 1, vars_ok)
                             for _ in range(n)))


def test_kbo_stability_under_substitution():
    p = make_params(weights={"h": from_int(2)})
    rng = random.Random(8)
    checked = 0
    for _ in range(600):
        t = random_fo_term(rng, 3)
        s = random_fo_term(rng, 3)
        if fo_kbo_compare(t, s, p) is not Cmp.G:
            continue
        mapping = {"x": random_fo_term(rng, 2, vars_ok=False),
                   "y": random_fo_term(rng, 2, vars_ok=False)}
        assert fo_kbo_compare(subst_type(t, mapping), subst_type(s, mapping), p) is Cmp.G
        checked += 1
    assert checked > 50


def test_type_order_dispatch():
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_type("i", 0)
    K, I = TyCon("k"), TyCon("i")
    sig.add_symbol("x", TypeDecl((), (), K))
    kbo = OrderParams(sig, KBO, prec=["x"], ty_prec=["->", "i", "k"])
    lpo = OrderParams(sig, LPO, prec=["x"], watershed="x", ty_prec=["->", "i", "k"])
    assert kbo.compare_types(K, K) is Cmp.E
    # (k -> k) outweighs k: 3 symbols against 1
    assert kbo.compare_types(arrow(K, K), K) is Cmp.G
    assert kbo.compare_types(TyVar("alpha"), K) is Cmp.U
    assert lpo.compare_types(K, I) is Cmp.G
    assert lpo.compare_types(arrow(K, I), K) is Cmp.G  # subterm
    assert lpo.compare_types(TyVar("alpha"), TyVar("alpha")) is Cmp.E


def test_lpo_decides_each_pair_once(monkeypatch):
    """One memo serves both directions of a comparison, and each pair's
    rules run once: 132 pairs at d = 10.  Trying the subterm rule first
    revisits pairs: on the chains f^d(a) and f^d(b) the same rules without
    the memo make 2^(d+2) - 2 calls, 4094 at d = 10."""
    from lamorder import fo_order
    from lamorder.checks import bench_signature, deep_chain_pair
    from lamorder.oracle import oracle_compare
    calls = [0]
    rules = fo_order._lpo_rules

    def counted(*args):
        calls[0] += 1
        return rules(*args)
    monkeypatch.setattr(fo_order, "_lpo_rules", counted)
    _, _, lpo = bench_signature()
    assert oracle_compare(*deep_chain_pair(10), lpo) is Cmp.L
    assert calls[0] == 132
    assert oracle_compare(*deep_chain_pair(200), lpo) is Cmp.L


def test_deep_terms_at_a_low_recursion_limit():
    """Neither order recurses: the KBO's same-head descent is a loop, and
    the LPO's pairs are an explicit stack.  The LPO decides a quadratic
    number of pairs on these families, so it is checked at depth 600, past
    the 493 where a recursive LPO ran out of stack at this limit."""
    import sys
    from lamorder.checks import adversarial_lpo_pair, bench_signature, deep_chain_pair
    from lamorder.oracle import oracle_compare
    _, kbo, lpo = bench_signature()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for params, depth in ((kbo, 10000), (lpo, 600)):
            for family in (deep_chain_pair, adversarial_lpo_pair):
                assert oracle_compare(*family(depth), params) is Cmp.L
    finally:
        sys.setrecursionlimit(limit)
