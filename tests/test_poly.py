"""Weight polynomials: ring behaviour, sign analysis, evaluation, order-free
storage."""

import random

import pytest

from lamorder.cmp import Cmp
from lamorder.ordinal import ONE, OMEGA, ZERO, from_int, omega_pow, ord_mul
from lamorder.poly import (HInd, KInd, Poly, PolyError, WInd,
                           analyze_weight_diff, const_poly, eval_poly,
                           indet_poly, monomial, subst_poly)
from lamorder.term import TyCon, Var

K = TyCon("k")


def wv(name):
    return WInd(Var(name, K))


def kv(name, i):
    return KInd(Var(name, K), i)


W_Y = indet_poly(wv("y"))
W_X = indet_poly(wv("x"))
K_Y1 = indet_poly(kv("y", 1))


def test_add_sub_scale():
    assert (const_poly(1) + W_Y) - W_Y == const_poly(1)
    assert (W_Y + const_poly(1)).scale(from_int(2)) == \
        W_Y.scale(from_int(2)) + const_poly(2)
    assert (W_Y - W_Y).is_zero()


def test_mul_distributes():
    lhs = K_Y1 * (W_X + const_poly(1))
    rhs = K_Y1 * W_X + K_Y1
    assert lhs == rhs
    rng = random.Random(4)
    for _ in range(10):
        assignment = {wv("y"): from_int(rng.randint(0, 5)),
                      wv("x"): from_int(rng.randint(0, 5)),
                      kv("y", 1): from_int(rng.randint(0, 5))}
        assert eval_poly(lhs, assignment) == eval_poly(rhs, assignment)


def test_surely_nonneg():
    square = W_Y * W_Y - W_Y.scale(from_int(3)) + const_poly(3)
    assert not square.surely_nonneg()  # loses this solvable instance by design
    assert (W_Y + const_poly(1)).surely_nonneg()
    assert not const_poly(-1).surely_nonneg()
    assert Poly().surely_nonneg()


def test_analyze_weight_diff_table():
    assert analyze_weight_diff(const_poly(1)) is Cmp.G
    assert analyze_weight_diff(Poly()) is Cmp.E
    assert analyze_weight_diff(W_Y) is Cmp.GE
    assert analyze_weight_diff(-W_Y) is Cmp.LE
    assert analyze_weight_diff(W_X - W_Y) is Cmp.U
    assert analyze_weight_diff(W_Y + const_poly(2)) is Cmp.G
    assert analyze_weight_diff(-W_Y - const_poly(2)) is Cmp.L


def test_analyze_consistent_with_eval():
    rng = random.Random(9)
    inds = [wv("y"), wv("x"), kv("y", 1), HInd("alpha")]
    for _ in range(400):
        coeffs = {}
        for _ in range(rng.randint(0, 4)):
            m = monomial(*rng.sample(inds, rng.randint(0, 2)))
            c = from_int(rng.randint(-3, 3))
            if not c.is_zero():
                coeffs[m] = c
        w = Poly(coeffs)
        verdict = analyze_weight_diff(w)
        for _ in range(5):
            assignment = {x: from_int(rng.choice([0, 1, 2, 5])) for x in inds}
            v = eval_poly(w, assignment)
            if verdict is Cmp.G:
                assert v.is_positive()
            elif verdict is Cmp.GE:
                assert v.is_nonneg()
            elif verdict is Cmp.E:
                assert v.is_zero()
            elif verdict is Cmp.LE:
                assert (-v).is_nonneg()
            elif verdict is Cmp.L:
                assert (-v).is_positive()


def test_eval_reports_missing_indeterminate():
    with pytest.raises(PolyError) as err:
        eval_poly(W_Y, {})
    assert "w[" in str(err.value)


def test_eval_examples():
    assert eval_poly(const_poly(1) + W_Y, {wv("y"): from_int(2)}) == from_int(3)
    assert eval_poly(const_poly(7), {}) == from_int(7)
    # k * (w_x - 1) under k = 2, w_x = omega
    w = K_Y1 * (W_X - const_poly(1))
    got = eval_poly(w, {kv("y", 1): from_int(2), wv("x"): OMEGA})
    assert got == ord_mul(from_int(2), OMEGA) - from_int(2)


def test_subst_poly():
    assert subst_poly(W_Y, {wv("y"): wv("z")}) == indet_poly(wv("z"))
    w = W_Y * K_Y1 + W_Y
    assert subst_poly(w, {}) == w
    h = Poly({(HInd("alpha"),): from_int(2)})
    assert subst_poly(h, {HInd("alpha"): from_int(2)}) == const_poly(4)
    # indeterminate -> polynomial images distribute through products
    expanded = subst_poly(W_Y * W_Y, {wv("y"): W_X + const_poly(1)})
    assert expanded == W_X * W_X + W_X.scale(from_int(2)) + const_poly(1)


def test_ordinal_coefficients():
    w = W_Y.scale(OMEGA) + const_poly(1)
    assert w.surely_nonneg()
    assert analyze_weight_diff(w) is Cmp.G
    assert eval_poly(w, {wv("y"): from_int(3)}) == ord_mul(OMEGA, from_int(3)) + ONE


def _two_scan_analysis(w):
    """The sign classification as defined before the one-scan version: both
    nonnegativity checks, then the sign of the constant."""
    nonneg = w.surely_nonneg()
    nonpos = (-w).surely_nonneg()
    if nonneg and nonpos:
        return Cmp.E
    if nonneg:
        return Cmp.G if w.constant.is_positive() else Cmp.GE
    if nonpos:
        return Cmp.L if (-w.constant).is_positive() else Cmp.LE
    return Cmp.U


def test_analyze_matches_two_scan_definition():
    rng = random.Random(17)
    inds = [wv("y"), wv("x"), kv("y", 1), kv("x", 2), HInd("b")]
    values = [from_int(n) for n in range(-3, 4)] + [
        OMEGA, -OMEGA, OMEGA - from_int(2), from_int(1) - OMEGA,
        omega_pow(from_int(2), -1) + OMEGA]
    seen = set()
    for _ in range(600):
        acc = {}
        for _ in range(rng.randint(0, 6)):
            # repeated monomials add up, so some coefficients cancel to zero
            m = monomial(*rng.sample(inds, rng.randint(0, 2)))
            acc[m] = acc.get(m, ZERO) + rng.choice(values)
        w = Poly(acc)
        got = analyze_weight_diff(w)
        assert got == _two_scan_analysis(w), w
        seen.add(got)
    assert seen == set(Cmp)


def test_deterministic_rendering():
    w = W_Y + W_X + K_Y1 * W_X + const_poly(2)
    assert repr(w) == repr(Poly(dict(w.items())))


def test_poly_is_order_free():
    m1, m2, m3 = monomial(wv("y")), monomial(kv("y", 1), wv("x")), ()
    a, b, c = from_int(2), -OMEGA, from_int(-1)
    one = Poly({m1: a, m2: b, m3: c})
    other = Poly({m3: c, m2: b, m1: a})
    assert list(one.items()) != list(other.items())
    assert one == other
    assert hash(one) == hash(other)
    assert repr(one) == repr(other)
    # a zero coefficient is dropped, so it changes neither equality nor hash
    padded = Poly({m2: b, monomial(HInd("a")): ZERO, m1: a, m3: c})
    assert len(padded.items()) == 3
    assert padded == one and hash(padded) == hash(one)
    assert Poly({m1: ZERO}) == Poly() and Poly({m1: ZERO}).is_zero()


def test_surely_nonneg_sound_bulk():
    rng = random.Random(20)
    inds = [wv("y"), wv("x"), kv("y", 1), kv("x", 2), HInd("a")]
    certified = 0
    for _ in range(10000):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            m = monomial(*rng.sample(inds, rng.randint(0, 2)))
            c = from_int(rng.randint(-2, 3))
            if not c.is_zero():
                coeffs[m] = c
        w = Poly(coeffs)
        if not w.surely_nonneg():
            continue
        certified += 1
        assignment = {x: from_int(rng.choice([0, 1, 2, 7])) for x in inds}
        assert eval_poly(w, assignment).is_nonneg()
    assert certified > 1000
