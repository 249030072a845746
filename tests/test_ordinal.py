"""Ordinal arithmetic: fixture table, ring laws on a finite domain, order laws,
and the merges against a dict-and-sort reference."""

import itertools
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamorder.ordinal import (MAX_NESTING, ONE, OMEGA, ZERO, Ord, format_ord, from_int,
                              omega_pow, ord_add, ord_compare, ord_mul, parse_ord)


# -- reference: collect like exponents in a dict, sort, compare by subtraction

def ref_canonical(pairs):
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    items = [(e, c) for e, c in acc.items() if c != 0]
    items.sort(key=cmp_to_key(lambda a, b: ref_compare(a[0], b[0])), reverse=True)
    return Ord(tuple(items))


def ref_neg(a):
    return Ord(tuple((e, -c) for e, c in a.terms))


def ref_add(a, b):
    return ref_canonical(a.terms + b.terms)


def ref_mul(a, b):
    return ref_canonical([(ref_add(ea, eb), ca * cb)
                          for ea, ca in a.terms for eb, cb in b.terms])


def ref_compare(a, b):
    if a.terms == b.terms:
        return 0
    diff = ref_add(a, ref_neg(b))
    return 1 if diff.terms[0][1] > 0 else -1


def assert_canonical(a):
    """Exponents strictly decreasing and canonical themselves, coefficients
    nonzero."""
    for e, c in a.terms:
        assert c != 0
        assert_canonical(e)
    for (e1, _), (e2, _) in zip(a.terms, a.terms[1:]):
        assert ref_compare(e1, e2) > 0


def cnf_values():
    """Signed CNF values with nested exponents, such as w^(w+1), built by
    the reference alone."""
    coeff = st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0)
    base = st.builds(lambda c: ref_canonical([(ZERO, c)]),
                     st.integers(min_value=-4, max_value=4))
    def extend(children):
        def build(pairs):
            return ref_canonical([(e if e.is_nonneg() else ref_neg(e), c) for e, c in pairs])
        return st.builds(build, st.lists(st.tuples(children, coeff), max_size=3))
    return st.recursive(base, extend, max_leaves=6)


def w(n=1):
    return omega_pow(ONE, n)


def w2(n=1):
    return omega_pow(from_int(2), n)


# every signed CNF with exponents in {0, 1, 2} and coefficients in -2..2
def signed_domain():
    vals = []
    coeffs = [-2, -1, 1, 2]
    exps = [ZERO, ONE, from_int(2)]
    for c2 in [0] + coeffs:
        for c1 in [0] + coeffs:
            for c0 in [0] + coeffs:
                terms = []
                if c2:
                    terms.append((exps[2], c2))
                if c1:
                    terms.append((exps[1], c1))
                if c0:
                    terms.append((exps[0], c0))
                vals.append(Ord(tuple(terms)))
    return vals


DOMAIN = signed_domain()


def test_compare_examples():
    assert ord_compare(OMEGA, from_int(3)) > 0
    assert ord_compare(ZERO, ZERO) == 0
    assert ord_compare(OMEGA - from_int(3), ZERO) > 0


def test_add_examples():
    assert from_int(1) + OMEGA == OMEGA + ONE == Ord(((ONE, 1), (ZERO, 1)))
    a = w2(1) + w(1) + from_int(2)
    assert a + ZERO == a
    assert (w(2) + ONE) + (w(1) + from_int(2)) == w(3) + from_int(3)


def test_mul_examples():
    assert OMEGA * from_int(2) == w(2)
    a = w2(3) + from_int(5)
    assert a * ONE == a
    assert OMEGA * OMEGA == omega_pow(from_int(2))


def test_nonneg_examples():
    assert (OMEGA - from_int(3)).is_nonneg()
    assert not (from_int(3) - OMEGA).is_nonneg()
    assert ZERO.is_nonneg()
    assert not ZERO.is_positive()


# natural sums and products against a textbook table
NATURAL_TABLE = [
    # (a, b, a+b, a*b)
    (ZERO, ZERO, ZERO, ZERO),
    (ONE, ONE, from_int(2), ONE),
    (from_int(2), from_int(3), from_int(5), from_int(6)),
    (ONE, OMEGA, OMEGA + ONE, OMEGA),
    (OMEGA, ONE, OMEGA + ONE, OMEGA),
    (OMEGA, OMEGA, w(2), w2()),
    (OMEGA + ONE, OMEGA, w(2) + ONE, w2() + OMEGA),
    (OMEGA, from_int(3), OMEGA + from_int(3), w(3)),
    (w(2), w(3), w(5), w2(6)),
    (w2(), OMEGA, w2() + OMEGA, omega_pow(from_int(3))),
    (w2() + ONE, OMEGA, w2() + OMEGA + ONE, omega_pow(from_int(3)) + OMEGA),
    (OMEGA + from_int(2), OMEGA + from_int(3), w(2) + from_int(5),
     w2() + w(5) + from_int(6)),
    (w2(2), from_int(2), w2(2) + from_int(2), w2(4)),
    (w2() + w(1), w(1), w2() + w(2), omega_pow(from_int(3)) + w2()),
    (omega_pow(OMEGA), OMEGA, omega_pow(OMEGA) + OMEGA, omega_pow(OMEGA + ONE)),
    (omega_pow(OMEGA), omega_pow(OMEGA), omega_pow(OMEGA, 2), omega_pow(w(2))),
    (from_int(4), w2(), w2() + from_int(4), w2(4)),
    (w(2) + from_int(1), from_int(2), w(2) + from_int(3), w(4) + from_int(2)),
    (w2() + from_int(1), w(1) + from_int(1), w2() + w(1) + from_int(2),
     omega_pow(from_int(3)) + w2() + w(1) + from_int(1)),
    (OMEGA, ZERO, OMEGA, ZERO),
]


@pytest.mark.parametrize("a,b,s,p", NATURAL_TABLE)
def test_natural_table(a, b, s, p):
    assert ord_add(a, b) == s
    assert ord_add(b, a) == s
    assert ord_mul(a, b) == p
    assert ord_mul(b, a) == p


def test_total_order_on_domain():
    sample = DOMAIN[::7]
    for a in sample:
        assert ord_compare(a, a) == 0
        for b in sample:
            ca, cb = ord_compare(a, b), ord_compare(b, a)
            assert ca == -cb
            if ca == 0:
                assert a == b
    trid = sample[::5]
    for a, b, c in itertools.product(trid, trid, trid):
        if ord_compare(a, b) <= 0 and ord_compare(b, c) <= 0:
            assert ord_compare(a, c) <= 0


def test_ring_axioms_on_domain():
    sample = DOMAIN[::11]
    for a, b in itertools.product(sample, sample):
        assert a + b == b + a
        assert a * b == b * a
        assert a + (-a) == ZERO
    tri = sample[::6]
    for a, b, c in itertools.product(tri, tri, tri):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_strict_monotonicity_nonneg():
    nn = [x for x in DOMAIN if x.is_nonneg()][::5]
    for a, b in itertools.product(nn, nn):
        if ord_compare(a, b) < 0:
            assert ord_compare(a + ONE, b + ONE) < 0
            assert ord_compare(a + OMEGA, b + OMEGA) < 0


def test_is_nonneg_agrees_with_compare():
    for a in DOMAIN:
        assert a.is_nonneg() == (ord_compare(a, ZERO) >= 0)


def test_parse_and_format_round_trip():
    for text, val in [
        ("3", from_int(3)),
        ("w", OMEGA),
        ("w^2*3 + w + 1", w2(3) + OMEGA + ONE),
        ("w^2*3+w+1", w2(3) + OMEGA + ONE),
        ("w*2", w(2)),
        ("w^(w)*2 + 5", omega_pow(OMEGA, 2) + from_int(5)),
        ("0", ZERO),
    ]:
        assert parse_ord(text) == val
    for val in [ZERO, ONE, OMEGA, w2(3) + OMEGA + ONE, omega_pow(OMEGA, 2) + from_int(5),
                OMEGA - from_int(3), from_int(3) - OMEGA]:
        assert parse_ord(format_ord(val)) == val


def test_parse_rejects_garbage():
    for bad in ["", "w^", "3+", "x", "w**2", "w^2*", "(w"]:
        with pytest.raises(ValueError):
            parse_ord(bad)


def test_parse_reads_nesting_to_a_fixed_depth():
    """Parenthesized exponents read to MAX_NESTING deep; deeper ones are a
    ValueError, not a RecursionError, however deep."""
    def nested(n):
        return "w^(" * n + "1" + ")" * n
    v = parse_ord(nested(MAX_NESTING))
    for _ in range(MAX_NESTING):
        (v, c), = v.terms
        assert c == 1
    assert v == ONE
    for n in (MAX_NESTING + 1, 5000):
        with pytest.raises(ValueError, match="nested more than %d deep" % MAX_NESTING):
            parse_ord(nested(n))


@settings(max_examples=300, deadline=None)
@given(cnf_values(), cnf_values(), cnf_values())
def test_ring_laws_hypothesis(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()


@settings(max_examples=300, deadline=None)
@given(cnf_values(), cnf_values())
def test_order_laws_hypothesis(a, b):
    ca, cb = ord_compare(a, b), ord_compare(b, a)
    assert ca == -cb
    if ca == 0:
        assert a == b
    assert a.is_nonneg() == (ord_compare(a, ZERO) >= 0)
    if a.is_nonneg() and b.is_nonneg():
        assert (a + b).is_nonneg()
        assert (a * b).is_nonneg()


@settings(max_examples=200, deadline=None)
@given(cnf_values())
def test_format_parse_round_trip_hypothesis(a):
    assert parse_ord(format_ord(a)) == a


def check_against_reference(a, b):
    for ours, ref in ((ord_add(a, b), ref_add(a, b)), (ord_mul(a, b), ref_mul(a, b))):
        assert ours == ref
        assert_canonical(ours)
    assert ord_compare(a, b) == ref_compare(a, b)


@settings(max_examples=400, deadline=None)
@given(cnf_values(), cnf_values())
def test_merges_agree_with_reference(a, b):
    check_against_reference(a, b)
    assert ord_compare(a, a) == 0
    assert ord_compare(a, Ord(a.terms)) == 0     # equal, not identical


def test_merges_agree_with_reference_on_nested_exponents():
    e = ref_canonical([(ONE, 1), (ZERO, 1)])     # w + 1, as in w^(w+1)
    vals = [ref_canonical(pairs) for pairs in (
        [(e, 2), (ONE, 1), (ZERO, -1)], [(e, -1), (OMEGA, 1)],
        [(ref_canonical([(e, 1)]), 3), (ZERO, 2)],
        [(ref_canonical([(ONE, 1), (ZERO, 2)]), 1), (ONE, -2)],
        [(e, 1), (OMEGA, -1), (ONE, 1), (ZERO, 4)])]
    for a, b in itertools.product(vals, repeat=2):
        check_against_reference(a, b)


def test_single_term_fast_paths_agree_with_reference():
    exps = [ZERO, ONE, from_int(2), OMEGA, OMEGA + ONE]
    singles = [omega_pow(e, c) for e in exps for c in (-3, -1, 1, 2)]
    for a, b in itertools.product(singles, repeat=2):
        check_against_reference(a, b)
    # like exponents that cancel give the canonical zero, finite or not
    for e in exps:
        total = ord_add(omega_pow(e, 2), omega_pow(e, -2))
        assert total.terms == () and total == ZERO
    assert ord_add(w(3), w(4)) == w(7)
    assert ord_add(omega_pow(OMEGA, 2), omega_pow(OMEGA, -5)) == omega_pow(OMEGA, -3)
    assert ord_mul(from_int(-3), from_int(4)) == from_int(-12)
    assert ord_mul(w(2), w(-3)) == w2(-6)
