"""Acceptance suite: one test per shipping criterion, at its stated size.

Each test prints one PASS line (visible with ``pytest -s`` or in captured
output).  The exhaustive corpora and their comparison tables are shared
session-wide, because several criteria consume the same pairs.  On
generated signatures, criteria 5-13 run the property families of
``lamorder.checks`` at fixed seeds and trial counts, and assert a floor on
their witnesses, the trials that reach a family's check.
"""

import os
import random
import time

import pytest

from lamorder.checks import FAMILIES
from lamorder.cmp import E, G, L, U, flip
from lamorder.lambda_order import (ALGOS, KBO, LPO, OrderParams, compare,
                                   reset_weight_calls, weight_calls, weight_poly)
from lamorder.gen import TermGen
from lamorder.oracle import oracle_compare
from lamorder.ordinal import from_int
from lamorder.parse import parse_signature_file, parse_term_file
from lamorder.term import Signature, Sym, TyCon, TyVar, TypeDecl, Var, arrow, arrows

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
K = TyCon("kappa")


def fx(name):
    return os.path.join(FIXTURES, name)


def ok(criterion, detail=""):
    print("PASS %s %s" % (criterion, detail))


# ---------------------------------------------------------------------------
# Shared corpora
# ---------------------------------------------------------------------------

def sig_plain():
    sig = Signature()
    sig.add_type("kappa", 0)
    sig.add_symbol("a", TypeDecl((), (), K))
    sig.add_symbol("f", TypeDecl((), (), arrow(K, K)))
    sig.add_symbol("g", TypeDecl((), (), arrows([K, K], K)))
    prec = ["a", "f", "g"]
    kbo = OrderParams(sig, KBO, prec=prec, weights={"g": from_int(2)},
                      coeffs={("f", 1): from_int(2)})
    lpo = OrderParams(sig, LPO, prec=prec, watershed="f")
    return sig, kbo, lpo


def sig_special():
    """Second fixture signature: truth constants, a parameterized Skolem and
    a higher-order head."""
    sig = Signature()
    sig.add_type("kappa", 0)
    fun = arrow(K, K)
    sig.add_symbol("top", TypeDecl((), (), K))
    sig.add_symbol("bot", TypeDecl((), (), K))
    dv = arrow(TyVar("A"), TyVar("B"))
    sig.add_symbol("diff", TypeDecl(("A", "B"), (dv, dv), TyVar("A")))
    sig.add_symbol("h", TypeDecl((), (), fun))
    sig.add_symbol("p", TypeDecl((), (), arrow(fun, K)))
    prec = ["top", "bot", "diff", "h", "p"]
    kbo = OrderParams(sig, KBO, prec=prec)
    lpo = OrderParams(sig, LPO, prec=prec, watershed="diff")
    return sig, kbo, lpo


@pytest.fixture(scope="session")
def corpora():
    out = []
    for maker in (sig_plain, sig_special):
        sig, kbo, lpo = maker()
        g = TermGen(random.Random(0), sig)
        terms = []
        for ty in (K, arrow(K, K)):
            terms.extend(g.every(ty, 6, ground=True, ty_pool=[K]))
        out.append((sig, kbo, lpo, terms))
    return out


@pytest.fixture(scope="session")
def ground_tables(corpora):
    """Optimized-algorithm verdicts for every enumerated pair, per signature
    and kind; several criteria read these."""
    tables = []
    for sig, kbo, lpo, terms in corpora:
        per_kind = {}
        for p in (kbo, lpo):
            per_kind[p.kind] = {(i, j): compare(terms[i], terms[j], p)
                              for i in range(len(terms))
                              for j in range(len(terms))}
        tables.append(per_kind)
    return tables


# ---------------------------------------------------------------------------
# 1-4: the worked examples, from the shipped fixture files
# ---------------------------------------------------------------------------

def test_c01_example1():
    sigk, kbo = parse_signature_file(fx("ex1.sig"), KBO)
    sigl, lpo = parse_signature_file(fx("ex1.sig"), LPO)
    t = parse_term_file(fx("ex1_left.term"), sigk)
    s = parse_term_file(fx("ex1_right.term"), sigk)
    # the unit-parameter weight difference is the constant one
    diff = weight_poly(t, kbo) - weight_poly(s, kbo)
    assert diff.is_constant() and diff.constant == from_int(1)
    for p in (kbo, lpo):
        for algo in ALGOS:
            assert compare(t, s, p, algo) is G
    best = min(_timed(lambda: compare(t, s, kbo)) for _ in range(5))
    assert best < 1e-3, "comparison took %.4fs" % best
    ok("c01-example1", "G in %.0f us" % (best * 1e6))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_c02_example2():
    sig, unit = parse_signature_file(fx("ex2.sig"), KBO)
    _, heavy = parse_signature_file(fx("ex2_heavy.sig"), KBO)
    _, lpo = parse_signature_file(fx("ex2.sig"), LPO)
    lhs = parse_term_file(fx("ex2_left.term"), sig)
    rhs = parse_term_file(fx("ex2_right.term"), sig)
    for algo in ALGOS:
        assert compare(lhs, rhs, unit, algo) is L
        assert compare(lhs, rhs, heavy, algo) is G
        assert compare(lhs, rhs, lpo, algo) is not G
    ok("c02-example2", "unit L, heavy G, lpo not G")


def test_c03_example3():
    sig, kbo = parse_signature_file(fx("ex3.sig"), KBO)  # w(a) = 3, the threshold
    lit1 = parse_term_file(fx("ex3_lit1.term"), sig)
    lit2 = parse_term_file(fx("ex3_lit2.term"), sig)
    lit3 = parse_term_file(fx("ex3_lit3.term"), sig)
    # lit2 weighs a constant 4 despite the variable inside sk's parameter
    assert weight_poly(lit2, kbo).is_constant()
    assert weight_poly(lit2, kbo).constant == from_int(4)
    for algo in ALGOS:
        assert compare(lit1, lit2, kbo, algo) is G
        assert compare(lit1, lit3, kbo, algo) is G
    # below the threshold the head weight no longer decides
    lighter = OrderParams(sig, KBO, prec=["a", "f", "sk"],
                          weights={"a": from_int(2)})
    assert compare(lit1, lit2, lighter) is not G
    ok("c03-example3", "threshold w(a)=3")


def test_c04_example4():
    sig, kbo = parse_signature_file(fx("ex4.sig"), KBO)
    _, lpo = parse_signature_file(fx("ex4.sig"), LPO)
    lhs = parse_term_file(fx("ex4_map_cons.term"), sig)
    rhs = parse_term_file(fx("ex4_cons_map.term"), sig)
    for p in (kbo, lpo):
        for algo in ALGOS:
            assert compare(lhs, rhs, p, algo) is U
            assert compare(rhs, lhs, p, algo) is U
    ok("c04-example4", "recursive map equation U both ways, both orders")


# ---------------------------------------------------------------------------
# 5-6: oracle equivalence and ground trichotomy on the exhaustive corpora
# ---------------------------------------------------------------------------

def test_c05_c06_oracle_equivalence_and_trichotomy(corpora, ground_tables):
    start = time.perf_counter()
    pairs = 0
    for (sig, kbo, lpo, terms), tables in zip(corpora, ground_tables):
        for p in (kbo, lpo):
            table = tables[p.kind]
            for i, t in enumerate(terms):
                for j, s in enumerate(terms):
                    want = oracle_compare(t, s, p)
                    got = table[(i, j)]
                    assert got == want, "oracle %s vs %s on %r / %r" % (want, got, t, s)
                    assert want in (G, E, L)
                    assert (want is E) == (i == j)
                    pairs += 1
            # the naive algorithm agrees on a sample diagonal band
            for i in range(len(terms)):
                j = (i * 7 + 3) % len(terms)
                assert compare(terms[i], terms[j], p, "naive") == table[(i, j)]
    elapsed = time.perf_counter() - start
    assert elapsed < 120, "oracle suite took %.1fs" % elapsed
    ok("c05-oracle-equivalence", "%d pairs, %.1fs" % (pairs, elapsed))
    ok("c06-ground-trichotomy", "no U/GE/LE over the same corpora")


# ---------------------------------------------------------------------------
# 9: transitivity on the exhaustive corpora
# ---------------------------------------------------------------------------

def test_c09_transitivity(corpora, ground_tables):
    rng = random.Random(31337)
    checked = 0
    # random triples over the enumerated ground corpora, arranged into
    # descending chains through the (total) comparison tables
    for (sig, kbo, lpo, terms), tables in zip(corpora, ground_tables):
        n = len(terms)
        for kind in (KBO, LPO):
            table = tables[kind]
            for _ in range(30000):
                idx = [rng.randrange(n), rng.randrange(n), rng.randrange(n)]
                if table[(idx[0], idx[1])] is L:
                    idx[0], idx[1] = idx[1], idx[0]
                if table[(idx[1], idx[2])] is L:
                    idx[1], idx[2] = idx[2], idx[1]
                if table[(idx[0], idx[1])] is L:
                    idx[0], idx[1] = idx[1], idx[0]
                i, j, k = idx
                c1, c2 = table[(i, j)], table[(j, k)]
                assert c1 in (G, E) and c2 in (G, E)
                c3 = table[(i, k)]
                if c1 is G or c2 is G:
                    assert c3 is G
                else:
                    assert c3 is E
                checked += 1
    assert checked >= 100000, "only %d comparable chains" % checked
    ok("c09-transitivity", "%d comparable chains" % checked)


# ---------------------------------------------------------------------------
# 5-13 on generated signatures: the property families of lamorder.checks
# ---------------------------------------------------------------------------

# criterion, family, seed, trials, witness floor.  A witness is a trial that
# reaches the family's check; the trial counts were chosen from each
# family's witness rate before the first run, with room to spare.
# naive-opt-equal compares at least one pair per trial.  Odd seeds draw
# transfinite weights: c08b's 7,000 trials reached 966 witnesses once its
# signature did, so it runs 8,000.
FAMILY_CRITERIA = [
    ("c05-oracle-equivalence", "oracle-equivalence", 99, 5000, 5000),
    ("c06-ground-trichotomy", "ground-total", 99, 5000, 5000),
    ("c07-naive-opt", "naive-opt-equal", 4242, 20000, 20000),
    ("c08a-grounding-stability", "grounding-stable", 20240817, 2500, 1000),
    ("c08b-monomorphizing-stability", "monomorphizing-stable", 777, 8000, 1000),
    ("c09-transitivity", "transitive", 5150, 5000, 300),
    ("c10-context-compatibility", "context-compatible", 20240817, 6000, 1000),
    ("c10-subterm-property", "subterm-property", 20240817, 1300, 1000),
    ("c11-diff-requirement", "diff-dominated", 20240817, 1000, 1000),
    ("c13-weight-grounding", "weight-grounding-lemma", 1212, 1000, 1000),
    ("c13-weight-monomorphizing", "weight-monomorphizing-lemma", 2323, 5500, 1000),
]


@pytest.mark.parametrize("criterion, name, seed, trials, floor", FAMILY_CRITERIA,
                         ids=[row[0] for row in FAMILY_CRITERIA])
def test_family_criterion(criterion, name, seed, trials, floor):
    res = FAMILIES[name](seed, trials)
    assert res.ok, res.counterexample
    assert res.witnesses >= floor, "%d witnesses, want %d" % (res.witnesses, floor)
    ok(criterion, res.line())


# ---------------------------------------------------------------------------
# 12: minimality of the truth constants
# ---------------------------------------------------------------------------

def test_c12_top_bot_minimality(corpora):
    sig, kbo, lpo, terms = corpora[1]  # the signature that declares them
    top, bot = Sym("top"), Sym("bot")
    for p in (kbo, lpo):
        assert compare(bot, top, p) is G
        for t in terms:
            if t in (top, bot):
                continue
            assert compare(t, top, p) is G, "%r fails against top" % (t,)
            assert compare(t, bot, p) is G, "%r fails against bot" % (t,)
    ok("c12-top-bot-minimality", "%d enumerated terms beat both constants" % len(terms))


# ---------------------------------------------------------------------------
# 14: the performance split
# ---------------------------------------------------------------------------

def test_c14_performance():
    from lamorder.checks import adversarial_lpo_pair, bench_signature, deep_chain_pair
    sig, kbo, lpo = bench_signature()

    t14, s14 = adversarial_lpo_pair(14)
    best = min(_timed(lambda: compare(t14, s14, lpo)) for _ in range(3))
    assert best < 1.0, "optimized depth 14 took %.2fs" % best

    # certify the naive blowup: measured growth ratio per level, projected
    # to depth 20, must exceed the one-minute mark
    times = {}
    for d in (4, 5, 6):
        td, sd = adversarial_lpo_pair(d)
        times[d] = _timed(lambda: compare(td, sd, lpo, "naive"))
    r1 = times[5] / times[4]
    r2 = times[6] / times[5]
    ratio = min(r1, r2)
    assert ratio > 2.0, "naive growth ratio only %.2f per level" % ratio
    projected = times[6] * ratio ** 14  # depth 6 -> 20
    assert projected > 60.0, "projected naive time at depth 20 is %.1fs" % projected

    # the optimized weight pass builds linearly many polynomials, the naive
    # one quadratically many
    n = 120
    t, s = deep_chain_pair(n)
    reset_weight_calls()
    compare(t, s, kbo, "naive")
    naive_calls = weight_calls()
    reset_weight_calls()
    compare(t, s, kbo)
    opt_calls = weight_calls()
    size_bound = 2 * (n + 1)  # both inputs together
    assert opt_calls <= 4 * size_bound, "optimized made %d weight builds" % opt_calls
    assert naive_calls > (n * n) / 2, "naive made only %d weight builds" % naive_calls
    ok("c14-performance",
       "opt lpo(14) %.3fs; naive ratio %.1f/level, projected(20) %.0fs; "
       "weight builds %d vs %d" % (best, ratio, projected, naive_calls, opt_calls))


def _nonground_nest(depth):
    t, s = Var("x", K), Var("y", K)
    for _ in range(depth):
        t = Sym("g", (), (), (t, Sym("b")))
        s = Sym("g", (), (), (s, Sym("a")))
    return t, s


def _shared_var_nest(depth):
    """The nest around g(x, y) against g(y, x): both sides hold both
    variables, so the variable condition cannot settle the pair at the
    root, and the memo has to bound the descent."""
    x, y = Var("x", K), Var("y", K)
    t, s = Sym("g", (), (), (x, y)), Sym("g", (), (), (y, x))
    for _ in range(depth):
        t = Sym("g", (), (), (t, Sym("b")))
        s = Sym("g", (), (), (s, Sym("a")))
    return t, s


def test_c14_nonground_lpo_gate():
    """The optimized LPO is polynomial off ground terms too: one comparison
    fills at most 2*|t|*|s| memo entries, and no memo state survives it."""
    from lamorder.checks import adversarial_lpo_pair, bench_signature
    from lamorder.lambda_order import _LpoOpt
    from lamorder.term import size
    _, _, lpo = bench_signature()

    best = 0.0
    for make in (_nonground_nest, _shared_var_nest):
        t14, s14 = make(14)
        assert compare(t14, s14, lpo) is U
        took = min(_timed(lambda: compare(t14, s14, lpo)) for _ in range(3))
        assert took < 1.0, "optimized %s depth 14 took %.2fs" % (make.__name__, took)
        best = max(best, took)

        for d in range(4, 21):
            t, s = make(d)
            opt = _LpoOpt(lpo)
            assert opt.compare(t, s) is U
            bound = 2 * size(t) * size(s)
            assert len(opt.memo) <= bound, \
                "%s depth %d: %d memo entries" % (make.__name__, d, len(opt.memo))
            # the condition settles the disjoint nest at the root, not this one
            assert (len(opt.memo) > 0) is (make is _shared_var_nest)

    # the same params across consecutive calls on freshly built terms, whose
    # node identities the interpreter may reuse, against fresh params
    for d in range(1, 9):
        for make, verdict in ((_nonground_nest, U), (_shared_var_nest, U),
                              (adversarial_lpo_pair, L)):
            fresh = bench_signature()[2]
            for p in (lpo, lpo, fresh):
                assert compare(*make(d), p) is verdict
                assert compare(*reversed(make(d)), p) is flip(verdict)
    ok("c14-nonground-gate", "opt lpo nonground(14) %.4fs" % best)
