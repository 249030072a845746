"""Acceptance suite: one test per shipping criterion, at its stated size.

Each test prints one PASS line (visible with ``pytest -s`` or in captured
output).  The exhaustive corpora and their comparison tables are shared
session-wide, because several criteria consume the same pairs.
"""

import itertools
import random
import time

import pytest

from lamorder.cmp import Cmp, E, G, GE, L, LE, U, flip
from lamorder.gen import (GenConfig, TermGen, free_ty_vars, free_var_types,
                          gen_grounding_subst, gen_monomorphizing_subst,
                          gen_signature, gen_var_types)
from lamorder.lambda_order import (KBO, LPO, OrderParams, collect_indet_reps,
                                   compare, compare_kbo_naive, compare_kbo_opt,
                                   compare_lpo_naive, compare_lpo_opt,
                                   reset_weight_calls, weight_calls, weight_poly)
from lamorder.oracle import (assignment_from_grounding, enum_ground_terms,
                             oracle_compare, poly_subst_from_monomorphizing)
from lamorder.ordinal import from_int
from lamorder.parse import parse_signature_file, parse_term_file
from lamorder.poly import subst_poly
from lamorder.term import (Lam, Signature, Sym, TyCon, TyVar, TypeDecl, Var,
                           accessible_positions, app, apply_subst, arrow, arrows,
                           is_ground, normalize, refers_to_outer_binders,
                           replace_at, shift, subterm_at, type_of)

import os

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
ALGOS = {KBO: (compare_kbo_naive, compare_kbo_opt),
         LPO: (compare_lpo_naive, compare_lpo_opt)}
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
        terms = []
        for ty in (K, arrow(K, K)):
            terms.extend(enum_ground_terms(sig, ty, 6, ty_pool=[K]))
        out.append((sig, kbo, lpo, terms))
    return out


@pytest.fixture(scope="session")
def ground_tables(corpora):
    """Optimized-algorithm verdicts for every enumerated pair, per signature
    and kind; several criteria read these."""
    tables = []
    for sig, kbo, lpo, terms in corpora:
        per_kind = {}
        for kind, p in ((KBO, kbo), (LPO, lpo)):
            opt = ALGOS[kind][1]
            per_kind[kind] = {(i, j): opt(terms[i], terms[j], p)
                              for i in range(len(terms))
                              for j in range(len(terms))}
        tables.append(per_kind)
    return tables


@pytest.fixture(scope="session")
def random_env():
    cfg = GenConfig(seed=20240817)
    sig, kbo, lpo = gen_signature(cfg)
    rng = random.Random(20240817)
    vt = gen_var_types(rng, cfg, sig)
    gen = TermGen(rng, sig, var_types=vt)
    bases = [TyCon("iota"), TyCon("kappa")]
    return sig, kbo, lpo, rng, gen, bases


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
    for p, algos in ((kbo, ALGOS[KBO]), (lpo, ALGOS[LPO])):
        for fn in algos:
            assert fn(t, s, p) is G
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
    for fn in ALGOS[KBO]:
        assert fn(lhs, rhs, unit) is L
        assert fn(lhs, rhs, heavy) is G
    for fn in ALGOS[LPO]:
        assert fn(lhs, rhs, lpo) is not G
    ok("c02-example2", "unit L, heavy G, lpo not G")


def test_c03_example3():
    sig, kbo = parse_signature_file(fx("ex3.sig"), KBO)  # w(a) = 3, the threshold
    lit1 = parse_term_file(fx("ex3_lit1.term"), sig)
    lit2 = parse_term_file(fx("ex3_lit2.term"), sig)
    lit3 = parse_term_file(fx("ex3_lit3.term"), sig)
    # lit2 weighs a constant 4 despite the variable inside sk's parameter
    assert weight_poly(lit2, kbo).is_constant()
    assert weight_poly(lit2, kbo).constant == from_int(4)
    for fn in ALGOS[KBO]:
        assert fn(lit1, lit2, kbo) is G
        assert fn(lit1, lit3, kbo) is G
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
    for p, algos in ((kbo, ALGOS[KBO]), (lpo, ALGOS[LPO])):
        for fn in algos:
            assert fn(lhs, rhs, p) is U
            assert fn(rhs, lhs, p) is U
    ok("c04-example4", "recursive map equation U both ways, both orders")


# ---------------------------------------------------------------------------
# 5-6: oracle equivalence and ground trichotomy
# ---------------------------------------------------------------------------

def test_c05_c06_oracle_equivalence_and_trichotomy(corpora, ground_tables):
    start = time.perf_counter()
    pairs = 0
    for (sig, kbo, lpo, terms), tables in zip(corpora, ground_tables):
        for kind, p in ((KBO, kbo), (LPO, lpo)):
            naive = ALGOS[kind][0]
            table = tables[kind]
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
                assert naive(terms[i], terms[j], p) == table[(i, j)]
    # random ground pairs on the generated signature
    cfg = GenConfig(seed=99)
    sig, kbo, lpo = gen_signature(cfg)
    rng = random.Random(99)
    gen = TermGen(rng, sig)
    bases = [TyCon("iota"), TyCon("kappa")]
    for n in range(2500):
        ty = rng.choice(bases + [arrow(bases[0], bases[1])])
        t = gen.gen(ty, 8, ground=True)
        s = gen.gen(ty, 8, ground=True)
        for kind, p in ((KBO, kbo), (LPO, lpo)):
            want = oracle_compare(t, s, p)
            assert want in (G, E, L)
            for fn in ALGOS[kind]:
                assert fn(t, s, p) == want
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, "oracle suite took %.1fs" % elapsed
    ok("c05-oracle-equivalence", "%d pairs, %.1fs" % (pairs, elapsed))
    ok("c06-ground-trichotomy", "no U/GE/LE over the same corpora")


# ---------------------------------------------------------------------------
# 7: naive/optimized equivalence
# ---------------------------------------------------------------------------

def test_c07_naive_optimized_equivalence():
    start = time.perf_counter()
    cfg = GenConfig(seed=4242, polymorphic=True)
    sig, kbo, lpo = gen_signature(cfg)
    rng = random.Random(4242)
    vt = gen_var_types(rng, cfg, sig, polymorphic=True)
    gen = TermGen(rng, sig, var_types=vt, poly_ty_vars=["a0", "a1"])
    bases = [TyCon("iota"), TyCon("kappa")]
    tys = bases + [arrow(bases[0], bases[1]), TyVar("a0")]
    for kind, p in ((KBO, kbo), (LPO, lpo)):
        naive, opt = ALGOS[kind]
        for n in range(10000):
            ty = rng.choice(tys)
            if n % 3 == 0:
                t = gen.gen(ty, 8, ground=False)
                pos = accessible_positions(t)
                path, _ = rng.choice(pos)
                sub = subterm_at(t, path)
                try:
                    s = replace_at(t, path, gen.gen(type_of(sub, sig), 5,
                                                    ground=False))
                except Exception:
                    s = gen.gen(ty, 8, ground=False)
            else:
                t = gen.gen(ty, 8, ground=False)
                s = gen.gen(rng.choice(tys), 8, ground=False)
            assert naive(t, s, p) == opt(t, s, p), "%r vs %r" % (t, s)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, "equivalence suite took %.1fs" % elapsed
    ok("c07-naive-opt", "20000 pairs, %.1fs" % elapsed)


# ---------------------------------------------------------------------------
# 8: stability under grounding and monomorphizing substitutions
# ---------------------------------------------------------------------------

def test_c08_grounding_stability(random_env):
    sig, kbo, lpo, rng, gen, bases = random_env
    witnesses = 0
    tries = 0
    while witnesses < 1000 and tries < 40000:
        tries += 1
        kind, p = (KBO, kbo) if tries % 2 else (LPO, lpo)
        ty = rng.choice(bases + [arrow(bases[0], bases[0])])
        t = gen.gen(ty, 8, ground=False)
        s = gen.gen(ty, 8, ground=False)
        c = compare(t, s, p)
        if c in (L, LE):
            t, s, c = s, t, flip(c)
        if c not in (G, GE):
            continue
        fv = dict(free_var_types(t))
        fv.update(free_var_types(s))
        for _ in range(10):
            theta = gen_grounding_subst(rng, sig, fv)
            cg = compare(apply_subst(t, theta, sig), apply_subst(s, theta, sig), p)
            if c is G:
                assert cg is G, "G collapsed to %s" % cg
            else:
                assert cg in (G, E), "GE collapsed to %s" % cg
        witnesses += 1
    assert witnesses >= 1000
    ok("c08a-grounding-stability", "%d witnesses x 10 groundings" % witnesses)


def test_c08_monomorphizing_stability():
    cfg = GenConfig(seed=777, polymorphic=True)
    sig, kbo, lpo = gen_signature(cfg)
    rng = random.Random(777)
    vt = gen_var_types(rng, cfg, sig, polymorphic=True)
    gen = TermGen(rng, sig, var_types=vt, poly_ty_vars=["a0", "a1"])
    bases = [TyCon("iota"), TyCon("kappa")]
    tys = bases + [TyVar("a0"), TyVar("a1"), arrow(bases[0], bases[1])]
    witnesses = 0
    tries = 0
    while witnesses < 1000 and tries < 60000:
        tries += 1
        kind, p = (KBO, kbo) if tries % 2 else (LPO, lpo)
        ty = rng.choice(tys)
        t = gen.gen(ty, 8, ground=False)
        s = gen.gen(ty, 8, ground=False)
        c = compare(t, s, p)
        if c in (L, LE):
            t, s, c = s, t, flip(c)
        if c not in (G, GE):
            continue
        tyvars = sorted(set(free_ty_vars(t)) | set(free_ty_vars(s)))
        if not tyvars:
            continue
        for _ in range(10):
            theta = gen_monomorphizing_subst(rng, sig, tyvars)
            cg = compare(apply_subst(t, theta, sig), apply_subst(s, theta, sig), p)
            if c is G:
                assert cg is G, "%s: G became %s on %r / %r" % (kind, cg, t, s)
            else:
                assert cg in (G, GE, E), "%s: GE became %s" % (kind, cg)
        witnesses += 1
    assert witnesses >= 1000
    ok("c08b-monomorphizing-stability", "%d witnesses x 10 instantiations" % witnesses)


# ---------------------------------------------------------------------------
# 9: transitivity
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
    # nonground chains exercise the nonstrict verdicts
    cfg = GenConfig(seed=5150)
    sig, kbo, lpo = gen_signature(cfg)
    rng2 = random.Random(5150)
    vt = gen_var_types(rng2, cfg, sig)
    gen = TermGen(rng2, sig, var_types=vt)
    bases = [TyCon("iota"), TyCon("kappa")]
    for _ in range(4000):
        kind, p = (KBO, kbo) if rng2.random() < 0.5 else (LPO, lpo)
        ty = rng2.choice(bases + [arrow(bases[0], bases[0])])
        u = gen.gen(ty, 7, ground=False)
        t = gen.gen(ty, 7, ground=False)
        s = gen.gen(ty, 7, ground=False)
        cut, cts = compare(u, t, p), compare(t, s, p)
        if cut in (G, GE, E) and cts in (G, GE, E):
            cus = compare(u, s, p)
            assert cus in (G, GE, E), "%s chain broke: %s,%s -> %s" % (kind, cut, cts, cus)
            if cut is G or cts is G:
                assert cus is G
            checked += 1
    assert checked >= 100000, "only %d comparable chains" % checked
    ok("c09-transitivity", "%d comparable chains" % checked)


# ---------------------------------------------------------------------------
# 10: rewrite-context properties
# ---------------------------------------------------------------------------

def test_c10_context_properties(random_env):
    sig, kbo, lpo, rng, gen, bases = random_env
    compat = 0
    subterm = 0
    while compat < 1000:
        kind, p = (KBO, kbo) if compat % 2 else (LPO, lpo)
        ty = rng.choice(bases)
        t = gen.gen(ty, 6, ground=True)
        s = gen.gen(ty, 6, ground=True)
        if compare(t, s, p) is not G:
            continue
        host = gen.gen(rng.choice(bases + [arrow(bases[0], bases[0])]), 8, ground=True)
        spots = [(path, d) for path, d in accessible_positions(host)
                 if type_of(subterm_at(host, path), sig) == ty]
        if not spots:
            continue
        path, depth = rng.choice(spots)
        assert compare(replace_at(host, path, t), replace_at(host, path, s), p) is G
        compat += 1
    while subterm < 1000:
        kind, p = (KBO, kbo) if subterm % 2 else (LPO, lpo)
        u = gen.gen(rng.choice(bases + [arrow(bases[0], bases[0])]), 8, ground=True)
        path, depth = rng.choice(accessible_positions(u))
        sub = subterm_at(u, path)
        if refers_to_outer_binders(sub, depth):
            continue
        s = shift(sub, -depth) if depth else sub
        assert compare(u, s, p) in (G, E)
        subterm += 1
    ok("c10-context-properties", "1000 compatibility + 1000 subterm witnesses")


# ---------------------------------------------------------------------------
# 11: the difference-witness requirement
# ---------------------------------------------------------------------------

def test_c11_diff_requirement(random_env):
    sig, kbo, lpo, rng, gen, bases = random_env
    for kind, p in ((KBO, kbo), (LPO, lpo)):
        for n in range(500):
            fun_ty = arrow(rng.choice(bases), rng.choice(bases))
            u = gen.gen(fun_ty, 7, ground=True)
            s = gen.gen(fun_ty, 5, ground=True)
            t = gen.gen(fun_ty, 5, ground=True)
            skolem = Sym("diff", tuple(fun_ty.args), (s, t))
            applied = normalize(app(u, skolem), sig)
            assert compare(u, applied, p) is G, \
                "%s: %r does not dominate its difference application" % (kind, u)
    ok("c11-diff-requirement", "500 instances per order kind, all G")


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
# 13: weight transport lemmas
# ---------------------------------------------------------------------------

def test_c13_weight_lemmas():
    cfg = GenConfig(seed=1212)
    sig, kbo, _ = gen_signature(cfg)
    rng = random.Random(1212)
    vt = gen_var_types(rng, cfg, sig)
    gen = TermGen(rng, sig, var_types=vt)
    bases = [TyCon("iota"), TyCon("kappa")]
    for _ in range(1000):
        t = gen.gen(rng.choice(bases + [arrow(bases[0], bases[1])]), 9, ground=False)
        reps = collect_indet_reps(t, kbo)
        w = weight_poly(t, kbo)
        theta = gen_grounding_subst(rng, sig, free_var_types(t))
        lhs = subst_poly(w, assignment_from_grounding(theta, reps, kbo))
        rhs = weight_poly(apply_subst(t, theta, sig), kbo)
        assert lhs == rhs, "grounding transport failed on %r" % (t,)

    cfgp = GenConfig(seed=2323, polymorphic=True)
    sigp, kbop, _ = gen_signature(cfgp)
    rngp = random.Random(2323)
    vtp = gen_var_types(rngp, cfgp, sigp, polymorphic=True)
    genp = TermGen(rngp, sigp, var_types=vtp, poly_ty_vars=["a0", "a1"])
    tys = [TyCon("iota"), TyCon("kappa"), TyVar("a0"),
           arrow(TyCon("iota"), TyCon("kappa"))]
    done = 0
    while done < 1000:
        t = genp.gen(rngp.choice(tys), 8, ground=False)
        tyvars = free_ty_vars(t)
        if not tyvars:
            continue
        theta = gen_monomorphizing_subst(rngp, sigp, tyvars, flat=True)
        reps = collect_indet_reps(t, kbop)
        w = weight_poly(t, kbop)
        mapping = poly_subst_from_monomorphizing(theta, reps, kbop)
        lhs = subst_poly(w, mapping)
        rhs = weight_poly(apply_subst(t, theta, sigp), kbop)
        assert lhs == rhs, "monomorphizing transport failed on %r" % (t,)
        done += 1
    ok("c13-weight-lemmas", "1000 grounding + 1000 monomorphizing instances")


# ---------------------------------------------------------------------------
# 14: the performance split
# ---------------------------------------------------------------------------

def test_c14_performance():
    from lamorder.checks import adversarial_lpo_pair, bench_signature, deep_chain_pair
    sig, kbo, lpo = bench_signature()

    t14, s14 = adversarial_lpo_pair(14)
    best = min(_timed(lambda: compare_lpo_opt(t14, s14, lpo)) for _ in range(3))
    assert best < 1.0, "optimized depth 14 took %.2fs" % best

    # certify the naive blowup: measured growth ratio per level, projected
    # to depth 20, must exceed the one-minute mark
    times = {}
    for d in (4, 5, 6):
        td, sd = adversarial_lpo_pair(d)
        times[d] = _timed(lambda: compare_lpo_naive(td, sd, lpo))
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
    compare_kbo_naive(t, s, kbo)
    naive_calls = weight_calls()
    reset_weight_calls()
    compare_kbo_opt(t, s, kbo)
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
        assert compare_lpo_opt(t14, s14, lpo) is U
        took = min(_timed(lambda: compare_lpo_opt(t14, s14, lpo)) for _ in range(3))
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
                assert compare_lpo_opt(*make(d), p) is verdict
                assert compare_lpo_opt(*reversed(make(d)), p) is flip(verdict)
    ok("c14-nonground-gate", "opt lpo nonground(14) %.4fs" % best)
