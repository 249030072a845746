"""Encoding oracle: faithfulness, derived precedences, assignments, enumeration."""

import itertools
import random
import sys

import pytest

from lamorder.checks import bench_signature, deep_chain_pair
from lamorder.cmp import Cmp
from lamorder.gen import GenConfig, TermGen, free_var_types, gen_grounding_subst, gen_signature
from lamorder.lambda_order import (KBO, LPO, OrderParams, collect_indet_reps,
                                   compare_kbo_naive, compare_kbo_opt,
                                   compare_lpo_naive, compare_lpo_opt, weight_poly)
from lamorder.oracle import (DbKey, FKey, LamKey, OracleError,
                             assignment_from_grounding, encode_ground,
                             enum_ground_terms, make_fo_params, oracle_compare,
                             oracle_weight, poly_subst_from_monomorphizing)
from lamorder.ordinal import from_int
from lamorder.poly import HInd, KInd, WInd, const_poly, indet_poly, subst_poly
from lamorder.term import (Db, Lam, Signature, Substitution, Sym, TyCon, TyVar,
                           TypeDecl, Var, app, apply_subst, arrow, arrows,
                           normalize, size)

K = TyCon("k")


@pytest.fixture
def sig():
    s = Signature()
    s.add_type("k", 0)
    s.add_symbol("a", TypeDecl((), (), K))
    s.add_symbol("b", TypeDecl((), (), K))
    s.add_symbol("f", TypeDecl((), (), arrow(K, K)))
    s.add_symbol("g", TypeDecl((), (), arrows([K, K], K)))
    return s


@pytest.fixture
def params(sig):
    prec = ["a", "b", "f", "g"]
    kbo = OrderParams(sig, KBO, prec=prec, coeffs={("g", 1): from_int(2)})
    lpo = OrderParams(sig, LPO, prec=prec, watershed="b")
    return kbo, lpo


def test_encode_examples(sig):
    assert encode_ground(Lam(K, Db(0, K))) == TyCon(LamKey(K), (TyCon(DbKey(0, 0)),))
    fa = normalize(app(Sym("f"), Sym("a")), sig)
    assert encode_ground(fa) == TyCon(FKey("f", (), ()), (TyCon(FKey("a", (), ())),))
    leak = Db(1, arrows([K, K], K), (Sym("a"), Sym("b")))
    assert encode_ground(leak) == TyCon(DbKey(1, 2), (TyCon(FKey("a", (), ())),
                                                      TyCon(FKey("b", (), ()))))
    assert repr(encode_ground(deep_chain_pair(3)[0])) == "(F:f (F:f (F:f F:a)))"
    with pytest.raises(OracleError):
        encode_ground(Var("x", K))


def test_oracle_weight_of_a_deep_chain():
    """The encoding and its weight are post-order maps, so a depth-10,000
    chain fits the default recursion limit."""
    _, kbo, _ = bench_signature()
    t, _ = deep_chain_pair(10000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert oracle_weight(t, kbo) == from_int(10001)
    finally:
        sys.setrecursionlimit(limit)


def test_kbo_precedence_tiers(params):
    kbo, _ = params
    prec = make_fo_params(kbo).prec
    assert prec(DbKey(0, 1), FKey("f", (), ())) > 0
    assert prec(DbKey(0, 5), DbKey(1, 0)) < 0
    assert prec(DbKey(0, 0), DbKey(0, 1)) < 0
    assert prec(LamKey(K), DbKey(9, 9)) > 0
    assert prec(FKey("a", (), ()), FKey("b", (), ())) < 0


def test_lpo_precedence_tiers(params):
    _, lpo = params
    prec = make_fo_params(lpo).prec
    # below-watershed symbols, lambdas, indices, above-watershed symbols
    assert prec(FKey("a", (), ()), DbKey(0, 0)) < 0
    assert prec(FKey("f", (), ()), LamKey(K)) > 0   # f is above ws=b
    assert prec(LamKey(K), DbKey(0, 0)) < 0
    assert prec(FKey("f", (), ()), DbKey(3, 3)) > 0
    assert prec(FKey("b", (), ()), LamKey(K)) < 0   # the watershed itself sits below


def test_parameter_tiebreak_recurses(sig):
    s = sig
    s.add_symbol("sk", TypeDecl((), (K,), K))
    kbo = OrderParams(s, KBO, prec=["a", "b", "f", "g", "sk"])
    prec = make_fo_params(kbo).prec
    ka = FKey("sk", (), (Sym("a"),))
    kb = FKey("sk", (), (Sym("b"),))
    assert prec(ka, kb) < 0
    assert prec(kb, ka) > 0
    assert prec(ka, ka) == 0


def test_oracle_requires_ground(sig, params):
    kbo, _ = params
    with pytest.raises(OracleError):
        oracle_compare(Var("x", K), Sym("a"), kbo)


def test_oracle_basics(sig, params):
    kbo, _ = params
    a = Sym("a")
    fa = normalize(app(Sym("f"), Sym("a")), sig)
    assert oracle_compare(a, a, kbo) is Cmp.E
    assert oracle_compare(fa, a, kbo) is Cmp.G


def enum_corpus(sig, max_size):
    terms = []
    for ty in (K, arrow(K, K)):
        terms.extend(enum_ground_terms(sig, ty, max_size))
    return terms


def test_enum_examples():
    s = Signature()
    s.add_type("k", 0)
    s.add_symbol("a", TypeDecl((), (), K))
    assert enum_ground_terms(s, K, 1) == [Sym("a")]
    s.add_symbol("f", TypeDecl((), (), arrow(K, K)))
    assert set(enum_ground_terms(s, K, 3)) == {
        Sym("a"),
        Sym("f", (), (), (Sym("a"),)),
        Sym("f", (), (), (Sym("f", (), (), (Sym("a"),)),)),
    }
    got = enum_ground_terms(s, arrow(K, K), 3)
    assert set(got) == {
        Lam(K, Sym("a")), Lam(K, Db(0, K)),
        Lam(K, Sym("f", (), (), (Db(0, K),))),
        Lam(K, Sym("f", (), (), (Sym("a"),)))}
    assert len(got) == len(set(got))


def test_enum_size_bound_and_distinct(sig):
    terms = enum_ground_terms(sig, K, 5)
    assert len(terms) == len(set(terms))
    assert all(size(t) <= 5 for t in terms)
    smaller = set(enum_ground_terms(sig, K, 4))
    assert smaller <= set(terms)


def test_encoding_injective_on_corpus(sig):
    terms = enum_corpus(sig, 5)
    seen = {}
    for t in terms:
        enc = encode_ground(t)
        assert enc not in seen, "%r and %r collide" % (t, seen.get(enc))
        seen[enc] = t


def test_weight_faithful_on_corpus(sig, params):
    kbo, _ = params
    for t in enum_corpus(sig, 5):
        w = weight_poly(t, kbo)
        assert w.is_constant()
        assert w.constant == oracle_weight(t, kbo)


def test_exhaustive_equivalence_small(sig, params):
    kbo, lpo = params
    terms = enum_corpus(sig, 4)
    for kind, p, naive, opt in ((KBO, kbo, compare_kbo_naive, compare_kbo_opt),
                                (LPO, lpo, compare_lpo_naive, compare_lpo_opt)):
        for t, s in itertools.product(terms, terms):
            want = oracle_compare(t, s, p)
            assert want in (Cmp.G, Cmp.E, Cmp.L)
            assert naive(t, s, p) == want
            assert opt(t, s, p) == want


def test_index_heads_at_function_type_instances():
    """A binder of any type, instantiated at k -> k and k -> k -> k, puts
    indices of one number and different argument counts under the two
    sides' lambdas, which the encoding names as two heads.  On every
    ordered pair of the 61 terms, both algorithms of each order agree with
    the oracle."""
    sig = Signature()
    sig.add_type("k", 0)
    for name in ("a", "b", "ws"):
        sig.add_symbol(name, TypeDecl((), (), K))
    sig.add_symbol("g", TypeDecl(("X",), (), arrow(arrow(TyVar("X"), K), K)))
    terms = enum_ground_terms(sig, K, 5, ty_pool=[K, arrow(K, K), arrows([K, K], K)])
    assert len(terms) == 61
    orders = [(OrderParams(sig, LPO, prec=prec, watershed="ws"),
               (compare_lpo_naive, compare_lpo_opt))
              for prec in (["g", "a", "ws", "b"], ["a", "b", "ws", "g"])]
    orders.append((OrderParams(sig, KBO), (compare_kbo_naive, compare_kbo_opt)))
    for p, algos in orders:
        for t, s in itertools.product(terms, repeat=2):
            want = oracle_compare(t, s, p)
            for algo in algos:
                assert algo(t, s, p) == want, (algo.__name__, t, s)


def test_assignment_examples(sig):
    kbo = OrderParams(sig, KBO, prec=["a", "b", "f", "g"],
                      coeffs={("f", 1): from_int(2)})
    y = Var("y", arrow(K, K))
    t = normalize(app(y, Sym("a")), sig)
    reps = collect_indet_reps(t, kbo)
    key = Var("y", arrow(K, K))

    def values(image):
        theta = Substitution(term_map={("y", arrow(K, K)): image})
        return assignment_from_grounding(theta, reps, kbo)

    drop = values(Lam(K, Sym("b")))
    assert drop[KInd(key, 1)] == const_poly(0)
    ident = values(Lam(K, Db(0, K)))
    assert ident[KInd(key, 1)] == const_poly(1)
    assert ident[WInd(key)] == const_poly(0)  # w_db - 1 with unit weights
    wrap = values(normalize(Lam(K, app(Sym("f"), Db(0, K))), sig))
    assert wrap[KInd(key, 1)] == const_poly(2)


def test_assignment_rejects_functional_variables(sig):
    kbo = OrderParams(sig, KBO, prec=["a", "b", "f", "g"])
    y = Var("y", arrow(K, K))
    t = normalize(app(y, Sym("a")), sig)
    reps = collect_indet_reps(t, kbo)
    theta = Substitution(term_map={("y", arrow(K, K)): Var("z", arrow(K, K))})
    with pytest.raises(OracleError):
        assignment_from_grounding(theta, reps, kbo)


def test_weight_lemma_randomized(sig):
    kbo = OrderParams(sig, KBO, prec=["a", "b", "f", "g"],
                      coeffs={("g", 1): from_int(3)})
    rng = random.Random(31)
    g = TermGen(rng, sig, var_types={"x": K, "h": arrow(K, K),
                                     "h2": arrows([K, K], K)})
    for _ in range(250):
        ty = rng.choice([K, arrow(K, K)])
        t = g.gen(ty, 9, ground=False)
        reps = collect_indet_reps(t, kbo)
        w = weight_poly(t, kbo)
        theta = gen_grounding_subst(rng, sig, free_var_types(t))
        lhs = subst_poly(w, assignment_from_grounding(theta, reps, kbo))
        rhs = weight_poly(apply_subst(t, theta, sig), kbo)
        assert lhs == rhs, "on %r" % (t,)


def test_monomorphizing_substitution_examples():
    s = Signature()
    s.add_type("k", 0)
    s.add_symbol("a", TypeDecl((), (), K))
    s.add_symbol("c", TypeDecl(("P",), (), TyVar("P")))
    kbo = OrderParams(s, KBO, prec=["a", "c"])
    alpha = TyVar("alpha")
    x = Var("x", alpha)
    c = Sym("c", (alpha,))
    # a constant of type alpha takes the eta slack of a lambda and an index;
    # a variable of that type takes none, since an instance of it may drop
    # the index (x := λ.u with u ignoring its argument)
    assert weight_poly(c, kbo) == const_poly(1) + const_poly(2) * indet_poly(HInd("alpha"))
    assert weight_poly(x, kbo) == const_poly(1) + indet_poly(WInd(x))
    reps = {**collect_indet_reps(x, kbo), **collect_indet_reps(c, kbo)}

    # eta counts: (k->k)->k causes 2, k causes 0
    theta2 = Substitution(ty_map={"alpha": arrow(arrow(K, K), K)})
    mapping = poly_subst_from_monomorphizing(theta2, reps, kbo)
    assert mapping[HInd("alpha")] == const_poly(2)

    theta0 = Substitution(ty_map={"alpha": K})
    mapping0 = poly_subst_from_monomorphizing(theta0, reps, kbo)
    assert mapping0[HInd("alpha")] == const_poly(0)
    assert mapping0[WInd(x)] == indet_poly(WInd(Var("x", K)))


def test_monomorphizing_weight_lemma_flat_types():
    cfg = GenConfig(seed=77, polymorphic=True)
    sig2, kbo, _ = gen_signature(cfg)
    rng = random.Random(77)
    from lamorder.gen import gen_monomorphizing_subst, gen_var_types, free_ty_vars
    vt = gen_var_types(rng, cfg, sig2, polymorphic=True)
    g = TermGen(rng, sig2, var_types=vt)
    bases = [TyCon("iota"), TyCon("kappa")]
    checked = 0
    for _ in range(300):
        ty = rng.choice(bases + [TyVar("a0"), arrow(bases[0], bases[1])])
        t = g.gen(ty, 8, ground=False)
        tyvars = free_ty_vars(t)
        if not tyvars:
            continue
        theta = gen_monomorphizing_subst(rng, sig2, tyvars, flat=True)
        reps = collect_indet_reps(t, kbo)
        w = weight_poly(t, kbo)
        mapping = poly_subst_from_monomorphizing(theta, reps, kbo)
        lhs = subst_poly(w, mapping)
        rhs = weight_poly(apply_subst(t, theta, sig2), kbo)
        assert lhs == rhs, "on %r under %r" % (t, theta.ty_map)
        checked += 1
    assert checked > 50


def test_transfinite_weights_differential():
    cfg = GenConfig(seed=4040, ordinal_weights=True)
    sig2, kbo, lpo = gen_signature(cfg)
    assert any(not w.is_natural() for w in kbo.weights.values())
    rng = random.Random(4040)
    g = TermGen(rng, sig2)
    bases = [TyCon("iota"), TyCon("kappa")]
    for _ in range(600):
        ty = rng.choice(bases + [arrow(bases[0], bases[1])])
        t = g.gen(ty, 8, ground=True)
        s = g.gen(ty, 8, ground=True)
        for kind, p in ((KBO, kbo), (LPO, lpo)):
            want = oracle_compare(t, s, p)
            assert want in (Cmp.G, Cmp.E, Cmp.L)
            naive, opt = {KBO: (compare_kbo_naive, compare_kbo_opt),
                          LPO: (compare_lpo_naive, compare_lpo_opt)}[kind]
            assert naive(t, s, p) == opt(t, s, p) == want
