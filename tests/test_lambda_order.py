"""The KBO and LPO comparisons: worked examples, guard behaviour, and the
pointwise agreement of the naive and optimized algorithms."""

import itertools
import random
import sys
from types import SimpleNamespace

import pytest

import small_scope
from lamorder.cmp import Cmp, E, G, GE, L, LE, U, cw_ext, flip, lex_ext, lex_merge
from lamorder.gen import GenConfig, TermGen, gen_signature, gen_var_types
from lamorder.lambda_order import (ALGORITHMS, KBO, LPO, DepthError, LeakTypeMismatch,
                                   OrderError, OrderParams, _KboNaive, _KboOpt, _LpoNaive,
                                   _LpoOpt, _rigid, check_leak_types, collect_indet_reps,
                                   compare,
                                   compare_kbo_naive, compare_kbo_opt,
                                   compare_lpo_naive, compare_lpo_opt, norm_key,
                                   reset_weight_calls, type_relaxed_ge, var_key,
                                   weight_calls, weight_diff, weight_poly)
from lamorder.oracle import oracle_compare
from lamorder.ordinal import ONE, from_int, ord_add
from lamorder.parse import ParseError, parse_signature, parse_term
from lamorder.poly import HInd, KInd, WInd, const_poly, indet_poly
from lamorder.term import (Db, Lam, Signature, Substitution, Sym, TermError,
                           TyCon, TyVar, TypeDecl, UnderApplied, Var, accessible_positions,
                           app, apply_subst, arrow, arrows, nodes, normalize, replace_at,
                           shift, steady_split, subterm_at, type_of)

K = TyCon("k")
O = TyCon("o")

KBO_ALGOS = (compare_kbo_naive, compare_kbo_opt)
LPO_ALGOS = (compare_lpo_naive, compare_lpo_opt)


def both(algos, t, s, p):
    a, b = algos[0](t, s, p), algos[1](t, s, p)
    assert a == b, "naive %s vs optimized %s" % (a, b)
    return a


# ---------------------------------------------------------------------------
# The four worked examples
# ---------------------------------------------------------------------------

@pytest.fixture
def ex1():
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_type("o", 0)
    sig.add_symbol("f", TypeDecl((), (), arrow(K, K)))
    sig.add_symbol("p", TypeDecl((), (), arrow(arrow(K, K), O)))
    y = Var("y", arrow(K, K))
    t = normalize(app(Sym("p"), Lam(K, app(Sym("f"), Var("y", arrow(K, K), (Db(0, K),))))), sig)
    s = normalize(app(Sym("p"), Lam(K, Var("y", arrow(K, K), (Db(0, K),)))), sig)
    kbo = OrderParams(sig, KBO, prec=["f", "p"])
    lpo = OrderParams(sig, LPO, prec=["f", "p"], watershed="f")
    return sig, kbo, lpo, t, s


def test_example1_weights(ex1):
    sig, kbo, lpo, t, s = ex1
    wy = indet_poly(WInd(Var("y", arrow(K, K))))
    assert weight_poly(t, kbo) == const_poly(4) + wy
    assert weight_poly(s, kbo) == const_poly(3) + wy


def test_example1_orders(ex1):
    sig, kbo, lpo, t, s = ex1
    assert both(KBO_ALGOS, t, s, kbo) is G
    assert both(LPO_ALGOS, t, s, lpo) is G
    assert both(KBO_ALGOS, s, t, kbo) is L
    assert both(LPO_ALGOS, s, t, lpo) is L


@pytest.fixture
def ex2():
    sig = Signature()
    sig.add_type("i", 0)
    sig.add_type("o", 0)
    i, o = TyCon("i"), TyCon("o")
    rel = arrows([i, i], o)
    sig.add_symbol("trans", TypeDecl((), (), arrow(rel, o)))
    sig.add_symbol("forall", TypeDecl((), (), arrow(arrow(i, o), o)))
    sig.add_symbol("and", TypeDecl((), (), arrows([o, o], o)))
    sig.add_symbol("imp", TypeDecl((), (), arrows([o, o], o)))
    r = Var("r", rel)

    def rr(a, b):
        return Var("r", rel, (Db(a, i), Db(b, i)))

    lhs = normalize(app(Sym("trans"), Lam(i, Lam(i, rr(1, 0)))), sig)
    body = app(Sym("imp"), app(Sym("and"), rr(2, 1), rr(1, 0)), rr(2, 0))
    rhs = normalize(
        app(Sym("forall"),
            Lam(i, app(Sym("forall"),
                       Lam(i, app(Sym("forall"), Lam(i, body)))))), sig)
    prec = ["and", "imp", "forall", "trans"]
    return sig, prec, lhs, rhs


def test_example2_unit_weights_orient_right_to_left(ex2):
    sig, prec, lhs, rhs = ex2
    kbo = OrderParams(sig, KBO, prec=prec)
    assert both(KBO_ALGOS, lhs, rhs, kbo) is L


def test_example2_heavier_head_flips_the_orientation(ex2):
    sig, prec, lhs, rhs = ex2
    kbo = OrderParams(sig, KBO, prec=prec,
                      weights={"trans": from_int(5)},
                      coeffs={("trans", 1): from_int(3)})
    assert both(KBO_ALGOS, lhs, rhs, kbo) is G


def test_example2_lpo_cannot_orient_left_to_right(ex2):
    sig, prec, lhs, rhs = ex2
    lpo = OrderParams(sig, LPO, prec=prec, watershed="and")
    assert both(LPO_ALGOS, lhs, rhs, lpo) is not G


@pytest.fixture
def ex3():
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_type("o", 0)
    pred = arrow(arrow(K, K), O)
    sig.add_symbol("a", TypeDecl((), (), arrow(K, K)))
    sig.add_symbol("f", TypeDecl((), (), arrow(K, K)))
    sig.add_symbol("sk", TypeDecl((), (pred,), arrow(K, K)))
    y = Var("y", pred)
    lit1 = Lam(K, Sym("a", (), (), (Db(0, K),)))
    # the parameter is eta-long, as every subterm of an order's input is
    lit2 = Lam(K, Sym("f", (), (), (Sym("sk", (), (normalize(y, sig),), (Db(0, K),)),)))
    lit3 = Lam(K, Db(0, K))
    return sig, lit1, lit2, lit3


def test_example3_parameters_carry_no_weight(ex3):
    sig, lit1, lit2, lit3 = ex3
    # lit2's weight is a constant even though the variable y sits inside sk's
    # parameter
    kbo = OrderParams(sig, KBO, prec=["a", "f", "sk"])
    assert weight_poly(lit2, kbo) == const_poly(4)
    assert weight_poly(lit3, kbo) == const_poly(2)


def test_example3_heavy_head_dominates(ex3):
    sig, lit1, lit2, lit3 = ex3
    heavy = OrderParams(sig, KBO, prec=["a", "f", "sk"],
                        weights={"a": from_int(3)})
    assert both(KBO_ALGOS, lit1, lit2, heavy) is G
    assert both(KBO_ALGOS, lit1, lit3, heavy) is G


@pytest.fixture
def ex4():
    sig = Signature()
    sig.add_type("elem", 0)
    sig.add_type("list", 0)
    e, l = TyCon("elem"), TyCon("list")
    sig.add_symbol("nil", TypeDecl((), (), l))
    sig.add_symbol("cons", TypeDecl((), (), arrows([e, l], l)))
    sig.add_symbol("map", TypeDecl((), (), arrows([arrow(e, e), l], l)))
    f = Var("f", arrow(e, e))
    x = Var("x", e)
    xs = Var("xs", l)
    lam_f = Lam(e, Var("f", arrow(e, e), (Db(0, e),)))
    lhs1 = normalize(app(Sym("map"), lam_f, Sym("nil")), sig)
    rhs1 = Sym("nil")
    lhs2 = normalize(app(Sym("map"), lam_f, app(Sym("cons"), x, xs)), sig)
    rhs2 = normalize(app(Sym("cons"), Var("f", arrow(e, e), (x,)),
                         app(Sym("map"), lam_f, xs)), sig)
    prec = ["nil", "cons", "map"]
    kbo = OrderParams(sig, KBO, prec=prec)
    lpo = OrderParams(sig, LPO, prec=prec, watershed="nil")
    return kbo, lpo, lhs1, rhs1, lhs2, rhs2


def test_example4_base_equation_orients(ex4):
    kbo, lpo, lhs1, rhs1, lhs2, rhs2 = ex4
    assert both(KBO_ALGOS, lhs1, rhs1, kbo) is G
    assert both(LPO_ALGOS, lhs1, rhs1, lpo) is G


def test_example4_recursive_equation_is_unorientable(ex4):
    kbo, lpo, lhs1, rhs1, lhs2, rhs2 = ex4
    assert both(KBO_ALGOS, lhs2, rhs2, kbo) is U
    assert both(KBO_ALGOS, rhs2, lhs2, kbo) is U
    assert both(LPO_ALGOS, lhs2, rhs2, lpo) is U
    assert both(LPO_ALGOS, rhs2, lhs2, lpo) is U


# ---------------------------------------------------------------------------
# Nonstrict comparisons and reflexivity
# ---------------------------------------------------------------------------

@pytest.fixture
def small():
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("a", TypeDecl((), (), K))
    sig.add_symbol("b", TypeDecl((), (), K))
    sig.add_symbol("g", TypeDecl((), (), arrows([K, K], K)))
    kbo = OrderParams(sig, KBO, prec=["a", "b", "g"])
    lpo = OrderParams(sig, LPO, prec=["a", "b", "g"], watershed="a")
    return sig, kbo, lpo


def test_applied_variable_nonstrict(small):
    sig, kbo, lpo = small
    y = Var("y", arrow(K, K))
    t = normalize(app(y, Sym("b")), sig)
    s = normalize(app(y, Sym("a")), sig)
    assert both(KBO_ALGOS, t, s, kbo) is GE
    assert both(LPO_ALGOS, t, s, lpo) is GE
    assert both(KBO_ALGOS, s, t, kbo) is LE


def test_reflexivity_short_circuit(small):
    sig, kbo, lpo = small
    y2 = Var("y2", arrow(arrow(K, K), K))
    t = normalize(app(y2, Lam(K, Db(0, K))), sig)  # nonsteady argument
    for algos, p in ((KBO_ALGOS, kbo), (LPO_ALGOS, lpo)):
        assert both(algos, t, t, p) is E


def test_same_variable_nonsteady_arguments_unknown(small):
    sig, kbo, lpo = small
    y2 = Var("y2", arrow(arrow(K, K), K))
    t = normalize(app(y2, Lam(K, Db(0, K))), sig)
    s = normalize(app(y2, Lam(K, Sym("a"))), sig)
    for algos, p in ((KBO_ALGOS, kbo), (LPO_ALGOS, lpo)):
        assert both(algos, t, s, p) is U


def test_distinct_variables_unknown(small):
    sig, kbo, lpo = small
    t = Var("x", K)
    s = Var("y", K)
    assert both(KBO_ALGOS, t, s, kbo) is U
    assert both(LPO_ALGOS, t, s, lpo) is U


# ---------------------------------------------------------------------------
# Type guards against eta expansion
# ---------------------------------------------------------------------------

def test_type_relaxed_ge():
    assert not type_relaxed_ge(K, TyVar("a"))          # t:k vs s:a
    assert type_relaxed_ge(TyVar("a"), TyVar("a"))
    assert type_relaxed_ge(TyVar("a"), K)


@pytest.fixture
def polysig():
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("h", TypeDecl((), (), K))
    sig.add_symbol("aa", TypeDecl(("A",), (), TyVar("A")))
    sig.add_symbol("ws", TypeDecl((), (), K))
    return sig


def test_watershed_overrides_type_guard(polysig):
    # a symbol above the watershed dominates a possibly-expanding term
    above = OrderParams(polysig, LPO, prec=["aa", "ws", "h"], watershed="ws")
    below = OrderParams(polysig, LPO, prec=["aa", "h", "ws"], watershed="ws")
    h, poly_a = Sym("h"), Sym("aa", (TyVar("alpha"),))
    assert both(LPO_ALGOS, h, poly_a, above) is G
    assert both(LPO_ALGOS, h, poly_a, below) is U
    assert both(LPO_ALGOS, h, Sym("aa", (K,)), below) is G


def test_kbo_guard_blocks_variable_typed_comparison(polysig):
    kbo = OrderParams(polysig, KBO, prec=["aa", "ws", "h"],
                      weights={"h": from_int(5)})
    h, poly_a = Sym("h"), Sym("aa", (TyVar("alpha"),))
    # weight would decide, but the right side can eta-expand arbitrarily: the
    # weight polynomial of aa<alpha> contains the expansion slack
    w = weight_poly(poly_a, kbo)
    assert HInd("alpha") in {x for m, _ in w.items() for x in m}
    assert both(KBO_ALGOS, h, poly_a, kbo) is U


def _eta_dropping_pairs():
    """Two pairs whose larger-looking side holds x2 : a0.  The instance
    a0 := ι → ι, x2 := λι. pany<ι> eta-expands x2 to a lambda whose body
    ignores its index, so no eta slack on x2 is earned.  The first pair is
    under the generated polymorphic signature of seed 0, the second under
    pany < f < pfun, with both sides of type kappa."""
    kappa, a0 = TyCon("kappa"), TyVar("a0")
    x2 = Var("x2", a0)
    gen_sig, gen_kbo, _ = gen_signature(GenConfig(seed=0, polymorphic=True))
    sig = Signature()
    sig.add_type("iota", 0)
    sig.add_type("kappa", 0)
    sig.add_symbol("pany", TypeDecl(("P",), (), TyVar("P")))
    sig.add_symbol("pfun", TypeDecl(("P",), (), arrow(TyVar("P"), kappa)))
    sig.add_symbol("f", TypeDecl((), (), arrow(kappa, kappa)))
    kbo = OrderParams(sig, KBO, prec=["pany", "f", "pfun"])
    pfun_x2 = Sym("pfun", (a0,), (), (x2,))
    pany = Sym("pany", (a0,))
    return [(gen_sig, gen_kbo, pfun_x2, pany),
            (sig, kbo, Sym("f", (), (), (pfun_x2,)), Sym("pfun", (a0,), (), (pany,)))]


@pytest.mark.parametrize("pair", [0, 1])
def test_variable_of_type_variable_type_takes_no_eta_slack(pair):
    sig, kbo, t, s = _eta_dropping_pairs()[pair]
    t, s = normalize(t, sig), normalize(s, sig)
    assert both(KBO_ALGOS, t, s, kbo) is not G
    iota = TyCon("iota")
    mono = Substitution(ty_map={"a0": arrow(iota, iota)})
    ground = Substitution(term_map={
        ("x2", arrow(iota, iota)): normalize(Lam(iota, Sym("pany", (iota,))), sig)})
    tg, sg = (apply_subst(apply_subst(u, mono, sig), ground, sig) for u in (t, s))
    assert oracle_compare(tg, sg, kbo) is L


# ---------------------------------------------------------------------------
# Pseudocode combinators
# ---------------------------------------------------------------------------

def test_lex_ext_traces():
    assert lex_ext(lambda a, b: E, [], []) is E
    seq = iter([G])
    assert lex_ext(lambda a, b: next(seq), [1, 2], [1, 2]) is G
    seq = iter([GE, L])
    assert lex_ext(lambda a, b: next(seq), [1, 2], [1, 2]) is U
    seq = iter([GE, E])
    assert lex_ext(lambda a, b: next(seq), [1, 2], [1, 2]) is GE
    seq = iter([E, L])
    assert lex_ext(lambda a, b: next(seq), [1, 2], [1, 2]) is L
    with pytest.raises(ValueError):
        lex_ext(lambda a, b: E, [1], [])
    # every verdict sequence up to length 4: the scan stops at the first
    # strict or U verdict, and its result is the right fold of what it saw
    stub = _KboNaive(SimpleNamespace(sig=None))
    for n in range(5):
        for seq in itertools.product(list(Cmp), repeat=n):
            stop = next((i + 1 for i, c in enumerate(seq) if c in (G, L, U)), n)
            want = E
            for c in reversed(seq[:stop]):
                want = lex_merge(c, want)
            calls = []

            def op(a, b, depth=0):
                calls.append(a)
                return seq[a]
            assert lex_ext(op, range(n), range(n)) is want, seq
            stub.compare = op
            assert stub.descend(range(n), range(n), (), 0, False) is want, seq
            assert len(calls) == 2 * stop, seq
    # a long run of nonstrict positions folds in a loop, not a recursion
    n = 5000
    assert lex_ext(lambda a, b: GE, [0] * n, [0] * n) is GE
    seq = iter([GE] * (n - 1) + [G])
    assert lex_ext(lambda a, b: next(seq), [0] * n, [0] * n) is G


def test_cw_ext_smooths_then_merges():
    seq = iter([G, L])
    assert cw_ext(lambda a, b: next(seq), [1, 2], [1, 2]) is U
    seq = iter([G, E])
    assert cw_ext(lambda a, b: next(seq), [1, 2], [1, 2]) is GE
    seq = iter([E, E])
    assert cw_ext(lambda a, b: next(seq), [1, 2], [1, 2]) is E


# ---------------------------------------------------------------------------
# Known divergence traps between the literal pseudocode and the naive rules
# ---------------------------------------------------------------------------

def test_subterm_win_upgrades_nonstrict_argument_verdict(small):
    # g(g(y c)) vs g(y b): t's argument g(y c) nonstrictly dominates the
    # whole right side, so the comparison is strict even though every
    # positional verdict along the way is merely nonstrict.
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("b", TypeDecl((), (), K))
    sig.add_symbol("c", TypeDecl((), (), K))
    sig.add_symbol("g", TypeDecl((), (), arrow(K, K)))
    lpo = OrderParams(sig, LPO, prec=["b", "c", "g"], watershed="b")
    y = Var("y", arrow(K, K))
    yc = normalize(app(y, Sym("c")), sig)
    yb = normalize(app(y, Sym("b")), sig)
    inner_t = Sym("g", (), (), (yc,))
    s = Sym("g", (), (), (yb,))
    t = Sym("g", (), (), (inner_t,))
    assert compare_lpo_naive(inner_t, s, lpo) is GE
    assert both(LPO_ALGOS, t, s, lpo) is G
    assert both(LPO_ALGOS, s, t, lpo) is L
    # same-depth variant: both sides scan to GE and stay nonstrict
    inner_s = Sym("g", (), (), (yb,))
    t2 = Sym("g", (), (), (inner_t,))
    s2 = Sym("g", (), (), (inner_s,))
    assert both(LPO_ALGOS, t2, s2, lpo) is GE


def test_poly_guard_failure_falls_back_to_subterm_win():
    # t = g<k>(s-as-argument) vs s of variable type: the precedence rule is
    # blocked by the type guard, but s occurs as t's argument.
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("pv", TypeDecl(("A",), (), TyVar("A")))
    sig.add_symbol("g", TypeDecl(("A",), (), arrow(TyVar("A"), K)))
    sig.add_symbol("ws", TypeDecl((), (), K))
    lpo = OrderParams(sig, LPO, prec=["pv", "g", "ws"], watershed="ws")
    alpha = TyVar("alpha")
    s = Sym("pv", (alpha,))
    t = Sym("g", (alpha,), (), (s,))
    assert not type_relaxed_ge(K, alpha)
    assert both(LPO_ALGOS, t, s, lpo) is G
    assert both(LPO_ALGOS, s, t, lpo) is L


def test_kbo_opt_reconstructs_scaled_weights():
    # non-unit coefficient: a naive literal reading of the optimized
    # pseudocode would sum unscaled argument differences and diverge
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("a", TypeDecl((), (), K))
    sig.add_symbol("b", TypeDecl((), (), K))
    sig.add_symbol("g", TypeDecl((), (), arrows([K, K], K)))
    kbo = OrderParams(sig, KBO, prec=["a", "b", "g"],
                      weights={"b": from_int(2)},
                      coeffs={("g", 2): from_int(2)})
    t = Sym("g", (), (), (Sym("a"), Sym("b")))  # 1 + 1 + 2*2 = 6
    s = Sym("g", (), (), (Sym("b"), Sym("a")))  # 1 + 2 + 2*1 = 5
    assert both(KBO_ALGOS, t, s, kbo) is G
    assert both(KBO_ALGOS, s, t, kbo) is L


def test_kbo_opt_ignores_parameter_weights():
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("a", TypeDecl((), (), K))
    sig.add_symbol("b", TypeDecl((), (), K))
    sig.add_symbol("big", TypeDecl((), (), K))
    sig.add_symbol("sk", TypeDecl((), (K,), arrow(K, K)))
    kbo = OrderParams(sig, KBO, prec=["a", "b", "big", "sk"],
                      weights={"big": from_int(9)})
    t = normalize(Sym("sk", (), (Sym("big"),), (Sym("a"),)), sig)
    s = normalize(Sym("sk", (), (Sym("a"),), (Sym("b"),)), sig)
    # weights tie (parameters weigh nothing); the parameter itself is the
    # first lexicographic position and big is above a
    assert both(KBO_ALGOS, t, s, kbo) is G


def test_strict_leak_mode():
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_type("i", 0)
    sig.add_symbol("u", TypeDecl((), (), K))
    kbo = OrderParams(sig, KBO, prec=["u"])
    t = Db(3, K)
    s = Db(3, TyCon("i"))
    with pytest.raises(LeakTypeMismatch):
        check_leak_types(t, s)
    assert compare_kbo_naive(t, s, kbo) is U


def test_leak_rule_precedes_index_arity():
    """Leaking indices of one number, with different types and argument
    counts: the leak rule settles them before their head ranks could, so
    the LPO says U (and strict mode rejects the pair) and the KBO's weights
    decide."""
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("a", TypeDecl((), (), K))
    t, s = Db(3, arrow(K, K), (Sym("a"),)), Db(3, K)
    lpo = OrderParams(sig, LPO, prec=["a"], watershed="a")
    kbo = OrderParams(sig, KBO, prec=["a"])
    assert both(LPO_ALGOS, t, s, lpo) is U and both(LPO_ALGOS, s, t, lpo) is U
    with pytest.raises(LeakTypeMismatch):
        check_leak_types(t, s)
    assert both(KBO_ALGOS, t, s, kbo) is G and both(KBO_ALGOS, s, t, kbo) is L


@pytest.mark.parametrize("kind", [KBO, LPO])
def test_strict_mode_is_decided_before_any_algorithm(kind):
    """Strict mode is a check of the inputs alone: it rejects a leaking
    index number with two types even where the weights would settle the
    pair, which every algorithm still compares; a consistent leak passes."""
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("a", TypeDecl((), (), K))
    p = OrderParams(sig, kind, prec=["a"], watershed="a")
    t, s = Db(3, arrow(K, K), (Sym("a"),)), Db(3, K)
    with pytest.raises(LeakTypeMismatch, match="#3"):
        check_leak_types(t, s)
    # #3 under four lambdas is bound, but its number leaks in t
    with pytest.raises(LeakTypeMismatch):
        check_leak_types(t, Lam(K, Lam(K, Lam(K, Lam(K, Db(3, K))))))
    check_leak_types(Db(3, K), Db(2, K))
    for algo in ALGORITHMS[kind]:
        assert algo(t, s, p) is (G if kind == KBO else U)
        assert algo(Db(3, K), Db(2, K), p) in (G, L)


def test_strict_mode_walks_no_closed_pair(monkeypatch):
    """Only a loose index can leak, so strict mode walks neither side of a
    closed pair, however deep; a leaking pair with two types still raises."""
    from lamorder import term
    from lamorder.checks import adversarial_lpo_pair
    t, s = adversarial_lpo_pair(200)
    walked = []
    walk = term.nodes
    monkeypatch.setattr(term, "nodes", lambda u, *a: walked.append(u) or walk(u, *a))
    check_leak_types(t, s)
    assert not walked
    kappa = TyCon("kappa")
    with pytest.raises(LeakTypeMismatch, match="#3"):
        check_leak_types(Db(3, arrow(kappa, kappa), (Sym("a"),)), Db(3, kappa))
    assert Db(3, kappa) in walked


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_compare_rejects_unknown_algorithm(small):
    _, kbo, lpo = small
    for p in (kbo, lpo):
        with pytest.raises(OrderError, match="algorithm"):
            compare(Sym("a"), Sym("b"), p, algo="nave")


def test_precedence_rejects_duplicate_name(small):
    sig, _, _ = small
    with pytest.raises(OrderError, match="twice"):
        OrderParams(sig, KBO, prec=["a", "b", "g", "a"])
    with pytest.raises(OrderError, match="twice"):
        OrderParams(sig, KBO, prec=["a", "b", "g"], ty_prec=["k", "->", "k"])


def test_precedence_rejects_undeclared_name(small):
    sig, _, _ = small
    with pytest.raises(OrderError, match="undeclared"):
        OrderParams(sig, KBO, prec=["a", "b", "g", "h"])
    with pytest.raises(OrderError, match="undeclared"):
        OrderParams(sig, KBO, prec=["a", "b", "g"], ty_prec=["k", "->", "iota"])


def test_weights_reject_undeclared_symbol(small):
    sig, _, _ = small
    with pytest.raises(OrderError, match="undeclared symbol zz"):
        OrderParams(sig, KBO, prec=["a", "b", "g"], weights={"zz": from_int(2)})


def test_coefficients_reject_undeclared_symbol(small):
    sig, _, _ = small
    with pytest.raises(OrderError, match="undeclared symbol qq"):
        OrderParams(sig, KBO, prec=["a", "b", "g"], coeffs={("qq", 1): from_int(3)})


def test_coefficients_reject_index_zero(small):
    sig, _, _ = small
    with pytest.raises(OrderError, match="indices start at 1"):
        OrderParams(sig, KBO, prec=["a", "b", "g"], coeffs={("g", 0): from_int(2)})


def test_type_weights_reject_undeclared_constructor(small):
    sig, _, _ = small
    with pytest.raises(OrderError, match="undeclared constructor nope"):
        OrderParams(sig, KBO, prec=["a", "b", "g"], ty_weights={"nope": from_int(2)})
    # the arrow is a declared constructor and may carry a weight
    OrderParams(sig, KBO, prec=["a", "b", "g"], ty_weights={"->": from_int(2)})


@pytest.mark.parametrize("section", [
    # w^(-1) is below 1: f a would weigh less than a, against the subterm property
    '(weights (f "w^(-1)")) (coeffs ((f 1) "w^(-1)")) (ordinal-weights)',
    # a weightless unary type constructor: c<list k> > c<list (list k)> > ...
    "(tyweights (list 0))",
    '(weights (f "w - 1")) (ordinal-weights)',
    "(tyweights (k -1))",
])
def test_parameter_values_must_be_positive_ordinals(section):
    text = ("(signature (types (k 0) (list 1)) (symbols (a () () k) (f () () (-> k k))"
            " (c (X) () k)) (precedence a c f) (typrecedence -> list k) %s)" % section)
    with pytest.raises(ParseError, match="^1:1: invalid order parameters: .* must be a "
                                         "positive ordinal"):
        parse_signature(text, KBO)


@pytest.mark.parametrize("algo", ("naive", "optimized"))
@pytest.mark.parametrize("kind", (KBO, LPO))
def test_undeclared_type_constructor_is_a_named_error(kind, algo):
    # compare types its inputs by the checked pass, before any type order
    sig, kbo, lpo = gen_signature(GenConfig(seed=1, polymorphic=True))
    p = kbo if kind == KBO else lpo
    t, s = Sym("pany", (TyCon("nosuch"),)), Sym("pany", (TyCon("iota"),))
    with pytest.raises(TermError, match="unknown type constructor nosuch"):
        compare(t, s, p, algo)


def test_compare_types_names_an_unranked_constructor():
    sig, kbo, lpo = gen_signature(GenConfig(seed=1, polymorphic=True))
    # equal type weights: the KBO reaches the type precedence too
    p = OrderParams(sig, KBO, prec=list(kbo.prec_ranks))
    for params in (p, lpo):
        with pytest.raises(OrderError, match="constructor nosuch"):
            params.compare_types(TyCon("nosuch"), TyCon("iota"))
    # a constructor declared after the parameters were made has no rank
    sig.add_type("late", 0)
    with pytest.raises(OrderError, match="constructor late"):
        lpo.compare_types(arrow(TyCon("iota"), TyCon("late")), TyCon("iota"))
    assert lpo.compare_types(TyCon("iota"), TyCon("iota")) is E


ALL_ALGOS = (compare_kbo_naive, compare_kbo_opt, compare_lpo_naive, compare_lpo_opt)


def test_equal_heads_name_an_unranked_symbol():
    """Two equal symbol heads are E after one precedence lookup, which still
    names a symbol declared after the parameters were made."""
    from lamorder.checks import bench_signature
    sig, kbo, lpo = bench_signature()
    sig.add_symbol("late", TypeDecl((), (), arrow(TyCon("kappa"), TyCon("kappa"))))
    t, s = Sym("late", (), (), (Sym("a"),)), Sym("late", (), (), (Sym("b"),))
    for algo in ALL_ALGOS:
        with pytest.raises(OrderError, match="symbol late has no precedence rank"):
            algo(t, s, kbo if algo in KBO_ALGOS else lpo)


def _params_for(algo, kbo, lpo):
    return kbo if algo in KBO_ALGOS else lpo


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_compare_rejects_arrow_typed_spine(small, algo):
    p = _params_for(algo, *small[1:])
    with pytest.raises(TermError, match="not a normalized term"):
        algo(Sym("g"), Sym("a"), p)
    with pytest.raises(TermError, match="not a normalized term"):
        algo(Sym("a"), Sym("g", (), (), (Sym("b"),)), p)


def _rejected_pairs():
    """Inputs that are ill-typed below the root, or not eta-long there, each
    with its parameters and the fault it must raise."""
    from lamorder.checks import bench_signature
    hsig = Signature()
    hsig.add_type("k", 0)
    for name, ty in (("a", K), ("f", arrow(K, K)), ("h", arrow(arrow(K, K), K))):
        hsig.add_symbol(name, TypeDecl((), (), ty))
    hk = (OrderParams(hsig, KBO, prec=["a", "f", "h"]),
          OrderParams(hsig, LPO, prec=["a", "f", "h"], watershed="a"))
    h_f = Sym("h", (), (), (Sym("f"),))
    h_long = Sym("h", (), (), (Lam(K, Sym("f", (), (), (Db(0, K),))),))
    _, *bench = bench_signature()
    kappa, nosuch = TyCon("kappa"), TyCon("nosuch")
    _, *gen = gen_signature(GenConfig(seed=1, polymorphic=True))
    iota = TyCon("iota")
    return [
        (hk, h_f, h_long, UnderApplied, "not a normalized term"),
        (bench, Sym("f", (), (), (Lam(kappa, Sym("a")),)), Sym("f", (), (), (Sym("b"),)),
         TermError, r"argument 1 of \(f \(\\kappa\. a\)\) has type \(-> kappa kappa\)"),
        (gen, Sym("pany", (TyCon("iota", (iota,)),)), Sym("pany", (iota,)),
         TermError, "type constructor iota expects 0 arguments, got 1"),
        (bench, Var("x", nosuch), Var("y", nosuch), TermError, "unknown type constructor nosuch"),
        (bench, Var("x", nosuch), Var("x", nosuch), TermError, "unknown type constructor nosuch"),
        (bench, Db(-1, kappa), Sym("a"), TermError, "index must be a natural number"),
        (bench, Db(-1, kappa), Db(0, kappa), TermError, "index must be a natural number"),
        (bench, Lam(kappa, Db(-1, kappa)), Lam(kappa, Db(0, kappa)), TermError,
         "index must be a natural number"),
    ]


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_compare_rejects_ill_typed_input(algo):
    """compare types both inputs by the checked pass, so an input with a
    fault anywhere is a named error under every algorithm, whichever side
    it is on, and never a verdict or a bare ValueError."""
    for params, t, s, error, fault in _rejected_pairs():
        p = _params_for(algo, *params)
        for pair in ((t, s), (s, t)):
            with pytest.raises(error, match=fault):
                algo(*pair, p)


# ---------------------------------------------------------------------------
# Depth
# ---------------------------------------------------------------------------

def test_optimized_lpo_deep_ground_nest_fits_default_stack():
    """The optimized descent spends two frames per nesting level (compare
    and scan); at depth 400 that fits the interpreter's default limit only
    without any per-level wrapper frame."""
    from lamorder.checks import adversarial_lpo_pair, bench_signature
    _, _, lpo = bench_signature()
    t, s = adversarial_lpo_pair(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert compare_lpo_opt(t, s, lpo) is L
        assert compare_lpo_opt(s, t, lpo) is G
    finally:
        sys.setrecursionlimit(limit)


def test_kbo_deep_chains_fit_default_stack():
    """The optimized KBO spends two frames per nesting level (dispatch and
    descend), the naive one three (compare, dispatch, descend).  Under the
    interpreter's default limit these depths fit only if no frame is added
    per level: a third optimized frame overflows the chain of depth 400, a
    fourth naive one the chain of depth 240."""
    from lamorder.checks import adversarial_lpo_pair, bench_signature, deep_chain_pair
    _, kbo, _ = bench_signature()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for t, s in (adversarial_lpo_pair(256), deep_chain_pair(256), deep_chain_pair(400)):
            assert compare_kbo_opt(t, s, kbo) is L
            assert compare_kbo_opt(s, t, kbo) is G
        t, s = deep_chain_pair(240)
        assert compare_kbo_naive(t, s, kbo) is L
        assert compare_kbo_naive(s, t, kbo) is G
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_too_deep_comparison_raises_depth_error(algo):
    """Every algorithm spends at least two frames per level of a chain, so
    a depth-600 chain overflows a limit of 1,000; the overflow comes out as
    the named ``DepthError``, which is still a ``RecursionError``."""
    from lamorder.checks import bench_signature, deep_chain_pair
    _, kbo, lpo = bench_signature()
    t, s = deep_chain_pair(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(DepthError, match="nested too deeply"):
            algo(t, s, _params_for(algo, kbo, lpo))
    finally:
        sys.setrecursionlimit(limit)
    assert issubclass(DepthError, RecursionError)


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_deep_equal_copies_compare_equal(algo):
    """Two constructions of one deep term are one node, so the comparison
    ends at once, far below where a structural equality would overflow."""
    from lamorder.checks import bench_signature, deep_chain_pair
    _, kbo, lpo = bench_signature()
    t, u = deep_chain_pair(10_000)[0], deep_chain_pair(10_000)[0]
    assert t is u
    assert algo(t, u, _params_for(algo, kbo, lpo)) is E


def test_recursive_steps_live_in_their_own_classes():
    # the benchmark's call budget and tracer find each algorithm's recursive
    # step in its class's own namespace; an inherited one is not counted
    assert "compare" in vars(_KboNaive)
    assert "compare" in vars(_LpoNaive)
    assert "process" in vars(_KboOpt)
    assert "compare" in vars(_LpoOpt)


def _counting_lpo(cls=_LpoNaive):
    calls = [0]

    class Spy(cls):
        def compare(self, t, s, dt=0, ds=0):
            calls[0] += 1
            return cls.compare(self, t, s, dt, ds)

    return Spy, calls


def test_naive_lpo_call_counts_are_pinned():
    """The naive LPO is the reference whose call count decides which bench
    pairs are timed: pin its calls on the adversarial nests, both directions
    summed.  On the generated nonground pairs pin the optimized LPO's calls
    too, which the variable condition cuts: without it, 1,816.  Before
    its ``check_subs``, ``beats`` and ``scan`` passed the subterms, own
    arguments and identical positions whose answer is known, 666, and
    before ``check_subs`` passed the other side's rigid own arguments,
    644."""
    from lamorder.checks import adversarial_lpo_pair, bench_signature
    Spy, calls = _counting_lpo()
    OptSpy, opt_calls = _counting_lpo(_LpoOpt)
    _, _, lpo = bench_signature()
    counts = []
    for d in range(1, 6):
        t, s = adversarial_lpo_pair(d)
        calls[0] = 0
        assert Spy(lpo).compare(t, s) is L
        assert Spy(lpo).compare(s, t) is G
        counts.append(calls[0])
    assert counts == [30, 196, 1128, 6320, 35248]

    cfg = GenConfig(seed=0)
    sig, _, glpo = gen_signature(cfg)
    rng = random.Random(0)
    g = TermGen(rng, sig, var_types=gen_var_types(rng, cfg, sig))
    bases = [TyCon("iota"), TyCon("kappa")]
    calls[0] = compares = 0
    for _ in range(300):
        ty = rng.choice(bases + [arrow(bases[0], bases[1])])
        t, s = g.gen(ty, 9, ground=False), g.gen(ty, 9, ground=False)
        if t != s:
            compares += 1
            assert Spy(glpo).compare(t, s) is OptSpy(glpo).compare(t, s)
    assert (calls[0], opt_calls[0], compares) == (5507, 643, 286)


# ---------------------------------------------------------------------------
# Identical subterms, decided by identity
# ---------------------------------------------------------------------------

def test_rigid_identical_pairs_are_equal_under_the_naive_orders():
    """The optimized orders answer E for an identical rigid pair without
    looking at it; the naive ones, the reference, must reach E on every
    such pair, at equal binder depths 0 and 1.  The variables include two
    with non-steady arguments, one of function type and one of a type
    variable, so that both kinds of node occur: 720 rigid nodes and 172
    others, which all compare U with themselves under both naive orders.
    The naive orders take no short cut, so these counts do not depend on
    it."""
    cfg = GenConfig(seed=7, polymorphic=True)
    sig, kbo, lpo = gen_signature(cfg)
    rng = random.Random(7)
    var_types = gen_var_types(rng, cfg, sig, polymorphic=True)
    iota, kappa = TyCon("iota"), TyCon("kappa")
    var_types["y"] = arrow(arrow(iota, kappa), kappa)
    var_types["z"] = arrow(TyVar("a0"), iota)
    g = TermGen(rng, sig, var_types=var_types, poly_ty_vars=["a0", "a1"])
    tys = [iota, kappa, arrow(iota, kappa), TyVar("a0")]
    seen = {}
    for _ in range(1500):
        t = g.gen(rng.choice(tys), 12, ground=False)
        for u, _ in nodes(t):
            if isinstance(u, (Sym, Db, Lam, Var)):
                seen[u] = _rigid(u)
    for u, rigid in seen.items():
        if rigid:
            assert _KboNaive(kbo).compare(u, u) is E, u
            for d in (0, 1):
                assert _LpoNaive(lpo).compare(u, u, d, d) is E, (u, d)
    assert (sum(seen.values()), len(seen) - sum(seen.values())) == (720, 172)


def test_identical_flex_subterm_is_not_short_cut(small):
    """A variable applied to a lambda makes its node non-rigid, and the
    pair below stays U under all four algorithms: the short cut must not
    answer E for the identical first arguments (without the short cut the
    pair is U as well)."""
    sig, kbo, lpo = small
    y2 = Var("y2", arrow(arrow(K, K), K))
    flex = normalize(app(y2, Lam(K, Db(0, K))), sig)
    assert not _rigid(flex)
    t = normalize(app(Sym("g"), flex, Sym("b")), sig)
    s = normalize(app(Sym("g"), flex, Sym("a")), sig)
    for algo in ALL_ALGOS:
        assert algo(t, s, _params_for(algo, kbo, lpo)) is U


def _chain(n, u):
    for _ in range(n):
        u = Sym("f", (), (), (u,))
    return u


def _g(u, v):
    return Sym("g", (), (), (u, v))


def test_identical_arguments_cost_no_descent():
    """A pair that differs in one argument of a deep shared context costs
    only the differing argument.  Against g(b, T) and g(a, T), with T the
    chain f^50(a), the optimized KBO weighs 2 nodes (104 when it weighed
    both copies of T), and the optimized LPO compares 2 pairs: the root
    and b against a, after which g(b, T) beats the loser's T as its own
    argument (53 when it compared g(b, T) with T).  Against g(T, b) and
    g(T, a) the optimized KBO processes 2 pairs and the optimized LPO
    compares 2: its scan passes the identical T without a call (3 when it
    called compare to find T identical, 53 each when they walked T)."""
    from lamorder.checks import bench_signature
    _, kbo, lpo = bench_signature()
    chain = _chain(50, Sym("a"))
    reset_weight_calls()
    assert compare_kbo_opt(_g(Sym("b"), chain), _g(Sym("a"), chain), kbo) is G
    assert weight_calls() == 2

    processed = [0]

    class KboSpy(_KboOpt):
        def process(self, t, s, depth):
            processed[0] += 1
            return _KboOpt.process(self, t, s, depth)

    LpoSpy, compared = _counting_lpo(_LpoOpt)
    assert LpoSpy(lpo).compare(_g(Sym("b"), chain), _g(Sym("a"), chain)) is G
    assert compared[0] == 2

    compared[0] = 0
    t, s = _g(chain, Sym("b")), _g(chain, Sym("a"))
    assert KboSpy(kbo).compare(t, s) is G
    assert LpoSpy(lpo).compare(t, s) is G
    assert (processed[0], compared[0]) == (2, 2)


def test_equal_heads_cost_no_extension_product_or_polynomial(monkeypatch):
    """Both optimized orders decide two equal symbol heads by one rank
    lookup, without ``lex_ext`` over their empty type arguments, and the
    optimized KBO reads a head's argument scales from a table, negates the
    weights of a minus side instead of multiplying them by -1, and builds
    no ``Poly`` for a level whose weight difference is empty: under
    ``bench_signature()``, where a and b weigh alike, every level of the
    depth-200 chain and nest is one.  The step changes no count: the
    recursive calls and ``weight_calls()`` are pinned at their counts
    before it, both directions alike."""
    import lamorder
    from lamorder import cmp, ordinal, poly
    from lamorder.checks import adversarial_lpo_pair, bench_signature, deep_chain_pair
    ran = {"ord_mul": 0, "lex_ext": 0, "Poly": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            ran[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, fn in (("ord_mul", ordinal.ord_mul), ("lex_ext", cmp.lex_ext)):
        for mod in [m for n, m in sys.modules.items() if n.startswith("lamorder.")]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting(name, fn))
    monkeypatch.setattr(poly.Poly, "__init__", counting("Poly", poly.Poly.__init__))

    processed = [0]

    class KboSpy(_KboOpt):
        def process(self, t, s, depth):
            processed[0] += 1
            return _KboOpt.process(self, t, s, depth)

    LpoSpy, compared = _counting_lpo(_LpoOpt)
    _, kbo, lpo = bench_signature()
    counts = []
    for make in (deep_chain_pair, adversarial_lpo_pair):
        t, s = make(200)
        for a, b, verdict in ((t, s, L), (s, t, G)):
            processed[0] = compared[0] = 0
            reset_weight_calls()
            assert KboSpy(kbo).compare(a, b) is verdict
            assert LpoSpy(lpo).compare(a, b) is verdict
            counts.append((processed[0], weight_calls(), compared[0]))
    assert counts == [(201, 2, 201)] * 2 + [(201, 402, 400)] * 2
    assert ran == {"ord_mul": 0, "lex_ext": 0, "Poly": 0}
    assert lamorder.lambda_order.lex_ext is not cmp.lex_ext   # the count saw every caller


def test_variable_condition_prunes_subterm_checks():
    """The optimized LPO's subterm rule passes a subterm that lacks a
    variable of the other side: it cannot be at least that side.  Against
    g(T, x) and g(x, T'), with T the chain f^50(a) and T' the chain
    f^50(b), neither chain holds x, so the pair costs 2 calls (104 when
    the subterm rule compared every subterm, each chain walked against the
    other side).  The verdict is U under both algorithms, on chains short
    enough for the naive one."""
    from lamorder.checks import bench_signature
    _, _, lpo = bench_signature()
    x = Var("x", TyCon("kappa"))

    LpoSpy, compared = _counting_lpo(_LpoOpt)
    t, s = _g(_chain(50, Sym("a")), x), _g(x, _chain(50, Sym("b")))
    assert LpoSpy(lpo).compare(t, s) is U
    assert compared[0] == 2
    t, s = _g(_chain(3, Sym("a")), x), _g(x, _chain(3, Sym("b")))
    for algo in LPO_ALGOS:
        assert algo(t, s, lpo) is U
        assert algo(s, t, lpo) is U


def test_subterm_rule_passes_the_other_sides_rigid_own_argument(small):
    """The optimized LPO's subterm rule passes a subterm that is a rigid one
    of the other side's own arguments: the other side beats it by the
    subterm rule.  Against g(y, T) and g(T, b), with T the chain f^50(x),
    T holds every variable of g(T, b), so only this rule passes it: the
    pair costs 2 calls each way (104 when T was compared with g(T, b),
    the chain walked against it).  A flex argument, y2(λ#0), is compared
    (4 calls each way), as ``beats`` compares one.  The verdicts are U
    under both algorithms, on a chain short enough for the naive one."""
    from lamorder.checks import bench_signature
    _, _, lpo = bench_signature()
    x, y = Var("x", TyCon("kappa")), Var("y", TyCon("kappa"))
    sig, _, small_lpo = small
    flex = normalize(app(Var("y2", arrow(arrow(K, K), K)), Lam(K, Db(0, K))), sig)
    flex_pair = (normalize(app(Sym("g"), Var("y", K), flex), sig),
                 normalize(app(Sym("g"), flex, Sym("b")), sig))

    LpoSpy, compared = _counting_lpo(_LpoOpt)
    for p, (t, s), calls in ((lpo, (_g(y, _chain(50, x)), _g(_chain(50, x), Sym("b"))), 2),
                             (small_lpo, flex_pair, 4)):
        for u, v in ((t, s), (s, t)):
            compared[0] = 0
            assert LpoSpy(p).compare(u, v) is U
            assert compared[0] == calls
    for p, (t, s) in ((lpo, (_g(y, _chain(3, x)), _g(_chain(3, x), Sym("b")))),
                      (small_lpo, flex_pair)):
        for algo in LPO_ALGOS:
            assert algo(t, s, p) is U
            assert algo(s, t, p) is U


def test_own_flex_argument_is_not_passed(small):
    """The optimized LPO passes a winner's own argument in ``beats`` only
    when it is rigid.  In g(b, y2(λ#0)) against g(a, y2(λ#0)) the shared
    argument holds a variable applied to a lambda, which compares U with
    itself, so the pair is U both ways under both algorithms; passing the
    argument anyway would make the optimized verdict G."""
    sig, _, lpo = small
    y2 = Var("y2", arrow(arrow(K, K), K))
    flex = normalize(app(y2, Lam(K, Db(0, K))), sig)
    t = normalize(app(Sym("g"), Sym("b"), flex), sig)
    s = normalize(app(Sym("g"), Sym("a"), flex), sig)
    for algo in LPO_ALGOS:
        assert algo(t, s, lpo) is U
        assert algo(s, t, lpo) is U


@pytest.mark.parametrize("algo", [_KboNaive, _KboOpt])
def test_kbo_descent_rejects_unequal_argument_lists(small, algo):
    _, kbo, _ = small
    a, b = Sym("a"), Sym("b")
    for ts, ss in (((a,), (a, b)), ((a,), (b, a)), ((b, a), (a,))):
        scales = [(ONE, ())] * len(ts)
        with pytest.raises(ValueError):
            algo(kbo).descend(ts, ss, scales, 0, False)


# ---------------------------------------------------------------------------
# Randomized pointwise agreement, with related pairs for nonstrict coverage
# ---------------------------------------------------------------------------

def related_pair(rng, g, env_sig, ty):
    """A pair sharing structure: mutate one accessible subterm."""
    t = g.gen(ty, 9, ground=rng.random() < 0.5)
    positions = accessible_positions(t)
    path, depth = rng.choice(positions)
    sub = subterm_at(t, path)
    try:
        new_sub = g.gen(type_of(sub, env_sig), 5, ground=rng.random() < 0.5)
    except Exception:
        return t, t
    s = replace_at(t, path, new_sub)
    return t, s


def test_randomized_naive_opt_agreement():
    cfg = GenConfig(seed=101, polymorphic=True)
    sig, kbo, lpo = gen_signature(cfg)
    rng = random.Random(101)
    vt = gen_var_types(rng, cfg, sig, polymorphic=True)
    g = TermGen(rng, sig, var_types=vt)
    bases = [TyCon("iota"), TyCon("kappa")]
    tys = bases + [arrow(bases[0], bases[1]), TyVar("a0")]
    nonstrict_seen = 0
    for i in range(1500):
        ty = rng.choice(tys)
        if i % 2 == 0:
            t, s = related_pair(rng, g, sig, ty)
        else:
            t, s = g.gen(ty, 8, ground=False), g.gen(ty, 8, ground=False)
        for p, algos in ((kbo, KBO_ALGOS), (lpo, LPO_ALGOS)):
            c = both(algos, t, s, p)
            assert flip(c) == both(algos, s, t, p)
            if c in (GE, LE):
                nonstrict_seen += 1
    assert nonstrict_seen > 10


def test_exhaustive_naive_opt_agreement_on_small_nonground_terms():
    """Every term of type k up to size 4 over the signature and variables of
    tests/small_scope.py (222 terms), and every ordered pair of them: the
    naive and optimized algorithms agree under the KBO and under the LPO
    with the lowest and the highest watershed.  Each verdict is the flip of
    the reverse pair's, and a G, GE or E one keeps the smaller side's
    variables within the bigger side's, as the dual does for L, LE or E.
    Exhaustion reaches the nonstrict verdicts that random draws rarely do:
    309 GE pairs for the KBO and 306 for each LPO.  CI runs the same check
    at size 5."""
    sig = small_scope.signature()
    terms = small_scope.terms(sig, 4)
    assert len(terms) == 222
    assert [small_scope.check(terms, p) for _, p in small_scope.orders(sig)] == [309, 306, 306]


# ---------------------------------------------------------------------------
# The signed weight accumulator
# ---------------------------------------------------------------------------

def _reference_weight(t, p, reps, visited):
    """The weight polynomial built node by node with Poly arithmetic, the
    definition the one-pass accumulator must reproduce.  ``visited`` counts
    the nodes it weighs: a variable's arguments before its steady suffix are
    part of its key and are not weighed.  Symbols and indices of type-variable
    type take the eta slack; variables do not."""
    visited[0] += 1

    def eta(ty):
        if isinstance(ty, TyVar):
            reps.setdefault(HInd(ty.name), ("h", ty.name, ()))
            return const_poly(ord_add(p.w_lam, p.w_db)) * indet_poly(HInd(ty.name))
        return const_poly(0)

    if isinstance(t, Lam):
        return const_poly(p.w_lam) + _reference_weight(t.body, p, reps, visited)
    if isinstance(t, Sym):
        acc = const_poly(p.w(t.name))
        for i, a in enumerate(t.args):
            acc = acc + _reference_weight(a, p, reps, visited).scale(p.k(t.name, i + 1))
        return acc + eta(type_of(t, p.sig))
    if isinstance(t, Db):
        acc = const_poly(p.w_db)
        for a in t.args:
            acc = acc + _reference_weight(a, p, reps, visited)
        return acc + eta(type_of(t, p.sig))
    prefix, suffix = steady_split(t.args, p.sig)
    key = var_key(t.name, t.ty, prefix, p)
    reps.setdefault(WInd(key), (t.name, t.ty, prefix))
    acc = const_poly(1) + indet_poly(WInd(key))
    for i, a in enumerate(suffix):
        reps.setdefault(KInd(key, i + 1), (t.name, t.ty, prefix))
        acc = acc + indet_poly(KInd(key, i + 1)) * (
            _reference_weight(a, p, reps, visited) - const_poly(p.w_db))
    return acc


@pytest.mark.parametrize("ordinal_weights", [False, True])
def test_weight_accumulator_matches_per_node_definition(ordinal_weights):
    cfg = GenConfig(seed=33, polymorphic=True, ordinal_weights=ordinal_weights)
    sig, kbo, _ = gen_signature(cfg)
    rng = random.Random(33)
    g = TermGen(rng, sig, var_types=gen_var_types(rng, cfg, sig, polymorphic=True))
    bases = [TyCon("iota"), TyCon("kappa")]
    tys = bases + [arrow(bases[0], bases[1]), TyVar("a0")]
    transfinite = False
    for _ in range(300):
        ty = rng.choice(tys)
        t, s = g.gen(ty, 10, ground=False), g.gen(ty, 10, ground=False)
        ref_reps, visited = {}, [0]
        ref = _reference_weight(t, kbo, ref_reps, visited)
        reset_weight_calls()
        w = weight_poly(t, kbo)
        assert w == ref
        # one counted call per weighed node: the bench's traced-call check
        # relies on this
        assert weight_calls() == visited[0]
        assert collect_indet_reps(t, kbo) == ref_reps
        assert weight_diff(t, s, kbo) == w - weight_poly(s, kbo)
        assert weight_diff(t, t, kbo).is_zero()
        transfinite |= any(not c.is_natural() and not (-c).is_natural()
                           for _, c in w.items())
    assert transfinite == ordinal_weights


@pytest.mark.parametrize("polymorphic", [False, True])
def test_indet_reps_cover_the_weight_and_give_its_keys(polymorphic):
    """Each indeterminate of a weight has a recorded origin, and a W or K
    origin's key is the indeterminate's own."""
    cfg = GenConfig(seed=44, polymorphic=polymorphic)
    sig, kbo, _ = gen_signature(cfg)
    rng = random.Random(44)
    g = TermGen(rng, sig, var_types=gen_var_types(rng, cfg, sig, polymorphic=polymorphic))
    bases = [TyCon("iota"), TyCon("kappa")]
    tys = bases + [arrow(bases[0], bases[1])] + ([TyVar("a0")] if polymorphic else [])
    kinds = set()
    for _ in range(300):
        t = g.gen(rng.choice(tys), 10, ground=False)
        reps = collect_indet_reps(t, kbo)
        assert set(weight_poly(t, kbo).indets()) <= set(reps)
        for ind, rep in reps.items():
            kinds.add(type(ind))
            if not isinstance(ind, HInd):
                assert var_key(*rep, kbo) is ind.key
    assert kinds == ({WInd, KInd, HInd} if polymorphic else {WInd, KInd})


def test_weight_literal_is_no_declared_symbol():
    """A weight literal is named by its weight, so a symbol the parser
    accepts under a string spelling of that weight keeps its own key: the
    pair is not G, since its instance under x := (\\h. h c) is L."""
    sig, kbo = parse_signature(
        "(signature (types (k 0)) (symbols (c () () k) (lt () () k) (hv () () k)"
        " (g () () (-> k (-> k k))) (f () () (-> k k)) (!wt:2 (X) () (-> k k)))"
        " (weights (f 2) (!wt:2 2) (hv 2)) (coeffs ((!wt:2 1) 3))"
        " (precedence c lt hv g f !wt:2) (watershed c))", KBO)
    t = parse_term("(sym g () () (var x (-> (-> k k) k) (lam k (sym f () () (db 0 k))))"
                   " (sym hv () ()))", sig)
    s = parse_term("(sym g () () (var x (-> (-> k k) k) (lam k (sym !wt:2 ((-> k k)) ()"
                   " (db 0 k)))) (sym lt () ()))", sig)
    assert both(KBO_ALGOS, t, s, kbo) is U
    hk = arrow(K, K)
    sub = Substitution(term_map={("x", arrow(hk, K)): Lam(hk, Db(0, hk, (Sym("c"),)))})
    ti, si = apply_subst(t, sub, sig), apply_subst(s, sub, sig)
    assert both(KBO_ALGOS, ti, si, kbo) is L and oracle_compare(ti, si, kbo) is L


# ---------------------------------------------------------------------------
# The optimized KBO's rebuilt weight differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ordinal_weights", [False, True])
def test_kbo_descent_rebuilds_the_weight_difference(ordinal_weights):
    """Every pair the optimized KBO processes returns weight(t) - weight(s),
    whether the heads decide it or a descent rebuilds it from the children's
    differences, scaled per position."""
    scales_seen = set()

    class Spy(_KboOpt):
        def descend(self, ts, ss, scales, depth, smoothed):
            for k, m in scales:
                if k.is_zero():
                    scales_seen.add("parameter")
                elif m:
                    assert smoothed and len(m) == 1 and isinstance(m[0], KInd)
                    scales_seen.add("variable")
                elif k != ONE:
                    scales_seen.add("coefficient")
            return super().descend(ts, ss, scales, depth, smoothed)

    cfg = GenConfig(seed=48, polymorphic=True, ordinal_weights=ordinal_weights)
    sig, kbo, _ = gen_signature(cfg)
    rng = random.Random(48)
    g = TermGen(rng, sig, var_types=gen_var_types(rng, cfg, sig, polymorphic=True))
    bases = [TyCon("iota"), TyCon("kappa")]
    tys = bases + [arrow(bases[0], bases[1]), TyVar("a0")]
    for _ in range(400):
        t, s = related_pair(rng, g, sig, rng.choice(tys))
        w, c = Spy(kbo).process(t, s, 0)
        assert w == weight_diff(t, s, kbo)
        assert c == compare_kbo_opt(t, s, kbo) or t == s
    assert scales_seen == {"parameter", "variable", "coefficient"}
