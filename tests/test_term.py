"""Term representation: normalization, substitution, structural helpers."""

import copy
import importlib
import pickle
import pkgutil
import random
import sys

import pytest

import lamorder
from lamorder import term
from lamorder.checks import _outside_params
from lamorder.gen import (GenConfig, TermGen, free_ty_vars, free_var_types, gen_grounding_subst,
                          gen_signature)
from lamorder.lambda_order import KBO, OrderParams, norm_key
from lamorder.oracle import DbKey, FKey, LamKey, _check_nonfunctional_range, encode_ground
from lamorder.ordinal import from_int
from lamorder.parse import parse_signature, parse_term, render_term
from lamorder.poly import HInd, KInd, WInd
from lamorder.term import (ARROW, Db, Interned, Lam, Preterm, Signature, Substitution,
                           Sym, TermError, TyCon, TyVar, TypeDecl, Var,
                           accessible_positions, app, apply_subst, arrow, arrows,
                           check_types, db_subst, eta_expansion_count, is_closed, is_ground,
                           is_monomorphic, is_steady, node_types, nodes, normalize,
                           preprocess_quantifiers, rebuild, refers_to_outer_binders,
                           remake, replace_at, shift, size, strip_lams, subterm_at,
                           truncating_apply, type_of)

K = TyCon("k")
O = TyCon("o")


@pytest.fixture
def sig():
    s = Signature()
    s.add_type("k", 0)
    s.add_type("o", 0)
    s.add_symbol("a", TypeDecl((), (), K))
    s.add_symbol("b", TypeDecl((), (), K))
    s.add_symbol("f", TypeDecl((), (), arrow(K, K)))
    s.add_symbol("g", TypeDecl((), (), arrow(K, arrow(K, K))))
    s.add_symbol("c", TypeDecl(("A",), (), TyVar("A")))
    s.add_symbol("sk", TypeDecl((), (K,), arrow(K, K)))
    return s


def test_type_of_basics(sig):
    assert type_of(Sym("a"), sig) == K
    assert type_of(Lam(K, Db(0, K)), sig) == arrow(K, K)
    assert type_of(Var("z", TyVar("alpha")), sig) == TyVar("alpha")
    t = normalize(app(Sym("f"), Sym("a")), sig)
    assert type_of(t, sig) == K


def test_add_symbol_rejects_redeclared_name(sig):
    with pytest.raises(TermError, match="redeclared"):
        sig.add_symbol("a", TypeDecl((), (), arrow(K, K)))
    assert type_of(Sym("a"), sig) == K


def test_equal_constructions_are_one_node():
    a = Sym("a")
    for build in (lambda: Var("x", K, (Sym("a"),)),
                  lambda: Sym("sk", (), (Sym("a"),), (Sym("b"),)),
                  lambda: Db(0, arrow(K, K), (Sym("a"),)),
                  lambda: Lam(TyCon("k"), Db(0, K)),
                  lambda: TyVar("A"),
                  lambda: TyCon("k"),
                  lambda: WInd(Var("x", K)),
                  lambda: KInd(Var("x", K), 2),
                  lambda: HInd("A"),
                  lambda: FKey("sk", (K,), (Sym("a"),)),
                  lambda: DbKey(0, 2),
                  lambda: LamKey(arrow(K, O))):
        assert build() is build()
    assert Sym("a", (), (), ()) is a
    assert Sym("a", (K,)) is not a
    assert Var("x", K) is not Var("x", O)
    assert TyCon("k", ()) is K
    assert KInd(Var("x", K), 1) is not KInd(Var("x", K), 2)


def test_copies_and_unpickled_nodes_are_the_node_itself():
    t = Lam(K, Sym("g", (), (), (Db(0, K), Var("x", K))))
    for v in (t, TyVar("A"), arrow(K, O), WInd(Var("x", K)),
              KInd(Var("x", K), 1), HInd("A"),
              FKey("sk", (K,), (Sym("a"),)), DbKey(1, 0), LamKey(K)):
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        assert pickle.loads(pickle.dumps(v)) is v


def test_hash_is_identity():
    x = Var("x", K)
    for v in (Sym("a"), x, Db(0, K), Lam(K, x), TyVar("A"), K,
              WInd(x), KInd(x, 1), HInd("A"), FKey("a", (), ()),
              DbKey(0, 1), LamKey(K)):
        assert hash(v) == object.__hash__(v), type(v)


def test_interned_classes_have_distinct_tags_and_identity_equality():
    """All interned classes share one table, keyed on each value's class and
    fields, so the class is the tag: equal fields in two classes are two
    values.  A class of its own equality or hash would break the identity
    the table gives."""
    for mod in pkgutil.iter_modules(lamorder.__path__):
        importlib.import_module("lamorder." + mod.name)
    assert "__hash__" not in vars(Interned)
    leaves = []
    todo = list(Interned.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
        if not cls.__subclasses__():
            leaves.append(cls)
    assert len(leaves) >= 12
    x = Var("x", K)
    for a, b in ((TyVar("A"), HInd("A")), (WInd(K), LamKey(K)),
                 (WInd(x), LamKey(x)), (TyVar("a"), TyCon("a"))):
        assert a is not b and type(a) is not type(b), (a, b)


def test_normalize_returns_a_normal_term_itself(sig):
    t = normalize(app(Sym("g"), Sym("a")), sig)
    assert normalize(t, sig) is t


def test_type_cache_follows_the_signature(monkeypatch):
    """Each signature keeps the types of its nodes, so a node typed in turn
    under two signatures is typed once in each."""
    first, second = Signature(), Signature()
    for s in (first, second):
        s.add_type("k", 0)
    first.add_symbol("c0", TypeDecl((), (), K))
    second.add_symbol("c0", TypeDecl((), (), arrow(K, K)))
    c = Sym("c0")
    calls = []
    head_type = term.head_type
    monkeypatch.setattr(term, "head_type", lambda t, s: calls.append(s) or head_type(t, s))
    for _ in range(5):
        assert type_of(c, first) == K
        assert type_of(c, second) == arrow(K, K)
    assert calls == [first, second]
    assert first.types[c] is K and second.types[c] is arrow(K, K)


def test_instantiate_rejects_a_wrong_count_on_every_call():
    decl = TypeDecl(("A",), (), TyVar("A"))
    assert decl.instantiate((K,)) is decl.instantiate((K,))
    for _ in range(2):
        with pytest.raises(TermError, match="expected 1 type arguments, got 0"):
            decl.instantiate(())


def test_type_mismatch_detected(sig):
    bad = Sym("f", (), (), (Sym("a"), Sym("b")))
    with pytest.raises(TermError):
        type_of(bad, sig)
    with pytest.raises(TermError):
        check_types(Sym("f", (), (), (Lam(K, Db(0, K)),)), sig)


def test_normalize_eta_expands_bare_symbol(sig):
    assert normalize(Sym("f"), sig) == Lam(K, Sym("f", (), (), (Db(0, K),)))


def test_normalize_beta_reduces(sig):
    t = normalize(app(Lam(K, Db(0, K)), Sym("a")), sig)
    assert t == Sym("a")


def test_normalize_idempotent_on_example(sig):
    t = Lam(K, Sym("f", (), (), (Db(0, K),)))
    assert normalize(t, sig) == t


def test_normalize_equal_modulo_beta_eta(sig):
    # f, \x. f x and (\y. y) f all normalize identically
    n1 = normalize(Sym("f"), sig)
    n2 = normalize(Lam(K, app(Sym("f"), Db(0, K))), sig)
    n3 = normalize(app(Lam(arrow(K, K), Db(0, arrow(K, K))), Sym("f")), sig)
    assert n1 == n2 == n3


def test_shift_examples(sig):
    t = Sym("f", (), (), (Db(3, K),))
    assert shift(t, 1) == Sym("f", (), (), (Db(4, K),))
    u = Lam(K, Sym("g", (), (), (Db(0, K), Db(1, K))))
    assert shift(u, 1) == Lam(K, Sym("g", (), (), (Db(0, K), Db(2, K))))
    assert shift(Sym("a"), 5) == Sym("a")
    assert shift(t, 0) is t


def test_apply_subst_type_instantiation(sig):
    z = Var("z", TyVar("alpha"))
    out = apply_subst(z, Substitution(ty_map={"alpha": arrow(K, K)}), sig)
    assert out == Lam(K, Var("z", arrow(K, K), (Db(0, K),)))


def test_apply_subst_collapses_ignored_argument(sig):
    y = Var("y", arrow(K, K))
    t = normalize(app(y, Sym("a")), sig)
    theta = Substitution(term_map={("y", arrow(K, K)): Lam(K, Sym("b"))})
    assert apply_subst(t, theta, sig) == Sym("b")


def test_apply_subst_empty_is_identity(sig):
    t = normalize(app(Sym("g"), Sym("a"), Sym("b")), sig)
    assert apply_subst(t, Substitution(), sig) is t


def test_truncating_apply(sig):
    c = normalize(Sym("c", (TyVar("alpha"),)), sig)
    two = Substitution(ty_map={"alpha": arrow(K, arrow(K, K))})
    assert truncating_apply(c, two, sig) == \
        Sym("c", (arrow(K, arrow(K, K)),), (), (Db(1, K), Db(0, K)))
    base = Substitution(ty_map={"alpha": K})
    assert truncating_apply(c, base, sig) == Sym("c", (K,))
    nested = Substitution(ty_map={"alpha": arrow(arrow(K, K), K)})
    got = truncating_apply(c, nested, sig)
    assert got == Sym("c", (arrow(arrow(K, K), K),), (),
                      (Lam(K, Db(1, arrow(K, K), (Db(0, K),))),))


def test_strip_lams(sig):
    t = Lam(K, Lam(K, Sym("f", (), (), (Db(0, K),))))
    assert strip_lams(t) == Sym("f", (), (), (Db(0, K),))
    assert strip_lams(Sym("a")) == Sym("a")
    assert strip_lams(Lam(K, Db(0, K))) == Db(0, K)


def test_is_steady(sig):
    assert is_steady(Sym("a"), sig)
    assert not is_steady(Lam(K, Sym("a")), sig)
    assert not is_steady(Var("x", TyVar("alpha")), sig)


def test_accessible_positions_and_depths(sig):
    fa = normalize(app(Sym("f"), Sym("a")), sig)
    assert [(p, d) for p, d in accessible_positions(fa)] == \
        [((), 0), ((("arg", 0),), 0)]
    t = Lam(K, Sym("g", (), (), (Db(0, K), Sym("a"))))
    pos = accessible_positions(t)
    assert ((), 0) in pos
    assert ((("body", 0),), 1) in pos
    assert ((("body", 0), ("arg", 0)), 1) in pos
    assert ((("body", 0), ("arg", 1)), 1) in pos


def test_parameters_are_not_positions(sig):
    t = normalize(Sym("sk", (), (Sym("a"),), (Sym("b"),)), sig)
    paths = [p for p, _ in accessible_positions(t)]
    for path in paths:
        sub = subterm_at(t, path)
        assert sub != Sym("a") or path == ()  # the parameter itself is unreachable


def test_replace_shifts_leaking_indices(sig):
    ctx = Lam(K, Sym("f", (), (), (Sym("a"),)))
    path = (("body", 0), ("arg", 0))
    s = Sym("f", (), (), (Db(0, K),))  # leaks
    out = replace_at(ctx, path, s)
    assert out == Lam(K, Sym("f", (), (), (Sym("f", (), (), (Db(1, K),)),)))
    closed = replace_at(ctx, path, Sym("b"))
    assert closed == Lam(K, Sym("f", (), (), (Sym("b"),)))


def test_extraction_round_trip_random(sig):
    rng = random.Random(11)
    g = TermGen(rng, sig)
    for _ in range(300):
        ty = rng.choice([K, arrow(K, K)])
        t = g.gen(ty, 9, ground=True)
        for path, depth in accessible_positions(t):
            sub = subterm_at(t, path)
            if refers_to_outer_binders(sub, depth):
                continue
            lowered = shift(sub, -depth) if depth else sub
            assert replace_at(t, path, lowered) == t


def test_size_equations(sig):
    assert size(Sym("a")) == 1
    assert size(Var("x", K)) == 1
    assert size(Db(0, K)) == 1
    assert size(Lam(K, Db(0, K))) == 2
    fa = normalize(app(Sym("f"), Sym("a")), sig)
    assert size(fa) == size(Sym("f", (), (), ())) + size(Sym("a"))
    withparam = Sym("sk", (), (Sym("a"),), (Sym("b"),))
    assert size(withparam) == 1 + 1 + 1


def test_eta_expansion_count():
    assert eta_expansion_count(arrow(arrow(K, K), K)) == 2
    assert eta_expansion_count(K) == 0
    assert eta_expansion_count(arrow(K, arrow(K, K))) == 2
    with pytest.raises(TermError):
        eta_expansion_count(TyVar("alpha"))


def test_groundness_predicates(sig):
    assert is_ground(Sym("a"))
    assert not is_ground(Var("x", K))
    assert not is_ground(Sym("c", (TyVar("alpha"),)))
    assert is_monomorphic(Sym("c", (K,)))


def test_nodes_are_pre_order_with_lambda_depths():
    p, q, inner = Var("p", K), Var("q", K), Lam(O, Db(1, K))
    fa = Sym("f", (), (), (Db(0, K),))
    spine = Sym("sk", (), (p, q), (fa, inner))
    t = Lam(K, spine)
    args = [(fa, 1), (Db(0, K), 1), (inner, 1), (Db(1, K), 2)]
    assert list(nodes(t)) == [(t, 0), (spine, 1), (p, 1), (q, 1)] + args
    assert list(nodes(t, params=False)) == [(t, 0), (spine, 1)] + args
    assert list(nodes(p)) == [(p, 0)]


def test_node_types_are_the_types_written_in_the_node():
    A = TyVar("A")
    assert node_types(Lam(A, Db(0, K))) == (A,)
    assert node_types(Sym("c", (K,), (), (Var("x", A),))) == (K,)
    assert node_types(Var("x", A, (Sym("a"),))) == (A,)
    assert node_types(Db(0, O)) == (O,)


def test_repr_of_every_class():
    A = TyVar("A")
    cases = {
        A: "'A",
        K: "k",
        arrow(K, K): "(-> k k)",
        TyCon("pair", (K, A)): "(pair k 'A)",
        Var("x", K): "x",
        Var("h", arrow(K, K), (Sym("a"),)): "(h a)",
        Db(0, K): "#0",
        Db(1, arrows([K, K], K), (Sym("a"), Db(0, K))): "(#1 a #0)",
        Sym("f", (K, A), (Sym("p"), Sym("q"))): "f<k,'A>(p,q)",
        Sym("f", (K, A), (Sym("p"), Sym("q")), (Sym("a"), Db(0, K))): "(f<k,'A>(p,q) a #0)",
        Sym("sk", (), (Sym("a"),), (Sym("b"),)): "(sk(a) b)",
        Lam(K, Db(0, K)): "(\\k. #0)",
        Lam(arrow(K, K), Lam(K, Db(1, arrow(K, K), (Db(0, K),)))): "(\\(-> k k). (\\k. (#1 #0)))",
    }
    for v, want in cases.items():
        assert repr(v) == want


def test_folds_and_writers_take_deep_terms(sig):
    """The folds walk with ``nodes`` and the writers with ``write``, both on
    explicit stacks, so a depth-10,000 chain and lambda tower fit the default
    recursion limit."""
    depth = 10000
    A = TyVar("A")
    chain, tower = Var("x", K), Db(depth - 1, A)
    for _ in range(depth):
        chain, tower = Sym("f", (), (), (chain,)), Lam(A, tower)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert not is_closed(chain) and is_closed(tower)
        assert is_monomorphic(chain) and not is_monomorphic(tower)
        assert not refers_to_outer_binders(tower, 1)
        assert refers_to_outer_binders(tower.body, 1)
        assert size(chain) == size(tower) == depth + 1
        assert free_var_types(chain) == {"x": K} and free_var_types(tower) == {}
        assert free_ty_vars(chain) == [] and free_ty_vars(tower) == ["A"]
        assert _outside_params(chain, "x") and not _outside_params(tower, "x")
        _check_nonfunctional_range(Substitution(term_map={("y", K): chain}), sig)
        assert repr(chain) == "(f " * depth + "x" + ")" * depth
        assert repr(tower) == "(\\'A. " * depth + "#%d" % (depth - 1) + ")" * depth
        assert render_term(chain) == "(sym f () () " * depth + "(var x k)" + ")" * depth
        assert render_term(tower) == "(lam 'A " * depth + "(db %d 'A)" % (depth - 1) + ")" * depth
    finally:
        sys.setrecursionlimit(limit)


def test_rebuilding_maps_take_deep_terms(sig):
    """Shifting, substitution, application, normalization, norm keys,
    quantifier preprocessing and the ground encoding map terms through
    ``rebuild``, and ``type_of`` peels lambdas in a loop, so a depth-10,000
    chain, lambda tower and eta nest fit the default recursion limit.  The
    nest ``h (h (... (h f)))``, with ``h : (k -> k) -> k -> k``, has an
    under-applied spine at every level; ``shift`` returns its closed
    subterms at once, so normalizing it takes linear time."""
    depth = 10000

    def f(u):
        return Sym("f", (), (), (u,))

    sig.add_symbol("h", TypeDecl((), (), arrow(arrow(K, K), arrow(K, K))))
    chain, on_db, on_var, redex, tower = Sym("a"), Db(0, K), Var("x", K), Sym("a"), Db(depth, K)
    nest, nest_long = Sym("f"), Lam(K, f(Db(0, K)))
    for _ in range(depth):
        chain, on_db, on_var, tower = f(chain), f(on_db), f(on_var), Lam(K, tower)
        redex = app(Lam(K, f(Db(0, K))), redex)
        nest = Sym("h", (), (), (nest,))
        nest_long = Lam(K, Sym("h", (), (), (nest_long, Db(0, K))))
    p = OrderParams(sig, KBO, prec=["h", "sk", "g", "f", "c", "b", "a"],
                    coeffs={("f", 1): from_int(2)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert type_of(tower, sig) == arrows([K] * depth, K)
        assert strip_lams(shift(tower, 1)) == Db(depth + 1, K)
        assert db_subst(on_db, 0, Sym("a")) is chain
        assert apply_subst(on_var, Substitution(term_map={("x", K): Sym("a")}), sig) is chain
        assert redex is chain and normalize(tower, sig) is tower
        assert normalize(nest, sig) is nest_long
        under = Sym("g", (), (), (chain,))
        assert normalize(under, sig) is Lam(K, Sym("g", (), (), (chain, Db(0, K))))
        assert parse_term(render_term(under), sig) is normalize(under, sig)
        assert norm_key(on_var, p) is on_var
        assert strip_lams(norm_key(tower, p)) is norm_key(Db(depth, K), p)
        assert preprocess_quantifiers(chain, sig) is chain
        assert preprocess_quantifiers(tower, sig) is tower
        encoded = TyCon(FKey("a", (), ()))
        for _ in range(depth):
            encoded = TyCon(FKey("f", (), ()), (encoded,))
        assert encode_ground(chain) is encoded
    finally:
        sys.setrecursionlimit(limit)


def test_paths_take_deep_terms():
    """``accessible_positions`` and ``replace_at`` use no recursion; their
    output is quadratic in the depth, so they are tested at depth 3,000."""
    depth = 3000
    chain, tower = Sym("a"), Db(depth - 1, K)
    for _ in range(depth):
        chain, tower = Sym("f", (), (), (chain,)), Lam(K, tower)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        positions = accessible_positions(chain)
        assert positions[-1] == ((("arg", 0),) * depth, 0) and len(positions) == depth + 1
        got = replace_at(chain, positions[-1][0], Sym("b"))
        assert subterm_at(got, positions[-1][0]) is Sym("b")
        assert subterm_at(got, positions[-2][0]) is Sym("f", (), (), (Sym("b"),))
        del positions
        path, d = accessible_positions(tower)[-1]
        assert path == (("body", 0),) * depth and d == depth
        assert strip_lams(replace_at(tower, path, Db(0, K))) is Db(depth, K)
    finally:
        sys.setrecursionlimit(limit)


def test_eta_expansion_takes_deep_argument_types():
    """Eta-expansion builds the indices an under-applied spine takes with
    one map over its type, and ``eta_expansion_count`` counts its lambdas
    on a stack, so a bare symbol whose argument type nests
    ``((k -> k) -> k) ... -> k`` 3,000 deep parses and is counted at the
    default recursion limit; at depth 2 the expansion is the hand-built
    one."""
    def nested(depth):
        ty = "k"
        for _ in range(depth):
            ty = "(-> %s k)" % ty
        text = "(signature (types (k 0)) (symbols (h () () (-> %s k))) (precedence h))"
        return parse_signature(text % ty, "kbo")[0]

    A, C = arrow(arrow(K, K), K), arrow(K, K)
    want = Lam(A, Sym("h", (), (), (Lam(C, Db(1, A, (Lam(K, Db(1, C, (Db(0, K),))),))),)))
    assert parse_term("(sym h () ())", nested(2)) is want
    deep = nested(3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = parse_term("(sym h () ())", deep)
        assert normalize(t, deep) is t
        lams = sum(isinstance(u, Lam) for u, _ in nodes(t))
        assert lams == eta_expansion_count(deep.decl("h").body) == 3001
    finally:
        sys.setrecursionlimit(limit)


def test_hereditary_substitution_reduces_at_once():
    """An index applied to arguments and replaced by a lambda is reduced
    there, so ``db_subst`` leaves no redex."""
    fun = Lam(K, Sym("f", (), (), (Db(0, K),)))
    got = db_subst(Db(0, arrow(K, K), (Sym("a"),)), 0, fun)
    assert got is Sym("f", (), (), (Sym("a"),))


def test_loose_counts_the_binders_an_index_reaches():
    """``loose`` is 0 on a closed term, the index plus 1 on a leaking index,
    and drops by 1 under each lambda, down to 0; parameters count."""
    assert Sym("a").loose == 0 and Lam(K, Db(0, K)).loose == 0
    assert Db(3, K).loose == 4 and Sym("f", (), (), (Db(3, K),)).loose == 4
    assert Sym("sk", (), (Db(2, K),), (Sym("b"),)).loose == 3
    assert Db(0, arrow(K, K), (Db(5, K),)).loose == 6
    tower = Db(9, K)
    for i in range(12):
        tower = Lam(K, tower)
        assert tower.loose == max(9 - i, 0)
    assert Lam(K, Sym("g", (), (), (Db(0, K), Db(2, K)))).loose == 2
    assert shift(tower, 5) is tower and db_subst(tower, 0, Sym("a")) is tower


def test_rebuild_with_remake_is_the_identity():
    t = Lam(K, Sym("sk", (), (Db(0, K),), (Sym("f", (), (), (Sym("b"),)),)))
    assert rebuild(t, lambda u, d, kids: remake(u, kids)) is t
    assert rebuild(t, lambda u, d, kids: 1 + sum(kids)) == len(list(nodes(t)))


def test_normalize_idempotent_randomized(sig):
    rng = random.Random(5)
    g = TermGen(rng, sig, var_types={"x": K, "h": arrow(K, K)})
    for _ in range(10000):
        ty = rng.choice([K, arrow(K, K), arrow(arrow(K, K), K)])
        t = g.gen(ty, 7, ground=False)
        assert normalize(t, sig) == t
        assert type_of(t, sig) == ty
    check_types(t, sig)


def test_truncating_strips_exactly_the_introduced_lambdas():
    from lamorder.gen import GenConfig, gen_monomorphizing_subst, gen_signature
    from lamorder.term import Substitution, arrow_count, subst_type
    cfg = GenConfig(seed=99, polymorphic=True)
    sig2, _, _ = gen_signature(cfg)
    rng = random.Random(99)
    alpha = TyVar("a0")
    g = TermGen(rng, sig2, var_types={"x": alpha, "h": arrow(TyCon("iota"), alpha)},
                poly_ty_vars=["a0"])
    for _ in range(1000):
        t = g.gen(alpha, 6, ground=False)
        theta = gen_monomorphizing_subst(rng, sig2, ["a0"])
        full = apply_subst(t, theta, sig2)
        introduced = arrow_count(subst_type(alpha, theta.ty_map))
        peeled = full
        for _ in range(introduced):
            assert isinstance(peeled, Lam)
            peeled = peeled.body
        assert truncating_apply(t, theta, sig2) == peeled


def test_subst_composition_randomized():
    cfg = GenConfig(seed=23)
    sig2, _, _ = gen_signature(cfg)
    rng = random.Random(23)
    g = TermGen(rng, sig2, var_types={"x": TyCon("iota"),
                                      "h": arrow(TyCon("iota"), TyCon("kappa"))})
    for _ in range(200):
        t = g.gen(rng.choice([TyCon("iota"), TyCon("kappa")]), 9, ground=False)
        fv = free_var_types(t)
        theta = gen_grounding_subst(rng, sig2, fv)
        names = sorted(fv)
        first = {(n, fv[n]): theta.term_map[(n, fv[n])] for n in names[:1]}
        rest = {(n, fv[n]): theta.term_map[(n, fv[n])] for n in names[1:]}
        one = apply_subst(t, theta, sig2)
        two = apply_subst(apply_subst(t, Substitution(term_map=first), sig2),
                          Substitution(term_map=rest), sig2)
        assert one == two


def test_quantifier_preprocessing():
    s = Signature()
    s.add_type("i", 0)
    s.add_type("o", 0)
    i, o = TyCon("i"), TyCon("o")
    s.add_symbol("top", TypeDecl((), (), o))
    s.add_symbol("bot", TypeDecl((), (), o))
    s.add_symbol("p", TypeDecl((), (), arrow(i, o)))
    s.add_symbol("forall", TypeDecl(("A",), (), arrow(arrow(TyVar("A"), o), o)))
    s.add_symbol("exists", TypeDecl(("A",), (), arrow(arrow(TyVar("A"), o), o)))
    s.add_symbol("eq", TypeDecl(("A",), (), arrows([TyVar("A"), TyVar("A")], o)))
    s.add_symbol("neq", TypeDecl(("A",), (), arrows([TyVar("A"), TyVar("A")], o)))

    body = Lam(i, Sym("p", (), (), (Db(0, i),)))
    t = normalize(Sym("forall", (i,), (), (body,)), s)
    got = preprocess_quantifiers(t, s)
    want = Sym("eq", (arrow(i, o),), (), (body, Lam(i, Sym("top"))))
    assert got == want

    t2 = normalize(Sym("exists", (i,), (), (body,)), s)
    got2 = preprocess_quantifiers(t2, s)
    want2 = Sym("neq", (arrow(i, o),), (), (body, Lam(i, Sym("bot"))))
    assert got2 == want2

    plain = normalize(Sym("p", (), (), (Var("z", i),)), s)
    assert preprocess_quantifiers(plain, s) == plain
