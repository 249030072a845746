"""Term representation: normalization, substitution, structural helpers."""

import copy
import importlib
import pickle
import pkgutil
import random
import sys

import pytest

import lamorder
import small_scope
from lamorder import term
from lamorder.checks import _outside_params
from lamorder.gen import (GenConfig, TermGen, free_ty_vars, free_var_types, gen_grounding_subst,
                          gen_signature, gen_var_types)
from lamorder.lambda_order import KBO, OrderParams, norm_key
from lamorder.oracle import DbKey, FKey, LamKey, _check_nonfunctional_range, encode_ground
from lamorder.ordinal import from_int
from lamorder.parse import parse_signature, parse_term, render_term
from lamorder.poly import HInd, KInd, WInd
from lamorder.term import (ARROW, Db, Interned, Lam, Preterm, Signature, Substitution,
                           Sym, TermError, TyCon, TyVar, TypeDecl, Var,
                           accessible_positions, app, apply_subst, arrow, arrows,
                           check_types, children, db_subst, eta_expansion_count, is_closed,
                           is_ground, is_monomorphic, is_steady, node_types, nodes, normalize,
                           rebuild, refers_to_outer_binders, remake, replace_at, shift, size,
                           strip_lams, subterm_at, truncating_apply, type_of)

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


@pytest.mark.parametrize("decl,fault", [
    (TypeDecl((), (), TyCon("nosuch")), "unknown type constructor nosuch"),
    (TypeDecl((), (), TyCon("k", (K,))), "type constructor k expects 0 arguments, got 1"),
    (TypeDecl((), (TyCon("o", (K,)),), arrow(K, K)), "type constructor o expects 0"),
    (TypeDecl(("A",), (), arrow(TyVar("A"), TyCon("nosuch"))), "unknown type constructor"),
])
def test_add_symbol_rejects_ill_formed_types(sig, decl, fault):
    """A declaration's parameter and body types obey the constructor rule
    that typing checks; a rejected declaration is not entered."""
    with pytest.raises(TermError, match=fault):
        sig.add_symbol("h", decl)
    assert "h" not in sig.symbols


def test_a_type_constructor_and_a_symbol_never_share_a_name():
    """The clash is named whichever of the two is declared first."""
    first, second = Signature(), Signature()
    first.add_type("k", 0)
    with pytest.raises(TermError, match="symbol name k clashes with a type constructor"):
        first.add_symbol("k", TypeDecl((), (), K))
    second.add_type("j", 0)
    second.add_symbol("a", TypeDecl((), (), TyCon("j")))
    with pytest.raises(TermError, match="type constructor name a clashes with a symbol"):
        second.add_type("a", 0)
    assert "a" not in second.type_constructors


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


def test_one_constructor_builds_every_interned_class():
    """Every interned class declares only its fields, and its constructor is
    a copy of ``Interned``'s one for its number of fields: equal fields give
    one value, an omitted trailing field is its default, and a wrong field
    count raises before the table grows.  An abstract base gets none: the
    slots of ``Preterm`` are facts, not fields."""
    for mod in pkgutil.iter_modules(lamorder.__path__):
        importlib.import_module("lamorder." + mod.name)
    x = Var("x", K)
    full = {TyVar: ("A",), TyCon: ("pair", (K, O)), Var: ("x", K, (Sym("a"),)),
            Sym: ("f", (K,), (Sym("p"),), (Sym("a"),)), Db: (0, K, (Sym("a"),)),
            Lam: (K, Db(0, K)), WInd: (x,), KInd: (x, 2), HInd: ("A",),
            FKey: ("sk", (K,), (Sym("a"),)), DbKey: (0, 2), LamKey: (K,)}
    todo, leaves = list(Interned.__subclasses__()), set()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__subclasses__():
            assert "__new__" not in vars(cls), cls
        else:
            leaves.add(cls)
    assert leaves == set(full)
    assert Sym("a") is Sym("a", (), (), ()) and Db(0, K) is Db(0, K, ())
    for cls, fields in full.items():
        assert vars(cls)["__new__"].__code__ is Interned.constructors[len(fields)].__code__
        v = cls(*fields)
        assert type(v) is cls and v is cls(*fields)
        assert tuple(getattr(v, f) for f in cls.__slots__) == fields
        for n in range(1, len(cls.defaults) + 1):
            assert cls(*fields[:-n]) is cls(*fields[:-n], *cls.defaults[-n:])
        size = len(term.TABLE)
        for wrong in (fields + (None,), fields[:len(fields) - len(cls.defaults) - 1]):
            with pytest.raises(TypeError, match=r"^%s\.__new__\(\) (takes|missing) "
                               % cls.__name__):
                cls(*wrong)
        assert len(term.TABLE) == size


def _rigid_by_walk(t):
    """The reference for ``rigid``: whether every variable of ``t`` takes
    steady arguments only, read off the argument types in its
    ``all_vars``."""
    for _, ty in t.all_vars:
        while term.is_arrow(ty):
            a, ty = ty.args
            if not term.is_steady_type(a):
                return False
    return True


def _fact_corpora():
    """Terms drawn over each of the 8 generated signatures the benchmark's
    pools use, with a variable of non-steady argument added, and the
    small-scope corpus of size 4."""
    out = []
    for k in range(8):
        cfg = GenConfig(seed=k, polymorphic=True, ordinal_weights=k % 2 == 1)
        sig = gen_signature(cfg)[0]
        rng = random.Random(k)
        var_types = gen_var_types(rng, cfg, sig, polymorphic=True)
        bases = sig.base_types()
        var_types["z"] = arrow(arrow(bases[0], bases[-1]), bases[0])
        ty_vars = ["a%d" % i for i in range(cfg.ty_var_count)]
        g = TermGen(rng, sig, var_types=var_types, poly_ty_vars=ty_vars)
        tys = bases + [arrow(a, b) for a in bases for b in bases] + [TyVar(ty_vars[0])]
        out += [g.gen(rng.choice(tys), 30, ground=False) for _ in range(1000)]
    return out + small_scope.terms(small_scope.signature(), 4)


def test_node_facts_match_their_definitions():
    """Each node's facts, set in one pass at interning, equal their
    definitions read off ``nodes``, the walk over ``children``: ``loose``
    from the indices that reach past the node, the variable sets, ``size``
    and ``rigid``.  A variable set of a node that adds no variable is a
    child's set object when one holds the whole.  The corpora reach every
    case: loose indices, variables only in parameters, and nodes that are
    not rigid."""
    seen = {u for t in _fact_corpora() for u, _ in nodes(t)}
    for u in seen:
        loose = max([0] + [v.index + 1 - d for v, d in nodes(u) if isinstance(v, Db)])
        all_vars = {(v.name, v.ty) for v, _ in nodes(u) if isinstance(v, Var)}
        arg_vars = {(v.name, v.ty) for v, _ in nodes(u, params=False) if isinstance(v, Var)}
        assert (u.loose, u.all_vars, u.arg_vars, u.size, u.rigid) == (
            loose, all_vars, arg_vars, sum(1 for _ in nodes(u)), _rigid_by_walk(u)), u
        kids = children(u)
        if not isinstance(u, Var) and any(k.all_vars == u.all_vars for k in kids):
            assert any(k.all_vars is u.all_vars for k in kids), u
        if not u.all_vars:
            assert u.all_vars is u.arg_vars is term._NO_VARS
    assert len(seen) > 5000
    assert sum(u.loose > 0 for u in seen) > 300
    assert sum(u.arg_vars != u.all_vars for u in seen) > 1000
    assert sum(not u.rigid for u in seen) > 500


def test_a_malformed_arrow_interns_and_typing_rejects_it(sig):
    """A variable whose type is an arrow with one argument or none interns
    like any other: setting its facts does not fail on the type's shape.
    Typing then rejects it with the constructor rule's message."""
    for ty in (TyCon("->", (K,)), TyCon("->")):
        y = Var("y", ty)
        assert y is Var("y", ty) and y.all_vars == {("y", ty)} and y.size == 1
        t = Sym("sk", (), (y,), (Sym("a"),))
        with pytest.raises(TermError, match="type constructor -> expects 2 arguments, got %d"
                           % len(ty.args)):
            check_types(t, sig)


def test_normalize_returns_a_normal_term_itself(sig):
    t = normalize(app(Sym("g"), Sym("a")), sig)
    assert normalize(t, sig) is t


def test_type_cache_follows_the_signature(monkeypatch):
    """Each signature keeps the types of its nodes, so a node typed in turn
    under two signatures is typed once in each."""
    first, second = Signature(), Signature()
    J = TyCon("j")
    for s in (first, second):
        s.add_type("k", 0)
        s.add_type("j", 0)
    first.add_symbol("c0", TypeDecl((), (), K))
    second.add_symbol("c0", TypeDecl((), (), J))
    c = Sym("c0")
    calls = []
    head_type = term.head_type
    monkeypatch.setattr(term, "head_type", lambda t, s: calls.append(s) or head_type(t, s))
    for _ in range(5):
        assert type_of(c, first) == K
        assert type_of(c, second) == J
    assert calls == [first, second]
    assert first.types[c] is K and second.types[c] is J


def test_instantiate_rejects_a_wrong_count_on_every_call():
    decl = TypeDecl(("A",), (), TyVar("A"))
    assert decl.instantiate((K,)) is decl.instantiate((K,))
    for _ in range(2):
        with pytest.raises(TermError, match="expected 1 type arguments, got 0"):
            decl.instantiate(())


def test_declaration_rejects_a_repeated_type_variable():
    with pytest.raises(TermError, match=r"type variables \['A'\] repeated"):
        TypeDecl(("A", "A"), (), arrow(TyVar("A"), TyVar("A")))


def test_type_mismatch_detected(sig):
    bad = Sym("f", (), (), (Sym("a"), Sym("b")))
    with pytest.raises(TermError):
        type_of(bad, sig)
    with pytest.raises(TermError):
        check_types(Sym("f", (), (), (Lam(K, Db(0, K)),)), sig)


@pytest.mark.parametrize("t, fault", [
    (Sym("c", (TyCon("nosuch"),)), "unknown type constructor nosuch"),
    (Var("x", arrow(K, TyCon("nosuch"))), "unknown type constructor nosuch"),
    (Lam(TyCon("nosuch"), Sym("a")), "unknown type constructor nosuch"),
    (Sym("f", (), (), (Sym("c", (TyCon("k", (K,)),)),)),
     "type constructor k expects 0 arguments, got 1"),
    (Sym("sk", (), (Var("y", TyCon("->", (K,))),), (Sym("a"),)),
     "type constructor -> expects 2 arguments, got 1"),
])
def test_check_types_rejects_undeclared_type_constructors(sig, t, fault):
    with pytest.raises(TermError, match=fault):
        check_types(t, sig)


@pytest.mark.parametrize("t", [Db(-1, K), Lam(K, Db(-1, K)), Sym("f", (), (), (Db(-2, K),))])
def test_a_negative_index_is_a_named_error(sig, t):
    with pytest.raises(TermError, match="index must be a natural number"):
        type_of(t, sig)
    assert t not in sig.types


def test_typing_enters_only_checked_nodes(sig):
    """A node enters ``sig.types`` once it passes, so a failed check leaves
    out the faulty node and every node above it; ``normalize`` reads the
    type of an under-applied spine without entering it."""
    inner = Sym("f", (), (), (Sym("a"), Sym("b")))
    bad = Lam(K, Sym("g", (), (), (Db(0, K), inner)))
    with pytest.raises(TermError, match="type mismatch at argument 2 of \\(f a b\\)"):
        type_of(bad, sig)
    assert Db(0, K) in sig.types
    assert not {inner, bad.body, bad} & set(sig.types)
    assert normalize(Sym("f"), sig) is Lam(K, Sym("f", (), (), (Db(0, K),)))
    assert Sym("f") not in sig.types
    with pytest.raises(term.UnderApplied):
        type_of(Sym("g", (), (), (Sym("a"),)), sig)
    assert Sym("g", (), (), (Sym("a"),)) not in sig.types


def test_a_binder_reads_its_body_index_types(sig):
    """A lambda checks the indices its body holds for it through the body's
    ``index_types``, kept only for nodes with loose indices; two types on
    one leaking index are no fault until a lambda binds it."""
    clash = Var("v", arrows([K, O], K), (Db(1, K), Db(1, O)))
    assert type_of(clash, sig) is K and type_of(Lam(K, clash), sig) is arrow(K, K)
    with pytest.raises(TermError, match=r"bound index #1 annotated o but binder has k"):
        type_of(Lam(K, Lam(K, clash)), sig)
    with pytest.raises(TermError, match=r"bound index #2 annotated o but binder has k"):
        type_of(Lam(K, Lam(O, Lam(K, Var("v", arrow(O, K), (Db(2, O),))))), sig)
    assert type_of(Lam(O, Lam(K, Lam(K, Sym("g", (), (), (Db(0, K), Db(1, K)))))), sig) \
        is arrows([O, K, K], K)
    assert sig.index_types and all(u.loose for u in sig.index_types)
    assert set(sig.index_types) <= set(sig.types)


def _index_types_by_walk(u):
    """The types of each loose index of ``u``, by its number at ``u``, read
    off every node of ``u``: the reference ``index_types`` must match."""
    out = {}
    for v, d in nodes(u):
        if isinstance(v, Db) and v.index >= d:
            out.setdefault(v.index - d, set()).add(v.ty)
    return out


def _stored_index_types(sig, u):
    layers, offset = sig.index_types[u]
    out = {}
    for layer in layers:
        for key, pairs in layer.items():
            if key >= offset:
                out.setdefault(key - offset, set()).update(ty for ty, _ in pairs)
    return out


def _random_open_term(rng, binders, size):
    """A well-typed term and its type: lambdas over ``k`` or ``o``, indices,
    bound or leaking (a leaking one of either type), and spines of a
    variable applied to such terms."""
    if size <= 1 or rng.random() < 0.25:
        i = rng.randrange(len(binders) + 2)
        ty = binders[-1 - i] if i < len(binders) else rng.choice([K, O])
        return Db(i, ty), ty
    if rng.random() < 0.4:
        a = rng.choice([K, O])
        body, ty = _random_open_term(rng, binders + [a], size - 1)
        return Lam(a, body), arrow(a, ty)
    args = [_random_open_term(rng, binders, size // 3) for _ in range(rng.randint(1, 3))]
    return Var("v", arrows([ty for _, ty in args], K), tuple(t for t, _ in args)), K


def test_index_types_match_a_walk(sig):
    """Every typed node with loose indices keeps their types, as a walk of
    the node finds them, on random open terms and on two combs, each level
    of which holds an index of its own binder; a comb keeps a few layers per
    node, so typing it takes neither quadratic time nor memory."""
    rng = random.Random(11)
    for _ in range(300):
        t, ty = _random_open_term(rng, [], 30)
        assert type_of(t, sig) is ty
    assert len(sig.index_types) > 500
    for u in sig.index_types:
        assert _stored_index_types(sig, u) == _index_types_by_walk(u)
    assert {u for u in sig.types if u.loose} == set(sig.index_types)
    depth = 2000
    for indices in (range(depth), reversed(range(depth))):
        comb = Sym("a")
        for i in indices:
            comb = Var("v", arrows([K, K], K), (Db(i, K), comb))
        for _ in range(depth):
            comb = Lam(K, comb)
        sig = Signature()
        sig.add_type("k", 0)
        sig.add_symbol("a", TypeDecl((), (), K))
        assert type_of(comb, sig) is arrows([K] * depth, K)
        assert max(len(layers) for layers, _ in sig.index_types.values()) <= 12
        for u in list(sig.index_types)[::97]:
            assert _stored_index_types(sig, u) == _index_types_by_walk(u)


def test_deep_terms_type_once_per_node(sig, monkeypatch):
    """A depth-10,000 lambda nest whose innermost index reaches its
    outermost binder, and a depth-10,000 chain, type at the default
    recursion limit; each node is checked once, and typing either again
    checks nothing."""
    depth = 10000
    chain, nest = Sym("a"), Sym("g", (), (), (Db(0, K), Db(depth - 1, K)))
    for _ in range(depth):
        chain = Sym("f", (), (), (chain,))
    for _ in range(depth):
        nest = Lam(K, nest)
    bad = strip_lams(nest)
    for _ in range(depth - 1):
        bad = Lam(K, bad)
    bad = Lam(O, bad)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        before = len(sig.types)
        assert type_of(chain, sig) is K
        assert type_of(nest, sig) is arrows([K] * depth, K)
        # the chain's depth + 1 nodes, the nest's lambdas, its spine and two indices
        assert len(sig.types) - before == (depth + 1) + (depth + 3)
        with pytest.raises(TermError, match="bound index #%d annotated k but binder has o"
                                            % (depth - 1)):
            type_of(bad, sig)
        calls = []
        monkeypatch.setattr(term, "head_type", lambda t, s: calls.append(t))
        assert check_types(chain, sig) is K and check_types(nest, sig) is arrows([K] * depth, K)
        assert calls == []
    finally:
        sys.setrecursionlimit(limit)


def test_each_type_is_checked_once_per_signature():
    """Eta expansion gives a variable of type T = (-> (-> ... k) k) one
    lambda and one index per level of T, each typed with a subtree of T.
    ``check_type`` passes a type its signature has checked, so reading
    ``(var x T)`` visits 4 x depth + 2 type nodes, not the depth^2 of a walk
    of each node's whole type (2,004,002 at depth 1,000).  A failed check
    marks nothing: once the constructor it lacked is declared, the same
    type passes."""
    class Counting(set):
        def __contains__(self, u):
            visits[0] += 1
            return set.__contains__(self, u)

    text = "(signature (types (k 0)) (symbols (a () () k)) (precedence a))"
    for depth in (1000, 2000):
        ty = "k"
        for _ in range(depth):
            ty = "(-> %s k)" % ty
        deep = parse_signature(text, "kbo")[0]
        deep.checked_types = Counting(deep.checked_types)
        visits = [0]
        parse_term("(var x %s)" % ty, deep)
        assert visits[0] == 4 * depth + 2
        assert len(deep.checked_types) == depth + 1

    fresh = Signature()
    fresh.add_type("k", 0)
    bad = arrow(K, TyCon("later"))
    with pytest.raises(TermError, match="unknown type constructor later"):
        term.check_type(bad, fresh)
    assert not fresh.checked_types
    fresh.add_type("later", 0)
    term.check_type(bad, fresh)
    assert fresh.checked_types == {bad, K, TyCon("later")}


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
    """Shifting, substitution, application, normalization, norm keys and
    the ground encoding map terms through
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
    by another, so a bare symbol whose argument type nests
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


def test_variable_sets_leave_out_parameters_and_indices():
    """``all_vars`` holds every variable of a node, ``arg_vars`` those
    outside every symbol's parameters; an index, loose or bound, is not a
    variable, and a variable is its name and its type together."""
    A, B = TyCon("sets_a"), TyCon("sets_b")
    xa, xb, ya = Var("x", A), Var("x", B), Var("y", A)
    vx, vxb, vy = ("x", A), ("x", B), ("y", A)
    # one name at two types is two variables
    assert xa.all_vars == xa.arg_vars == {vx} and xb.all_vars == {vxb}
    # parameters are left out of arg_vars, at any depth
    sk = Sym("sk", (), (xa,), (ya,))
    assert (sk.all_vars, sk.arg_vars) == ({vx, vy}, {vy})
    t = Lam(A, Sym("f", (), (), (sk, Var("x", B, (Db(0, A),)))))
    assert (t.all_vars, t.arg_vars) == ({vx, vxb, vy}, {vxb, vy})
    # an index is not a variable, whether it leaks or not
    for u in (Db(3, A), Lam(A, Db(0, A)), Sym("sk", (), (Db(2, A),), (Db(0, A),))):
        assert u.all_vars == u.arg_vars == set() and is_closed(u)
    # a node that adds no variable shares its child's set; closed nodes share one
    assert Lam(A, sk).all_vars is sk.all_vars and Sym("g", (), (), (ya, ya)).arg_vars is ya.arg_vars
    assert Sym("a").all_vars is Lam(A, Db(0, A)).arg_vars


def test_variable_sets_do_not_grow_with_the_process():
    """A node's variable sets depend on the node alone: fresh variables,
    built after every other variable of the session, keep one-pair sets."""
    fresh = [Var("fresh_%d" % i, K) for i in range(20000)]
    assert sum(sys.getsizeof(v.all_vars) for v in fresh) / len(fresh) < 512


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

