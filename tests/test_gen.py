"""Generators: determinism, validity, budget discipline."""

import hashlib
import random

import pytest

from lamorder.gen import (GenConfig, GenError, TermGen, free_ty_vars, free_var_types,
                          gen_grounding_subst, gen_monomorphizing_subst,
                          gen_signature, gen_var_types)
from lamorder.lambda_order import compare, weight_poly
from lamorder.ordinal import ord_compare
from lamorder.parse import render_term
from lamorder.term import (Signature, Sym, TyCon, TyVar, TypeDecl, apply_subst, arrow, arrows,
                           check_types, is_ground, normalize, size, type_is_ground,
                           type_of)

# _stream_digest() of the generator that scanned every declaration at each
# node, before the per-type head table
STREAM_DIGEST = "8ad26f784c19bcecc8544a77c774cfef29762cf8b42636241400e76de3755b8a"


def test_signature_deterministic():
    a = gen_signature(GenConfig(seed=42))
    b = gen_signature(GenConfig(seed=42))
    assert sorted(a[0].symbols) == sorted(b[0].symbols)
    assert a[1].prec_ranks == b[1].prec_ranks
    assert a[1].weights == b[1].weights
    c = gen_signature(GenConfig(seed=43))
    assert (c[1].prec_ranks != a[1].prec_ranks or c[1].weights != a[1].weights)


def test_signature_satisfies_side_conditions():
    for seed in range(12):
        sig, kbo, lpo = gen_signature(GenConfig(seed=seed))
        # constructing OrderParams validates; spot-check the essentials anyway
        assert ord_compare(kbo.w("diff"), kbo.w_db) <= 0
        assert kbo.unit_coeffs("diff")
        assert lpo.sym_rank("diff") <= lpo.sym_rank(lpo.watershed)
        assert lpo.sym_rank("top") < lpo.sym_rank("bot")
        assert all(lpo.sym_rank("bot") <= lpo.sym_rank(f)
                   for f in sig.symbols if f not in ("top", "bot"))


def test_terms_deterministic_and_well_formed():
    cfg = GenConfig(seed=5)
    sig, kbo, _ = gen_signature(cfg)
    rng1, rng2 = random.Random(9), random.Random(9)
    g1 = TermGen(rng1, sig)
    g2 = TermGen(rng2, sig)
    k = TyCon("kappa")
    for _ in range(120):
        t1 = g1.gen(k, 9, ground=True)
        t2 = g2.gen(k, 9, ground=True)
        assert t1 == t2
        assert is_ground(t1)
        assert normalize(t1, sig) == t1
        check_types(t1, sig)
        assert size(t1) <= 9


def test_function_types_start_with_lambda():
    cfg = GenConfig(seed=6)
    sig, _, _ = gen_signature(cfg)
    rng = random.Random(3)
    g = TermGen(rng, sig)
    ty = arrow(TyCon("kappa"), TyCon("iota"))
    for _ in range(50):
        t = g.gen(ty, 8, ground=True)
        assert t.__class__.__name__ == "Lam"
        assert type_of(t, sig) == ty


def test_grounding_subst_grounds():
    cfg = GenConfig(seed=7)
    sig, _, _ = gen_signature(cfg)
    rng = random.Random(7)
    vt = gen_var_types(rng, cfg, sig)
    g = TermGen(rng, sig, var_types=vt)
    for _ in range(100):
        t = g.gen(TyCon("iota"), 9, ground=False)
        theta = gen_grounding_subst(rng, sig, free_var_types(t))
        out = apply_subst(t, theta, sig)
        assert is_ground(out)
        check_types(out, sig)
    empty = gen_grounding_subst(rng, sig, {})
    assert empty.is_empty()


def test_monomorphizing_subst_covers():
    cfg = GenConfig(seed=8, polymorphic=True)
    sig, _, _ = gen_signature(cfg)
    rng = random.Random(8)
    vt = gen_var_types(rng, cfg, sig, polymorphic=True)
    g = TermGen(rng, sig, var_types=vt, poly_ty_vars=["a0", "a1"])
    seen = 0
    for _ in range(150):
        t = g.gen(TyCon("kappa"), 8, ground=False)
        tyvars = free_ty_vars(t)
        if not tyvars:
            continue
        theta = gen_monomorphizing_subst(rng, sig, tyvars)
        out = apply_subst(t, theta, sig)
        assert not free_ty_vars(out)
        assert all(type_is_ground(ty) for ty in theta.ty_map.values())
        seen += 1
    assert seen > 20


def _stream_digest() -> str:
    """sha256 of the text of a fixed batch of draws over eight polymorphic
    signatures, at base, arrow and type-variable goal types, ground and
    nonground; a draw that fails is written as ``GenError``."""
    iota, kappa, a0 = TyCon("iota"), TyCon("kappa"), TyVar("a0")
    goals = [iota, kappa, a0, TyVar("a1"), arrow(iota, kappa), arrow(a0, kappa),
             arrow(arrow(iota, kappa), arrow(kappa, iota))]
    h = hashlib.sha256()
    for k in range(8):
        cfg = GenConfig(seed=k, polymorphic=True, ordinal_weights=k % 2 == 1)
        sig, _, _ = gen_signature(cfg)
        rng = random.Random("stream:%d" % k)
        vt = gen_var_types(rng, cfg, sig, polymorphic=True)
        g = TermGen(rng, sig, var_types=vt, poly_ty_vars=["a0", "a1"])
        for ty in goals:
            for ground in (True, False):
                for budget in (1, 5, 10, 16, 24, 40):
                    try:
                        text = render_term(g.gen(ty, budget, ground))
                    except GenError:
                        text = "GenError"
                    h.update(text.encode() + b"\n")
    return h.hexdigest()


def test_generator_stream_is_pinned():
    # recorded before the per-type head table replaced the scan of every
    # declaration at each node: a seed must keep drawing the same terms
    assert _stream_digest() == STREAM_DIGEST


@pytest.mark.parametrize("ty", [TyCon("nosuch"), arrow(TyCon("iota"), TyCon("nosuch")),
                                TyCon("iota", (TyCon("kappa"),))])
def test_gen_rejects_an_undeclared_goal_type_before_any_draw(ty):
    sig, _, _ = gen_signature(GenConfig(seed=1, polymorphic=True))
    rng = random.Random(3)
    g = TermGen(rng, sig, poly_ty_vars=["a0"])
    state = rng.getstate()
    with pytest.raises(GenError, match="goal type"):
        g.gen(ty, 5, ground=True)
    with pytest.raises(GenError, match="goal type"):
        g.every(ty, 5, ground=True)
    assert rng.getstate() == state


def test_symbol_declared_after_the_generator_is_a_candidate():
    k = TyCon("k")
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_symbol("a", TypeDecl((), (), k))
    g = TermGen(random.Random(0), sig)
    assert {g.gen(k, 4, ground=True) for _ in range(20)} == {Sym("a")}
    sig.add_symbol("f", TypeDecl((), (), arrow(k, k)))
    sig.add_symbol("p", TypeDecl(("P",), (), arrow(TyVar("P"), k)))
    heads = {(t.name, t.ty_args) for t in (g.gen(k, 4, ground=True) for _ in range(200))}
    assert heads == {("a", ()), ("f", ()), ("p", (k,))}


def _list_signature():
    """k/0, list/1 and pair/2 with a : k, nil : list A, cons : A -> list A
    -> list A, len : list A -> k and diag : A -> pair A A: results that
    fix a type argument only through a compound type."""
    k, a = TyCon("k"), TyVar("A")
    sig = Signature()
    sig.add_type("k", 0)
    sig.add_type("list", 1)
    sig.add_type("pair", 2)
    for name, ty_vars, ty in (("a", (), k), ("nil", ("A",), TyCon("list", (a,))),
                              ("cons", ("A",), arrows([a, TyCon("list", (a,))],
                                                      TyCon("list", (a,)))),
                              ("len", ("A",), arrow(TyCon("list", (a,)), k)),
                              ("diag", ("A",), arrow(a, TyCon("pair", (a, a))))):
        sig.add_symbol(name, TypeDecl(ty_vars, (), ty))
    return sig


def test_every_and_gen_fix_type_arguments_inside_compound_results():
    """A type argument that the goal fixes inside a compound result, as
    cons's A at list (list k), takes the goal's type, not one of the pool,
    which here holds only k; a free one, as len's A, ranges over the pool;
    and diag, whose result names A twice, matches pair k k only.  Every
    drawn term is one of the enumerated ones."""
    sig = _list_signature()
    k = TyCon("k")
    lk = TyCon("list", (k,))
    g = TermGen(random.Random(5), sig)
    counts = {k: 5, lk: 7, TyCon("list", (lk,)): 5, TyCon("pair", (k, k)): 4,
              TyCon("pair", (k, lk)): 0}
    assert {ty: len(g.every(ty, 6, ground=True)) for ty in counts} == counts
    for ty in counts:
        if not counts[ty]:
            with pytest.raises(GenError, match="no head inhabits"):
                g.gen(ty, 7, ground=True)
            continue
        every = set(g.every(ty, 7, ground=True))
        for _ in range(300):
            t = g.gen(ty, 7, ground=True)
            assert type_of(t, sig) is ty and t in every, render_term(t)
