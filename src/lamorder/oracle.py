"""Ground-level differential oracle.

Ground preterms are encoded into first-order terms, ``TyCon`` trees whose
heads are interned keys (``term.Interned``) of a virtual signature: one per
(symbol, type arguments, parameters) combination, one per (index, argument
count) pair, and one per lambda binder type.  Comparing encodings with the
plain first-order KBO/LPO under a derived precedence reproduces the
lambda-term orders exactly, which makes an independent test oracle.

This module also builds the indeterminate assignments and substitutions the
weight lemmas are stated with, and a small-term exhaustive enumerator.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .cmp import Cmp, E, G, L
from .fo_order import FoParams, fo_kbo_weight
from .lambda_order import KBO, OrderParams, var_key, weight_poly
from .ordinal import Ord, ONE, ZERO, from_int, ord_add, ord_mul
from .poly import HInd, Indet, KInd, Poly, PolyError, WInd, const_poly, indet_poly
from . import term as tm
from .term import (Db, Interned, Lam, Preterm, Signature, Substitution, Sym,
                   TyCon, TyVar, Type, Var, eta_expansion_count, is_ground, is_steady,
                   split_arrows, steady_split, strip_lams, subst_type)


class OracleError(Exception):
    pass


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

class FKey(Interned):
    __slots__ = ("name", "ty_args", "params")

    def __repr__(self):
        return "F:%s" % self.name


class DbKey(Interned):
    __slots__ = ("index", "argc")

    def __repr__(self):
        return "DB:%d/%d" % (self.index, self.argc)


class LamKey(Interned):
    __slots__ = ("ty",)

    def __repr__(self):
        return "LAM:%r" % (self.ty,)


def encode_ground(t: Preterm) -> Type:
    def rule(u, d, kids):
        if isinstance(u, Sym):
            return TyCon(FKey(u.name, u.ty_args, u.params), kids)
        if isinstance(u, Db):
            return TyCon(DbKey(u.index, len(u.args)), kids)
        if isinstance(u, Lam):
            return TyCon(LamKey(u.arg_ty), kids)
        raise OracleError("cannot encode nonground preterm %r" % (u,))
    return tm.rebuild(t, rule, params=False)


# ---------------------------------------------------------------------------
# Derived precedences and first-order parameters
# ---------------------------------------------------------------------------

def _cmp_sign(c: Cmp) -> int:
    if c is G:
        return 1
    if c is L:
        return -1
    if c is E:
        return 0
    raise OracleError("type comparison of ground types must be total, got %s" % c)


def make_fo_params(p: OrderParams) -> FoParams:
    """First-order weights, coefficients and precedence derived from the
    lambda-order parameters; the precedence ties the knot through the
    first-order comparison itself for parameter tiebreaks."""

    def weight(key) -> Ord:
        if isinstance(key, FKey):
            return p.w(key.name)
        if isinstance(key, DbKey):
            return p.w_db
        return p.w_lam

    def coeff(key, i: int) -> Ord:
        if isinstance(key, FKey):
            return p.k(key.name, i)
        return ONE

    def tier(key) -> int:
        if p.kind == KBO:
            if isinstance(key, FKey):
                return 0
            if isinstance(key, DbKey):
                return 1
            return 2
        # LPO: symbols at or below the watershed, lambdas, indices, the rest
        if isinstance(key, FKey):
            return 3 if p.above_watershed(key.name) else 0
        if isinstance(key, LamKey):
            return 1
        return 2

    def prec(a, b) -> int:
        if a == b:
            return 0
        ta, tb = tier(a), tier(b)
        if ta != tb:
            return ta - tb
        if isinstance(a, FKey):
            d = p.sym_rank(a.name) - p.sym_rank(b.name)
            if d:
                return d
            for ua, ub in zip(a.ty_args, b.ty_args):
                if ua == ub:
                    continue
                return _cmp_sign(p.compare_types(ua, ub))
            for va, vb in zip(a.params, b.params):
                if va == vb:
                    continue
                c = p.fo_compare(encode_ground(va), encode_ground(vb), fop)
                if c is E:
                    raise OracleError("distinct parameters encode equal: %r, %r" % (va, vb))
                return _cmp_sign(c)
            return 0
        if isinstance(a, DbKey):
            if a.index != b.index:
                return a.index - b.index
            return a.argc - b.argc
        return _cmp_sign(p.compare_types(a.ty, b.ty))

    fop = FoParams(weight=weight, coeff=coeff, prec=prec)
    return fop


def oracle_compare(t: Preterm, s: Preterm, p: OrderParams) -> Cmp:
    """Total comparison of ground preterms via the first-order encoding."""
    if not is_ground(t) or not is_ground(s):
        raise OracleError("oracle comparison requires ground preterms")
    return p.fo_compare(encode_ground(t), encode_ground(s), make_fo_params(p))


def oracle_weight(t: Preterm, p: OrderParams) -> Ord:
    return fo_kbo_weight(encode_ground(t), make_fo_params(p))


# ---------------------------------------------------------------------------
# Assignments induced by substitutions
# ---------------------------------------------------------------------------

def _check_nonfunctional_range(theta: Substitution, sig: Signature) -> None:
    for image in theta.term_map.values():
        if any(isinstance(u, Var) and (tm.is_arrow(u.ty) or isinstance(u.ty, TyVar) or u.args)
               for u, _ in tm.nodes(image)):
            raise OracleError("substitution maps to a term with functional variables: %r"
                              % (image,))


def _copy_count(v: Preterm, i: int, p: OrderParams) -> Ord:
    """Number of De Bruijn indices in ``v`` referring to its i-th expected
    argument, each weighted by the product of the argument coefficients above
    it.  Occurrences inside parameters do not count, matching the weight
    function."""
    body, m = v, 0
    while isinstance(body, Lam):
        body, m = body.body, m + 1
    if i > m:
        return ZERO

    # bottom up: the Hessenberg product is bilinear and commutative, so each
    # argument's count times its coefficient is the count weighted top down
    def rule(u, d, kids):
        if isinstance(u, Sym):
            kids = [ord_mul(c, p.k(u.name, j + 1)) for j, c in enumerate(kids)]
        total = ONE if isinstance(u, Db) and u.index == m - i + d else ZERO
        for c in kids:
            total = ord_add(total, c)
        return total
    return tm.rebuild(body, rule, params=False)


def assignment_from_grounding(theta: Substitution, reps: Dict[Indet, Tuple],
                              p: OrderParams) -> Dict[Indet, Poly]:
    """Values of the weight indeterminates induced by a substitution whose
    range contains only nonfunctional variables.  The result maps each
    indeterminate to a polynomial, which is constant when theta grounds."""
    _check_nonfunctional_range(theta, p.sig)
    out: Dict[Indet, Poly] = {}
    for ind, rep in reps.items():
        if isinstance(ind, HInd):
            raise OracleError("grounding assignment applied to polymorphic weight")
        name, ty, prefix = rep
        image = tm.apply_subst(Var(name, ty, tuple(prefix)), theta, p.sig)
        if isinstance(ind, WInd):
            out[ind] = weight_poly(strip_lams(image), p) - const_poly(1)
        else:
            out[ind] = const_poly(_copy_count(image, ind.i, p))
    return out


def poly_subst_from_monomorphizing(theta: Substitution, reps: Dict[Indet, Tuple],
                                   p: OrderParams) -> Dict[Indet, Poly]:
    """Indeterminate substitution induced by a type-only substitution onto
    ground types.

    Instantiation can turn prefix arguments steady (they move into the
    indexed sum) and can eta-expand the spine head (the expansion indices
    land as arguments with weight contribution zero), so the images of the
    W indeterminates are polynomials, not mere renamings, and K indices
    shift accordingly.  Instantiations of a head type variable whose argument
    types are themselves functional are rejected: no indeterminate
    substitution expresses them."""
    if theta.term_map:
        raise OracleError("monomorphizing substitution must not map term variables")
    for alpha, image_ty in theta.ty_map.items():
        if not tm.type_is_ground(image_ty):
            raise OracleError("monomorphizing substitution must map to ground types")

    out: Dict[Indet, Poly] = {}
    for ind, rep in reps.items():
        if isinstance(ind, HInd):
            image_ty = theta.ty_map.get(ind.name)
            if image_ty is None:
                raise OracleError("substitution does not cover type variable %s" % ind.name)
            out[ind] = const_poly(eta_expansion_count(image_ty))
            continue
        name, ty, prefix = rep
        ty2 = subst_type(ty, theta.ty_map)
        if not tm.type_is_ground(ty2):
            raise OracleError("substitution does not cover the type of variable %s" % name)
        arg_tys_all, tail = split_arrows(ty)
        pending = len(arg_tys_all) - len(prefix)  # suffix slots of this spine
        tail2 = subst_type(tail, theta.ty_map)
        # the arguments eta-expansion appends behind the pending slots
        e_args = tm.eta_args(tail2)
        c = len(e_args)
        prefix2 = tuple(tm.apply_subst(a, theta, p.sig) for a in prefix)
        wdb = const_poly(p.w_db)
        wlam = const_poly(p.w_lam)

        if pending and not all(is_steady(e, p.sig) for e in e_args):
            # the pending steady arguments would migrate into the key itself,
            # which no per-indeterminate image can express
            raise PolyError(
                "head instantiation %r introduces functional arguments ahead of "
                "pending ones; the weight image is not expressible as a "
                "substitution" % (tail2,))
        if isinstance(ind, KInd) and not pending:
            raise OracleError("argument indeterminate on a spine without "
                              "pending arguments: %r" % (ind,))

        # the appended arguments join the steady split only when no slot is
        # pending; behind pending slots they keep their own argument places
        new_prefix, moved = steady_split(prefix2 if pending else prefix2 + e_args, p.sig)
        key2 = var_key(name, ty2, new_prefix, p)
        if isinstance(ind, KInd):
            out[ind] = indet_poly(KInd(key2, len(moved) + ind.i))
            continue
        placed = list(enumerate(moved, 1))
        if pending:
            placed += enumerate(e_args, len(moved) + pending + 1)
        acc = indet_poly(WInd(key2))
        for j, a in placed:
            acc = acc + indet_poly(KInd(key2, j)) * (weight_poly(a, p) - wdb)
        if c:
            acc = acc + wlam.scale(from_int(c))
        out[ind] = acc
    return out


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small ground terms
# ---------------------------------------------------------------------------

def default_type_pool(sig: Signature) -> List[Type]:
    pool = sig.base_types()
    seen = set(pool)
    for decl in sig.symbols.values():
        if decl.ty_vars:
            continue
        for ty in (decl.body,) + decl.param_types:
            for sub, _ in tm.nodes(ty):
                if sub not in seen:
                    seen.add(sub)
                    pool.append(sub)
    return pool


def enum_ground_terms(sig: Signature, ty: Type, max_size: int,
                      ty_pool: Optional[Sequence[Type]] = None,
                      var_pool: Sequence[Tuple[str, Type]] = ()) -> List[Preterm]:
    """All eta-long preterms of the given ground type with size at most
    max_size whose free variables are among ``var_pool``'s ``(name, type)``
    pairs, enumerated as extra heads: with the default empty pool, the
    ground ones.  Complete for monomorphic signatures; polymorphic symbols
    are instantiated from the type pool only."""
    if not tm.type_is_ground(ty):
        raise OracleError("enumeration target type must be ground")
    pool = list(ty_pool) if ty_pool is not None else default_type_pool(sig)
    memo: Dict[Tuple, Tuple[Preterm, ...]] = {}

    def heads(binders: Tuple[Type, ...], target: Type):
        for i, bty in enumerate(binders):
            arg_tys, base = split_arrows(bty)
            if base == target:
                yield ("db", i, bty, (), arg_tys)
        for name, decl in sig.symbols.items():
            for inst in itertools.product(pool, repeat=len(decl.ty_vars)):
                param_tys, body = decl.instantiate(inst)
                arg_tys, base = split_arrows(body)
                if base == target:
                    yield ("sym", name, tuple(inst), param_tys, arg_tys)
        for name, vty in var_pool:
            arg_tys, base = split_arrows(vty)
            if base == target:
                yield ("var", name, vty, (), arg_tys)

    def enum(binders: Tuple[Type, ...], target: Type, budget: int) -> Tuple[Preterm, ...]:
        if budget <= 0:
            return ()
        key = (binders, target, budget)
        got = memo.get(key)
        if got is not None:
            return got
        out: List[Preterm] = []
        if tm.is_arrow(target):
            a, b = target.args
            for body in enum((a,) + binders, b, budget - 1):
                out.append(Lam(a, body))
        else:
            for head in heads(binders, target):
                kind, ident, ty_or_inst, param_tys, arg_tys = head
                # parameters are index-closed, so they enumerate in an empty
                # binder context
                for params, psize in arg_tuples((), param_tys, budget - 1):
                    for args, asize in arg_tuples(binders, arg_tys,
                                                  budget - 1 - psize):
                        if kind == "db":
                            out.append(Db(ident, ty_or_inst, args))
                        elif kind == "var":
                            out.append(Var(ident, ty_or_inst, args))
                        else:
                            out.append(Sym(ident, ty_or_inst, params, args))
        result = tuple(out)
        memo[key] = result
        return result

    def arg_tuples(binders: Tuple[Type, ...], tys: Sequence[Type], budget: int):
        if not tys:
            yield (), 0
            return
        if budget < len(tys):
            return
        rest_min = len(tys) - 1
        for first in enum(binders, tys[0], budget - rest_min):
            fsize = tm.size(first)
            for rest, rsize in arg_tuples(binders, tys[1:], budget - fsize):
                yield (first,) + rest, fsize + rsize

    return list(enum((), ty, max_size))
