"""Seeded random generation of signatures, well-typed eta-long terms,
substitutions and rewrite contexts for the property suites.

Everything is driven by a single random.Random instance per call, so a fixed
(seed, config) pair reproduces the same objects.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .lambda_order import KBO, LPO, OrderParams
from .ordinal import ONE, Ord, OMEGA, from_int, ord_add
from . import term as tm
from .term import (Db, Lam, Preterm, Signature, Substitution, Sym, TyCon, TyVar,
                   Type, TypeDecl, Var, accessible_positions, arrow, arrows,
                   is_arrow, split_arrows)


class GenError(Exception):
    pass


class GenConfig:
    # the fixed shape of every generated signature and variable pool
    max_arity = 3
    ty_var_count = 2
    term_var_count = 4
    n_symbols = 6

    def __init__(self, seed: int = 0, ordinal_weights: bool = False,
                 polymorphic: bool = False):
        self.seed = seed
        self.ordinal_weights = ordinal_weights
        self.polymorphic = polymorphic


# ---------------------------------------------------------------------------
# Signatures with constraint-satisfying parameters
# ---------------------------------------------------------------------------

def _random_type(rng: random.Random, bases: Sequence[Type], depth: int = 2) -> Type:
    if depth <= 0 or rng.random() < 0.55:
        return rng.choice(bases)
    return arrow(_random_type(rng, bases, depth - 1), _random_type(rng, bases, depth - 1))


def gen_signature(cfg: GenConfig) -> Tuple[Signature, OrderParams, OrderParams]:
    """A signature plus matching KBO and LPO parameter sets.  Always includes
    top, bot and diff with their required weights and precedence slots, and a
    watershed at or above diff."""
    rng = random.Random(cfg.seed)
    sig = Signature()
    sig.add_type("iota", 0)
    sig.add_type("kappa", 0)
    bases = [TyCon("iota"), TyCon("kappa")]

    sig.add_symbol("top", TypeDecl((), (), bases[0]))
    sig.add_symbol("bot", TypeDecl((), (), bases[0]))
    # the extensionality Skolem: both parameters are functions A -> B and the
    # result is the point of type A at which they differ
    dv = arrow(TyVar("A"), TyVar("B"))
    sig.add_symbol("diff", TypeDecl(("A", "B"), (dv, dv), TyVar("A")))

    names = []
    # every base type gets a constant so that enumeration and generation
    # never dead-end
    for i, b in enumerate(bases):
        name = "c%d" % i
        sig.add_symbol(name, TypeDecl((), (), b))
        names.append(name)
    for i in range(cfg.n_symbols):
        name = "f%d" % i
        n_args = rng.randint(0, cfg.max_arity)
        arg_tys = [_random_type(rng, bases, 1) for _ in range(n_args)]
        body = arrows(arg_tys, rng.choice(bases))
        sig.add_symbol(name, TypeDecl((), (), body))
        names.append(name)
    if cfg.polymorphic:
        sig.add_symbol("pany", TypeDecl(("P",), (), TyVar("P")))
        sig.add_symbol("pfun", TypeDecl(("P",), (), arrow(TyVar("P"), bases[1])))
        names += ["pany", "pfun"]
    # one symbol with a parameter, so parameter handling is exercised
    sig.add_symbol("sk", TypeDecl((), (bases[0],), arrow(bases[0], bases[0])))
    names.append("sk")

    def rand_weight() -> Ord:
        if cfg.ordinal_weights and rng.random() < 0.25:
            return ord_add(OMEGA, from_int(rng.randint(0, 2)))
        return from_int(rng.randint(1, 3))

    weights = {"top": ONE, "bot": ONE, "diff": ONE}
    w_db = from_int(rng.randint(1, 2))
    w_lam = from_int(rng.randint(1, 2))
    for name in names:
        weights[name] = rand_weight()
    coeffs: Dict[Tuple[str, int], Ord] = {}
    for name in names:
        decl = sig.symbols[name]
        for i in range(1, tm.arrow_count(decl.body) + 1):
            if rng.random() < 0.25:
                coeffs[(name, i)] = from_int(rng.randint(2, 3))

    rest = names[:]
    rng.shuffle(rest)
    prec = ["top", "bot", "diff"] + rest
    ws_index = rng.randint(2, len(prec) - 1)  # diff's slot or later
    watershed = prec[ws_index]

    ty_prec = list(sig.type_constructors)
    rng.shuffle(ty_prec)
    ty_weights = {name: from_int(rng.randint(1, 2)) for name in sig.type_constructors}

    common = dict(weights=weights, w_lam=w_lam, w_db=w_db, coeffs=coeffs,
                  prec=prec, ty_weights=ty_weights, ty_prec=ty_prec,
                  watershed=watershed)
    return sig, OrderParams(sig, KBO, **common), OrderParams(sig, LPO, **common)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def min_size(ty: Type) -> int:
    """Smallest possible eta-long term of this type, assuming every base type
    has a nullary inhabitant (gen_signature guarantees it)."""
    return 1 + tm.arrow_count(ty)


class TermGen:
    """Budget-driven generation of eta-long, well-typed preterms.  The budget
    is a hard size bound: children receive shares that sum below it.

    A node's head is drawn among the bound indices, the variables (unless
    ``ground``) and the declarations whose result can equal the goal type,
    in that order, among those whose arguments fit the budget.  ``_table``
    keeps, for each goal type from its first use, the matching variables
    and, in declaration order, each matching declaration with its type
    arguments as far as the match fixes them (``None`` where one is free).
    Each free one is drawn from ``ty_pool`` at every use, before the budget
    filter, so a seed draws what a scan of the whole signature at each node
    would draw.  Declarations are only ever added, so a change of their
    count drops the table: a symbol declared later is a candidate.

    ``every`` lists the terms these heads build up to a size bound, a free
    type argument taking each type of a pool in turn: the exhaustive
    corpora and the drawn terms come from one head rule."""

    def __init__(self, rng: random.Random, sig: Signature,
                 var_types: Optional[Dict[str, Type]] = None,
                 poly_ty_vars: Sequence[str] = ()):
        self.rng = rng
        self.sig = sig
        self.var_types = dict(var_types or {})
        self.ty_pool = sig.base_types() + [TyVar(v) for v in poly_ty_vars]
        # goal type -> (variable heads, declaration entries), built over the
        # first _decl_count declarations
        self._table: Dict[Type, tuple] = {}
        self._decl_count = len(sig.symbols)
        # type -> its argument types, result and their minimum sizes
        self._shapes: Dict[Type, tuple] = {}
        # (symbol, type arguments) -> (least budget, head)
        self._sym_heads: Dict[Tuple[str, Tuple[Type, ...]], tuple] = {}

    def _check_goal(self, ty: Type) -> None:
        try:
            tm.check_type(ty, self.sig)
        except tm.TermError as e:
            raise GenError("goal type %r: %s" % (ty, e)) from None

    def gen(self, ty: Type, budget: int, ground: bool) -> Preterm:
        self._check_goal(ty)
        return self._gen(ty, max(budget, min_size(ty)), ground, ())

    def _gen(self, ty: Type, budget: int, ground: bool,
             binders: Tuple[Type, ...]) -> Preterm:
        if is_arrow(ty):
            a, b = ty.args
            return Lam(a, self._gen(b, budget - 1, ground, (a,) + binders))
        candidates = self._heads(ty, ground, binders, budget)
        if not candidates:
            raise GenError("no head inhabits %r within budget %d" % (ty, budget))
        kind, ident, head_ty, param_tys, arg_tys, mins = self.rng.choice(candidates)
        spare = budget - 1 - sum(mins)
        shares = []
        for m in mins:
            bonus = self.rng.randint(0, spare) if spare > 0 else 0
            spare -= bonus
            shares.append(m + bonus)
        np = len(param_tys)
        # parameters must be closed with respect to indices
        params = tuple(self._gen(pt, shares[i], ground, ())
                       for i, pt in enumerate(param_tys))
        args = tuple(self._gen(at, shares[np + i], ground, binders)
                     for i, at in enumerate(arg_tys))
        return _node(kind, ident, head_ty, params, args)

    def every(self, ty: Type, max_size: int, ground: bool,
              ty_pool: Optional[Sequence[Type]] = None) -> List[Preterm]:
        """Every term of type ``ty`` up to ``max_size`` whose heads are the
        ones ``gen`` draws from, each free type argument of a declaration
        ranging over ``ty_pool`` (the generator's own by default) instead of
        being drawn: over a monomorphic signature, with ``ground``, every
        ground term."""
        self._check_goal(ty)
        pool = self.ty_pool if ty_pool is None else list(ty_pool)
        memo: Dict[Tuple[Tuple[Type, ...], Type, int], Tuple[Preterm, ...]] = {}

        def heads(ty: Type, binders: Tuple[Type, ...], budget: int):
            for i, bty in enumerate(binders):
                arg_tys, base, mins = self._shape(bty)
                if base is ty and 1 + sum(mins) <= budget:
                    yield "db", i, bty, (), arg_tys, mins
            var_heads, decl_heads = self._entry(ty)
            if not ground:
                yield from (head for need, head in var_heads if need <= budget)
            for name, decl, slots, free in decl_heads:
                insts = itertools.product(*[pool if a is None else (a,) for a in slots])
                for inst in insts if free else (slots,):
                    need, head = self._sym_head(name, decl, inst)
                    if need <= budget:
                        yield head

        def terms(ty: Type, binders: Tuple[Type, ...], budget: int) -> Tuple[Preterm, ...]:
            key = (binders, ty, budget)
            got = memo.get(key)
            if got is None:
                if is_arrow(ty):
                    a, b = ty.args
                    got = tuple(Lam(a, body) for body in terms(b, (a,) + binders, budget - 1))
                else:
                    # parameters are closed with respect to indices
                    got = tuple(_node(kind, ident, head_ty, params, args)
                                for kind, ident, head_ty, param_tys, arg_tys, _
                                in heads(ty, binders, budget)
                                for params, used in tuples(param_tys, (), budget - 1)
                                for args, _ in tuples(arg_tys, binders, budget - 1 - used))
                memo[key] = got
            return got

        def tuples(tys: Sequence[Type], binders: Tuple[Type, ...], budget: int):
            """Each tuple of terms of types ``tys`` with sizes summing to at
            most ``budget``, with that sum."""
            if not tys:
                yield (), 0
                return
            for first in terms(tys[0], binders, budget - (len(tys) - 1)):
                n = tm.size(first)
                for rest, m in tuples(tys[1:], binders, budget - n):
                    yield (first,) + rest, n + m

        return list(terms(ty, (), max_size))

    def _heads(self, ty: Type, ground: bool, binders: Tuple[Type, ...], budget: int):
        """Every head of a node of type ``ty`` that fits ``budget``, as
        ``(kind, ident, head type, parameter types, argument types, their
        minimum sizes)``."""
        out = []
        for i, bty in enumerate(binders):
            arg_tys, base, mins = self._shape(bty)
            if base is ty and 1 + sum(mins) <= budget:
                out.append(("db", i, bty, (), arg_tys, mins))
        var_heads, decl_heads = self._entry(ty)
        if not ground:
            out += [head for need, head in var_heads if need <= budget]
        pool, choice = self.ty_pool, self.rng.choice
        for name, decl, slots, free in decl_heads:
            if free:
                slots = tuple([choice(pool) if a is None else a for a in slots])
            need, head = self._sym_head(name, decl, slots)
            if need <= budget:
                out.append(head)
        return out

    def _entry(self, ty: Type) -> tuple:
        """The table's heads for goal type ``ty``, filled on first use."""
        if len(self.sig.symbols) != self._decl_count:
            self._table.clear()
            self._decl_count = len(self.sig.symbols)
        got = self._table.get(ty)
        if got is None:
            var_heads = []
            for name, vty in self.var_types.items():
                arg_tys, base, mins = self._shape(vty)
                if base is ty:
                    var_heads.append((1 + sum(mins), ("var", name, vty, (), arg_tys, mins)))
            decl_heads = []
            for name, decl in self.sig.symbols.items():
                slots = self._match_decl(decl, ty)
                if slots is not None:
                    decl_heads.append((name, decl, slots, None in slots))
            got = self._table[ty] = (var_heads, decl_heads)
        return got

    def _shape(self, ty: Type) -> tuple:
        got = self._shapes.get(ty)
        if got is None:
            arg_tys, base = split_arrows(ty)
            got = self._shapes[ty] = (tuple(arg_tys), base,
                                      tuple(min_size(x) for x in arg_tys))
        return got

    def _sym_head(self, name: str, decl: TypeDecl, inst: Tuple[Type, ...]) -> tuple:
        got = self._sym_heads.get((name, inst))
        if got is None:
            param_tys, body = decl.instantiate(inst)
            arg_tys, _, arg_mins = self._shape(body)
            mins = tuple(min_size(x) for x in param_tys) + arg_mins
            got = self._sym_heads[name, inst] = (
                1 + sum(mins), ("sym", name, inst, param_tys, arg_tys, mins))
        return got

    def _match_decl(self, decl: TypeDecl, ty: Type) -> Optional[Tuple[Optional[Type], ...]]:
        """The type arguments making the declaration's result equal ty, with
        None for each that the match leaves free; None if the result cannot
        equal ty, or if a type argument is free and the pool is empty."""
        _, base = split_arrows(decl.body)
        mapping: Dict[str, Type] = {}
        if isinstance(base, TyVar):
            mapping[base.name] = ty
        elif not self._match_type(base, ty, mapping):
            return None
        slots = tuple(mapping.get(v) for v in decl.ty_vars)
        if None in slots and not self.ty_pool:
            return None
        # argument types may still mention the variables filled from the
        # pool; the instantiation is checked by construction elsewhere
        return slots

    @staticmethod
    def _match_type(pattern: Type, target: Type, mapping: Dict[str, Type]) -> bool:
        if isinstance(pattern, TyVar):
            if pattern.name in mapping:
                return mapping[pattern.name] == target
            mapping[pattern.name] = target
            return True
        if not isinstance(target, TyCon) or target.name != pattern.name:
            return False
        if len(pattern.args) != len(target.args):
            return False
        return all(TermGen._match_type(a, b, mapping)
                   for a, b in zip(pattern.args, target.args))


def _node(kind: str, ident, head_ty, params: Tuple[Preterm, ...],
          args: Tuple[Preterm, ...]) -> Preterm:
    """The node of a head of ``TermGen._heads`` with its parameters and
    arguments."""
    if kind == "db":
        return Db(ident, head_ty, args)
    if kind == "var":
        return Var(ident, head_ty, args)
    return Sym(ident, head_ty, params, args)


def gen_var_types(rng: random.Random, cfg: GenConfig, sig: Signature,
                  polymorphic: bool = False) -> Dict[str, Type]:
    bases = sig.base_types()
    out: Dict[str, Type] = {}
    for i in range(cfg.term_var_count):
        if polymorphic and i % 3 == 2:
            out["x%d" % i] = TyVar("a%d" % (i % cfg.ty_var_count))
        elif i % 2 == 1:
            out["x%d" % i] = arrow(rng.choice(bases), rng.choice(bases))
        else:
            out["x%d" % i] = rng.choice(bases)
    return out


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

def gen_ground_type(rng: random.Random, sig: Signature, depth: int = 1,
                    flat: bool = False) -> Type:
    bases = sig.base_types()
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice(bases)
    if flat:
        n = rng.randint(1, 2)
        return arrows([rng.choice(bases) for _ in range(n)], rng.choice(bases))
    return arrow(gen_ground_type(rng, sig, depth - 1, flat),
                 gen_ground_type(rng, sig, depth - 1, flat))


def gen_monomorphizing_subst(rng: random.Random, sig: Signature,
                             ty_vars: Sequence[str], flat: bool = False) -> Substitution:
    return Substitution(ty_map={a: gen_ground_type(rng, sig, flat=flat)
                                for a in ty_vars})


def gen_grounding_subst(rng: random.Random, sig: Signature,
                        var_types: Dict[str, Type]) -> Substitution:
    """A ground image for each variable, within a size budget of 6."""
    g = TermGen(rng, sig)
    return Substitution(term_map={(name, vty): g.gen(vty, 6, ground=True)
                                  for name, vty in var_types.items()})


def free_var_types(t: Preterm) -> Dict[str, Type]:
    return {u.name: u.ty for u, _ in tm.nodes(t) if isinstance(u, Var)}


def free_ty_vars(t: Preterm) -> List[str]:
    return sorted({v for u, _ in tm.nodes(t) for ty in tm.node_types(u)
                   for v in tm.type_vars(ty)})


# ---------------------------------------------------------------------------
# Rewrite contexts
# ---------------------------------------------------------------------------

def gen_context(rng: random.Random, t: Preterm):
    """A uniformly chosen accessible position of a ground term, with depth."""
    return rng.choice(accessible_positions(t))
