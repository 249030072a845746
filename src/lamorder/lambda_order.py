"""Lambda-term KBO and LPO comparisons.

Both orders are implemented at full polymorphic generality; on monomorphic or
ground inputs they restrict to the simpler relations.  Each order comes in a
naive variant, which recomputes subterm weights (KBO) or repeats argument
checks (LPO), and an optimized variant that shares those computations.  The
two variants must agree on every input; the test suite compares them
pointwise.

Comparison results are six-valued (see cmp.Cmp).  KBO first compares symbolic
weight polynomials, falling back to a shape comparison to break ties.  LPO
performs a lexicographic descent that maintains the subterm property, with a
distinguished "watershed" symbol splitting the signature: symbols above it
dominate lambdas and De Bruijn indices, symbols below are dominated by them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .cmp import Cmp, E, G, GE, L, LE, U, cw_ext, flip, lex_ext, lex_merge, smooth
from .fo_order import FoParams, fo_kbo_compare, fo_lpo_compare
from .ordinal import Ord, ONE, ZERO, ord_add, ord_compare, ord_mul
from .poly import (HInd, Indet, KInd, Monomial, Poly, WInd, ZERO_POLY,
                   analyze_weight_diff, mono_mul)
from . import term as tm
from .term import (Db, Lam, Preterm, Signature, Sym, TyVar, Type, Var,
                   arrow_count, is_steady, steady_split, type_of)

KBO = "kbo"
LPO = "lpo"
ALGOS = ("naive", "optimized")


class OrderError(Exception):
    """Invalid order parameters."""


class DepthError(RecursionError):
    """A comparison recursed deeper than the interpreter's stack allows.  A
    ``RecursionError``, so a handler of that still catches it."""


class LeakTypeMismatch(Exception):
    """In strict mode, a De Bruijn index number that leaks in the compared
    terms carries two different types among its occurrences."""


# Instrumentation: number of weight_poly calls (one per spine node weighed).
# Single-threaded use only; reset via reset_weight_calls().
_weight_calls = 0


def reset_weight_calls() -> None:
    global _weight_calls
    _weight_calls = 0


def weight_calls() -> int:
    return _weight_calls


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class OrderParams:
    """Everything a comparison needs: the signature, weights, coefficients,
    precedences, the type order parameters and (for LPO) the watershed."""

    def __init__(self, sig: Signature, kind: str = KBO,
                 weights: Optional[Dict[str, Ord]] = None,
                 w_lam: Ord = ONE, w_db: Ord = ONE,
                 coeffs: Optional[Dict[Tuple[str, int], Ord]] = None,
                 prec: Optional[Sequence[str]] = None,
                 ty_weights: Optional[Dict[str, Ord]] = None,
                 ty_prec: Optional[Sequence[str]] = None,
                 watershed: Optional[str] = None):
        if kind not in (KBO, LPO):
            raise OrderError("unknown order kind %r" % kind)
        _check_declared("weight of undeclared symbol", sig.symbols, weights or {})
        _check_declared("coefficient of undeclared symbol", sig.symbols,
                        [f for f, _ in coeffs or {}])
        _check_declared("type weight of undeclared constructor", sig.type_constructors,
                        ty_weights or {})
        self.sig = sig
        self.kind = kind
        self.weights = dict(weights or {})
        self.w_lam = w_lam
        self.w_db = w_db
        self.coeffs = dict(coeffs or {})
        self.ty_weights = dict(ty_weights or {})
        self.watershed = watershed
        self.prec_ranks = _ranks("precedence", sig.symbols,
                                 sorted(sig.symbols) if prec is None else prec)
        self.ty_prec_ranks = _ranks("type precedence", sig.type_constructors,
                                    sorted(sig.type_constructors) if ty_prec is None else ty_prec)
        self._ty_fo = FoParams(
            weight=lambda key: self.ty_weights.get(key, ONE),
            coeff=lambda key, i: ONE,
            prec=lambda a, b: self.ty_prec_ranks[a] - self.ty_prec_ranks[b])
        # verdicts of compare_types; nothing changes the parameters after this
        self._ty_cmps: Dict[Tuple[Type, Type], Cmp] = {}
        # the KBO's scale of each position of a symbol's spine, by symbol and
        # number of parameters and arguments, filled by arg_scales
        self._scales: Dict[Tuple[str, int, int], Tuple[Tuple[Ord, Monomial], ...]] = {}
        # the symbols with a coefficient other than 1, for unit_coeffs
        self._nonunit = {f for (f, _), c in self.coeffs.items() if c != ONE}
        # the LPO's reach of each node, filled by lpo_reach
        self._reaches: Dict[Preterm, int] = {}
        self.validate()

    # -- providers ----------------------------------------------------------

    def w(self, name: str) -> Ord:
        return self.weights.get(name, ONE)

    def k(self, name: str, i: int) -> Ord:
        return self.coeffs.get((name, i), ONE)

    def unit_coeffs(self, name: str) -> bool:
        return name not in self._nonunit

    def sym_rank(self, name: str) -> int:
        try:
            return self.prec_ranks[name]
        except KeyError:
            raise OrderError("symbol %s has no precedence rank" % name) from None

    def head_cmp(self, t: Sym, s: Sym) -> Cmp:
        """Two symbol heads by precedence, then by type arguments.  Equal
        names with two empty type-argument tuples are E with no lookup:
        ``compare`` has checked that every symbol is ranked; distinct names
        have distinct ranks."""
        if t.name != s.name:
            return G if self.sym_rank(t.name) > self.sym_rank(s.name) else L
        if not t.ty_args and not s.ty_args:
            return E
        return lex_ext(self.compare_types, t.ty_args, s.ty_args)

    def arg_scales(self, t: Sym) -> Tuple[Tuple[Ord, Monomial], ...]:
        """The scale of each parameter and argument of ``t``'s spine in the
        KBO's descent: zero for a parameter, ``k(name, i)`` for argument i."""
        key = t.name, len(t.params), len(t.args)
        scales = self._scales.get(key)
        if scales is None:
            scales = self._scales[key] = (((ZERO, ()),) * len(t.params)
                                          + tuple((self.k(t.name, i + 1), ())
                                                  for i in range(len(t.args))))
        return scales

    def above_watershed(self, name: str) -> bool:
        return self.sym_rank(name) > self.sym_rank(self.watershed)

    def lpo_key(self, t: Preterm) -> int:
        """The LPO's key of ``t``'s head, with n symbols ranked: a symbol at
        or below the watershed its rank, a lambda n + 1, any index n + 2, a
        symbol above the watershed n + 3 + its rank, and a variable -1.  A
        head that ties or beats another has a key at least as large: two
        symbols go by ``head_cmp``'s precedence, in which the key grows, and
        ``_Lpo.dispatch`` orders every other pair of heads by this key, two
        indices tying on it."""
        n = len(self.prec_ranks)
        if isinstance(t, Sym):
            rank = self.prec_ranks[t.name]
            return rank if rank <= self.prec_ranks[self.watershed] else n + 3 + rank
        if isinstance(t, Lam):
            return n + 1
        return n + 2 if isinstance(t, Db) else -1

    def lpo_reach(self, t: Preterm) -> int:
        """The largest ``lpo_key`` among the subterms the LPO's subterm rule
        can reach from ``t``: ``t`` itself, a lambda's body, and a symbol's
        or an index's arguments, recursively.  Worked out once per node, on
        an explicit stack."""
        reaches = self._reaches
        r = reaches.get(t)
        if r is None:
            stack = [t]
            while stack:
                u = stack[-1]
                subs = _subterms(u, 0)[0]
                todo = [a for a in subs if a not in reaches]
                if todo:
                    stack += todo
                    continue
                stack.pop()
                reaches[u] = max([self.lpo_key(u)] + [reaches[a] for a in subs])
            r = reaches[t]
        return r

    def lpo_outranks(self, t: Preterm, b: Preterm) -> bool:
        """Whether the LPO's head rules alone put ``t`` above ``b``: ``t`` is
        a symbol above the watershed, ``b`` has no variable outside
        parameters, and ``b`` reaches no key as large as ``t``'s."""
        if b.arg_vars:
            return False
        key = self.lpo_key(t)
        return key > len(self.prec_ranks) + 2 and self.lpo_reach(b) < key

    def fo_compare(self, t: Type, s: Type, fop: FoParams) -> Cmp:
        """The first-order order of this kind: the type orders, and the
        oracle's order on encodings."""
        return (fo_kbo_compare if self.kind == KBO else fo_lpo_compare)(t, s, fop)

    def compare_types(self, ty1: Type, ty2: Type) -> Cmp:
        c = self._ty_cmps.get((ty1, ty2))
        if c is None:
            for ty in (ty1, ty2):
                for u, _ in tm.nodes(ty):
                    if isinstance(u, tm.TyCon) and u.name not in self.ty_prec_ranks:
                        raise OrderError("type constructor %s has no type precedence rank"
                                         % u.name)
            c = self._ty_cmps[ty1, ty2] = self.fo_compare(ty1, ty2, self._ty_fo)
        return c

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        values = [("w_lam", self.w_lam), ("w_db", self.w_db)]
        values += [("w(%s)" % f, v) for f, v in self.weights.items()]
        values += [("k(%s,%d)" % fi, v) for fi, v in self.coeffs.items()]
        values += [("type weight of %s" % n, v) for n, v in self.ty_weights.items()]
        for what, v in values:
            if v.is_zero() or not v.is_ordinal():
                raise OrderError("%s = %s must be a positive ordinal" % (what, v))
        missing = set(self.sig.symbols) - set(self.prec_ranks)
        if missing:
            raise OrderError("precedence does not rank symbols %s" % sorted(missing))
        missing_ty = set(self.sig.type_constructors) - set(self.ty_prec_ranks)
        if missing_ty:
            raise OrderError("type precedence does not rank %s" % sorted(missing_ty))
        if self.kind == LPO and self.watershed is None:
            raise OrderError("a watershed symbol is required in LPO mode")
        if self.watershed is not None and self.watershed not in self.prec_ranks:
            raise OrderError("watershed %s is not a ranked symbol" % self.watershed)
        if "diff" in self.sig.symbols:
            if self.kind == KBO:
                if ord_compare(self.w("diff"), self.w_db) > 0:
                    raise OrderError("w(diff) <= w_db is required")
                if not self.unit_coeffs("diff"):
                    raise OrderError("k(diff, i) = 1 is required")
            else:
                if self.sym_rank("diff") > self.sym_rank(self.watershed):
                    raise OrderError("diff must not exceed the watershed")
        for (name, i), c in self.coeffs.items():
            if i < 1:
                raise OrderError("argument indices start at 1: k(%s,%d)" % (name, i))
            decl = self.sig.symbols.get(name)
            if decl is not None and i > arrow_count(decl.body) and c != ONE:
                # Extra spine positions only appear via type-variable
                # instantiation and must keep unit coefficients.
                raise OrderError("k(%s, %d) = 1 is required beyond the declared "
                                 "argument positions" % (name, i))
        for special in ("top", "bot"):
            if special in self.sig.symbols:
                others = [f for f in self.sig.symbols if f not in ("top", "bot")]
                if any(self.sym_rank(special) > self.sym_rank(f) for f in others):
                    raise OrderError("%s must precede every other symbol" % special)
                if self.kind == KBO and self.w(special) != ONE:
                    raise OrderError("w(%s) = 1 is required" % special)
        if "top" in self.sig.symbols and "bot" in self.sig.symbols:
            if self.sym_rank("top") > self.sym_rank("bot"):
                raise OrderError("top must precede bot")
        if self.kind == LPO and "bot" in self.sig.symbols:
            if self.sym_rank("bot") > self.sym_rank(self.watershed):
                raise OrderError("bot must not exceed the watershed")


def _ranks(what: str, declared: Dict[str, object], names: Sequence[str]) -> Dict[str, int]:
    ranks: Dict[str, int] = {}
    for i, name in enumerate(names):
        if name in ranks:
            raise OrderError("%s ranks %s twice" % (what, name))
        if name not in declared:
            raise OrderError("%s ranks undeclared %s" % (what, name))
        ranks[name] = i
    return ranks


def _check_declared(what: str, declared: Dict[str, object], names: Iterable[str]) -> None:
    for name in names:
        if name not in declared:
            raise OrderError("%s %s" % (what, name))


# ---------------------------------------------------------------------------
# Normalized indeterminate keys
# ---------------------------------------------------------------------------

def norm_key(t: Preterm, p: OrderParams) -> Preterm:
    """Collapse heads that always weigh the same: a symbol spine with all-unit
    coefficients becomes a weight literal tagged with the head's type, and a
    De Bruijn head becomes the index-weight literal.  A weight literal is a
    ``Sym`` named by its weight, an ``Ord``, which no declared symbol's name
    equals.  A symbol's parameters are kept as they are.  The result is only
    ever used as a syntactic key."""
    def rule(u, d, kids):
        if isinstance(u, Db):
            return Sym(p.w_db, (u.ty,), (), kids)
        if isinstance(u, Sym) and p.unit_coeffs(u.name):
            return Sym(p.w(u.name), (tm.head_type(u, p.sig),), (), kids)
        if isinstance(u, Sym):
            return Sym(u.name, u.ty_args, u.params, kids)
        return tm.remake(u, kids)
    return tm.rebuild(t, rule, params=False)


def var_key(name: str, ty: Type, prefix: Tuple[Preterm, ...], p: OrderParams) -> Preterm:
    return Var(name, ty, tuple(norm_key(a, p) for a in prefix))


# ---------------------------------------------------------------------------
# Weight polynomials
# ---------------------------------------------------------------------------

# the coefficient of a minus side, by which a weight is negated, not multiplied
MINUS_ONE = -ONE


def _add_term(acc: Dict[Monomial, Ord], m: Monomial, coeff: Ord, c: Ord) -> None:
    """acc[m] += coeff * c; a sum that cancels drops the entry"""
    if coeff is not ONE:
        c = -c if coeff is MINUS_ONE else ord_mul(coeff, c)
    old = acc.get(m)
    if old is None:
        acc[m] = c
    else:
        c = ord_add(old, c)
        if c.terms:
            acc[m] = c
        else:
            del acc[m]


def weight_poly(t: Preterm, p: OrderParams,
                acc: Optional[Dict[Monomial, Ord]] = None, coeff: Ord = ONE,
                mono: Monomial = ()) -> Optional[Poly]:
    """Symbolic weight of a preterm.

    Without ``acc`` the weight is returned as a Poly.  With it, nothing is
    returned: ``coeff * mono * weight(t)`` is added into ``acc`` (monomial ->
    nonzero coefficient), in the one pass that also visits the arguments, so
    no polynomial is built per node.  A symbol's argument coefficients are
    read from ``p.arg_scales``, one lookup per node.
    """
    global _weight_calls
    _weight_calls += 1
    top = acc is None
    if top:
        acc = {}
    if isinstance(t, Lam):
        _add_term(acc, mono, coeff, p.w_lam)
        weight_poly(t.body, p, acc, coeff, mono)
    elif isinstance(t, Sym):
        _add_term(acc, mono, coeff, p.w(t.name))
        if t.args:
            # the scales of the parameters come first, and weigh nothing
            for a, (k, _) in zip(t.args, p.arg_scales(t)[len(t.params):]):
                # a unit coefficient keeps coeff identical to ONE, which _add_term skips
                weight_poly(a, p, acc, coeff if k is ONE else ord_mul(coeff, k), mono)
    elif isinstance(t, Db):
        _add_term(acc, mono, coeff, p.w_db)
        for a in t.args:
            weight_poly(a, p, acc, coeff, mono)
    else:
        assert isinstance(t, Var)
        prefix, suffix = steady_split(t.args, p.sig)
        key = var_key(t.name, t.ty, prefix, p)
        _add_term(acc, mono, coeff, ONE)
        _add_term(acc, mono_mul(mono, (WInd(key),)), coeff, ONE)
        # k_i * (weight(a_i) - w_db) for each argument of the steady suffix
        minus_db = -p.w_db
        for i, a in enumerate(suffix):
            m = mono_mul(mono, (KInd(key, i + 1),))
            weight_poly(a, p, acc, coeff, m)
            _add_term(acc, m, coeff, minus_db)
    if isinstance(t, (Sym, Db)):
        # slack for eta-expansion: a lambda and an index each.  A variable
        # takes none: an instance of it may drop the index, as x := λ.u with
        # u ignoring its argument does, and its W indeterminate already
        # ranges over the instance's weight
        ty = type_of(t, p.sig)
        if isinstance(ty, TyVar):
            _add_term(acc, mono_mul(mono, (HInd(ty.name),)), coeff, ord_add(p.w_lam, p.w_db))
    return Poly(acc) if top else None


def weight_diff(t: Preterm, s: Preterm, p: OrderParams) -> Poly:
    """weight(t) - weight(s), accumulated by one signed pass over each side."""
    acc: Dict[Monomial, Ord] = {}
    weight_poly(t, p, acc)
    weight_poly(s, p, acc, MINUS_ONE)
    return Poly(acc) if acc else ZERO_POLY


def collect_indet_reps(t: Preterm, p: OrderParams) -> Dict[Indet, Tuple]:
    """A representative concrete origin for every indeterminate of
    ``weight_poly(t, p)``: (var name, var type, prefix argument tuple) for a
    W or K indeterminate, ("h", type variable, ()) for an H one.  Distinct
    origins with the same key always evaluate alike, which is the point of
    the key normalization.  Visits the nodes ``weight_poly`` weighs, in its
    order, on an explicit stack."""
    reps: Dict[Indet, Tuple] = {}
    stack: list = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, tuple):    # an indeterminate and its origin, due here
            reps.setdefault(*u)
            continue
        if isinstance(u, Lam):
            stack.append(u.body)
            continue
        if isinstance(u, Var):
            prefix, suffix = steady_split(u.args, p.sig)
            key = var_key(u.name, u.ty, prefix, p)
            origin = (u.name, u.ty, prefix)
            reps.setdefault(WInd(key), origin)
            for i in reversed(range(len(suffix))):
                stack += (suffix[i], (KInd(key, i + 1), origin))
            continue
        ty = type_of(u, p.sig)
        if isinstance(ty, TyVar):   # after the arguments, as weight_poly adds it
            stack.append((HInd(ty.name), ("h", ty.name, ())))
        stack += reversed(u.args)
    return reps


# ---------------------------------------------------------------------------
# Shared shape helpers
# ---------------------------------------------------------------------------

def type_relaxed_ge(big_ty: Type, small_ty: Type) -> bool:
    """The guard that blocks verdicts which eta-expansion of the smaller side
    could invalidate: fine unless the smaller type is a type variable that
    differs from the bigger type."""
    return not isinstance(small_ty, TyVar) or big_ty == small_ty


class _Base:
    __slots__ = ("p", "sig")

    def __init__(self, p: OrderParams):
        self.p = p
        self.sig = p.sig

    def consider_poly(self, t: Preterm, s: Preterm, cmp: Cmp) -> Cmp:
        if cmp in (G, GE):
            return cmp if type_relaxed_ge(type_of(t, self.sig), type_of(s, self.sig)) else U
        if cmp in (L, LE):
            return cmp if type_relaxed_ge(type_of(s, self.sig), type_of(t, self.sig)) else U
        return cmp

    def same_steady_var(self, t: Preterm, s: Preterm) -> bool:
        """The variable rule's premise: one variable on both sides, applied
        to steady arguments only."""
        return (isinstance(t, Var) and isinstance(s, Var) and t.name == s.name
                and t.ty == s.ty and all(is_steady(a, self.sig) for a in t.args))

    def leak_mismatch(self, t: Db, s: Db, dt: int, ds: int) -> bool:
        """Equal indices with unequal annotated types, at least one leaking."""
        return t.index == s.index and t.ty != s.ty and (t.index >= dt or s.index >= ds)


# ---------------------------------------------------------------------------
# KBO: one head dispatch, two algorithms
# ---------------------------------------------------------------------------

def _kbo_rank(t: Preterm) -> Tuple[int, ...]:
    """Lambdas rank highest, then indices, by number and argument count (the
    oracle's ``DbKey``), then symbols.  The count never decides: two indices
    that meet here share one depth and the binder types above it, since both
    sides descend together and enter lambdas only of equal binder types, so
    equal numbers carry equal types, and so equal counts, unless
    ``leak_mismatch`` has answered first."""
    if isinstance(t, Db):
        return 1, t.index, len(t.args)
    return (2,) if isinstance(t, Lam) else (0,)


class _Kbo(_Base):
    """The head rules both KBO algorithms share.  The naive one consults them
    when the weights tie, the optimized one on every pair.

    ``dispatch`` ends every pair in one of two hooks: ``leaf(t, s, cmp)`` when
    the heads decide ``cmp``, and ``descend(ts, ss, scales, depth, smoothed)``
    for a lexicographic scan of equal heads' arguments, where ``scales[i]`` is
    the ``(coeff, mono)`` by which position i's weight difference counts in
    the parents' (zero for parameters, ``k[key, i]`` under a variable)."""

    def dispatch(self, t: Preterm, s: Preterm, depth: int):
        p = self.p
        while isinstance(t, Lam) and isinstance(s, Lam):
            c = p.compare_types(t.arg_ty, s.arg_ty)
            if c is not E:
                return self.leaf(t.body, s.body, c)
            t, s, depth = t.body, s.body, depth + 1
        if isinstance(t, Var) or isinstance(s, Var):
            if not self.same_steady_var(t, s):
                return self.leaf(t, s, U)
            # all arguments steady: the key's prefix is empty
            key = var_key(t.name, t.ty, (), p)
            return self.descend(t.args, s.args,
                                [(ONE, (KInd(key, i + 1),)) for i in range(len(t.args))],
                                depth, True)
        if isinstance(t, Sym) and isinstance(s, Sym):
            c = p.head_cmp(t, s)
            if c is E:
                return self.descend(t.params + t.args, s.params + s.args,
                                    p.arg_scales(t), depth, False)
        elif isinstance(t, Db) and isinstance(s, Db) and self.leak_mismatch(t, s, depth, depth):
            return self.leaf(t, s, U)
        else:
            rt, rs = _kbo_rank(t), _kbo_rank(s)
            if rt == rs:
                return self.descend(t.args, s.args, [(ONE, ())] * len(t.args), depth, False)
            c = G if rt > rs else L
        return self.leaf(t, s, self.consider_poly(t, s, c))


class _KboNaive(_Kbo):
    """Weighs both sides in full at every pair it compares."""

    def compare(self, t: Preterm, s: Preterm, depth: int = 0) -> Cmp:
        c = analyze_weight_diff(weight_diff(t, s, self.p))
        if c is G or c is L or c is U:
            return c
        return lex_merge(c, self.dispatch(t, s, depth))

    def leaf(self, t: Preterm, s: Preterm, cmp: Cmp) -> Cmp:
        return cmp

    def descend(self, ts: Sequence[Preterm], ss: Sequence[Preterm],
                scales: Sequence[Tuple[Ord, Monomial]], depth: int, smoothed: bool) -> Cmp:
        """lex_ext (cw_ext when smoothed) over compare, written out so that a
        nesting level costs no extra frame."""
        if len(ts) != len(ss):
            raise ValueError("lexicographic extension over unequal lengths: %d vs %d"
                             % (len(ts), len(ss)))
        verdict = E
        for a, b in zip(ts, ss):
            c = self.compare(a, b, depth)
            if smoothed:
                c = smooth(c)
            verdict = lex_merge(verdict, c)
            if c is G or c is L or c is U:
                break
        return verdict


class _KboOpt(_Kbo):
    """Weights and shapes in one interleaved pass: every pair returns its
    weight difference with its verdict, so a parent's difference is rebuilt
    from its children's instead of being weighed again.

    Terms are hash-consed, so ``descend`` decides identical pairs by
    identity.  Their weight difference is zero, so after the deciding
    position they are not weighed, and before it a ``rigid`` one is E
    without a descent: every head rule matches both of its sides alike, and
    the one rule that can end an identical pair otherwise,
    ``same_steady_var`` failing on a variable with a non-steady argument,
    cannot fire on it."""

    # the recursive step, bound in this class's own namespace where the
    # benchmark's call budget and tracer look it up
    process = _Kbo.dispatch

    def compare(self, t: Preterm, s: Preterm) -> Cmp:
        return self.process(t, s, 0)[1]

    def leaf(self, t: Preterm, s: Preterm, cmp: Cmp) -> Tuple[Poly, Cmp]:
        w = weight_diff(t, s, self.p)
        return w, lex_merge(analyze_weight_diff(w), cmp)

    def descend(self, ts: Sequence[Preterm], ss: Sequence[Preterm],
                scales: Sequence[Tuple[Ord, Monomial]], depth: int,
                smoothed: bool) -> Tuple[Poly, Cmp]:
        """Lexicographic scan that rebuilds the parents' weight difference in
        one map: each reached position adds its difference times its scale,
        and the positions after the deciding one are weighed straight in."""
        acc: Dict[Monomial, Ord] = {}
        verdict = E
        rest = n = len(ts)
        for i, (a, b, (k, m)) in enumerate(zip(ts, ss, scales, strict=True)):
            if a is b and a.rigid:
                continue
            w, c = self.process(a, b, depth)
            if not k.is_zero():
                for mono, coeff in w.items():
                    _add_term(acc, mono_mul(m, mono), k, coeff)
            if smoothed:
                c = smooth(c)
            verdict = lex_merge(verdict, c)
            if c is G or c is L or c is U:
                rest = i + 1
                break
        # the tail after the deciding position: none after a full scan,
        # unless the lengths differ, which the strict zip rejects
        if rest < n or len(ss) != n:
            for a, b, (k, m) in zip(ts[rest:], ss[rest:], scales[rest:], strict=True):
                if a is not b and not k.is_zero():
                    weight_poly(a, self.p, acc, k, m)
                    weight_poly(b, self.p, acc, -k, m)
        if not acc:
            return ZERO_POLY, verdict
        w = Poly(acc)
        return w, lex_merge(analyze_weight_diff(w), verdict)


# ---------------------------------------------------------------------------
# LPO: one head dispatch, two algorithms
# ---------------------------------------------------------------------------

def _subterms(t: Preterm, dt: int) -> Tuple[Sequence[Preterm], int]:
    """The immediate subterms the subterm rule consults, and their binder
    depth: a lambda's body, a symbol's or an index's arguments, and none of a
    variable's (they are not subterms of its instances)."""
    if isinstance(t, Lam):
        return (t.body,), dt + 1
    if isinstance(t, Var):
        return (), dt
    return t.args, dt


class _Lpo(_Base):
    """The rule table both LPO algorithms share.  ``dispatch`` lets ``enter``
    settle a pair first, then ends it by its heads: ``U``, the componentwise
    extension over one steady variable, a descent into lambda bodies of equal
    types, a winner by precedence, types or ``p.lpo_key`` (two indices by
    number, then argument count) that must still beat the loser's
    arguments, or ``scan(t, dt, ts, s, ds, ss, np)``, a lexicographic scan
    of equal heads' parameters (the first ``np`` positions) and arguments.
    ``leave(t, s, dt, ds, out, lo)`` may revise the verdict, where ``lo`` is
    the side whose head lost, if one did.  Each algorithm checks a winner
    against the loser's arguments in its own ``beats(winner, dw,
    loser_args, dl)``: G when the winner strictly beats all of them, L when
    one of them dominates it, U otherwise."""

    def dispatch(self, t: Preterm, s: Preterm, dt: int = 0, ds: int = 0) -> Cmp:
        out = self.enter(t, s, dt, ds)
        if out is not None:
            return out
        p = self.p
        c, lo = U, None
        if isinstance(t, Var) or isinstance(s, Var):
            if self.same_steady_var(t, s):
                out = cw_ext(lambda a, b: self.compare(a, b, dt, ds), t.args, s.args)
        elif isinstance(t, Sym) and isinstance(s, Sym):
            c = p.head_cmp(t, s)
            if c is E:
                out = self.scan(t, dt, t.params + t.args, s, ds, s.params + s.args,
                                len(t.params))
        elif isinstance(t, Lam) and isinstance(s, Lam):
            c = p.compare_types(t.arg_ty, s.arg_ty)
            if c is E:
                out = self.compare(t.body, s.body, dt + 1, ds + 1)
        elif isinstance(t, Db) and isinstance(s, Db) and self.leak_mismatch(t, s, dt, ds):
            out = U
        else:
            rt, rs = p.lpo_key(t), p.lpo_key(s)
            if rt == rs:    # two indices: by number and argument count, the oracle's DbKey
                rt, rs = (t.index, len(t.args)), (s.index, len(s.args))
            if rt == rs:
                out = self.scan(t, dt, t.args, s, ds, s.args, 0)
            else:
                c = G if rt > rs else L
        if out is None:
            out = U
            if c is G or c is L:
                hi, dhi, lo, dlo = (t, dt, s, ds) if c is G else (s, ds, t, dt)
                r = self.beats(hi, dhi, *_subterms(lo, dlo))
                if r is L:      # an argument of the loser dominates the winner
                    out = flip(c)
                elif r is G:    # type-guarded, unless eta-expanding the loser cannot undo it
                    out = (c if isinstance(lo, Lam) or isinstance(hi, Sym)
                           and p.above_watershed(hi.name) else self.consider_poly(t, s, c))
        return self.leave(t, s, dt, ds, out, lo)


class _LpoNaive(_Lpo):
    """The rule table as written: the subterm rules first, then the head
    rules, each winner checked against all of the loser's arguments."""

    compare = _Lpo.dispatch

    def enter(self, t: Preterm, s: Preterm, dt: int, ds: int) -> Optional[Cmp]:
        if self.check_subs(*_subterms(t, dt), s, ds):
            return G
        if self.check_subs(*_subterms(s, ds), t, dt):
            return L
        return None

    def leave(self, t: Preterm, s: Preterm, dt: int, ds: int, out: Cmp,
              lo: Optional[Preterm]) -> Cmp:
        return out

    def check_subs(self, ts: Sequence[Preterm], dts: int, s: Preterm, ds: int) -> bool:
        """Whether one of ``ts`` is at least ``s``: the subterm rule."""
        for a in ts:
            c = self.compare(a, s, dts, ds)
            if c is G or c is GE or c is E:
                return True
        return False

    def beats(self, t: Preterm, dt: int, ss: Sequence[Preterm], ds: int) -> Cmp:
        """G when t strictly beats every one of ss, U otherwise."""
        for b in ss:
            if self.compare(t, b, dt, ds) is not G:
                return U
        return G

    def scan(self, t: Preterm, dt: int, ts: Sequence[Preterm],
             s: Preterm, ds: int, ss: Sequence[Preterm], np: int) -> Cmp:
        c = lex_ext(lambda a, b: self.compare(a, b, dt, ds), ts, ss)
        if c is G or c is GE:
            return c if self.beats(t, dt, ss[np:], ds) is G else U
        if c is L or c is LE:
            return c if self.beats(s, ds, ts[np:], dt) is G else U
        return c


class _LpoOpt(_Lpo):
    """The same rule table with the subterm rules postponed (Löchner's
    split): ``leave`` tries them only when the heads end without a strict
    verdict, and ``beats`` scans the loser's arguments once, an argument
    dominating the winner deciding for the loser, so ``dispatch`` turns
    that into the loser's verdict.  ``scan`` keeps one running verdict and
    hands a strict position to ``beats`` as well.  On ground terms, where
    every recursive verdict is G, E or L, the postponed checks never run.
    Off ground terms they revisit subterm pairs, so a memo for one
    top-level comparison, keyed on two subterms and their binder depths,
    holds at most 2·|t|·|s| verdicts, each found by one linear scan: the
    descent is polynomial on every input (Löchner's memoized LPO).

    A G or L that ``beats`` backs takes the guard of the rule that picked
    the winner; a verdict coming out of a subterm observation is never
    guarded.

    Terms are hash-consed, so ``enter`` decides a ``rigid`` identical pair
    by identity, as E, before the memo.  Every head rule matches both of its
    sides alike, whatever the binder depths, no subterm rule fires, since
    no proper subterm of a term is at least the term, and the one rule that
    can end an identical pair otherwise, ``same_steady_var`` failing on a
    variable with a non-steady argument, cannot fire on it.

    The variable condition of reduction orders settles many nonground
    pairs before any of that: ``t`` is at least ``s`` (G, GE or E) only if
    every variable of ``s`` outside parameters occurs in ``t``.  By
    induction over ``dispatch``, such a verdict comes from one of: the
    memo; ``t is s``, at the root or by ``enter``'s short cut for a rigid
    pair; ``cw_ext`` over one variable; a ``scan`` whose strict
    position ``beats`` the rest of the loser's arguments; equal lambda
    bodies; a winner by heads that ``beats`` all of the loser's immediate
    subterms; a subterm rule.  Each needs, recursively, the variables of
    every argument of ``s`` inside ``t``.  The one exception: ``scan``
    never compares a parameter of ``s`` after the deciding position, so the
    condition leaves out ``s``'s parameters and counts all of ``t``, the
    sets ``arg_vars`` of ``s`` and ``all_vars`` of ``t``.  ``enter``
    returns U when the condition fails both ways, and ``leave`` skips the
    subterm rule of a side that fails it.

    Eight short cuts skip a call whose answer is known:

    - ``check_subs`` passes a subterm ``a`` unless ``s.arg_vars <=
      a.all_vars``: by the condition above, ``compare(a, s)`` is then L,
      LE or U, never at least.
    - ``check_subs`` passes a subterm ``a`` that is one of ``s``'s own
      ``args`` (of a ``Sym`` or ``Db`` head, as in ``beats``) when ``a`` is
      rigid: ``s`` beats ``a`` by the subterm rule, since ``a`` against
      ``a`` is E by ``enter``'s short cut, so ``compare(a, s)`` is L.
    - ``beats`` passes a loser argument ``b`` that is one of the winner's
      own ``args`` (of a ``Sym`` or ``Db`` head only: parameters and a
      variable's arguments are not subterms the rule consults, and a
      lambda's body lies under a binder) when ``b`` is rigid: the subterm
      rule gives ``t > b``, since ``b`` against ``b`` is E by ``enter``'s
      short cut.
    - ``scan`` passes a rigid identical position, which ``enter`` would
      answer E, as ``_KboOpt.descend`` does.
    - ``leave`` skips the subterm rule of ``lo``, the side whose head
      lost (``dispatch`` passes ``None`` when no head won).  ``beats`` has
      compared the winner with each immediate subterm of ``lo``, and
      unless it answered L each was beaten, passed as a rigid own argument
      of the winner, answered GE or U (LE or U from the subterm's side,
      by flip symmetry) or failed ``check_subs`` there: none is at least
      the winner.
    - ``check_subs`` passes a subterm ``a`` with ``p.lpo_reach(a) <
      p.lpo_key(s)``.  A head that ties or beats another by a head rule
      has a key at least as large, a variable's key is -1, and every
      subterm the rule reaches from ``a`` has a key at most ``a``'s reach,
      so, by induction over ``dispatch``'s rules, none derives ``a`` at
      least ``s``.
    - ``beats`` passes a loser argument ``b`` when ``p.lpo_outranks(t,
      b)``: ``t`` is a symbol above the watershed, ``b`` has no variable
      outside parameters and ``p.lpo_reach(b) < p.lpo_key(t)``.  Every
      head the subterm rule reaches from ``b`` loses to ``t``'s by a head
      rule, the variable condition holds, and a winner above the
      watershed takes no type guard, so ``compare(t, b)`` is G by
      induction over ``b``.
    - ``scan`` calls no ``beats`` after a strict win at the last
      position: no loser argument follows it, since ``np`` is at most the
      number of positions, and ``beats`` over none is G.

    The naive LPO keeps its plain ``_LpoNaive.check_subs``: its call count
    decides which benchmark pairs fit the call budget, and the filter
    there would change them."""

    compare = _Lpo.dispatch

    def __init__(self, p: OrderParams):
        super().__init__(p)
        self.memo: Dict[Tuple[Preterm, Preterm, int, int], Cmp] = {}

    def enter(self, t: Preterm, s: Preterm, dt: int, ds: int) -> Optional[Cmp]:
        if t is s and t.rigid:
            return E
        out = self.memo.get((t, s, dt, ds))
        if out is None and not s.arg_vars <= t.all_vars and not t.arg_vars <= s.all_vars:
            return U
        return out

    def leave(self, t: Preterm, s: Preterm, dt: int, ds: int, out: Cmp,
              lo: Optional[Preterm]) -> Cmp:
        """Run the subterm rules the naive algorithm front-loads, on each
        side that holds the other's variables and is not ``lo``, the loser
        by heads whose subterms ``beats`` already found below the winner,
        then store the verdict.  Inconclusive and nonstrict verdicts can
        still be beaten by a subterm win; strict verdicts cannot, since the
        relations they claim are orders."""
        # the arguments of check_subs are joined as one tuple, which takes
        # one evaluation-stack slot less than ``*subs, s, ds``: every frame
        # slot costs a deep comparison page faults (tests/cost.py)
        if out is not G and out is not E and out is not L:
            if (out is not LE and t is not lo and s.arg_vars <= t.all_vars
                    and self.check_subs(*_subterms(t, dt) + (s, ds))):
                out = G
            elif (out is not GE and s is not lo and t.arg_vars <= s.all_vars
                    and self.check_subs(*_subterms(s, ds) + (t, dt))):
                out = L
        self.memo[t, s, dt, ds] = out
        return out

    def check_subs(self, ts: Sequence[Preterm], dts: int, s: Preterm, ds: int) -> bool:
        """The subterm rule, past each of ``ts`` that fails the variable
        condition against ``s``, reaches no head as large as ``s``'s or is a
        rigid one of ``s``'s own arguments."""
        vs, key, reach = s.arg_vars, self.p.lpo_key(s), self.p.lpo_reach
        for a in ts:
            if vs <= a.all_vars and reach(a) >= key and not (
                    isinstance(s, (Sym, Db)) and a in s.args and a.rigid):
                c = self.compare(a, s, dts, ds)
                if c is G or c is GE or c is E:
                    return True
        return False

    def beats(self, t: Preterm, dt: int, ss: Sequence[Preterm], ds: int) -> Cmp:
        """One scan of ss: G when t strictly beats all of them, L when one of
        them dominates t, U otherwise.  A rigid one of t's own arguments is
        passed: t beats it by the subterm rule; so is one that t outranks by
        head rules alone."""
        own = t.args if isinstance(t, (Sym, Db)) else ()
        for i, b in enumerate(ss):
            if b in own and b.rigid:     # by identity, as terms compare
                continue
            if self.p.lpo_outranks(t, b):
                continue
            c = self.compare(t, b, dt, ds)
            if c is G:
                continue
            if c is E or c is LE or c is L:
                return L
            # GE or U: this position can no longer decide either way
            return L if self.check_subs(ss[i + 1:], ds, t, dt) else U
        return G

    def scan(self, t: Preterm, dt: int, ts: Sequence[Preterm],
             s: Preterm, ds: int, ss: Sequence[Preterm], np: int) -> Cmp:
        """A strict win at position i still has to beat the loser's arguments
        after i, or all of them when i is a parameter."""
        verdict = E
        for i in range(len(ts)):
            if ts[i] is ss[i] and ts[i].rigid:
                continue
            c = self.compare(ts[i], ss[i], dt, ds)
            # past the last position nothing follows, and beats over none is G
            if c is G and i + 1 < len(ts):
                c = self.beats(t, dt, ss[max(i + 1, np):], ds)
            elif c is L and i + 1 < len(ts):
                c = flip(self.beats(s, ds, ts[max(i + 1, np):], dt))
            verdict = lex_merge(verdict, c)
            if c is G or c is L or c is U:
                break
        return verdict


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def check_leak_types(t: Preterm, s: Preterm) -> None:
    """Strict mode: raise LeakTypeMismatch when an index number that leaks
    somewhere in ``t`` or ``s`` carries two annotated types among its
    occurrences in them.  Only a loose index can leak, so a closed pair is
    not walked."""
    if not (t.loose or s.loose):
        return
    types: Dict[int, set] = {}
    leaking = set()
    for u in (t, s):
        for v, d in tm.nodes(u):
            if isinstance(v, Db):
                types.setdefault(v.index, set()).add(v.ty)
                if v.index >= d:
                    leaking.add(v.index)
    for n in sorted(leaking):
        if len(types[n]) > 1:
            raise LeakTypeMismatch("leaking index #%d carries types %s"
                                   % (n, ", ".join(sorted(map(repr, types[n])))))


# each order's classes, in the order of ALGOS
_CLASSES = {KBO: (_KboNaive, _KboOpt), LPO: (_LpoNaive, _LpoOpt)}


def compare(t: Preterm, s: Preterm, p: OrderParams, algo: str = "optimized") -> Cmp:
    """Compare ``t`` with ``s`` by ``p``'s order, ``p.kind``, with the naive
    or the optimized algorithm.  Both inputs are typed by the checked pass
    (a TermError names a fault); parameters made before a symbol was
    declared raise an ``OrderError`` naming it, so the algorithms take every
    symbol as ranked; a comparison that overflows the stack raises
    ``DepthError``."""
    if algo not in ALGOS:
        raise OrderError("unknown algorithm %r" % algo)
    for u in (t, s):
        type_of(u, p.sig)
    if len(p.prec_ranks) != len(p.sig.symbols):
        p.validate()
    if t is s:
        return E
    try:
        return _CLASSES[p.kind][ALGOS.index(algo)](p).compare(t, s)
    except RecursionError:
        raise DepthError("terms nested too deeply to compare") from None
