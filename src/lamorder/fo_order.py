"""Untyped first-order KBO (ordinal weights, argument coefficients) and LPO.

Both comparators are parameterized by provider callables, because some use
sites (the ground encoding) have an infinite, recursively ordered symbol
universe that cannot be enumerated up front.  Terms are interned
(``term.Interned``), so equality is identity.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Tuple

from .cmp import Cmp, E, G, L, U
from .ordinal import Ord, ZERO, ord_add, ord_compare, ord_mul
from .term import TABLE, Interned


class FoTerm(Interned):
    __slots__ = ()


class FoVar(FoTerm):
    __slots__ = ("name",)
    tag = "fovar"

    def __new__(cls, name: str):
        key = (cls.tag, name)
        return TABLE.get(key) or cls.intern(key, name)

    def __repr__(self):
        return "?" + self.name


class FoApp(FoTerm):
    __slots__ = ("key", "args")
    tag = "foapp"

    def __new__(cls, key: Hashable, args: Tuple[FoTerm, ...] = ()):
        k = (cls.tag, key, args)
        return TABLE.get(k) or cls.intern(k, key, args)

    def __repr__(self):
        if not self.args:
            return repr(self.key)
        return "%r(%s)" % (self.key, ", ".join(map(repr, self.args)))


class FoParams:
    """weight(key) -> positive Ord; coeff(key, i) -> positive Ord (1-based);
    prec(a, b) -> negative/zero/positive int, a total order on keys."""

    __slots__ = ("weight", "coeff", "prec")

    def __init__(self, weight: Callable[[Hashable], Ord],
                 coeff: Callable[[Hashable, int], Ord],
                 prec: Callable[[Hashable, Hashable], int]):
        self.weight = weight
        self.coeff = coeff
        self.prec = prec


def fo_kbo_weight(t: FoTerm, p: FoParams) -> Ord:
    """Variables weigh 0; an application weighs its head plus the
    coefficient-scaled weights of its arguments."""
    if isinstance(t, FoVar):
        return ZERO
    total = p.weight(t.key)
    for i, a in enumerate(t.args):
        total = ord_add(total, ord_mul(p.coeff(t.key, i + 1), fo_kbo_weight(a, p)))
    return total


def _var_counts(t: FoTerm, acc: Dict[str, int]) -> None:
    if isinstance(t, FoVar):
        acc[t.name] = acc.get(t.name, 0) + 1
    else:
        for a in t.args:
            _var_counts(a, acc)


def _covers_vars(t: FoTerm, s: FoTerm) -> bool:
    ct: Dict[str, int] = {}
    cs: Dict[str, int] = {}
    _var_counts(t, ct)
    _var_counts(s, cs)
    return all(ct.get(v, 0) >= n for v, n in cs.items())


def _kbo_greater(t: FoTerm, s: FoTerm, p: FoParams) -> bool:
    if not _covers_vars(t, s):
        return False
    wc = ord_compare(fo_kbo_weight(t, p), fo_kbo_weight(s, p))
    if wc > 0:
        return True
    if wc < 0:
        return False
    if isinstance(t, FoVar) or isinstance(s, FoVar):
        return False
    pc = p.prec(t.key, s.key)
    if pc > 0:
        return True
    if pc < 0:
        return False
    # same head: left-to-right lexicographic on arguments
    for a, b in zip(t.args, s.args):
        if a == b:
            continue
        return _kbo_greater(a, b, p)
    return False


def fo_kbo_compare(t: FoTerm, s: FoTerm, p: FoParams) -> Cmp:
    if t == s:
        return E
    if _kbo_greater(t, s, p):
        return G
    if _kbo_greater(s, t, p):
        return L
    return U


def _lpo_greater(t: FoTerm, s: FoTerm, p: FoParams) -> bool:
    if isinstance(t, FoVar):
        return False
    # subterm rule
    for a in t.args:
        if a == s or _lpo_greater(a, s, p):
            return True
    if isinstance(s, FoVar):
        return False
    pc = p.prec(t.key, s.key)
    if pc > 0:
        return all(_lpo_greater(t, b, p) for b in s.args)
    if pc < 0:
        return False
    # same head: lexicographic step plus the argument check
    for i, (a, b) in enumerate(zip(t.args, s.args)):
        if a == b:
            continue
        return (_lpo_greater(a, b, p)
                and all(_lpo_greater(t, sb, p) for sb in s.args[i + 1:]))
    return False


def fo_lpo_compare(t: FoTerm, s: FoTerm, p: FoParams) -> Cmp:
    if t == s:
        return E
    if _lpo_greater(t, s, p):
        return G
    if _lpo_greater(s, t, p):
        return L
    return U
