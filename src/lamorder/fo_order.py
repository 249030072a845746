"""Untyped first-order KBO (ordinal weights, argument coefficients) and LPO.

A first-order term is a ``term.Type`` tree: ``TyVar`` is a variable and
``TyCon(head, args)`` an application, whose head may be any hashable key --
a type constructor's name in the type orders, an oracle symbol key in the
ground encoding.  Both comparators are parameterized by provider callables,
because some use sites (the ground encoding) have an infinite, recursively
ordered symbol universe that cannot be enumerated up front.  Terms are
interned, so equality is identity.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Hashable, Tuple

from .cmp import Cmp, E, G, L, U
from .ordinal import Ord, ZERO, ord_add, ord_compare, ord_mul
from .term import TyVar, Type, rebuild


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


# each weighed subterm of one comparison: its weight and its variable counts
_Facts = Dict[Type, Tuple[Ord, Counter]]


def _weigh(t: Type, p: FoParams, facts: _Facts) -> Tuple[Ord, Counter]:
    """The weight and variable counts of ``t``, entered into ``facts`` for
    each of its subterms that ``facts`` lacks.  Variables weigh 0; an application weighs its head plus the
    coefficient-scaled weights of its arguments."""
    def rule(u, d, kids):
        if u not in facts:
            if isinstance(u, TyVar):
                facts[u] = ZERO, Counter((u,))
            else:
                total, counts = p.weight(u.name), Counter()
                for i, (w, c) in enumerate(kids):
                    total = ord_add(total, ord_mul(p.coeff(u.name, i + 1), w))
                    counts.update(c)
                facts[u] = total, counts
        return facts[u]
    return rebuild(t, rule)


def fo_kbo_weight(t: Type, p: FoParams) -> Ord:
    return _weigh(t, p, {})[0]


def _kbo_greater(t: Type, s: Type, p: FoParams, facts: _Facts) -> bool:
    """Whether t > s, both weighed in ``facts``."""
    (wt, ct), (ws, cs) = facts[t], facts[s]
    if cs - ct:
        return False        # a variable occurs more often in s than in t
    wc = ord_compare(wt, ws)
    if wc > 0:
        return True
    if wc < 0:
        return False
    if isinstance(t, TyVar) or isinstance(s, TyVar):
        return False
    pc = p.prec(t.name, s.name)
    if pc > 0:
        return True
    if pc < 0:
        return False
    # same head: left-to-right lexicographic on arguments
    for a, b in zip(t.args, s.args):
        if a == b:
            continue
        return _kbo_greater(a, b, p, facts)
    return False


# the decided pairs of one comparison
_Memo = Dict[Tuple[Type, Type], bool]


def _lpo_greater(t: Type, s: Type, p: FoParams, memo: _Memo) -> bool:
    """Whether t > s, each pair decided once per memo: the subterm rule
    revisits pairs, which without the memo is exponential in the depth."""
    got = memo.get((t, s))
    if got is None:
        got = memo[t, s] = _lpo_rules(t, s, p, memo)
    return got


def _lpo_rules(t: Type, s: Type, p: FoParams, memo: _Memo) -> bool:
    if isinstance(t, TyVar):
        return False
    # subterm rule
    for a in t.args:
        if a == s or _lpo_greater(a, s, p, memo):
            return True
    if isinstance(s, TyVar):
        return False
    pc = p.prec(t.name, s.name)
    if pc > 0:
        return all(_lpo_greater(t, b, p, memo) for b in s.args)
    if pc < 0:
        return False
    # same head: lexicographic step plus the argument check
    for i, (a, b) in enumerate(zip(t.args, s.args)):
        if a == b:
            continue
        return (_lpo_greater(a, b, p, memo)
                and all(_lpo_greater(t, sb, p, memo) for sb in s.args[i + 1:]))
    return False


def _trichotomy(greater: Callable[[Type, Type], bool], t: Type, s: Type) -> Cmp:
    if t == s:
        return E
    if greater(t, s):
        return G
    if greater(s, t):
        return L
    return U


def fo_kbo_compare(t: Type, s: Type, p: FoParams) -> Cmp:
    """Each subterm of both sides is weighed once, for both directions."""
    facts: _Facts = {}
    _weigh(t, p, facts)
    _weigh(s, p, facts)
    return _trichotomy(lambda a, b: _kbo_greater(a, b, p, facts), t, s)


def fo_lpo_compare(t: Type, s: Type, p: FoParams) -> Cmp:
    """Both directions share one memo of decided pairs."""
    memo: _Memo = {}
    return _trichotomy(lambda a, b: _lpo_greater(a, b, p, memo), t, s)
