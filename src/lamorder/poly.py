"""Weight polynomials over symbolic indeterminates with ordinal coefficients.

Indeterminates stand for unknown facts about variable instantiations:

* ``WInd(key)``    -- weight (minus one, without leading lambdas) of the
  instantiation of an applied variable; ``key`` is a normalized spine,
* ``KInd(key, i)`` -- copy multiplicity of the i-th pending argument,
* ``HInd(name)``   -- eta expansions a type variable's instantiation causes.

Indeterminates are interned like their keys (``term.Interned``), so equality
is identity, and a monomial sorts its indeterminates by creation serial.
Polynomials are kept in standard form: a map from monomials (multisets of
indeterminates, stored as sorted tuples) to nonzero signed ordinal
coefficients.  The map itself is unordered; only printing sorts it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, ItemsView, List, Mapping, Optional, Tuple, Union

from .cmp import Cmp, E, G, GE, L, LE, U
from .ordinal import Ord, ZERO, ONE, from_int, ord_add, ord_mul
from .term import Interned


class PolyError(Exception):
    pass


# ---------------------------------------------------------------------------
# Indeterminates
# ---------------------------------------------------------------------------

class Indet(Interned):
    __slots__ = ()


class WInd(Indet):
    __slots__ = ("key",)

    def __repr__(self):
        return "w[%r]" % (self.key,)


class KInd(Indet):
    __slots__ = ("key", "i")

    def __repr__(self):
        return "k[%r,%d]" % (self.key, self.i)


class HInd(Indet):
    __slots__ = ("name",)

    def __repr__(self):
        return "h[%s]" % self.name


# Creation serials give a deterministic, total monomial order.
_serial = attrgetter("serial")

Monomial = Tuple[Indet, ...]


def monomial(*indets: Indet) -> Monomial:
    return tuple(sorted(indets, key=_serial))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials, sorted like every stored monomial."""
    if not a:
        return b
    return tuple(sorted(a + b, key=_serial))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Immutable standard-form polynomial: monomial tuple -> nonzero Ord."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Optional[Mapping[Monomial, Ord]] = None):
        self._coeffs = {m: c for m, c in (coeffs or {}).items() if not c.is_zero()}

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __eq__(self, other):
        return isinstance(other, Poly) and other._coeffs == self._coeffs

    def items(self) -> ItemsView[Monomial, Ord]:
        """The nonzero entries, in no particular order."""
        return self._coeffs.items()

    @property
    def constant(self) -> Ord:
        """The constant monomial's coefficient; 0 when absent."""
        return self._coeffs.get((), ZERO)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return not self._coeffs or (len(self._coeffs) == 1 and () in self._coeffs)

    def indets(self) -> List[Indet]:
        """The indeterminates that occur, in creation order."""
        return sorted({x for m in self._coeffs for x in m}, key=_serial)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        acc = dict(self._coeffs)
        for m, c in other._coeffs.items():
            acc[m] = ord_add(acc.get(m, ZERO), c)
        return Poly(acc)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: Dict[Monomial, Ord] = {}
        for ma, ca in self._coeffs.items():
            for mb, cb in other._coeffs.items():
                m = mono_mul(ma, mb)
                acc[m] = ord_add(acc.get(m, ZERO), ord_mul(ca, cb))
        return Poly(acc)

    def scale(self, c: Ord) -> "Poly":
        if c.is_zero():
            return Poly()
        return Poly({m: ord_mul(c, k) for m, k in self._coeffs.items()})

    # -- analysis -----------------------------------------------------------

    def surely_nonneg(self) -> bool:
        """Sound, incomplete: True only if every coefficient is >= 0, which
        forces a nonnegative value under every assignment."""
        return analyze_weight_diff(self) in (G, GE, E)

    def __repr__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for m, c in sorted(self._coeffs.items(),
                           key=lambda mc: tuple(map(_serial, mc[0]))):
            if not m:
                parts.append(str(c))
            elif c == ONE:
                parts.append("*".join(map(repr, m)))
            else:
                parts.append("(%s)*%s" % (c, "*".join(map(repr, m))))
        return " + ".join(parts)


def const_poly(c: Union[Ord, int]) -> Poly:
    if isinstance(c, int):
        c = from_int(c)
    if c.is_zero():
        return Poly()
    return Poly({(): c})


def indet_poly(x: Indet) -> Poly:
    return Poly({(x,): ONE})


ZERO_POLY = Poly()


# ---------------------------------------------------------------------------
# Weight-difference analysis
# ---------------------------------------------------------------------------

def analyze_weight_diff(w: Poly) -> Cmp:
    """Classify the sign of ``w`` across all assignments, refined by the sign
    of the constant monomial when one direction is certain.  One scan of the
    coefficients, each of which is nonzero: all positive is G or GE (G when
    the constant is among them), all negative is L or LE, none is E."""
    pos = neg = False
    for c in w._coeffs.values():
        if c.is_positive():
            pos = True
        else:
            neg = True
        if pos and neg:
            return U
    if pos:
        return G if () in w._coeffs else GE
    if neg:
        return L if () in w._coeffs else LE
    return E


# ---------------------------------------------------------------------------
# Assignments and substitutions
# ---------------------------------------------------------------------------

def eval_poly(w: Poly, assignment: Mapping[Indet, Ord]) -> Ord:
    """Value under a total assignment; raises naming any missing indeterminate."""
    total = ZERO
    for m, c in w.items():
        acc = c
        for x in m:
            if x not in assignment:
                raise PolyError("assignment is missing %r" % (x,))
            acc = ord_mul(acc, assignment[x])
        total = ord_add(total, acc)
    return total


def subst_poly(w: Poly, mapping: Mapping[Indet, Union[Indet, Ord, Poly]]) -> Poly:
    """Replace indeterminates by indeterminates, ordinal values or whole
    polynomials, then renormalize."""
    out = ZERO_POLY
    for m, c in w.items():
        acc = const_poly(c)
        for x in m:
            img = mapping.get(x, x)
            if isinstance(img, Indet):
                acc = acc * indet_poly(img)
            elif isinstance(img, Ord):
                acc = acc.scale(img)
            else:
                acc = acc * img
        out = out + acc
    return out
