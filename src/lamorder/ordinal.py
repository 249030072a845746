"""Ordinals below epsilon_0 in Cantor normal form, plus a signed extension.

A value is a formal sum  w^e1*c1 + ... + w^en*cn  with strictly decreasing
ordinal exponents ``e_i`` and nonzero integer coefficients ``c_i`` (``w``
denotes omega).  Values whose leading coefficient is positive embed the
ordinals below epsilon_0; allowing negative coefficients closes the domain
under subtraction, which weight-difference analysis needs.

Addition and multiplication are the Hessenberg (natural) operations, extended
coefficient-wise to signed values.  They are commutative, associative and
strictly monotone, unlike the classical ordinal operations.

Every operation works on term lists already in this canonical order: a sum
is one merge of the two lists by exponent, a product merges one row per
term of the shorter factor, and a comparison walks both lists to the first
term where they differ, without building the difference.

Most values a weight pass meets are finite, so each value carries its
integer in ``fin`` when it has one.  Two finite operands take the integer
path: the operations add, multiply, negate or compare the integers and
return the result through ``from_int``, which shares one value per small
integer.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple


class Ord:
    """Signed Cantor normal form; immutable and hashable."""

    __slots__ = ("terms", "fin", "_hash")

    terms: Tuple[Tuple["Ord", int], ...]
    fin: Optional[int]

    def __init__(self, terms: Tuple[Tuple["Ord", int], ...] = ()):
        # terms must already be canonical: exponents strictly decreasing,
        # coefficients nonzero.  Use the module helpers to build values.
        self.terms = terms
        # the value as an int when it is finite (a signed integer), else None
        if not terms:
            self.fin = 0
        elif len(terms) == 1 and not terms[0][0].terms:
            self.fin = terms[0][1]
        else:
            self.fin = None
        self._hash = None

    def __hash__(self) -> int:
        # computed on first use: most values never serve as a key
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ord) and self.terms == other.terms

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_nonneg(self) -> bool:
        """True iff the value is >= 0, i.e. zero or positive leading term."""
        return not self.terms or self.terms[0][1] > 0

    def is_positive(self) -> bool:
        return bool(self.terms) and self.terms[0][1] > 0

    def is_ordinal(self) -> bool:
        """True iff the value is an ordinal (possibly 0): every coefficient
        is positive and every exponent is an ordinal."""
        return all(c > 0 and e.is_ordinal() for e, c in self.terms)

    def is_natural(self) -> bool:
        """True iff the value is a natural number (possibly 0)."""
        return self.fin is not None and self.fin >= 0

    def to_int(self) -> int:
        """The value as an int; only valid when is_natural() or negated."""
        if self.fin is None:
            raise ValueError("not a finite ordinal: %s" % self)
        return self.fin

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Ord") -> "Ord":
        return ord_add(self, other)

    def __neg__(self) -> "Ord":
        if self.fin is not None:
            return from_int(-self.fin)
        return Ord(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Ord") -> "Ord":
        return ord_add(self, -other)

    def __mul__(self, other: "Ord") -> "Ord":
        return ord_mul(self, other)

    def __repr__(self) -> str:
        return "Ord(%s)" % format_ord(self)

    def __str__(self) -> str:
        return format_ord(self)


ZERO = Ord()

# the integers from_int shares one value for: weights, coefficients and the
# sums and products a weight pass forms from them mostly fall in this range
SHARED_RANGE = 512
_SHARED = {0: ZERO}
_SHARED.update((n, Ord(((ZERO, n),)))
               for n in range(-SHARED_RANGE, SHARED_RANGE + 1) if n)

ONE = _SHARED[1]
OMEGA = Ord(((ONE, 1),))


def from_int(n: int) -> Ord:
    """The finite value n: one shared value for each n in the shared range,
    a fresh one outside it."""
    v = _SHARED.get(n)
    return Ord(((ZERO, n),)) if v is None else v


def omega_pow(e: Ord, coeff: int = 1) -> Ord:
    if coeff == 0:
        return ZERO
    return Ord(((e, coeff),))


def ord_add(a: Ord, b: Ord) -> Ord:
    """Hessenberg sum: one merge of the two term lists by exponent, like
    terms summed and zero sums dropped."""
    fa = a.fin
    if fa is not None:
        fb = b.fin
        if fb is not None:
            return from_int(fa + fb)
    ta, tb = a.terms, b.terms
    if not ta:
        return b
    if not tb:
        return a
    na, nb = len(ta), len(tb)
    if na == 1 and nb == 1:
        (ea, ca), = ta
        (eb, cb), = tb
        if ea is eb or ea == eb:
            c = ca + cb
            return Ord(((ea, c),)) if c else ZERO
    out = []
    i = j = 0
    while i < na and j < nb:
        ea, ca = ta[i]
        eb, cb = tb[j]
        d = 0 if ea is eb else ord_compare(ea, eb)
        if d > 0:
            out.append(ta[i])
            i += 1
        elif d < 0:
            out.append(tb[j])
            j += 1
        else:
            c = ca + cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    return Ord(tuple(out) + ta[i:] + tb[j:])


def ord_mul(a: Ord, b: Ord) -> Ord:
    """Hessenberg product: bilinear, with natural sums of exponents.  Each
    term of the shorter factor scales the longer one into a row that keeps
    its order, since the natural sum is strictly monotone; the rows are
    merged by ``ord_add``."""
    fa = a.fin
    if fa is not None:
        fb = b.fin
        if fb is not None:
            return from_int(fa * fb)
    ta, tb = a.terms, b.terms
    if not ta or not tb:
        return ZERO
    if len(ta) == 1 and len(tb) == 1:
        (ea, ca), = ta
        (eb, cb), = tb
        return Ord(((ord_add(ea, eb), ca * cb),))
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out = ZERO
    for ea, ca in ta:
        out = ord_add(out, Ord(tuple([(ord_add(ea, eb), ca * cb) for eb, cb in tb])))
    return out


def ord_compare(a: Ord, b: Ord) -> int:
    """-1, 0 or 1: the sign of ``a - b``, read off the first term where the
    two lists differ.  Total; agrees with ordinal order on nonnegative
    values."""
    if a is b:
        return 0
    fa = a.fin
    if fa is not None:
        fb = b.fin
        if fb is not None:
            return (fa > fb) - (fa < fb)
    ta, tb = a.terms, b.terms
    for (ea, ca), (eb, cb) in zip(ta, tb):
        c = 0 if ea is eb else ord_compare(ea, eb)
        if c > 0:       # a - b leads with a's term
            return 1 if ca > 0 else -1
        if c < 0:       # a - b leads with b's term, negated
            return -1 if cb > 0 else 1
        if ca != cb:
            return 1 if ca > cb else -1
    if len(ta) > len(tb):
        return 1 if ta[len(tb)][1] > 0 else -1
    if len(ta) < len(tb):
        return -1 if tb[len(ta)][1] > 0 else 1
    return 0


# -- textual ordinal literals ------------------------------------------------
#
# Grammar (whitespace optional):   lit  ::= term (('+'|'-') term)*
#                                  term ::= NAT | 'w' ['^' exp] ['*' NAT]
#                                  exp  ::= NAT | 'w' | '(' lit ')'

_TOKEN = re.compile(r"\s*(\d+|[w^*+()-])")


def _tokenize_ord(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError("bad ordinal literal %r at offset %d" % (text, pos))
            break
        out.append(m.group(1))
        pos = m.end()
    return out


# the deepest nesting of parenthesized exponents that parse_ord reads: each
# level takes a few interpreter frames, here and in operations on the value
MAX_NESTING = 256


def parse_ord(text: str) -> Ord:
    toks = _tokenize_ord(text)
    depth = 0
    for tok in toks:
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_NESTING:
            raise ValueError("ordinal literal nested more than %d deep" % MAX_NESTING)
    value, rest = _parse_sum(toks)
    if rest:
        raise ValueError("trailing tokens in ordinal literal %r" % text)
    return value


def _parse_sum(toks):
    if toks and toks[0] == "-":
        value, toks = _parse_term(toks[1:])
        value = -value
    else:
        value, toks = _parse_term(toks)
    while toks and toks[0] in ("+", "-"):
        op, toks = toks[0], toks[1:]
        term, toks = _parse_term(toks)
        value = value + term if op == "+" else value - term
    return value, toks


def _parse_term(toks):
    if not toks:
        raise ValueError("empty ordinal term")
    tok, rest = toks[0], toks[1:]
    if tok.isdigit():
        return from_int(int(tok)), rest
    if tok != "w":
        raise ValueError("unexpected token %r in ordinal literal" % tok)
    exp = ONE
    if rest and rest[0] == "^":
        rest = rest[1:]
        if not rest:
            raise ValueError("missing exponent after ^")
        if rest[0] == "(":
            exp, rest = _parse_sum(rest[1:])
            if not rest or rest[0] != ")":
                raise ValueError("unbalanced ( in ordinal literal")
            rest = rest[1:]
        elif rest[0].isdigit():
            exp, rest = from_int(int(rest[0])), rest[1:]
        elif rest[0] == "w":
            exp, rest = OMEGA, rest[1:]
        else:
            raise ValueError("bad exponent token %r" % rest[0])
    coeff = 1
    if rest and rest[0] == "*":
        if len(rest) < 2 or not rest[1].isdigit():
            raise ValueError("missing coefficient after *")
        coeff, rest = int(rest[1]), rest[2:]
    return omega_pow(exp, coeff), rest


def format_ord(a: Ord) -> str:
    if not a.terms:
        return "0"
    parts = []
    for i, (e, c) in enumerate(a.terms):
        sign = ""
        if i == 0:
            sign = "-" if c < 0 else ""
        else:
            sign = " - " if c < 0 else " + "
        mag = abs(c)
        if e.is_zero():
            parts.append("%s%d" % (sign, mag))
            continue
        if e == ONE:
            base = "w"
        elif e.is_natural():
            base = "w^%d" % e.to_int()
        else:
            base = "w^(%s)" % format_ord(e)
        parts.append("%s%s" % (sign, base if mag == 1 else "%s*%d" % (base, mag)))
    return "".join(parts)
