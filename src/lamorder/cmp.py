"""Six-valued comparison verdicts and their list extensions.

G and L are proven strict comparisons, GE and LE proven nonstrict ones whose
strictness is unknown, E is syntactic equality and U means no claim.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence


class Cmp(enum.Enum):
    G = "G"
    GE = "GE"
    E = "E"
    LE = "LE"
    L = "L"
    U = "U"

    def __str__(self) -> str:
        return self.value


G, GE, E, LE, L, U = Cmp.G, Cmp.GE, Cmp.E, Cmp.LE, Cmp.L, Cmp.U

_FLIP = {G: L, GE: LE, E: E, LE: GE, L: G, U: U}


def flip(cmp: Cmp) -> Cmp:
    return _FLIP[cmp]


def lex_merge(first: Cmp, rest: Cmp) -> Cmp:
    """Lexicographic combination of a verdict with the one that follows it:
    E defers to ``rest``, a strict verdict or U decides.  GE and LE defer to
    ``rest`` too, but stand when it is E and give U when it points the other
    way.  The merge is associative, so a scan may merge each position into a
    running verdict, left to right."""
    if first is E:
        return rest
    if first is GE:
        return U if rest is L or rest is LE else (GE if rest is E else rest)
    if first is LE:
        return U if rest is G or rest is GE else (LE if rest is E else rest)
    return first


def smooth(cmp: Cmp) -> Cmp:
    """Weaken strict verdicts; componentwise extensions never prove strictness."""
    if cmp is G:
        return GE
    if cmp is L:
        return LE
    return cmp


def lex_ext(op: Callable, ts: Sequence, ss: Sequence) -> Cmp:
    """Left-to-right lexicographic extension of a six-valued comparison.

    Both lists must have the same length; empty lists compare E.  The scan
    keeps one running verdict, merged with each position's, and stops at a
    strict or U position.
    """
    if len(ts) != len(ss):
        raise ValueError("lexicographic extension over unequal lengths: %d vs %d"
                         % (len(ts), len(ss)))
    acc = E
    for a, b in zip(ts, ss):
        c = op(a, b)
        acc = lex_merge(acc, c)
        if c is G or c is L or c is U:
            break
    return acc


def cw_ext(op: Callable, ts: Sequence, ss: Sequence) -> Cmp:
    """Componentwise (smoothed) extension: strict verdicts per position are
    weakened before the lexicographic merge."""
    return lex_ext(lambda b, a: smooth(op(b, a)), ts, ss)
