"""Inputs of the three workloads, built from a seed, and their reference
verdicts.

A corpus holds, for each order, a list of operations ``(fn, args)``.  Every
operation is one optimized comparison as a prover would issue it; on
``deep_nest`` it also parses both sides from text.  Reference verdicts are
worked out by ``reference_pass``, never inside a timed loop.  Every timed
operation completes on the current code; ``deep_nest`` also holds probes,
the depths past the current limits, which are run apart and reported as
limits, not timed.
"""

from __future__ import annotations

import random
import statistics
import time

from lamorder import checks, gen, oracle, parse
from lamorder import lambda_order as lo
from lamorder import term as tm
from lamorder.cmp import L, U, flip

from timing import NAIVE_STEPS, OK, CallBudget, timed

ORDERS = ("kbo", "lpo")

# Both sides of every random or related pair have this many nodes
# (term.size), inclusive.
SIZE_BAND = (8, 40)
# Signatures, term pools, pairs and rewrite steps are fixed; the seed picks
# the side order of every pair and the order in which the pairs run.  LPO's
# time on these pairs sits in a heavy tail of nonground blow-ups: with 8000
# pairs drawn afresh from fixed pools for every seed, the LPO throughput and
# p99 of five seeds spread by a fifth to a third of their median.  Odd
# signatures use ordinal weights.
N_SIGS = 8
# Pool terms and pairs per signature; related_pairs is held smaller by the
# cost of its generation and naive references.
RANDOM_POOL, RANDOM_PAIRS = 192, 1000
RELATED_POOL, RELATED_PAIRS = 128, 250

# deep_nest depth sweeps.  At the baseline, optimized compare overflows the
# stack between depth 320 and 336 and parse_term from about 496, and the
# nonground LPO nest takes about 0.1 s at depth 6, 0.5 s at 7 and 3 s at 8.
# The timed sweeps stay clear of those limits, so that every timed operation
# completes and a run's failures cannot depend on its speed; the probe
# depths lie past them and are run apart, under a work budget.
DEEP_DEPTHS = (1, 2, 4, 8) + tuple(range(32, 257, 32))
NONGROUND_DEPTHS = tuple(range(1, 7))
DEEP_PROBE_DEPTHS = (384, 448, 512)
NONGROUND_PROBE_DEPTHS = (7, 8)
# Families whose probes run under a work budget: their time explodes.
BUDGETED_FAMILIES = ("nonground_nest",)
# Depth up to which the by-construction verdicts are pinned against the
# naive algorithm, which is exponential on the nests.
PIN_DEPTH = 6


class Corpus:
    def __init__(self, name: str):
        self.name = name
        self.ops = {o: [] for o in ORDERS}       # order -> [(fn, args)]
        self.expected = {o: [] for o in ORDERS}  # verdict, or None if unknown
        self.sizes = []                          # size of every side
        self.drawn = 0                           # generator draws
        self.accepted = 0                        # draws kept
        self.pins = []                           # (order, op index, t, s)
        self.probes = []                         # (family, depth, order, fn, args)

    def size_quartiles(self):
        return [round(q, 1) for q in statistics.quantiles(self.sizes, n=4)]

    def accept_frac(self) -> float:
        return self.accepted / self.drawn if self.drawn else 1.0


def compare_opt(t, s, p):
    return lo.compare(t, s, p, "optimized")


def parse_compare(t_text, s_text, sig, p):
    return lo.compare(parse.parse_term(t_text, sig),
                      parse.parse_term(s_text, sig), p, "optimized")


# ---------------------------------------------------------------------------
# random_pairs and related_pairs
# ---------------------------------------------------------------------------

class _SigEnv:
    """One generated signature with a generator for its term pool and one
    for pairs and rewrite steps, both fixed, polymorphic and over the same
    variables."""

    def __init__(self, k: int):
        cfg = gen.GenConfig(seed=k, polymorphic=True, ordinal_weights=k % 2 == 1)
        self.sig, self.kbo, self.lpo = gen.gen_signature(cfg)
        self.pool_rng = random.Random("pool:%d" % k)
        self.rng = random.Random("pairs:%d" % k)
        var_types = gen.gen_var_types(self.pool_rng, cfg, self.sig, polymorphic=True)
        ty_vars = ["a%d" % i for i in range(cfg.ty_var_count)]
        self.pool_gen, self.gen = (
            gen.TermGen(rng, self.sig, var_types=var_types, poly_ty_vars=ty_vars)
            for rng in (self.pool_rng, self.rng))
        self.ty_vars = [tm.TyVar(v) for v in ty_vars]
        self.bases = [tm.TyCon(n) for n, a in self.sig.type_constructors.items()
                      if a == 0 and n != tm.ARROW]

    def pool_type(self):
        rng = self.pool_rng
        r = rng.random()
        if r < 0.15:
            return rng.choice(self.ty_vars)
        if r < 0.45:
            return tm.arrow(rng.choice(self.bases), rng.choice(self.bases))
        return rng.choice(self.bases)

    def pool(self, corpus: Corpus, n: int):
        """n independent terms, rejection-sampled into SIZE_BAND: the
        generator's budget is only an upper bound on size."""
        out = []
        while len(out) < n:
            corpus.drawn += 1
            t = _draw(self.pool_gen, self.pool_type(), SIZE_BAND[1])
            if t is not None and in_band(t):
                corpus.accepted += 1
                out.append(t)
        return out

    def add_pair(self, corpus: Corpus, t, s) -> None:
        for order, p in (("kbo", self.kbo), ("lpo", self.lpo)):
            corpus.ops[order].append((compare_opt, (t, s, p)))
            corpus.expected[order].append(None)
        corpus.sizes += [tm.size(t), tm.size(s)]


def _draw(g: gen.TermGen, ty, budget: int):
    try:
        return g.gen(ty, budget, ground=False)
    except gen.GenError:
        return None


def in_band(t) -> bool:
    return SIZE_BAND[0] <= tm.size(t) <= SIZE_BAND[1]


def _envs():
    for k in range(N_SIGS):
        yield _SigEnv(k)


def _place(corpus: Corpus, pairs, seed: int) -> None:
    """Add the pairs in an order drawn from the seed, each with its sides
    swapped or not as the seed draws."""
    rng = random.Random("%d:place" % seed)
    rng.shuffle(pairs)
    for env, t, s in pairs:
        if rng.random() < 0.5:
            t, s = s, t
        env.add_pair(corpus, t, s)


def build_random_pairs(seed: int) -> Corpus:
    """Independent pairs: two distinct terms of one signature's pool."""
    corpus = Corpus("random_pairs")
    pairs = []
    for env in _envs():
        pool = env.pool(corpus, RANDOM_POOL)
        pairs += [(env, *env.rng.sample(pool, 2)) for _ in range(RANDOM_PAIRS)]
    _place(corpus, pairs, seed)
    return corpus


def _rewrite_step(env: _SigEnv, t):
    """t with one accessible non-root position replaced by a fresh
    well-typed subterm, or None when the result is unchanged or leaves the
    size band."""
    path, _ = env.rng.choice(tm.accessible_positions(t)[1:])
    sub = tm.subterm_at(t, path)
    fresh = _draw(env.gen, tm.type_of(sub, env.sig),
                  SIZE_BAND[1] - tm.size(t) + tm.size(sub))
    if fresh is None or fresh == sub:
        return None
    u = tm.replace_at(t, path, fresh)
    return u if in_band(u) else None


def build_related_pairs(seed: int) -> Corpus:
    """A term against itself after one rewrite step."""
    corpus = Corpus("related_pairs")
    pairs = []
    for env in _envs():
        # a term whose head is a variable has no accessible subterm
        pool = [t for t in env.pool(corpus, RELATED_POOL)
                if len(tm.accessible_positions(t)) > 1]
        made = 0
        while made < RELATED_PAIRS:
            corpus.drawn += 1
            t = env.rng.choice(pool)
            u = _rewrite_step(env, t)
            if u is None:
                continue
            corpus.accepted += 1
            made += 1
            pairs.append((env, t, u))
    _place(corpus, pairs, seed)
    return corpus


# ---------------------------------------------------------------------------
# deep_nest
# ---------------------------------------------------------------------------
#
# The sides are written as text directly: the library's render_term recurses
# and cannot render the deepest terms of the sweep.

def _nest_text(depth: int, inner: str, pad: str) -> str:
    return "(sym g () () " * depth + inner + (" %s)" % pad) * depth


def _chain_text(depth: int, inner: str) -> str:
    return "(sym f () () " * depth + inner + ")" * depth


_A, _B = "(sym a () ())", "(sym b () ())"


def _nonground_nest(depth: int):
    k = tm.TyCon("kappa")
    t, s = tm.Var("x", k), tm.Var("y", k)
    for _ in range(depth):
        t = tm.Sym("g", (), (), (t, tm.Sym("b")))
        s = tm.Sym("g", (), (), (s, tm.Sym("a")))
    return t, s


# family -> (depths, probe depths, texts of (t, s) at a depth, terms at a
# depth, verdict)
FAMILIES = {
    "ground_nest": (DEEP_DEPTHS, DEEP_PROBE_DEPTHS,
                    lambda d: (_nest_text(d, _A, _B), _nest_text(d, _B, _A)),
                    checks.adversarial_lpo_pair, L),
    "nonground_nest": (NONGROUND_DEPTHS, NONGROUND_PROBE_DEPTHS,
                       lambda d: (_nest_text(d, "(var x kappa)", _B),
                                  _nest_text(d, "(var y kappa)", _A)),
                       _nonground_nest, U),
    "chain": (DEEP_DEPTHS, DEEP_PROBE_DEPTHS,
              lambda d: (_chain_text(d, _A), _chain_text(d, _B)),
              checks.deep_chain_pair, L),
}


def build_deep_nest(seed: int) -> Corpus:
    """Every family at every depth under both orders, and the probes.  The
    seed picks the side order of each pair and the order of the
    operations."""
    corpus = Corpus("deep_nest")
    sig, kbo, lpo = checks.bench_signature()
    rng = random.Random("%d:deep" % seed)
    cases = []
    for name, (depths, probe_depths, texts, terms, verdict) in FAMILIES.items():
        for d in probe_depths:
            for order, p in (("kbo", kbo), ("lpo", lpo)):
                corpus.probes.append((name, d, order, parse_compare,
                                      (*texts(d), sig, p)))
        for d in depths:
            t_text, s_text = texts(d)
            swap = rng.random() < 0.5
            if swap:
                t_text, s_text, verdict_d = s_text, t_text, flip(verdict)
            else:
                verdict_d = verdict
            cases.append((name, d, swap, t_text, s_text, verdict_d))
            # both sides of a family have the same size
            corpus.sizes += [_family_size(name, d)] * 2
    rng.shuffle(cases)
    for name, d, swap, t_text, s_text, verdict in cases:
        for order, p in (("kbo", kbo), ("lpo", lpo)):
            if d <= PIN_DEPTH:
                t, s = FAMILIES[name][3](d)
                corpus.pins.append((order, len(corpus.ops[order]),
                                    *((s, t) if swap else (t, s))))
            corpus.ops[order].append((parse_compare, (t_text, s_text, sig, p)))
            corpus.expected[order].append(verdict)
    return corpus


def _family_size(name: str, depth: int) -> int:
    return 1 + depth if name == "chain" else 1 + 2 * depth


BUILDERS = {
    "random_pairs": build_random_pairs,
    "related_pairs": build_related_pairs,
    "deep_nest": build_deep_nest,
}


# ---------------------------------------------------------------------------
# Reference verdicts
# ---------------------------------------------------------------------------

class Reference:
    def __init__(self):
        self.naive_s = 0.0
        self.oracle_s = 0.0
        self.unverified = 0
        self.conflicts = []   # descriptions of reference disagreements


def reference_pass(corpus: Corpus, naive_calls: int, oracle_s: float) -> Reference:
    """Fill in the reference verdicts of random and related pairs with the
    naive algorithm of the same order, and check ground pairs against the
    oracle.  A pair whose naive compare makes more than ``naive_calls``
    recursive calls has no reference: it is set aside, not timed, and
    counted as unverified.  The budget counts work, not time, so the same
    pairs are set aside on every run, and it counts the naive algorithm,
    which is a reference specification and is not tuned, so a change to
    the optimized code does not change which pairs are timed.  The oracle
    check runs under a deadline of ``oracle_s`` and is skipped past it.
    On deep_nest, check the by-construction verdicts against the naive
    algorithm up to PIN_DEPTH."""
    ref = Reference()
    budget = CallBudget(NAIVE_STEPS, naive_calls)
    if budget.missing:
        raise SystemExit("perfbench: cannot bound the naive reference, "
                         "missing from the library: " + ", ".join(budget.missing))
    naive = budget.bounded(lo.compare)
    for order in ORDERS:
        kept = []
        for i, (fn, args) in enumerate(corpus.ops[order]):
            if fn is not compare_opt:
                kept.append(i)
                continue
            t, s, p = args
            t0 = time.perf_counter()
            with budget:
                status, verdict, _, _ = timed(naive, (t, s, p, "naive"), 3600.0)
            ref.naive_s += time.perf_counter() - t0
            if status != OK:
                ref.unverified += 1
                continue
            kept.append(i)
            corpus.expected[order][i] = verdict
            if tm.is_ground(t) and tm.is_ground(s):
                t0 = time.perf_counter()
                status, want, _, _ = timed(oracle.oracle_compare, (t, s, p), oracle_s)
                ref.oracle_s += time.perf_counter() - t0
                if status == OK and want != verdict:
                    ref.conflicts.append("%s pair %d: naive %s, oracle %s"
                                         % (order, i, verdict, want))
        corpus.ops[order] = [corpus.ops[order][i] for i in kept]
        corpus.expected[order] = [corpus.expected[order][i] for i in kept]
    for order, i, t, s in corpus.pins:
        t_text, s_text, sig, p = corpus.ops[order][i][1]
        want = corpus.expected[order][i]
        if (parse.parse_term(t_text, sig), parse.parse_term(s_text, sig)) != (t, s):
            ref.conflicts.append("%s op %d: text does not parse to its family"
                                 % (order, i))
            continue
        t0 = time.perf_counter()
        got = lo.compare(t, s, p, "naive")
        ref.naive_s += time.perf_counter() - t0
        if got != want:
            ref.conflicts.append("%s op %d: naive %s, by construction %s"
                                 % (order, i, got, want))
    return ref
