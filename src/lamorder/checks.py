"""Randomized property families.

Each family is one trial body (env, rng, i) -> counterexample, None or
SKIP, registered under its name with @family.  A trial whose draw reaches
the family's check is a witness: it returns None when the check holds and
a counterexample when it fails.  A trial whose draw reaches no check
returns SKIP.  FAMILIES maps each name to a runner (seed, iters) ->
PropertyResult that builds the family's environment and trial generator
from the seed, runs the trials and counts the witnesses, and the instances
within witnesses that a family's check skipped.  The CLI's check
command runs all of them and reports one line per family; the acceptance
criteria run them with their own seeds and trial counts, and assert a
witness floor.
"""

from __future__ import annotations

import copy
import functools
import random
from typing import Callable, Dict, List, Optional, Tuple

from .cmp import E, G, GE, L, LE, U, flip
from .gen import (GenConfig, GenError, TermGen, free_ty_vars, free_var_types,
                  gen_context, gen_grounding_subst, gen_monomorphizing_subst,
                  gen_signature, gen_var_types)
from .lambda_order import (ALGOS, KBO, LPO, LeakTypeMismatch, OrderParams,
                           check_leak_types, collect_indet_reps, compare,
                           weight_diff, weight_poly)
from .oracle import (assignment_from_grounding, encode_ground, oracle_compare,
                     oracle_weight, poly_subst_from_monomorphizing)
from .ordinal import from_int
from .poly import Poly, analyze_weight_diff, eval_poly, subst_poly
from . import term as tm
from .term import (Preterm, Sym, TyCon, Var, accessible_positions, app,
                   apply_subst, arrow, normalize, replace_at, shift,
                   subterm_at, truncating_apply, type_of)


SKIP = object()
"""What a trial body returns when its draw reaches no check."""

GROUNDINGS = 10
"""Ground instances that the stability families check per witness."""


class PropertyResult:
    def __init__(self, name: str, trials: int, witnesses: int, failures: int,
                 counterexample: Optional[str] = None, skipped: int = 0):
        self.name = name
        self.trials = trials
        self.witnesses = witnesses
        self.failures = failures
        self.counterexample = counterexample
        self.skipped = skipped

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        out = "PROP %-28s trials=%-6d witnesses=%-6d failures=%d" \
            % (self.name, self.trials, self.witnesses, self.failures)
        if self.skipped:
            out += " skipped=%d" % self.skipped
        if self.counterexample:
            out += "  ce=%s" % self.counterexample
        return out


class _Env:
    """One generated signature with both parameter sets and helper pools."""

    def __init__(self, seed: int, polymorphic: bool = False):
        # odd seeds draw transfinite weights (w, w + 1, w + 2), as the
        # benchmark's odd signatures do
        cfg = GenConfig(seed=seed, polymorphic=polymorphic, ordinal_weights=seed % 2 == 1)
        self.polymorphic = polymorphic
        self.rng = random.Random(seed ^ 0x5EED)
        self.sig, self.kbo, self.lpo = gen_signature(cfg)
        self.var_types = gen_var_types(self.rng, cfg, self.sig, polymorphic)
        if polymorphic:
            # a variable with a non-steady argument, which the identity short
            # cuts of the optimized orders must not treat as rigid
            iota, kappa = TyCon("iota"), TyCon("kappa")
            self.var_types["z"] = arrow(arrow(iota, kappa), kappa)
        self.ty_vars = ["a%d" % i for i in range(cfg.ty_var_count)] if polymorphic else []
        self.gen = TermGen(self.rng, self.sig, var_types=self.var_types,
                           poly_ty_vars=self.ty_vars)
        self.bases = self.sig.base_types()
        # what a family carries from one trial to the next within a run
        self.memo: Dict = {}
        # instances a family's check skipped, reported with its result
        self.skipped = 0

    def order(self, i: int) -> OrderParams:
        """Trial i's parameters: the KBO's on even trials, the LPO's on odd."""
        return self.kbo if i % 2 == 0 else self.lpo

    def random_type(self, fun_ok: bool = True):
        r = self.rng.random()
        if self.polymorphic and r < 0.15:
            return tm.TyVar(self.rng.choice(self.ty_vars))
        if fun_ok and r < 0.45:
            return arrow(self.rng.choice(self.bases), self.rng.choice(self.bases))
        return self.rng.choice(self.bases)

    def ground_term(self, size: int = 9) -> Preterm:
        return self.gen.gen(self.random_type(), size, ground=True)

    def open_term(self, size: int = 9) -> Preterm:
        return self.gen.gen(self.random_type(), size, ground=False)


Trial = Callable[[_Env, random.Random, int], object]

FAMILIES: Dict[str, Callable[[int, int], PropertyResult]] = {}


def _trials(name: str, body: Trial, polymorphic: bool, seed: int,
            iters: int) -> PropertyResult:
    """Run body on trials 0 .. iters-1 of a fresh environment and report the
    number of witnesses, the number of counterexamples and the first one,
    and the number of instances the body skipped."""
    env = _Env(seed, polymorphic)
    rng = random.Random(seed)
    outcomes = [body(env, rng, i) for i in range(iters)]
    witnesses = [o for o in outcomes if o is not SKIP]
    ces = [o for o in witnesses if o is not None]
    return PropertyResult(name, iters, len(witnesses), len(ces), ces[0] if ces else None,
                          env.skipped)


def family(name: str, polymorphic: bool = False) -> Callable[[Trial], Trial]:
    """Register a trial body as the family `name` in FAMILIES."""
    def register(body: Trial) -> Trial:
        FAMILIES[name] = functools.partial(_trials, name, body, polymorphic)
        return body
    return register


def run_families(seed: int, iters: int,
                 names: Optional[List[str]] = None) -> List[PropertyResult]:
    """Run the named families (all when names is empty) in registration
    order; an unknown name or a negative count raises ValueError before any
    family runs."""
    if iters < 0:
        raise ValueError("iters must be at least 0, got %d" % iters)
    unknown = [n for n in names or () if n not in FAMILIES]
    if unknown:
        raise ValueError("unknown property family: %s" % ", ".join(unknown))
    return [fn(seed, iters) for name, fn in FAMILIES.items()
            if not names or name in names]


# ---------------------------------------------------------------------------
# Term-structure families
# ---------------------------------------------------------------------------

@family("normalize-idempotent")
def _normalize_idempotent(env, rng, i):
    t = env.open_term()
    again = normalize(t, env.sig)
    if again != t:
        return "normalize not idempotent on %r" % (t,)
    type_of(t, env.sig)
    return None


@family("subst-compose")
def _subst_compose(env, rng, i):
    t = env.open_term()
    fv = free_var_types(t)
    theta = gen_grounding_subst(rng, env.sig, fv)
    u1 = apply_subst(t, theta, env.sig)
    # split theta into two layers: identity on half, then the rest
    names = sorted(fv)
    half = {k: v for k, v in fv.items() if k in names[: len(names) // 2]}
    rest = {k: v for k, v in fv.items() if k not in half}
    th1 = tm.Substitution(term_map={(n, ty): theta.term_map[(n, ty)]
                                    for n, ty in half.items()})
    th2 = tm.Substitution(term_map={(n, ty): theta.term_map[(n, ty)]
                                    for n, ty in rest.items()})
    u2 = apply_subst(apply_subst(t, th1, env.sig), th2, env.sig)
    if u1 != u2:
        return "substitution composition differs on %r" % (t,)
    return None


@family("context-round-trip")
def _context_round_trip(env, rng, i):
    t = env.ground_term()
    path, depth = gen_context(rng, t)
    sub = subterm_at(t, path)
    if tm.refers_to_outer_binders(sub, depth):
        return SKIP  # not the image of a shift; no term plugs in here
    lowered = shift(sub, -depth) if depth else sub
    back = replace_at(t, path, lowered)
    if back != t:
        return "context round trip failed at %r in %r" % (path, t)
    return None


# ---------------------------------------------------------------------------
# Polynomial families
# ---------------------------------------------------------------------------

def _random_assignment(rng: random.Random, poly: Poly):
    return {x: from_int(rng.choice([0, 1, 2, 5])) for x in poly.indets()}


@family("surely-nonneg-sound")
def _surely_nonneg_sound(env, rng, i):
    t = env.open_term()
    s = env.open_term()
    w = weight_diff(t, s, env.kbo)
    if not w.surely_nonneg():
        return SKIP
    assignment = _random_assignment(rng, w)
    if not eval_poly(w, assignment).is_nonneg():
        return "nonneg-certified polynomial evaluated negative: %r" % (w,)
    return None


@family("analyze-consistent")
def _analyze_consistent(env, rng, i):
    t = env.open_term()
    s = env.open_term()
    w = weight_diff(t, s, env.kbo)
    verdict = analyze_weight_diff(w)
    assignment = _random_assignment(rng, w)
    v = eval_poly(w, assignment)
    ok = {G: v.is_positive(), GE: v.is_nonneg(), E: v.is_zero(),
          LE: (-v).is_nonneg(), L: (-v).is_positive(), U: True}[verdict]
    if not ok:
        return "analyze=%s but value=%s for %r" % (verdict, v, w)
    return None


# ---------------------------------------------------------------------------
# Order families
# ---------------------------------------------------------------------------

def _mutated_params(p: OrderParams) -> OrderParams:
    """A copy of p with the ranks of its two highest plain symbols swapped;
    used as a self-test that the differential harness detects seeded
    faults."""
    plain = sorted((n for n in p.prec_ranks if n.startswith(("f", "c"))),
                   key=p.prec_ranks.get)
    if len(plain) < 2:
        raise ValueError("not enough plain symbols to mutate")
    a, b = plain[-2:]
    q = copy.copy(p)
    q.prec_ranks = {**p.prec_ranks, a: p.prec_ranks[b], b: p.prec_ranks[a]}
    q.validate()
    return q


@family("oracle-equivalence")
def _oracle_equivalence(env, rng, i, mutate=False):
    p = env.order(i)
    oracle_p = _mutated_params(p) if mutate else p
    t = env.ground_term(8)
    s = env.ground_term(8)
    want = oracle_compare(t, s, oracle_p)
    for algo in ALGOS:
        got = compare(t, s, p, algo)
        if got != want:
            return "%s %s %s vs oracle %s on %r / %r" % (p.kind, algo, got, want, t, s)
    return None


def oracle_equivalence_mutated(seed: int, iters: int) -> PropertyResult:
    """oracle-equivalence against an oracle with two precedence ranks
    swapped: a self-test that the harness reports a seeded fault.  It is not
    a family, since it is meant to fail."""
    return _trials("oracle-equivalence-mutated",
                   functools.partial(_oracle_equivalence, mutate=True),
                   False, seed, iters)


@family("ground-total")
def _ground_total(env, rng, i):
    p = env.order(i)
    t = env.ground_term(8)
    s = env.ground_term(8)
    c = compare(t, s, p)
    if c in (U, GE, LE):
        return "ground comparison returned %s on %r / %r" % (c, t, s)
    return None


def _rewrite_step(env, rng, t: Preterm) -> Optional[Preterm]:
    """t with one accessible non-root position replaced by a fresh term of
    the same type, or None when t has no such position or no fresh term of
    that type could be drawn."""
    positions = accessible_positions(t)[1:]
    if not positions:
        return None
    path, _ = rng.choice(positions)
    try:
        fresh = env.gen.gen(type_of(subterm_at(t, path), env.sig), 4, ground=False)
    except GenError:
        return None
    return replace_at(t, path, fresh)


@family("naive-opt-equal", polymorphic=True)
def _naive_opt_equal(env, rng, i):
    """Two independent draws, and the first of them that has an accessible
    non-root position against itself after one rewrite step there: a pair
    that shares every subterm off one path, as a prover's are."""
    p = env.order(i)
    t = env.open_term(8)
    s = env.open_term(8)
    pairs = [(t, s)]
    for base in (t, s):
        u = _rewrite_step(env, rng, base)
        if u is not None:
            pairs.append((base, u))
            break
    for x, y in pairs:
        a, b = (compare(x, y, p, algo) for algo in ALGOS)
        if a != b:
            return "%s naive=%s opt=%s on %r / %r" % (p.kind, a, b, x, y)
    return None


@family("flip-symmetric", polymorphic=True)
def _flip_symmetric(env, rng, i):
    p = env.order(i)
    t = env.open_term(8)
    s = env.open_term(8)
    if compare(t, s, p) != flip(compare(s, t, p)):
        return "asymmetric verdicts on %r / %r" % (t, s)
    return None


@family("grounding-stable")
def _grounding_stable(env, rng, i):
    p = env.order(i)
    ty = env.random_type()
    t = env.gen.gen(ty, 8, ground=False)
    s = env.gen.gen(ty, 8, ground=False)
    c = compare(t, s, p)
    if c not in (G, GE, LE, L):
        return SKIP
    fv = dict(free_var_types(t))
    fv.update(free_var_types(s))
    want = {G: (G,), GE: (G, E), LE: (L, E), L: (L,)}[c]
    for _ in range(GROUNDINGS):
        theta = gen_grounding_subst(rng, env.sig, fv)
        cg = compare(apply_subst(t, theta, env.sig), apply_subst(s, theta, env.sig), p)
        if cg not in want:
            return "%s: %s became %s under grounding on %r / %r" % (p.kind, c, cg, t, s)
    return None


def _instances_stable(apply, what: str, env, rng, i):
    """A G, GE, LE or L verdict survives type instantiation by ``apply``.
    truncating_apply keeps the indices that eta expansion adds at a side's
    head and drops their lambdas; an instance whose leaking indices carry
    two types, which check_leak_types rejects, is skipped and counted.
    apply_subst leaves no index loose, so it skips none."""
    p = env.order(i)
    t = env.open_term(8)
    s = env.open_term(8)
    c = compare(t, s, p)
    if c not in (G, GE, LE, L):
        return SKIP
    tyvars = sorted(set(free_ty_vars(t)) | set(free_ty_vars(s)))
    if not tyvars:
        return SKIP
    want = {G: (G,), GE: (G, GE, E), LE: (L, LE, E), L: (L,)}[c]
    checked = 0
    for _ in range(GROUNDINGS):
        theta = gen_monomorphizing_subst(rng, env.sig, tyvars)
        ti, si = apply(t, theta, env.sig), apply(s, theta, env.sig)
        try:
            check_leak_types(ti, si)
        except LeakTypeMismatch:
            env.skipped += 1
            continue
        checked += 1
        cg = compare(ti, si, p)
        if cg not in want:
            return "%s: %s became %s after %s on %r / %r" % (p.kind, c, cg, what, t, s)
    return None if checked else SKIP


family("monomorphizing-stable", polymorphic=True)(
    functools.partial(_instances_stable, apply_subst, "type instantiation"))
family("truncating-stable", polymorphic=True)(
    functools.partial(_instances_stable, truncating_apply, "truncating type instantiation"))


@family("transitive")
def _transitive(env, rng, i):
    p = env.order(i)
    ty = env.random_type()
    u = env.gen.gen(ty, 7, ground=False)
    t = env.gen.gen(ty, 7, ground=False)
    s = env.gen.gen(ty, 7, ground=False)
    cut = compare(u, t, p)
    cts = compare(t, s, p)
    if cut not in (G, GE, E) or cts not in (G, GE, E):
        return SKIP
    cus = compare(u, s, p)
    if cus not in (G, GE, E):
        return "%s: u>=t>=s but u vs s = %s" % (p.kind, cus)
    if (cut is G or cts is G) and cus is not G:
        # one strict premise forces a strict conclusion
        return "%s: strict chain lost strictness (%s, %s -> %s)" % (p.kind, cut, cts, cus)
    return None


@family("context-compatible")
def _context_compatible(env, rng, i):
    p = env.order(i)
    ty = env.random_type()
    t = env.gen.gen(ty, 7, ground=True)
    s = env.gen.gen(ty, 7, ground=True)
    if compare(t, s, p) is not G:
        return SKIP
    host = env.ground_term(8)
    spots = [(path, d) for path, d in accessible_positions(host)
             if type_of(subterm_at(host, path), env.sig) == ty]
    if not spots:
        return SKIP
    path, depth = rng.choice(spots)
    big = replace_at(host, path, t)
    small = replace_at(host, path, s)
    if compare(big, small, p) is not G:
        return "%s: context broke strictness at %r" % (p.kind, path)
    return None


@family("subterm-property")
def _subterm_property(env, rng, i):
    p = env.order(i)
    u = env.ground_term(9)
    path, depth = gen_context(rng, u)
    sub = subterm_at(u, path)
    if tm.refers_to_outer_binders(sub, depth):
        return SKIP
    s = shift(sub, -depth) if depth else sub
    c = compare(u, s, p)
    if c not in (G, E):
        return "%s: term vs its accessible subterm gave %s" % (p.kind, c)
    return None


@family("diff-dominated")
def _diff_dominated(env, rng, i):
    p = env.order(i)
    fun_ty = arrow(rng.choice(env.bases), rng.choice(env.bases))
    u = env.gen.gen(fun_ty, 7, ground=True)
    s = env.gen.gen(fun_ty, 5, ground=True)
    t = env.gen.gen(fun_ty, 5, ground=True)
    skolem = Sym("diff", tuple(fun_ty.args), (s, t))
    applied = normalize(app(u, skolem), env.sig)
    if compare(u, applied, p) is not G:
        return "%s: u is not above u applied to its difference witness" % p.kind
    return None


@family("top-bot-minimal")
def _top_bot_minimal(env, rng, i):
    p = env.order(i)
    top, bot = (normalize(Sym(n), env.sig) for n in ("top", "bot"))
    if compare(bot, top, p) is not G:
        return "%s: bot does not dominate top" % p.kind
    t = env.ground_term(7)
    if t in (top, bot):
        return SKIP
    if compare(t, top, p) is not G or compare(t, bot, p) is not G:
        return "%s: %r does not dominate the truth constants" % (p.kind, t)
    return None


def _outside_params(t: Preterm, name: str) -> bool:
    """Whether variable `name` occurs in t outside every symbol's parameters."""
    return any(isinstance(u, Var) and u.name == name
               for u, _ in tm.nodes(t, params=False))


def _variables(t: Preterm, params: bool = True) -> set:
    """The variables of t, as (name, type) pairs; without params, those
    outside every symbol's parameters."""
    return {(u.name, u.ty) for u, _ in tm.nodes(t, params) if isinstance(u, Var)}


@family("variable-guarantee", polymorphic=True)
def _variable_guarantee(env, rng, i):
    ty = env.random_type()
    t = env.gen.gen(ty, 8, ground=False)
    s = env.gen.gen(ty, 8, ground=False)
    # the variable condition, on every verdict of all four algorithms: a side
    # that is at least the other holds the other's variables outside
    # parameters among all of its own
    for p in (env.kbo, env.lpo):
        for algo in ALGOS:
            c = compare(t, s, p, algo)
            for big, small, at_least in ((t, s, (G, GE, E)), (s, t, (L, LE, E))):
                missing = _variables(small, params=False) - _variables(big)
                if c in at_least and missing:
                    return "%s %s gave %s, yet the larger side lacks %s: %r / %r" \
                        % (p.kind, algo, c, sorted(missing, key=repr), t, s)
    # every trial has witnessed the condition by now; a strict verdict of
    # trial i's order is also checked for unguarded variables
    p = env.order(i)
    if compare(t, s, p) is not G:
        return None
    # the identity substitution qualifies once every variable in both
    # terms is already nonfunctional
    for vty in list(free_var_types(s).values()) + list(free_var_types(t).values()):
        if tm.is_arrow(vty) or isinstance(vty, tm.TyVar):
            return None
    for name in free_var_types(s):
        if _outside_params(s, name) and not _outside_params(t, name):
            return "%s: variable %s of the smaller side is unguarded" % (p.kind, name)
    return None


# ---------------------------------------------------------------------------
# Weight-lemma families
# ---------------------------------------------------------------------------

@family("weight-grounding-lemma")
def _weight_grounding_lemma(env, rng, i):
    t = env.gen.gen(env.random_type(), 9, ground=False)
    if not tm.is_monomorphic(t):
        return SKIP
    reps = collect_indet_reps(t, env.kbo)
    w = weight_poly(t, env.kbo)
    theta = gen_grounding_subst(rng, env.sig, free_var_types(t))
    mapping = assignment_from_grounding(theta, reps, env.kbo)
    lhs = subst_poly(w, mapping)
    rhs = weight_poly(apply_subst(t, theta, env.sig), env.kbo)
    if lhs != rhs:
        return "weight transport failed: %r vs %r on %r" % (lhs, rhs, t)
    return None


@family("weight-monomorphizing-lemma", polymorphic=True)
def _weight_monomorphizing_lemma(env, rng, i):
    t = env.open_term(9)
    tyvars = free_ty_vars(t)
    if not tyvars:
        return SKIP
    theta = gen_monomorphizing_subst(rng, env.sig, tyvars, flat=True)
    reps = collect_indet_reps(t, env.kbo)
    w = weight_poly(t, env.kbo)
    mapping = poly_subst_from_monomorphizing(theta, reps, env.kbo)
    lhs = subst_poly(w, mapping)
    rhs = weight_poly(apply_subst(t, theta, env.sig), env.kbo)
    if lhs != rhs:
        return "monomorphizing weight transport failed on %r" % (t,)
    return None


@family("encode-faithful")
def _encode_faithful(env, rng, i):
    u = env.ground_term(8)
    enc = encode_ground(u)
    old = env.memo.get(enc)
    if old is not None and old != u:
        return "distinct ground terms share an encoding: %r / %r" % (old, u)
    env.memo[enc] = u
    got = oracle_weight(u, env.kbo)
    want = weight_poly(u, env.kbo)
    if not want.is_constant() or want.constant != got:
        return "weights disagree through the encoding on %r" % (u,)
    return None


# ---------------------------------------------------------------------------
# Benchmark families
# ---------------------------------------------------------------------------

def bench_signature():
    """Minimal signature for the adversarial comparisons."""
    sig = tm.Signature()
    sig.add_type("kappa", 0)
    k = TyCon("kappa")
    sig.add_symbol("a", tm.TypeDecl((), (), k))
    sig.add_symbol("b", tm.TypeDecl((), (), k))
    sig.add_symbol("g", tm.TypeDecl((), (), arrow(k, arrow(k, k))))
    sig.add_symbol("f", tm.TypeDecl((), (), arrow(k, k)))
    prec = ["a", "b", "f", "g"]
    kbo = OrderParams(sig, KBO, prec=prec, watershed="a")
    lpo = OrderParams(sig, LPO, prec=prec, watershed="a")
    return sig, kbo, lpo


def adversarial_lpo_pair(depth: int) -> Tuple[Preterm, Preterm]:
    """Same-head nestings whose naive comparison repeats argument checks at
    every level."""
    t: Preterm = Sym("a")
    s: Preterm = Sym("b")
    for _ in range(depth):
        t = Sym("g", (), (), (t, Sym("b")))
        s = Sym("g", (), (), (s, Sym("a")))
    return t, s


def deep_chain_pair(depth: int) -> Tuple[Preterm, Preterm]:
    t: Preterm = Sym("a")
    s: Preterm = Sym("b")
    for _ in range(depth):
        t = Sym("f", (), (), (t,))
        s = Sym("f", (), (), (s,))
    return t, s
