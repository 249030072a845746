"""Seeded mutations of rendered generated terms: the parser's robustness
corpus.

    python tests/parse_mutants.py SRC SEED [COUNT]

reads each mutated text with the ``lamorder`` under the source directory SRC
and prints one line per text: the term it reads as, rendered, or its
ParseError.  ``signature_mutants`` mutates the fixture signature files alike;
each of COUNT of them is then read under the KBO and under the LPO, one line
each: what it reads as (``signature_line``), or its ParseError.  Two source
trees that print the same lines read both corpora alike.
"""

import glob
import os
import random
import re
import sys

# what a mutation inserts, besides the generated signature's symbols
PIECES = ("(", ")", "()", '"', ";", "\n", " ", "lam", "db", "var", "sym",
          "0", "1", "x", "iota", "kappa", "->", "'a0")
# the pieces of a text that a mutation deletes or duplicates: parentheses,
# quotes, semicolons and atoms
_PIECE = re.compile(r'[()";]|[^\s()";]+')


def _mutate(rng: random.Random, text: str, pieces) -> str:
    """``text`` with one to three pieces inserted, deleted or duplicated."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(pieces) + text[at:]
            continue
        spans = [m.span() for m in _PIECE.finditer(text)]
        if spans:
            a, b = rng.choice(spans)
            text = text[:a] + (text[a:b] + " " + text[a:b] if op == 2 else "") + text[b:]
    return text


def mutants(seed: int, count: int = 2000):
    """``count`` pairs of a mutated text and the signature to read it in:
    ten mutants of each rendered term, over a monomorphic and a polymorphic
    generated signature in turn."""
    from lamorder.gen import GenConfig, TermGen, gen_signature, gen_var_types
    from lamorder.parse import render_term
    from lamorder.term import TyCon, arrow
    iota, kappa = TyCon("iota"), TyCon("kappa")
    tys = [iota, kappa, arrow(iota, kappa), arrow(arrow(kappa, iota), kappa)]
    rng = random.Random(seed)
    gens = []
    for polymorphic in (False, True):
        cfg = GenConfig(seed=seed, polymorphic=polymorphic)
        sig, _, _ = gen_signature(cfg)
        g = TermGen(rng, sig, var_types=gen_var_types(rng, cfg, sig, polymorphic=polymorphic),
                    poly_ty_vars=("a0",) if polymorphic else ())
        gens.append((g, sig, PIECES + tuple(sorted(sig.symbols))))
    for n in range(0, count, 10):
        g, sig, pieces = gens[n // 10 % 2]
        text = render_term(g.gen(rng.choice(tys), 12, ground=False))
        for _ in range(min(10, count - n)):
            yield _mutate(rng, text, pieces), sig


# what a signature mutation inserts: syntax, section names and ordinal literals
SIG_PIECES = ("(", ")", "()", '"', ";", "\n", " ", "types", "symbols", "weights",
              "tyweights", "coeffs", "wlam", "wdb", "precedence", "typrecedence",
              "watershed", "ordinal-weights", "(ordinal-weights)", "0", "1", "3", "-1",
              "w", "w+1", "w^2*3", '"w^2 + w*2 + 1"', '"w - 1"', '"w^(w)"')
# the lengths of the runs of ``w^(`` put into a literal: below, at and above
# the deepest nesting that ordinal.parse_ord reads, 256
RUNS = (1, 2, 256, 257, 400, 5000)


def signature_mutants(seed: int, count: int = 2000):
    """``count`` mutated texts of the fixture signature files.  A quarter of
    them first have one number quoted under a run of ``w^(``, its
    parentheses closed or not."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "fixtures", "*.sig")))
    texts = []
    for path in paths:
        with open(path) as fh:
            texts.append(fh.read())
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        if rng.random() < 0.25:
            a, b = rng.choice([m.span() for m in re.finditer(r"\b\d+\b", text)])
            n = rng.choice(RUNS)
            text = '%s"%s%s%s"%s' % (text[:a], "w^(" * n, text[a:b],
                                     ")" * rng.choice((0, n)), text[b:])
        yield _mutate(rng, text, SIG_PIECES)


def signature_line(sig, params) -> str:
    """One line for what a signature file reads as: its declarations and
    order parameters, in the order the file gives them."""
    from lamorder.parse import render_term
    decls = ("(%s (%s) (%s) %s)" % (name, " ".join(d.ty_vars),
                                    " ".join(map(render_term, d.param_types)),
                                    render_term(d.body))
             for name, d in sig.symbols.items())
    return "; ".join((
        "types " + " ".join("%s/%d" % kv for kv in sig.type_constructors.items()),
        "symbols " + " ".join(decls),
        "weights " + " ".join("%s=%s" % kv for kv in params.weights.items()),
        "wlam %s wdb %s" % (params.w_lam, params.w_db),
        "coeffs " + " ".join("%s.%d=%s" % (f, i, c) for (f, i), c in params.coeffs.items()),
        "tyweights " + " ".join("%s=%s" % kv for kv in params.ty_weights.items()),
        "precedence " + " ".join(sorted(params.prec_ranks, key=params.prec_ranks.get)),
        "typrecedence " + " ".join(sorted(params.ty_prec_ranks,
                                          key=params.ty_prec_ranks.get)),
        "watershed %s" % params.watershed))


def main(argv) -> None:
    sys.path.insert(0, argv[1])
    from lamorder.parse import ParseError, parse_signature, parse_term, render_term
    args = (int(argv[2]), *map(int, argv[3:4]))     # the seed and COUNT
    for text, sig in mutants(*args):
        try:
            print(render_term(parse_term(text, sig)))
        except ParseError as err:
            print("ParseError %s" % err)
    for text in signature_mutants(*args):
        for kind in ("kbo", "lpo"):
            try:
                print("%s %s" % (kind, signature_line(*parse_signature(text, kind))))
            except ParseError as err:
                print("%s ParseError %s" % (kind, err))


if __name__ == "__main__":
    main(sys.argv)
