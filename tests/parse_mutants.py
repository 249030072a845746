"""Seeded mutations of rendered generated terms: the parser's robustness
corpus.

    python tests/parse_mutants.py SRC SEED [COUNT]

reads each mutated text with the ``lamorder`` under the source directory SRC
and prints one line per text: the term it reads as, rendered, or its
ParseError.  Two source trees that print the same lines read the corpus
alike.
"""

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


def main(argv) -> None:
    sys.path.insert(0, argv[1])
    from lamorder.parse import ParseError, parse_term, render_term
    for text, sig in mutants(int(argv[2]), *map(int, argv[3:4])):
        try:
            print(render_term(parse_term(text, sig)))
        except ParseError as err:
            print("ParseError %s" % err)


if __name__ == "__main__":
    main(sys.argv)
