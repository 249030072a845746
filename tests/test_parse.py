"""Textual formats: terms, types, signature files and their error reporting."""

import glob
import os
import random
import re
import sys

import pytest

import parse_mutants
from lamorder.cmp import G, L
from lamorder.gen import GenConfig, TermGen, gen_signature, gen_var_types
from lamorder import parse, term
from lamorder.lambda_order import KBO, LPO
from lamorder.ordinal import MAX_NESTING
from lamorder.parse import (ParseError, parse_signature, parse_signature_file, parse_term,
                            parse_term_file, render_term)
from lamorder.term import (Db, Lam, Sym, TyCon, TyVar, Var, arrow,
                           arrows, normalize, type_of)

SIG_TEXT = """
(signature
  (types (k 0) (o 0))
  (symbols (a () () k)
           (f () () (-> k k))
           (g () () (-> k (-> k k)))
           (diff (A B) ((-> 'A 'B) (-> 'A 'B)) 'A)
           (top () () o)
           (bot () () o))
  (weights (a 2) (f 1))
  (wlam 1) (wdb 1)
  (coeffs ((g 2) 2))
  (precedence top bot diff a f g)
  (tyweights (k 1) (-> 1) (o 1))
  (typrecedence -> k o)
  (watershed a))
"""

K = TyCon("k")


@pytest.fixture
def sig_params():
    return parse_signature(SIG_TEXT, KBO)


def test_parse_minimal_signature():
    sig, params = parse_signature(
        "(signature (types (k 0)) (symbols (a () () k)) (precedence a))", KBO)
    assert "a" in sig.symbols


def test_parse_signature_sections(sig_params):
    sig, params = sig_params
    assert params.w("a").to_int() == 2
    assert params.k("g", 2).to_int() == 2
    assert params.sym_rank("top") < params.sym_rank("bot") < params.sym_rank("a")
    decl = sig.symbols["diff"]
    assert decl.ty_vars == ("A", "B")
    assert decl.param_types == (arrow(TyVar("A"), TyVar("B")),) * 2


def test_parse_term_normalizes(sig_params):
    sig, params = sig_params
    t = parse_term("(lam k (db 0 k))", sig)
    assert t == Lam(K, Db(0, K))
    # under-applied symbols are eta-expanded
    t2 = parse_term("(sym f () ())", sig)
    assert t2 == Lam(K, Sym("f", (), (), (Db(0, K),)))
    t3 = parse_term("(var y (-> k k) (sym a () ()))", sig)
    assert type_of(t3, sig) == K


def test_parse_term_errors_carry_location(sig_params):
    sig, params = sig_params
    with pytest.raises(ParseError) as err:
        parse_term("(sym nosuch () ())", sig)
    assert "nosuch" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_term("\n  (sym f () () (sym a () ()) (sym a () ()))", sig)
    assert str(err.value).startswith("2:")
    with pytest.raises(ParseError):
        parse_term("(lam k", sig)
    with pytest.raises(ParseError):
        parse_term("(db x k)", sig)


def test_unknown_type_constructor(sig_params):
    sig, params = sig_params
    with pytest.raises(ParseError) as err:
        parse_term("(lam zzz (db 0 zzz))", sig)
    assert "zzz" in str(err.value)


def test_signature_constraint_violations_are_named():
    bad_diff_coeff = SIG_TEXT.replace("(coeffs ((g 2) 2))",
                                      "(coeffs ((diff 1) 2))")
    with pytest.raises(ParseError) as err:
        parse_signature(bad_diff_coeff, KBO)
    assert "k(diff, i) = 1" in str(err.value)

    heavy_diff = SIG_TEXT.replace("(weights (a 2) (f 1))",
                                  "(weights (a 2) (diff 3))")
    with pytest.raises(ParseError) as err:
        parse_signature(heavy_diff, KBO)
    assert "w(diff) <= w_db" in str(err.value)

    no_ws = SIG_TEXT.replace("(watershed a)", "")
    with pytest.raises(ParseError) as err:
        parse_signature(no_ws, LPO)
    assert "watershed" in str(err.value)
    parse_signature(no_ws, KBO)  # fine without the watershed in KBO mode
    misspelt = SIG_TEXT.replace("(watershed a)", "(watershed nope)")
    for order in (KBO, LPO):  # but a given one must be ranked under either order
        with pytest.raises(ParseError, match="watershed nope is not a ranked symbol"):
            parse_signature(misspelt, order)

    zero_index = SIG_TEXT.replace("(coeffs ((g 2) 2))", "(coeffs ((g 0) 2))")
    with pytest.raises(ParseError) as err:
        parse_signature(zero_index, KBO)
    assert "argument indices start at 1: k(g,0)" in str(err.value)

    bad_bot = SIG_TEXT.replace("(precedence top bot diff a f g)",
                               "(precedence bot top diff a f g)")
    with pytest.raises(ParseError) as err:
        parse_signature(bad_bot, KBO)
    assert "top must precede bot" in str(err.value)


@pytest.mark.parametrize("old,new", [
    ("(types (k 0)", "(types (k @x)"),
    ("(coeffs ((g 2) 2))", "(coeffs ((g @x) 2))"),
    ("(types (k 0)", "(types @(k)"),
    ("(weights (a 2) (f 1))", "(weights @(a) (f 1))"),
    ("(wlam 1)", "@(wlam)"),
    ("(watershed a)", "@(watershed)"),
    ("(weights (a 2) (f 1))", "(@weight (a 5))"),
    ("(weights (a 2) (f 1))", "(weights (a 2)) (@weights (f 1))"),
    ("(types (k 0)", "(types (k 0) @(k 1)"),
    ("(a () () k)", "(a () () (@q k))"),
    ("(f () () (-> k k))", "(f () () (-> k @kk))"),
    ("((-> 'A 'B) (-> 'A 'B))", "((@-> 'A) (-> 'A 'B))"),
    ("(weights (a 2) (f 1))", "(weights (a 2) @(a 3))"),
    ("(tyweights (k 1)", "(tyweights (k 1) @(k 2)"),
    ("(coeffs ((g 2) 2))", "(coeffs ((g 2) 2) @((g 2) 3))"),
    ("(watershed a))", "(watershed a) (ordinal-weights @yes please))"),
    ("(a () () k)", "@(a (A A) () k)"),
    ("(types (k 0)", '; ( ) " (\n  (types (k @x)'),
    ("(types (k 0)", "(types ; (k\n (k 0) @(j)"),
    ("(a () () k)", '("a;b" () () k) (a () () (@q k))'),
    ("(watershed a))", "(watershed a))@)"),
    ("(watershed a))", '(watershed @"a))'),
    ("(watershed a))", "(watershed a))\n; a second expression\n @(watershed b)"),
], ids=["arity", "coeff-index", "type-entry", "weight-entry", "wlam",
        "watershed", "misspelt", "repeated", "redeclared-type",
        "symbol-type-constructor", "symbol-type-atom", "symbol-param-arity",
        "repeated-weight", "repeated-tyweight", "repeated-coeff",
        "ordinal-weights-arguments", "repeated-type-variable",
        "after-comment", "after-comment-paren", "after-string-semicolon",
        "last-token", "last-token-string", "second-expression"])
def test_malformed_signature_entries_are_positioned(old, new):
    """Each text is SIG_TEXT with one entry broken; @ marks where the error
    must point."""
    marked = SIG_TEXT.replace(old, new)
    at = marked.index("@")
    with pytest.raises(ParseError) as err:
        parse_signature(marked.replace("@", ""), KBO)
    line = marked.count("\n", 0, at) + 1
    col = at - marked.rfind("\n", 0, at)
    assert (err.value.line, err.value.col) == (line, col), str(err.value)


def _positioned(marked):
    """The text without its @ marker, and the line and column of the marker."""
    at = marked.index("@")
    return (marked.replace("@", "", 1), marked.count("\n", 0, at) + 1,
            at - marked.rfind("\n", 0, at))


def test_signature_rejects_redeclared_symbol():
    text = "(signature (types (k 0))\n (symbols (f () () k)\n (f () () (-> k k))) (precedence f))"
    with pytest.raises(ParseError) as err:
        parse_signature(text, KBO)
    assert "f redeclared" in str(err.value)
    assert str(err.value).startswith("3:")


def test_ordinal_literals_in_files():
    text = SIG_TEXT.replace("(weights (a 2) (f 1))",
                            '(weights (a w) (f "w^2*3 + w + 1"))')
    text = text.replace("(watershed a)", "(watershed a) (ordinal-weights)")
    sig, params = parse_signature(text, KBO)
    from lamorder.ordinal import OMEGA, from_int, omega_pow
    assert params.w("a") == OMEGA
    assert params.w("f") == omega_pow(from_int(2), 3) + OMEGA + from_int(1)


def test_render_round_trip(sig_params):
    sig, params = sig_params
    texts = [
        "(lam k (db 0 k))",
        "(sym g () () (sym a () ()) (sym a () ()))",
        "(lam k (sym g () () (db 0 k) (var y k)))",
        "(sym diff (k k) ((lam k (sym f () () (db 0 k))) "
        "(lam k (sym f () () (db 0 k)))))",
    ]
    for text in texts:
        t = parse_term(text, sig)
        again = parse_term(render_term(t), sig)
        assert again == t
    assert render_term(arrow(K, TyVar("A"))) == "(-> k 'A)"


def test_comments_and_strings():
    sig, _ = parse_signature(
        "(signature ; header comment\n (types (k 0))\n"
        " (symbols (a () () k)) (precedence a))", KBO)
    assert "a" in sig.symbols
    assert parse_term('; a\n(sym "a" () ()) ; last (sym a () ())', sig) is Sym("a")
    # an open list, a comment and a close: not one empty-list token
    assert parse_term("(sym a ( ; c\n) ())", sig) is Sym("a")


def test_ordinal_weights_are_opt_in():
    """A transfinite literal in any ordinal-valued section is an error at the
    literal unless the file has the (ordinal-weights) section; with it, the
    same file reads.  @ marks the literal."""
    from lamorder.ordinal import parse_ord
    for old, new, literal, value in [
            ("(weights (a 2) (f 1))", "(weights (a 2) (f @%s))", "w", lambda p: p.w("f")),
            ("(tyweights (k 1)", '(tyweights (k @"%s")', "w + 1", lambda p: p.ty_weights["k"]),
            ("(coeffs ((g 2) 2))", "(coeffs ((g 2) @%s))", "w^2", lambda p: p.k("g", 2)),
            ("(wlam 1)", "(wlam @%s)", "w*2", lambda p: p.w_lam),
            ("(wdb 1)", "(wdb @%s)", "w", lambda p: p.w_db)]:
        text, line, col = _positioned(SIG_TEXT.replace(old, new % literal))
        with pytest.raises(ParseError, match="transfinite; add [(]ordinal-weights[)]") as err:
            parse_signature(text, KBO)
        assert (err.value.line, err.value.col) == (line, col), str(err.value)
        enabled = text.replace("(watershed a)", "(watershed a) (ordinal-weights)")
        for kind in (KBO, LPO):
            _, params = parse_signature(enabled, kind)
            assert value(params) == parse_ord(literal)


@pytest.mark.parametrize("depth", [1, MAX_NESTING, MAX_NESTING + 1, 400, 5000])
@pytest.mark.parametrize("kind", [KBO, LPO])
def test_nested_ordinal_literals_read_or_are_positioned(kind, depth):
    """A weight literal nested at most as deep as parse_ord reads passes the
    parameters' validation, and a comparison of terms that weigh it
    decides; a deeper one is a ParseError at the literal, however deep, not
    a RecursionError."""
    from lamorder.lambda_order import compare
    literal = '"%s1%s"' % ("w^(" * depth, ")" * depth)
    text, line, col = _positioned(SIG_TEXT.replace(
        "(weights (a 2) (f 1))", "(weights (a 2) (f @%s))" % literal).replace(
        "(watershed a)", "(watershed a) (ordinal-weights)"))
    if depth > MAX_NESTING:
        with pytest.raises(ParseError, match="nested more than %d deep" % MAX_NESTING) as err:
            parse_signature(text, kind)
        assert (err.value.line, err.value.col) == (line, col)
        return
    sig, params = parse_signature(text, kind)
    fa = parse_term("(sym f () () (sym a () ()))", sig)
    a = parse_term("(sym a () ())", sig)
    for algo in ("naive", "optimized"):
        assert compare(fa, a, params, algo) is G
        assert compare(a, fa, params, algo) is L


@pytest.mark.parametrize("marked,message", [
    ("(sym f () () @(sym a () ()", "unbalanced ("),
    ("@(lam k ;(db 0 k))", "unbalanced ("),
    ("(sym a () ())@)", "unbalanced )"),
    ('(sym @"a () ())', "unterminated string"),
    ("@", "expected exactly one expression, found 0"),
    ("(sym a () ()) @(sym a () ())", "expected exactly one expression, found 2"),
    ("(sym f () () @())", "empty term"),
    ("@x", "expected a term"),
    ("(sym f () () @x)", "expected a term"),
    ("(@(lam) k (db 0 k))", "expected a term keyword"),
    ("(@lamb k (db 0 k))", "unknown term keyword lamb"),
    ("@(lam k)", "(lam TY T) takes two arguments"),
    (" @(lam k (db 0 k) (sym a () ()))", "(lam TY T) takes two arguments"),
    ("@(db 0)", "(db N TY T*) needs an index and a type"),
    ("@(var y)", "(var NAME TY T*) needs a name and a type"),
    ("@(sym a ())", "(sym NAME (TY*) (T*) T*) needs name, type and parameter lists"),
    ("(var @(y) k)", "expected a variable name"),
    ("(sym @(a) () ())", "expected a symbol name"),
    ("(sym f () () (sym @nosuch () ()))", "unknown symbol nosuch"),
    ("(sym a @x ())", "expected type arguments"),
    ("(sym a () @x)", "expected parameters"),
    ("(lam k (db @x k))", "index must be a natural number"),
    ("(lam k (db @(x) k))", "index must be a natural number"),
    ("(lam @() (db 0 k))", "empty type"),
    ("(lam (@(k) k) (db 0 k))", "expected a type constructor name"),
    ("(lam @zzz (db 0 zzz))", "unknown type constructor zzz"),
    ("(lam (@k k) (db 0 k))", "type constructor k expects 0 arguments, got 1"),
    ("(lam (@-> k) (db 0 k))", "type constructor -> expects 2 arguments, got 1"),
    ("\n  (sym f () () @(sym top () ()))",
     "argument 1 of (f top) has type o, expected k"),
    ("; comment\n(sym f () () @(var y 'A))",
     "argument 1 of (f y) has type 'A, expected k"),
    ("@(sym f () () (sym a () ()) (sym a () ()))",
     "type mismatch at argument 2 of (f a a)"),
    ("@(sym diff () () (sym a () ()))", "expected 2 type arguments, got 0"),
    ("@(sym a () ((sym a () ())))", "symbol a expects 0 parameters, got 1"),
    ("(sym diff (k k) (@(sym a () ()) (lam k (sym f () () (db 0 k)))))",
     "parameter of diff has type k, expected (-> k k)"),
    ("\n @(lam k (lam o (db 1 o)))", "bound index #1 annotated o but binder has k"),
    # a typing fault is found after the whole term is read: it points at the
    # first occurrence of the failing node, or of its child of the wrong type
    ("(sym f () ()\n  (sym f () ()\n    (sym f () () @(sym top () ()))))",
     "argument 1 of (f top) has type o, expected k"),
    ("(sym g () () (sym diff (k k) ((lam k (sym f () () @(sym top () ())))"
     " (lam k (sym a () ())))) (sym f () () (sym top () ())))",
     "argument 1 of (f top) has type o, expected k"),
    ("(lam k\n (sym g () () (sym a () ())\n  @(sym f () () (sym a () ()) (db 0 k))))",
     "type mismatch at argument 2 of (f a #0)"),
    ("; (sym\n(sym f () () @x)", "expected a term"),
    ("(sym f () () ; ) )\n @x)", "expected a term"),
    ('; "\n(sym @nosuch () ())', "unknown symbol nosuch"),
    ('(var "y;z" k @x)', "expected a term"),
    ("(sym f () ()\n (var y @zzz", "unknown type constructor zzz"),
    ('(lam k (db 0 @"k', "unterminated string"),
])
def test_malformed_terms_are_positioned(sig_params, marked, message):
    """Each text has one fault; @ marks where the error must point."""
    sig, _ = sig_params
    text, line, col = _positioned(marked)
    with pytest.raises(ParseError) as err:
        parse_term(text, sig)
    assert str(err.value) == "%d:%d: %s" % (line, col, message)
    assert (err.value.line, err.value.col) == (line, col)


def test_under_applied_spines_are_eta_expanded(sig_params):
    sig, _ = sig_params
    fk = Lam(K, Sym("f", (), (), (Db(0, K),)))
    cases = {
        "(sym g () () (sym a () ()))":
            Lam(K, Sym("g", (), (), (Sym("a"), Db(0, K)))),
        "(var h (-> k (-> k k)))":
            Lam(K, Lam(K, Var("h", arrow(K, arrow(K, K)), (Db(1, K), Db(0, K))))),
        "(sym diff (k k) ((sym f () ()) (sym f () ())))":
            Sym("diff", (K, K), (fk, fk)),
        "(lam k (sym g () () (db 0 k)))":
            Lam(K, Lam(K, Sym("g", (), (), (Db(1, K), Db(0, K))))),
    }
    for text, want in cases.items():
        assert parse_term(text, sig) is want, text


def test_first_fault_is_named_unless_a_spine_is_under_applied(sig_params):
    """Only an under-applied spine is eta-expanded before the check runs
    again; any other fault is reported as the first check finds it, even
    when the term also has an under-applied spine.  The check finishes a
    node after its children, so an argument's type is checked before the
    binder of an index in it.  A fault points at the argument of the wrong
    type, or at the node whose rule failed; one in a spine that
    normalizing repaired points at the root."""
    sig, _ = sig_params
    cases = {
        "(sym g () () (sym top () ()))": "1:14: argument 1 of (g top) has type o, expected k",
        "(lam k (sym g () () (db 0 o)))": "1:21: argument 1 of (g #0) has type o, expected k",
        "(sym f () () (sym a () ()) (sym g () () (sym a () ())))":
            "1:1: type mismatch at argument 2 of (f a (g a))",
        "(sym f () () (sym g () () (sym a () ())))":
            "1:1: argument 1 of (f (\\k. (g a #0))) has type (-> k k), expected k",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as err:
            parse_term(text, sig)
        assert str(err.value) == message, text


def test_deep_term_over_applied_at_its_root_is_positioned(sig_params):
    sig, _ = sig_params
    depth = 2000
    chain = "(sym f () () " * depth + "(sym a () ())" + ")" * depth
    with pytest.raises(ParseError) as err:
        parse_term("(sym f () () %s (sym a () ()))" % chain, sig)
    assert str(err.value) == "1:1: type mismatch at argument 2 of (f %s a)" \
        % ("(f " * depth + "a" + ")" * depth)


@pytest.mark.parametrize("polymorphic", [False, True])
def test_rendered_generated_terms_parse_back(polymorphic):
    """Every node of the generated terms, rendered alone, reads back as the
    same object.  So does each variant of its text that sends the reader
    token by token where it would enter a declared ``(sym NAME () ()`` in
    one step: blanks inside ``( )``, a comment between tokens, a quoted
    name.  Type arguments and parameters occur among the nodes."""
    cfg = GenConfig(seed=21, polymorphic=polymorphic)
    sig, _, _ = gen_signature(cfg)
    rng = random.Random(21)
    g = TermGen(rng, sig, var_types=gen_var_types(rng, cfg, sig, polymorphic=polymorphic),
                poly_ty_vars=("a0",) if polymorphic else ())
    iota, kappa = TyCon("iota"), TyCon("kappa")
    tys = [iota, kappa, arrow(iota, kappa), arrow(arrow(kappa, iota), kappa)]
    pool = set()
    for _ in range(300):
        t = g.gen(rng.choice(tys), 12, ground=False)
        assert parse_term(render_term(t), sig) is normalize(t, sig), render_term(t)
        pool.update(u for u, _ in term.nodes(normalize(t, sig)))
    for u in pool:
        text = render_term(u)
        for v in (text, text.replace("()", "( )"), text.replace(" ", " ; c\n"),
                  re.sub(r"\(sym (\S+)", r'(sym "\1"', text)):
            assert parse_term(v, sig) is u, v
    syms = [u for u in pool if isinstance(u, Sym)]
    assert any(u.params for u in syms) and any(u.ty_args for u in syms)


def test_mutated_terms_read_or_fail_at_a_token():
    """Each of 2,000 seeded mutations of rendered generated terms reads as a
    term or fails with a ParseError at one of its tokens, never with another
    exception; only a text without an expression fails at 1:1, which may
    be blank."""
    read = 0
    for text, sig in parse_mutants.mutants(0):
        try:
            parse_term(text, sig)
            read += 1
        except ParseError as err:
            lines = text.split("\n")
            assert 1 <= err.line <= len(lines), (text, str(err))
            line = lines[err.line - 1]
            if str(err).startswith("1:1: expected exactly one expression, found 0"):
                continue
            assert 1 <= err.col <= len(line) and not line[err.col - 1].isspace(), \
                (text, str(err))
    assert 0 < read < 2000


def test_mutated_signatures_read_or_fail_at_a_character():
    """Each of 2,000 seeded mutations of the fixture signature files, read
    as KBO and as LPO parameters, reads or fails with a ParseError at a
    character that is not blank, never with another exception; the runs of
    ``w^(`` reach ordinal literals nested too deeply to read."""
    outcomes = {"read": 0, "nested": 0}
    for text in parse_mutants.signature_mutants(0):
        for kind in (KBO, LPO):
            try:
                parse_signature(text, kind)
                outcomes["read"] += 1
            except ParseError as err:
                lines = text.split("\n")
                assert 1 <= err.line <= len(lines), (text, str(err))
                line = lines[err.line - 1]
                assert 1 <= err.col <= len(line) and not line[err.col - 1].isspace(), \
                    (text, str(err))
                outcomes["nested"] += "nested more than" in str(err)
    assert 0 < outcomes["read"] < 4000 and outcomes["nested"] > 0, outcomes


def _deep_nest_texts():
    """Nests and unary chains written as the benchmark's deep_nest family
    writes them: ground and nonground ``g`` nests and ``f`` chains, at a
    few depths."""
    texts = []
    for d in (1, 2, 8, 256, 512):
        for inner, pad in (("(sym a () ())", "(sym b () ())"), ("(var x kappa)", "(sym a () ())")):
            texts.append("(sym g () () " * d + inner + (" %s)" % pad) * d)
        texts.append("(sym f () () " * d + "(sym a () ())" + ")" * d)
    return texts


def test_str_split_gives_the_regex_tokens():
    """``_tokens`` splits a text with no string, no comment and no blank
    pair by str methods, and any other with ``_TOKEN``: either way it gives
    the tokens of ``_TOKEN`` but comments, as many as ``_token_starts``
    finds.  Checked on both mutation corpora at three seeds, every fixture
    file, deep nests and chains, and each character that ``str.isspace`` or
    ``\\s`` accepts, between tokens and inside an empty list."""
    texts = []
    for seed in (0, 1, 7):
        texts += [text for text, _ in parse_mutants.mutants(seed)]
        texts += parse_mutants.signature_mutants(seed)
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "fixtures", "*"))):
        with open(path) as fh:
            texts.append(fh.read())
    texts += _deep_nest_texts()
    blank = re.compile(r"\s")
    for c in map(chr, range(sys.maxunicode + 1)):
        if c.isspace() or blank.match(c):
            texts += [c.join(("(sym", "f", "()", "()", "(sym a () ())", ")")) + c,
                      "(sym a (%s) (%s%s))" % (c, c, c), c]
    split = 0
    for text in texts:
        tokens = parse._tokens(text)
        assert tokens == [tok for tok in parse._TOKEN.findall(text) if tok[0] != ";"], text
        assert len(tokens) == len(parse._token_starts(text)), text
        split += not ('"' in text or ";" in text or parse._BLANK_PAIR.search(text))
    assert split > len(texts) // 2, (split, len(texts))


def test_deep_terms_parse_and_render(sig_params):
    sig, _ = sig_params
    depth = 10000
    text = "(sym f () () " * depth + "(sym a () ())" + ")" * depth
    t = parse_term(text, sig)
    assert render_term(t) == text
    assert parse_term(render_term(t), sig) is t
    tower = "(lam k " * depth + "(db %d k)" % (depth - 1) + ")" * depth
    assert render_term(parse_term(tower, sig)) == tower
    inner = 13 * depth + 6
    with pytest.raises(ParseError) as err:
        parse_term(text.replace("(sym a", "(sym nosuch"), sig)
    assert str(err.value) == "1:%d: unknown symbol nosuch" % inner


def test_reading_a_known_term_again_checks_nothing(sig_params, monkeypatch):
    """Every node of a term read before is typed in its signature, so a
    second read types it by one lookup: no head is typed again and no node
    is added.  A term that shares nodes with it checks only the others."""
    sig, _ = sig_params
    f = "(lam k (sym f () () (db 0 k)))"
    text = "(lam k (sym g () () (sym f () () (db 0 k)) (sym diff (k k) (%s %s))))" % (f, f)
    t = parse_term(text, sig)
    typed = len(sig.types)
    calls = []
    head_type = term.head_type
    monkeypatch.setattr(term, "head_type", lambda u, s: calls.append(u) or head_type(u, s))
    assert parse_term(text, sig) is t
    assert calls == [] and len(sig.types) == typed
    diff = "(sym diff (k k) (%s %s))" % (f, f)
    u = parse_term("(sym g () () %s %s)" % (diff, diff), sig)
    assert calls == [u] and len(sig.types) == typed + 1


def test_deep_signature_type_parses():
    """A declaration's type variables are collected with ``nodes``, on an
    explicit stack, so a depth-3,000 arrow type fits the default recursion
    limit."""
    depth = 3000
    body = "(-> k " * depth + "k" + ")" * depth
    text = "(signature (types (k 0)) (symbols (d () () %s) (e (A) () %s)) (precedence d e))" \
        % (body, body.replace("k)", "'A)", 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        sig, _ = parse_signature(text, KBO)
    finally:
        sys.setrecursionlimit(limit)
    assert sig.symbols["d"].body is arrows([K] * depth, K)
    assert sig.symbols["e"].body is arrows([K] * depth, TyVar("A"))


def test_deep_polymorphic_declaration_instantiates():
    """``subst_type`` is a ``rebuild`` rule, so a symbol whose declared type
    is 3,000 deep is instantiated within a recursion limit of 1,000."""
    depth = 3000
    body = "(c " * depth + "'A" + ")" * depth
    text = "(signature (types (k 0) (c 1)) (symbols (p (A) () %s)) (precedence p))" % body
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        sig, _ = parse_signature(text, KBO)
        t = parse_term("(sym p (k) ())", sig)
    finally:
        sys.setrecursionlimit(limit)
    want = K
    for _ in range(depth):
        want = TyCon("c", (want,))
    assert type_of(t, sig) is want


def test_non_utf8_file_is_a_parse_error(tmp_path):
    sig_file, term_file = tmp_path / "bad.sig", tmp_path / "bad.term"
    sig_file.write_bytes(b"\xff\xfe\x00bad")
    term_file.write_bytes(b"(sym a () ())\r\n  \xc3(")
    with pytest.raises(ParseError) as err:
        parse_signature_file(str(sig_file), KBO)
    assert str(err.value) == "1:1: byte 0xff is not UTF-8"
    sig, _ = parse_signature(SIG_TEXT, KBO)
    with pytest.raises(ParseError) as err:
        parse_term_file(str(term_file), sig)
    assert str(err.value) == "2:3: byte 0xc3 is not UTF-8"
