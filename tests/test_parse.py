"""Textual formats: terms, types, signature files and their error reporting."""

import random
import sys

import pytest

import parse_mutants
from lamorder.gen import GenConfig, TermGen, gen_signature, gen_var_types
from lamorder import term
from lamorder.lambda_order import KBO, LPO
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
], ids=["arity", "coeff-index", "type-entry", "weight-entry", "wlam",
        "watershed", "misspelt", "repeated", "redeclared-type",
        "symbol-type-constructor", "symbol-type-atom", "symbol-param-arity",
        "repeated-weight", "repeated-tyweight", "repeated-coeff",
        "ordinal-weights-arguments", "repeated-type-variable",
        "after-comment", "after-comment-paren", "after-string-semicolon",
        "last-token", "last-token-string"])
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
    transfinite = SIG_TEXT.replace("(weights (a 2) (f 1))", "(weights (a w))")
    with pytest.raises(ParseError) as err:
        parse_signature(transfinite, KBO)
    assert "ordinal weights" in str(err.value)
    enabled = transfinite.replace("(watershed a)", "(watershed a) (ordinal-weights)")
    sig, params = parse_signature(enabled, KBO)
    from lamorder.ordinal import OMEGA
    assert params.w("a") == OMEGA


@pytest.mark.parametrize("marked,message", [
    ("(sym f () () @(sym a () ()", "unbalanced ("),
    ("@(lam k ;(db 0 k))", "unbalanced ("),
    ("(sym a () ())@)", "unbalanced )"),
    ('(sym @"a () ())', "unterminated string"),
    ("@", "expected exactly one expression, found 0"),
    ("@(sym a () ()) (sym a () ())", "expected exactly one expression, found 2"),
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
    ("\n  @(sym f () () (sym top () ()))",
     "argument 1 of (f top) has type o, expected k"),
    ("; comment\n@(sym f () () (var y 'A))",
     "argument 1 of (f y) has type 'A, expected k"),
    ("@(sym f () () (sym a () ()) (sym a () ()))",
     "type mismatch at argument 2 of (f a a)"),
    ("@(sym diff () () (sym a () ()))", "expected 2 type arguments, got 0"),
    ("@(sym a () ((sym a () ())))", "symbol a expects 0 parameters, got 1"),
    ("@(sym diff (k k) ((sym a () ()) (lam k (sym f () () (db 0 k)))))",
     "parameter of diff has type k, expected (-> k k)"),
    ("\n @(lam k (lam o (db 1 o)))", "bound index #1 annotated o but binder has k"),
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
    binder of an index in it."""
    sig, _ = sig_params
    cases = {
        "(sym g () () (sym top () ()))": "argument 1 of (g top) has type o, expected k",
        "(lam k (sym g () () (db 0 o)))": "argument 1 of (g #0) has type o, expected k",
        "(sym f () () (sym a () ()) (sym g () () (sym a () ())))":
            "type mismatch at argument 2 of (f a (g a))",
        "(sym f () () (sym g () () (sym a () ())))":
            "argument 1 of (f (\\k. (g a #0))) has type (-> k k), expected k",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as err:
            parse_term(text, sig)
        assert str(err.value) == "1:1: " + message, text


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
    cfg = GenConfig(seed=21, polymorphic=polymorphic)
    sig, _, _ = gen_signature(cfg)
    rng = random.Random(21)
    g = TermGen(rng, sig, var_types=gen_var_types(rng, cfg, sig, polymorphic=polymorphic),
                poly_ty_vars=("a0",) if polymorphic else ())
    iota, kappa = TyCon("iota"), TyCon("kappa")
    tys = [iota, kappa, arrow(iota, kappa), arrow(arrow(kappa, iota), kappa)]
    for _ in range(300):
        t = g.gen(rng.choice(tys), 12, ground=False)
        assert parse_term(render_term(t), sig) is normalize(t, sig), render_term(t)


def test_mutated_terms_read_or_fail_at_a_token():
    """Each of 2,000 seeded mutations of rendered generated terms reads as a
    term or fails with a ParseError at one of its tokens, never with another
    exception; only a text that is not one expression fails at 1:1, which
    may be blank."""
    read = 0
    for text, sig in parse_mutants.mutants(0):
        try:
            parse_term(text, sig)
            read += 1
        except ParseError as err:
            lines = text.split("\n")
            assert 1 <= err.line <= len(lines), (text, str(err))
            line = lines[err.line - 1]
            if str(err).startswith("1:1: expected exactly one expression"):
                continue
            assert 1 <= err.col <= len(line) and not line[err.col - 1].isspace(), \
                (text, str(err))
    assert 0 < read < 2000


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
