"""Textual formats: terms, types, signature files and their error reporting."""

import pytest

from lamorder.lambda_order import KBO, LPO
from lamorder.parse import (ParseError, parse_signature, parse_term, render_term,
                            render_type)
from lamorder.term import (Db, Lam, Sym, TyCon, TyVar, Var, arrow, normalize,
                           type_of)

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
], ids=["arity", "coeff-index", "type-entry", "weight-entry", "wlam",
        "watershed", "misspelt", "repeated", "redeclared-type"])
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
    assert render_type(arrow(K, TyVar("A"))) == "(-> k 'A)"


def test_comments_and_strings():
    sig, _ = parse_signature(
        "(signature ; header comment\n (types (k 0))\n"
        " (symbols (a () () k)) (precedence a))", KBO)
    assert "a" in sig.symbols


def test_ordinal_weights_are_opt_in():
    transfinite = SIG_TEXT.replace("(weights (a 2) (f 1))", "(weights (a w))")
    with pytest.raises(ParseError) as err:
        parse_signature(transfinite, KBO)
    assert "ordinal weights" in str(err.value)
    enabled = transfinite.replace("(watershed a)", "(watershed a) (ordinal-weights)")
    sig, params = parse_signature(enabled, KBO)
    from lamorder.ordinal import OMEGA
    assert params.w("a") == OMEGA
