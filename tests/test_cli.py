"""Command-line interface: golden outputs on fixtures, exit codes, check mode."""

import os
import subprocess
import sys

import pytest

import lamorder
from lamorder.cli import EXIT_BROKEN_PIPE, main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


@pytest.mark.parametrize("sig,order,left,right,want", [
    ("ex1.sig", "kbo", "ex1_left.term", "ex1_right.term", "G"),
    ("ex1.sig", "lpo", "ex1_left.term", "ex1_right.term", "G"),
    ("ex1.sig", "kbo", "ex1_right.term", "ex1_left.term", "L"),
    ("ex2.sig", "kbo", "ex2_left.term", "ex2_right.term", "L"),
    ("ex2_heavy.sig", "kbo", "ex2_left.term", "ex2_right.term", "G"),
    ("ex2.sig", "lpo", "ex2_left.term", "ex2_right.term", "U"),
    ("ex4.sig", "kbo", "ex4_map_nil.term", "ex4_nil.term", "G"),
    ("ex4.sig", "lpo", "ex4_map_cons.term", "ex4_cons_map.term", "U"),
    ("ex4.sig", "kbo", "ex4_map_cons.term", "ex4_cons_map.term", "U"),
    ("ex5.sig", "lpo", "ex5_left.term", "ex5_right.term", "L"),
    ("ex5.sig", "lpo", "ex5_right.term", "ex5_left.term", "G"),
    ("ex5.sig", "kbo", "ex5_left.term", "ex5_right.term", "G"),
])
def test_compare_golden(capsys, sig, order, left, right, want):
    code, out, err = run(capsys, "compare", "--sig", fx(sig), "--order", order,
                         "--algo", "both", fx(left), fx(right))
    assert (code, out) == (0, want), err


def test_compare_identical_files(capsys):
    code, out, _ = run(capsys, "compare", "--sig", fx("ex1.sig"), "--order", "kbo",
                       fx("ex1_left.term"), fx("ex1_left.term"))
    assert (code, out) == (0, "E")


def test_compare_single_token_output(capsys):
    code, out, _ = run(capsys, "compare", "--sig", fx("ex3.sig"), "--order", "kbo",
                       fx("ex3_lit1.term"), fx("ex3_lit2.term"))
    assert code == 0
    assert out in ("G", "GE", "E", "LE", "L", "U")
    assert len(out.splitlines()) == 1


def test_compare_rejects_bad_inputs(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("(sym nosuch () ())")
    code, out, err = run(capsys, "compare", "--sig", fx("ex1.sig"), "--order", "kbo",
                         str(bad), fx("ex1_left.term"))
    assert code == 1
    assert "nosuch" in err

    missing = tmp_path / "missing.sig"
    code, out, err = run(capsys, "compare", "--sig", str(missing), "--order", "kbo",
                         fx("ex1_left.term"), fx("ex1_right.term"))
    assert code == 1


def test_compare_rejects_non_utf8_file(capsys, tmp_path):
    bad = tmp_path / "bad.sig"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run(capsys, "compare", "--sig", str(bad), "--order", "kbo",
                         fx("ex1_left.term"), fx("ex1_right.term"))
    assert (code, out, err) == (1, "", "error: 1:1: byte 0xff is not UTF-8")


def _chain_file(path, leaf, depth=10000):
    path.write_text("(sym f () () " * depth + leaf + ")" * depth)
    return str(path)


def test_compare_rejects_too_deep_term(capsys, tmp_path):
    # both chains parse; the comparison descends past the stack
    left = _chain_file(tmp_path / "left.term", "(db 0 k)")
    right = _chain_file(tmp_path / "right.term", "(db 1 k)")
    code, out, err = run(capsys, "compare", "--sig", fx("ex1.sig"), "--order", "lpo",
                         left, right)
    assert (code, out) == (1, "")
    assert err == "error: terms nested too deeply to compare"


def test_compare_rejects_deep_term_over_applied_at_its_root(capsys, tmp_path):
    sig = tmp_path / "chain.sig"
    sig.write_text("(signature (types (k 0)) (symbols (a () () k) (f () () (-> k k)))"
                   " (precedence a f))")
    chain = "(sym f () () " * 2000 + "(sym a () ())" + ")" * 2000
    bad = tmp_path / "bad.term"
    bad.write_text("(sym f () () %s (sym a () ()))" % chain)
    code, out, err = run(capsys, "compare", "--sig", str(sig), "--order", "kbo",
                         str(bad), str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: 1:1: type mismatch at argument 2 of (f (f (f "), err[:80]
    assert err.endswith(" a)") and err.count("(f ") == 2001


def test_compare_deep_identical_files(capsys, tmp_path):
    deep = _chain_file(tmp_path / "deep.term", "(db 0 k)")
    for order in ("kbo", "lpo"):
        code, out, err = run(capsys, "compare", "--sig", fx("ex1.sig"), "--order", order,
                             "--algo", "both", deep, deep)
        assert (code, out) == (0, "E"), err


def test_compare_term_with_a_deep_argument_type(capsys, tmp_path):
    # the bare h eta-expands into one lambda per level of its argument type
    ty = "k"
    for _ in range(3000):
        ty = "(-> %s k)" % ty
    sig = tmp_path / "deep.sig"
    sig.write_text("(signature (types (k 0)) (symbols (h () () (-> %s k))) (precedence h))" % ty)
    h = tmp_path / "h.term"
    h.write_text("(sym h () ())")
    code, out, err = run(capsys, "compare", "--sig", str(sig), "--order", "kbo", str(h), str(h))
    assert (code, out) == (0, "E"), err


def test_compare_rejects_constraint_violation(capsys, tmp_path):
    sig = tmp_path / "bad.sig"
    sig.write_text("""
(signature
  (types (k 0))
  (symbols (a () () k)
           (diff (A B) ((-> 'A 'B) (-> 'A 'B)) 'A))
  (coeffs ((diff 1) 2))
  (precedence diff a))
""")
    code, out, err = run(capsys, "compare", "--sig", str(sig), "--order", "kbo",
                         fx("ex1_left.term"), fx("ex1_right.term"))
    assert code == 1
    assert "k(diff, i) = 1" in err


def _leak_files(tmp_path, left, right):
    """A signature and two term files, as paths."""
    files = {"s.sig": "(signature (types (k 0)) (symbols (a () () k)) (precedence a)"
                      " (watershed a))", "l.term": left, "r.term": right}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in files]


@pytest.mark.parametrize("algo", ["naive", "optimized", "both"])
@pytest.mark.parametrize("order", ["kbo", "lpo"])
def test_compare_strict_rejects_a_mismatched_leaking_index(capsys, tmp_path, monkeypatch,
                                                           order, algo):
    """--strict checks the two terms once, before any algorithm: a leaking
    index number with two types is an error under every algorithm, a
    consistent pair prints its verdict, and without --strict the mismatched
    pair compares."""
    from lamorder import cli
    checked = []
    check = cli.check_leak_types
    monkeypatch.setattr(cli, "check_leak_types", lambda t, s: checked.append(1) or check(t, s))
    sig, left, right = _leak_files(tmp_path, "(db 3 (-> k k) (sym a () ()))", "(db 3 k)")
    argv = ["compare", "--sig", sig, "--order", order, "--algo", algo]
    assert run(capsys, *argv, "--strict", left, right) == (
        1, "", "error: leaking index #3 carries types (-> k k), k")
    assert checked == [1]
    assert run(capsys, *argv, left, right) == (0, "G" if order == "kbo" else "U", "")
    assert checked == [1]
    sig, left, right = _leak_files(tmp_path, "(db 3 k)", "(db 2 k)")
    assert run(capsys, *argv, "--strict", left, right) == (0, "G", "")


def test_check_zero_iters_is_empty_success(capsys):
    code, out, _ = run(capsys, "check", "--iters", "0")
    assert code == 0
    assert out == ""


def test_check_rejects_negative_iters(capsys):
    code, out, err = run(capsys, "check", "--iters", "-5")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "iters" in err and len(err.splitlines()) == 1


def test_check_small_run_passes(capsys):
    code, out, _ = run(capsys, "check", "--seed", "3", "--iters", "25")
    assert code == 0, out
    lines = [l for l in out.splitlines() if l.startswith("PROP")]
    assert len(lines) >= 15
    assert all("failures=0" in l for l in lines)


def test_check_subset_of_families(capsys):
    code, out, _ = run(capsys, "check", "--seed", "1", "--iters", "10",
                       "--families", "ground-total", "subterm-property")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PROP")]
    # every ground-total trial is a witness; a subterm-property trial whose
    # chosen subterm refers to an outer binder is not
    assert [l.split()[1:] for l in lines] == [
        ["ground-total", "trials=10", "witnesses=10", "failures=0"],
        ["subterm-property", "trials=10", "witnesses=9", "failures=0"]]


@pytest.mark.parametrize("iters", ["10", "0"])
def test_check_rejects_unknown_family(capsys, iters):
    code, out, err = run(capsys, "check", "--iters", iters,
                         "--families", "ground-total", "ground-totl")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "ground-totl" in err


def _cli_env(**extra):
    """The environment of a ``lamorder.cli`` subprocess that imports the
    package these tests import."""
    src = os.path.dirname(os.path.dirname(lamorder.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_check_output_is_the_same_under_any_string_hash_seed():
    """Interned values hash by identity and strings by PYTHONHASHSEED, so no
    output may depend on the order of a set or a hash."""
    outs = [subprocess.run([sys.executable, "-m", "lamorder.cli", "check", "--seed", "0",
                            "--iters", "20"], capture_output=True, check=True,
                           env=_cli_env(PYTHONHASHSEED=seed)).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert outs[0].endswith(b"CHECK 20 families, 0 failing\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_check_into_a_closed_pipe_exits_quietly(unbuffered):
    """A reader that closes the pipe early, as ``| head -1`` does, ends the
    run with the broken-pipe status and no traceback, whether the output
    breaks at a line or at the flush before exit."""
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "lamorder.cli", "check", "--seed", "0",
                             "--iters", "5"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE == 141
    assert err == b""
