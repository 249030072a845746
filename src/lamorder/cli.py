"""Command-line front end.

    lamorder compare --sig SIG --order {kbo,lpo} [--algo A] [--strict] T1 T2
    lamorder check   [--seed N] [--iters N] [--families NAME ...]
    lamorder bench   [--lpo-depth N] [--kbo-depth N] [--budget S]

compare prints exactly one of G GE E LE L U.  Exit codes: 0 success,
1 invalid input or comparison error, 2 property failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from . import checks
from .lambda_order import (LeakTypeMismatch, OrderError, compare,
                           reset_weight_calls, weight_calls)
from .parse import ParseError, parse_signature_file, parse_term_file
from .term import TermError


def _cmd_compare(args) -> int:
    try:
        sig, params = parse_signature_file(args.sig, args.order,
                                           strict_leaks=args.strict)
        t = parse_term_file(args.terms[0], sig)
        s = parse_term_file(args.terms[1], sig)
    except (ParseError, TermError, OrderError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except RecursionError:
        print("error: term nested too deeply to parse", file=sys.stderr)
        return 1
    try:
        if args.algo == "both":
            a = compare(t, s, params, algo="naive")
            b = compare(t, s, params, algo="optimized")
            if a != b:
                print("error: naive=%s optimized=%s disagree" % (a, b), file=sys.stderr)
                return 1
            print(a)
        else:
            print(compare(t, s, params, algo=args.algo))
    except (LeakTypeMismatch, TermError, OrderError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except RecursionError:
        print("error: terms nested too deeply to compare", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args) -> int:
    try:
        results = checks.run_families(args.seed, args.iters, args.families)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.iters <= 0:
        return 0
    bad = 0
    for r in results:
        print(r.line())
        if not r.ok:
            bad += 1
    print("CHECK %d families, %d failing" % (len(results), bad))
    return 2 if bad else 0


def _time(fn, *a) -> Optional[float]:
    """Seconds taken by fn(*a), or None when it exceeds the recursion limit."""
    start = time.perf_counter()
    try:
        fn(*a)
    except RecursionError:
        return None
    return time.perf_counter() - start


def _cell(secs: Optional[float]) -> str:
    return "recursion limit" if secs is None else "%.4fs" % secs


def _cmd_bench(args) -> int:
    row = "%-28s %15s %15s"
    print(row % ("case", "naive", "optimized"))
    _, kbo, lpo = checks.bench_signature()
    for depth in range(2, args.lpo_depth + 1, 2):
        t, s = checks.adversarial_lpo_pair(depth)
        tn = _time(compare, t, s, lpo, "naive")
        to = _time(compare, t, s, lpo, "optimized")
        print(row % ("lpo nest depth %d" % depth, _cell(tn), _cell(to)))
        if tn is None or tn > args.budget:
            print("  (naive exceeded %.1fs or the recursion limit; stopping the "
                  "naive column)" % args.budget)
            for d2 in range(depth + 2, args.lpo_depth + 1, 2):
                t2, s2 = checks.adversarial_lpo_pair(d2)
                to2 = _time(compare, t2, s2, lpo, "optimized")
                print(row % ("lpo nest depth %d" % d2, "-", _cell(to2)))
            break
    for depth in (args.kbo_depth // 2, args.kbo_depth):
        t, s = checks.deep_chain_pair(depth)
        reset_weight_calls()
        tn = _time(compare, t, s, kbo, "naive")
        cn = "-" if tn is None else weight_calls()
        reset_weight_calls()
        to = _time(compare, t, s, kbo, "optimized")
        co = "-" if to is None else weight_calls()
        print((row + "   weight builds: %s vs %s")
              % ("kbo chain depth %d" % depth, _cell(tn), _cell(to), cn, co))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="lamorder")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cmp = sub.add_parser("compare", help="compare two terms")
    p_cmp.add_argument("--sig", required=True, help="signature file")
    p_cmp.add_argument("--order", required=True, choices=["kbo", "lpo"])
    p_cmp.add_argument("--algo", default="optimized",
                       choices=["naive", "optimized", "both"])
    p_cmp.add_argument("--strict", action="store_true",
                       help="error out on mismatched leaking index types")
    p_cmp.add_argument("terms", nargs=2, help="two term files")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_chk = sub.add_parser("check", help="run the property families")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--iters", type=int, default=150)
    p_chk.add_argument("--families", nargs="*", default=None,
                       help="restrict to the named families")
    p_chk.set_defaults(fn=_cmd_check)

    p_b = sub.add_parser("bench", help="time naive vs optimized comparisons")
    p_b.add_argument("--lpo-depth", type=int, default=14)
    p_b.add_argument("--kbo-depth", type=int, default=400)
    p_b.add_argument("--budget", type=float, default=5.0,
                     help="stop the naive column after this many seconds")
    p_b.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
