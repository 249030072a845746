"""Command-line front end.

    lamorder compare --sig SIG --order {kbo,lpo} [--algo A] [--strict] T1 T2
    lamorder check   [--seed N] [--iters N] [--families NAME ...]

compare prints exactly one of G GE E LE L U.  Exit codes: 0 success,
1 invalid input or comparison error, 2 property failure, 141 the reader of
the output closed it early (128 + SIGPIPE, a shell's status for a writer
that a broken pipe ends).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import checks
from .lambda_order import DepthError, LeakTypeMismatch, OrderError, check_leak_types, compare
from .parse import ParseError, parse_signature_file, parse_term_file
from .term import TermError

EXIT_BROKEN_PIPE = 141


def _cmd_compare(args) -> int:
    try:
        sig, params = parse_signature_file(args.sig, args.order)
        t = parse_term_file(args.terms[0], sig)
        s = parse_term_file(args.terms[1], sig)
    except (ParseError, TermError, OrderError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except RecursionError:
        print("error: term nested too deeply to parse", file=sys.stderr)
        return 1
    try:
        if args.strict:
            check_leak_types(t, s)
        if args.algo == "both":
            a = compare(t, s, params, algo="naive")
            b = compare(t, s, params, algo="optimized")
            if a != b:
                print("error: naive=%s optimized=%s disagree" % (a, b), file=sys.stderr)
                return 1
            print(a)
        else:
            print(compare(t, s, params, algo=args.algo))
    except (DepthError, LeakTypeMismatch, TermError, OrderError) as exc:
        print("error: %s" % exc, file=sys.stderr)
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

    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
