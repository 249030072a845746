"""lamorder benchmark: optimized KBO and LPO comparisons on three corpora.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  It is a closed loop: one process, one caller,
one ``compare(t, s, params, algo="optimized")`` at a time, no threads.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object.
Without ``--workload`` it runs every workload in turn, each in its own
process.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os
import sys

if os.environ.get("PYTHONHASHSEED") != "0":
    # String hashing orders some sets the comparisons iterate over, and with
    # them how much work a comparison does: fix it, so a seed fixes the work.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse
import json
import platform
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("random_pairs", "related_pairs", "deep_nest")
# Fresh interpreters whose import of the benchmark and the library is timed;
# setup_s counts the median.
IMPORT_REPEATS = 5
_TIME_IMPORT = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import measure
wall = time.perf_counter() - t0
import timing
print(wall * timing.speed_factor())
"""


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "lamorder", "__init__.py")):
        sys.exit("perfbench: no lamorder sources under %s; run from a "
                 "checkout of the repository" % SRC)
    sys.path.insert(0, SRC)


def _import_s() -> float:
    """Median time, at the reference speed, that a fresh interpreter takes
    to import the benchmark and the library."""
    here = os.path.dirname(os.path.abspath(__file__))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _TIME_IMPORT, SRC, here],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        times.append(float(out))
    return statistics.median(times)


def _git_commit():
    """The checked-out commit, read from .git without leaving the checkout;
    None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _run_all(args) -> int:
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print("perfbench: workload %s failed (exit %d)" % (w, proc.returncode),
                  file=sys.stderr)
            return 1
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is None:
        return _run_all(args)

    _import_library()
    import_s = 0.0 if args.trace else _import_s()
    import measure

    result, lines, record = measure.run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), import_s)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=platform.python_version(),
                  nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
                  commit=_git_commit())
    for line in lines:
        print(line)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
