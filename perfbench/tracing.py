"""Per-layer counts and self times, taken from outside the library.

``Tracer.install`` rebinds each traced function, in every ``lamorder.*``
module namespace that holds it, to a wrapper that counts the call and times
it as a span; methods are wrapped on their class.  A span's self time is its
duration minus the durations of the spans it encloses, and is charged to the
span's layer.  ``uninstall`` restores the originals, so untraced operations
run the library exactly as shipped.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from timing import WorkLimit

# (module, attribute path, layer, counter).  A layer of None charges the span
# to the order being compared ("kbo" or "lpo"); a counter of None only times.
# A name the library no longer has is skipped and reported in `missing`.
FUNCTIONS = [
    ("ordinal", "ord_add", "ordinal", "ordinal.calls"),
    ("ordinal", "ord_mul", "ordinal", "ordinal.calls"),
    ("ordinal", "ord_compare", "ordinal", "ordinal.calls"),
    ("poly", "Poly.__init__", "poly", "poly.constructions"),
    ("poly", "Poly.__add__", "poly", None),
    ("poly", "Poly.__sub__", "poly", None),
    ("poly", "Poly.__neg__", "poly", None),
    ("poly", "Poly.__mul__", "poly", None),
    ("poly", "Poly.scale", "poly", None),
    ("poly", "analyze_weight_diff", "poly", "poly.analyze_calls"),
    ("poly", "const_poly", "poly", None),
    ("poly", "indet_poly", "poly", None),
    ("term", "type_of", "term", "term.type_of_calls"),
    ("term", "head_type", "term", "term.type_of_calls"),
    ("term", "normalize", "term", "term.normalize_calls"),
    ("term", "check_types", "term", None),
    ("term", "is_steady", "term", None),
    ("term", "steady_split", "term", None),
    ("term", "shift", "term", None),
    ("fo_order", "fo_kbo_compare", "fo_order", "fo_order.type_compares"),
    ("fo_order", "fo_lpo_compare", "fo_order", "fo_order.type_compares"),
    ("cmp", "lex_ext", "cmp", "cmp.ext_calls"),
    ("cmp", "cw_ext", "cmp", "cmp.ext_calls"),
    ("lambda_order", "_KboOpt.process", None, "lambda_order.calls"),
    ("lambda_order", "_LpoOpt.compare", None, "lambda_order.calls"),
    ("lambda_order", "weight_poly", None, "lambda_order.weight_builds"),
    ("parse", "parse_term", "parse", "parse.terms"),
    ("gen", "TermGen.gen", "gen", None),
]

# The list extensions call back into the comparison; the callback is a span
# of the calling order, so that its time is not charged to cmp.
_CALLBACK_TAKERS = {"lex_ext", "cw_ext"}


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.order = "kbo"
        # spans opened by the current operation, and the most it may open
        self.spans = 0
        self.span_limit = float("inf")
        # one child-time accumulator per open span
        self._stack = []
        self._patches = []
        self.missing = []
        modules = _library_modules()
        for module, path, layer, counter in FUNCTIONS:
            *outer, attr = path.split(".")
            owner = sys.modules.get("lamorder." + module)
            for name in outer:
                owner = getattr(owner, name, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.missing.append(module + "." + path)
                continue
            wrapper = self._wrap(orig, layer, counter, attr in _CALLBACK_TAKERS)
            if outer:
                self._patches.append((owner, attr, orig, wrapper))
                continue
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is orig:
                        self._patches.append((mod, name, orig, wrapper))

    def _open(self) -> None:
        self.counts["trace.spans"] += 1
        self.spans += 1
        if self.spans > self.span_limit:
            raise WorkLimit()
        self._stack.append(0.0)

    def _close(self, layer, t0: float) -> None:
        dur = perf_counter() - t0
        stack = self._stack
        self.self_s[layer or self.order] += dur - stack.pop()
        if stack:
            stack[-1] += dur

    def _wrap(self, fn, layer, counter, takes_callback: bool):
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                tracer.counts[counter] += 1
            if takes_callback:
                args = (tracer._callback(args[0]),) + args[1:]
            tracer._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(layer, t0)

        return traced

    def _callback(self, op):
        if getattr(op, "_traced_callback", False):
            return op
        tracer = self

        def traced(*args):
            tracer._open()
            t0 = perf_counter()
            try:
                return op(*args)
            finally:
                tracer._close(None, t0)

        traced._traced_callback = True
        return traced

    def rooted(self, fn):
        """fn as the root span of one operation, charged to the order.  The
        operation raises WorkLimit once it opens more than span_limit spans,
        a bound on work that, unlike a deadline, ends the same operations on
        every run."""
        tracer = self

        def root(*args):
            tracer._stack[:] = [0.0]
            tracer.spans = 0
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                # a RecursionError can cut an enclosed span short
                tracer._stack[1:] = []
                tracer._close(None, t0)

        return root

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig, _ in self._patches:
            setattr(owner, name, orig)
        self._stack.clear()

    def snapshot(self):
        return dict(self.counts), dict(self.self_s)

    def restore(self, snap) -> None:
        self.counts = defaultdict(int, snap[0])
        self.self_s = defaultdict(float, snap[1])

    def reset(self) -> None:
        self.restore(({}, {}))


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lamorder" or name.startswith("lamorder."))]
