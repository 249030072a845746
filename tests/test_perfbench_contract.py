"""What the benchmark in perfbench/ reads of the library still exists.

The benchmark's tracer and call budget rebind functions they name as
strings, and its corpora call the library through module aliases; a renamed
function would otherwise show only in a full benchmark run.  The benchmark's
files are read with ``ast``, never imported."""

import ast
import importlib
import os

BENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _tree(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as f:
        return ast.parse(f.read())


def _constant(name, var):
    """The literal value assigned to the top-level name ``var`` of ``name``."""
    for node in _tree(name).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == var for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("%s assigns no %s" % (name, var))


def _own(module, path):
    """The attribute ``path`` (``Class.attr`` or ``function``) of
    ``lamorder.<module>``, looked up as the benchmark looks it up: the last
    step in the owner's own namespace."""
    *outer, attr = path.split(".")
    owner = importlib.import_module("lamorder." + module)
    for name in outer:
        owner = getattr(owner, name, None)
    return vars(owner).get(attr) if owner is not None else None


def test_traced_and_budgeted_functions_resolve():
    steps = _constant("timing.py", "NAIVE_STEPS") + _constant("timing.py", "OPTIMIZED_STEPS")
    named = [(m, p) for m, p, _, _ in _constant("tracing.py", "FUNCTIONS")]
    named += [("lambda_order", p) for p in steps]
    assert len(named) > 20
    missing = ["lamorder.%s.%s" % mp for mp in named if not callable(_own(*mp))]
    assert not missing, missing


def _library_uses():
    """Each (module, name) that a perfbench file reads of the library: an
    attribute of a module imported from ``lamorder``, or a name imported
    from one of its modules."""
    uses = set()
    for name in sorted(os.listdir(BENCH)):
        if not name.endswith(".py"):
            continue
        tree = _tree(name)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "lamorder":
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lamorder."):
                uses.update((node.module[len("lamorder."):], a.name) for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                uses.add((aliases[node.value.id], node.attr))
    return uses


def test_every_library_name_the_benchmark_reads_exists():
    uses = _library_uses()
    # the timed entry point, the weight-build counter and the deep families
    assert {("lambda_order", "compare"), ("lambda_order", "weight_calls"),
            ("lambda_order", "reset_weight_calls"), ("checks", "bench_signature"),
            ("checks", "adversarial_lpo_pair"), ("checks", "deep_chain_pair")} <= uses
    missing = sorted("lamorder.%s.%s" % u for u in uses
                     if not hasattr(importlib.import_module("lamorder." + u[0]), u[1]))
    assert not missing, missing
