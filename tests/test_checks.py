"""The property families themselves: small green runs, and the seeded-fault
smoke test showing the differential harness actually detects mutations."""

import pytest

from lamorder.checks import (FAMILIES, SKIP, _mutated_params, _trials,
                             oracle_equivalence_mutated, run_families)
from lamorder.gen import GenConfig, gen_signature

NAMES = [
    "normalize-idempotent", "subst-compose", "context-round-trip",
    "surely-nonneg-sound", "analyze-consistent", "oracle-equivalence",
    "ground-total", "naive-opt-equal", "flip-symmetric", "grounding-stable",
    "monomorphizing-stable", "transitive", "context-compatible",
    "subterm-property", "diff-dominated", "top-bot-minimal",
    "variable-guarantee", "weight-grounding-lemma",
    "weight-monomorphizing-lemma", "encode-faithful",
]


def test_registry_holds_every_family_once_in_order():
    assert list(FAMILIES) == NAMES
    for name in NAMES:
        assert FAMILIES[name](0, 1).name == name


def test_every_family_passes_briefly():
    for name, fn in FAMILIES.items():
        res = fn(11, 40)
        assert res.ok, "%s: %s" % (name, res.counterexample)
        assert res.trials == 40
        assert 0 <= res.witnesses <= res.trials


def test_skipped_trials_are_not_witnesses():
    outcomes = [None, SKIP, "first", SKIP, "second", None]
    res = _trials("probe", lambda env, rng, i: outcomes[i], False, 0, len(outcomes))
    assert (res.trials, res.witnesses, res.failures) == (6, 4, 2)
    assert res.counterexample == "first"
    assert "witnesses=4 " in res.line()


def test_run_families_filter():
    out = run_families(2, 5, names=["ground-total"])
    assert [r.name for r in out] == ["ground-total"]
    with pytest.raises(ValueError, match="ground-totl"):
        run_families(2, 5, names=["ground-total", "ground-totl"])


def test_mutated_oracle_is_detected():
    # flipping one precedence pair inside the oracle only must surface as
    # oracle/algorithm mismatches
    res = oracle_equivalence_mutated(4, 150)
    assert res.failures > 0
    assert res.counterexample
    assert res.name not in FAMILIES


@pytest.mark.parametrize("seed", range(6))
def test_mutated_params_keep_every_setting(seed):
    _, kbo, lpo = gen_signature(GenConfig(seed=seed, ordinal_weights=True))
    for p in (kbo, lpo):
        assert any(not w.is_natural() for w in p.weights.values())
        m = _mutated_params(p)
        for field in ("kind", "weights", "w_lam", "w_db", "coeffs", "ty_weights",
                      "ty_prec_ranks", "watershed"):
            assert getattr(m, field) == getattr(p, field), field
        assert m.prec_ranks != p.prec_ranks


def test_distinct_seeds_generate_distinct_environments():
    a = run_families(1, 5, names=["normalize-idempotent"])[0]
    b = run_families(2, 5, names=["normalize-idempotent"])[0]
    assert a.ok and b.ok
