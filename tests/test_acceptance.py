"""The acceptance gate: every verification criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on failure)
and asserts the criterion outcome.  Runtimes are dominated by the character
identity and the full-size Haar certification.
"""

import pytest

from so21 import acceptance, reps

CRITERIA = [
    acceptance.criterion_1_covering_homomorphism,
    acceptance.criterion_2_decompositions,
    acceptance.criterion_3_lie_layer,
    acceptance.criterion_4_spherical_eigenvalue,
    acceptance.criterion_5_unitarity,
    acceptance.criterion_6_matcoef_vs_spherical,
    acceptance.criterion_7_ladders,
    acceptance.criterion_8_projectors,
    acceptance.criterion_9_gram,
    acceptance.criterion_10_character_identity,
    acceptance.criterion_11_haar,
]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.detail


def test_criterion_7_fails_on_leakage_above_round_off(monkeypatch):
    # negative control: a leak of 1e-10 at one truncation is far above
    # round-off and must fail the gate
    leakage = reps.discrete_ladder_leakage

    def leaky(m, sign, g, N):
        return 1e-10 if N == 32 else leakage(m, sign, g, N)

    monkeypatch.setattr(reps, "discrete_ladder_leakage", leaky)
    assert not acceptance.criterion_7_ladders().passed
