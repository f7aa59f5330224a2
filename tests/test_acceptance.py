"""The acceptance gate: every verification criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on failure)
and asserts the criterion outcome.  Runtimes are led by the full-size Haar
certification (criterion 11, about 0.05 s of a 0.19 s battery on a 2-core
host, medians inside a looping run_all()), followed by the character
identity (criterion 10, 0.05 s) and the spherical eigenvalue check
(criterion 4, 0.02 s).
"""

import numpy as np
import pytest

from so21 import acceptance, character, equivariant, groups, hyperbolic, reps

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


@pytest.mark.parametrize("fast", [False, True])
def test_criterion_11_fails_on_scaled_haar_weight(monkeypatch, fast):
    # negative control: a Haar weight 1.5 times too large cancels in every
    # translation defect but puts the base integral 0.50 off its K A K value
    weight = character.HaarGrid.node_weight
    monkeypatch.setattr(character.HaarGrid, "node_weight",
                        property(lambda grid: 1.5 * weight.fget(grid)))
    result = acceptance.criterion_11_haar(fast=fast)
    print(result.line())
    assert not result.passed


@pytest.mark.parametrize("fast", [False, True])
def test_criterion_11_fails_on_unapplied_right_translate(monkeypatch, fast):
    # negative control: every right factor taken as fixing e3, so a right
    # boost or unipotent only turns each node's phase and its integral is
    # the untranslated one: right defects 0.0 (full grid) and 3.9e-16 (fast)
    monkeypatch.setattr(groups, "_fixes_e3", lambda right: True)
    result = acceptance.criterion_11_haar(fast=fast)
    print(result.line())
    assert not result.passed


def test_criterion_11_holds_each_translation_of_positive_radius_to_the_floor(monkeypatch):
    # the moving translates are worked out from their Cartan radius: with
    # rotations alone none is held to the right-defect floor and the check
    # fails; a boost added to them is held to it, and fails it once the
    # floor lies above its right defect, while the rotations' 0.0 stays exempt
    grid = character.HaarGrid(*character.FAST_ORACLE_GRID)
    rotations = {"k(1)": groups.make_k(1.0), "k(2.5)": groups.make_k(2.5)}
    monkeypatch.setattr(character, "ORACLE_TRANSLATIONS", rotations)
    result = acceptance.criterion_11_haar(fast=True)
    assert not result.passed and "least a/n right 0.00e+00" in result.detail
    monkeypatch.setattr(character, "ORACLE_TRANSLATIONS", {**rotations, "a(0.7)": groups.make_a(0.7)})
    res, passed, _ = acceptance.haar_check(grid)
    assert passed and res.per_translation["k(1)"]["right"] == 0.0
    boost = res.per_translation["a(0.7)"]["right"]
    monkeypatch.setattr(acceptance, "HAAR_RIGHT_FLOOR", np.nextafter(boost, np.inf))
    assert not acceptance.haar_check(grid)[1]


def test_criterion_8_fails_on_mixed_isotypes(monkeypatch):
    # negative control: witness m carries 1e-6 of witness m + 1, a type
    # (m+1, m+1) admixture the projectors must expose
    pure = equivariant.separation_witness

    def mixed(m, profile):
        own, extra = pure(m, profile), pure(m + 1, profile)
        return equivariant.EquivariantFn(m, m, lambda gs: own(gs) + 1e-6 * extra(gs),
                                         support=profile.support)

    monkeypatch.setattr(equivariant, "separation_witness", mixed)
    result = acceptance.criterion_8_projectors()
    print(result.line())
    assert not result.passed


def test_criterion_4_fails_on_shifted_exponent(monkeypatch):
    # negative control: phi evaluated at w + 0.01 is no eigenfunction for
    # w(1 - w); the residuals reach about 6e-2 and the spectral form 1e-2
    pure = hyperbolic.phi

    def shifted(w, z, nodes=None):
        return pure(w + 0.01, z, nodes=nodes)

    monkeypatch.setattr(hyperbolic, "phi", shifted)
    result = acceptance.criterion_4_spherical_eigenvalue()
    print(result.line())
    assert not result.passed


def test_criterion_4_fails_on_euclidean_laplacian(monkeypatch):
    # negative control: the stencil without its -y^2 factor is the
    # Euclidean Laplacian; the worst residual is about 46
    pure = hyperbolic.laplacian_fd

    def euclidean(f, z, h=1e-3):
        return pure(f, z, h=h) / -(np.imag(z) ** 2)

    monkeypatch.setattr(hyperbolic, "laplacian_fd", euclidean)
    result = acceptance.criterion_4_spherical_eigenvalue()
    print(result.line())
    assert not result.passed


def test_criterion_4_phi_calls(monkeypatch):
    # cost guard: one eigencheck on every exponent and point, whose phi call
    # also gives the values the spectral form is read against
    pure = hyperbolic.phi
    calls = []

    def counted(w, z, nodes=None):
        calls.append(w)
        return pure(w, z, nodes=nodes)

    monkeypatch.setattr(hyperbolic, "phi", counted)
    assert acceptance.criterion_4_spherical_eigenvalue().passed
    assert len(calls) == 1


def test_criterion_4_computes_one_rotation_orbit(monkeypatch):
    # cost guard: the six exponents share one orbit of the 26 points' stencils
    pure = hyperbolic._rotation_orbit
    shapes = []

    def counted(z, nodes):
        shapes.append(z.shape)
        return pure(z, nodes)

    monkeypatch.setattr(hyperbolic, "_rotation_orbit", counted)
    assert acceptance.criterion_4_spherical_eigenvalue().passed
    assert shapes == [(26, 9, 1)]


def test_criterion_6_fails_on_unshifted_exponent(monkeypatch):
    # negative control: the coefficient at induced point 1 + 2s carries the
    # exponent 1 + s instead of (1 + s)/2; the worst gap is about 0.93
    pure = reps.matcoef

    def unshifted(p, g, n, m, nodes=None):
        return pure(reps.SpectralParam.induced_point(1 + 2 * p.s), g, n, m, nodes=nodes)

    monkeypatch.setattr(reps, "matcoef", unshifted)
    result = acceptance.criterion_6_matcoef_vs_spherical()
    print(result.line())
    assert not result.passed


def test_criterion_6_fails_on_wrong_coefficient(monkeypatch):
    # negative control: the (1, 1) coefficient is no spherical function;
    # the worst gap is about 0.53
    pure = reps.matcoef

    def off_diagonal_type(p, g, n, m, nodes=None):
        return pure(p, g, n + 1, m + 1, nodes=nodes)

    monkeypatch.setattr(reps, "matcoef", off_diagonal_type)
    result = acceptance.criterion_6_matcoef_vs_spherical()
    print(result.line())
    assert not result.passed


def test_criterion_6_matcoef_calls(monkeypatch):
    # one batched matcoef call per spectral parameter
    pure = reps.matcoef
    calls = []

    def counted(p, g, n, m, nodes=None):
        calls.append(np.shape(g))
        return pure(p, g, n, m, nodes=nodes)

    monkeypatch.setattr(reps, "matcoef", counted)
    assert acceptance.criterion_6_matcoef_vs_spherical().passed
    assert calls == [(9, 3, 3), (9, 3, 3)]
