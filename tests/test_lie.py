import numpy as np
import pytest
from numpy.testing import assert_allclose

from so21 import groups, lie, reps
from so21.errors import DomainError, NumericError


def test_bracket_table_exact():
    assert np.array_equal(lie.bracket(lie.W, lie.V1), -lie.V2)
    assert np.array_equal(lie.bracket(lie.W, lie.V2), lie.V1)
    assert np.array_equal(lie.bracket(lie.V1, lie.V2), lie.W)


def test_bracket_antisymmetry_and_self():
    assert np.array_equal(lie.bracket(lie.V1, lie.V1), np.zeros((3, 3)))
    assert np.array_equal(lie.bracket(lie.V1, lie.W), -lie.bracket(lie.W, lie.V1))


def test_bracket_closes_in_algebra():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        x = a[0] * lie.V1 + a[1] * lie.V2 + a[2] * lie.W
        y = b[0] * lie.V1 + b[1] * lie.V2 + b[2] * lie.W
        assert lie.algebra_defect(lie.bracket(x, y)) < 1e-13


def test_bracket_rejects_non_algebra_input():
    with pytest.raises(DomainError):
        lie.bracket(np.eye(3), lie.W)


def test_jacobi_identity_exact_on_basis():
    basis = (lie.V1, lie.V2, lie.W)
    for x in basis:
        for y in basis:
            for z in basis:
                total = (lie.bracket(x, lie.bracket(y, z))
                         + lie.bracket(y, lie.bracket(z, x))
                         + lie.bracket(z, lie.bracket(x, y)))
                assert np.array_equal(total, np.zeros((3, 3)))


def test_ad_w_eigenvectors_exact():
    dplus, dminus = lie.ad_w_eigencheck()
    assert dplus == 0.0
    assert dminus == 0.0


def test_eigenvectors_conjugate():
    assert np.array_equal(lie.E_MINUS, np.conj(lie.E_PLUS))


# ---------------------------------------------------------------------------
# exponential
# ---------------------------------------------------------------------------

def _rotation_block(theta):
    # independent closed form for exp(theta W)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _boost_block(t):
    # independent closed form for exp(t V2)
    ch, sh = np.cosh(t), np.sinh(t)
    return np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])


def test_exp_rotation_generator():
    for theta in (0.1, 1.0, 3.0):
        assert_allclose(lie.exp_matrix(theta * lie.W), _rotation_block(theta), atol=1e-12)


def test_exp_boost_generator():
    for t in (0.1, 1.0, 3.0):
        assert_allclose(lie.exp_matrix(t * lie.V2), _boost_block(t), atol=1e-12)


def test_exp_nilpotent_generator():
    # (V1 - W) is nilpotent of order 3, so the series terminates at the
    # quadratic term; that truncation is the oracle
    nil = lie.V1 - lie.W
    assert np.array_equal(nil @ nil @ nil, np.zeros((3, 3)))
    for u in (0.5, 1.0, 2.0):
        oracle = np.eye(3) + u * nil + (u * u / 2.0) * (nil @ nil)
        assert_allclose(lie.exp_matrix(u * nil), oracle, atol=1e-12)
        assert_allclose(oracle, groups.make_n(u), atol=1e-15)


def test_exp_lands_in_group():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=3) * 2.0
        x = a[0] * lie.V1 + a[1] * lie.V2 + a[2] * lie.W
        assert groups.so21_check(lie.exp_matrix(x)).accepted


def test_exp_ad_conjugation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=3)
        x = a[0] * lie.V1 + a[1] * lie.V2 + a[2] * lie.W
        g = groups.random_elements(rng, 1)[0]
        lhs = lie.exp_matrix(g @ x @ np.linalg.inv(g))
        rhs = g @ lie.exp_matrix(x) @ np.linalg.inv(g)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_exp_rejects_non_square_and_non_finite():
    with pytest.raises(DomainError):
        lie.exp_matrix(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        lie.exp_matrix(np.full((3, 3), np.nan))


# ---------------------------------------------------------------------------
# tangent consistency of the basis
# ---------------------------------------------------------------------------

def _richardson_derivative(curve, h=1e-5):
    def central(step):
        return (curve(step) - curve(-step)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


@pytest.mark.parametrize("curve,generator", [
    (groups.make_k, lie.W),
    (groups.make_a, lie.V2),
    (groups.make_n, lie.V1 - lie.W),
])
def test_basis_tangent_consistency(curve, generator):
    derivative = _richardson_derivative(curve)
    assert np.max(np.abs(derivative - generator)) < 1e-9


# ---------------------------------------------------------------------------
# differential of the covering map
# ---------------------------------------------------------------------------

def test_dpsi_zero():
    assert np.array_equal(lie.dpsi(np.zeros((2, 2))), np.zeros((3, 3)))


def test_dpsi_diagonal():
    assert_allclose(lie.dpsi(np.diag([1.0, -1.0])), 2.0 * lie.V2)


def test_dpsi_rotation_generator():
    assert_allclose(lie.dpsi(np.array([[0.0, -1.0], [1.0, 0.0]])), 2.0 * lie.W)


def test_dpsi_shear():
    assert_allclose(lie.dpsi(np.array([[0.0, 1.0], [0.0, 0.0]])), lie.V1 - lie.W)


def test_dpsi_rejects_trace():
    with pytest.raises(DomainError):
        lie.dpsi(np.eye(2))


def test_dpsi_bracket_compatible():
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2))
        x -= np.trace(x) / 2.0 * np.eye(2)
        y -= np.trace(y) / 2.0 * np.eye(2)
        lhs = lie.dpsi(x @ y - y @ x)
        rhs = lie.bracket(lie.dpsi(x), lie.dpsi(y))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_dpsi_matches_finite_difference_of_psi():
    rng = np.random.default_rng(37)
    h = 1e-6
    for _ in range(10):
        x = rng.normal(size=(2, 2))
        x -= np.trace(x) / 2.0 * np.eye(2)
        fd = (groups.psi(lie.exp_matrix(h * x)) - groups.psi(lie.exp_matrix(-h * x))) / (2.0 * h)
        assert np.max(np.abs(fd - lie.dpsi(x))) < 1e-7


# ---------------------------------------------------------------------------
# Casimir
# ---------------------------------------------------------------------------

def test_casimir_annihilates_constants():
    g = groups.make_a(0.5)
    assert abs(lie.casimir_apply(lambda gs: np.ones(gs.shape[:-2]), g)) < 1e-8


def test_casimir_step_validation():
    with pytest.raises(DomainError):
        lie.casimir_apply(lambda _: 1.0, np.eye(3), h=1.0)
    with pytest.raises(DomainError):
        lie.casimir_apply(lambda _: 1.0, np.eye(3), h=1e-6)


def test_casimir_rejects_non_finite_samples():
    with pytest.raises(NumericError):
        lie.casimir_apply(lambda gs: np.where(gs[..., 0, 2] != 0, np.inf, 1.0), np.eye(3))


def _coefficient_function(s):
    p = reps.SpectralParam.from_s(s)
    return lambda g: reps.matcoef(p, g, 0, 0)


def test_casimir_calls_f_once_and_matches_per_generator_loop():
    # reference: each second difference from its own exp_matrix pair and
    # three single-element calls of f
    f = _coefficient_function(0.5 + 1j)
    calls = []

    def counted(gs):
        calls.append(gs.shape)
        return f(gs)

    g = groups.recompose(groups.IwasawaCoords(0.4, 0.2, 0.3))
    h = 1e-3
    value = lie.casimir_apply(counted, g, h=h)
    assert calls == [(7, 3, 3)]
    center = f(g)
    reference = 0.0
    for x, sign in ((lie.V1, 1.0), (lie.V2, 1.0), (lie.W, -1.0)):
        plus, minus = f(g @ lie.exp_matrix(h * x)), f(g @ lie.exp_matrix(-h * x))
        reference += sign * (plus - 2.0 * center + minus) / (h * h)
    assert abs(value - reference) < 1e-8 * abs(reference)


def test_casimir_eigenfunction_constancy():
    rng = np.random.default_rng(41)
    points = groups.random_elements(rng, 20, t_bound=1.0, u_bound=1.0)
    ratios = []
    f = _coefficient_function(1j)
    for g in points:
        ratios.append(lie.casimir_apply(f, g) / f(g))
    spread = np.max(np.abs(np.asarray(ratios) - np.mean(ratios)))
    assert spread < 1e-4


def test_casimir_separates_spectral_parameters():
    rng = np.random.default_rng(43)
    points = groups.random_elements(rng, 5, t_bound=1.0, u_bound=1.0)
    values = {}
    for s in (1j, 2j, 0.5):
        f = _coefficient_function(s)
        values[s] = np.mean([lie.casimir_apply(f, g) / f(g) for g in points])
    gaps = [abs(values[1j] - values[2j]), abs(values[1j] - values[0.5]),
            abs(values[2j] - values[0.5])]
    assert min(gaps) > 0.1
