import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from so21 import equivariant, groups, hyperbolic, reps
from so21.errors import DomainError

from conftest import iwasawa_params

I3 = np.eye(3)


# ---------------------------------------------------------------------------
# subgroup constructors
# ---------------------------------------------------------------------------

def test_make_a_identity():
    assert_allclose(groups.make_a(0.0), I3)


def test_make_n_at_one():
    expected = np.array([[0.5, 1.0, 0.5], [-1.0, 1.0, 1.0], [-0.5, 1.0, 1.5]])
    assert_allclose(groups.make_n(1.0), expected)


def test_make_k_at_pi():
    assert_allclose(groups.make_k(np.pi), np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_make_k_periodic():
    theta = 2.5
    assert_allclose(groups.make_k(theta + 2 * np.pi), groups.make_k(theta), atol=1e-14)


def test_constructors_reject_non_finite():
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError):
            groups.make_a(bad)
        with pytest.raises(DomainError):
            groups.make_n(bad)
        with pytest.raises(DomainError):
            groups.make_k(bad)


def test_constructors_broadcast():
    ts = np.array([0.0, 1.0, -2.0])
    stack = groups.make_a(ts)
    assert stack.shape == (3, 3, 3)
    assert_allclose(stack[1], groups.make_a(1.0))


@given(iwasawa_params())
def test_constructed_elements_are_members(params):
    t, u, theta = params
    g = groups.make_a(t) @ groups.make_n(u) @ groups.make_k(theta)
    assert groups.so21_check(g).accepted


# ---------------------------------------------------------------------------
# membership diagnostic
# ---------------------------------------------------------------------------

def test_so21_check_identity():
    diag = groups.so21_check(I3)
    assert diag.accepted
    assert diag.form_defect == 0.0
    assert diag.det_defect == 0.0


def test_so21_check_rejects_reflection():
    # diag(1, 1, -1) preserves the form but has det -1
    diag = groups.so21_check(np.diag([1.0, 1.0, -1.0]))
    assert not diag.accepted
    assert diag.det_defect > 1.0


def test_so21_check_closure_under_product():
    g = groups.make_a(2.0) @ groups.make_k(1.0)
    assert groups.so21_check(g).accepted


@given(iwasawa_params(), iwasawa_params())
@example((2.0, 1.96875, 2.0), (2.0, 1.75, 0.0))
def test_so21_check_accepts_products_of_desk_scale_elements(p1, p2):
    # entries up to ~543 carry form defects above the absolute 1e-10
    g = groups.recompose(groups.IwasawaCoords(*p1)) @ groups.recompose(groups.IwasawaCoords(*p2))
    assert groups.so21_check(g).accepted


def test_so21_check_rejects_relative_perturbation():
    g = groups.recompose(groups.IwasawaCoords(3.0, 0.5, 1.0))
    assert groups.so21_check(g).accepted
    bumped = g.copy()
    bumped[0, 1] += 1e-8 * np.max(np.abs(g))
    assert not groups.so21_check(bumped).accepted


def test_so21_check_never_raises():
    assert not groups.so21_check(np.full((3, 3), np.nan)).accepted
    assert not groups.so21_check([[1.0, 2.0], [3.0, 4.0]]).accepted


# ---------------------------------------------------------------------------
# the covering map
# ---------------------------------------------------------------------------

def test_psi_identity():
    assert_allclose(groups.psi(np.eye(2)), I3)


def test_psi_shear_is_unipotent():
    assert_allclose(groups.psi(np.array([[1.0, 1.0], [0.0, 1.0]])), groups.make_n(1.0))


def test_psi_diagonal_is_boost():
    m = np.diag([np.e, 1.0 / np.e])
    assert_allclose(groups.psi(m), groups.make_a(2.0), atol=1e-14)


def test_psi_one_parameter_correspondences():
    # 100 samples of each one-parameter family, defect < 1e-12
    rng = np.random.default_rng(13)
    thetas = rng.uniform(0, 4 * np.pi, 100)
    rot = np.zeros(thetas.shape + (2, 2))
    rot[..., 0, 0] = np.cos(thetas)
    rot[..., 0, 1] = -np.sin(thetas)
    rot[..., 1, 0] = np.sin(thetas)
    rot[..., 1, 1] = np.cos(thetas)
    assert np.max(np.abs(groups.psi(rot) - groups.make_k(2 * thetas))) < 1e-12

    ts = rng.uniform(-2, 2, 100)
    diag = np.zeros(ts.shape + (2, 2))
    diag[..., 0, 0] = np.exp(ts)
    diag[..., 1, 1] = np.exp(-ts)
    assert np.max(np.abs(groups.psi(diag) - groups.make_a(2 * ts))) < 1e-12

    us = rng.uniform(-3, 3, 100)
    shear = np.zeros(us.shape + (2, 2))
    shear[..., 0, 0] = 1.0
    shear[..., 0, 1] = us
    shear[..., 1, 1] = 1.0
    assert np.max(np.abs(groups.psi(shear) - groups.make_n(us))) < 1e-12


def test_psi_even():
    m = groups.sl2_a(0.7) @ groups.sl2_n(-1.2)
    assert_allclose(groups.psi(-m), groups.psi(m))


def test_psi_rejects_bad_determinant():
    with pytest.raises(DomainError):
        groups.psi(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_psi_homomorphism_on_seeded_pairs():
    rng = np.random.default_rng(7)
    count = 1000
    def sample():
        return (groups.sl2_a(rng.uniform(-2, 2, count))
                @ groups.sl2_n(rng.uniform(-2, 2, count))
                @ groups.sl2_k(rng.uniform(0, 2 * np.pi, count)))
    m1, m2 = sample(), sample()
    defect = np.max(np.abs(groups.psi(m1 @ m2) - groups.psi(m1) @ groups.psi(m2)))
    assert defect < 1e-11


def test_psi_inv_identity_is_canonical():
    rep = groups.psi_inv(I3)
    assert_allclose(rep.matrix, np.eye(2))


def test_psi_inv_half_rotation():
    # the preimage of k_pi is the rotation by pi/2, up to the center;
    # canonicalization flips the sign so the first nonzero entry is positive
    rep = groups.psi_inv(groups.make_k(np.pi))
    assert_allclose(rep.matrix, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)
    assert_allclose(groups.psi(rep.matrix), groups.make_k(np.pi), atol=1e-12)


def _random_with_rotations(rng):
    """1000 random elements followed by 8 pure rotations (degenerate radius)."""
    return np.concatenate([groups.random_elements(rng, 1000),
                           groups.make_k(rng.uniform(0, 2 * np.pi, 8))])


def test_psi_inv_round_trip_random():
    rng = np.random.default_rng(11)
    gs = _random_with_rotations(rng)
    batch = groups.psi_inv(gs).matrix
    assert batch.shape == (len(gs), 2, 2)
    assert np.max(np.abs(groups.psi(batch) - gs)) < 1e-9
    for g, m in zip(gs, batch):
        assert_allclose(groups.psi_inv(g).matrix, m, rtol=0, atol=1e-12)


def test_psl2_sign_canonicalization_is_total():
    m = groups.sl2_a(0.4) @ groups.sl2_k(1.0)
    plus = groups.PSL2Element.from_matrix(m)
    minus = groups.PSL2Element.from_matrix(-m)
    assert_allclose(plus.matrix, minus.matrix)


@pytest.mark.parametrize("defect, accepted", [(5e-11, True), (2e-10, False)])
def test_psi_and_psl2_share_one_det_tolerance(defect, accepted):
    # psi and a PSL(2,R) representative accept the same det defects, DET_TOL
    m = np.array([[1.0 + defect, 0.0], [0.0, 1.0]])
    for build in (groups.psi, groups.PSL2Element.from_matrix):
        if accepted:
            build(m)
        else:
            with pytest.raises(DomainError, match="det 1"):
                build(m)


def test_psi_inv_rejects_non_member():
    with pytest.raises(DomainError):
        groups.psi_inv(np.diag([1.0, 1.0, -1.0]))


# ---------------------------------------------------------------------------
# Iwasawa decomposition
# ---------------------------------------------------------------------------

def test_iwasawa_identity():
    c = groups.iwasawa(I3)
    assert (c.t, c.u, c.theta) == (0.0, 0.0, 0.0)
    assert not np.any(np.signbit([c.t, c.u, c.theta]))  # no -0.0


def test_iwasawa_recovers_parameters():
    g = groups.make_a(1.0) @ groups.make_n(2.0) @ groups.make_k(0.7)
    c = groups.iwasawa(g)
    assert_allclose([c.t, c.u, c.theta], [1.0, 2.0, 0.7], atol=1e-12)


def test_iwasawa_pure_rotation():
    c = groups.iwasawa(groups.make_k(np.pi))
    assert_allclose([c.t, c.u, c.theta], [0.0, 0.0, np.pi], atol=1e-14)


@given(iwasawa_params(t_bound=3.0, u_bound=3.0))
@example((2.9867595229750696, 2.697423923836264, 5.75))
@example((np.nextafter(3.0, 0.0), 3.0, 0.0))
def test_iwasawa_round_trip(params):
    # the two examples round-tripped to 1.25e-10 and 1.65e-10 when t was
    # -log(p3 - p1) and theta was read off cancelling sums of size |g|^2
    t, u, theta = params
    g = groups.make_a(t) @ groups.make_n(u) @ groups.make_k(theta)
    c = groups.iwasawa(g)
    assert np.max(np.abs(groups.recompose(c) - g)) < 1e-10


@given(iwasawa_params(t_bound=20.0, u_bound=20.0))
@example((20.0, 20.0, 2.0))
@example((-20.0, -20.0, 5.0))
@example((20.0, -20.0, 0.0))
def test_iwasawa_kernel_round_trip_far_outside_the_domain(params):
    # the raw kernel, past the membership domain (Cartan radius about 9.1):
    # it has nothing to cancel, so it stays at round-off relative to max|g|
    t, u, theta = params
    g = groups.make_a(t) @ groups.make_n(u) @ groups.make_k(theta)
    c = groups.IwasawaCoords(*groups._iwasawa(g[1, 0], g[1, 1], g[0, 2], g[1, 2], g[2, 2]))
    assert np.isfinite(c.t) and np.isfinite(c.theta)
    assert np.max(np.abs(groups.recompose(c) - g)) / np.max(np.abs(g)) < 2e-13


def test_iwasawa_batched_matches_scalar():
    rng = np.random.default_rng(3)
    gs = groups.random_elements(rng, 5)
    batch = groups.iwasawa(gs)
    for i, g in enumerate(gs):
        single = groups.iwasawa(g)
        assert_allclose([batch.t[i], batch.u[i], batch.theta[i]],
                        [single.t, single.u, single.theta])


def test_iwasawa_rejects_non_member():
    with pytest.raises(DomainError):
        groups.iwasawa(np.zeros((3, 3)))


@pytest.mark.parametrize("t", [10.0, 12.0, 40.0])
def test_iwasawa_rejects_boost_beyond_precision(t):
    # a_t has form defect 0 relative to its size, but e^{-t} = cosh t - sinh t
    # carries a relative error of about e^{2t} eps, and rounds to 0 at t = 40
    g = groups.make_a(t)
    diag = groups.so21_check(g)
    assert diag.form_defect < groups.FORM_TOL
    assert not diag.accepted
    assert diag.boost_error >= groups.BOOST_TOL
    with pytest.raises(DomainError):
        groups.iwasawa(g)


def test_so21_check_accepts_boosts_the_absolute_test_accepted():
    # t = 7.5 passed the absolute form test; membership ends near t = 9.1
    for t in (7.5, 9.0):
        assert groups.so21_check(groups.make_a(t)).accepted
        assert groups.so21_check(groups.make_a(t) @ groups.make_k(1.0)).accepted


# ---------------------------------------------------------------------------
# Cartan decomposition
# ---------------------------------------------------------------------------

def test_cartan_radius_vanishes_on_rotations():
    for theta in np.linspace(0.0, 2 * np.pi, 9, endpoint=False):
        assert groups.cartan_radius(groups.make_k(theta)) < 1e-15


def test_cartan_radius_of_negative_boost():
    # oracle: conjugating a boost by the half-turn flips its sign, so
    # a_{-3} = k_pi a_3 k_pi lies on the same double orbit as a_3
    k_pi = groups.make_k(np.pi)
    assert_allclose(k_pi @ groups.make_a(3.0) @ k_pi, groups.make_a(-3.0), atol=1e-13)
    assert_allclose(groups.cartan_radius(groups.make_a(-3.0)), 3.0, atol=1e-12)


def test_cartan_recomposition_random():
    rng = np.random.default_rng(17)
    gs = _random_with_rotations(rng)
    c = groups.cartan(gs)
    assert np.all(c.t >= 0.0)
    assert np.all(c.t[-8:] == 0.0) and np.all(c.theta1[-8:] == 0.0)
    rebuilt = groups.make_k(c.theta1) @ groups.make_a(c.t) @ groups.make_k(c.theta2)
    assert np.max(np.abs(rebuilt - gs)) < 1e-9
    for i, g in enumerate(gs):
        single = groups.cartan(g)
        assert_allclose([single.theta1, single.t, single.theta2],
                        [c.theta1[i], c.t[i], c.theta2[i]], rtol=0, atol=1e-12)


def test_cartan_radius_bi_invariant():
    rng = np.random.default_rng(23)
    gs = groups.random_elements(rng, 300)
    k1 = groups.make_k(rng.uniform(0, 2 * np.pi, 300))
    k2 = groups.make_k(rng.uniform(0, 2 * np.pi, 300))
    defect = np.max(np.abs(groups.cartan_radius(k1 @ gs @ k2) - groups.cartan_radius(gs)))
    assert defect < 1e-10


def test_cartan_degenerates_to_rotation():
    c = groups.cartan(groups.make_k(2.5))
    assert c.theta1 == 0.0 and c.t == 0.0
    assert_allclose(c.theta2, 2.5)
    c = groups.cartan(groups.make_k(np.array([2.5, 5.0])))
    assert np.all(c.theta1 == 0.0) and np.all(c.t == 0.0)
    assert_allclose(c.theta2, [2.5, 5.0])


# ---------------------------------------------------------------------------
# Haar density
# ---------------------------------------------------------------------------

def test_haar_density_is_one():
    assert groups.haar_density(groups.IwasawaCoords(0.0, 0.0, 0.0)) == 1.0
    assert groups.haar_density(groups.IwasawaCoords(2.0, -1.0, 0.3)) == 1.0
    # array coordinates give an array of ones, shaped as t
    t = np.array([[0.0, 1.5, -2.0], [0.3, 0.4, 0.5]])
    density = groups.haar_density(groups.IwasawaCoords(t, np.zeros_like(t), np.ones_like(t)))
    assert isinstance(density, np.ndarray) and density.shape == t.shape
    assert np.all(density == 1.0)


def test_haar_invariance_oracle_moderate_grid():
    # the certification oracle itself; the acceptance suite runs the full grid
    from so21 import character

    res = character.haar_invariance_check(character.HaarGrid(nt=64, nu=64, ntheta=96))
    assert res.worst < 0.005, res.per_translation


def test_a_character_at_a_complex_exponent_is_the_complex_exp_bit_for_bit():
    t = np.linspace(-3.0, 3.0, 101)
    for gamma in (0.5 + 1j, 2j, 0.25 - 0.5j):
        assert groups._a_character(gamma, t).tobytes() == np.exp(gamma * t).tobytes()


def test_a_character_at_a_real_exponent_is_a_real_exp():
    t = np.linspace(-3.0, 3.0, 101)
    for gamma in (0.75, 0.5 + 0j, complex(1.5, -0.0), np.complex128(0.3)):
        value = groups._a_character(gamma, t)
        assert value.dtype == np.float64
        assert value.tobytes() == np.exp(complex(gamma).real * t).tobytes()


# ---------------------------------------------------------------------------
# rotation characters and node counts on K
# ---------------------------------------------------------------------------

def test_tau_trivial_character():
    for theta in np.linspace(0, 2 * np.pi, 7):
        assert groups.tau(0, theta) == 1.0


def test_tau_third_roots():
    assert abs(groups.tau(3, 2 * np.pi / 3) - 1.0) < 1e-14


@given(st.integers(-8, 8), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_tau_character_law(n, t1, t2):
    product = groups.tau(n, t1) * groups.tau(n, t2)
    assert abs(product - groups.tau(n, t1 + t2)) < 1e-12


@given(st.integers(-8, 8), st.floats(0, 2 * np.pi))
def test_tau_periodic(n, theta):
    assert abs(groups.tau(n, theta + 2 * np.pi) - groups.tau(n, theta)) < 1e-12


_G = groups.recompose(groups.IwasawaCoords(0.7, 0.3, 1.1))
_RHO_I = reps.SpectralParam.principal(1.0)
_WITNESS = equivariant.separation_witness(1, equivariant.BumpProfile(0.6, 0.3))

# rule on K: (its value at a node count, a non-integer count, an integer count)
_NODE_COUNT_CASES = {
    "matcoef": (lambda nodes: reps.matcoef(_RHO_I, _G, 1, 1, nodes=nodes), 130.9, 130),
    "act_principal": (lambda nodes: reps.act_principal(
        _RHO_I, _G, reps.KFourierVector.basis(4, 1), nodes=nodes).c, 40.5, 40),
    "phi": (lambda nodes: hyperbolic.phi(0.5 + 1j, 2.0 + 1.5j, nodes=nodes), 64.7, 64),
    "project_biequivariant": (lambda nodes: equivariant.project_biequivariant(
        _WITNESS, 1, nodes=nodes)(_G), 64.5, 64),
    "right_isotype_project": (lambda nodes: equivariant.right_isotype_project(
        _WITNESS, 1, nodes=nodes)(_G), 64.5, 64),
}


@pytest.mark.filterwarnings("ignore:top-mode energy")
@pytest.mark.parametrize("rule", sorted(_NODE_COUNT_CASES))
def test_node_counts_must_be_integers(rule):
    # an integer part taken of 130.9 would run 130 nodes without a word
    value, fractional, whole = _NODE_COUNT_CASES[rule]
    with pytest.raises(DomainError, match="integer count"):
        value(fractional)
    assert np.asarray(value(np.int64(whole))).tobytes() == np.asarray(value(whole)).tobytes()
