import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from so21 import groups, hyperbolic
from so21.errors import DomainError

from conftest import iwasawa_params


# ---------------------------------------------------------------------------
# half-plane action
# ---------------------------------------------------------------------------

def test_rotations_stabilize_i():
    for theta in np.linspace(0.0, 2 * np.pi, 11):
        assert abs(hyperbolic.act(groups.make_k(theta), 1j) - 1j) < 1e-14


def test_boost_scales_by_exp_t():
    # oracle: the boost a_{ln 4} lifts to diag(2, 1/2), whose Mobius action
    # multiplies by 4; computed here directly from the 2x2 formula
    lift = np.diag([2.0, 0.5])
    assert_allclose(groups.psi(lift), groups.make_a(np.log(4.0)), atol=1e-14)
    expected = hyperbolic.mobius(lift, 1j)
    assert_allclose(expected, 4j)
    assert abs(hyperbolic.act(groups.make_a(np.log(4.0)), 1j) - 4j) < 1e-12


def test_unipotent_translates():
    z = 0.3 + 1.7j
    for u in (-2.0, 0.5, 3.0):
        assert abs(hyperbolic.act(groups.make_n(u), z) - (z + u)) < 1e-12


@given(iwasawa_params(), iwasawa_params(),
       st.floats(-2, 2), st.floats(0.2, 4))
# |g1 g2| ~ 71 moves i to about 70 + 55i; the sides differed by 1.3e-10 when
# the Iwasawa kernel read t off the cancelling p3 - p1
@example((2.0, 2.0, 0.0), (2.0, 1.0, 0.0), 0.0, 1.0)
# |g1 g2| ~ 543, with form defect 1.04e-10: the product must pass membership
@example((2.0, 1.96875, 2.0), (2.0, 1.75, 0.0), 0.0, 1.0)
# the old kernel's angle cancelled here, to a gap of 4.6e-9 at |act| = 0.32
@example((-2.0, 2.0, 3.1967), (2.0, -2.0, 0.0875), 2.0, 0.2)
def test_action_law(p1, p2, x, y):
    g1 = groups.make_a(p1[0]) @ groups.make_n(p1[1]) @ groups.make_k(p1[2])
    g2 = groups.make_a(p2[0]) @ groups.make_n(p2[1]) @ groups.make_k(p2[2])
    z = complex(x, y)
    direct = hyperbolic.act(g1 @ g2, z)
    staged = hyperbolic.act(g1, hyperbolic.act(g2, z))
    # 200k random draws of this strategy reach 5.6e-14 relative
    assert abs(direct - staged) < 1e-12 * max(1.0, abs(direct))


def test_act_on_stack_matches_elementwise():
    gs = groups.make_a([0.3, 1.2]) @ groups.make_n([0.5, -0.7])
    z = 0.4 + 1.1j
    moved = hyperbolic.act(gs, z)
    assert moved.shape == (2,)
    for g, value in zip(gs, moved):
        assert abs(value - hyperbolic.act(g, z)) < 1e-14
    assert np.all(moved.imag > 0)


def test_act_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        hyperbolic.act(np.eye(3), 1.0 - 1j)


def test_act_rejects_non_member():
    with pytest.raises(DomainError):
        hyperbolic.act(np.diag([1.0, 1.0, -1.0]), 1j)


# ---------------------------------------------------------------------------
# chi and phi
# ---------------------------------------------------------------------------

def test_chi_at_base_point():
    for w in (0.3, 1j, 2.0 - 1j):
        assert abs(hyperbolic.chi(w, 1j) - 1.0) < 1e-15


def test_chi_square():
    assert_allclose(hyperbolic.chi(2.0, 0.7 + 2j), 4.0)


def test_chi_at_height_e():
    assert_allclose(hyperbolic.chi(0.5 + 1j, np.e * 1j), np.exp(0.5 + 1j))


@pytest.mark.parametrize("z", [2j, np.array([3.0 + 5.0j, 0.3 + 0.7j, -1.0 + 0.2j])],
                         ids=["point", "points"])
def test_chi_takes_an_array_of_exponents(z):
    # an array of exponents used to raise a bare TypeError
    w = np.array([[0.5, 1.0], [0.5 + 1j, -2.0 - 3j]])
    values = hyperbolic.chi(w, z)
    assert values.shape == w.shape + np.shape(z)
    for index, wk in np.ndenumerate(w):
        np.testing.assert_array_equal(values[index], hyperbolic.chi(wk, z))


def test_phi_at_base_point_is_one():
    for w in (0.3, 0.5 + 3j, 1.0):
        assert abs(hyperbolic.phi(w, 1j) - 1.0) < 1e-14


def test_phi_rotation_invariant():
    w = 0.5 + 2j
    z = 1.2 + 0.8j
    base = hyperbolic.phi(w, z)
    for theta in (0.7, 2.0, 4.5):
        moved = hyperbolic.act(groups.make_k(theta), z)
        assert abs(hyperbolic.phi(w, moved) - base) < 1e-10


def test_phi_functional_equation():
    # checked at doubled node count so quadrature error cannot explain agreement
    for w in (0.3, 0.5 + 2j):
        for z in (2j, 1 + 1.5j):
            gap = abs(hyperbolic.phi(w, z, nodes=1024) - hyperbolic.phi(1 - w, z, nodes=1024))
            assert gap < 1e-9


def test_phi_node_floor():
    with pytest.raises(DomainError):
        hyperbolic.phi(0.5, 1j, nodes=8)


@pytest.mark.parametrize("w", [np.nan, np.inf, complex(0.5, np.inf)])
def test_non_finite_exponent_is_a_domain_error(w):
    # each used to give a NaN (phi(nan, i) = nan+0j, eigencheck's rel_err nan
    # with a RuntimeWarning); alone or inside an array of finite exponents
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in (w, np.array([0.5, w, 0.5 + 1j])):
            with pytest.raises(DomainError, match="exponent is not finite"):
                hyperbolic.phi(exponent, 1j)
            with pytest.raises(DomainError, match="exponent is not finite"):
                hyperbolic.eigencheck(exponent, 1 + 1j)
            with pytest.raises(DomainError, match="exponent is not finite"):
                hyperbolic.chi(exponent, 1j)


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

def test_laplacian_of_chi2_analytic():
    # calculus: -y^2 d^2/dy^2 y^w = w(1-w) y^w, so at z = i the value is
    # 2 * (1 - 2) = -2
    value = hyperbolic.laplacian_fd(lambda z: hyperbolic.chi(2.0, z), 1j)
    assert abs(value - (-2.0)) < 1e-6


def test_laplacian_of_constant():
    value = hyperbolic.laplacian_fd(lambda z: np.ones_like(z), 0.5 + 1j)
    assert abs(value) < 1e-9


def _stencil_reference(f, z, h):
    # two 5-point stencils and one Richardson step in Python complex arithmetic
    def stencil(step):
        horiz = (f(z + step) + f(z - step) - 2.0 * f(z)) / step**2
        vert = (f(z + 1j * step) + f(z - 1j * step) - 2.0 * f(z)) / step**2
        return -(z.imag * z.imag) * (horiz + vert)

    return (4.0 * stencil(h / 2.0) - stencil(h)) / 3.0


@pytest.mark.parametrize("w", [0.3, 0.5 + 3j, 0.25 - 1j])
def test_laplacian_matches_scalar_stencil_reference(w):
    for z in (1j, -1 + 0.5j, 2 + 3j):
        reference = _stencil_reference(lambda p: complex(hyperbolic.phi(w, p)), z, 1e-3)
        assert hyperbolic.laplacian_fd(lambda p: hyperbolic.phi(w, p), z) == reference


def test_laplacian_stencil_guard():
    with pytest.raises(DomainError):
        hyperbolic.laplacian_fd(lambda z: 1.0, 0.1j, h=0.05)


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan")])
def test_laplacian_refuses_non_positive_step(h):
    with pytest.raises(DomainError, match="must be > 0"):
        hyperbolic.laplacian_fd(lambda z: np.ones_like(z), 1j, h=h)


def test_laplacian_on_phi_matches_eigenvalue():
    w = 0.5 + 3j
    z = 1 + 2j
    lhs = hyperbolic.laplacian_fd(lambda p: hyperbolic.phi(w, p), z, h=1e-3)
    rhs = w * (1 - w) * hyperbolic.phi(w, z)
    assert abs(lhs - rhs) / abs(rhs) < 1e-5


# ---------------------------------------------------------------------------
# eigenvalue identity
# ---------------------------------------------------------------------------

def test_eigencheck_at_exponent_one():
    # w = 1 sits at eigenvalue zero, so the residual is normalized by phi
    res = hyperbolic.eigencheck(1.0, 0.5 + 1.5j)
    assert abs(res.rhs) < 1e-14
    assert res.rel_err < 1e-6


def test_eigencheck_spectral_principal_point():
    # s = i: eigenvalue (1 - s^2)/4 = 1/2
    res = hyperbolic.eigencheck((1 + 1j) / 2, 1 + 2j)
    value = hyperbolic.phi((1 + 1j) / 2, 1 + 2j)
    assert abs(res.rhs - 0.5 * value) < 1e-12
    assert res.rel_err < 1e-5


def test_eigencheck_bottom_of_spectrum():
    res = hyperbolic.eigencheck(0.5, 2 + 1j)
    assert abs(res.rhs - 0.25 * hyperbolic.phi(0.5, 2 + 1j)) < 1e-12
    assert res.rel_err < 1e-5


@pytest.mark.parametrize("w", [0.3, 0.5, 1.0, 0.5 + 1j])
def test_eigencheck_grid_sample(w):
    for z in (complex(-1.0, 0.5), complex(0.0, 2.0), complex(2.0, 4.0)):
        assert hyperbolic.eigencheck(w, z).rel_err < 1e-4


@pytest.mark.parametrize("w", [0.5 + 1j, 0.25 - 1j])
def test_phi_and_eigencheck_broadcast_over_points(w):
    z = np.array([[1j, 0.5 + 2j, -1 + 0.7j], [2 + 3j, -0.3 + 1.5j, 4j]])
    values = hyperbolic.phi(w, z)
    res = hyperbolic.eigencheck(w, z)
    assert values.shape == res.lhs.shape == res.rhs.shape == res.rel_err.shape == z.shape
    for index, point in np.ndenumerate(z):
        assert values[index] == hyperbolic.phi(w, point)
        single = hyperbolic.eigencheck(w, point)
        assert (res.lhs[index], res.rhs[index], res.rel_err[index]) == \
            (single.lhs, single.rhs, single.rel_err)


# ---------------------------------------------------------------------------
# arrays of exponents
# ---------------------------------------------------------------------------

EXPONENTS = {
    "real": np.array([0.3, 0.5, 1.0, 1.5, -0.25, 2.0]),
    "complex": np.array([0.3, 0.5, 1.0, 0.5 + 0.5j, 0.5 + 1j, 0.25 - 3j]),
}
POINTS = {
    "scalar": 1.0 + 2.0j,
    "line": np.linspace(-2.0, 2.0, 26) + 1j * np.linspace(0.5, 4.0, 26),
    "block": np.array([[1j, 0.5 + 2j, -1 + 0.7j], [2 + 3j, -0.3 + 1.5j, 4j]]),
}


def _exponent_arrays():
    for kind, ws in EXPONENTS.items():
        yield pytest.param(ws, id=f"{kind}-6")
        yield pytest.param(ws[:, None], id=f"{kind}-6x1")


@pytest.mark.parametrize("points", POINTS.values(), ids=POINTS.keys())
@pytest.mark.parametrize("ws", _exponent_arrays())
def test_phi_over_exponents_is_bit_identical_to_one_exponent_at_a_time(ws, points):
    values = hyperbolic.phi(ws, points)
    assert values.shape == ws.shape + np.shape(points)
    for index, w in np.ndenumerate(ws):
        single = np.asarray(hyperbolic.phi(w, points))
        assert values[index].tobytes() == single.tobytes()


@pytest.mark.parametrize("points", POINTS.values(), ids=POINTS.keys())
@pytest.mark.parametrize("ws", _exponent_arrays())
def test_eigencheck_over_exponents_is_bit_identical_to_one_exponent_at_a_time(ws, points):
    res = hyperbolic.eigencheck(ws, points)
    fields = ("lhs", "rhs", "rel_err", "value")
    for name in fields:
        assert getattr(res, name).shape == ws.shape + np.shape(points)
    for index, w in np.ndenumerate(ws):
        single = hyperbolic.eigencheck(w, points)
        for name in fields:
            assert getattr(res, name)[index].tobytes() == \
                np.asarray(getattr(single, name)).tobytes(), name


@pytest.mark.parametrize("points", POINTS.values(), ids=POINTS.keys())
@pytest.mark.parametrize("w", [0.3, 0.5 + 3j, EXPONENTS["complex"]])
def test_eigencheck_value_is_phi(w, points):
    # the stencil centre z + 0.0 is bit for bit the point itself
    value = hyperbolic.eigencheck(w, points).value
    assert np.asarray(value).tobytes() == np.asarray(hyperbolic.phi(w, points)).tobytes()


def test_scalar_exponent_and_point_give_numpy_scalars():
    assert isinstance(hyperbolic.phi(0.5 + 1j, 1 + 2j), np.complex128)
    res = hyperbolic.eigencheck(0.5 + 1j, 1 + 2j)
    for field in (res.lhs, res.rhs, res.value):
        assert isinstance(field, np.complex128)
    assert isinstance(res.rel_err, np.float64)


def test_rotation_orbit_is_the_rotation_formula_bit_for_bit():
    # mobius of the SL(2,R) rotations by theta/2, numerator and denominator
    # built in place, against the orbit written out as one expression
    z = np.array([1.0 + 2.0j, -0.3 + 0.05j, 4.0 + 9.0j])[:, None]
    half = groups._uniform_angles(64) / 2.0
    c, s = np.cos(half), np.sin(half)
    expected = (c * z - s) / (s * z + c)
    assert hyperbolic._rotation_orbit(z, 64).tobytes() == expected.tobytes()


def _phi_reference(w, z, nodes):
    # the rotation average of y^w with numpy's complex exp, on the orbit
    # written out as in the test above
    half = 2.0 * np.pi * np.arange(nodes) / nodes / 2.0
    c, s = np.cos(half), np.sin(half)
    orbit = (c * z[..., None] - s) / (s * z[..., None] + c)
    return np.mean(np.exp(complex(w) * np.log(orbit.imag)), axis=-1)


@pytest.mark.parametrize("w", [0.3, 0.5, 1.0, 0.75, -1.5])
def test_phi_at_a_real_exponent_matches_the_complex_exp_within_4_eps(w):
    z = np.linspace(-2.0, 2.0, 13) + 1j * np.linspace(0.5, 4.0, 13)
    value = hyperbolic.phi(w, z)
    reference = _phi_reference(w, z, hyperbolic.DEFAULT_PHI_NODES)
    assert np.all(np.abs(value - reference) <= 4 * np.finfo(float).eps * np.abs(reference))
    assert not np.any(value.imag)


def test_phi_at_a_complex_exponent_is_the_complex_exp_bit_for_bit():
    z = np.linspace(-2.0, 2.0, 13) + 1j * np.linspace(0.5, 4.0, 13)
    for w in (0.5 + 1j, 0.25 - 3j):
        reference = _phi_reference(w, z, hyperbolic.DEFAULT_PHI_NODES)
        assert hyperbolic.phi(w, z).tobytes() == reference.tobytes()


def test_phi_peak_memory_is_about_two_orbits():
    # memory guard: the orbit's numerator and denominator are the only two
    # orbit-sized arrays alive at phi's peak (2.15 orbits on this stencil-sized
    # batch; 3.08 with a third temporary for the quotient)
    z = np.linspace(-2.0, 2.0, 26)[:, None] + 1j * np.linspace(0.5, 4.0, 9)
    orbit_bytes = z.size * hyperbolic.DEFAULT_PHI_NODES * 16
    hyperbolic.phi(0.5 + 3j, z)
    tracemalloc.start()
    try:
        hyperbolic.phi(0.5 + 3j, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * orbit_bytes


def test_eigencheck_calls_phi_once(monkeypatch):
    # cost guard: phi runs on the stencil alone, and phi_w(z) is its centre
    pure = hyperbolic.phi
    shapes = []

    def counted(w, z, nodes=None):
        shapes.append(np.shape(z))
        return pure(w, z, nodes=nodes)

    monkeypatch.setattr(hyperbolic, "phi", counted)
    assert hyperbolic.eigencheck(0.5 + 1j, 1 + 2j).rel_err < 1e-5
    assert shapes == [(9,)]
