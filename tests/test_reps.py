import warnings

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from so21 import groups, hyperbolic, reps
from so21.errors import DomainError, TruncationWarning

from conftest import iwasawa_params


# ---------------------------------------------------------------------------
# spectral parameters
# ---------------------------------------------------------------------------

def test_param_constructors_validate():
    with pytest.raises(DomainError):
        reps.SpectralParam.principal(-1.0)
    with pytest.raises(DomainError):
        reps.SpectralParam.complementary(1.5)
    with pytest.raises(DomainError):
        reps.SpectralParam.discrete(3, 1)
    with pytest.raises(DomainError):
        reps.SpectralParam.discrete(2, 0)


def test_param_classification():
    assert reps.SpectralParam.from_s(2j).kind == "principal"
    assert reps.SpectralParam.from_s(0.5).kind == "complementary"
    assert reps.SpectralParam.from_s(3.0).kind == "induced_point"
    assert reps.SpectralParam.from_s(1 + 1j).kind == "induced_point"


def test_param_parse_labels():
    assert reps.SpectralParam.parse("trivial").kind == "trivial"
    p = reps.SpectralParam.parse("D+4")
    assert (p.kind, p.m, p.sign) == ("discrete", 4, 1)
    p = reps.SpectralParam.parse("D-2")
    assert (p.kind, p.m, p.sign) == ("discrete", 2, -1)
    assert reps.SpectralParam.parse("rho:i").s == 1j
    assert reps.SpectralParam.parse("rho:0.5").kind == "complementary"
    assert reps.SpectralParam.parse("rho").kind == "principal"
    with pytest.raises(DomainError):
        reps.SpectralParam.parse("Q+2")


def test_parse_complex_forms():
    assert reps.parse_complex("i") == 1j
    assert reps.parse_complex("2i") == 2j
    assert reps.parse_complex("0.5+2i") == 0.5 + 2j
    assert reps.parse_complex("1-1i") == 1 - 1j
    assert reps.parse_complex("-0.25") == -0.25
    with pytest.raises(DomainError):
        reps.parse_complex("zz")


@pytest.mark.parametrize("text, value", [
    ("i", 1j), ("+i", 1j), ("-i", -1j), ("j", 1j), ("-j", -1j), ("I", 1j), ("2I", 2j),
    ("2i", 2j), ("-2i", -2j), ("2j", 2j), ("0.5+i", 0.5 + 1j), ("1-i", 1 - 1j),
    ("1-1i", 1 - 1j), ("0.5+2i", 0.5 + 2j), ("0.5+3i", 0.5 + 3j), ("0.5+1i", 0.5 + 1j),
    ("-0.5+3i", -0.5 + 3j), ("-0.5+2i", -0.5 + 2j), ("1.5-3i", 1.5 - 3j), (" 0.5 + 2i ", 0.5 + 2j),
    ("1", 1), ("0.5", 0.5), ("0.3", 0.3), ("0.7", 0.7), ("-0.25", -0.25), ("1e-3i", 1e-3j),
])
def test_parse_complex_values(text, value):
    # every literal the CLI tests and the output digest pass, and the bare
    # forms i, +i, -i, 0.5+i and 1-i
    parsed = reps.parse_complex(text)
    assert type(parsed) is complex and parsed == value


@pytest.mark.parametrize("text", ["1e+i", "1E-i", "2e+i", "", "  ", "1i+", "ii"])
def test_parse_complex_refuses(text):
    # an exponent before a bare i (1e+i) was read as 10i
    with pytest.raises(DomainError):
        reps.parse_complex(text)


@pytest.mark.parametrize("text", ["nan", "NaN", "-nan", "nan+1i", "1+nani", "1e400", "-1e400i",
                                  "0.5+1e309i"])
def test_parse_complex_refuses_non_finite(text):
    # complex() reads nan and overflows 1e400 to inf; a non-finite spectral
    # parameter or exponent used to reach the kernels and print NaN
    with pytest.raises(DomainError, match="not finite"):
        reps.parse_complex(text)


@pytest.mark.parametrize("make", [
    lambda: reps.SpectralParam.principal(float("inf")),
    lambda: reps.SpectralParam.principal(float("nan")),
    lambda: reps.SpectralParam.induced_point(complex(float("nan"), 0.0)),
    lambda: reps.SpectralParam.induced_point(complex(0.5, float("-inf"))),
    lambda: reps.SpectralParam.from_s(complex(float("inf"), 0.0)),
    lambda: reps.SpectralParam("principal", s=complex(0.0, float("nan"))),
], ids=["principal_inf", "principal_nan", "induced_nan", "induced_minus_inf", "from_s_inf",
        "direct_nan"])
def test_spectral_param_refuses_non_finite(make):
    with pytest.raises(DomainError, match="not finite"):
        make()


def test_discrete_ambient_parameter():
    assert reps.SpectralParam.discrete(4, 1).induced_s == 3.0
    with pytest.raises(DomainError):
        _ = reps.SpectralParam.trivial().induced_s


# ---------------------------------------------------------------------------
# Fourier vectors
# ---------------------------------------------------------------------------

def test_basis_vector_layout():
    v = reps.KFourierVector.basis(4, -3)
    assert v.coeff(-3) == 1.0
    assert v.norm() == 1.0
    with pytest.raises(DomainError):
        reps.KFourierVector.basis(4, 5)


def test_smooth_vector_is_unit(rng):
    v = reps.KFourierVector.smooth_random(32, rng)
    assert abs(v.norm() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# cocycle
# ---------------------------------------------------------------------------

def test_cocycle_identity():
    t, theta_out = reps.cocycle(1.2, np.eye(3))
    assert abs(t) < 1e-15
    assert abs(theta_out - 1.2) < 1e-12


def test_cocycle_boost_at_zero_angle():
    t, theta_out = reps.cocycle(0.0, groups.make_a(0.8))
    assert abs(t - 0.8) < 1e-12
    assert abs(theta_out) < 1e-12


@given(st.floats(0, 2 * np.pi, exclude_max=True), st.floats(0, 2 * np.pi, exclude_max=True))
def test_cocycle_rotation_adds_angles(theta, alpha):
    t, theta_out = reps.cocycle(theta, groups.make_k(alpha))
    assert abs(t) < 1e-12
    gap = (theta_out - (theta + alpha)) % (2 * np.pi)
    assert min(gap, 2 * np.pi - gap) < 1e-10


@given(iwasawa_params(), st.floats(0.0, 2.0 * np.pi, exclude_max=True))
@example((2.0, 1.875, 0.0), 2.0)
def test_cocycle_recomposes_rotated_element(params, theta):
    # oracle independent of the shared Iwasawa kernel: k_theta g rebuilt
    # from the cocycle's (t, theta') and u read off its (1, 2) entry
    g = groups.recompose(groups.IwasawaCoords(*params))
    h = groups.make_k(theta) @ g
    t, theta_out = reps.cocycle(theta, g)
    rebuilt = groups.recompose(groups.IwasawaCoords(t, h[1, 2], theta_out))
    assert np.max(np.abs(rebuilt - h)) / np.max(np.abs(h)) < 1e-13


@pytest.mark.parametrize("t", [12.0, 40.0])
def test_cocycle_and_matcoef_reject_boost_beyond_precision(t):
    # a_t lies past the stated domain, Cartan radius about 9.1 (see
    # so21_check): the Iwasawa kernel reads its t to round-off, but matcoef's
    # fixed node count is far from converged there; membership rejects it
    g = groups.make_a(t)
    with pytest.raises(DomainError):
        reps.cocycle(0.0, g)
    with pytest.raises(DomainError):
        reps.matcoef(reps.SpectralParam.principal(1.0), g, 0, 0)


def test_cocycle_matches_iwasawa():
    g = groups.make_a(0.5) @ groups.make_n(1.0) @ groups.make_k(2.0)
    theta = 0.9
    c = groups.iwasawa(groups.make_k(theta) @ g)
    t, theta_out = reps.cocycle(theta, g)
    assert abs(t - c.t) < 1e-12
    assert abs(theta_out - c.theta) < 1e-12


# ---------------------------------------------------------------------------
# the induced action
# ---------------------------------------------------------------------------

def test_act_identity_fixes_basis():
    p = reps.SpectralParam.principal(1.0)
    for n in (-3, 0, 2):
        v = reps.KFourierVector.basis(8, n)
        w = reps.act_principal(p, np.eye(3), v)
        assert_allclose(w.c, v.c, atol=1e-13)


def test_act_rotation_is_diagonal():
    p = reps.SpectralParam.principal(2.0)
    theta = 1.1
    for n in (-2, 1, 5):
        v = reps.KFourierVector.basis(8, n)
        w = reps.act_principal(p, groups.make_k(theta), v)
        assert abs(w.coeff(n) - np.exp(1j * n * theta)) < 1e-12
        off = w.c.copy()
        off[n + w.N] = 0.0
        assert np.sum(np.abs(off) ** 2) < 1e-24


def test_act_requires_induced_kind():
    v = reps.KFourierVector.basis(8, 0)
    with pytest.raises(DomainError):
        reps.act_principal(reps.SpectralParam.trivial(), np.eye(3), v)


def test_act_node_floor():
    v = reps.KFourierVector.basis(8, 0)
    with pytest.raises(DomainError):
        reps.act_principal(reps.SpectralParam.principal(1.0), np.eye(3), v, nodes=20)


def test_unitarity_for_imaginary_parameter(rng):
    v = reps.KFourierVector.smooth_random(256, rng)
    for s in (1j, 2j):
        p = reps.SpectralParam.from_s(s)
        for t in (0.7, 2.0):
            w = reps.act_principal(p, groups.make_a(t), v)
            assert abs(w.norm() - 1.0) < 1e-7


def test_unitarity_negative_controls(rng):
    v = reps.KFourierVector.smooth_random(256, rng)
    g = groups.make_a(2.0)
    # a non-unitary spectral point
    bad = reps.SpectralParam.induced_point(1 + 1j)
    assert abs(reps.act_principal(bad, g, v).norm() - 1.0) > 0.1
    # the unshifted exponent 1 + s at the unitary point s = i, whose exponent
    # is the unitary one of the point 1 + 2s
    unshifted = reps.SpectralParam.induced_point(1 + 2j)
    assert abs(reps.act_principal(unshifted, g, v).norm() - 1.0) > 0.1


def test_truncation_warning_on_rough_vector():
    N = 12
    ns = np.arange(-N, N + 1)
    rough = reps.KFourierVector(N, 1.0 / (1.0 + np.abs(ns)))
    with pytest.warns(TruncationWarning):
        reps.act_principal(reps.SpectralParam.principal(1.0), groups.make_a(1.5), rough)


def test_top_mode_energy_counts_the_single_mode_once():
    # at N = 0 the modes -N and N are one entry, so the whole vector is top
    # mode: fraction 1, not 2
    p = reps.SpectralParam.principal(1.0)
    with pytest.warns(TruncationWarning, match=r"fraction 1\.00e\+00"):
        reps.act_principal(p, groups.make_a(0.5), reps.KFourierVector.basis(0, 0))


def test_truncation_warning_names_the_callers_line():
    # the warning points at this file, not into reps.py
    N = 12
    ns = np.arange(-N, N + 1)
    rough = reps.KFourierVector(N, 1.0 / (1.0 + np.abs(ns)))
    g = groups.make_a(1.5)
    p = reps.SpectralParam.principal(1.0)
    with pytest.warns(TruncationWarning) as record:
        reps.act_principal(p, g, rough)
    assert record[0].filename == __file__


def _dense_rep_matrix(gamma, g, N, nodes):
    # reference for the induced action: P diag(mult) C, with the DFT matrix
    # P and the transported modes C written out as dense exponentials
    count = 4 * N + 4 if nodes is None else nodes
    (mult,), theta_out = reps._induced_nodes((gamma,), g[None], count)
    ns = np.arange(-N, N + 1)
    thetas = 2.0 * np.pi * np.arange(count) / count
    C = np.exp(1j * np.outer(theta_out[0], ns))
    P = np.exp(-1j * np.outer(ns, thetas)) / count
    return P @ (mult[0][:, None] * C)


def _rel_err(value, ref):
    return np.max(np.abs(value - ref)) / np.max(np.abs(ref))


# the default node count 4N + 4 and two explicit counts that are not powers of two
DENSE_CASES = [(N, nodes) for N in (4, 16, 128, 256) for nodes in (None, 4 * N + 5, 8 * N + 9)]


@pytest.mark.parametrize("N, nodes", DENSE_CASES)
def test_induced_action_matches_dense_dft_reference(N, nodes, rng):
    # a permuted coefficient order such as c[::-1] keeps every norm, so the
    # unitarity checks cannot see it; the dense reference can
    g = groups.make_a(0.7) @ groups.make_n(0.3) @ groups.make_k(1.1)
    p = reps.SpectralParam.principal(1.0)
    v = reps.KFourierVector.smooth_random(N, rng)
    unitary = _dense_rep_matrix((1.0 + p.s) / 2.0, g, N, nodes)
    if nodes is None:
        # rep_matrix runs on the default node count only
        assert _rel_err(reps.rep_matrix(p, g, N), unitary) < 1e-13
    with warnings.catch_warnings():
        # the smooth vector reaches the top modes at N = 4
        warnings.simplefilter("ignore", TruncationWarning)
        acted = reps.act_principal(p, g, v, nodes=nodes)
        # the unshifted exponent 1 + i, the unitary one of the point 1 + 2i
        unshifted = reps.act_principal(reps.SpectralParam.induced_point(1 + 2j), g, v,
                                       nodes=nodes)
    assert _rel_err(acted.c, unitary @ v.c) < 1e-13
    assert _rel_err(unshifted.c, _dense_rep_matrix(1.0 + 1j, g, N, nodes) @ v.c) < 1e-13


# one block, and lengths one below and one above a square
@pytest.mark.parametrize("length", [1, 3, 5, 15, 17, 257, 513])
def test_blocked_series_matches_direct_sum(length):
    rng = np.random.default_rng(length)
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    thetas = rng.uniform(-np.pi, np.pi, 97)
    direct = np.exp(1j * np.outer(thetas, np.arange(length))) @ c
    assert _rel_err(reps._blocked_series(c, np.exp(1j * thetas)), direct) < 1e-13


def test_induced_multiplier_is_real_for_a_real_exponent():
    g = groups.make_a(0.7)[None]
    for p in (reps.SpectralParam.complementary(0.5), reps.SpectralParam.discrete(4),
              reps.SpectralParam.induced_point(1.5)):
        (mult,), _ = reps._induced_nodes((p.exponent,), g, 20)
        assert mult.dtype == np.float64
    (mult,), _ = reps._induced_nodes((reps.SpectralParam.principal(1.0).exponent,), g, 20)
    assert mult.dtype == np.complex128


# ---------------------------------------------------------------------------
# matrix coefficients
# ---------------------------------------------------------------------------

def test_matcoef_identity_is_kronecker():
    p = reps.SpectralParam.principal(1.0)
    for n in (-2, 0, 3):
        for m in (-2, 0, 3):
            value = reps.matcoef(p, np.eye(3), n, m)
            assert abs(value - (1.0 if n == m else 0.0)) < 1e-14


def test_matcoef_bi_equivariance_phase():
    p = reps.SpectralParam.principal(1.0)
    g = groups.make_a(0.9) @ groups.make_n(0.3)
    n = 2
    base = reps.matcoef(p, g, n, n)
    for theta, alpha in ((0.5, 1.7), (2.9, 0.2)):
        moved = reps.matcoef(p, groups.make_k(theta) @ g @ groups.make_k(alpha), n, n)
        assert abs(moved - np.exp(1j * n * (theta + alpha)) * base) < 1e-10


def test_matcoef_agrees_with_spherical_function():
    for s in (1j, 0.5):
        p = reps.SpectralParam.from_s(s)
        for t in np.linspace(0.0, 2.0, 9):
            mc = reps.matcoef(p, groups.make_a(t), 0, 0, nodes=256)
            ph = hyperbolic.phi((1 + complex(s)) / 2.0, np.exp(t) * 1j)
            assert abs(mc - ph) < 1e-7


def test_matcoef_on_stack_matches_per_element_calls():
    # one batched call agrees with the single calls to round-off, not bit
    # for bit: numpy's complex product takes another loop on a stack
    rng = np.random.default_rng(91)
    gs = groups.random_elements(rng, 6).reshape(2, 3, 3, 3)
    for s in (1j, 0.5):
        p = reps.SpectralParam.from_s(s)
        for n, m in ((0, 0), (1, 1), (-2, 3)):
            stacked = reps.matcoef(p, gs, n, m)
            assert stacked.shape == (2, 3)
            single = np.array([[reps.matcoef(p, g, n, m) for g in row] for row in gs])
            assert np.max(np.abs(stacked - single)) < 1e-15
    value = reps.matcoef(reps.SpectralParam.principal(1.0), gs[0, 0], 1, 1)
    assert np.ndim(value) == 0 and isinstance(value, complex)


def test_matcoef_node_floor_check():
    p = reps.SpectralParam.principal(1.0)
    # the node floor 4 max(|n|, |m|) + 4 of the induced action
    with pytest.raises(DomainError):
        reps.matcoef(p, np.eye(3), 5, 0, nodes=20)


def test_matcoef_batch_default_nodes():
    # None takes 128 nodes, or the floor 4 max(|n|, |m|) + 4 when larger
    gs = groups.make_a(np.array([0.3, 1.2]))
    for n, m, count in ((2, 2, 128), (31, -3, 128), (0, 40, 164)):
        default = reps._matcoef_batch((0.5 + 0.5j,), gs, n, m, None)
        explicit = reps._matcoef_batch((0.5 + 0.5j,), gs, n, m, count)
        assert default.tobytes() == explicit.tobytes()


_EXPONENTS = (0.5 + 0.5j, 0.75, 0.5 + 1j, 1.5, 0.5 + 0.5j)


def test_matcoef_batch_over_exponents_is_bit_identical_to_one_exponent_at_a_time():
    gs = groups.random_elements(np.random.default_rng(17), 5)
    for n, m in ((0, 0), (2, -1)):
        batch = reps._matcoef_batch(_EXPONENTS, gs, n, m, None)
        for row, gamma in zip(batch, _EXPONENTS):
            assert row.tobytes() == reps._matcoef_batch((gamma,), gs, n, m, None)[0].tobytes()


def test_matcoef_batch_at_a_complex_exponent_is_the_complex_formula_bit_for_bit():
    gs = groups.random_elements(np.random.default_rng(18), 5)
    gamma, n, m = 0.5 + 1.5j, 2, -1
    t, theta_out = reps._cocycle_batch(groups._uniform_angles(128), gs)
    mult = np.exp(gamma * t)
    modes = np.exp(1j * n * theta_out)
    phases = np.exp(-1j * m * groups._uniform_angles(128))
    expected = (mult * modes) @ phases / 128
    assert reps._matcoef_batch((gamma,), gs, n, m, None)[0].tobytes() == expected.tobytes()


def test_rep_matrix_identity():
    p = reps.SpectralParam.principal(1.5)
    rep = reps.rep_matrix(p, np.eye(3), N=10)
    assert np.max(np.abs(rep - np.eye(21))) < 1e-12


def test_rep_matrix_matches_action_and_matcoef(rng):
    # the matrix, the action and the single coefficient share one kernel,
    # here on the matrix's 4N + 4 nodes
    N = 12
    nodes = 4 * N + 4
    g = groups.make_a(0.4) @ groups.make_n(-0.3) @ groups.make_k(2.2)
    v = reps.KFourierVector.smooth_random(N, rng, decay=1.0)
    for p in (reps.SpectralParam.principal(1.0), reps.SpectralParam.complementary(0.3)):
        rep = reps.rep_matrix(p, g, N)
        acted = reps.act_principal(p, g, v, nodes=nodes)
        assert np.max(np.abs(rep @ v.c - acted.c)) < 1e-12
        for n, m in ((0, 0), (3, -2), (-N, N)):
            coef = reps.matcoef(p, g, n, m, nodes=nodes)
            assert abs(rep[m + N, n + N] - coef) < 1e-12


def test_rep_matrix_homomorphism_central_block():
    # truncation-aware: small elements keep the intermediate mass inside the
    # basis, and the comparison excludes a guard band of 4 modes
    rng = np.random.default_rng(77)
    p = reps.SpectralParam.principal(1.0)
    N = 16
    sl = slice(4, 2 * N + 1 - 4)
    for _ in range(5):
        t1, u1, t2, u2 = rng.uniform(-0.03, 0.03, 4)
        a1, a2 = rng.uniform(0, 2 * np.pi, 2)
        g1 = groups.make_a(t1) @ groups.make_n(u1) @ groups.make_k(a1)
        g2 = groups.make_a(t2) @ groups.make_n(u2) @ groups.make_k(a2)
        product = reps.rep_matrix(p, g1 @ g2, N)
        staged = reps.rep_matrix(p, g1, N) @ reps.rep_matrix(p, g2, N)
        assert np.max(np.abs((product - staged)[sl, sl])) < 1e-6


# ---------------------------------------------------------------------------
# K-types
# ---------------------------------------------------------------------------

def test_k_types_trivial():
    types = reps.k_types(reps.SpectralParam.trivial())
    assert types.contains(0)
    assert not types.contains(1)
    assert types.description == "{0}"


def test_k_types_principal_all():
    types = reps.k_types(reps.SpectralParam.principal(1.0))
    assert all(types.contains(n) for n in range(-10, 11))


def test_k_types_discrete_ladders():
    plus = reps.k_types(reps.SpectralParam.discrete(4, 1))
    assert not plus.contains(1)
    assert plus.contains(2) and plus.contains(9)
    minus = reps.k_types(reps.SpectralParam.discrete(2, -1))
    assert minus.contains(-1) and minus.contains(-7)
    assert not minus.contains(0)


def test_tau_spherical_families():
    at_zero = {f.label for f in reps.tau_spherical_set(0)}
    assert at_zero == {"trivial", "rho_s (principal and complementary)"}
    at_one = {f.label for f in reps.tau_spherical_set(1)}
    assert at_one == {"D+2", "rho_s (principal and complementary)"}
    at_minus_one = {f.label for f in reps.tau_spherical_set(-1)}
    assert at_minus_one == {"D-2", "rho_s (principal and complementary)"}
    at_minus_three = {f.label for f in reps.tau_spherical_set(-3)}
    assert {"D-2", "D-4", "D-6"} <= at_minus_three


def test_tau_spherical_consistent_with_k_types():
    for n in range(-5, 6):
        for family in reps.tau_spherical_set(n):
            if family.kind == "trivial":
                assert reps.k_types(reps.SpectralParam.trivial()).contains(n)
            elif family.kind == "discrete":
                p = reps.SpectralParam.discrete(family.m, family.sign)
                assert reps.k_types(p).contains(n)
            else:
                assert reps.k_types(reps.SpectralParam.principal(1.0)).contains(n)


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------

def test_ladder_leakage_identity_exact():
    # zero up to the roundoff of the discrete Fourier projection
    assert reps.discrete_ladder_leakage(2, 1, np.eye(3), 16) < 1e-20


def test_ladder_leakage_boost():
    leak = reps.discrete_ladder_leakage(2, 1, groups.make_a(1.0), 24)
    assert leak < 1e-6


def test_ladder_leakage_mirrored():
    leak = reps.discrete_ladder_leakage(2, -1, groups.make_a(1.0), 24)
    assert leak < 1e-6


def test_ladder_leakage_generic_element_and_growth():
    g = groups.make_a(0.8) @ groups.make_n(0.4) @ groups.make_k(1.1)
    leaks = [reps.discrete_ladder_leakage(2, 1, g, N) for N in (16, 24, 32)]
    assert all(leak < 1e-6 for leak in leaks)
    assert leaks[1] <= leaks[0] + 1e-9
    assert leaks[2] <= leaks[1] + 1e-9


def test_ladder_higher_weight():
    leak = reps.discrete_ladder_leakage(4, 1, groups.make_a(0.7), 24)
    assert leak < 1e-6


def test_ladder_validates_truncation():
    with pytest.raises(DomainError):
        reps.discrete_ladder_leakage(2, 1, np.eye(3), 6)



_STACK = np.stack([groups.make_a(0.4), groups.make_n(0.3)])
_RHO_I = reps.SpectralParam.principal(1.0)
_SINGLE_ELEMENT_ENTRIES = {
    "cocycle": lambda g: reps.cocycle(0.3, g),
    "rep_matrix": lambda g: reps.rep_matrix(_RHO_I, g, 4),
    "act_principal": lambda g: reps.act_principal(_RHO_I, g, reps.KFourierVector.basis(4, 0)),
    "discrete_ladder_leakage": lambda g: reps.discrete_ladder_leakage(2, 1, g, 16),
}


@pytest.mark.parametrize("entry", list(_SINGLE_ELEMENT_ENTRIES))
def test_single_element_entries_refuse_stacks(entry):
    # a (k, 3, 3) stack is a domain error naming the entry, raised before
    # any arithmetic runs on it, so no RuntimeWarning escapes either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{entry} input must be a single 3x3 element"):
            _SINGLE_ELEMENT_ENTRIES[entry](_STACK)
