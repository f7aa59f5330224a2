import tracemalloc

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st
from so21 import character, equivariant, groups, reps
from so21.errors import DomainError


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_tau_trivial_character():
    for theta in np.linspace(0, 2 * np.pi, 7):
        assert equivariant.tau(0, theta) == 1.0


def test_tau_third_roots():
    assert abs(equivariant.tau(3, 2 * np.pi / 3) - 1.0) < 1e-14


@given(st.integers(-8, 8), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_tau_character_law(n, t1, t2):
    product = equivariant.tau(n, t1) * equivariant.tau(n, t2)
    assert abs(product - equivariant.tau(n, t1 + t2)) < 1e-12


@given(st.integers(-8, 8), st.floats(0, 2 * np.pi))
def test_tau_periodic(n, theta):
    assert abs(equivariant.tau(n, theta + 2 * np.pi) - equivariant.tau(n, theta)) < 1e-12


# ---------------------------------------------------------------------------
# bump profiles
# ---------------------------------------------------------------------------

def test_bump_profile_support():
    profile = equivariant.BumpProfile(0.8, 0.2)
    assert profile(0.8) == pytest.approx(np.exp(-1.0))
    assert profile(0.59) == 0.0
    assert profile(1.01) == 0.0
    assert profile.support == (0.6000000000000001, 1.0)


def test_bump_profile_validation():
    with pytest.raises(DomainError):
        equivariant.BumpProfile(0.5, 0.0)
    with pytest.raises(DomainError):
        equivariant.BumpProfile(-0.1, 0.2)
    # a non-finite band would make the radial kernel's band test admit no
    # node (nan) or every node with b = e^{-1} (infinite width)
    for center, width in [(np.nan, 0.3), (np.inf, 0.3), (0.6, np.nan), (0.6, np.inf)]:
        with pytest.raises(DomainError, match="finite"):
            equivariant.BumpProfile(center, width)


# ---------------------------------------------------------------------------
# separation witness
# ---------------------------------------------------------------------------

def test_witness_separates_orbits():
    t0, delta = 0.8, 0.2
    witness = equivariant.separation_witness(1, equivariant.BumpProfile(t0, delta))
    inside = complex(witness(groups.make_a(t0)))
    outside = complex(witness(groups.make_a(t0 + 3 * delta)))
    assert inside.real == pytest.approx(np.exp(-1.0))
    assert outside == 0.0


def test_witness_vanishes_on_rotations():
    witness = equivariant.separation_witness(2, equivariant.BumpProfile(0.8, 0.2))
    for theta in np.linspace(0, 2 * np.pi, 5):
        assert complex(witness(groups.make_k(theta))) == 0.0


def test_witness_phase_law():
    rng = np.random.default_rng(19)
    witness = equivariant.separation_witness(3, equivariant.BumpProfile(0.6, 0.3))
    for _ in range(50):
        g = groups.random_elements(rng, 1, t_bound=0.8, u_bound=0.4)[0]
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        lhs = witness(groups.make_k(t1) @ g @ groups.make_k(t2))
        rhs = np.exp(3j * (t1 + t2)) * witness(g)
        assert abs(lhs - rhs) < 1e-10


def test_witness_modulus_orbit_invariant():
    rng = np.random.default_rng(29)
    witness = equivariant.separation_witness(1, equivariant.BumpProfile(0.6, 0.3))
    gs = groups.random_elements(rng, 100, t_bound=0.8, u_bound=0.4)
    k1 = groups.make_k(rng.uniform(0, 2 * np.pi, 100))
    k2 = groups.make_k(rng.uniform(0, 2 * np.pi, 100))
    defect = np.max(np.abs(np.abs(witness(k1 @ gs @ k2)) - np.abs(witness(gs))))
    assert defect < 1e-10


def test_witness_satisfies_equivariance_contract():
    # the declared-type invariant of the wrapper, on random probes
    rng = np.random.default_rng(59)
    fn = equivariant.separation_witness(-2, equivariant.BumpProfile(0.5, 0.25))
    assert fn.n_left == fn.n_right == -2
    for _ in range(20):
        g = groups.random_elements(rng, 1, t_bound=0.7, u_bound=0.3)[0]
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        lhs = fn(groups.make_k(t1) @ g @ groups.make_k(t2))
        rhs = np.exp(1j * (-2) * (t1 + t2)) * fn(g)
        assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# block products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
def test_products_match_batched_products(transposed):
    # every block of the one 2-D product is bit for bit the batched 3x3
    # product, at every right-factor count up to 199: BLAS computes a
    # narrower tail of columns with other kernels, whose fused multiply-adds
    # could round differently
    for count in range(1, 200):
        rng = np.random.default_rng(count)
        left = groups.random_elements(rng, 7, t_bound=2.0, u_bound=1.5)
        if transposed:
            left = left.transpose(0, 2, 1)
        right = groups.random_elements(rng, count, t_bound=2.0, u_bound=1.5)
        got = equivariant._products(left, right)
        want = left[:, None] @ right[None]
        assert got.shape == want.shape == (7, count, 3, 3)
        assert got.tobytes() == want.tobytes(), f"{count} right factors"


# ---------------------------------------------------------------------------
# radial-support kernel on strided stacks
# ---------------------------------------------------------------------------

_KERNEL_PROFILE = equivariant.BumpProfile(0.8, 0.3)


def _translate_view(g, nodes=128):
    # the projector's layout: k_a g k_b sits in block (a, b) of one 2-D
    # product, seen through a transpose, so the (nodes, nodes, 3, 3) stack
    # is not contiguous
    _, rotations = equivariant._projection_angles(nodes)
    return equivariant._products(rotations @ g, rotations)


def _blocked_view(stack):
    # any (m, m, 3, 3) stack laid out as the projector lays out its translates
    return np.ascontiguousarray(stack.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)


def _kernel_functions():
    witness = equivariant.separation_witness(2, _KERNEL_PROFILE)
    return (witness, character._oracle_test_function)


_ON_SUPPORT = groups.make_a(0.8) @ groups.make_k(0.4)
_OFF_SUPPORT = groups.make_a(2.0) @ groups.make_n(0.3)


def _kernel_stacks():
    rng = np.random.default_rng(41)
    mixed = groups.random_elements(rng, 128 * 128, t_bound=1.5, u_bound=1.0)
    return {"all on": _translate_view(_ON_SUPPORT),
            "all off": _translate_view(_OFF_SUPPORT),
            "mixed": _blocked_view(mixed.reshape(128, 128, 3, 3))}


def test_radial_support_reads_strided_stacks_bit_for_bit():
    far = groups.make_a(3.0)
    for name, view in _kernel_stacks().items():
        assert not view.flags.c_contiguous
        for f in _kernel_functions():
            value = f(view)
            copy = f(np.ascontiguousarray(view))
            assert value.shape == (128, 128) and value.dtype == copy.dtype
            assert value.tobytes() == copy.tobytes(), name
            # one off-support node forces the gathered path on the same nodes
            flat = np.concatenate([view.reshape(-1, 3, 3), far[None]])
            gathered = f(flat)
            assert gathered[-1] == 0.0
            assert gathered[:-1].tobytes() == value.tobytes(), name
            on = np.count_nonzero(value)
            assert {"all on": on == value.size, "all off": on == 0,
                    "mixed": 0 < on < value.size}[name]


def test_radial_support_single_element_is_a_scalar():
    for f in _kernel_functions():
        for g in (_ON_SUPPORT, _OFF_SUPPORT):
            value = f(g)
            assert np.ndim(value) == 0
            assert type(value) is type(f(g[None])[0])
            assert np.asarray(value).tobytes() == f(g[None]).tobytes()


@pytest.mark.parametrize("g, bound", [(_OFF_SUPPORT, 1.0), (_ON_SUPPORT, 1.5)])
def test_radial_support_does_not_copy_the_view(g, bound):
    # the translate view of a projector is 1.2 MB; a whole copy of it, plus
    # the radii and the angles, would take the peak above these bounds
    view = _translate_view(g)
    witness = equivariant.separation_witness(2, _KERNEL_PROFILE)
    witness(view)
    tracemalloc.start()
    try:
        witness(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * view.nbytes


# ---------------------------------------------------------------------------
# bi-equivariant projection
# ---------------------------------------------------------------------------

def _angular(gs):
    # a bump in the polar radius times a function of the entries, so that
    # every double-angle mode (n, n) with |n| <= 6 carries a nonzero share
    gs = np.asarray(gs, dtype=float)
    r = np.arcsinh(np.hypot(gs[..., 0, 2], gs[..., 1, 2]))
    entries = gs[..., 0, 0] + 0.5j * gs[..., 0, 1] - 0.3 * gs[..., 1, 0] + 0.2j * gs[..., 1, 1]
    return equivariant.bump((r - 0.7) / 0.5) * np.exp(entries)


def _double_average(f, g, n, nodes):
    # the double rotation average written out: the mean over a nodes x nodes
    # angle grid of e^{-i n (theta_a + theta_b)} f(k_a g k_b)
    thetas = 2 * np.pi * np.arange(nodes) / nodes
    k = groups.make_k(thetas)
    phase = np.exp(-1j * n * (thetas[:, None] + thetas[None, :]))
    return np.mean(phase * f(k[:, None] @ g @ k[None, :]))


def test_projection_fixes_equivariant_functions():
    witness = equivariant.separation_witness(2, equivariant.BumpProfile(0.7, 0.3))
    projected = equivariant.project_biequivariant(witness, 2, nodes=64)
    probes = groups.make_a(np.array([0.5, 0.7, 0.9]))
    assert np.max(np.abs(projected(probes) - witness(probes))) < 1e-9


def test_projection_annihilates_other_types():
    witness = equivariant.separation_witness(4, equivariant.BumpProfile(0.7, 0.3))
    killed = equivariant.project_biequivariant(witness, 1, nodes=64)
    probes = groups.make_a(np.array([0.6, 0.8]))
    assert np.max(np.abs(killed(probes))) < 1e-9


def test_projection_idempotent_on_generic_function():
    def generic(gs):
        gs = np.asarray(gs, dtype=float)
        r = np.arcsinh(np.hypot(gs[..., 0, 2], gs[..., 1, 2]))
        return equivariant.bump((r - 0.7) / 0.5) * (0.4 + 0.3 * gs[..., 0, 0])

    once = equivariant.project_biequivariant(generic, 2, nodes=64)
    twice = equivariant.project_biequivariant(once, 2, nodes=64)
    probes = groups.make_a(np.array([0.5, 0.9]))
    assert np.max(np.abs(twice(probes) - once(probes))) < 1e-9


def test_projection_matches_refined_quadrature():
    # refinement oracle: the same double average, written out at twice the
    # resolution
    def generic(gs):
        gs = np.asarray(gs, dtype=float)
        r = np.arcsinh(np.hypot(gs[..., 0, 2], gs[..., 1, 2]))
        return equivariant.bump((r - 0.7) / 0.5) * (0.4 + 0.3 * gs[..., 0, 0])

    n = 1
    g = groups.make_a(0.8)
    projected = equivariant.project_biequivariant(generic, n, nodes=64)
    oracle = _double_average(generic, g, n, 128)
    assert abs(complex(projected(g)) - oracle) < 1e-8


@pytest.mark.parametrize("nodes", [64, 128])
def test_isotype_projector_matches_per_isotype_average(nodes):
    ns = range(-6, 7)
    stack = groups.random_elements(np.random.default_rng(8), 6, t_bound=0.9, u_bound=0.5)
    stack = stack.reshape(2, 3, 3, 3)
    project = equivariant._isotype_projector(_angular, ns, nodes=nodes)
    ref = np.array([[_double_average(_angular, g, n, nodes) for g in stack.reshape(-1, 3, 3)]
                    for n in ns]).reshape(len(ns), 2, 3)
    assert np.min(np.abs(ref)) > 1e-8
    values = project(stack)
    assert values.shape == (len(ns), 2, 3)
    assert np.max(np.abs(values - ref)) < 1e-14
    single = project(stack[1, 2])
    assert single.shape == (len(ns),)
    assert np.max(np.abs(single - ref[:, 1, 2])) < 1e-14


def test_projection_matches_double_average():
    stack = groups.random_elements(np.random.default_rng(9), 3, t_bound=0.9, u_bound=0.5)
    for n in (-2, 0, 3):
        projected = equivariant.project_biequivariant(_angular, n)
        ref = np.array([_double_average(_angular, g, n, 128) for g in stack])
        assert np.max(np.abs(projected(stack) - ref)) < 1e-14
        assert abs(projected(stack[0]) - ref[0]) < 1e-14


def test_projection_node_floor():
    for projector in (equivariant.project_biequivariant, equivariant.right_isotype_project):
        with pytest.raises(DomainError):
            projector(lambda gs: 1.0, 0, nodes=32)


def test_type_grid_annihilation():
    # pure types m != n are killed across a small grid of pairs
    probes = groups.make_a(np.array([0.7]))
    witnesses = {m: equivariant.separation_witness(m, equivariant.BumpProfile(0.7, 0.25))
                 for m in (-6, -2, 0, 3, 6)}
    for n in (-6, -2, 0, 3, 6):
        for m, witness in witnesses.items():
            value = equivariant.project_biequivariant(witness, n, nodes=64)(probes)
            target = witness(probes) if m == n else 0.0
            assert np.max(np.abs(value - target)) < 1e-9


# ---------------------------------------------------------------------------
# right isotype projection
# ---------------------------------------------------------------------------

def test_right_projection_fixes_equivariant():
    witness = equivariant.separation_witness(2, equivariant.BumpProfile(0.7, 0.3))
    h = equivariant.right_isotype_project(witness, 2, nodes=64)
    probes = groups.make_a(np.array([0.6, 0.8]))
    assert np.max(np.abs(h(probes) - witness(probes))) < 1e-9


def test_right_projection_output_is_equivariant():
    def generic(gs):
        gs = np.asarray(gs, dtype=float)
        r = np.arcsinh(np.hypot(gs[..., 0, 2], gs[..., 1, 2]))
        return np.exp(-r * r) * (1.0 + 0.5 * gs[..., 1, 1])

    h = equivariant.right_isotype_project(generic, 3, nodes=128)
    x = groups.make_a(0.5)
    base = complex(h(x))
    for theta in (0.4, 1.9):
        moved = complex(h(x @ groups.make_k(theta)))
        assert abs(moved - np.exp(3j * theta) * base) < 1e-8


def test_right_projection_picks_fourier_mode():
    # oracle: a matrix-coefficient column x -> <rho(x) e_m, e_j> has right
    # Fourier mode exactly m, since rho(x k_theta) e_m = e^{i m theta} rho(x) e_m
    p = reps.SpectralParam.principal(1.0)
    m, j = 2, -1

    def column(xs):
        xs = np.asarray(xs, dtype=float)
        single = xs.ndim == 2
        batch = xs[None] if single else xs
        out = np.array([reps.matcoef(p, x, m, j) for x in batch])
        return out[0] if single else out

    x = groups.make_a(0.6) @ groups.make_n(0.2)
    kept = equivariant.right_isotype_project(column, m, nodes=96)
    assert abs(complex(kept(x)) - column(x)) < 1e-8
    killed = equivariant.right_isotype_project(column, m + 1, nodes=96)
    assert abs(complex(killed(x))) < 1e-8


def test_right_projection_kills_constants_for_nonzero_type():
    h = equivariant.right_isotype_project(lambda gs: np.ones(np.asarray(gs).shape[:-2]), 2, nodes=64)
    assert abs(complex(h(groups.make_a(0.3)))) < 1e-12


# ---------------------------------------------------------------------------
# Gram certificate
# ---------------------------------------------------------------------------

def test_gram_single_parameter_is_norm():
    res = equivariant.gram_min_eig([reps.SpectralParam.principal(1.0)], 0)
    assert res.min_eig > 0.0
    assert res.cond == pytest.approx(1.0)


def test_gram_independence_regression():
    params = [reps.SpectralParam.from_s(s) for s in (1j, 2j, 0.5)]
    res = equivariant.gram_min_eig(params, 0, region=(0.0, 2.0))
    # frozen regression value: 1.669e-4 at the default quadrature
    assert res.min_eig > 1e-4
    assert res.min_eig == pytest.approx(1.6692e-4, rel=1e-2)


def test_gram_duplicate_is_singular():
    params = [reps.SpectralParam.from_s(s) for s in (1j, 2j, 0.5, 1j)]
    res = equivariant.gram_min_eig(params, 0)
    assert abs(res.min_eig) < 1e-10


def test_gram_monotone_in_region():
    params = [reps.SpectralParam.from_s(s) for s in (1j, 0.5)]
    eigs = [equivariant.gram_min_eig(params, 0, region=(0.0, tmax)).min_eig
            for tmax in (1.0, 1.5, 2.0)]
    assert eigs[1] >= eigs[0] - 1e-8
    assert eigs[2] >= eigs[1] - 1e-8


def test_gram_requires_spherical_type():
    with pytest.raises(DomainError):
        equivariant.gram_min_eig([reps.SpectralParam.discrete(4, 1)], 0)


def test_gram_nonzero_isotype():
    params = [reps.SpectralParam.from_s(s) for s in (1j, 0.5)]
    res = equivariant.gram_min_eig(params, 2, region=(0.0, 2.0))
    assert res.min_eig > 0.0


def _gram_per_parameter(params, n, nq, region=(0.0, 2.0)):
    # the Gram matrix with one single-exponent _matcoef_batch call per
    # parameter, each running its own cocycle on the boosts
    lo, hi = region
    xs, ws = np.polynomial.legendre.leggauss(nq)
    rs = lo + (hi - lo) * (xs + 1.0) / 2.0
    ws = ws * (hi - lo) / 2.0
    boosts = groups.make_a(rs)
    vals = np.array([reps._matcoef_batch(((1.0 + p.induced_s) / 2.0,), boosts, n, n, None)[0]
                     for p in params])
    gram = 2.0 * np.pi * np.einsum("q,jq,kq->jk", ws * np.sinh(rs), vals, np.conj(vals))
    return 0.5 * (gram + gram.conj().T)


GRAM_CASES = [(svals, n) for svals in ((1j,), (1j, 2j, 0.5), (1j, 2j, 0.5, 1j)) for n in (0, 2)]


@pytest.mark.parametrize("svals, n", GRAM_CASES)
def test_gram_matches_per_parameter_coefficients(svals, n):
    params = [reps.SpectralParam.from_s(s) for s in svals]
    res = equivariant.gram_min_eig(params, n)
    ref = _gram_per_parameter(params, n, 2 * equivariant.GRAM_QUAD_NODES)
    assert res.gram.tobytes() == ref.tobytes()
    assert res.min_eig == float(np.linalg.eigvalsh(ref)[0])


@pytest.mark.parametrize("count", [3, 4])
def test_gram_runs_the_cocycle_once_per_rule(monkeypatch, count):
    calls = []

    def counted(thetas, gs):
        calls.append(gs.shape[0])
        return cocycle(thetas, gs)

    cocycle = reps._cocycle_batch
    monkeypatch.setattr(reps, "_cocycle_batch", counted)
    params = [reps.SpectralParam.from_s(s) for s in (1j, 2j, 0.5, 1j)[:count]]
    equivariant.gram_min_eig(params, 0)
    assert calls == [equivariant.GRAM_QUAD_NODES, 2 * equivariant.GRAM_QUAD_NODES]


def test_legendre_rules_are_cached_and_read_only(monkeypatch):
    counts = {}
    leggauss = np.polynomial.legendre.leggauss

    def counted(nq):
        counts[nq] = counts.get(nq, 0) + 1
        return leggauss(nq)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    equivariant._legendre_rule.cache_clear()
    params = [reps.SpectralParam.from_s(s) for s in (1j, 0.5)]
    for region in ((0.0, 2.0), (0.0, 1.0), (0.5, 2.0)):
        equivariant.gram_min_eig(params, 0, region=region)
    nq = equivariant.GRAM_QUAD_NODES
    assert counts == {nq: 1, 2 * nq: 1}
    for count in (nq, 2 * nq):
        xs, ws = equivariant._legendre_rule(count)
        ref_xs, ref_ws = leggauss(count)
        assert xs.tobytes() == ref_xs.tobytes() and ws.tobytes() == ref_ws.tobytes()
        for array in (xs, ws):
            with pytest.raises(ValueError):
                array[0] = 0.0
