import dataclasses
import warnings

import numpy as np
import pytest
from so21 import character, equivariant, groups, reps
from so21.errors import DomainError, SupportWarning, TruncationWarning


SMALL_GRID = character.HaarGrid(nt=32, nu=32, ntheta=64)


def _witness(n, center=0.6, width=0.3):
    return equivariant.separation_witness(n, equivariant.BumpProfile(center, width))


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_total_mass_is_box_area():
    grid = character.HaarGrid()
    assert abs(grid.node_weight * grid.nt * grid.nu * grid.ntheta - 6.0 * 8.0) < 1e-10


def test_grid_refinement_scales_counts():
    grid = character.HaarGrid().refine()
    assert grid.shape == (72, 72, 144)


@pytest.mark.parametrize("shape", [(0, 48, 96), (48, -4, 96), (48, 48, 0)])
def test_grid_refuses_counts_below_one(shape):
    with pytest.raises(DomainError, match="node counts must be >= 1"):
        character.HaarGrid(*shape)


@pytest.mark.parametrize("shape", [(48.7, 48, 96), (48, 48.0, 96)])
def test_grid_refuses_non_integral_counts(shape):
    # 48.7 t-nodes used to build 49 nodes, each weighted 6/48.7
    with pytest.raises(DomainError, match="node counts must be integers"):
        character.HaarGrid(*shape)


def test_grid_accepts_numpy_integer_counts():
    grid = character.HaarGrid(np.int64(8), np.int32(6), np.uint16(16))
    assert grid.node_weight == character.HaarGrid(8, 6, 16).node_weight
    assert grid.refine().shape == (12, 9, 24)


def test_grid_elements_are_members():
    grid = character.HaarGrid(nt=4, nu=4, ntheta=4)
    for g in grid.elements():
        assert groups.so21_check(g).accepted


def _grid_chunks(grid, rows=None):
    # the element stacks of the chunks of the given rows of a grid (all when None)
    rows = np.arange(grid.nt * grid.nu) if rows is None else np.asarray(rows, dtype=np.intp)
    return [equivariant._products(grid._row_bases[chunk], grid._rotations)
            for chunk in character._chunks(rows, grid.ntheta)]


def _rows_in_band(grid, band):
    # flat indices of the rows whose base the band test admits
    return np.flatnonzero(equivariant._near_band(grid._row_bases, band))


def test_grid_chunks_concatenate_to_elements():
    # 4096 rows of 100 nodes: fifty chunks of 81 whole rows and a partial
    # fifty-first, each a (rows, ntheta, 3, 3) view of one 2-D block product
    grid = character.HaarGrid(nt=64, nu=64, ntheta=100)
    chunks = list(_grid_chunks(grid))
    assert [c.shape for c in chunks] == [(81, 100, 3, 3)] * 50 + [(46, 100, 3, 3)]
    assert all(c.size <= 9 * 8192 and not c.flags.c_contiguous for c in chunks)
    elements = grid.elements()
    assert np.concatenate(chunks).tobytes() == elements.tobytes()
    # a selection of rows gives elements() restricted to those rows, bit for bit
    rows = np.flatnonzero(np.arange(64 * 64) % 3 != 1)[5:]
    selected = np.concatenate(list(_grid_chunks(grid, rows)))
    assert selected.shape == (rows.size, 100, 3, 3)
    assert selected.tobytes() == elements.reshape(-1, 100, 3, 3)[rows].tobytes()
    assert [c.shape for c in _grid_chunks(grid, [])] == [(0, 100, 3, 3)]


def test_grid_rows_share_their_base_radius():
    # k_theta fixes the third column, so every node of a row has the polar
    # radius of its row base bit for bit; the band test on the row bases
    # relies on it
    grid = character.HaarGrid(nt=24, nu=24, ntheta=40)
    radius = groups._polar(grid.elements())[1].reshape(-1, grid.ntheta)
    assert np.array_equal(radius, np.repeat(radius[:, :1], grid.ntheta, axis=1))
    rows = _rows_in_band(grid, (0.25, 0.95))
    inside = (radius[:, 0] >= 0.25) & (radius[:, 0] <= 0.95)
    assert 0 < rows.size < grid.nt * grid.nu
    assert np.array_equal(rows, np.flatnonzero(inside))


def test_grid_constants_are_built_once_per_grid_and_read_only():
    grid = character.HaarGrid(nt=8, nu=6, ntheta=16)
    assert grid._row_bases is grid._row_bases
    assert grid.boundary_elements is grid.boundary_elements
    assert grid._row_bases.tobytes() == grid.elements()[::grid.ntheta].tobytes()
    for array in (grid._row_bases, grid.boundary_elements):
        with pytest.raises(ValueError):
            array[0, 0, 0] = 0.0
    # the caches are no fields: a fresh grid of the same shape is equal
    # and builds its own
    other = character.HaarGrid(nt=8, nu=6, ntheta=16)
    assert other == grid and hash(other) == hash(grid)
    assert other._row_bases is not grid._row_bases


def test_oracle_translations_are_read_only():
    # criterion 11 and haarcheck read them: neither an entry nor a matrix moves
    with pytest.raises(TypeError):
        character.ORACLE_TRANSLATIONS["a(0.3)"] = groups.make_a(2.0)
    with pytest.raises(ValueError):
        character.ORACLE_TRANSLATIONS["a(0.3)"][0, 0] = 0.0


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_separable_oracle():
    # the integrand factors through (t, u, theta), so the integral is a
    # product of three one-dimensional integrals computed here independently
    def f(gs):
        gs = np.asarray(gs, dtype=float)
        t = -np.log(gs[..., 2, 2] - gs[..., 0, 2])
        u = gs[..., 1, 2]
        k = groups.make_n(-u) @ groups.make_a(-t) @ gs
        theta = np.arctan2(k[..., 1, 0], k[..., 0, 0])
        return (equivariant.bump((t - 0.2) / 1.5)
                * equivariant.bump(u / 2.0)
                * (1.0 + 0.5 * np.cos(theta)))

    ts = np.linspace(-3, 3, 20001)
    us = np.linspace(-4, 4, 20001)
    oracle = (np.trapezoid(equivariant.bump((ts - 0.2) / 1.5), ts)
              * np.trapezoid(equivariant.bump(us / 2.0), us))
    value = complex(character.integrate_G(f, character.HaarGrid()))
    assert abs(value.imag) < 1e-12
    assert abs(value.real - oracle) / oracle < 0.005


def test_integrate_odd_function_vanishes():
    def f(gs):
        gs = np.asarray(gs, dtype=float)
        u = gs[..., 1, 2]
        t = -np.log(gs[..., 2, 2] - gs[..., 0, 2])
        return u * equivariant.bump(u / 2.0) * equivariant.bump(t / 2.0)

    value = character.integrate_G(f, character.HaarGrid())
    assert abs(value) < 1e-10


def test_integrate_warns_on_boundary_support():
    def broad(gs):
        gs = np.asarray(gs, dtype=float)
        r = np.arcsinh(np.hypot(gs[..., 0, 2], gs[..., 1, 2]))
        return np.exp(-0.1 * r)

    # the warning names the caller's line, also through pi(f) and the check
    p = reps.SpectralParam.principal(1.0)
    f = equivariant.EquivariantFn(0, 0, broad)
    for call in (lambda: character.integrate_G(broad, SMALL_GRID),
                 lambda: character.pi_of_f(p, f, SMALL_GRID, 8),
                 lambda: character.char_identity_check(p, 0, f, grid=SMALL_GRID, N=8)):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            call()
        support = [w for w in record if issubclass(w.category, SupportWarning)]
        assert len(support) == 1 and support[0].filename == __file__


def test_haar_invariance_shared_oracle():
    res = character.haar_invariance_check(character.HaarGrid(nt=64, nu=64, ntheta=96))
    assert res.worst < 0.005


@pytest.mark.parametrize("shape", [(96, 96, 128), (48, 48, 64)])
def test_haar_normalization_gap_is_small_on_the_battery_grids(shape):
    # criterion 11's full and fast grids: 3.7e-4 and 1.1e-3
    res = character.haar_invariance_check(character.HaarGrid(*shape))
    assert 0.0 < res.normalization_gap < 5e-3


def _oracle_kak_integral(xs, ws, count):
    # 2 pi int b(r) sinh r dr over the band on Gauss-Legendre nodes xs and
    # weights ws on [-1, 1], times the mean of the angular factor on a
    # count x count grid of K x K
    f = character._oracle_test_function
    lo, hi = f.support
    rs = lo + (hi - lo) * (xs + 1.0) / 2.0
    radial = 2.0 * np.pi * np.sum(ws * (hi - lo) / 2.0 * f.profile(rs) * np.sinh(rs))
    z = np.exp(2j * np.pi * np.arange(count) / count)
    angular = np.mean(character._oracle_value(1.0, z[:, None], z[None, :]))
    assert abs(angular - 0.91) < 1e-15
    return float(radial * angular.real)


def test_oracle_kak_integral_is_the_legendre_integral():
    # the literal is the library's 64-node rule on an 8 x 8 K grid (exact
    # for the oracle's angular modes, |mode| <= 3); 128 nodes and a 32 x 32
    # grid agree to 2e-12
    pinned = character._ORACLE_KAK_INTEGRAL
    assert abs(_oracle_kak_integral(*equivariant._legendre_rule(64), 8) - pinned) < 1e-15
    finer = _oracle_kak_integral(*equivariant._legendre_rule(128), 32)
    assert abs(finer - pinned) < 2e-12


def _translation_reach(translations):
    return max(groups.cartan_radius(g0) for g0 in translations.values())


def _band_rows(bases, band):
    # rows whose base radius lies in the band, widened for round-off: an
    # arcsinh reference, independent of the library's squared band test
    radius = groups._polar(bases)[1]
    margin = 1e-9
    return np.flatnonzero((radius >= band[0] - margin) & (radius <= band[1] + margin))


def test_haar_invariance_matches_batched_reference():
    # 100 rotations per row does not divide 8192, so a chunk holds 81
    # whole rows; the reference slices each integrand's rows into such
    # chunks and builds the translated grids with plain batched 3x3
    # products, (g0 @ B) @ k_j on the left and B @ (k_j @ g0) on the right,
    # which pins the row selections, the chunks and the padded 2-D block
    # products bit for bit
    grid = character.HaarGrid(nt=40, nu=40, ntheta=100)
    translations = {"a": groups.make_a(0.3), "n": groups.make_n(0.5), "k": groups.make_k(1.0)}
    res = character.haar_invariance_check(grid, translations)

    f = character._oracle_test_function
    lo, hi = f.support
    B = grid._row_bases
    K = groups.make_k(grid.coordinate_arrays()[2])
    evaluated = []

    def integral(bases, rotations, rows):
        evaluated.append(rows)
        parts = []
        for start in range(0, rows.size, 81):
            G = bases[rows[start:start + 81], None] @ rotations
            parts.append(np.sum(f(G.reshape(-1, 3, 3))))
        return grid.node_weight * float(np.real(np.sum(np.asarray(parts))))

    base = integral(B, K, _band_rows(B, f.support))
    assert res.base_integral == base
    for name, g0 in translations.items():
        left = integral(g0 @ B, K, _band_rows(g0 @ B, f.support))
        reach = groups.cartan_radius(g0)
        right = integral(B, K @ g0, _band_rows(B, (lo - reach, hi + reach)))
        assert res.per_translation[name] == {"left": abs(left - base) / abs(base),
                                             "right": abs(right - base) / abs(base)}
    assert res.evaluated_rows == np.unique(np.concatenate(evaluated)).size
    assert res.integrand_rows == sum(rows.size for rows in evaluated)


def test_haar_invariance_evaluates_each_translate_on_its_own_rows(monkeypatch):
    # cost guard: the left translate is the grid with row bases g0 @ B, and
    # the oracle sees exactly the rows of those bases inside its band (the
    # theta = 0 column of a chunk is its bases); the right translate sees
    # the rows within r(g0) of the band, and the base integral its own band
    seen = []
    oracle = character._oracle_test_function

    def recording(gs):
        seen.append(np.array(gs))
        return oracle(gs)

    recording.support = oracle.support
    monkeypatch.setattr(character, "_oracle_test_function", recording)
    grid = character.HaarGrid(nt=40, nu=40, ntheta=100)
    g0 = groups.make_n(0.5)
    res = character.haar_invariance_check(grid, {"n": g0})
    # in call order: the base's check of its skipped rows (a 3-D stack), its
    # chunks, the left translate's check, its chunks, the right's chunks
    first, second = (i for i, gs in enumerate(seen) if gs.ndim == 3)
    base = np.concatenate(seen[first + 1:second])
    translates = np.concatenate(seen[second + 1:])
    B = grid._row_bases
    lo, hi = oracle.support
    reach = groups.cartan_radius(g0)
    base_rows = _band_rows(B, oracle.support)
    left_rows = _band_rows(g0 @ B, oracle.support)
    right_rows = _band_rows(B, (lo - reach, hi + reach))
    assert base[:, 0].tobytes() == B[base_rows].tobytes()
    assert translates[:left_rows.size, 0].tobytes() == (g0 @ B)[left_rows].tobytes()
    assert translates.shape[0] == left_rows.size + right_rows.size
    assert res.integrand_rows == base_rows.size + left_rows.size + right_rows.size
    assert left_rows.size < right_rows.size < grid.nt * grid.nu

    # criterion 11's grid and translations: 548 base rows and one band per
    # translate, against 7 x 1496 rows for one pass over the widest band
    res = character.haar_invariance_check(character.HaarGrid(nt=96, nu=96, ntheta=128))
    assert abs(res.integrand_rows - 5312) <= 4
    assert res.evaluated_rows == 1496


def test_haar_invariance_checks_the_declared_support(monkeypatch):
    # an oracle nonzero outside its declared band is refused, not pruned
    oracle = character._oracle_test_function

    def narrow(gs):
        return oracle(gs)

    narrow.support = (0.5, oracle.support[1])
    monkeypatch.setattr(character, "_oracle_test_function", narrow)
    with pytest.raises(DomainError, match="outside its declared support"):
        character.haar_invariance_check(SMALL_GRID)


def test_haar_invariance_without_band_nodes_is_a_domain_error():
    # on a 2 x 2 grid every row base lies outside the oracle's band, so the
    # base integral is 0 and no relative defect exists
    with pytest.raises(DomainError, match="integrates to 0"):
        character.haar_invariance_check(character.HaarGrid(nt=2, nu=2, ntheta=8))


def test_haar_invariance_pruning_loses_no_mass():
    # the rows outside f's support widened by max r(g0) carry exact zeros in
    # every stack, left and right translates alike, so the pruned check
    # equals the full-grid sums up to summation order
    grid = character.HaarGrid(nt=40, nu=40, ntheta=100)
    far = groups.make_k(0.4) @ groups.make_a(0.55) @ groups.make_n(0.35)
    translations = {"a": groups.make_a(0.3), "n": groups.make_n(0.5), "k": groups.make_k(1.0),
                    "far": far}
    assert abs(groups.cartan_radius(far) - 0.7) < 0.01
    res = character.haar_invariance_check(grid, translations)

    f = character._oracle_test_function
    lo, hi = f.support
    rows = _rows_in_band(grid, (lo - _translation_reach(translations),
                                hi + _translation_reach(translations)))
    assert 0 < res.evaluated_rows == rows.size < grid.nt * grid.nu
    skipped = np.ones(grid.nt * grid.nu, dtype=bool)
    skipped[rows] = False
    G = grid.elements()

    def full_total(values):
        assert np.all(values.reshape(-1, grid.ntheta)[skipped] == 0.0)
        return grid.node_weight * float(np.sum(values))

    base = full_total(f(G))
    assert abs(res.base_integral - base) <= 1e-13 * abs(base)
    for name, g0 in translations.items():
        for side, values in (("left", f(g0 @ G)), ("right", f(G @ g0))):
            defect = abs(full_total(values) - base) / abs(base)
            assert abs(res.per_translation[name][side] - defect) <= 2e-13


def _unmasked_polar(gs):
    # the radius and the polar phases of every node, each node a row of its
    # own: the kernels' polar data with no band test, as (..., 1) arrays,
    # so a single element runs array arithmetic too
    gs = np.asarray(gs, dtype=float)
    r, z1, z2 = groups._polar_phases(groups._polar_entries()(gs))
    shape = gs.shape[:-2] + (1,)
    return r.reshape(shape), z1.reshape(shape), z2.reshape(shape)


def _unmasked_witness(n, profile):
    def values(gs):
        r, z1, z2 = _unmasked_polar(gs)
        # the witness's binary powering; its values are checked against
        # the angle formula in test_phase_kernels_match_the_angle_formula
        phase = z1 * z2 if n >= 0 else np.conj(z1 * z2)
        power = equivariant._power(phase, abs(n)) if n else phase ** 0
        return (profile(r) * power)[..., 0][()]
    return values


def _unmasked_oracle(gs):
    r, z1, z2 = _unmasked_polar(gs)
    return (equivariant.bump((r - 0.6) / 0.35) * (1.3 + (z1 * z2).real)
            * (0.7 + 0.3 * (np.conj(z1) ** 2 * z2).imag))[..., 0][()]


def _angle_polar(gs):
    # the polar radius and angles by hypot and arctan2, theta1 = 0 at radius 0
    gs = np.asarray(gs, dtype=float)
    r = np.arcsinh(np.hypot(gs[..., 0, 2], gs[..., 1, 2]))
    flat = r < 1e-12
    theta1 = np.where(flat, 0.0, np.arctan2(gs[..., 1, 2], gs[..., 0, 2]))
    theta2 = np.where(flat, np.arctan2(gs[..., 1, 0], gs[..., 0, 0]),
                      np.arctan2(-gs[..., 2, 1], gs[..., 2, 0]))
    return theta1, np.where(flat, 0.0, r), theta2


def _angle_witness(n, profile):
    def values(gs):
        theta1, r, theta2 = _angle_polar(gs)
        return profile(r) * np.exp(1j * n * (theta1 + theta2))
    return values


def _angle_oracle(gs):
    theta1, r, theta2 = _angle_polar(gs)
    return (equivariant.bump((r - 0.6) / 0.35) * (1.3 + np.cos(theta1 + theta2))
            * (0.7 + 0.3 * np.sin(theta2 - 2.0 * theta1)))


_ROTATIONS = np.concatenate([
    np.eye(3)[None],
    groups.make_k(np.linspace(0.0, 2.0 * np.pi, 13)),
    groups.make_a([1e-13, 0.2, 0.45]) @ groups.make_k(2.5),
])


def _ulp_radii(edge, count=6):
    # the 2 * count + 1 floats nearest to `edge`
    return edge + np.spacing(edge) * np.arange(-count, count + 1)


def _rotated_boosts(radii, angles=(0.0, 0.7, 2.9)):
    # k_a a_r k_b for every radius and pair of angles: g13, g23 come out
    # rounded differently from sinh(r), so the computed radius scatters
    # by a few ulps around r
    k = groups.make_k(np.asarray(angles))
    stack = k[:, None, None] @ groups.make_a(np.asarray(radii))[None, :, None] @ k[None, None]
    return stack.reshape(-1, 3, 3)


class _BoxProfile:
    """1 on the closed band of radii, 0 outside: nonzero right up to its edges."""

    support = (0.25, 0.95)

    def __call__(self, r):
        lo, hi = self.support
        return ((r >= lo) & (r <= hi)).astype(float)


# e^{i (theta1 - 2 theta2)}, the per-node factor on the left (see
# character._oracle_value)
_box_kernel = equivariant._Radial(_BoxProfile(), lambda b, z1, z2: b * (np.conj(z2) ** 2 * z1))


def _unmasked_box(gs):
    r, z1, z2 = _unmasked_polar(gs)
    return (_BoxProfile()(r) * (np.conj(z2) ** 2 * z1))[..., 0][()]


# radii within a few ulps of each edge of the box band and of the oracle's
# band (0.25, 0.95), plus interior ones
_EDGES = _rotated_boosts(np.concatenate([_ulp_radii(0.25), _ulp_radii(0.95), [0.4, 0.6, 0.9]]))
# r = 0 nodes (exact and degenerate) among nodes on and off the band
# (-0.5, 0.5), laid out as a strided (rows, ntheta, 3, 3) view
_ORIGIN_MIXED = equivariant._products(
    np.concatenate([groups.make_k([0.0, 1.0, 4.0]), groups.make_a([1e-13, 0.3, 0.8])]),
    groups.make_k(np.linspace(0.0, 6.0, 5)))


# rows 512-639 of SMALL_GRID, t in [0.09, 0.66]: one chunk, 128 rows x 64
# rotations, with nodes inside and outside both the (0.25, 0.95) band and
# the origin band
_BAND_CHUNK = list(_grid_chunks(SMALL_GRID))[4]


@pytest.mark.parametrize("masked, unmasked, gs", [
    (_witness(3), _unmasked_witness(3, equivariant.BumpProfile(0.6, 0.3)), _BAND_CHUNK),
    (character._oracle_test_function, _unmasked_oracle, _BAND_CHUNK),
    (_witness(-2, 0.0, 0.5), _unmasked_witness(-2, equivariant.BumpProfile(0.0, 0.5)),
     _BAND_CHUNK),
    (_witness(-2, 0.0, 0.5), _unmasked_witness(-2, equivariant.BumpProfile(0.0, 0.5)),
     _ROTATIONS),
    (character._oracle_test_function, _unmasked_oracle, _ROTATIONS),
    (_box_kernel, _unmasked_box, _EDGES),
    (character._oracle_test_function, _unmasked_oracle, _EDGES),
    (_witness(-2, 0.0, 0.5), _unmasked_witness(-2, equivariant.BumpProfile(0.0, 0.5)),
     _ORIGIN_MIXED),
], ids=["witness_chunk", "oracle_chunk", "origin_band_chunk", "origin_band_rotations",
        "oracle_rotations", "box_band_edges", "oracle_band_edges", "origin_band_zero_radius"])
def test_support_masked_integrands_match_unmasked_polar(masked, unmasked, gs):
    # the phases are computed only on the band test's candidates; there the
    # values agree bit for bit with the formula on the radius and phases of
    # every node, the signed zeros 0 * z of candidates where the profile is
    # 0 included.  Every other node is an exact +0.
    got, want = masked(gs), unmasked(gs)
    assert got.shape == want.shape == gs.shape[:-2] and got.dtype == want.dtype
    on = want != 0.0
    assert on.any()
    assert np.array_equal(got != 0.0, on)
    near = equivariant._near_band(gs, masked.support)
    assert got[near].tobytes() == want[near].tobytes()
    assert not np.any(np.signbit(got[~near].view(float)))
    for g in gs.reshape(-1, 3, 3)[:3]:
        one, ref = masked(g), unmasked(g)
        assert type(one) is type(ref) and one == ref


def test_support_masked_cases_reach_the_edges_and_the_origin():
    # the edge stack straddles both band edges by a few ulps, in the
    # computed radius the kernel compares; the origin case has r = 0 nodes
    # inside the band next to nodes outside it
    radius = groups._polar(_EDGES)[1]
    for edge in _BoxProfile.support:
        near = np.abs(radius - edge) <= 8 * np.spacing(edge)
        assert np.any(near & (radius < edge)) and np.any(near & (radius == edge))
        assert np.any(near & (radius > edge))
    radius = groups._polar(_ORIGIN_MIXED)[1]
    assert radius.shape == (6, 5) and not _ORIGIN_MIXED.flags.c_contiguous
    assert np.count_nonzero(radius == 0.0) == 20 and np.any(radius > 0.5)


def _signed_zero_stack(rng, count):
    # boosts a_r, r of either sign, times k_0, k_(pi/2), k_pi or k_(-pi/2):
    # g13 < 0 next to g23 = 0 puts the angle formula on arctan2's branch
    # cut, and every zero entry gets a random sign
    g = groups.make_a(rng.uniform(-1.2, 1.2, count)) @ groups.make_k(
        rng.choice([0.0, np.pi / 2, np.pi, -np.pi / 2], count))
    return np.where(g == 0.0, np.where(rng.random(g.shape) < 0.5, -0.0, 0.0), g)


_PHASE_STACKS = {
    "edges": _EDGES,
    "origin_mixed": _ORIGIN_MIXED,
    "random": groups.random_elements(np.random.default_rng(3), 20000, t_bound=1.0, u_bound=1.0),
    "signed_zeros": _signed_zero_stack(np.random.default_rng(4), 4000),
}


@pytest.mark.parametrize("kind", list(_PHASE_STACKS))
def test_phase_kernels_match_the_angle_formula(kind):
    # the witness and the oracle read their phases off the third column and
    # row; the hypot/arctan2/exp formula gives the same values to a few ulps
    # per unit of angular degree.  Worst measured over 1M random and
    # signed-zero elements, n = -6..6 (the witness powers by repeated
    # products): 2.6 eps * max(1, |n|) for the witness, 5.4 eps for the
    # oracle
    gs = _PHASE_STACKS[kind]
    eps = np.finfo(float).eps
    for profile in (equivariant.BumpProfile(0.6, 0.35), equivariant.BumpProfile(0.0, 0.7)):
        for n in range(-6, 7):
            got = equivariant.separation_witness(n, profile)(gs)
            want = _angle_witness(n, profile)(gs)
            assert np.max(np.abs(got - want)) <= 8 * eps * max(1, abs(n)), (profile, n)
    got, want = character._oracle_test_function(gs), _angle_oracle(gs)
    assert np.count_nonzero(want) > 0
    assert np.max(np.abs(got - want)) <= 8 * eps


class _RecordingProfile:
    """The oracle's bump, recording every array of radii it is called on."""

    def __init__(self, bump=equivariant.BumpProfile(0.6, 0.35)):
        self.bump = bump
        self.support = bump.support
        self.seen = []

    def __call__(self, r):
        self.seen.append(np.array(r))
        return self.bump(r)


def test_radial_kernel_evaluates_the_profile_on_band_candidates_only():
    # cost guard: every node B k_theta of a Haar chunk's row has its base's
    # g13 and g23, so on the row route the profile sees one radius per row
    # the band test admits, not one per node
    profile = _RecordingProfile()
    bases = SMALL_GRID._row_bases[512:640]
    entries = groups._polar_entries(SMALL_GRID._rotations)(bases)
    got = equivariant._on_radial_support(
        entries, profile, lambda b, z1, z2: b * (z1 * np.conj(z2)).real)
    radius = groups._polar(bases)[1]
    lo, hi = profile.support
    inside = (radius >= lo - 1e-8) & (radius <= hi + 1e-8)
    assert len(profile.seen) == 1 and profile.seen[0].ndim == 1
    assert 0 < profile.seen[0].size == np.count_nonzero(inside) < radius.size
    assert np.array_equal(profile.seen[0], radius[inside])
    want = _unmasked_witness(0, profile.bump)(_BAND_CHUNK)
    assert got.shape == want.shape and np.array_equal(got != 0.0, want != 0.0)


def test_projector_evaluates_the_profile_once_per_translate_row():
    # cost guard: the translates k_a g k_b of one row a share k_a g's third
    # column, so a projection sees `nodes` radii per element, not nodes^2
    profile = _RecordingProfile()
    witness = equivariant.separation_witness(1, profile)
    g = groups.make_k(0.4) @ groups.make_a(0.55) @ groups.make_k(1.3)
    value = equivariant.project_biequivariant(witness, 1, nodes=64)(g)
    assert abs(value) > 0.1
    assert [r.shape for r in profile.seen] == [(64,)]
    profile.seen.clear()
    equivariant.right_isotype_project(witness, 1, nodes=64)(np.stack([g, g @ groups.make_a(0.1)]))
    assert [r.shape for r in profile.seen] == [(2,)]


def test_radial_integrands_build_no_node_stack(monkeypatch):
    # cost guard: the Haar check, integrate_G, pi(f) and both projectors
    # hand a radial integrand the polar entries of its nodes, so no
    # (rows, m, 3, 3) node stack is built for it, not even for the right
    # boost and unipotent translates
    def refused(left, right):
        raise AssertionError("a node stack was built")

    monkeypatch.setattr(equivariant, "_products", refused)
    g = groups.make_k(0.4) @ groups.make_a(0.55) @ groups.make_k(1.3)
    assert character.haar_invariance_check(SMALL_GRID).worst < 0.05
    assert abs(character.integrate_G(_witness(0), SMALL_GRID)) > 0.0
    op = character.pi_of_f(reps.SpectralParam.principal(1.0), _witness(1), SMALL_GRID, 6)
    assert op.active_rows > 0
    assert abs(equivariant.project_biequivariant(_witness(2), 2, nodes=64)(g)) > 0.1
    assert abs(equivariant.right_isotype_project(_witness(2), 2, nodes=64)(g)) > 0.1


def _band_bases(bases, band=(0.0, 1.5), count=100):
    # the first `count` of the bases whose radius lies in a wide band
    # around the kernels' bands
    return bases[_band_rows(bases, band)[:count]]


def _with_nan(bases, right):
    # NaN in g31 of one row base (its q) and in g13 of another (its p, so
    # the band test drops it), rows 3 and 4 of the oracle's band, and in
    # R11 of right factor 5 (its phase)
    bases, right = np.array(bases), np.array(right)
    radius = groups._polar(bases)[1]
    assert np.all((radius[3:5] > 0.3) & (radius[3:5] < 0.9))
    bases[3, 2, 0] = np.nan
    bases[4, 0, 2] = np.nan
    right[5, 0, 0] = np.nan
    return bases, right


_K = SMALL_GRID._rotations
_B = SMALL_GRID._row_bases
_G = groups.make_k(0.4) @ groups.make_a(0.55) @ groups.make_k(1.3)
_PROJECTION_K = equivariant._projection_angles(64)[1]
# 37 x 41 midpoints put t = u = 0 at row 18 * 41 + 20: that row base is the
# identity, and its nodes k_theta have radius 0
_ORIGIN_GRID = character.HaarGrid(nt=37, nu=41, ntheta=100)
# each route's (row bases, right factors): the polar route reads their
# polar entries, the node route the (rows, m, 3, 3) stack of their products
_ROUTES = {
    "grid_rows": (_band_bases(_B), _K),
    "origin_rows": (_ORIGIN_GRID._row_bases[18 * 41 + 14:18 * 41 + 27], _ORIGIN_GRID._rotations),
    "left_translate": (_band_bases(groups.make_a(0.3) @ groups.make_n(-0.2) @ _B), _K),
    "right_a": (_band_bases(_B), _K @ groups.make_a(0.3)),
    "right_n": (_band_bases(_B), _K @ groups.make_n(0.5)),
    "right_k": (_band_bases(_B), _K @ groups.make_k(1.0)),
    "projector_translates": (_PROJECTION_K @ _G, _PROJECTION_K),
    "right_isotype": (np.stack([_G, _G @ groups.make_a(0.1), _G @ groups.make_n(-0.3)]),
                      _PROJECTION_K),
    "signed_zeros": (_signed_zero_stack(np.random.default_rng(6), 60), _K),
    "signed_zeros_right_a": (_signed_zero_stack(np.random.default_rng(7), 60),
                             _K @ groups.make_a(0.3)),
    "nan_rows": _with_nan(_band_bases(_B, (0.3, 0.9)), _K),
    "nan_rows_right_n": _with_nan(_band_bases(_B, (0.3, 0.9)), _K @ groups.make_n(0.5)),
}
_NODE_ROUTES = {"right_a", "right_n", "signed_zeros_right_a", "nan_rows_right_n"}
_ORIGIN_PROFILE = equivariant.BumpProfile(0.0, 0.7)
_KERNELS = {
    **{f"witness_{n}": equivariant.separation_witness(n, equivariant.BumpProfile(0.6, 0.3))
       for n in range(-6, 7)},
    **{f"origin_witness_{n}": equivariant.separation_witness(n, _ORIGIN_PROFILE)
       for n in (-3, 0, 2)},
    "oracle": character._oracle_test_function,
}
# The polar and node routes round differently: the row route multiplies a
# row's q / sinh r by each rotation's phase R11 + i R21 and the other route
# takes p and q from its own products, where the node route scales the
# entries of the 3x3 block products.  Worst measured |polar - node| over
# every route below: 0.63 eps * max(1, |n|) for the witnesses and 1.5 eps
# for the oracle; over 2400 random row bases times 128 rotations and their
# right translates by a boost, a unipotent and a rotation, 0.90 eps *
# max(1, |n|) and 2.0 eps.
_ROUTE_BOUND = 4 * np.finfo(float).eps


def _route_values(f, bases, right):
    polar = equivariant._on_nodes(f, right)(bases)
    node = f(equivariant._products(bases, right))
    return polar, node


def _route_bound(kernel):
    n = int(kernel.rsplit("_", 1)[1]) if kernel != "oracle" else 1
    return _ROUTE_BOUND * max(1, abs(n))


@pytest.mark.parametrize("kernel", list(_KERNELS))
@pytest.mark.parametrize("kind", list(_ROUTES))
def test_radial_kernel_rows_match_the_node_by_node_path(kind, kernel):
    # the polar entries of (row bases, right factors) against the node
    # route on the materialized _products stack: the same exact zeros and
    # NaNs, and every other value within a few eps per unit of |n|
    bases, right = _ROUTES[kind]
    assert groups._fixes_e3(right) == (kind not in _NODE_ROUTES)
    f = _KERNELS[kernel]
    polar, node = _route_values(f, bases, right)
    assert polar.shape == node.shape == (bases.shape[0], right.shape[0])
    assert polar.dtype == node.dtype
    assert np.array_equal(np.isnan(polar), np.isnan(node))
    assert np.array_equal(polar == 0.0, node == 0.0)
    finite = ~np.isnan(node)
    assert np.max(np.abs(polar - node)[finite], initial=0.0) <= _route_bound(kernel)


def test_radial_kernel_row_cases_reach_the_band_and_the_origin():
    # every route has band nodes where the oracle is nonzero, and the
    # origin rows have radius-0 nodes inside the origin band, where theta2
    # comes from g11 and g21
    oracle = character._oracle_test_function
    for kind, (bases, right) in _ROUTES.items():
        if kind != "origin_rows":
            assert np.count_nonzero(_route_values(oracle, bases, right)[0]) > 0, kind
    bases, right = _ROUTES["origin_rows"]
    radius = groups._polar(equivariant._products(bases, right))[1]
    assert np.count_nonzero(radius == 0.0) == right.shape[0]
    polar, node = _route_values(_KERNELS["origin_witness_2"], bases, right)
    assert np.count_nonzero(polar[radius == 0.0]) == right.shape[0]


def test_origin_phases_on_the_node_route():
    # right factors k_theta a(0.3) move e3, so the polar entries are read
    # node by node; on the bases a(0.3)^-1 and k(0.7) a(0.3)^-1 (rows 1 and
    # 3) the theta = 0 node is the identity and k(0.7), radius 0 inside the
    # band of a witness that reaches the origin, so its theta2 comes from
    # groups._origin_phases, which finds the node's row by index // m
    right = groups.make_k(groups._uniform_angles(8)) @ groups.make_a(0.3)
    bases = np.stack([groups.make_a(0.2) @ groups.make_n(0.1), groups.make_a(-0.3),
                      groups.make_a(0.45), groups.make_k(0.7) @ groups.make_a(-0.3)])
    assert not groups._fixes_e3(right)
    origin = groups._polar(equivariant._products(bases, right))[1] == 0.0
    assert np.array_equal(np.argwhere(origin), [[1, 0], [3, 0]])
    for n in (-3, 0, 1, 2):
        f = equivariant.separation_witness(n, equivariant.BumpProfile(0.0, 0.5))
        polar, node = _route_values(f, bases, right)
        assert np.array_equal(polar[origin], node[origin]), n
        assert np.max(np.abs(polar - node)) <= _route_bound(f"witness_{n}"), n
        assert np.allclose(polar[origin], np.exp(-1.0) * np.exp([0.0, 0.7j * n]), atol=1e-15), n


def test_radial_kernel_rows_with_nan():
    # a NaN in g31 of row 3's base makes the nodes of that row NaN where the
    # band test admits them (every node on the row route, whose rows keep
    # their radius), one in g13 of row 4's base drops the row from the
    # band, and one in R11 of right factor 5 reaches its column, on either
    # route
    for kind in ("nan_rows", "nan_rows_right_n"):
        polar, node = _route_values(character._oracle_test_function, *_ROUTES[kind])
        assert np.isnan(polar[3]).any() and not np.isnan(polar[4]).any(), kind
        assert np.isnan(polar[3]).all() == (kind == "nan_rows"), kind
        assert np.count_nonzero(polar[4]) == 0 and np.isnan(polar[:, 5]).any(), kind
        assert np.array_equal(np.isnan(polar), np.isnan(node)), kind


def test_radial_kernel_keeps_signed_zero_nodes_apart():
    # row bases a_(-0.5) with g23 = +0.0 and -0.0: their phases z1 = -1 + 0i
    # and -1 - 0i differ in the sign of a zero.  Each row takes its own p
    # on the row route, within the route bound of the node route, and the
    # phase rule has no branch cut there: the two rows agree to 1 ulp
    bases = np.repeat(groups.make_a(-0.5)[None], 2, axis=0)
    bases[1, 1, 2] = -0.0
    assert bases[0, 1, 2] == bases[1, 1, 2] and np.signbit(bases[1, 1, 2])
    for kernel, f in _KERNELS.items():
        polar, node = _route_values(f, bases, _K)
        assert np.max(np.abs(polar - node)) <= _route_bound(kernel), kernel
    got = _route_values(_KERNELS["witness_1"], bases, _K)[0]
    assert np.max(np.abs(got[0] - got[1])) <= np.spacing(np.max(np.abs(got)))


def test_radial_kernel_single_elements_match_their_stack():
    # 2-D input is one node and gives a scalar, bit for bit its entry of the stack
    f = character._oracle_test_function
    values = f(_BAND_CHUNK[46])
    for k in (0, 17, 63):
        one = f(_BAND_CHUNK[46, k])
        assert type(one) is np.float64 and one.tobytes() == values[k].tobytes()


# ---------------------------------------------------------------------------
# pi(f)
# ---------------------------------------------------------------------------

def test_pi_of_zero_function():
    zero = equivariant.EquivariantFn(1, 1, lambda gs: np.zeros(np.asarray(gs).shape[:-2]),
                                     support=(0.0, 0.1))
    op = character.pi_of_f(reps.SpectralParam.principal(1.0), zero, SMALL_GRID, N=8)
    assert np.all(op.mat == 0.0)
    # a zero matrix has no off-row mass, and the trace of a zero pi(f) is a zero gap
    assert op.offrow_mass() == 0.0
    assert character._relative_gap(0j, 0j) == 0.0


def test_offrow_mass_with_the_isotype_outside_the_truncation():
    # the row -n lies outside |m| <= N, so all of the mass is off it
    op = character.OperatorMatrix(np.ones((3, 3)), reps.SpectralParam.principal(1.0), 2,
                                  SMALL_GRID, 1, None, 0, 0)
    assert op.offrow_mass() == 1.0


def test_pi_range_concentration():
    op = character.pi_of_f(reps.SpectralParam.principal(1.0), _witness(1),
                           character.HaarGrid(), N=16)
    assert op.offrow_mass() < 1e-3


def test_pi_concentration_improves_with_grid_refinement():
    # the off-row mass is quadrature noise, dominated by the t/u resolution,
    # so it must shrink as the whole grid refines
    coarse = character.pi_of_f(reps.SpectralParam.principal(1.0), _witness(1),
                               SMALL_GRID, N=12)
    fine = character.pi_of_f(reps.SpectralParam.principal(1.0), _witness(1),
                             SMALL_GRID.refine(), N=12)
    assert fine.offrow_mass() < coarse.offrow_mass()


def test_pi_linearity():
    p = reps.SpectralParam.principal(1.0)
    f1, f2 = _witness(1), _witness(1, center=0.7, width=0.25)
    combined = equivariant.EquivariantFn(
        1, 1, lambda gs: 0.7 * f1(gs) + 2.0j * f2(gs), support=(0.3, 0.95))
    lhs = character.pi_of_f(p, combined, SMALL_GRID, N=8).mat
    rhs = (0.7 * character.pi_of_f(p, f1, SMALL_GRID, N=8).mat
           + 2.0j * character.pi_of_f(p, f2, SMALL_GRID, N=8).mat)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_pi_adjoint_for_unitary_parameter():
    # for imaginary s the representation is unitary, so pi applied to the
    # conjugate-reflected function is the adjoint operator
    p = reps.SpectralParam.principal(1.0)
    f = _witness(1)

    def reflected(gs):
        gs = np.asarray(gs, dtype=float)
        inv = groups.J @ np.swapaxes(gs, -1, -2) @ groups.J
        return np.conj(f(inv))

    f_star = equivariant.EquivariantFn(1, 1, reflected, support=f.support)
    grid = character.HaarGrid()
    op = character.pi_of_f(p, f, grid, N=10).mat
    op_star = character.pi_of_f(p, f_star, grid, N=10).mat
    scale = np.max(np.abs(op))
    # the two sides integrate over the grid and its image under inversion,
    # so they agree only to quadrature accuracy (2.4e-4 at this grid,
    # halving under refinement)
    assert np.max(np.abs(op_star - op.conj().T)) / scale < 1e-3


def _pi_per_node(s, f, grid, N, nodes, rhs_index):
    # reference for character.pi_of_f: the cocycle runs on every grid
    # element, and each node contributes w f(g) <rho(g) e_n, e_m> directly
    gs = grid.elements()
    fvals = np.asarray(f(gs), dtype=complex)
    active = np.abs(fvals) > 0.0
    (mult,), theta_out = reps._induced_nodes(((1.0 + s) / 2.0,), gs[active], nodes)
    wf = grid.node_weight * fvals[active]
    S = np.empty((nodes, 2 * N + 1), dtype=complex)
    for idx, n in enumerate(range(-N, N + 1)):
        S[:, idx] = wf @ (mult * np.exp(1j * n * theta_out))
    rhs = wf @ reps._coefficients((mult,), theta_out, rhs_index, rhs_index)[0]
    return _dense_dft(N, nodes) @ S, rhs


def _dense_dft(N, nodes):
    # (2N+1, nodes) matrix from values on the uniform nodes to the
    # coefficients |n| <= N, written out as the reference for the FFT
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    return np.exp(-1j * np.outer(np.arange(-N, N + 1), thetas)) / nodes


def test_pi_of_f_matches_dense_dft_reference():
    # every grid node contributes w f(g) rho(g) with rho(g) = P diag(mult) C
    # built from dense DFT matrices: no phase recurrence, no FFT, no per-row
    # cocycle
    s, N = 1.0j, 8
    f = _witness(1)
    grid = character.HaarGrid(nt=16, nu=16, ntheta=32)
    op = character.pi_of_f(reps.SpectralParam.principal(1.0), f, grid, N)
    gs = grid.elements()
    fvals = np.asarray(f(gs), dtype=complex)
    active = np.abs(fvals) > 0.0
    count = 4 * N + 4
    (mult,), theta_out = reps._induced_nodes(((1.0 + s) / 2.0,), gs[active], count)
    columns = mult[..., None] * np.exp(1j * theta_out[..., None] * np.arange(-N, N + 1))
    ref = _dense_dft(N, count) @ np.einsum("g,gjn->jn", grid.node_weight * fvals[active], columns)
    assert np.max(np.abs(op.mat - ref)) < 1e-13 * np.max(np.abs(ref))


def _off_type(f):
    # declared of bi-type (1, 1), but its value also varies with theta2 at
    # frequency 2, so pi(f) spreads beyond the row of isotype -1
    def values(gs):
        _, _, theta2 = groups._polar(np.asarray(gs, dtype=float))
        return f(gs) * (1.0 + 0.5 * np.cos(2.0 * theta2))

    return equivariant.EquivariantFn(1, 1, values, support=f.support)


@pytest.mark.parametrize("off_type, min_offrow", [(False, 0.0), (True, 0.05)],
                         ids=["witness", "off_type"])
def test_pi_of_f_matches_per_node_reference(off_type, min_offrow):
    # pi_of_f runs the cocycle once per (t, u) row; the per-node reference
    # runs it on every element, so agreement pins the row identity without
    # any assumption on f.  The off-type case keeps its off-row mass (0.09
    # here, against 0.02 for the witness alone).
    f = _off_type(_witness(1)) if off_type else _witness(1)
    s, N, nodes = 1.0j, 8, 36
    p = reps.SpectralParam.principal(1.0)
    grid = character.HaarGrid(nt=16, nu=16, ntheta=40)
    op = character.pi_of_f(p, f, grid, N)
    ref_mat, ref_rhs = _pi_per_node(s, f, grid, N, nodes, rhs_index=-1)
    assert 0 < op.active_rows <= op.support_rows < grid.nt * grid.nu
    assert np.max(np.abs(op.mat - ref_mat)) < 1e-12 * np.max(np.abs(ref_mat))
    assert abs(op.coefficient_integral - ref_rhs) < 1e-12 * abs(ref_rhs)
    off = op.offrow_mass()
    ref_off = dataclasses.replace(op, mat=ref_mat).offrow_mass()
    assert abs(off - ref_off) < 1e-12
    assert off > min_offrow


def test_pi_of_f_truncation_warning_names_the_caller():
    # at N = 1 the witness's isotype -1 is an edge row of the truncation; the
    # character checks build pi(f) with pi_of_f and warn at their caller's line
    p = reps.SpectralParam.principal(1.0)
    for call in (lambda: character.pi_of_f(p, _witness(1), SMALL_GRID, 1),
                 lambda: character.char_identity_check(p, 1, _witness(1), grid=SMALL_GRID, N=1),
                 lambda: character.corollary_check(p, -1, _witness(1), grid=SMALL_GRID, N=1)):
        with pytest.warns(TruncationWarning, match="top-mode rows") as record:
            call()
        assert len(record) == 1 and record[0].filename == __file__


@pytest.mark.parametrize("N", [0, 1])
def test_pi_of_f_top_mode_fraction_counts_each_row_once(N):
    # at N <= 1 the rows of the modes |n| >= N - 1 are all of pi(f), each
    # counted once: fraction 1, not the 2 of overlapping edge slices
    with pytest.warns(TruncationWarning, match=r"fraction 1\.00e\+00"):
        character.pi_of_f(reps.SpectralParam.principal(1.0), _witness(0), SMALL_GRID, N)


def test_declared_support_is_checked():
    # the witness lives on radii (0.3, 0.9); declaring (0, 0.1) would drop
    # every row it is nonzero on, and the spot check at the skipped row
    # bases refuses it instead
    honest = _witness(1)
    dishonest = equivariant.EquivariantFn(1, 1, honest.evaluator, support=(0.0, 0.1))
    p = reps.SpectralParam.principal(1.0)
    match = "outside its declared support"
    with pytest.raises(DomainError, match=match):
        character.pi_of_f(p, dishonest, SMALL_GRID, N=8)
    with pytest.raises(DomainError, match=match):
        character.char_identity_check(p, 1, dishonest, grid=SMALL_GRID, N=8)
    with pytest.raises(DomainError, match=match):
        character.integrate_G(dishonest, SMALL_GRID)
    modulus = equivariant.EquivariantFn(0, 0, lambda gs: np.abs(honest(gs)), support=honest.support)
    pruned = character.integrate_G(modulus, SMALL_GRID)
    full = character.integrate_G(modulus.evaluator, SMALL_GRID)
    assert pruned.real > 0.0 and abs(pruned - full) <= 1e-13 * abs(full)


def test_pi_validation():
    f = _witness(1)
    with pytest.raises(DomainError):
        character.pi_of_f(reps.SpectralParam.trivial(), f, SMALL_GRID, N=8)
    lopsided = equivariant.EquivariantFn(1, 2, lambda gs: np.ones(np.asarray(gs).shape[:-2]))
    with pytest.raises(DomainError):
        character.pi_of_f(reps.SpectralParam.principal(1.0), lopsided, SMALL_GRID, N=8)
    with pytest.raises(DomainError, match="truncation N must be >= 0"):
        character.pi_of_f(reps.SpectralParam.principal(1.0), f, SMALL_GRID, N=-1)


# ---------------------------------------------------------------------------
# character identity
# ---------------------------------------------------------------------------

def test_char_identity_principal():
    res = character.char_identity_check(reps.SpectralParam.principal(1.0), 1,
                                        _witness(1), grid=SMALL_GRID, N=12)
    assert res.rel_err < 0.02
    assert res.offrow_mass < 1e-2
    assert abs(res.lhs_trace) > 0.1


def test_char_identity_complementary_radial():
    res = character.char_identity_check(reps.SpectralParam.complementary(0.5), 0,
                                        _witness(0), grid=SMALL_GRID, N=12)
    assert res.rel_err < 0.02


def test_char_identity_empty_isotype_case():
    f = _witness(1)
    res = character.char_identity_check(reps.SpectralParam.discrete(4, 1), 1,
                                        f, grid=SMALL_GRID, N=12)
    lhs_mag, rhs_mag = abs(res.lhs_trace), abs(res.rhs_integral)
    assert lhs_mag < 1e-3
    assert rhs_mag == 0.0
    norm_f = float(np.real(character.integrate_G(
        equivariant.EquivariantFn(0, 0, lambda gs: np.abs(f(gs)), support=f.support),
        SMALL_GRID)))
    assert res.block_norm < 1e-3 * norm_f


def test_char_identity_discrete_populated_isotype():
    # D+2 with n = -1: the opposite isotype 1 lies on the ladder, so the
    # identity is the nontrivial matrix-coefficient statement
    res = character.char_identity_check(reps.SpectralParam.discrete(2, 1), -1,
                                        _witness(-1), grid=SMALL_GRID, N=12)
    assert abs(res.rhs_integral) > 1e-4
    assert res.rel_err < 0.02


def test_char_identity_rhs_is_the_pi_of_f_integral():
    # the right side is pi_of_f's coefficient integral bit for bit when -1 is
    # a K-type of p, and 0 for D(4, +), whose ladder misses it
    f = _witness(1)
    for p, populated in ((reps.SpectralParam.principal(1.0), True),
                         (reps.SpectralParam.discrete(2, -1), True),
                         (reps.SpectralParam.discrete(4, 1), False)):
        res = character.char_identity_check(p, 1, f, grid=SMALL_GRID, N=12)
        integral = character.pi_of_f(p, f, SMALL_GRID, 12).coefficient_integral
        assert abs(integral) > 1e-4
        expected = integral if populated else 0j
        assert np.complex128(res.rhs_integral).tobytes() == np.complex128(expected).tobytes()


def test_corollary_matches_relabeled_identity():
    p = reps.SpectralParam.principal(1.0)
    f = _witness(-1)
    a = character.corollary_check(p, 1, f, grid=SMALL_GRID, N=12)
    b = character.char_identity_check(p, -1, f, grid=SMALL_GRID, N=12)
    assert abs(a.lhs_trace - b.lhs_trace) < 1e-6
    assert abs(a.rhs_integral - b.rhs_integral) < 1e-6


def test_corollary_type_validation():
    with pytest.raises(DomainError):
        character.corollary_check(reps.SpectralParam.principal(1.0), 1,
                                  _witness(1), grid=SMALL_GRID, N=8)


def test_char_identity_isotype_outside_truncation():
    # the truncated trace cannot see isotype -n when |n| > N: the induced
    # check used to report rel_err ~ 1 and the ladder check a vacuous rhs = 0
    f = _witness(10)
    for p in (reps.SpectralParam.principal(1.0), reps.SpectralParam.discrete(2, 1)):
        with pytest.raises(DomainError):
            character.char_identity_check(p, 10, f, grid=SMALL_GRID, N=8)
    with pytest.raises(DomainError):
        character.corollary_check(reps.SpectralParam.principal(1.0), -10, f,
                                  grid=SMALL_GRID, N=8)


def test_char_identity_type_validation():
    with pytest.raises(DomainError):
        character.char_identity_check(reps.SpectralParam.principal(1.0), 2,
                                      _witness(1), grid=SMALL_GRID, N=8)


# ---------------------------------------------------------------------------
# K-type indices and truncations
# ---------------------------------------------------------------------------

_RHO_I = reps.SpectralParam.principal(1.0)
_INDEX_GRID = character.HaarGrid(nt=16, nu=16, ntheta=32)


def _char_sides(res):
    return [res.lhs_trace, res.rhs_integral, res.rel_err, res.offrow_mass]


# each entry at the index or truncation k, named as its DomainError names it
_INTEGER_ENTRIES = {
    "matcoef_n": ("matcoef", lambda k: reps.matcoef(_RHO_I, _G, k, 1)),
    "matcoef_m": ("matcoef", lambda k: reps.matcoef(_RHO_I, _G, 1, k)),
    "rep_matrix": ("rep_matrix", lambda k: reps.rep_matrix(_RHO_I, _G, 4 * k)),
    "discrete_ladder_leakage": ("discrete_ladder_leakage",
                                lambda k: reps.discrete_ladder_leakage(2, 1, _G, 16 * k)),
    "KFourierVector": ("KFourierVector", lambda k: reps.KFourierVector(k, np.arange(3)).c),
    "basis_N": ("KFourierVector", lambda k: reps.KFourierVector.basis(2 * k, 0).c),
    "basis_n": ("KFourierVector.basis", lambda k: reps.KFourierVector.basis(2, k).c),
    "contains": ("KTypeSet.contains", lambda k: reps.k_types(_RHO_I).contains(k)),
    "tau_spherical_set": ("tau_spherical_set",
                          lambda k: [types.label for types in reps.tau_spherical_set(k)]),
    "separation_witness": ("separation_witness", lambda k: _witness(k)(_G)),
    "EquivariantFn": ("EquivariantFn n_left", lambda k: character.pi_of_f(
        _RHO_I, equivariant.EquivariantFn(k, k, _witness(1).evaluator, (0.3, 0.9)), _INDEX_GRID,
        4).mat),
    "project_biequivariant": ("project_biequivariant",
                              lambda k: equivariant.project_biequivariant(_witness(1), k,
                                                                          nodes=64)(_G)),
    "right_isotype_project": ("right_isotype_project",
                              lambda k: equivariant.right_isotype_project(_witness(1), k,
                                                                          nodes=64)(_G)),
    "gram_min_eig": ("gram_min_eig", lambda k: equivariant.gram_min_eig([_RHO_I], k).gram),
    "pi_of_f": ("pi_of_f", lambda k: character.pi_of_f(_RHO_I, _witness(1), _INDEX_GRID,
                                                       4 * k).mat),
    "char_identity_check_n": ("char_identity_check", lambda k: _char_sides(
        character.char_identity_check(_RHO_I, k, _witness(1), grid=_INDEX_GRID, N=4))),
    "char_identity_check_N": ("char_identity_check", lambda k: _char_sides(
        character.char_identity_check(_RHO_I, 1, _witness(1), grid=_INDEX_GRID, N=4 * k))),
}


def _same_bits(a, b):
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, str):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("entry", list(_INTEGER_ENTRIES))
def test_indices_and_truncations_must_be_integers(entry):
    # a fractional index or truncation used to give a wrong number (matcoef
    # at n = 1.5, a gram at n = 1.5, the projectors at 1.5) or a raw
    # TypeError, IndexError or ValueError; a numpy integer is an integer
    name, run = _INTEGER_ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        with pytest.raises(DomainError, match=name):
            run(1.5)
        assert _same_bits(run(np.int64(1)), run(1))


@pytest.mark.parametrize("run", [
    lambda: reps.rep_matrix(_RHO_I, _G, -1),
    lambda: reps.KFourierVector.basis(-1, 0),
    lambda: reps.discrete_ladder_leakage(2, 1, _G, -1),
], ids=["rep_matrix", "basis", "discrete_ladder_leakage"])
def test_negative_truncation_is_a_domain_error(run):
    # rep_matrix at N = -1 used to raise numpy's "negative dimensions" ValueError
    with pytest.raises(DomainError, match="truncation N must be >= 0"):
        run()
