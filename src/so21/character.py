"""Haar quadrature over the group, the smoothed operator pi(f), and the
numerical verification of the character-distribution identity.

The integration grid lives in the coordinates g = a_t n_u k_theta on the box
T_BOX x U_BOX x [0, 2 pi) = [-3, 3] x [-4, 4] x [0, 2 pi).  Haar measure in
these coordinates is dt du dtheta/(2 pi) with constant density (see
:func:`so21.groups.haar_density`); the box is chosen so that the compactly
supported test functions vanish well inside it.

For a test function f of bi-type (n, n), the operator

    pi(f) = integral of f(g) rho_s(g) dg

is assembled as a full truncated matrix on the Fourier basis, so that the
predicted collapse of its range onto the single isotype index -n is an
observed outcome rather than an input assumption.  The trace of that matrix
is then compared against the integral of f times the diagonal matrix
coefficient at (-n, -n), which is the character identity under test.

The quadrature works on whole (t, u) rows, in :func:`_chunks`, and
:func:`_grid_sum` sums f over their nodes a_t n_u k_theta, the row bases
times the rotations (:func:`_node_values`).  A radial integrand reads
their polar entries p = g13 + i g23 and q = g31 - i g32
(:func:`so21.groups._polar_entries`), and K acts on them by phases: k_theta
fixes the third column, so every node of a row has its base's p, hence
its polar radius and e^{i theta1}, and its q is the base's times
e^{i theta}.  So the radius, the bump and e^{i theta1} come once per row
and e^{i theta2} by one complex product per node, with no angle and no
3x3 node built; any other f gets the element stacks.  f is evaluated
only on the rows inside its declared support band, picked by
:func:`so21.equivariant._near_band`, the band test of f's own radial kernel;
f must vanish at the base of every skipped row, or DomainError is raised.
The cocycle runs once per row: if k_phi a_t n_u = a' n' k_theta', then
k_phi (a_t n_u k_theta) = a' n' k_{theta' + theta}.  Both identities hold for
every element, so f is evaluated at every theta node of every evaluated row,
and the range collapse stays observed.  The cocycle, the mode sums and the
multiplier at :attr:`so21.reps.SpectralParam.exponent` are the kernels of
:mod:`so21.reps`, looked up on that module at each call.
"""

from __future__ import annotations

import numbers
import sys
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import groups, reps
from .errors import DomainError, SupportWarning, TruncationWarning
from .groups import (IwasawaCoords, _polar_radius, cartan_radius, haar_density, make_a, make_k,
                     make_n, recompose)
from .equivariant import BumpProfile, EquivariantFn, _near_band, _on_nodes, _Radial, _read_only

# The (t, u) box every grid covers; only the node counts vary.
T_BOX = (-3.0, 3.0)
U_BOX = (-4.0, 4.0)
BOUNDARY_TOL = 1e-12
BOUNDARY_SAMPLES = 24
REFINE_FACTOR = 1.5
# The Haar oracle's full and fast grid shapes (not grids, which cache rows) and translations
ORACLE_GRID, FAST_ORACLE_GRID = (96, 96, 128), (48, 48, 64)
ORACLE_TRANSLATIONS = {"a(0.3)": _read_only(make_a(0.3)), "n(0.5)": _read_only(make_n(0.5)),
                       "k(1)": _read_only(make_k(1.0))}
CHAR_TRUNC = 16  # the truncation N of pi(f) in the character checks
# Nodes per chunk of a grid loop (whole rows, at least one).  A chunk's
# polar entries or elements and its integrand's temporaries then stay in
# cache: on a 2-core AVX-512 Xeon, one BLAS thread, the 96x96x128 Haar
# oracle on polar entries took 28.1, 24.4, 24.5 and 31.3 ms with 4096-,
# 8192-, 16384- and 32768-node chunks (medians of 20 interleaved calls).
_CHUNK = 8192


@dataclass(frozen=True)
class HaarGrid:
    """Tensor quadrature grid for Haar integration in a_t n_u k_theta coordinates.

    Midpoint nodes in t and u (the integrands are compactly supported, so
    the rule converges superalgebraically), uniform periodic nodes in
    theta.  Weights carry the constant Haar density and the normalized
    rotation measure dtheta/(2 pi).  The box is T_BOX x U_BOX.  Every node
    count must be an integer (Python or numpy) of at least 1.
    """

    nt: int = 48
    nu: int = 48
    ntheta: int = 96

    def __post_init__(self):
        if not all(isinstance(count, numbers.Integral) for count in self.shape):
            raise DomainError(f"grid node counts must be integers, got {self.shape}")
        if min(self.shape) < 1:
            raise DomainError(f"grid node counts must be >= 1, got {self.shape}")

    def refine(self) -> "HaarGrid":
        """Grid with every node count scaled up by REFINE_FACTOR."""
        return HaarGrid(*(int(np.ceil(count * REFINE_FACTOR)) for count in self.shape))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nt, self.nu, self.ntheta)

    @property
    def node_weight(self) -> float:
        """Weight of one node: cell volume times density over 2 pi."""
        dt = (T_BOX[1] - T_BOX[0]) / self.nt
        du = (U_BOX[1] - U_BOX[0]) / self.nu
        base = IwasawaCoords(0.0, 0.0, 0.0)
        return dt * du * haar_density(base) / self.ntheta

    def total_mass(self) -> float:
        """Integral of the constant 1 over the box (analytically Dt * Du)."""
        return self.node_weight * self.nt * self.nu * self.ntheta

    def coordinate_arrays(self):
        ts = T_BOX[0] + ((np.arange(self.nt) + 0.5) / self.nt) * (T_BOX[1] - T_BOX[0])
        us = U_BOX[0] + ((np.arange(self.nu) + 0.5) / self.nu) * (U_BOX[1] - U_BOX[0])
        return ts, us, groups._uniform_angles(self.ntheta)

    def nodes(self):
        """Flattened coordinate arrays (T, U, TH) of all grid nodes."""
        ts, us, thetas = self.coordinate_arrays()
        T, U, TH = np.meshgrid(ts, us, thetas, indexing="ij")
        return T.ravel(), U.ravel(), TH.ravel()

    def elements(self):
        """Stack of group elements at all nodes, in flat-index order."""
        return recompose(IwasawaCoords(*self.nodes()))

    @cached_property
    def _row_bases(self):
        """Elements a_t n_u of the (t, u) rows, in flat row order; read-only.

        The node at (row, k) is ``_row_bases[row] @ make_k(theta_k)``,
        bit for bit the element :func:`so21.groups.recompose` builds.  Built
        on first use and kept for the life of the grid.
        """
        ts, us, _ = self.coordinate_arrays()
        T, U = np.meshgrid(ts, us, indexing="ij")
        return _read_only(make_a(T.ravel()) @ make_n(U.ravel()))

    @cached_property
    def _rotations(self):
        """Rotations k_theta of the theta nodes, in node order; read-only.

        Built on first use and kept for the life of the grid.
        """
        return _read_only(make_k(self.coordinate_arrays()[2]))

    @cached_property
    def boundary_elements(self):
        """Elements on the four t/u faces of the box, BOUNDARY_SAMPLES per axis; read-only.

        Built on first use and kept for the life of the grid.
        """
        ts = np.linspace(*T_BOX, BOUNDARY_SAMPLES)
        us = np.linspace(*U_BOX, BOUNDARY_SAMPLES)
        thetas = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_SAMPLES, endpoint=False)
        faces = ([np.meshgrid([t_edge], us, thetas, indexing="ij") for t_edge in T_BOX]
                 + [np.meshgrid(ts, [u_edge], thetas, indexing="ij") for u_edge in U_BOX])
        T, U, TH = (np.concatenate([face[axis].ravel() for face in faces]) for axis in range(3))
        return _read_only(recompose(IwasawaCoords(T, U, TH)))


def _caller_stacklevel():
    """The warnings `stacklevel` of the first frame outside this module above the caller."""
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _check_support(f, grid: HaarGrid):
    boundary = np.max(np.abs(f(grid.boundary_elements)))
    if boundary > BOUNDARY_TOL:
        area = 2.0 * ((U_BOX[1] - U_BOX[0]) + (T_BOX[1] - T_BOX[0]))
        warnings.warn(
            f"integrand is {boundary:.2e} on the box boundary "
            f"(boundary mass estimate {boundary * area:.2e}); "
            "enlarge the grid box or shrink the support",
            SupportWarning,
            stacklevel=_caller_stacklevel(),
        )


def _chunks(rows, count):
    """`rows` in chunks of ``_CHUNK // count`` whole rows of `count` nodes (at least one row).

    An empty selection gives one empty chunk.
    """
    step = max(1, _CHUNK // count)
    for start in range(0, max(rows.size, 1), step):
        yield rows[start:start + step]


def _node_values(f, bases, rotations, rows):
    """f at the nodes ``bases[row] @ rotations[k]`` of `rows`, one (rows, m) array per chunk.

    Each chunk holds whole rows (:func:`_chunks`), evaluated by
    :func:`so21.equivariant._on_nodes`: a radial integrand reads the polar
    entries of its nodes, any other callable gets their element stack, the
    (rows, m, 3, 3) view :func:`so21.equivariant._products` gives, bit for
    bit the batched 3x3 products.  On the row bases a_t n_u and the
    rotations k_theta of a grid those nodes are :meth:`HaarGrid.elements`
    on those rows.
    """
    evaluate = _on_nodes(f, rotations)
    for chunk in _chunks(rows, rotations.shape[0]):
        yield evaluate(bases[chunk])


def _grid_sum(f, grid, bases, rotations, rows):
    """Node weight times the sum of f over the :func:`_node_values` of `rows`, in chunk order."""
    partials = [np.sum(values) for values in _node_values(f, bases, rotations, rows)]
    return grid.node_weight * np.sum(np.asarray(partials))


def _support_rows(f, bases):
    """Rows of `bases` f is evaluated on: those in its `support` band, else all of them.

    The band test is :func:`so21.equivariant._near_band`, the one f's own
    radial kernel runs.  The support is checked, not trusted: f is
    evaluated at every skipped base (:func:`so21.equivariant._on_nodes`),
    and a nonzero value raises DomainError.  A rotation fixes the third
    column, so on the grid ``bases[row] @ k_theta`` every node of a row has
    its base's radius.
    """
    support = getattr(f, "support", None)
    if support is None:
        return np.arange(bases.shape[0])
    near = _near_band(bases, support)
    skipped = bases[~near]
    off = np.flatnonzero(np.asarray(_on_nodes(f)(skipped)) != 0.0)
    if off.size:
        raise DomainError(f"f is nonzero at polar radius {_polar_radius(skipped[off[0]]):.6g} "
                          f"outside its declared support {tuple(support)}")
    return np.flatnonzero(near)


def integrate_G(f, grid: HaarGrid) -> complex:
    """Haar integral of f over the grid box.

    f must accept stacked (..., 3, 3) elements and should vanish on the box
    boundary; a non-negligible boundary value triggers a SupportWarning
    with a crude mass estimate.  f is evaluated only on the rows of its
    `support` band, when it has one (see :func:`_support_rows`).
    """
    _check_support(f, grid)
    bases = grid._row_bases
    return complex(_grid_sum(f, grid, bases, grid._rotations, _support_rows(f, bases)))


@dataclass(frozen=True)
class OperatorMatrix:
    """Truncated matrix of pi(f) with the metadata that produced it.

    `coefficient_integral` is the integral of f times <rho(g) e_{-n}, e_{-n}>
    on the node data of the matrix, None when |n| > N.  `support_rows`
    counts the (t, u) grid rows f was evaluated on and `active_rows` those
    where f is nonzero at some theta node, the rows the cocycle ran on.
    """

    mat: np.ndarray = field(repr=False)
    param: reps.SpectralParam
    n: int
    grid: HaarGrid
    N: int
    coefficient_integral: complex | None
    support_rows: int
    active_rows: int

    def offrow_mass(self) -> float:
        """Fraction of entry mass outside the row indexed -n."""
        mass = np.abs(self.mat).sum()
        if mass == 0.0:
            return 0.0
        if abs(self.n) > self.N:
            return 1.0
        return float(1.0 - np.abs(self.mat[-self.n + self.N]).sum() / mass)


def pi_of_f(
    p: reps.SpectralParam,
    f: EquivariantFn,
    grid: HaarGrid,
    N: int,
) -> OperatorMatrix:
    """Matrix of the smoothed operator pi(f) on the truncated Fourier basis.

    Works in the induced space of any non-trivial p: V(m - 1) for D(m, +-).
    Requires a truncation N >= 0 and a test function of equal bi-type (n, n)
    supported inside the grid box.  The columns of the result concentrate
    on the row indexed -n; :meth:`OperatorMatrix.offrow_mass` quantifies the
    leftover.  The quadrature runs on the 4N + 4 nodes of
    :func:`so21.reps._node_count`.  A TruncationWarning, at the first line
    outside this module, flags top-mode rows with over 1e-3 of the mass.
    """
    if p.kind == "trivial":
        raise DomainError("the trivial representation is not modeled as an operator here")
    if f.n_left != f.n_right:
        raise DomainError("pi_of_f needs a test function of equal bi-type (n, n)")
    if N < 0:
        raise DomainError(f"truncation N must be >= 0, got {N}")
    n = f.n_left
    _check_support(f, grid)
    rows = _support_rows(f, grid._row_bases)
    fvals = np.concatenate([np.asarray(values, dtype=complex)
                            for values in _node_values(f, grid._row_bases, grid._rotations, rows)])
    fvals = fvals.reshape(-1, grid.ntheta)
    on = np.any(np.abs(fvals) > 0.0, axis=1)
    # k_phi a_t n_u = a' n' k_theta' gives k_phi (a_t n_u k_theta) = a' n' k_{theta' + theta}:
    # every node of a row has its row base's multiplier and theta' shifted by
    # theta.  So the cocycle runs once per active row, and the theta sum folds
    # into F[row, n] = sum_k w f(row, k) e^{i n theta_k}.  f is evaluated and
    # summed at every theta node of its support rows, so no angular symmetry
    # of f is assumed and the range collapse stays observed.
    (mult,), theta_out = reps._induced_nodes((p.exponent,), grid._row_bases[rows[on]],
                                             reps._node_count(N, None))
    thetas = grid.coordinate_arrays()[2]
    F = (grid.node_weight * fvals[on]) @ groups.tau(np.arange(-N, N + 1), thetas[:, None])
    mat = reps._mode_sums(F, mult, theta_out, N)
    integral = (complex(F[:, -n + N] @ reps._coefficients((mult,), theta_out, -n, -n)[0])
                if abs(n) <= N else None)
    total = np.abs(mat).sum()
    # the rows of the modes |n| >= N - 1, each counted once
    top = np.abs(np.arange(-N, N + 1)) >= N - 1
    edge = np.abs(mat[top]).sum() / total if total else 0.0
    if edge > 1e-3:
        warnings.warn(f"top-mode rows carry fraction {edge:.2e} of pi(f); increase the truncation",
                      TruncationWarning, stacklevel=_caller_stacklevel())
    return OperatorMatrix(mat, p, n, grid, N, integral, rows.size, int(np.count_nonzero(on)))


@dataclass(frozen=True)
class CharIdentityResult:
    """Both sides of the character identity plus diagnostics.

    For a discrete (ladder) parameter, `block_norm` is the operator 2-norm
    of pi(f) restricted to the ladder subspace; it stays None for induced
    kinds.  `support_rows` and `active_rows` are those of :class:`OperatorMatrix`.
    """

    lhs_trace: complex
    rhs_integral: complex
    rel_err: float
    offrow_mass: float
    grid: HaarGrid
    N: int
    active_rows: int
    support_rows: int
    seconds: float
    block_norm: float | None = None

    @property
    def magnitudes(self) -> tuple[float, float]:
        return abs(self.lhs_trace), abs(self.rhs_integral)

    @property
    def grid_rows(self) -> int:
        """Number of (t, u) rows of the grid, nt * nu."""
        return self.grid.nt * self.grid.nu


def _relative_gap(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def char_identity_check(
    p: reps.SpectralParam,
    n: int,
    f: EquivariantFn,
    grid: HaarGrid | None = None,
    N: int | None = None,
) -> CharIdentityResult:
    """Verify trace pi(f) = integral of f times the (-n, -n) matrix coefficient.

    f must be of bi-type (n, n).  The trace of :func:`pi_of_f` over the
    K-types of p inside the truncation (all of them for an induced kind, the
    ladder for a discrete one) is compared with its
    :attr:`~OperatorMatrix.coefficient_integral`.  When the K-types miss the
    isotype -n the right side is 0 and the trace must come out numerically
    zero.  The isotype -n must lie inside the truncation, |n| <= N, with
    N >= 0; N defaults to CHAR_TRUNC and the grid to :class:`HaarGrid`'s.
    """
    N = CHAR_TRUNC if N is None else N
    if (f.n_left, f.n_right) != (n, n):
        raise DomainError(f"test function has bi-type ({f.n_left}, {f.n_right}), expected ({n}, {n})")
    if abs(n) > N >= 0:
        raise DomainError(f"isotype {-n} lies outside the truncation [-{N}, {N}]")
    grid = grid if grid is not None else HaarGrid()
    start = time.perf_counter()
    op = pi_of_f(p, f, grid, N)
    block = reps.k_types(p).contains(np.arange(-N, N + 1))
    rhs = op.coefficient_integral if block[-n + N] else 0.0 + 0.0j
    restricted = op.mat[np.ix_(block, block)]
    lhs = complex(np.trace(restricted))
    block_norm = None
    if not p.is_induced:
        block_norm = float(np.linalg.norm(restricted, ord=2)) if restricted.size else 0.0
    seconds = time.perf_counter() - start
    return CharIdentityResult(lhs, rhs, _relative_gap(lhs, rhs), op.offrow_mass(), grid, N,
                              op.active_rows, op.support_rows, seconds, block_norm)


def corollary_check(p: reps.SpectralParam, n: int, f: EquivariantFn, grid: HaarGrid | None = None,
                    N: int | None = None) -> CharIdentityResult:
    """Character identity for a tau_n-spherical p against a bi-type (-n, -n) f.

    Compares trace pi(f) with the integral of f times the (n, n) matrix
    coefficient; by relabeling this is the same quantity as
    char_identity_check(p, -n, f), which refuses any other bi-type.
    """
    return char_identity_check(p, -n, f, grid=grid, N=N)


# ---------------------------------------------------------------------------
# Haar certification oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HaarCheckResult:
    """Worst translation-invariance defects of the implemented Haar measure, and its normalization.

    `normalization_gap` is the base integral's relative gap to the oracle's
    integral in K A K coordinates (`_ORACLE_KAK_INTEGRAL`), which
    translation defects cannot see: a constant factor of the measure
    cancels in them.  `worst` is the translation defects alone.
    `evaluated_rows` counts the (t, u) grid rows some integrand was
    evaluated on (their union), `integrand_rows` the rows summed over all
    1 + 2 len(translations) integrands, and `seconds` the time of the check.
    """

    base_integral: float
    worst_left: float
    worst_right: float
    per_translation: dict
    normalization_gap: float | None = None
    evaluated_rows: int | None = None
    integrand_rows: int | None = None
    seconds: float | None = None

    @property
    def worst(self) -> float:
        return max(self.worst_left, self.worst_right)


_ORACLE_PROFILE = BumpProfile(0.6, 0.35)


def _oracle_value(b, z1, z2):
    """b (1.3 + Re(z1 z2)) (0.7 + 0.3 Im(conj(z1)^2 z2)) of the polar phases.

    b and z1 come per row as (rows, 1), z2 as (rows, m).  conj(z1)^2 goes
    left: numpy swaps a temporary right operand to the left to reuse it,
    which with fused multiply-adds can move the last bit of a complex
    product.
    """
    return b * (1.3 + (z1 * z2).real) * (0.7 + 0.3 * (np.conj(z1) ** 2 * z2).imag)


# The oracle's generic smooth function of no K-type, zero outside the polar
# radii of its `.support`: a radial integrand (see
# :class:`so21.equivariant._Radial`) on stacks and on polar entries.
_oracle_test_function = _Radial(_ORACLE_PROFILE, _oracle_value)

# The oracle's Haar integral from K A K coordinates.  With g = k_theta1 a_r
# k_theta2 the Haar measure of dt du dtheta/(2 pi) is sinh r dr dtheta1
# dtheta2/(2 pi) (Knapp, Ch. V), so the integral of b(r) value(z1, z2) is
# 2 pi int b(r) sinh r dr (0.6276650800777, 64 nodes of
# so21.equivariant._legendre_rule over the band; 128 agree to 2e-12) times
# the K x K mean 0.91 of value(1, z1, z2).  A literal that the tests
# recompute: the rule's eigensolver, loaded here, would add 2.7 MB to the
# peak RSS of a process that runs only Haar checks.
_ORACLE_KAK_INTEGRAL = 0.5711752228707428


def haar_invariance_check(grid: HaarGrid | None = None, translations=None) -> HaarCheckResult:
    """Certify the Haar density by its translation-invariance defects and its normalization.

    Integrates f(g0 g) and f(g g0) over the grid for each translation g0
    and reports the relative deviation from the untranslated integral.
    f is a fixed generic bump supported well inside the default box;
    the defaults are ORACLE_GRID and ORACLE_TRANSLATIONS.  The
    untranslated integral is also compared with its K A K value
    (`_ORACLE_KAK_INTEGRAL`), which fixes the measure's constant.

    Each integrand is a grid of its own, evaluated on its own rows (see
    :func:`_chunks`).  The untranslated integral is the grid itself.  The
    left translate g0 (a_t n_u k_theta) = (g0 a_t n_u) k_theta is the grid
    with row bases g0 a_t n_u; k_theta fixes the third column, so every
    node of a row has its translated base's radius.  Both take exactly the
    rows in f's band, checked as :func:`integrate_G` checks them: a nonzero
    value on a skipped row raises DomainError.  The right translate
    (a_t n_u k_theta) g0 is the grid with right factors k_theta g0, whose
    nodes leave their row's radius unless g0 is a rotation (then the
    factors fix e3 and the row route of
    :func:`so21.groups._polar_entries` serves, as for the other
    integrands; otherwise each node reads its own polar entries); it takes
    the rows whose base radius lies within r(g0) of f's band, since with
    r(x) = d(o, x.o) and k.o = o the triangle inequality gives
    |r(B k g0) - r(B)| <= r(g0).  A grid on which f integrates to 0 (no
    node in its band) raises DomainError.
    """
    start = time.perf_counter()
    grid = grid if grid is not None else HaarGrid(*ORACLE_GRID)
    translations = ORACLE_TRANSLATIONS if translations is None else translations
    f = _oracle_test_function
    lo, hi = f.support
    bases, rotations = grid._row_bases, grid._rotations
    evaluated = []

    def integral(row_bases, row_rotations, rows):
        evaluated.append(rows)
        return float(np.real(_grid_sum(f, grid, row_bases, row_rotations, rows)))

    base = integral(bases, rotations, _support_rows(f, bases))
    if base == 0.0:
        raise DomainError(f"the oracle's test function integrates to 0 on the "
                          f"{grid.nt}x{grid.nu}x{grid.ntheta} grid ({evaluated[0].size} rows in "
                          f"its support band {tuple(f.support)}); refine the grid")
    per = {}
    for name, g0 in translations.items():
        left_bases = g0 @ bases
        left = integral(left_bases, rotations, _support_rows(f, left_bases))
        reach = float(cartan_radius(g0))
        right = integral(bases, rotations @ g0,
                         np.flatnonzero(_near_band(bases, (lo - reach, hi + reach))))
        per[name] = {"left": abs(left - base) / abs(base), "right": abs(right - base) / abs(base)}
    # a mask, not np.unique: numpy 2.4's unique imports numpy.ma on first use
    union = np.zeros(grid.nt * grid.nu, dtype=bool)
    union[np.concatenate(evaluated)] = True
    return HaarCheckResult(
        base, max((d["left"] for d in per.values()), default=0.0),
        max((d["right"] for d in per.values()), default=0.0), per,
        normalization_gap=abs(base - _ORACLE_KAK_INTEGRAL) / _ORACLE_KAK_INTEGRAL,
        evaluated_rows=int(np.count_nonzero(union)),
        integrand_rows=sum(rows.size for rows in evaluated),
        seconds=time.perf_counter() - start)
