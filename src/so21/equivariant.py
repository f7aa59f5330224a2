"""Bi-equivariant functions on the group, isotype projectors, and the
Gram-matrix certificate of linear independence for matrix coefficients.

A function f is of bi-type (n_left, n_right) when

    f(k_theta1 g k_theta2) = e^{i (n_left theta1 + n_right theta2)} f(g).

The equal-type case n_left = n_right = n is the natural test-function space
for the character identities.  Such functions are determined by their
values on the boost subgroup, which is how the separation witnesses are
built: a smooth bump in the polar radius times a power of the two polar
phases e^{i theta1} e^{i theta2}.

Those witnesses, like the Haar oracle's test function, are radial
integrands (:class:`_Radial`): b(r) times a function of the polar phases.
They read a node g only through its polar entries p = g13 + i g23 and
q = g31 - i g32 (:func:`so21.groups._polar_entries`), with sinh r = |p|,
e^{i theta1} = p / |p| and e^{i theta2} = q / |p|, and K acts on these by
phases: p(k_a g k_b) = e^{i a} p(g), q(k_a g k_b) = q(g) e^{i b}.  So the
Haar grid sums, pi(f) and the projectors, whose nodes are row bases times
rotations, hand a radial integrand one p and q per row and a phase per
node (:func:`_on_nodes`), and build no 3x3 node stack; any other function
gets its nodes as element stacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import groups, reps
from .errors import DomainError, NumericError
from .groups import _read_only, make_a, make_k

DEFAULT_PROJECTION_NODES, MIN_PROJECTION_NODES = 128, 64


def bump(x):
    """Standard smooth bump e^{-1/(1-x^2)} on |x| < 1, zero outside."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    out = np.zeros_like(x)
    np.divide(-1.0, 1.0 - x * x, out=out, where=inside)
    np.exp(out, out=out, where=inside)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Smooth compactly supported radial profile b((r - center)/width)."""

    center: float
    width: float

    def __post_init__(self):
        if not (np.isfinite(self.center) and np.isfinite(self.width)):
            raise DomainError("bump center and width must be finite")
        if self.width <= 0:
            raise DomainError("bump width must be positive")
        if self.center < 0:
            raise DomainError("bump center must be >= 0")

    def __call__(self, r):
        return bump((np.asarray(r, dtype=float) - self.center) / self.width)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)


@dataclass(frozen=True)
class EquivariantFn:
    """An evaluatable function on the group with declared left/right K-types.

    The evaluator must accept stacked (..., 3, 3) input and return an array
    of matching leading shape.  `support`, when known, is a closed interval
    of polar radii outside which the function vanishes; Haar quadrature
    evaluates f only on the grid rows inside it and checks the rest.
    """

    n_left: int
    n_right: int
    evaluator: Callable
    support: Optional[tuple[float, float]] = None

    def __post_init__(self):
        for side in ("n_left", "n_right"):
            value = groups._integer(getattr(self, side), f"EquivariantFn {side}")
            object.__setattr__(self, side, value)

    def __call__(self, g):
        return self.evaluator(np.asarray(g, dtype=float))


# Relative widening of a band test on g13^2 + g23^2 against sinh^2 of the
# band edges.  Both sides are off by a few ulps at most, and the bump is
# exactly 0 for |x| > 0.9994 (its exponent passes the underflow of exp), so
# every node where it is nonzero lies well inside the widened band.
_SQUARED_BAND_MARGIN = 1e-9


def _in_band(squared, band):
    """Mask of the sinh^2 r values `squared` whose radius r may lie in `band`.

    Compares them with sinh^2 of the band edges, widened by
    `_SQUARED_BAND_MARGIN`; no arcsinh runs.  Radii are >= 0, so a lower
    edge <= 0 admits every value from below.
    """
    lo, hi = band
    return ((squared >= np.sinh(max(lo, 0.0)) ** 2 * (1.0 - _SQUARED_BAND_MARGIN))
            & (squared <= np.sinh(hi) ** 2 * (1.0 + _SQUARED_BAND_MARGIN)))


def _near_band(stack, band):
    """Mask of the nodes of a (..., 3, 3) stack whose polar radius may lie in `band`.

    The band test :func:`_in_band` on g13^2 + g23^2 = sinh^2 r, read in place.
    """
    g13, g23 = stack[..., 0, 2], stack[..., 1, 2]
    return _in_band(g13 * g13 + g23 * g23, band)


def _on_radial_support(entries, profile, value):
    """b(r) times an angular factor on polar entries, evaluated only inside b's band.

    `entries` are :func:`so21.groups._polar_entries` of the nodes
    bases[i] @ right[k], and `profile` is b, a callable on radii with a
    finite `support` band outside which it vanishes.  The band test
    (:func:`_in_band`) runs on sinh^2 r = |p|^2; the radius, b, the polar
    phases z1 = e^{i theta1} and z2 = e^{i theta2}
    (:func:`so21.groups._polar_phases`) and `value(b, z1, z2)` run only on
    the candidates, gathered by their indices, and every other node is an
    exact +0.  When every node is a candidate nothing is gathered.  A
    candidate where b is 0 gets `value(0, z1, z2)`, a zero that may carry
    a sign.

    On the row route (right factors that fix e3, such as the rotations of
    a Haar row or a projector) the band test, the radius, b and z1 run
    once per row, as (rows, 1), and only z2 = (q / sinh r) e^{i theta_k}
    and `value` run per node, as (rows, m); off it every node is a row of
    its own.  Returns the (rows, m) values, m = 1 with no right factors.
    """
    near = _in_band(entries.squared, profile.support)
    on = ... if near.all() else np.flatnonzero(near)
    radius, z1, z2 = groups._polar_phases(entries, at=on)
    # the entries go before `value` runs, so their memory is not held with its temporaries
    del entries
    vals = value(profile(radius)[:, None], z1, z2)
    shape = (near.shape[0], near.shape[1] * vals.shape[1])
    if on is ...:
        return vals.reshape(shape)
    out = np.zeros(shape, dtype=vals.dtype)
    out.reshape(near.size, -1)[on] = vals
    return out


class _Radial:
    """A radial integrand: b(r) times `value(b, z1, z2)`, an angular factor of the polar phases.

    Callable on an unvalidated (..., 3, 3) stack, read in place, never
    copied: its polar entries (:func:`so21.groups._polar_entries`) go
    through :func:`_on_radial_support`, which evaluates only the band's
    candidate nodes; every other node is an exact +0.  A single (3, 3)
    element gives a scalar.  The grid sums, pi(f) and the projectors give
    it the polar entries of their nodes instead, through :func:`_on_nodes`.
    Hot path on internally-built grids: nothing is re-validated.
    """

    __slots__ = ("profile", "value")

    def __init__(self, profile, value):
        self.profile = profile
        self.value = value

    @property
    def support(self):
        return self.profile.support

    def __call__(self, gs):
        gs = np.asarray(gs, dtype=float)
        return _on_radial_support(groups._polar_entries()(gs), self.profile,
                                  self.value).reshape(gs.shape[:-2])[()]


def _on_nodes(f, right):
    """f at the nodes bases[i] @ right[k]: a function of the (rows, 3, 3) bases.

    It gives (rows, m) values for m right factors.  A radial
    integrand (a :class:`_Radial`, bare or as an :class:`EquivariantFn`'s
    evaluator) reads the nodes' polar entries
    (:func:`so21.groups._polar_entries`, whose route is picked here, once)
    and no node is built; any other callable gets the element stack, the
    :func:`_products` view.
    """
    radial = getattr(f, "evaluator", f)
    if not isinstance(radial, _Radial):
        return lambda bases: f(_products(bases, right))
    build = groups._polar_entries(right)
    return lambda bases: _on_radial_support(build(bases), radial.profile, radial.value)


def _power(z, k):
    """z ** k for an integer k >= 1 by binary powering: repeated products, in place where possible.

    z is a temporary the caller gives up.  numpy's complex power is several
    times slower than the products it takes: on 16384 unit phases (2-core
    AVX-512 Xeon) z ** 3 took 99 us and z ** 6 158 us against 22 and 32 us
    here, and z ** 0 58 us.  At most one array is allocated, so few fresh
    pages are mapped.
    """
    result = None
    while True:
        if k & 1:
            if result is None:
                result = z
            else:
                np.multiply(result, z, out=result)
        k >>= 1
        if not k:
            return result
        z = z * z if z is result else np.multiply(z, z, out=z)


def separation_witness(n: int, profile: BumpProfile) -> EquivariantFn:
    """A bi-type (n, n) bump supported on a band of polar radii.

    F(g) = b(radius(g)) (z1(g) z2(g))^n, with z1 = e^{i theta1} and
    z2 = e^{i theta2} the polar phases, is smooth, compactly supported, and
    constant in modulus on each double orbit of the rotation subgroup, so
    it takes different values on orbits inside versus outside the band:
    evaluating at two boosts a_x and a_y with radii on opposite sides of
    the band edge exhibits the separation directly.  For n < 0 it takes
    conj(z1 z2)^|n|, by binary powering (:func:`_power`), and n = 0 gives b
    with no power.  b and z1 come per row as (rows, 1), z2 as (rows, m);
    see :func:`_on_radial_support`.
    """
    n = groups._integer(n, "separation_witness index n")

    def value(b, z1, z2):
        if n == 0:
            return np.broadcast_to(b, z2.shape) + 0j
        phase = z1 * z2
        if n < 0:
            np.conjugate(phase, out=phase)
        return b * _power(phase, abs(n))

    return EquivariantFn(n, n, _Radial(profile, value), support=profile.support)


def _projection_angles(nodes):
    """Uniform angles of a projector and their rotations, at least MIN_PROJECTION_NODES of them."""
    thetas = groups._uniform_angles(
        groups._node_count(nodes, DEFAULT_PROJECTION_NODES, MIN_PROJECTION_NODES))
    return thetas, make_k(thetas)


def _products(left, right):
    """Every left[i] @ right[j] of a (k, 3, 3) and an (m, 3, 3) stack, as a (k, m, 3, 3) view.

    The view reads in place the 3x3 blocks of one 2-D product, the left
    factors stacked row-wise times the row-concatenation [r_0 | r_1 | ...] of
    the right ones.  Each block is bit for bit the batched 3x3 product, at
    every right-factor count the tests try (1 to 199, either layout).
    """
    columns = right.transpose(1, 0, 2).reshape(3, -1)
    product = left.reshape(-1, 3) @ columns
    return product.reshape(left.shape[0], 3, right.shape[0], 3).transpose(0, 2, 1, 3)


def _isotype_projector(f, ns, nodes=None):
    """Evaluator of the bi-type (n, n) projections of f for every n in ns.

    The returned function maps one element or a stack of shape (..., 3, 3)
    to an array of shape (len(ns), ...), whose entry i is the mean over a
    `nodes` x `nodes` tensor grid of uniform angles (periodic trapezoid) of
    e^{-i n_i (theta_a + theta_b)} f(k_a g k_b).  f is evaluated once per
    element on its nodes^2 translates F[a, b] = f(k_a g k_b), the nodes of
    the row bases k_a g and the right factors k_b (:func:`_on_nodes`); each
    coefficient is then the bilinear form e_n^T F e_n with
    e_n = e^{-i n theta} / nodes, so every isotype comes from that one
    evaluation.
    """
    thetas, rotations = _projection_angles(nodes)
    weights = groups.tau(-np.asarray(ns)[:, None], thetas) / thetas.size
    translates = _on_nodes(f, rotations)

    def value(g):
        return np.sum((weights @ translates(rotations @ g)) * weights, axis=1)

    def project(gs):
        gs = np.asarray(gs, dtype=float)
        # f runs on nodes^2 translates of each element (1.2 MB of them at 128
        # nodes), so the elements go one at a time to bound memory
        out = np.array([value(g) for g in gs.reshape(-1, 3, 3)], dtype=complex)
        return out.T.reshape(out.shape[1:] + gs.shape[:-2])

    return project


def project_biequivariant(f, n: int, nodes=None) -> EquivariantFn:
    """Project a function onto bi-type (n, n) by double rotation averaging.

    F(g) is the mean over both angles of e^{-i n (theta1 + theta2)}
    f(k_theta1 g k_theta2) on `nodes` x `nodes` uniform angles, the
    single-isotype case of :func:`_isotype_projector`.  Idempotent on
    functions already of type (n, n) and annihilates every pure type
    (m, m) with m != n.
    """
    n = groups._integer(n, "project_biequivariant index n")
    project = _isotype_projector(f, (n,), nodes)
    return EquivariantFn(n, n, lambda gs: project(gs)[0], support=getattr(f, "support", None))


def right_isotype_project(f, n: int, nodes=None):
    """Project onto the right isotype: h(x) = mean_theta e^{-i n theta} f(x k_theta).

    The result satisfies h(x k_theta) = e^{i n theta} h(x); it is the n-th
    right Fourier mode of f along the rotation subgroup.  f runs once, on
    the `nodes` right translates of every element of the stack.
    """
    n = groups._integer(n, "right_isotype_project index n")
    thetas, rotations = _projection_angles(nodes)
    phase = groups.tau(-n, thetas)
    translates = _on_nodes(f, rotations)

    def project(xs):
        xs = np.asarray(xs, dtype=float)
        values = translates(xs.reshape(-1, 3, 3))
        return np.mean(phase * values, axis=-1).reshape(xs.shape[:-2])[()]

    return project


@dataclass(frozen=True)
class GramResult:
    """Spectral summary of a Gram matrix of matrix coefficients."""

    min_eig: float
    cond: float
    gram: np.ndarray


GRAM_QUAD_NODES = 64
GRAM_REGION = (0.0, 2.0)  # the band of polar radii of the Gram certificate


@functools.cache
def _legendre_rule(nq):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count, read-only."""
    xs, ws = np.polynomial.legendre.leggauss(nq)
    return _read_only(xs), _read_only(ws)


def gram_min_eig(
    params: list[reps.SpectralParam],
    n: int,
    region: tuple[float, float] = GRAM_REGION,
) -> GramResult:
    """Smallest eigenvalue of the Gram matrix of diagonal matrix coefficients.

    For each parameter, phi_j(g) = <rho_j(g) e_n, e_n>.  The integral of
    phi_j conj(phi_k) with Haar weight over the band of polar radii in
    `region` collapses, by bi-equivariance, to the one-dimensional integral

        G_jk = 2 pi * int_region phi_j(a_r) conj(phi_k(a_r)) sinh(r) dr,

    evaluated by Gauss-Legendre quadrature; each rule is built once per
    process.  On each rule one ``reps._matcoef_batch`` call gives every
    phi_j on the stack of boosts: the cocycle of k_theta a_r runs once, and
    each parameter applies its own multiplier e^{gamma t}, gamma its
    :attr:`~so21.reps.SpectralParam.exponent`, to that shared (t, theta').
    A positive smallest eigenvalue certifies linear independence of the
    coefficients on the band (and, the functions being analytic, on the
    whole group); the quadrature is validated against one refinement and a
    disagreement raises NumericError.

    Parameters must be of the induced kind, which carries every K-type
    tau_n: a discrete series' coefficients in V(m - 1) have another
    norm than its ladder's invariant one.  Pairwise inequivalence is the
    caller's responsibility (a repeated entry is the standard negative
    control and must come out singular).
    """
    if not params:
        raise DomainError("need at least one spectral parameter")
    for p in params:
        if not p.is_induced:
            raise DomainError(f"gram_min_eig needs an induced kind, got {p.kind}")
    n = groups._integer(n, "gram_min_eig index n")
    lo, hi = float(region[0]), float(region[1])
    if not 0.0 <= lo < hi:
        raise DomainError("region must be an interval [lo, hi) with 0 <= lo < hi")

    exponents = [p.exponent for p in params]

    def assemble(nq):
        xs, ws = _legendre_rule(nq)
        rs = lo + (hi - lo) * (xs + 1.0) / 2.0
        ws = ws * (hi - lo) / 2.0
        vals = reps._matcoef_batch(exponents, make_a(rs), n, n, None)
        weight = ws * np.sinh(rs)
        gram = 2.0 * np.pi * np.einsum("q,jq,kq->jk", weight, vals, np.conj(vals))
        return 0.5 * (gram + gram.conj().T)

    coarse = assemble(GRAM_QUAD_NODES)
    fine = assemble(2 * GRAM_QUAD_NODES)
    scale = max(float(np.max(np.abs(fine))), 1e-300)
    drift = float(np.max(np.abs(fine - coarse))) / scale
    if drift > 1e-8:
        raise NumericError(
            f"gram quadrature not converged: relative drift {drift:.2e} "
            f"between {GRAM_QUAD_NODES} and {2 * GRAM_QUAD_NODES} nodes"
        )
    eigs = np.linalg.eigvalsh(fine)
    min_eig = float(eigs[0])
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else float("inf")
    return GramResult(min_eig, cond, fine)
