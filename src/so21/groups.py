"""Group layer for SO(2,1)^0: membership, subgroup constructors, the double
cover SL(2,R) -> SO(2,1)^0, the Iwasawa / Cartan coordinate systems, and
the rotation characters and trapezoid rules of harmonic analysis on K.

Conventions
-----------
The invariant quadratic form is J = diag(1, 1, -1), time axis last.  Group
elements are plain (3, 3) float arrays.  All constructors broadcast: pass a
shape-(k,) parameter array and you get a (k, 3, 3) stack back.  Everything
here is pure, so concurrent use needs no locking.

The one-parameter subgroups are

    a_t : boost in the (x, time) plane,
    n_u : unipotent (parabolic) element,
    k_theta : rotation of the (x, y) plane,

and the Iwasawa factorization used throughout is g = a_t n_u k_theta.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _read_only(array):
    array.flags.writeable = False
    return array


J = _read_only(np.diag([1.0, 1.0, -1.0]))

FORM_TOL = 1e-10
DET_TOL = 1e-10
COMPONENT_TOL = 1e-12
BOOST_TOL = 1e-8
SIGN_TOL = 1e-12


def _require_finite(*values):
    for v in values:
        if not np.all(np.isfinite(v)):
            raise DomainError("non-finite parameter")


def _uniform_angles(count):
    """The angles 2 pi k / count, 0 <= k < count: the nodes of every trapezoid rule on K.

    Every rotation average and DFT looks it up on this module at each call.
    """
    return 2.0 * np.pi * np.arange(count) / count


def _node_count(nodes, default, floor):
    """The node count of a trapezoid rule on K: `nodes`, or `default` when it is None.

    A count that is not an integer of at least `floor` raises DomainError;
    every rule on K takes its count from here, looked up on this module at
    each call.
    """
    count = default if nodes is None else nodes
    if not isinstance(count, numbers.Integral) or count < floor:
        raise DomainError(f"need an integer count of at least {floor} nodes, got {count!r}")
    return count


def _integer(value, what, least=None):
    """`value` as an int if it is an integer (numpy integers included) of at least `least`.

    Anything else raises DomainError naming `what`, the entry and its
    argument, such as "rep_matrix truncation N"; a truncation passes
    least=0.  Every K-type index and truncation a public entry takes is
    read through here.
    """
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    return int(value)


def tau(n, theta):
    """Rotation character tau_n(k_theta) = e^{i n theta}; broadcasts over n and theta.

    Every rotation character and DFT phase looks it up on this module at
    each call.
    """
    return np.exp(1j * n * np.asarray(theta, dtype=float))


def _a_character(gamma, t):
    """e^{gamma t} on a real array t: the character a_t -> e^{gamma t} of A, as a new array.

    A real gamma (zero imaginary part) takes a real exp, an order of
    magnitude cheaper than numpy's complex exp, and gives a real array; a
    complex gamma gives ``np.exp(gamma * t)`` bit for bit.  The induced
    multiplier e^{gamma t} and the power y^w = e^{w log y} look it up on this
    module at each call.
    """
    gamma = complex(gamma)
    out = gamma.real * t if gamma.imag == 0.0 else gamma * t
    return np.exp(out, out=out)


def make_a(t):
    """Boost a_t = exp(t V2); broadcasts over array-valued t."""
    t = np.asarray(t, dtype=float)
    _require_finite(t)
    out = np.zeros(t.shape + (3, 3))
    ch, sh = np.cosh(t), np.sinh(t)
    out[..., 0, 0] = ch
    out[..., 0, 2] = sh
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = sh
    out[..., 2, 2] = ch
    return out


def make_n(u):
    """Unipotent element n_u = exp(u (V1 - W)); broadcasts over u."""
    u = np.asarray(u, dtype=float)
    _require_finite(u)
    out = np.zeros(u.shape + (3, 3))
    h = u * u / 2.0
    out[..., 0, 0] = 1.0 - h
    out[..., 0, 1] = u
    out[..., 0, 2] = h
    out[..., 1, 0] = -u
    out[..., 1, 1] = 1.0
    out[..., 1, 2] = u
    out[..., 2, 0] = -h
    out[..., 2, 1] = u
    out[..., 2, 2] = 1.0 + h
    return out


def make_k(theta):
    """Rotation k_theta = exp(theta W), periodic in 2*pi; broadcasts over theta."""
    theta = np.asarray(theta, dtype=float)
    _require_finite(theta)
    out = np.zeros(theta.shape + (3, 3))
    c, s = np.cos(theta), np.sin(theta)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


@dataclass(frozen=True)
class So21Diagnostic:
    """Result of a membership test; purely informational, never raised."""

    form_defect: float
    det_defect: float
    component_ok: bool
    boost_error: float

    @property
    def accepted(self) -> bool:
        return (
            self.form_defect < FORM_TOL
            and self.det_defect < DET_TOL
            and self.component_ok
            and self.boost_error < BOOST_TOL
        )


def so21_check(mat) -> So21Diagnostic:
    """Diagnose whether ``mat`` lies in SO(2,1)^0.

    Reports the worst-entry defect of g^T J g = J and the determinant defect
    |det g - 1|, each divided by max(1, max|g|)^2 (entries of size G carry
    rounding errors of size G^2 eps in both), and whether the (3,3) entry is
    >= 1 (identity component).  Elements with entries <= 1 are judged on
    absolute defects.

    Relative defects do not bound the size of g, so membership also bounds
    the Cartan radius r: ``boost_error`` is max(1, max|g|) eps / e^{-r}, the
    relative error of e^{-r} = p3 - |(p1, p2)| on the third column (about
    e^{2r} eps; infinite when e^{-r} <= 0), and members keep it below
    BOOST_TOL, about r < 9.1.  That is the stated domain of the library, not
    a limit of :func:`_iwasawa`; matrix coefficients on their fixed node
    counts are not converged past it.  Accepts any input and never raises;
    malformed shapes come back with infinite defects.
    """
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (3, 3):
        return So21Diagnostic(np.inf, np.inf, False, np.inf)
    with np.errstate(all="ignore"):
        size = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        scale = size ** 2
        form = np.abs(np.swapaxes(m, -1, -2) @ J @ m - J).max(axis=(-2, -1))
        form_defect = float((form / scale).max())
        det_defect = float((np.abs(np.linalg.det(m) - 1.0) / scale).max())
        component_ok = bool(np.all(m[..., 2, 2] >= 1.0 - COMPONENT_TOL))
        boost = m[..., 2, 2] - np.hypot(m[..., 0, 2], m[..., 1, 2])
        boost_error = np.where(boost > 0.0, size * np.finfo(float).eps / boost, np.inf)
    if not np.isfinite(form_defect):
        return So21Diagnostic(np.inf, np.inf, False, np.inf)
    return So21Diagnostic(form_defect, det_defect, component_ok, float(boost_error.max()))


def require_member(mat, what="matrix"):
    """Return ``mat`` as an array after asserting SO(2,1)^0 membership."""
    m = np.asarray(mat, dtype=float)
    diag = so21_check(m)
    if not diag.accepted:
        raise DomainError(
            f"{what} is not in SO(2,1)^0: form defect {diag.form_defect:.2e}, "
            f"det defect {diag.det_defect:.2e}, component_ok={diag.component_ok}, "
            f"boost error {diag.boost_error:.2e}"
        )
    return m


# ---------------------------------------------------------------------------
# SL(2,R) side and the covering map
# ---------------------------------------------------------------------------

def sl2_a(t):
    """diag(e^{t/2}, e^{-t/2}); maps to make_a(t) under the covering map."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (2, 2))
    out[..., 0, 0] = np.exp(t / 2.0)
    out[..., 1, 1] = np.exp(-t / 2.0)
    return out


def sl2_n(u):
    """Upper-triangular unipotent [[1, u], [0, 1]]; maps to make_n(u)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 0, 1] = u
    out[..., 1, 1] = 1.0
    return out


def sl2_k(theta):
    """Rotation by theta/2; maps to make_k(theta) (angle doubling)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.zeros(theta.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def psi(m):
    """Two-to-one covering homomorphism SL(2,R) -> SO(2,1)^0.

    Parameters
    ----------
    m : array_like, shape (..., 2, 2)
        Real matrix with det = 1 (checked to 1e-10).

    Returns
    -------
    ndarray, shape (..., 3, 3)
        Image in SO(2,1)^0.  Quadratic in the entries, so psi(-m) = psi(m).
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise DomainError("psi expects a 2x2 matrix")
    _require_finite(m)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.max(np.abs(det - 1.0)) > DET_TOL:
        raise DomainError(f"psi input must have det 1, defect {np.max(np.abs(det - 1.0)):.2e}")
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    out = np.empty(m.shape[:-2] + (3, 3))
    out[..., 0, 0] = 0.5 * (a * a - b * b - c * c + d * d)
    out[..., 0, 1] = a * b - c * d
    out[..., 0, 2] = 0.5 * (a * a + b * b - c * c - d * d)
    out[..., 1, 0] = a * c - b * d
    out[..., 1, 1] = a * d + b * c
    out[..., 1, 2] = a * c + b * d
    out[..., 2, 0] = 0.5 * (a * a - b * b + c * c - d * d)
    out[..., 2, 1] = a * b + c * d
    out[..., 2, 2] = 0.5 * (a * a + b * b + c * c + d * d)
    return out


@dataclass(frozen=True)
class PSL2Element:
    """A class in PSL(2,R), stored as a sign-canonical SL(2,R) representative.

    The representative makes the first entry of (a, b, c, d) whose modulus
    exceeds 1e-12 positive, which is deterministic and total on SL(2,R).
    `matrix` is a (2, 2) array, or a (..., 2, 2) stack of representatives.
    """

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, m) -> "PSL2Element":
        """Canonicalize one 2x2 matrix, or each matrix of a (..., 2, 2) stack."""
        m = np.asarray(m, dtype=float)
        if m.shape[-2:] != (2, 2):
            raise DomainError("PSL2Element expects 2x2 matrices")
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        defect = float(np.max(np.abs(det - 1.0)))
        if defect > DET_TOL:
            raise DomainError(f"PSL2 representative must have det 1, got defect {defect:.2e}")
        entries = m.reshape(m.shape[:-2] + (4,))
        first = np.argmax(np.abs(entries) > SIGN_TOL, axis=-1)
        lead = np.take_along_axis(entries, first[..., None], axis=-1)
        out = np.where(lead[..., None] < 0.0, -m, m)
        out.flags.writeable = False
        return cls(out)


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IwasawaCoords:
    """Coordinates (t, u, theta) of g = a_t n_u k_theta; fields may be arrays."""

    t: float
    u: float
    theta: float


@dataclass(frozen=True)
class CartanCoords:
    """Coordinates (theta1, t, theta2) of g = k_theta1 a_t k_theta2 with t >= 0.

    For t > 0 the pair (theta1, theta2) is unique modulo 2*pi; at t = 0 the
    element is a pure rotation, stored as (0, 0, theta2) with theta2 carrying
    the whole angle.  Fields may be arrays.
    """

    theta1: float
    t: float
    theta2: float


def _iwasawa(r1, r2, p1, p2, p3):
    """Raw coordinates (t, u, theta) of g = a_t n_u k_theta, free of cancellation.

    Takes the first two entries (r1, r2) = (g21, g22) of the middle row and
    the third column (p1, p2, p3) of an unvalidated member, as arrays that
    broadcast together.  a_t leaves the middle row of n_u alone, so the
    middle row of g is (-u, 1, u) k_theta = (-u cos + sin, u sin + cos, u):
    u = p2, and (r1 + u r2, r2 - u r1) = (1 + u^2)(sin, cos), a scaled
    rotation of (r1, r2) that cannot cancel.  k_theta fixes the third column
    a_t n_u e_3, which is J-unit: (p3 - p1)(p3 + p1) = e^{-t} e^t (1 + u^2).
    With d = p3 + |p1| >= 1, a sum of non-negative terms, e^t is d / (1 + u^2)
    when p1 > 0 and 1 / d otherwise, so t = 0.0 exactly (never -0.0) at
    the identity.  theta comes straight from arctan2, in (-pi, pi].
    """
    u = p2
    d = p3 + np.abs(p1)
    t = np.log(np.where(p1 > 0.0, d / (1.0 + u * u), 1.0 / d))
    return t, u, np.arctan2(r1 + u * r2, r2 - u * r1)


def iwasawa(g) -> IwasawaCoords:
    """Decompose g = a_t n_u k_theta, with theta in [0, 2*pi).

    See :func:`_iwasawa` for the closed form, read off g's middle row and
    third column.  Broadcasts over stacked input; membership is checked
    first (see :func:`so21_check` for the domain).
    """
    g = require_member(g, "iwasawa input")
    t, u, theta = _iwasawa(g[..., 1, 0], g[..., 1, 1], g[..., 0, 2], g[..., 1, 2], g[..., 2, 2])
    theta = theta % (2.0 * np.pi)
    if g.ndim == 2:
        return IwasawaCoords(float(t), float(u), float(theta))
    return IwasawaCoords(t, u, theta)


def recompose(c: IwasawaCoords):
    """Rebuild the group element a_t n_u k_theta from its coordinates."""
    return make_a(c.t) @ make_n(c.u) @ make_k(c.theta)


_DEGENERATE_RADIUS = 1e-12


def _radius(root):
    """The polar radius arcsinh(root) from root = sinh r >= 0; radii below 1e-12 are exactly 0.

    Returns r and the mask of its radius-0 entries, or None when there are none.
    """
    r = np.arcsinh(root)
    flat = r < _DEGENERATE_RADIUS
    if not flat.any():
        return r, None
    return np.where(flat, 0.0, r), flat


class _PolarEntries:
    """Polar entries of the nodes bases[i] @ right[k], from a :func:`_polar_entries` builder.

    `pq` holds the real and imaginary parts of p = g13 + i g23 and
    q = g31 - i g32 as one (4, ...) array, with sinh^2 r = |p|^2 =
    `squared`, summed as Re(p)^2 + Im(p)^2.  On the row route pq and
    squared are per row, (4, rows, 1) and (rows, 1), and node k's q is its
    row's times `phase[k]`, an (m,) complex array; with no right factors
    `phase` is None.  Off it they are per node, (4, rows, m) and
    (rows, m), and `phase` is None.  `bases` and `right` stay for the radius-0 nodes
    (:func:`_origin_phases`).
    """

    __slots__ = ("pq", "squared", "phase", "bases", "right")

    def __init__(self, pq, phase, bases, right):
        self.pq, self.squared = pq, pq[0] * pq[0] + pq[1] * pq[1]
        self.phase, self.bases, self.right = phase, bases, right


def _pair(re, im):
    """The complex array re + i im, each part written once."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real = re
    z.imag = im
    return z


# The entries of a node's third row and column, its (row, column) indices,
# and their values at an element that fixes e3.
_E3_ENTRIES = ([0, 1, 2, 2, 2], [2, 2, 0, 1, 2])
_E3_VALUES = np.array([0.0, 0.0, 0.0, 0.0, 1.0])


def _fixes_e3(right):
    """Whether every right factor of an (m, 3, 3) stack fixes e3: its third row and column are e3's.

    One test on the m factors picks the route of :func:`_polar_entries`.
    """
    return bool((right[:, _E3_ENTRIES[0], _E3_ENTRIES[1]] == _E3_VALUES).all())


def _polar_entries(right=None):
    """The builder of the polar entries of the nodes bases[i] @ right[k]: a function of the bases.

    `right` is an (m, 3, 3) stack, or None for nodes that are the bases
    themselves.  The builder takes an unvalidated (..., 3, 3) stack of
    bases, whose leading shape counts as rows, and returns their
    :class:`_PolarEntries`; no node is built.  For g in SO(2,1)^0,
    p = g13 + i g23 and q = g31 - i g32 give sinh r = |p|,
    e^{i theta1} = p / |p| and e^{i theta2} = q / |p|, and K acts on them
    by phases (Knapp, Ch. V, K A K): p(k_a g k_b) = e^{i a} p(g) and
    q(k_a g k_b) = q(g) e^{i b}.  So when every right factor fixes e3
    (:func:`_fixes_e3`, tested once on the factors, here), as a rotation
    k_theta does, the row route reads p and q once per row off the bases
    and each node's q is its row's times the factor's phase R11 + i R21.
    Any other right factors take p and q per node from real
    (rows x 3) @ (3 x m) products of the bases' rows and the factors'
    columns.  With right factors the bases are a (rows, 3, 3) stack.
    Either route writes p and q into one (4, rows, 1 or m) array.
    """
    if right is None or _fixes_e3(right):
        phase = None if right is None else _pair(right[:, 0, 0], right[:, 1, 0])

        def build(bases):
            if bases.ndim == 2:
                bases = bases[None]
            pq = np.empty((4,) + bases.shape[:-2])
            pq[0] = bases[..., 0, 2]
            pq[1] = bases[..., 1, 2]
            pq[2] = bases[..., 2, 0]
            np.negative(bases[..., 2, 1], out=pq[3])
            return _PolarEntries(pq.reshape(4, -1, 1), phase, bases, right)
        return build
    third_column = np.ascontiguousarray(right[:, :, 2].T)
    first_rows = np.stack([right[:, :, 0].T, -right[:, :, 1].T])

    def build(bases):
        pq = np.empty((4, bases.shape[0], right.shape[0]))
        np.matmul(np.moveaxis(bases[:, :2, :], 1, 0), third_column, out=pq[:2])
        np.matmul(bases[:, 2, :], first_rows, out=pq[2:])
        return _PolarEntries(pq, None, bases, right)
    return build


def _polar_phases(entries, at=...):
    """Radius r and unit phases z1 = e^{i theta1}, z2 = e^{i theta2} of polar entries, no angle.

    `at` is ... or the flat indices of k entries into ``entries.squared``;
    r is (k,), z1 is (k, 1), and z2 is (k, m) on the row route with right
    factors (each row's q times the phases) and (k, 1) otherwise.  With
    sinh r = sqrt(squared), z1 = p / sinh r and z2 = q / sinh r, each part
    scaled by one real product.  At radius 0 they are 1 and g11 + i g21
    (:func:`_origin_phases`).
    """
    pq, squared = entries.pq.reshape(4, -1), entries.squared.reshape(-1)
    if at is not ...:
        pq, squared = pq[:, at], squared[at]
    root = np.sqrt(squared)
    r, flat = _radius(root)
    if flat is not None:
        root[flat] = 1.0
    scale = np.divide(1.0, root, out=root)
    z = np.empty((2, r.size, 1), dtype=complex)
    np.multiply(pq[0::2], scale, out=z.real[..., 0])
    np.multiply(pq[1::2], scale, out=z.imag[..., 0])
    z1, z2 = z
    if entries.phase is not None:
        z2 = z2 * entries.phase
    if flat is not None:
        z1[flat] = 1.0
        z2[flat] = _origin_phases(entries, (np.arange(r.size) if at is ... else at)[flat])
    return r, z1, z2


def _origin_phases(entries, index):
    """g11 + i g21 of the nodes at flat indices `index` into ``entries.squared``, shaped as z2.

    Each node's is (g11 + i g21) R11 + (g12 + i g22) R21 + (g13 + i g23) R31
    of its base and right factor, or its base's g11 + i g21.
    """
    bases, right = entries.bases, entries.right
    row = index if entries.squared.shape[1] == 1 else index // right.shape[0]
    picked = bases[np.unravel_index(row, bases.shape[:-2])]
    upper = _pair(picked[:, 0, :], picked[:, 1, :])
    if right is None:
        return upper[:, :1]
    if entries.phase is not None:
        return upper @ right[:, :, 0].T
    return np.sum(upper * right[index % right.shape[0], :, 0], axis=-1)[:, None]


def _polar(gs):
    """Polar coordinates (theta1, r, theta2) of an unvalidated (..., 3, 3) stack.

    The radius is arcsinh sqrt(g13^2 + g23^2), exact on the subgroup
    elements and stable near the identity, unlike arcosh(g33); radii below
    1e-12 are exactly 0 (:func:`_radius`).  For positive radius the two
    angles are pinned by the third column and the third row of g, and the
    factorization k_theta1 a_r k_theta2 is unique.  At the degenerate
    radius 0 the element is a pure rotation, stored as theta1 = 0 with
    theta2 carrying the whole angle.  The angles are the arguments of
    :func:`_polar_phases` on :func:`_polar_entries`, in (-pi, pi]; radial
    integrands take the phases.  A single element gives scalars.
    """
    shape = gs.shape[:-2]
    r, z1, z2 = _polar_phases(_polar_entries()(gs))
    theta1, theta2 = np.arctan2(z1.imag, z1.real), np.arctan2(z2.imag, z2.real)
    return tuple(x.reshape(shape)[()] for x in (theta1, r, theta2))


def cartan_radius(g):
    """Radius r >= 0 of the polar factorization, :func:`cartan`'s t; K-bi-invariant."""
    return _polar(require_member(g, "cartan input"))[1]


def cartan(g) -> CartanCoords:
    """Polar coordinates of g = k_theta1 a_t k_theta2 as :class:`CartanCoords`.

    Broadcasts like :func:`iwasawa`.  Both angles are reduced to [0, 2*pi);
    see :func:`_polar` for the degenerate radius t = 0.
    """
    theta1, t, theta2 = _polar(require_member(g, "cartan input"))
    theta1, theta2 = theta1 % (2.0 * np.pi), theta2 % (2.0 * np.pi)
    if np.ndim(t) == 0:
        return CartanCoords(float(theta1), float(t), float(theta2))
    return CartanCoords(theta1, t, theta2)


def psi_inv(g) -> PSL2Element:
    """Invert the covering map on an element of SO(2,1)^0, or on a stack.

    Runs the Iwasawa decomposition and maps each factor back through the
    subgroup correspondences (sl2_a, sl2_n, sl2_k), then canonicalizes the
    overall sign.  Avoids any entrywise sign-case analysis; correctness is
    pinned by round-trip tests.
    """
    c = iwasawa(g)
    return PSL2Element.from_matrix(sl2_a(c.t) @ sl2_n(c.u) @ sl2_k(c.theta))


def haar_density(c: IwasawaCoords):
    """Density of Haar measure at g = a_t n_u k_theta, against dt du dtheta/(2*pi).

    In these coordinates the bi-invariant measure has constant density 1:
    the quotient map g -> g.i sends the (t, u) patch to the upper half-plane
    with Jacobian exactly cancelling the hyperbolic area weight 1/y^2.  The
    value is certified rather than trusted by the normalization check of
    :func:`so21.character.haar_invariance_check`, which compares one
    integral with its K A K value; its translation defects alone cancel a
    constant factor.
    """
    t = np.asarray(c.t, dtype=float)
    if t.ndim == 0:
        return 1.0
    return np.ones_like(t)


def random_elements(rng, count, t_bound=2.0, u_bound=2.0):
    """Seeded random sample of group elements, Iwasawa parameters uniform.

    t and u are uniform in [-t_bound, t_bound] and [-u_bound, u_bound],
    theta uniform in [0, 2*pi).  Returns a (count, 3, 3) stack.
    """
    t = rng.uniform(-t_bound, t_bound, size=count)
    u = rng.uniform(-u_bound, u_bound, size=count)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return recompose(IwasawaCoords(t, u, theta))
