"""Upper half-plane action and spherical functions.

Points of the hyperbolic plane are complex numbers z = x + iy with y > 0.
The group acts through the covering map: an element g moves z by the Mobius
transformation of its SL(2,R) representative.  The power function

    chi_w(x + iy) = y^w

averaged over the rotation subgroup gives the spherical function

    phi_w(z) = mean over theta of chi_w(k_theta . z),

an eigenfunction of the hyperbolic Laplacian with eigenvalue w(1 - w), and
invariant under swapping w for 1 - w.  The spectral parameter s used by the
induced representations enters through the exponent w = (1 + s)/2, turning
the eigenvalue into (1 - s^2)/4.

Every function takes a single point or an array of points; an array runs
through the same code as one batch, and a single point gives a scalar.
:func:`chi`, :func:`phi` and :func:`eigencheck` also take an array of
exponents: the result has shape w.shape + z.shape, and the points (for
:func:`phi`, their rotation orbit) are computed once and shared by every
exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import DomainError

Y_MIN = 1e-12

DEFAULT_PHI_NODES = 512
DEFAULT_FD_STEP = 1e-3  # the step h of the finite-difference Laplacian


def _require_hpoint(z):
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError("point is not finite")
    if np.any(z.imag <= Y_MIN):
        raise DomainError("point must have imaginary part > 1e-12")
    return z


def _require_exponent(w):
    """w as a complex array; a non-finite exponent raises DomainError."""
    w = np.asarray(w, dtype=complex)
    if not np.all(np.isfinite(w)):
        raise DomainError("exponent is not finite")
    return w


def mobius(m, z):
    """Fractional linear action of a 2x2 real matrix, or a (k, 2, 2) stack, on complex z.

    Numerator and denominator are built in place: two result-sized arrays.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    num = a * z
    num += b
    den = c * z
    den += d
    num /= den
    return num


def act(g, z):
    """Action of a group element, or of a (k, 3, 3) stack, on the upper half-plane.

    g is validated for membership by :func:`so21.groups.psi_inv`.  A stack
    acts like an array of k transformations, broadcast against z by the
    usual numpy rules.  Satisfies act(g1 @ g2, z) = act(g1, act(g2, z)).
    """
    m = groups.psi_inv(g).matrix
    return mobius(m, _require_hpoint(z))


def _each_exponent(w, values_at, shape):
    """values_at(wk) for each exponent wk of w, one at a time, in one complex array
    of shape w.shape + shape; a scalar when that shape is empty."""
    values = np.empty(w.shape + shape, dtype=complex)
    for index, wk in np.ndenumerate(w):
        values[index] = values_at(wk)
    return values[()]


def chi(w, z):
    """Power function y^w = e^{w log(Im z)}; broadcasts over z.

    Takes y^w from :func:`so21.groups._a_character`, as :func:`phi` does, so
    a real w takes a real exp.  Takes an array of exponents as :func:`phi`
    does: the complex result has shape w.shape + z.shape, and each value is
    bit for bit the one a call with that exponent alone gives.
    """
    z, w = _require_hpoint(z), _require_exponent(w)
    log_y = np.log(np.atleast_1d(z.imag))
    return _each_exponent(w, lambda wk: groups._a_character(wk, log_y).reshape(z.shape), z.shape)


def _rotation_orbit(z, nodes):
    """Points k_theta . z, on the uniform angles theta, broadcast against z."""
    return mobius(groups.sl2_k(groups._uniform_angles(nodes)), z)


def phi(w, z, nodes=None):
    """Spherical function: rotation average of chi_w.

    Uses the periodic trapezoid rule, which converges spectrally for these
    smooth periodic integrands at a rate set by the hyperbolic distance
    d(z, i), not by |z|: against mpmath's P_{-1/2}(cosh d) at w = 0.5, 512
    nodes give a relative error of 3e-16 at z = 10i (d = 2.30), 1.35e-1 at
    z = 0.001i (d = 6.91) and 2.7e-1 at z = 9 + 0.05i (d = 7.40).  ROADMAP
    items 15 (a node-doubling error estimate) and 1 (the closed K A K form)
    address the large-d case.
    The integrand y^w = e^{w log y} comes from
    :func:`so21.groups._a_character`: a real exponent takes a real exp,
    and a complex one numpy's complex exp.

    Parameters
    ----------
    w : complex or array of complex
        Exponent.  phi(w, .) and phi(1 - w, .) agree.  An array pairs each
        exponent with every point, and each value is bit for bit the one a
        call with that exponent alone gives.  A non-finite exponent raises
        DomainError, as in :func:`chi` and :func:`eigencheck`.
    z : complex or array of complex
        Points with Im z > 0.
    nodes : int, optional
        Quadrature node count, an integer >= 16 (see
        :func:`so21.groups._node_count`).  Defaults to 512.

    Returns
    -------
    An array of shape w.shape + z.shape; a scalar when both are scalars.
    """
    nodes = groups._node_count(nodes, DEFAULT_PHI_NODES, 16)
    w = _require_exponent(w)
    log_y = np.log(_rotation_orbit(_require_hpoint(z)[..., None], nodes).imag)
    return _each_exponent(w, lambda wk: np.mean(groups._a_character(wk, log_y), axis=-1),
                          log_y.shape[:-1])


def laplacian_fd(f, z, h=DEFAULT_FD_STEP):
    """Hyperbolic Laplacian -y^2 (d^2/dx^2 + d^2/dy^2) by central differences.

    The 5-point stencil is O(h^2); one Richardson level makes it O(h^4).
    The step must be positive, and the stencil must stay inside the
    half-plane, enforced as h < y/4.
    z may be a scalar or an array; f is called once, on an array of shape
    z.shape + (9,) holding each point's stencil, and must broadcast over it
    as :func:`phi` and :func:`chi` do.  f may put leading axes of its own in
    front, as :func:`phi` does for an array of exponents; the result keeps
    them.
    """
    z = _require_hpoint(z)
    y = z.imag
    if not h > 0:
        raise DomainError(f"stencil step must be > 0, got {h}")
    if not np.all(h < y / 4.0):
        raise DomainError(f"stencil step {h} too large for Im z = {np.min(y)}")
    half = h / 2.0
    # center, then east, west, north, south at step h and at step h/2
    offsets = np.array([0.0, h, -h, 1j * h, -1j * h, half, -half, 1j * half, -1j * half])
    values = f(z[..., None] + offsets)
    # on real parts: numpy divides complex by real via the reciprocal, an ulp off
    parts = np.stack([values.real, values.imag])
    center = parts[..., 0]

    def stencil(first, step):
        east, west, north, south = np.moveaxis(parts[..., first:first + 4], -1, 0)
        horiz = (east + west - 2.0 * center) / step**2
        vert = (north + south - 2.0 * center) / step**2
        return -(y * y) * (horiz + vert)

    coarse = stencil(1, h)
    fine = stencil(5, half)
    re, im = (4.0 * fine - coarse) / 3.0
    return (re + 1j * im)[()]


@dataclass(frozen=True)
class EigenResult:
    """Both sides of the Laplacian eigenvalue identity and their gap, per point.

    `value` is phi_w(z), read off the centre of the stencil.  Every field has
    shape w.shape + z.shape, or is a scalar when w and z both are.
    """

    lhs: complex | np.ndarray
    rhs: complex | np.ndarray
    rel_err: float | np.ndarray
    value: complex | np.ndarray


def eigencheck(w, z, h=DEFAULT_FD_STEP, nodes=None) -> EigenResult:
    """Residual of the identity (Laplacian phi_w)(z) = w(1-w) phi_w(z).

    The left side is the finite-difference Laplacian applied to the
    quadrature evaluation of phi_w; the relative error is normalized by
    |phi_w(z)| so that the w = 1 case (eigenvalue 0) stays meaningful.
    phi runs once, on the stencil, and phi_w(z) is its centre z + 0.0, bit
    for bit phi(w, z).  Takes an array of exponents and an array of points
    as :func:`phi` does; pass w = (1+s)/2 for a spectral parameter s.
    """
    w = np.asarray(w, dtype=complex)
    stencil_values = []

    def f(p):
        stencil_values.append(phi(w, p, nodes=nodes))
        return stencil_values[-1]

    lhs = laplacian_fd(f, z, h=h)
    value = stencil_values[0][..., 0].copy()
    # in Python complex arithmetic, as a single exponent was: numpy's complex
    # multiply rounds differently
    eigenvalue = np.array([wk * (1.0 - wk) for wk in map(complex, w.flat)])
    eigenvalue = eigenvalue.reshape(w.shape + (1,) * (value.ndim - w.ndim))
    rhs = (eigenvalue * value)[()]
    return EigenResult(lhs, rhs, (np.abs(lhs - rhs) / np.abs(value))[()], value[()])
