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
:func:`phi` and :func:`eigencheck` also take an array of exponents: the
result has shape w.shape + z.shape, and the rotation orbit of the points is
computed once and shared by every exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import DomainError

Y_MIN = 1e-12

DEFAULT_PHI_NODES = 512


def _require_hpoint(z):
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError("point is not finite")
    if np.any(z.imag <= Y_MIN):
        raise DomainError("point must have imaginary part > 1e-12")
    return z


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


def chi(w, z):
    """Power function y^w = e^{w log(Im z)} of one exponent w; broadcasts over z.

    Takes y^w from :func:`so21.groups._a_character`, as :func:`phi` does, so
    a real w gives a real value.
    """
    z = _require_hpoint(z)
    return groups._a_character(w, np.log(np.atleast_1d(z.imag))).reshape(z.shape)[()]


def _rotation_orbit(z, nodes):
    """Points k_theta . z, on the uniform angles theta, broadcast against z."""
    return mobius(groups.sl2_k(groups._uniform_angles(nodes)), z)


def phi(w, z, nodes=None):
    """Spherical function: rotation average of chi_w.

    Uses the periodic trapezoid rule, which converges spectrally for these
    smooth periodic integrands; 512 nodes reach ~1e-12 for |z| <= 10.
    The integrand y^w = e^{w log y} comes from
    :func:`so21.groups._a_character`: a real exponent takes a real exp,
    and a complex one numpy's complex exp.

    Parameters
    ----------
    w : complex or array of complex
        Exponent.  phi(w, .) and phi(1 - w, .) agree.  An array pairs each
        exponent with every point, and each value is bit for bit the one a
        call with that exponent alone gives.
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
    w = np.asarray(w, dtype=complex)
    log_y = np.log(_rotation_orbit(_require_hpoint(z)[..., None], nodes).imag)
    values = np.empty(w.shape + log_y.shape[:-1], dtype=complex)
    for index, wk in np.ndenumerate(w):
        # one exponent's integrand y^w at a time
        values[index] = np.mean(groups._a_character(wk, log_y), axis=-1)
    return values[()]


def laplacian_fd(f, z, h=1e-3):
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


def eigencheck(w, z, h=1e-3, nodes=None) -> EigenResult:
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
