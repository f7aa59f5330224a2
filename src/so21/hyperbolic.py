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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .groups import psi_inv

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
    """Fractional linear action of a 2x2 real matrix on complex z."""
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    return (a * z + b) / (c * z + d)


def act(g, z):
    """Action of a group element on the upper half-plane.

    Broadcasts over z (scalar or array); g is a single element, validated
    for membership by :func:`so21.groups.psi_inv`.  Satisfies
    act(g1 @ g2, z) = act(g1, act(g2, z)).
    """
    m = psi_inv(g).matrix
    return mobius(m, _require_hpoint(z))


def chi(w, z):
    """Power function y^w = exp(w log(Im z)); broadcasts over z."""
    z = _require_hpoint(z)
    return np.exp(np.asarray(w, dtype=complex) * np.log(z.imag))


def _rotation_orbit(z, nodes):
    """Points k_theta . z on `nodes` uniform rotation angles theta in [0, 2*pi)."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    half = theta / 2.0  # the SL(2,R) representative of k_theta rotates by theta/2
    c, s = np.cos(half), np.sin(half)
    return (c * z - s) / (s * z + c)


def phi(w, z, nodes=None):
    """Spherical function: rotation average of chi_w.

    Uses the periodic trapezoid rule, which converges spectrally for these
    smooth periodic integrands; 512 nodes reach ~1e-12 for |z| <= 10.

    Parameters
    ----------
    w : complex
        Exponent.  phi(w, .) and phi(1 - w, .) agree.
    z : complex
        Point with Im z > 0.
    nodes : int, optional
        Quadrature node count, >= 16.  Defaults to 512.
    """
    nodes = DEFAULT_PHI_NODES if nodes is None else int(nodes)
    if nodes < 16:
        raise DomainError("phi requires at least 16 quadrature nodes")
    z = _require_hpoint(z)
    if np.ndim(z) != 0:
        raise DomainError("phi expects a single point")
    orbit = _rotation_orbit(complex(z), nodes)
    w = complex(w)
    return complex(np.mean(np.exp(w * np.log(orbit.imag))))


def laplacian_fd(f, z, h=1e-3):
    """Hyperbolic Laplacian -y^2 (d^2/dx^2 + d^2/dy^2) by central differences.

    The 5-point stencil is O(h^2); one Richardson level makes it O(h^4).
    The stencil must stay inside the half-plane, enforced as h < y/4.
    """
    z = complex(_require_hpoint(z))
    y = z.imag
    if not h < y / 4.0:
        raise DomainError(f"stencil step {h} too large for Im z = {y}")

    def stencil(step):
        horiz = (f(z + step) + f(z - step) - 2.0 * f(z)) / step**2
        vert = (f(z + 1j * step) + f(z - 1j * step) - 2.0 * f(z)) / step**2
        return -(y * y) * (horiz + vert)

    coarse = stencil(h)
    fine = stencil(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


@dataclass(frozen=True)
class EigenResult:
    """Both sides of the Laplacian eigenvalue identity and their gap."""

    lhs: complex
    rhs: complex
    rel_err: float


def eigencheck(w, z, h=1e-3, nodes=None) -> EigenResult:
    """Residual of the identity (Laplacian phi_w)(z) = w(1-w) phi_w(z).

    The left side is the finite-difference Laplacian applied to the
    quadrature evaluation of phi_w; the relative error is normalized by
    |phi_w(z)| so that the w = 1 case (eigenvalue 0) stays meaningful.
    """
    w = complex(w)
    value = phi(w, z, nodes=nodes)
    lhs = laplacian_fd(lambda p: phi(w, p, nodes=nodes), z, h=h)
    rhs = w * (1.0 - w) * value
    return EigenResult(lhs, rhs, abs(lhs - rhs) / abs(value))


def eigencheck_spectral(s, z, h=1e-3, nodes=None) -> EigenResult:
    """Same identity indexed by the spectral parameter: w = (1+s)/2.

    The eigenvalue w(1-w) then reads (1 - s^2)/4.
    """
    s = complex(s)
    return eigencheck((1.0 + s) / 2.0, z, h=h, nodes=nodes)


def phi_along_ray(w, t_values, nodes=None):
    """phi_w sampled along the geodesic ray t -> a_t . i = e^t i."""
    return np.array([phi(w, np.exp(t) * 1j, nodes=nodes) for t in np.asarray(t_values, float)])
