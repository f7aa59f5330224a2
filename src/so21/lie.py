"""The Lie algebra so(2,1) in the time-last convention.

Basis
-----
    V1 = e23 + e32      tangent to n_u together with -W:  n_u = exp(u (V1 - W))
    V2 = e13 + e31      tangent to the boosts:            a_t = exp(t V2)
    W  = e21 - e12      tangent to the rotations:         k_theta = exp(theta W)

with brackets [W, V1] = -V2, [W, V2] = V1, [V1, V2] = W.  The combinations
E+ = V1 + i V2 and E- = V1 - i V2 diagonalize ad W with eigenvalues +i, -i;
all of this is integer arithmetic and is tested exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError
from .groups import J

V1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
V2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

E_PLUS = V1 + 1j * V2
E_MINUS = V1 - 1j * V2

BASIS = {"V1": V1, "V2": V2, "W": W}

ALGEBRA_TOL = 1e-13
DEFAULT_CASIMIR_STEP = 1e-3  # the step h of casimir_apply's second differences


def algebra_defect(x) -> float:
    """Worst-entry defect of the defining relation X^T J + J X = 0."""
    x = np.asarray(x)
    return float(np.max(np.abs(x.swapaxes(-1, -2) @ J + J @ x)))


def require_algebra_element(x, what="matrix"):
    x = np.asarray(x)
    if x.shape[-2:] != (3, 3):
        raise DomainError(f"{what} must be 3x3")
    d = algebra_defect(x)
    if d > ALGEBRA_TOL:
        raise DomainError(f"{what} is not in so(2,1): defect {d:.2e}")
    return x


def bracket(x, y):
    """Commutator [x, y] = xy - yx of two algebra elements."""
    x = require_algebra_element(x, "bracket first argument")
    y = require_algebra_element(y, "bracket second argument")
    return x @ y - y @ x


def ad_w_eigencheck():
    """Defects of ad W acting on E+ and E- against eigenvalues +i and -i.

    Both are exactly zero in floating point because every intermediate is an
    integer (or Gaussian-integer) matrix.
    """
    defect_plus = float(np.max(np.abs(W @ E_PLUS - E_PLUS @ W - 1j * E_PLUS)))
    defect_minus = float(np.max(np.abs(W @ E_MINUS - E_MINUS @ W + 1j * E_MINUS)))
    return defect_plus, defect_minus


_EXP_SERIES_ORDER = 18
_EXP_SCALE_THRESHOLD = 0.5


def exp_matrix(x):
    """Matrix exponential by scaling and squaring with a truncated series.

    Scales x down below norm 0.5, runs an order-18 Taylor polynomial in
    Horner form, and squares back up.  Adequate to relative error ~1e-14 at
    desk scale (norm(x) <= 10); for algebra elements the result lands in
    SO(2,1)^0.
    """
    x = np.asarray(x)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DomainError("exp_matrix expects a square matrix")
    if not np.all(np.isfinite(x)):
        raise DomainError("exp_matrix requires finite entries")
    norm = float(np.max(np.abs(x))) * x.shape[-1]
    squarings = 0
    if norm > _EXP_SCALE_THRESHOLD:
        squarings = int(np.ceil(np.log2(norm / _EXP_SCALE_THRESHOLD)))
    y = x / (2.0 ** squarings)
    eye = np.eye(x.shape[-1], dtype=y.dtype)
    acc = eye + y / _EXP_SERIES_ORDER
    for k in range(_EXP_SERIES_ORDER - 1, 0, -1):
        acc = eye + (y @ acc) / k
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def dpsi(x):
    """Differential of the covering map on a traceless 2x2 matrix.

    For x = [[alpha, beta], [gamma, -alpha]] the image is
    (beta + gamma) V1 + 2 alpha V2 + (gamma - beta) W, which matches the
    derivatives of the subgroup correspondences:
    dpsi(diag(1,-1)) = 2 V2, dpsi([[0,1],[0,0]]) = V1 - W,
    dpsi([[0,-1],[1,0]]) = 2 W.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2, 2):
        raise DomainError("dpsi expects a single 2x2 matrix")
    if abs(x[0, 0] + x[1, 1]) > 1e-13:
        raise DomainError(f"dpsi input must be traceless, trace {x[0, 0] + x[1, 1]:.2e}")
    alpha, beta, gamma = x[0, 0], x[0, 1], x[1, 0]
    return (beta + gamma) * V1 + 2.0 * alpha * V2 + (gamma - beta) * W


def casimir_apply(f, g, h=DEFAULT_CASIMIR_STEP):
    """Second-order Casimir applied to a function on the group at g.

    Evaluates D_V1^2 f + D_V2^2 f - D_W^2 f, where D_X^2 is the central
    second difference of s -> f(g exp(s X)) at step h.  Accuracy O(h^2);
    no Killing-form normalization is applied.  The stencil is built once:
    one :func:`exp_matrix` call on the six steps +-h V1, +-h V2, +-h W, and
    one call of f on the 7-element stack (g first, then g times each step).

    Parameters
    ----------
    f : callable
        Function on group elements that broadcasts over a (k, 3, 3) stack,
        returning k scalars (as :func:`so21.reps.matcoef` does).
    g : array_like
        Base point in SO(2,1)^0.
    h : float
        Step size, required to lie in [1e-4, 1e-2].
    """
    if not (1e-4 <= h <= 1e-2):
        raise DomainError(f"casimir step h must be in [1e-4, 1e-2], got {h}")
    g = np.asarray(g, dtype=float)
    steps = exp_matrix(h * np.stack([V1, -V1, V2, -V2, W, -W]))
    values = np.asarray(f(np.concatenate([g[None], g @ steps])))
    center, plus, minus = values[0], values[1::2], values[2::2]
    second = (plus - 2.0 * center + minus) / (h * h)
    if not np.all(np.isfinite(second)):
        raise NumericError("non-finite sample in casimir_apply stencil")
    return complex(second[0] + second[1] - second[2])
