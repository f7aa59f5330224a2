"""Induced representations of SO(2,1)^0 realized on Fourier series over K.

A vector of the induced space V(s), restricted to the rotation subgroup, is
a function on the circle, stored here as a truncated coefficient vector
(c_n) for |n| <= N.  The group acts by right translation; pulling a
translate back through the decomposition k_theta g = a_t n_u k_theta' gives
the compact-picture formula

    (rho(g) v)(theta) = e^{(1+s) t(theta, g) / 2} v(theta'(theta, g)).

The exponent carries the half shift (1+s)/2 rather than (1+s): the modular
function of the upper-triangular subgroup scales as e^t in these
coordinates, and the half shift is exactly what makes the action unitary
for imaginary s; :attr:`SpectralParam.exponent` holds it.  That normalization
is certified by tests (norm preservation for s in iR, measurable failure
for the unshifted exponent), not assumed.

Discrete series with even parameter m live inside V(m-1) as one-sided
ladders of K-types; they are modeled here only through those invariant
ladder subspaces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import groups
from .errors import DomainError, TruncationWarning

TOP_MODE_ENERGY_TOL = 1e-6


# ---------------------------------------------------------------------------
# Spectral parameters
# ---------------------------------------------------------------------------

def _finite(z: complex) -> bool:
    """Whether both parts of z are finite, tested with math, not a numpy ufunc (10x cheaper)."""
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class SpectralParam:
    """Tagged descriptor of an irreducible (or induced-point) representation.

    kind is one of "trivial", "principal", "complementary", "induced_point",
    "discrete".  The induced kinds carry the complex parameter s, which
    must be finite (DomainError otherwise); discrete series carry an even
    integer m >= 2 and a sign.
    """

    kind: str
    s: complex = 0j
    m: int = 0
    sign: int = 1

    def __post_init__(self):
        if not _finite(complex(self.s)):
            raise DomainError(f"spectral parameter s = {self.s} is not finite")

    @staticmethod
    def trivial() -> "SpectralParam":
        return SpectralParam("trivial")

    @staticmethod
    def principal(imag_part: float) -> "SpectralParam":
        if imag_part < 0:
            raise DomainError("principal parameter must have s in i*[0, inf)")
        return SpectralParam("principal", s=1j * float(imag_part))

    @staticmethod
    def complementary(x: float) -> "SpectralParam":
        if not 0.0 < x < 1.0:
            raise DomainError("complementary parameter must lie in (0, 1)")
        return SpectralParam("complementary", s=complex(x))

    @staticmethod
    def induced_point(s: complex) -> "SpectralParam":
        return SpectralParam("induced_point", s=complex(s))

    @staticmethod
    def discrete(m: int, sign: int = 1) -> "SpectralParam":
        if m < 2 or m % 2 != 0:
            raise DomainError("discrete parameter m must be an even integer >= 2")
        if sign not in (1, -1):
            raise DomainError("discrete sign must be +1 or -1")
        return SpectralParam("discrete", m=int(m), sign=int(sign))

    @classmethod
    def from_s(cls, s: complex) -> "SpectralParam":
        """Classify a complex parameter into the matching induced kind."""
        s = complex(s)
        if abs(s.real) < 1e-14 and s.imag >= 0:
            return cls.principal(s.imag)
        if abs(s.imag) < 1e-14 and 0.0 < s.real < 1.0:
            return cls.complementary(s.real)
        return cls.induced_point(s)

    @classmethod
    def parse(cls, text: str) -> "SpectralParam":
        """Parse labels like "trivial", "D+4", "D-2", "rho", "rho:i", "rho:0.5".

        Bare "rho" stands for the spherical principal point s = 0; the
        K-type support is the same for the whole rho_s family.
        """
        text = text.strip()
        if text == "trivial":
            return cls.trivial()
        if text == "rho":
            return cls.principal(0.0)
        if text.startswith("D+") or text.startswith("D-"):
            sign = 1 if text[1] == "+" else -1
            return cls.discrete(int(text[2:]), sign)
        if text.startswith("rho:"):
            return cls.from_s(parse_complex(text[4:]))
        raise DomainError(f"cannot parse representation label {text!r}")

    @property
    def is_induced(self) -> bool:
        return self.kind in ("principal", "complementary", "induced_point")

    @property
    def induced_s(self) -> complex:
        """Parameter of the ambient induced space (m - 1 for discrete series)."""
        if self.is_induced:
            return self.s
        if self.kind == "discrete":
            return complex(self.m - 1)
        raise DomainError("the trivial representation has no induced realization here")

    @property
    def exponent(self) -> complex:
        """Unitary exponent (1 + s)/2 of the induced action, s = :attr:`induced_s`."""
        return (1.0 + self.induced_s) / 2.0

    @property
    def label(self) -> str:
        if self.kind == "trivial":
            return "trivial"
        if self.kind == "discrete":
            return f"D{'+' if self.sign > 0 else '-'}{self.m}"
        return f"rho_s({_format_complex(self.s)})"


def parse_complex(text: str) -> complex:
    """Parse "i", "2i", "0.5", "0.5+2i", "1-i" into a complex number.

    The literal follows Python's complex() grammar with i (or I) for j; a
    non-finite value (nan, inf) is a DomainError.
    """
    cleaned = text.strip().replace(" ", "").replace("I", "i")
    if not cleaned:
        raise DomainError("empty complex literal")
    try:
        value = complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise DomainError(f"cannot parse complex literal {text!r}") from exc
    if not _finite(value):
        raise DomainError(f"complex literal {text!r} is not finite")
    return value


def _format_complex(value: complex) -> str:
    if value.imag == 0:
        return f"{value.real:g}"
    if value.real == 0:
        return f"{value.imag:g}i"
    return f"{value.real:g}{value.imag:+g}i"


# ---------------------------------------------------------------------------
# Truncated Fourier vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KFourierVector:
    """Coefficients (c_n) for |n| <= N of a function on the rotation circle."""

    N: int
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (2 * self.N + 1,):
            raise DomainError(f"coefficient vector must have length {2 * self.N + 1}")
        object.__setattr__(self, "c", c)

    @classmethod
    def basis(cls, N: int, n: int) -> "KFourierVector":
        if abs(n) > N:
            raise DomainError(f"basis index {n} outside truncation [-{N}, {N}]")
        c = np.zeros(2 * N + 1, dtype=complex)
        c[n + N] = 1.0
        return cls(N, c)

    @classmethod
    def smooth_random(cls, N: int, rng, decay: float = 4.0) -> "KFourierVector":
        """Unit vector with coefficients ~ e^{-|n|/decay} and random phases."""
        ns = np.arange(-N, N + 1)
        c = np.exp(-np.abs(ns) / decay) * np.exp(2j * np.pi * rng.random(2 * N + 1))
        return cls(N, c / np.linalg.norm(c))

    def coeff(self, n: int) -> complex:
        return complex(self.c[n + self.N])

    def norm(self) -> float:
        """L2(K) norm; Parseval makes it the plain 2-norm of the coefficients."""
        return float(np.linalg.norm(self.c))


# ---------------------------------------------------------------------------
# Cocycle and the induced action
# ---------------------------------------------------------------------------

def _cocycle_batch(thetas, gs):
    """Iwasawa data of k_theta g for a node vector and a stack of elements.

    Parameters
    ----------
    thetas : ndarray, shape (M,)
    gs : ndarray, shape (B, 3, 3)

    Returns
    -------
    t, theta_out : ndarrays of shape (B, M)
        Boost and rotation coordinates of k_theta g = a_t n_u k_theta'.
        theta_out comes straight from arctan2, in (-pi, pi]: every internal
        consumer uses it only through e^{i n theta'}.

    Runs :func:`so21.groups._iwasawa`, looked up on that module at each call,
    on the middle row sin theta (row 1) + cos theta (row 2) of k_theta g and
    on its third column, whose first two entries k_theta rotates.
    """
    c = np.cos(thetas)[None, :]
    s = np.sin(thetas)[None, :]
    g11, g12, p1 = (gs[:, 0, j, None] for j in range(3))
    g21, g22, p2 = (gs[:, 1, j, None] for j in range(3))
    t, _, theta_out = groups._iwasawa(s * g11 + c * g21, s * g12 + c * g22,
                                      c * p1 - s * p2, s * p1 + c * p2, gs[:, 2, 2, None])
    return t, theta_out


def _require_element(g, what):
    """One validated element; a stack of them raises DomainError naming `what`."""
    if np.shape(g) != (3, 3):
        raise DomainError(f"{what} must be a single 3x3 element, got shape {np.shape(g)}")
    return groups.require_member(g, what)


def cocycle(theta, g):
    """Boost and rotation parts (t, theta') of k_theta g = a_t n_u k_theta'.

    theta may be a scalar or an array; g is a single validated element.
    theta' is reduced to [0, 2 pi).
    """
    g = _require_element(g, "cocycle input")
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    t, theta_out = _cocycle_batch(theta_arr, g[None])
    theta_out = theta_out % (2.0 * np.pi)
    if np.ndim(theta) == 0:
        return float(t[0, 0]), float(theta_out[0, 0])
    return t[0], theta_out[0]


def _node_count(N, nodes, least=0):
    """Quadrature node count for truncation N: `nodes`, else the larger of `least` and 4N + 4.

    Fewer than 4N + 4 nodes alias the products of modes up to N, so
    :func:`so21.groups._node_count` refuses an explicit count below that
    floor, or one that is not an integer.
    """
    return groups._node_count(nodes, max(4 * N + 4, least), 4 * N + 4)


def _induced_nodes(gammas, gs, count):
    """The induced action on `count` uniform nodes, for a stack of elements and several exponents.

    Runs the cocycle k_theta g = a_t n_u k_theta' once on the nodes theta_j
    and returns the multipliers e^{gamma t} of :func:`so21.groups._a_character`
    (real-typed for a real gamma), one per gamma, formed as they are
    iterated, and the transported angle theta', all of shape (B, count).
    Every induced-action quantity is assembled from these arrays:
    (rho(g) v)(theta_j) = mult_j v(theta'_j).
    """
    t, theta_out = _cocycle_batch(groups._uniform_angles(count), gs)
    return (groups._a_character(gamma, t) for gamma in gammas), theta_out


def _dft_coefficients(values, N):
    """Fourier coefficients |n| <= N of values on the uniform nodes (axis 0).

    Row n + N is the mean over the nodes theta_j of e^{-i n theta_j} values_j,
    read off one FFT: mode n sits in bin n mod nodes.
    """
    nodes = values.shape[0]
    # np.fft is reached here, not at import: numpy loads the fft module
    # lazily, and its first use costs about 2 ms
    return np.fft.fft(values, axis=0)[np.arange(-N, N + 1) % nodes] / nodes


def _mode_ladder(mult, theta_out, N):
    """Yield mult * e^{i n theta'} for n = -N, ..., N, one array per mode.

    Runs the recurrence e^{i (n+1) theta'} = e^{i n theta'} e^{i theta'}, so
    the 2N + 1 modes cost one complex exponential per entry besides the
    first.  Each yielded array is new.
    """
    phase = groups.tau(1, theta_out)
    cur = mult * groups.tau(-N, theta_out)
    for idx in range(2 * N + 1):
        yield cur
        if idx < 2 * N:
            cur = cur * phase


def _coefficients(mults, theta_out, n, m):
    """<rho(g) e_n, e_m> for each row of the node data, one result row per multiplier.

    The modes e^{i n theta'} and the DFT phases e^{-i m theta_j} are built
    once and shared by every multiplier in the iterable `mults`; each row is
    (mult * e^{i n theta'}) @ phases / nodes.
    """
    nodes = theta_out.shape[-1]
    modes = groups.tau(n, theta_out)
    phases = groups.tau(-m, groups._uniform_angles(nodes))
    # the named modes keep mult on the left at every size: numpy moves a
    # temporary right operand of 256 KiB or more to the left to reuse it, and
    # with fused multiply-adds that order can move a complex product's last bit
    return np.array([(mult * modes) @ phases / nodes for mult in mults])


def _blocked_series(c, z):
    """sum_k c[k] z^k at every entry of z, summed in blocks of width ceil(sqrt(len(c))).

    The powers z^0 ... z^{w-1} come from w - 1 in-place products (complex
    cumprod is slower), the zero-padded coefficients reshaped to
    (blocks, w) multiply them in one matrix product, and Horner's rule in
    z^w sums the block rows.
    """
    width = int(np.ceil(np.sqrt(c.size)))
    blocks = -(-c.size // width)
    powers = np.empty((width, z.size), dtype=complex)
    powers[0] = 1.0
    for k in range(1, width):
        np.multiply(powers[k - 1], z, out=powers[k])
    step = powers[-1] * z
    padded = np.zeros(blocks * width, dtype=complex)
    padded[:c.size] = c
    rows = padded.reshape(blocks, width) @ powers
    acc = rows[-1]
    for row in rows[-2::-1]:
        acc *= step
        acc += row
    return acc


def act_principal(p: SpectralParam, g, v: KFourierVector, nodes=None) -> KFourierVector:
    """Induced action of g on a truncated vector, with multiplier e^{gamma t(theta, g)}.

    gamma is :attr:`SpectralParam.exponent`, unitary on the unitary points;
    any other gamma is that of ``SpectralParam.induced_point(2 gamma - 1)``.
    Nodes default to the floor 4N + 4; a TruncationWarning at the caller's
    line flags energy in the top modes of the result.

    v(theta') is summed in blocks (Paterson-Stockmeyer): with z = e^{i theta'}
    and width w = ceil(sqrt(2N + 1)), one (blocks x w) @ (w x nodes) matrix
    product against the powers z^0 ... z^{w-1} gives every block's partial
    sum, and Horner's rule in z^w combines the blocks.  Python loops over
    about sqrt(2N + 1) powers and blocks, not over the coefficients.
    """
    if not p.is_induced:
        raise DomainError(f"act_principal needs an induced kind, got {p.kind}")
    g = _require_element(g, "act_principal input")
    N = v.N
    (mult,), theta_out = _induced_nodes((p.exponent,), g[None], _node_count(N, nodes))
    # v(theta') = e^{-i N theta'} sum_k c_{k-N} z^k with z = e^{i theta'};
    # the FFT then projects back onto |n| <= N
    z = groups.tau(1, theta_out[0])
    values = mult[0] * groups.tau(-N, theta_out[0]) * _blocked_series(v.c, z)
    out = KFourierVector(N, _dft_coefficients(values, N))
    total = np.sum(np.abs(out.c) ** 2)
    # the top modes -N and N, one entry when N = 0
    top = np.sum(np.abs(out.c[[0, -1]] if N else out.c) ** 2)
    if total > 0 and top / total > TOP_MODE_ENERGY_TOL:
        warnings.warn(
            f"top-mode energy fraction {top / total:.2e} exceeds {TOP_MODE_ENERGY_TOL}",
            TruncationWarning,
            stacklevel=2,
        )
    return out


def rep_matrix(p: SpectralParam, g, N: int) -> np.ndarray:
    """Matrix of the induced action of g on the basis e_n, |n| <= N.

    Entry (m + N, n + N) is <rho(g) e_n, e_m>, on the 4N + 4 nodes of
    :func:`_node_count`.
    """
    if not p.is_induced:
        raise DomainError(f"rep_matrix needs an induced kind, got {p.kind}")
    return _rep_matrix(p, g, N, "rep_matrix input")


def _rep_matrix(p, g, N, what):
    """:func:`rep_matrix` in the induced space of p, for the public entry `what`."""
    g = _require_element(g, what)
    (mult,), theta_out = _induced_nodes((p.exponent,), g[None], _node_count(N, None))
    # column n + N holds (rho(g) e_n)(theta_j) = mult_j e^{i n theta'_j}
    columns = np.stack(list(_mode_ladder(mult[0], theta_out[0], N)), axis=1)
    return _dft_coefficients(columns, N)


DEFAULT_MATCOEF_NODES = 128


def _matcoef_batch(exponents, gs, n, m, nodes):
    """<rho(g) e_n, e_m> for a stack of B elements, one (n, m) pair: (len(exponents), B).

    One :func:`_induced_nodes` run, one e^{i n theta'} and one set of DFT
    phases serve every exponent gamma, which applies its own multiplier
    e^{gamma t}; each exponent's row is bit for bit that of a call with it
    alone.  `nodes` None takes 128 nodes, or the floor of
    :func:`_node_count` for max(|n|, |m|) when that is larger.
    """
    count = _node_count(max(abs(n), abs(m)), nodes, DEFAULT_MATCOEF_NODES)
    return _coefficients(*_induced_nodes(exponents, gs, count), n, m)


def matcoef(p: SpectralParam, g, n: int, m: int, nodes=None):
    """Matrix coefficient <rho(g) e_n, e_m> in the L2(K) inner product.

    g is one element or a (..., 3, 3) stack of them; the result is a
    complex scalar for one element and an array of the stack's leading
    shape for a stack.  Both run one :func:`_matcoef_batch` call, so a
    stack agrees with its per-element calls to round-off (a few 1e-16),
    not bit for bit.

    Exact up to aliasing in the theta quadrature (no basis truncation
    enters: a single coefficient is a plain integral over the circle).
    For g in the rotation subgroup this reduces to the character values,
    and the diagonal (n, n) coefficient transforms under k_theta1 g k_theta2
    by the phase e^{i n (theta1 + theta2)}.  The node count defaults as in
    :func:`_matcoef_batch`.
    """
    if not p.is_induced:
        raise DomainError(f"matcoef needs an induced kind, got {p.kind}")
    g = groups.require_member(g, "matcoef input")
    values = _matcoef_batch((p.exponent,), g.reshape(-1, 3, 3), n, m, nodes)[0]
    return values.reshape(g.shape[:-2])[()]


# ---------------------------------------------------------------------------
# K-type bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KTypeSet:
    """Which rotation characters tau_n occur in a representation."""

    param: SpectralParam

    @property
    def _edge(self) -> int:
        """The K-type m/2 where a discrete-series ladder starts."""
        return self.param.m // 2

    @property
    def description(self) -> str:
        p = self.param
        if p.kind == "trivial":
            return "{0}"
        if p.kind == "discrete":
            return f"{{n >= {self._edge}}}" if p.sign > 0 else f"{{n <= {-self._edge}}}"
        return "all integers"

    def contains(self, n) -> bool | np.ndarray:
        n = np.asarray(n)
        p = self.param
        if p.kind == "trivial":
            result = n == 0
        elif p.kind == "discrete":
            result = p.sign * n >= self._edge
        else:
            result = np.ones_like(n, dtype=bool)
        return bool(result) if result.ndim == 0 else result


def k_types(p: SpectralParam) -> KTypeSet:
    """K-type support of a representation as a predicate plus description.

    The trivial representation carries only tau_0; an induced
    representation rho_s carries every tau_n; the discrete series with
    parameter (m, +) carries the upward ladder n = m/2 + j, j >= 0, and its
    mirror (m, -) the downward ladder n = -m/2 - j.
    """
    return KTypeSet(p)


@dataclass(frozen=True)
class SpectralFamily:
    """A family of representations sharing tau_n: a single item or a curve."""

    kind: str  # "trivial", "discrete", or "rho" (all unitary induced)
    m: int = 0
    sign: int = 1

    @property
    def _representative(self) -> SpectralParam:
        """A member of the family; all members share its K-types."""
        if self.kind == "trivial":
            return SpectralParam.trivial()
        if self.kind == "discrete":
            return SpectralParam.discrete(self.m, self.sign)
        return SpectralParam.principal(0.0)

    @property
    def label(self) -> str:
        if self.kind == "rho":
            return "rho_s (principal and complementary)"
        return self._representative.label


def tau_spherical_set(n: int) -> list[SpectralFamily]:
    """All families of irreducible unitary representations containing tau_n.

    Keeps the candidates whose :func:`k_types` contain n: the trivial
    representation, the ladders D(m, +-) with m = 2, 4, ..., 2|n| + 2, and
    the rho_s family.  That gives every rho_s family, the trivial one only at
    n = 0, and for n != 0 the ladders D(m, sign n) with m <= 2|n|.
    """
    candidates = [SpectralFamily("trivial")]
    candidates += [SpectralFamily("discrete", m=m, sign=sign)
                   for m in range(2, 2 * abs(n) + 3, 2) for sign in (1, -1)]
    candidates.append(SpectralFamily("rho"))
    return [family for family in candidates if k_types(family._representative).contains(n)]


# ---------------------------------------------------------------------------
# Discrete-series ladders
# ---------------------------------------------------------------------------

LADDER_GUARD = 4
LADDER_SOURCE_GUARD = 8


def discrete_ladder_leakage(m: int, sign: int, g, N: int) -> float:
    """Coefficient mass escaping the discrete-series ladder inside V(m-1).

    Acts with the induced representation at parameter s = m - 1, on the
    4N + 4 nodes of :func:`rep_matrix`, on every basis vector of the ladder
    (n >= m/2 for sign +, mirrored for -) whose index keeps a margin of 8
    below the truncation bound, and measures the relative mass landing
    outside the ladder.  The top 4 modes on each side
    are excluded as truncation guard.  An exactly invariant subspace drives
    this to round-off, so criterion 7 holds it below 1e-12 at every N.
    """
    p = SpectralParam.discrete(m, sign)
    types = k_types(p)
    if N < types._edge + LADDER_SOURCE_GUARD:
        raise DomainError(f"need N >= {types._edge + LADDER_SOURCE_GUARD} for m = {m}")
    ns = np.arange(-N, N + 1)
    in_ladder = types.contains(ns)
    guard = np.abs(ns) <= N - LADDER_GUARD
    sources = in_ladder & (np.abs(ns) <= N - LADDER_SOURCE_GUARD)
    cols = _rep_matrix(p, g, N, "discrete_ladder_leakage input")[:, sources]
    leaked = np.sum(np.abs(cols[~in_ladder & guard, :]) ** 2)
    total = np.sum(np.abs(cols[guard, :]) ** 2)
    if total == 0.0:
        return 0.0
    return float(leaked / total)
