"""The benchmark's three workloads: seeded inputs, one iteration of fixed
work, and the checks on its outputs.

Every workload draws its inputs from ``numpy.random.default_rng([seed, k])``
with its own stream number k, so the same seed gives the same inputs and
the library receives only the generated values.  An iteration calls the
public API of so21 and returns the outputs; :meth:`check` runs afterwards,
outside the timed region.  Spans opened through the tracer mark each call
into a module; with :data:`tracing.NULL` they record nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from so21 import acceptance, character, equivariant, groups, hyperbolic, lie, reps

HAAR_GRID = dict(nt=96, nu=96, ntheta=128)
HAAR_DEFECT_LIMIT = 5e-3


class Checks:
    """Tally of output checks; keeps the first few failures for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)


# ---------------------------------------------------------------------------
# battery: the acceptance battery behind `so21 suite`
# ---------------------------------------------------------------------------

def _criteria():
    """The criterion functions of the battery, in criterion order."""
    found = [(int(name.split("_")[1]), getattr(acceptance, name))
             for name in dir(acceptance) if name.startswith("criterion_")]
    return [fn for _, fn in sorted(found, key=lambda item: item[0])]


class Battery:
    """``acceptance.run_all(fast=False)``; its inputs are fixed by the battery.

    The seed is recorded but unused.  A traced iteration calls the criterion
    functions one by one, so each gets its own span.  Every iteration checks
    that ``run_all`` runs exactly those criteria, in order; whether their
    spans cover the ``run_all`` time is a timing question, which
    ``baseline.py`` answers over many runs.
    """

    name = "battery"
    kernel = ("large", 7)  # calibration kernel matching its work, and runs per median

    def __init__(self, seed):
        self.criteria = _criteria()
        self.numbers = [int(fn.__name__.split("_")[1]) for fn in self.criteria]

    def run(self, tr):
        if not tr.enabled:
            return acceptance.run_all(fast=False)
        results = []
        for number, fn in zip(self.numbers, self.criteria):
            with tr.span(f"acceptance.c{number:02d}"):
                results.append(fn())
        return results

    def check(self, results, checks):
        ran = [res.number for res in results]
        checks.expect(f"run_all ran criteria {ran}", ran == self.numbers)
        for res in results:
            checks.expect(f"criterion {res.number}: {res.detail}", res.passed)


# ---------------------------------------------------------------------------
# pointwise: single-element queries, the calls the CLI handlers make
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    g: np.ndarray            # element with Iwasawa t, u in [-2, 2]
    theta: float             # its rotation coordinate
    param: reps.SpectralParam
    n: int
    sign: int                # discrete-series ladder side
    boost: np.ndarray        # a_t with t in [0, 2], for matcoef vs phi
    boost_point: complex     # e^t i, the image of i under that boost
    z: complex               # upper half-plane point, x in [-2, 2], y in [0.5, 4]
    witness: equivariant.EquivariantFn


@dataclass(frozen=True)
class QuerySet:
    queries: tuple
    stack: np.ndarray        # the queries' elements as one (K, 3, 3) stack
    act_param: reps.SpectralParam
    act_element: np.ndarray  # a_t k_theta with t in [0, 1]
    act_vector: reps.KFourierVector
    gram_params: tuple


class Pointwise:
    """A seeded mix of single-element queries with no Haar grid.

    One iteration is one query set: K elements, each sent through the
    groups, reps, hyperbolic, lie and equivariant entry points, plus one
    batched ``iwasawa`` over the set's stack, one ``act_principal`` and one
    ``gram_min_eig``.  Iterations cycle through ``SETS`` query sets.
    """

    name = "pointwise"
    kernel = ("small", 1)
    SETS = 32
    K = 8
    REP_N = 16
    LADDER_N = 24
    # act_principal preserves the norm only while the acted vector fits in
    # the truncation: N = 128 holds a decay-4 vector under boosts t <= 1.
    ACT_N = 128

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.sets = tuple(self._query_set(rng) for _ in range(self.SETS))
        self._next = 0

    def _query_set(self, rng):
        K = self.K
        t, u = rng.uniform(-2.0, 2.0, (2, K))
        theta = rng.uniform(0.0, 2.0 * np.pi, K)
        stack = groups.make_a(t) @ groups.make_n(u) @ groups.make_k(theta)
        boost_t = rng.uniform(0.0, 2.0, K)
        queries = []
        for i in range(K):
            # even slots: unitary principal series; odd: complementary series
            if i % 2 == 0:
                param = reps.SpectralParam.principal(rng.uniform(0.25, 1.5))
            else:
                param = reps.SpectralParam.complementary(rng.uniform(0.1, 0.9))
            n = int(rng.integers(-2, 3))
            profile = equivariant.BumpProfile(rng.uniform(0.4, 2.5), 0.3)
            queries.append(Query(
                g=stack[i], theta=float(theta[i]), param=param, n=n,
                sign=1 if i % 2 == 0 else -1,
                boost=groups.make_a(boost_t[i]),
                boost_point=complex(0.0, np.exp(boost_t[i])),
                z=complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0)),
                witness=equivariant.separation_witness(n, profile),
            ))
        act_element = groups.make_a(rng.uniform(0.0, 1.0)) @ groups.make_k(
            rng.uniform(0.0, 2.0 * np.pi))
        gram_params = (
            reps.SpectralParam.principal(rng.uniform(0.5, 1.0)),
            reps.SpectralParam.principal(rng.uniform(1.5, 2.5)),
            reps.SpectralParam.complementary(rng.uniform(0.2, 0.8)),
        )
        return QuerySet(tuple(queries), stack,
                        reps.SpectralParam.principal(rng.uniform(0.25, 1.5)),
                        act_element,
                        reps.KFourierVector.smooth_random(self.ACT_N, rng),
                        gram_params)

    def run(self, tr):
        qs = self.sets[self._next % len(self.sets)]
        self._next += 1
        with tr.span("groups.iwasawa_batch"):
            batch = groups.iwasawa(qs.stack)
        rows = []
        for q in qs.queries:
            p, n, g = q.param, q.n, q.g
            w = (1.0 + p.s) / 2.0
            with tr.span("groups.require_member"):
                groups.require_member(g)
            with tr.span("groups.iwasawa"):
                iw = groups.iwasawa(g)
            with tr.span("groups.cartan"):
                ct = groups.cartan(g)
            with tr.span("groups.psi_inv"):
                lifted = groups.psi_inv(g)
            with tr.span("groups.psi"):
                covered = groups.psi(lifted.matrix)
            with tr.span("reps.matcoef"):
                coef = reps.matcoef(p, g, n, n)
            with tr.span("reps.rep_matrix"):
                reps.rep_matrix(p, g, self.REP_N)
            with tr.span("reps.ladder_leakage"):
                reps.discrete_ladder_leakage(2, q.sign, g, self.LADDER_N)
            with tr.span("hyperbolic.phi"):
                hyperbolic.phi(w, q.z)
            # matcoef against phi on a boost is a check; its own span names
            # keep it out of the per-call medians of the queries above.
            with tr.span("reps.matcoef_boost"):
                boost_coef = reps.matcoef(p, q.boost, 0, 0)
            with tr.span("hyperbolic.phi_boost"):
                boost_phi = hyperbolic.phi(w, q.boost_point)
            with tr.span("hyperbolic.eigencheck"):
                eig = hyperbolic.eigencheck(w, q.z)
            with tr.span("lie.exp_matrix"):
                rotation = lie.exp_matrix(q.theta * lie.W)
            with tr.span("lie.casimir_apply"):
                casimir = lie.casimir_apply(lambda h: reps.matcoef(p, h, n, n), g)
            with tr.span("equivariant.project_biequivariant"):
                projected = equivariant.project_biequivariant(q.witness, n)(g)
            with tr.span("equivariant.right_isotype"):
                right = equivariant.right_isotype_project(q.witness, n)(g)
            rows.append((iw, ct, covered, coef, boost_coef, boost_phi, eig,
                         rotation, casimir, projected, right))
        with tr.span("reps.act_principal"):
            moved = reps.act_principal(qs.act_param, qs.act_element, qs.act_vector)
        with tr.span("equivariant.gram_min_eig"):
            gram = equivariant.gram_min_eig(list(qs.gram_params), 0)
        return qs, batch, rows, moved, gram

    def check(self, outputs, checks):
        qs, batch, rows, moved, gram = outputs
        batch_err = float(np.max(np.abs(groups.recompose(batch) - qs.stack)))
        checks.expect(f"batched iwasawa round trip {batch_err:.2e}", batch_err < 1e-10)
        for q, row in zip(qs.queries, rows):
            iw, ct, covered, coef, boost_coef, boost_phi, eig, rotation, casimir, \
                projected, right = row
            err = float(np.max(np.abs(groups.recompose(iw) - q.g)))
            checks.expect(f"iwasawa round trip {err:.2e}", err < 1e-10)
            rebuilt = groups.make_k(ct.theta1) @ groups.make_a(ct.t) @ groups.make_k(ct.theta2)
            err = float(np.max(np.abs(rebuilt - q.g)))
            checks.expect(f"cartan round trip {err:.2e}", err < 1e-9)
            err = float(np.max(np.abs(covered - q.g)))
            checks.expect(f"psi(psi_inv) round trip {err:.2e}", err < 1e-9)
            err = abs(boost_coef - boost_phi)
            checks.expect(f"matcoef vs phi on a boost {err:.2e}", err < 1e-7)
            checks.expect(f"eigencheck {eig.rel_err:.2e}", eig.rel_err < 1e-4)
            err = float(np.max(np.abs(rotation - groups.make_k(q.theta))))
            checks.expect(f"exp(theta W) vs k_theta {err:.2e}", err < 1e-12)
            # The eigen-equation residual, not the ratio casimir / coef: the
            # ratio divides the O(h^2) stencil error by coefficients that
            # pass through zero, while |coef| <= |coef(e)| = 1 bounds the scale.
            s = complex(q.param.s)
            err = abs(casimir - (s * s - 1.0) / 4.0 * coef)
            checks.expect(f"casimir residual {err:.2e} at s={s}", err < 1e-4)
            target = complex(q.witness(q.g))
            err = max(abs(projected - target), abs(right - target))
            checks.expect(f"projector idempotence {err:.2e}", err < 1e-9)
        err = abs(moved.norm() - 1.0)
        checks.expect(f"act_principal norm defect {err:.2e}", err < 1e-7)
        checks.expect(f"gram min eig {gram.min_eig:.2e}", gram.min_eig > 0.0)


# ---------------------------------------------------------------------------
# haar: the translation-invariance certificate on the 96 x 96 x 128 grid
# ---------------------------------------------------------------------------

def haar_translations(seed) -> dict:
    """Seeded boost, unipotent and rotation for the Haar oracle.

    The ranges keep the oracle's test function, supported on polar radii
    [0.25, 0.95], inside the default box after translation.
    """
    rng = np.random.default_rng([seed, 3])
    t0 = rng.uniform(0.1, 0.5)
    u0 = rng.uniform(0.2, 0.8)
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    return {f"a({t0:.4f})": groups.make_a(t0),
            f"n({u0:.4f})": groups.make_n(u0),
            f"k({theta0:.4f})": groups.make_k(theta0)}


class Haar:
    """``character.haar_invariance_check`` with seeded translations."""

    name = "haar"
    kernel = ("fresh", 3)

    def __init__(self, seed):
        self.grid = character.HaarGrid(**HAAR_GRID)
        self.translations = haar_translations(seed)

    def run(self, tr):
        with tr.span("character.haar_invariance_check"):
            return character.haar_invariance_check(self.grid, self.translations)

    def check(self, res, checks):
        checks.expect(f"haar defect {res.worst:.2e}", res.worst < HAAR_DEFECT_LIMIT)


WORKLOADS = {cls.name: cls for cls in (Battery, Pointwise, Haar)}
