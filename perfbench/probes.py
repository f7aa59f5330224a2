"""Accuracy probes with benchmark-owned references, and the traced
per-layer counts.

* ``quad_err``: criterion 10's three character-identity cases at the
  library-default grid and truncation, against the K.A.K integration
  formula (Knapp, *Representation Theory of Semisimple Groups*, Ch. V):
  for f of bi-type (n, n) with radial profile b,
  the integral of f times the (-n, -n) coefficient is
  2 pi * int b(r) matcoef(a_r; -n, -n) sinh r dr.
* ``radial_err``: matcoef and phi at default node counts against the same
  calls with an explicit large ``nodes=``, on a radius sweep t in [0, 6].
  Measured, never gated.
* ``haar_defect``: the Haar translation-invariance defect at the
  library-default translations, the number criterion 11 certifies.  The
  seeded translations of the ``haar`` workload are gated, not measured:
  their worst defect aliases with the grid spacing and moves by about 20%
  from seed to seed, which no bound could absorb.

Each reference is checked for drift against a second resolution; drift
beyond its limit is a benchmark error, and no metric is reported.
"""

from __future__ import annotations

import numpy as np

from so21 import character, equivariant, groups, hyperbolic, reps

from env import BenchmarkError
from tracing import NULL
from workloads import HAAR_DEFECT_LIMIT, HAAR_GRID, haar_translations

ORACLE_QUAD = 64          # Gauss-Legendre nodes; drift is measured against 2x
ORACLE_COEF_NODES = 512   # converged to roundoff for radii <= 1
ORACLE_DRIFT_LIMIT = 1e-9
RADIAL_TS = np.linspace(0.0, 6.0, 13)
RADIAL_REF_NODES = 4096   # drift is measured against 2x
RADIAL_DRIFT_LIMIT = 1e-6
RADIAL_PARAM = reps.SpectralParam.principal(1.0)

# Criterion 10's cases: (label, parameter, n, witness type, use corollary).
WITNESS_PROFILE = equivariant.BumpProfile(0.6, 0.3)
QUAD_CASES = (
    ("rho_i n=1", reps.SpectralParam.principal(1.0), 1, 1, False),
    ("rho_0.5 n=0", reps.SpectralParam.complementary(0.5), 0, 0, False),
    ("corollary rho_i n=1", reps.SpectralParam.principal(1.0), 1, -1, True),
)


def kak_oracle(p, m, profile, quad):
    """2 pi * int b(r) <rho(a_r) e_m, e_m> sinh r dr by Gauss-Legendre."""
    lo, hi = profile.support
    xs, ws = np.polynomial.legendre.leggauss(quad)
    rs = lo + (hi - lo) * (xs + 1.0) / 2.0
    ws = ws * (hi - lo) / 2.0
    coefs = np.array([reps.matcoef(p, groups.make_a(r), m, m, nodes=ORACLE_COEF_NODES)
                      for r in rs])
    return complex(2.0 * np.pi * np.sum(ws * profile(rs) * coefs * np.sinh(rs)))


def quad_err(tr=NULL, grid=None):
    """Worst relative error of both sides of the identity against the oracle.

    ``grid=None`` leaves the grid to the library default, as criterion 10's
    base run does; passing a grid is how the negative control coarsens it.
    """
    worst = 0.0
    for label, p, n, witness_type, corollary in QUAD_CASES:
        f = equivariant.separation_witness(witness_type, WITNESS_PROFILE)
        if corollary:
            with tr.span("character.corollary_check"):
                res = character.corollary_check(p, n, f, grid=grid)
            m = n
        else:
            with tr.span("character.char_identity_check"):
                res = character.char_identity_check(p, n, f, grid=grid)
            m = -n
        coarse = kak_oracle(p, m, WITNESS_PROFILE, ORACLE_QUAD)
        ref = kak_oracle(p, m, WITNESS_PROFILE, 2 * ORACLE_QUAD)
        drift = abs(coarse - ref) / abs(ref)
        if drift > ORACLE_DRIFT_LIMIT:
            raise BenchmarkError(f"K.A.K oracle drift {drift:.2e} for {label}")
        err = max(abs(res.lhs_trace - ref), abs(res.rhs_integral - ref)) / abs(ref)
        worst = max(worst, err)
    return worst


def _radial_gap(default_call, reference_call):
    ref = reference_call(RADIAL_REF_NODES)
    drift = abs(ref - reference_call(2 * RADIAL_REF_NODES)) / abs(ref)
    if drift > RADIAL_DRIFT_LIMIT:
        raise BenchmarkError(f"radial reference drift {drift:.2e}")
    return abs(default_call() - ref) / abs(ref)


def radial_err():
    """Worst relative error of default-node matcoef and phi on t in [0, 6].

    Not traced: its large-node reference calls would skew the per-call
    spans of the ``pointwise`` workload.
    """
    p = RADIAL_PARAM
    w = (1.0 + p.s) / 2.0
    worst = 0.0
    for t in RADIAL_TS:
        a = groups.make_a(t)
        z = complex(0.0, np.exp(t))

        def coef(nodes=None):
            return reps.matcoef(p, a, 0, 0, nodes=nodes)

        def sph(nodes=None):
            return hyperbolic.phi(w, z, nodes=nodes)

        worst = max(worst, _radial_gap(coef, coef), _radial_gap(sph, sph))
    return worst


def haar_defect(tr=NULL):
    grid = character.HaarGrid(**HAAR_GRID)
    with tr.span("character.haar_invariance_check"):
        res = character.haar_invariance_check(grid)
    return res.worst


def accuracy(checks, tr=NULL) -> dict:
    """All three accuracy metrics; the Haar defect is also gated."""
    values = {"quad_err": quad_err(tr), "radial_err": radial_err(),
              "haar_defect": haar_defect(tr)}
    checks.expect(f"haar defect {values['haar_defect']:.2e}",
                  values["haar_defect"] < HAAR_DEFECT_LIMIT)
    return values


def layer_counts(tr, seed):
    """Traced-only layer timings and counts around the character grids.

    Fills the tracer's counts: default-grid node and active-node counts for
    criterion 10's witness, and the computed size of one element stack of
    the Haar grid (nodes x 9 float64) with the number of stacks one
    ``haar_invariance_check`` call builds.
    """
    default = character.HaarGrid()
    T, U, TH = default.nodes()
    with tr.span("groups.construct"):
        G = groups.make_a(T) @ groups.make_n(U) @ groups.make_k(TH)
    witness = equivariant.separation_witness(1, WITNESS_PROFILE)
    with tr.span("equivariant.witness"):
        values = witness(G)
    tr.count("character.grid_nodes", int(G.shape[0]))
    tr.count("character.active_nodes", int(np.count_nonzero(np.abs(values) > 0.0)))
    del G, values
    with tr.span("character.char_identity_check_refined"):
        character.char_identity_check(
            QUAD_CASES[0][1], 1, witness, grid=default.refine())
    haar = character.HaarGrid(**HAAR_GRID)
    with tr.span("character.grid_elements"):
        stack = haar.elements()
    tr.count("character.haar_nodes", int(stack.shape[0]))
    tr.count("character.stack_bytes", int(stack.shape[0]) * 9 * 8)
    tr.count("character.stacks_built", 1 + 2 * len(haar_translations(seed)))
