"""The acceptance battery: one function per verification criterion.

Each criterion returns a :class:`CriterionResult` with a pass flag and a
human-readable detail string.  The battery is what both the test suite and
the `suite` CLI subcommand run; everything is seeded and deterministic.
The CLI's check subcommands run the gates of criteria 4, 7, 10 and 11.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import character, equivariant, groups, hyperbolic, lie, reps

# Regression threshold for the Gram certificate, frozen from the first
# converged computation (value 1.669e-4 at quad 64/128, coefficient nodes 128).
GRAM_MIN_EIG_THRESHOLD = 1e-4

# The gates shared with the check subcommands: criterion 4's residual, 7's
# leakage, 10's base and refined rel_err, and 11's bound on the defects and
# the normalization gap and its floor on the a/n right defects
EIGEN_RESIDUAL_BOUND, LADDER_LEAK_BOUND = 1e-4, 1e-12
CHAR_BASE_BOUND, CHAR_REFINED_BOUND = 0.02, 0.01
HAAR_DEFECT_BOUND, HAAR_RIGHT_FLOOR = 5e-3, 1e-12
CHAR_PROFILE = equivariant.BumpProfile(0.6, 0.3)  # criterion 10's witnesses


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} ({self.name}): {self.detail} [{self.seconds:.1f}s]"


def _result(number, name, start, passed, detail) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), detail, time.perf_counter() - start)


def _exp(bound) -> str:
    """A bound as the detail lines print it, with no zero before the exponent's digit."""
    return f"{bound:.0e}".replace("e-0", "e-")


def criterion_1_covering_homomorphism() -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(20250101)
    count = 1000
    t1, u1 = rng.uniform(-2, 2, (2, count))
    t2, u2 = rng.uniform(-2, 2, (2, count))
    a1, a2 = rng.uniform(0, 2 * np.pi, (2, count))
    m1 = groups.sl2_a(t1) @ groups.sl2_n(u1) @ groups.sl2_k(a1)
    m2 = groups.sl2_a(t2) @ groups.sl2_n(u2) @ groups.sl2_k(a2)
    defect = float(np.max(np.abs(groups.psi(m1 @ m2) - groups.psi(m1) @ groups.psi(m2))))
    gs = groups.make_a(t1) @ groups.make_n(u1) @ groups.make_k(a1)
    round_trip = float(np.max(np.abs(groups.psi(groups.psi_inv(gs).matrix) - gs)))
    passed = defect < 1e-11 and round_trip < 1e-13
    return _result(1, "covering homomorphism", start, passed,
                   f"hom defect {defect:.2e} (<1e-11), round trip {round_trip:.2e} (<1e-13)")


def criterion_2_decompositions() -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(20250102)
    gs = groups.random_elements(rng, 1000)
    iw_err = float(np.max(np.abs(groups.recompose(groups.iwasawa(gs)) - gs)))
    cc = groups.cartan(gs)
    rebuilt = groups.make_k(cc.theta1) @ groups.make_a(cc.t) @ groups.make_k(cc.theta2)
    ck_err = float(np.max(np.abs(rebuilt - gs)))
    k1 = groups.make_k(rng.uniform(0, 2 * np.pi, 200))
    k2 = groups.make_k(rng.uniform(0, 2 * np.pi, 200))
    sample = groups.random_elements(rng, 200)
    inv_err = float(np.max(np.abs(
        groups.cartan_radius(k1 @ sample @ k2) - groups.cartan_radius(sample))))
    passed = iw_err < 1e-13 and ck_err < 1e-9 and inv_err < 1e-10
    return _result(2, "Iwasawa/Cartan", start, passed,
                   f"iwasawa {iw_err:.2e} (<1e-13), cartan {ck_err:.2e} (<1e-9), "
                   f"radius invariance {inv_err:.2e} (<1e-10)")


def criterion_3_lie_layer() -> CriterionResult:
    start = time.perf_counter()
    table_exact = (
        np.array_equal(lie.bracket(lie.W, lie.V1), -lie.V2)
        and np.array_equal(lie.bracket(lie.W, lie.V2), lie.V1)
        and np.array_equal(lie.bracket(lie.V1, lie.V2), lie.W)
    )
    dplus, dminus = lie.ad_w_eigencheck()
    exp_err = max(float(np.max(np.abs(lie.exp_matrix(x * gen) - make(x))))
                  for gen, make, xs in ((lie.W, groups.make_k, (0.1, 1.0, 3.0)),
                                        (lie.V2, groups.make_a, (0.3, 1.0, 2.5)),
                                        (lie.V1 - lie.W, groups.make_n, (0.5, 1.0, 2.0)))
                  for x in xs)
    passed = table_exact and dplus == 0.0 and dminus == 0.0 and exp_err < 1e-12
    return _result(3, "Lie layer", start, passed,
                   f"bracket table exact={table_exact}, ad W defects ({dplus}, {dminus}), "
                   f"exp vs closed forms {exp_err:.2e} (<1e-12)")


def criterion_4_spherical_eigenvalue() -> CriterionResult:
    start = time.perf_counter()
    x, y = np.meshgrid(np.linspace(-2.0, 2.0, 5), np.linspace(0.5, 4.0, 5))
    # the 5x5 grid, then the point where the spectral form is read
    points = np.append(x + 1j * y, 1.0 + 2.0j)
    exponents = (0.3, 0.5, 1.0, 0.5 + 0.5j, 0.5 + 1j, 0.5 + 3j)
    res = hyperbolic.eigencheck(np.array(exponents), points)  # shape (6, 26)
    worst = float(np.max(res.rel_err[:, :-1]))
    spectral_gap = 0.0
    for s in (1j, 0.0):
        k = exponents.index((1.0 + s) / 2.0)
        target = (1.0 - complex(s) ** 2) / 4.0
        value = res.value[k, -1]
        spectral_gap = max(spectral_gap, abs(res.lhs[k, -1] - target * value) / abs(value))
    passed = worst < EIGEN_RESIDUAL_BOUND and spectral_gap < EIGEN_RESIDUAL_BOUND
    return _result(4, "spherical eigenvalue", start, passed,
                   f"worst residual {worst:.2e} (<{_exp(EIGEN_RESIDUAL_BOUND)}), "
                   f"spectral form {spectral_gap:.2e}")


def criterion_5_unitarity() -> CriterionResult:
    start = time.perf_counter()
    v = reps.KFourierVector.smooth_random(256, np.random.default_rng(20250105))

    def deviation(p):
        return max(abs(reps.act_principal(p, groups.make_a(t), v).norm() - 1.0) for t in (0.7, 2.0))

    worst_dev = max(deviation(reps.SpectralParam.from_s(s)) for s in (1j, 2j))
    dev_nonunitary = deviation(reps.SpectralParam.from_s(1 + 1j))
    # the unshifted exponent 1 + s at s = i, reached as the point 1 + 2i
    dev_unnormalized = deviation(reps.SpectralParam.from_s(1 + 2j))
    passed = worst_dev < 1e-7 and dev_nonunitary > 0.1 and dev_unnormalized > 0.1
    return _result(5, "unitarity discrimination", start, passed,
                   f"unitary dev {worst_dev:.2e} (<1e-7), controls {dev_nonunitary:.2f}/"
                   f"{dev_unnormalized:.2f} (>0.1)")


def criterion_6_matcoef_vs_spherical() -> CriterionResult:
    start = time.perf_counter()
    ts = np.linspace(0.0, 2.0, 9)
    worst = 0.0
    for s in (1j, 0.5):
        p = reps.SpectralParam.from_s(s)
        ph = hyperbolic.phi((1 + complex(s)) / 2.0, np.exp(ts) * 1j)
        mc = reps.matcoef(p, groups.make_a(ts), 0, 0, nodes=256)
        worst = max(worst, float(np.max(np.abs(mc - ph))))
    passed = worst < 1e-7
    return _result(6, "matcoef vs spherical", start, passed,
                   f"worst gap {worst:.2e} (<1e-7)")


def criterion_7_ladders() -> CriterionResult:
    start = time.perf_counter()
    g = groups.make_a(1.0)
    leaks = {N: reps.discrete_ladder_leakage(2, 1, g, N) for N in (16, 24, 32)}
    mirrored = reps.discrete_ladder_leakage(2, -1, g, 24)
    # an exactly invariant ladder leaks only round-off (at most 1.5e-15 here),
    # so every truncation is held to one round-off bound
    passed = all(leak < LADDER_LEAK_BOUND for leak in (*leaks.values(), mirrored))
    detail = ", ".join(f"N={N}: {leaks[N]:.1e}" for N in (16, 24, 32))
    return _result(7, "discrete-series ladder", start, passed,
                   f"{detail}, mirrored {mirrored:.1e} (<{_exp(LADDER_LEAK_BOUND)})")


def criterion_8_projectors() -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(20250108)
    profile = equivariant.BumpProfile(0.8, 0.2)
    probes = groups.random_elements(rng, 4, t_bound=0.9, u_bound=0.5)
    worst_idem = worst_annihilate = 0.0
    ns = range(-6, 7)
    witness_cache = {m: equivariant.separation_witness(m, profile) for m in ns}
    for m in ns:
        # every isotype n of witness m from one evaluation per probe
        isotypes = equivariant._isotype_projector(
            witness_cache[m], ns, nodes=equivariant.MIN_PROJECTION_NODES)(probes)
        for n, values in zip(ns, isotypes):
            if n == m:
                worst_idem = max(worst_idem, float(np.max(np.abs(
                    values - witness_cache[m](probes)))))
            else:
                worst_annihilate = max(worst_annihilate, float(np.max(np.abs(values))))
    t0, delta = 0.8, 0.2
    witness = witness_cache[1]
    on_orbit = abs(complex(witness(groups.make_a(t0))))
    off_orbit = abs(complex(witness(groups.make_a(t0 + 3 * delta))))
    margin_ok = on_orbit > 0.5 * profile(profile.center) and off_orbit == 0.0
    passed = worst_idem < 1e-9 and worst_annihilate < 1e-9 and margin_ok
    return _result(8, "projector algebra", start, passed,
                   f"idempotence {worst_idem:.2e}, annihilation {worst_annihilate:.2e} (<1e-9), "
                   f"witness {on_orbit:.3f} vs {off_orbit}")


def criterion_9_gram() -> CriterionResult:
    start = time.perf_counter()
    params = [reps.SpectralParam.from_s(s) for s in (1j, 2j, 0.5)]
    res = equivariant.gram_min_eig(params, 0)
    dup = equivariant.gram_min_eig(params + [params[0]], 0)
    passed = res.min_eig > GRAM_MIN_EIG_THRESHOLD and abs(dup.min_eig) < 1e-10
    return _result(9, "linear independence", start, passed,
                   f"min eig {res.min_eig:.3e} (>{GRAM_MIN_EIG_THRESHOLD:.0e}), "
                   f"duplicated {dup.min_eig:.1e} (<1e-10)")


def character_check(p, n, grids, profile, N=None):
    """Criterion 10 on `grids`: the results and the verdict, the first grid held to
    the base bound and each later one, a refinement, to the refined bound.

    The witness of `profile` has bi-type (n, n).
    """
    f = equivariant.separation_witness(n, profile)
    results = [character.char_identity_check(p, n, f, grid=grid, N=N) for grid in grids]
    bounds = [CHAR_BASE_BOUND] + [CHAR_REFINED_BOUND] * (len(results) - 1)
    return results, all(res.rel_err < bound for res, bound in zip(results, bounds))


def criterion_10_character_identity(fast=False) -> CriterionResult:
    start = time.perf_counter()
    base = character.HaarGrid()
    # one refined grid for every case, so its row bases, rotations and
    # boundary samples are built once
    grids = [base] if fast else [base, base.refine()]
    rho_i, rho_half = reps.SpectralParam.principal(1.0), reps.SpectralParam.complementary(0.5)
    # the corollary at n = 1 tests a witness of bi-type (-1, -1): the identity at n = -1
    cases = [("rho_i n=1", rho_i, 1), ("rho_0.5 n=0", rho_half, 0),
             ("corollary rho_i n=1", rho_i, -1)]
    details, ok = [], True
    for name, p, n in cases:
        results, passed = character_check(p, n, grids, CHAR_PROFILE)
        ok = ok and passed
        details.append(f"{name}: " + "/".join(f"{res.rel_err:.1e}" for res in results))
    (zero_case,), _ = character_check(reps.SpectralParam.discrete(4, 1), 1, [base], CHAR_PROFILE)
    lhs_mag, rhs_mag = abs(zero_case.lhs_trace), abs(zero_case.rhs_integral)
    ok = ok and lhs_mag < 1e-3 and rhs_mag < 1e-3
    details.append(f"empty isotype: |lhs|={lhs_mag:.1e}, |rhs|={rhs_mag:.1e} (<1e-3)")
    refined = "" if fast else f", refined <{CHAR_REFINED_BOUND:.0%}"
    return _result(10, "character identity", start, ok,
                   "; ".join(details) + f" (base <{CHAR_BASE_BOUND:.0%}{refined})")


def haar_check(grid):
    """Criterion 11 on `grid`: the oracle's result, the verdict and the detail line.

    Each oracle translation of positive Cartan radius moves the nodes off
    their rows' radii, so a grid that applies it shows a quadrature error,
    never a right defect below HAAR_RIGHT_FLOOR; with none the check fails.
    A rotation's may be 0, as a uniform theta rule is rotation-invariant.
    """
    res = character.haar_invariance_check(grid)
    moving = [name for name, g in character.ORACLE_TRANSLATIONS.items() if groups.cartan_radius(g) > 0]
    least_moving = min((res.per_translation[name]["right"] for name in moving), default=0.0)
    passed = (res.worst < HAAR_DEFECT_BOUND and res.normalization_gap < HAAR_DEFECT_BOUND
              and least_moving >= HAAR_RIGHT_FLOOR)
    bound = _exp(HAAR_DEFECT_BOUND)
    detail = (f"worst defect left {res.worst_left:.2e} / right {res.worst_right:.2e} (<{bound}), "
              f"least a/n right {least_moving:.2e} (>={_exp(HAAR_RIGHT_FLOOR)}), "
              f"normalization {res.normalization_gap:.2e} (<{bound})")
    return res, passed, detail


def criterion_11_haar(fast=False) -> CriterionResult:
    start = time.perf_counter()
    shape = character.FAST_ORACLE_GRID if fast else character.ORACLE_GRID
    _, passed, detail = haar_check(character.HaarGrid(*shape))
    return _result(11, "Haar certification", start, passed, detail)


def run_all(fast=False) -> list[CriterionResult]:
    """Run every criterion in order; `fast` shrinks the two heavy grids."""
    return [
        criterion_1_covering_homomorphism(),
        criterion_2_decompositions(),
        criterion_3_lie_layer(),
        criterion_4_spherical_eigenvalue(),
        criterion_5_unitarity(),
        criterion_6_matcoef_vs_spherical(),
        criterion_7_ladders(),
        criterion_8_projectors(),
        criterion_9_gram(),
        criterion_10_character_identity(fast=fast),
        criterion_11_haar(fast=fast),
    ]
