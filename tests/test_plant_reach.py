"""Each numerical convention has one home, and every consumer reaches it.

A plant is a one-line change at a convention's home: the Iwasawa kernel's
boost, the polar entries and the route their builder takes, the uniform
angles on K, the node count of a rule on K, the rotation character tau_n,
the character e^{gamma t} of A, the unitary exponent, the sign of the
cocycle's theta', the order of the DFT coefficients, the Haar node weight
and the discrete-series ladder edge.  Every consumer listed for a home must
move its output under its plant by more than 1e-10 relative, far above
round-off; a consumer that kept a copy of the convention, or imported a
kernel by value, gives the old output and fails here.  The battery's
verdict under each plant, the exact set of criteria that
`acceptance.run_all(fast=True)` fails, is pinned as well, so a criterion
that starts or stops seeing a plant shows here.
"""

import warnings

import numpy as np
import pytest

from so21 import acceptance, character, equivariant, groups, hyperbolic, reps

_RHO_I = reps.SpectralParam.principal(1.0)
_D2 = reps.SpectralParam.discrete(2, 1)
_G = groups.recompose(groups.IwasawaCoords(0.7, 0.3, 1.1))
_GRID = character.HaarGrid(nt=16, nu=16, ntheta=32)
_PROFILE = equivariant.BumpProfile(0.6, 0.3)


def _char_sides(p, n):
    res = character.char_identity_check(p, n, equivariant.separation_witness(n, _PROFILE),
                                        grid=_GRID, N=6)
    return [res.lhs_trace, res.rhs_integral]


def _haar_sides(grid):
    res = character.haar_invariance_check(grid)
    return [res.base_integral, res.worst_right]


CONSUMERS = {
    "iwasawa": lambda: list(vars(groups.iwasawa(_G)).values()),
    "cartan": lambda: list(vars(groups.cartan(_G)).values()),
    # on 16 nodes the far point's integrand aliases, so the values see where
    # the nodes sit; a complex and a real exponent
    "phi": lambda: hyperbolic.phi(np.array([0.5 + 1j, 0.3]), np.array([3.0 + 5.0j, 0.3 + 0.7j]),
                                  nodes=16),
    "chi": lambda: hyperbolic.chi(0.5 + 1j, np.array([3.0 + 5.0j, 0.3 + 0.7j])),
    "psi_inv": lambda: groups.psi_inv(_G).matrix,
    "cocycle": lambda: reps.cocycle(0.3, _G),
    # on the 8-node floor the integrand aliases
    "matcoef": lambda: reps.matcoef(_RHO_I, _G, 1, 1, nodes=8),
    "rep_matrix": lambda: reps.rep_matrix(_RHO_I, _G, 4),
    "act_principal": lambda: reps.act_principal(
        _RHO_I, _G, reps.KFourierVector.smooth_random(6, np.random.default_rng(5), 1.0)).c,
    "pi_of_f": lambda: character.pi_of_f(
        _RHO_I, equivariant.separation_witness(1, _PROFILE), _GRID, 6).mat,
    "char_identity_check": lambda: _char_sides(_RHO_I, 1),
    "char_identity_check_discrete": lambda: _char_sides(_D2, -1),
    # out to radius 4 the coefficients alias on their 128 nodes
    "gram_min_eig": lambda: equivariant.gram_min_eig(
        [_RHO_I, reps.SpectralParam.complementary(0.5)], 1, region=(0.0, 4.0)).gram,
    # mode 65 aliases to mode 1 on 64 nodes, and keeps a phase of their placement
    "project_biequivariant": lambda: equivariant.project_biequivariant(
        equivariant.separation_witness(65, _PROFILE), 1, nodes=64)(_G),
    "right_isotype_project": lambda: equivariant.right_isotype_project(
        equivariant.separation_witness(65, _PROFILE), 1, nodes=64)(_G),
    # on a new grid, since a grid builds its rotations once and keeps them.
    # The 32 theta nodes integrate every low angular mode exactly, on any
    # rotation of the nodes; mode 32 aliases to mode 0 and keeps a phase
    "integrate_G": lambda: character.integrate_G(
        equivariant.separation_witness(32, _PROFILE),
        character.HaarGrid(nt=16, nu=16, ntheta=32)),
    # the base integral and the worst right defect: a right rotation of
    # every node keeps the integral of the low-mode oracle over 32 theta
    # nodes, a right boost does not
    "haar_invariance_check": lambda: _haar_sides(character.HaarGrid(nt=24, nu=24, ntheta=32)),
    "k_types": lambda: [reps.k_types(_D2).description,
                        reps.k_types(reps.SpectralParam.discrete(4, -1)).contains(-2)],
    "tau_spherical_set": lambda: [family.label for family in reps.tau_spherical_set(2)],
    "discrete_ladder_leakage": lambda: reps.discrete_ladder_leakage(2, 1, _G, 16),
}


def _uniform_angles_plant(monkeypatch):
    angles = groups._uniform_angles
    monkeypatch.setattr(groups, "_uniform_angles", lambda count: angles(count) + 1e-3)


def _polar_entry_plant(monkeypatch):
    entries = groups._polar_entries

    def turned(right=None):
        build = entries(right)

        def turned_build(bases):
            polar = build(bases)
            re, im = polar.pq[2:]
            c, s = np.cos(1e-3), np.sin(1e-3)
            polar.pq[2:] = np.stack([c * re - s * im, s * re + c * im])
            return polar
        return turned_build

    monkeypatch.setattr(groups, "_polar_entries", turned)


def _shared_row_plant(monkeypatch):
    # every right factor taken as fixing e3: a right boost's nodes would
    # keep their row's p and turn q by R11 + i R21 alone
    monkeypatch.setattr(groups, "_fixes_e3", lambda right: True)


def _node_count_plant(monkeypatch):
    count = groups._node_count
    monkeypatch.setattr(groups, "_node_count",
                        lambda nodes, default, floor: count(nodes, default, floor) + 4)


def _tau_conjugation_plant(monkeypatch):
    tau = groups.tau
    monkeypatch.setattr(groups, "tau", lambda n, theta: tau(-n, theta))


def _a_character_plant(monkeypatch):
    kernel = groups._a_character
    monkeypatch.setattr(groups, "_a_character", lambda gamma, t: kernel(gamma + 0.125, t))


def _exponent_plant(monkeypatch):
    monkeypatch.setattr(reps.SpectralParam, "exponent",
                        property(lambda p: (1.0 + p.induced_s) / 2.0 + 0.125))


def _iwasawa_boost_plant(monkeypatch):
    kernel = groups._iwasawa

    def shifted(*columns):
        t, u, theta = kernel(*columns)
        return t + 0.125, u, theta

    monkeypatch.setattr(groups, "_iwasawa", shifted)


def _theta_sign_plant(monkeypatch):
    cocycle = reps._cocycle_batch

    def flipped(thetas, gs):
        t, theta_out = cocycle(thetas, gs)
        return t, -theta_out

    monkeypatch.setattr(reps, "_cocycle_batch", flipped)


def _dft_order_plant(monkeypatch):
    dft = reps._dft_coefficients
    monkeypatch.setattr(reps, "_dft_coefficients", lambda values, N: dft(values, N)[::-1])


def _haar_weight_plant(monkeypatch):
    weight = character.HaarGrid.node_weight
    monkeypatch.setattr(character.HaarGrid, "node_weight",
                        property(lambda grid: 1.5 * weight.fget(grid)))


def _ladder_edge_plant(monkeypatch):
    monkeypatch.setattr(reps.KTypeSet, "_edge", property(lambda types: types.param.m // 2 + 1))


# (home, plant, consumers that must see it)
PLANTS = [
    ("groups._iwasawa", _iwasawa_boost_plant,
     ("iwasawa", "psi_inv", "cocycle", "matcoef", "rep_matrix", "act_principal", "pi_of_f",
      "char_identity_check", "char_identity_check_discrete", "gram_min_eig",
      "discrete_ladder_leakage")),
    ("groups._uniform_angles", _uniform_angles_plant,
     ("phi", "matcoef", "rep_matrix", "act_principal", "pi_of_f", "char_identity_check",
      "integrate_G", "project_biequivariant", "right_isotype_project", "gram_min_eig",
      "discrete_ladder_leakage")),
    # the character checks are left out: the two sides of each share their
    # nodes, so four more move them by about 7e-13 (rho_i) and 3e-12 (D(2, +))
    ("groups._node_count", _node_count_plant,
     ("phi", "matcoef", "rep_matrix", "act_principal", "pi_of_f", "gram_min_eig",
      "project_biequivariant", "right_isotype_project", "discrete_ladder_leakage")),
    # gram_min_eig is left out: its Gram matrix sees only
    # |<rho(a_r) e_n, e_n>|, the same at n and -n
    ("groups.tau", _tau_conjugation_plant,
     ("matcoef", "rep_matrix", "act_principal", "pi_of_f", "char_identity_check",
      "char_identity_check_discrete", "project_biequivariant", "right_isotype_project",
      "discrete_ladder_leakage")),
    ("groups._polar_entries", _polar_entry_plant,
     ("cartan", "pi_of_f", "char_identity_check", "integrate_G", "haar_invariance_check",
      "project_biequivariant", "right_isotype_project")),
    ("groups._fixes_e3", _shared_row_plant, ("haar_invariance_check",)),
    ("groups._a_character", _a_character_plant,
     ("phi", "chi", "matcoef", "rep_matrix", "act_principal", "pi_of_f", "char_identity_check",
      "char_identity_check_discrete", "gram_min_eig", "discrete_ladder_leakage")),
    ("SpectralParam.exponent", _exponent_plant,
     ("matcoef", "rep_matrix", "act_principal", "pi_of_f", "char_identity_check",
      "char_identity_check_discrete", "gram_min_eig", "discrete_ladder_leakage")),
    ("reps._cocycle_batch", _theta_sign_plant,
     ("cocycle", "matcoef", "rep_matrix", "act_principal", "pi_of_f", "char_identity_check",
      "gram_min_eig", "discrete_ladder_leakage")),
    ("reps._dft_coefficients", _dft_order_plant,
     ("rep_matrix", "act_principal", "pi_of_f", "char_identity_check",
      "discrete_ladder_leakage")),
    ("HaarGrid.node_weight", _haar_weight_plant,
     ("pi_of_f", "char_identity_check", "integrate_G", "haar_invariance_check")),
    ("KTypeSet._edge", _ladder_edge_plant,
     ("k_types", "tau_spherical_set", "discrete_ladder_leakage",
      "char_identity_check_discrete")),
]


# the criteria that acceptance.run_all(fast=True) fails under each plant; an
# empty set is a plant the battery does not see
VERDICTS = {
    "groups._iwasawa": {1, 2, 5, 6},
    # each rule on K integrates the low modes it sees exactly on any rotation
    # of its nodes (FOUND at CHANGES.md:66)
    "groups._uniform_angles": set(),
    # each rule on K is converged well past its floor (FOUND at CHANGES.md:63)
    "groups._node_count": set(),
    "groups.tau": {7, 8, 10},
    "groups._polar_entries": {2},
    # a right boost or unipotent read on the row route is not applied: its
    # right defect is round-off, which criterion 11 refuses
    "groups._fixes_e3": {11},
    "groups._a_character": {4, 5, 7},
    "SpectralParam.exponent": {5, 6, 7},
    "reps._cocycle_batch": {7},
    "reps._dft_coefficients": {7, 10},
    # criterion 11 compares the base integral with its K A K value
    "HaarGrid.node_weight": {11},
    "KTypeSet._edge": {7},
}


def _fingerprint(consumer):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = CONSUMERS[consumer]()
    if isinstance(value, list) and any(isinstance(v, (str, bool)) for v in value):
        return repr(value)
    return np.asarray(value, dtype=complex).ravel()


def _move(before, after):
    """Relative move of a numeric fingerprint; a changed label counts as 1."""
    if isinstance(before, str):
        return float(after != before)
    return float(np.linalg.norm(after - before) / np.linalg.norm(before))


@pytest.mark.parametrize("home, plant, consumer", [
    pytest.param(home, plant, consumer, id=f"{home}-{consumer}")
    for home, plant, consumers in PLANTS for consumer in consumers])
def test_plant_reaches_consumer(monkeypatch, home, plant, consumer):
    before = _fingerprint(consumer)
    plant(monkeypatch)
    assert _move(before, _fingerprint(consumer)) > 1e-10, f"{consumer} does not reach {home}"


def test_every_consumer_is_planted():
    planted = {consumer for _, _, consumers in PLANTS for consumer in consumers}
    assert planted == set(CONSUMERS)
    assert [home for home, _, _ in PLANTS] == list(VERDICTS)


@pytest.mark.parametrize("home, plant", [
    pytest.param(home, plant, id=home) for home, plant, _ in PLANTS])
def test_battery_verdict_under_plant(monkeypatch, home, plant):
    plant(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = acceptance.run_all(fast=True)
    assert {r.number for r in results if not r.passed} == VERDICTS[home]
