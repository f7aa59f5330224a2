import argparse
import dataclasses
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import so21
from so21 import acceptance, character, cli, equivariant, groups, hyperbolic, reps


def run_json(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


IDENTITY = "1,0,0,0,1,0,0,0,1"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_iwasawa_identity(capsys):
    code, payload = run_json(capsys, "iwasawa", "--matrix", IDENTITY, "--no-meta")
    assert code == 0
    assert payload == {"t": 0.0, "u": 0.0, "theta": 0.0}


def test_usage_error_unknown_flag(capsys):
    assert cli.run(["iwasawa", "--bogus", "1"]) == 1
    assert cli.run(["haarcheck", "--threads", "2"]) == 1
    # a check subcommand is held to its criterion's gate and takes no tolerance
    assert cli.run(["eigencheck", "--w", "0.5", "--z", "1,2", "--tol", "1e-4"]) == 1
    assert cli.run(["ladder", "--m", "2", "--tol", "1e-6"]) == 1
    assert cli.run(["haarcheck", "--grid", "48,48,64", "--tol", "0.005"]) == 1
    assert cli.run(["charcheck", *CHARCHECK_SMALL[1:], "--tol", "0.02"]) == 1
    # the corollary at n is the check at -n, `--n -1` for `--n 1 --corollary`
    assert cli.run([*CHARCHECK_SMALL, "--corollary"]) == 1


def test_usage_error_unknown_subcommand(capsys):
    assert cli.run(["frobnicate"]) == 1


def test_usage_error_missing_input(capsys):
    assert cli.run(["iwasawa"]) == 1


def test_domain_error_exit_code(capsys):
    bad = "0,0,0,0,0,0,0,0,0"
    assert cli.run(["iwasawa", "--matrix", bad]) == 2


def test_matcoef_boost_beyond_precision_exit_code(capsys):
    code = cli.run(["matcoef", "--s", "1", "--g-iwasawa", "40,0,0",
                    "--n", "0", "--m", "0", "--no-meta"])
    assert code == 2
    assert "boost error" in capsys.readouterr().err


def test_tolerance_gate_exit_codes(capsys, monkeypatch):
    code, payload = run_json(capsys, "eigencheck", "--w", "0.5", "--z", "1,2", "--no-meta")
    assert code == 0
    assert payload["rel_err"] < acceptance.EIGEN_RESIDUAL_BOUND
    # the bound is criterion 4's: below this residual both fail
    monkeypatch.setattr(acceptance, "EIGEN_RESIDUAL_BOUND", payload["rel_err"])
    code, _ = run_json(capsys, "eigencheck", "--w", "0.5", "--z", "1,2", "--no-meta")
    assert code == 3
    assert not acceptance.criterion_4_spherical_eigenvalue().passed


# ---------------------------------------------------------------------------
# round trips through the JSON surface
# ---------------------------------------------------------------------------

def test_iwasawa_recompose_round_trip(capsys):
    code, built = run_json(capsys, "iwasawa", "--recompose", "0.5,1.0,2.0", "--no-meta")
    assert code == 0
    matrix = ",".join(str(v) for v in built["matrix"])
    code, coords = run_json(capsys, "iwasawa", "--matrix", matrix, "--no-meta")
    assert code == 0
    assert coords["t"] == pytest.approx(0.5, abs=1e-12)
    assert coords["u"] == pytest.approx(1.0, abs=1e-12)
    assert coords["theta"] == pytest.approx(2.0, abs=1e-12)


def test_psi_and_inverse(capsys):
    code, image = run_json(capsys, "psi", "--sl2", "1,1,0,1", "--no-meta")
    assert code == 0
    expected = [0.5, 1.0, 0.5, -1.0, 1.0, 1.0, -0.5, 1.0, 1.5]
    assert image["matrix"] == pytest.approx(expected)
    code, back = run_json(capsys, "psi-inv", "--matrix",
                          ",".join(str(v) for v in image["matrix"]), "--no-meta")
    assert code == 0
    assert back["sl2"] == pytest.approx([1.0, 1.0, 0.0, 1.0], abs=1e-12)
    assert back["diagnostics"]["component_ok"] is True
    assert back["diagnostics"]["boost_error"] < 1e-8


def test_cartan_output(capsys):
    code, payload = run_json(capsys, "cartan", "--matrix", IDENTITY, "--no-meta")
    assert code == 0
    assert payload["t"] == 0.0
    # the coordinates and nothing else: the radius is t
    assert set(payload) == {field.name for field in dataclasses.fields(groups.CartanCoords)}


def test_bracket_and_adw(capsys):
    code, payload = run_json(capsys, "bracket", "--x", "W", "--y", "V1", "--no-meta")
    assert code == 0
    v2 = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    assert payload["matrix"] == pytest.approx([-v for v in v2])
    # the ad W eigenvector defects are criterion 3's, not a bracket option;
    # a bracket needs both of its arguments
    for argv in (["bracket", "--adw-check"], ["bracket", "--y", "V1"]):
        assert cli.run(argv + ["--no-meta"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error:")


def test_exp_and_dpsi(capsys):
    code, payload = run_json(capsys, "exp", "--algebra", "W", "--no-meta")
    assert code == 0
    assert payload["matrix"][0] == pytest.approx(np.cos(1.0))
    code, payload = run_json(capsys, "exp", "--dpsi", "1,0,0,-1", "--no-meta")
    assert code == 0
    assert payload["matrix"][2] == pytest.approx(2.0)


def test_casimir_ratio(capsys):
    code, payload = run_json(capsys, "casimir", "--s", "i", "--n", "0",
                             "--g-iwasawa", "0.4,0.2,0.3", "--no-meta")
    assert code == 0
    assert payload["ratio"]["re"] == pytest.approx(-0.5, abs=1e-5)


def test_spherical_value_and_ray_csv(capsys):
    code, payload = run_json(capsys, "spherical", "--w", "0.5+1i", "--z", "1,2",
                             "--no-meta")
    assert code == 0
    assert "phi" in payload and "chi" in payload
    code = cli.run(["spherical", "--w", "0.5", "--ray", "0,2,5",
                    "--format", "csv", "--no-meta"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,re_phi,im_phi"
    assert len(lines) == 6


def test_csv_rejected_for_non_sweep(capsys):
    assert cli.run(["iwasawa", "--matrix", IDENTITY, "--format", "csv"]) == 1


def test_matcoef_with_action_and_cocycle(capsys):
    code, payload = run_json(capsys, "matcoef", "--s", "i", "--g-iwasawa", "1,0,0",
                             "--n", "0", "--m", "0", "--trunc", "8",
                             "--vector", "--cocycle-at", "0.0", "--no-meta")
    assert code == 0
    assert payload["cocycle"]["t"] == pytest.approx(1.0)
    assert len(payload["acted_coefficients"]) == 17


def test_matcoef_vector_at_truncation_zero(capsys):
    # --trunc 0 is a truncation, not an unset flag: one coefficient, e_0
    with pytest.warns(so21.TruncationWarning):
        code, payload = run_json(capsys, "matcoef", "--s", "i", "--g-iwasawa", "1,0,0",
                                 "--n", "0", "--m", "0", "--trunc", "0", "--vector", "--no-meta")
    assert code == 0
    assert len(payload["acted_coefficients"]) == 1


@pytest.mark.parametrize("argv", [
    ["spherical", "--w", "0.5", "--ray", "0,2,5", "--z", "1,2"],
    ["spherical", "--w", "0.5", "--ray", "0,2,5", "--z", "junk"],
    ["spherical", "--w", "0.5", "--ray", "0,2,5", "--act", "junk"],
    ["iwasawa", "--recompose", "0.5,1,2", "--matrix", IDENTITY],
    ["exp", "--dpsi", "1,0,0,-1", "--algebra", "W"],
    ["matcoef", "--s", "i", "--g-iwasawa", "1,0,0", "--n", "0", "--m", "0", "--vector", "e"],
    ["matcoef", "--s", "i", "--g-iwasawa", "1,0,0", "--n", "0", "--m", "0", "--trunc", "4"],
], ids=["ray_with_z", "ray_with_bad_z", "ray_with_bad_act", "recompose_with_matrix",
        "dpsi_with_algebra", "vector_with_value", "trunc_without_vector"])
def test_ignored_option_is_a_usage_error(capsys, argv):
    # every option given is read: one the subcommand would ignore is refused
    assert cli.run(argv + ["--no-meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error:")


def test_ktypes_listing(capsys):
    code, payload = run_json(capsys, "ktypes", "--rep", "D+4", "--no-meta")
    assert code == 0
    assert payload["k_types"] == "{n >= 2}"
    assert payload["sample"]["2"] is True
    assert payload["sample"]["1"] is False
    code, payload = run_json(capsys, "ktypes", "--tau-spherical", "1", "--no-meta")
    assert code == 0
    assert payload["tau_spherical"] == ["D+2", "rho_s (principal and complementary)"]


def test_ktypes_malformed_ladder_label_is_a_domain_error(capsys):
    assert cli.run(["ktypes", "--rep", "D+x", "--no-meta"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: cannot parse representation label")
    assert "Traceback" not in captured.err


def test_ladder_tolerance_gate(capsys, monkeypatch):
    code, payload = run_json(capsys, "ladder", "--m", "2", "--sign", "+",
                             "--N", "16", "--no-meta")
    assert code == 0
    assert payload["leakage"] < acceptance.LADDER_LEAK_BOUND
    # the bound is criterion 7's: at this leakage both fail
    monkeypatch.setattr(acceptance, "LADDER_LEAK_BOUND", payload["leakage"])
    code, _ = run_json(capsys, "ladder", "--m", "2", "--sign", "+",
                       "--N", "16", "--no-meta")
    assert code == 3
    assert not acceptance.criterion_7_ladders().passed


def test_ladder_exits_3_where_its_nodes_alias(capsys):
    # at Cartan radius 2.09 the 4N + 4 = 100 nodes alias: the leakage of an
    # exactly invariant ladder reads 0.28 (400 nodes give 3.3e-29)
    code, payload = run_json(capsys, "ladder", "--m", "2", "--g-iwasawa", "2,0.3,0.7",
                             "--no-meta")
    assert code == 3
    assert payload["leakage"] == pytest.approx(0.2777, abs=1e-4)


def test_separate_with_projection_verification(capsys):
    code, payload = run_json(capsys, "separate", "--n", "1", "--t0", "0.8",
                             "--width", "0.2", "--probe", "0.8,1.4",
                             "--verify-projection", "--no-meta")
    assert code == 0
    assert payload["at_t1"]["re"] == pytest.approx(np.exp(-1.0))
    assert payload["at_t2"] == {"re": 0.0, "im": 0.0}
    assert payload["margin"] > 0.3
    assert payload["projection_defect"] < 1e-9
    assert payload["right_isotype_defect"] < 1e-9


def test_gram_subcommand(capsys):
    code, payload = run_json(capsys, "gram", "--params", "i,2i,0.5", "--n", "0",
                             "--tmax", "2", "--no-meta")
    assert code == 0
    assert payload["min_eig"] > 1e-4


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_json_output_writes_non_finite_floats_as_null(capsys):
    # a repeated parameter is singular: its condition number is infinite,
    # which JSON has no number for
    code = cli.run(["gram", "--params", "i,i", "--no-meta"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert payload["cond"] is None and abs(payload["min_eig"]) < 1e-10
    # the text format prints the float itself
    assert cli.run(["gram", "--params", "i,i", "--no-meta", "--format", "text"]) == 0
    assert "cond: inf" in capsys.readouterr().out.splitlines()
    # every non-finite float, at any depth, and never a bare NaN or Infinity
    assert cli._null_non_finite({"a": [1.0, float("nan"), {"b": -float("inf")}], "c": 2}) == {
        "a": [1.0, None, {"b": None}], "c": 2}


def test_gram_subcommand_above_the_default_node_count(capsys):
    # tau_40 needs 4 * 40 + 4 = 164 nodes, more than the 128 default: the
    # coefficients take the floor instead of refusing the truncation
    code, payload = run_json(capsys, "gram", "--params", "i,2i", "--n", "40", "--no-meta")
    assert code == 0
    assert payload["min_eig"] > 1e-3


def test_haarcheck_small_grid(capsys, monkeypatch):
    code, payload = run_json(capsys, "haarcheck", "--grid", "48,48,64", "--no-meta")
    assert code == 0
    # the oracle's result and nothing else; its seconds go to the meta block
    fields = {field.name for field in dataclasses.fields(character.HaarCheckResult)}
    assert set(payload) == fields - {"seconds"}
    assert payload["worst_left"] < acceptance.HAAR_DEFECT_BOUND
    assert 0 < payload["evaluated_rows"] < 48 * 48
    # criterion 11's defect bound and right-defect floor, shared with the
    # subcommand, each fail both at these values (the normalization gap is
    # below the worst defect here; the node-weight plant fails its gate)
    worst = max(payload["worst_left"], payload["worst_right"])
    assert payload["normalization_gap"] < worst
    least_moving = min(payload["per_translation"][name]["right"] for name in ("a(0.3)", "n(0.5)"))
    for name, value in (("HAAR_DEFECT_BOUND", worst), ("HAAR_RIGHT_FLOOR", 2 * least_moving)):
        with monkeypatch.context() as patch:
            patch.setattr(acceptance, name, value)
            assert cli.run(["haarcheck", "--grid", "48,48,64", "--no-meta"]) == 3
            assert not acceptance.criterion_11_haar(fast=True).passed


def test_haarcheck_reports_integrand_rows_and_time(capsys):
    code, payload = run_json(capsys, "haarcheck", "--grid", "48,48,64")
    assert code == 0
    # the base integral and one left and one right translate per translation
    assert payload["evaluated_rows"] <= payload["integrand_rows"] <= 7 * payload["evaluated_rows"]
    assert payload["meta"]["check_seconds"] > 0.0


def test_haarcheck_without_band_nodes_exit_code(capsys):
    # a 2 x 2 grid has no row in the oracle's band: a domain error, not a
    # division by zero
    assert cli.run(["haarcheck", "--grid", "2,2,8", "--no-meta"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "integrates to 0" in captured.err


@pytest.mark.parametrize("default, spelled", [
    ("haarcheck", "haarcheck --grid 96,96,128"),
    ("charcheck --s i --n 1",
     "charcheck --s i --n 1 --grid 48,48,96 --trunc 16 --t0 0.6 --width 0.3"),
    ("gram --params i,2i,0.5 --n 0", "gram --params i,2i,0.5 --n 0 --tmax 2"),
    ("eigencheck --w 0.5+1i --z 0.5,1.5", "eigencheck --w 0.5+1i --z 0.5,1.5 --h 1e-3"),
    ("casimir --s i --n 1", "casimir --s i --n 1 --h 0.001"),
])
def test_default_run_prints_what_its_spelled_out_twin_prints(capsys, default, spelled):
    # the defaults the subcommands read from the library are these values
    outputs = []
    for argv in (default, spelled):
        code = cli.run(argv.split() + ["--no-meta"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][1]


def test_charcheck_gate(capsys, monkeypatch):
    argv = ["charcheck", "--s", "i", "--n", "1", "--grid", "24,24,48", "--trunc", "8",
            "--no-meta"]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["rel_err"] < acceptance.CHAR_BASE_BOUND
    assert 0 < payload["active_rows"] <= payload["support_rows"] < payload["grid_rows"] == 24 * 24
    # the two sides share the quadrature, so they agree to ~1e-16; criterion
    # 10's base bound, shared with the subcommand, is exercised at that floor
    monkeypatch.setattr(acceptance, "CHAR_BASE_BOUND", payload["rel_err"])
    code, _ = run_json(capsys, *argv)
    assert code == 3


def test_charcheck_isotype_outside_truncation(capsys):
    # isotype -20 is outside the truncation 16: a domain error, not a
    # tolerance failure
    code = cli.run(["charcheck", "--s", "i", "--n", "20", "--trunc", "16",
                    "--grid", "24,24,64", "--no-meta"])
    assert code == 2
    assert "outside the truncation" in capsys.readouterr().err


def test_charcheck_warns_as_pi_of_f_does(capsys):
    # charcheck builds pi(f) with pi_of_f, so at --trunc 4 it gives the same
    # TruncationWarning, named at the line of criterion 10's runner that
    # called the check
    f = equivariant.separation_witness(1, equivariant.BumpProfile(0.6, 0.3))
    with pytest.warns(so21.TruncationWarning) as direct:
        character.pi_of_f(reps.SpectralParam.principal(1.0), f,
                          character.HaarGrid(nt=16, nu=16, ntheta=32), 4)
    with pytest.warns(so21.TruncationWarning) as through_cli:
        assert cli.run(CHARCHECK_SMALL + ["--no-meta"]) == 0
    assert [str(w.message) for w in through_cli] == [str(w.message) for w in direct]
    assert "fraction 1.81e-02" in str(direct[0].message)
    assert through_cli[0].filename == acceptance.__file__


def test_matcoef_indices_outside_truncation(capsys):
    # the CLI refuses a --trunc below the indices; matcoef takes no truncation
    code = cli.run(["matcoef", "--s", "i", "--g-iwasawa", "0,0,0", "--n", "5", "--m", "0",
                    "--trunc", "4", "--vector", "--no-meta"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "outside truncation 4" in captured.err


@pytest.mark.parametrize("argv", [
    ["charcheck", "--s", "i", "--n", "1", "--t0", "nan", "--grid", "16,16,32", "--trunc", "4"],
    ["separate", "--n", "1", "--t0", "0.6", "--width", "inf", "--probe", "0.5,1.5"],
], ids=["charcheck_nan_center", "separate_infinite_width"])
def test_non_finite_bump_is_a_domain_error(capsys, argv):
    # without the check, charcheck passed its gate on 0 support rows and
    # separate reported e^{-1} at every probe
    assert cli.run(argv + ["--no-meta"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["matcoef", "--s", "nan", "--g-iwasawa", "0.4,0,0", "--n", "0", "--m", "0"],
    ["matcoef", "--s", "0.5+nani", "--g-iwasawa", "0.4,0,0", "--n", "0", "--m", "0"],
    ["charcheck", "--s", "1e400i", "--n", "1", "--grid", "16,16,32", "--trunc", "4"],
    ["gram", "--params", "i,nan", "--n", "0"],
    ["spherical", "--w", "nan", "--z", "1,2"],
], ids=["matcoef_nan", "matcoef_nan_imaginary", "charcheck_overflow", "gram_nan",
        "spherical_nan"])
def test_non_finite_complex_literal_is_a_domain_error(capsys, argv):
    # `matcoef --s nan` printed {"im": NaN, "re": NaN} and exited 0
    assert cli.run(argv + ["--no-meta"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "is not finite" in captured.err


@pytest.mark.parametrize("argv, code, message", [
    (["charcheck", "--s", "i", "--n", "1", "--grid", "0,48,96"], 2, "node counts must be >= 1"),
    (["charcheck", "--s", "i", "--n", "1", "--grid", "48,48,-4"], 1, "non-negative integer"),
    (["charcheck", "--s", "i", "--n", "1", "--grid", "48.7,48,96"], 1, "non-negative integer"),
    (["haarcheck", "--grid", "48,48,0"], 2, "node counts must be >= 1"),
    (["charcheck", "--s", "i", "--n", "0", "--trunc", "-1", "--grid", "16,16,32"], 2,
     "truncation N must be >= 0"),
    (["spherical", "--w", "0.5", "--ray", "0,1,-3"], 1, "non-negative integer"),
    (["spherical", "--w", "0.5", "--ray", "0,1,2.5"], 1, "non-negative integer"),
    (["matcoef", "--s", "1e+i", "--g-iwasawa", "0.4,0,0", "--n", "0", "--m", "0"], 2,
     "cannot parse complex literal '1e+i'"),
], ids=["charcheck_zero_count", "charcheck_negative_count", "charcheck_fractional_count",
        "haarcheck_zero_count", "charcheck_negative_trunc", "ray_negative_steps",
        "ray_fractional_steps", "exponent_then_bare_i"])
def test_malformed_counts_are_clean_errors(capsys, argv, code, message):
    # each used to print a traceback, run a truncated count, name the
    # truncation [--1, -1], or (1e+i) print the value at s = 10i
    assert cli.run(argv + ["--no-meta"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_eigencheck_non_positive_step_is_a_domain_error(capsys):
    # h = 0 used to print NaN and fail the tolerance gate, and h < 0 would run
    # the +h stencil
    for h in ("0", "-1e-3"):
        assert cli.run(["eigencheck", "--w", "0.5", "--z", "1,2", "--h", h, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "stencil step must be > 0" in captured.err


def test_charcheck_refine_gates_the_refined_grid(capsys, monkeypatch):
    real = character.char_identity_check
    calls = []

    def refined_fails(p, n, f, grid, N):
        res = real(p, n, f, grid=grid, N=N)
        calls.append(grid)
        return dataclasses.replace(res, rel_err=1.0) if len(calls) == 2 else res

    monkeypatch.setattr(character, "char_identity_check", refined_fails)
    code, payload = run_json(capsys, *CHARCHECK_SMALL, "--refine", "--no-meta")
    assert calls[1] == calls[0].refine()
    assert payload["rel_err"] < 1e-12 and payload["refined"]["rel_err"] == 1.0
    assert code == 3


@pytest.mark.parametrize("planted, code", [(1, 0), (2, 3)])
def test_charcheck_holds_the_refined_grid_to_criterion_10s_bound(capsys, monkeypatch,
                                                                 planted, code):
    # a rel_err of 1.5% passes criterion 10's base bound (2%) and fails its
    # refined bound (1%)
    real = character.char_identity_check
    calls = []

    def plant(p, n, f, grid, N):
        res = real(p, n, f, grid=grid, N=N)
        calls.append(grid)
        return dataclasses.replace(res, rel_err=0.015) if len(calls) == planted else res

    monkeypatch.setattr(character, "char_identity_check", plant)
    exit_code, payload = run_json(capsys, *CHARCHECK_SMALL, "--refine", "--no-meta")
    sides = [payload["rel_err"], payload["refined"]["rel_err"]]
    assert sides[planted - 1] == 0.015 and sides[2 - planted] < 1e-12
    assert exit_code == code


def test_charcheck_corollary_and_refine(capsys):
    # the corollary at n = 1, on a witness of bi-type (-1, -1), is `--n -1`
    code, payload = run_json(capsys, "charcheck", "--s", "i", "--n", "-1",
                             "--grid", "24,24,48", "--trunc", "8", "--refine", "--no-meta")
    assert code == 0
    assert payload["refined"]["rel_err"] < 0.02
    p, grid = reps.SpectralParam.principal(1.0), character.HaarGrid(24, 24, 48)
    f = equivariant.separation_witness(-1, acceptance.CHAR_PROFILE)
    for sides, at in ((payload, grid), (payload["refined"], grid.refine())):
        res = character.corollary_check(p, 1, f, grid=at, N=8)
        assert complex(sides["lhs"]["re"], sides["lhs"]["im"]) == res.lhs_trace
        assert complex(sides["rhs"]["re"], sides["rhs"]["im"]) == res.rhs_integral


# ---------------------------------------------------------------------------
# determinism & output plumbing
# ---------------------------------------------------------------------------

CHARCHECK_SMALL = ["charcheck", "--s", "i", "--n", "1", "--grid", "16,16,32", "--trunc", "4"]


# the image under psi of the SL(2, R) element (1, 1; 0, 1)
PSI_IMAGE = "0.5,1,0.5,-1,1,1,-0.5,1,1.5"


def test_byte_identical_output_without_meta(capsys):
    # two --no-meta runs of every subcommand print the same bytes
    runs = (["iwasawa", "--matrix", PSI_IMAGE, "--no-meta"],
            ["iwasawa", "--recompose", "0.7,0.3,1.1", "--no-meta"],
            ["cartan", "--matrix", PSI_IMAGE, "--no-meta"],
            ["psi", "--sl2", "1,1,0,1", "--no-meta"],
            ["psi-inv", "--matrix", PSI_IMAGE, "--no-meta"],
            ["bracket", "--x", "W", "--y", "V1", "--no-meta"],
            ["bracket", "--x", "V1", "--y", "V2", "--no-meta"],
            ["exp", "--algebra", "W", "--no-meta"],
            ["exp", "--dpsi", "1,0,0,-1", "--no-meta"],
            ["ktypes", "--rep", "D+4", "--no-meta"],
            ["ktypes", "--tau-spherical", "1", "--no-meta"],
            ["gram", "--params", "i,2i,0.5", "--n", "0", "--no-meta"],
            ["suite", "--fast", "--no-meta"],
            ["matcoef", "--s", "2i", "--g-iwasawa", "0.7,0.3,1.1",
             "--n", "1", "--m", "1", "--no-meta"],
            ["matcoef", "--s", "i", "--g-iwasawa", "0.7,0.3,1.1", "--n", "0", "--m", "0",
             "--trunc", "16", "--vector", "--no-meta"],
            ["ladder", "--m", "2", "--sign", "+", "--N", "16", "--no-meta"],
            ["separate", "--n", "1", "--t0", "0.8", "--width", "0.2",
             "--probe", "0.8,1.4", "--verify-projection", "--no-meta"],
            CHARCHECK_SMALL + ["--no-meta"],
            ["haarcheck", "--grid", "24,24,32", "--no-meta"],
            ["spherical", "--w", "0.5", "--ray", "0,2,5", "--format", "csv", "--no-meta"],
            ["eigencheck", "--w", "0.5", "--z", "1,2", "--no-meta"],
            ["casimir", "--s", "i", "--n", "1", "--no-meta"])
    subcommands = next(a.choices for a in cli.build_parser()._actions if a.dest == "subcommand")
    assert {argv[0] for argv in runs} == set(subcommands)
    for argv in runs:
        code = cli.run(argv)
        first = capsys.readouterr().out
        assert cli.run(argv) == code
        second = capsys.readouterr().out
        assert first and first == second, argv


def test_meta_block_present_by_default(capsys):
    code, payload = run_json(capsys, "iwasawa", "--matrix", IDENTITY)
    assert code == 0
    assert "runtime_seconds" in payload["meta"]
    _, payload = run_json(capsys, *CHARCHECK_SMALL)
    assert "check_seconds" in payload["meta"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = cli.run(["iwasawa", "--matrix", IDENTITY, "--no-meta", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text()) == {"t": 0.0, "u": 0.0, "theta": 0.0}


def test_unwritable_output_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert cli.run(["iwasawa", "--matrix", IDENTITY, "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and str(target) in captured.err


@pytest.mark.parametrize("argv, module, work", [
    (["suite"], acceptance, "run_all"),
    (["haarcheck", "--grid", "24,24,32"], character, "haar_invariance_check"),
    (CHARCHECK_SMALL, character, "char_identity_check"),
    (["spherical", "--w", "0.5", "--z", "1,2"], hyperbolic, "phi"),
], ids=["suite", "haarcheck", "charcheck", "spherical_point"])
def test_csv_refused_before_any_work(capsys, monkeypatch, argv, module, work):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(module, work, refuse)
    assert cli.run(argv + ["--format", "csv", "--no-meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: csv output")


def test_text_format(capsys):
    code = cli.run(["iwasawa", "--matrix", IDENTITY, "--no-meta", "--format", "text"])
    assert code == 0
    assert "t: 0.0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["spherical", "--w", "0.5+3i", "--z", "1,2"],
    ["eigencheck", "--w", "0.5+1i", "--z", "0.5,1.5"],
    ["matcoef", "--s", "i", "--g-iwasawa", "0.4,0,0", "--n", "0", "--m", "0"],
], ids=["spherical", "eigencheck", "matcoef"])
def test_text_format_prints_complex_parts_as_plain_floats(capsys, argv):
    # the parts of a numpy complex printed as np.float64(...) reprs
    assert cli.run(argv + ["--format", "text", "--no-meta"]) == 0
    out = capsys.readouterr().out
    assert "{'re': " in out and "np." not in out


def test_suite_fast(capsys):
    outputs = []
    for _ in range(2):
        assert cli.run(["suite", "--fast", "--no-meta"]) == 0
        outputs.append(capsys.readouterr().out)
    # the second run prints the same bytes: --no-meta strips every timing
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["all_passed"] is True
    assert len(payload["criteria"]) == 11
    # timings live in the meta block, which --no-meta strips
    assert "meta" not in payload
    for criterion in payload["criteria"]:
        assert set(criterion) == {"number", "name", "passed", "detail"}


# ---------------------------------------------------------------------------
# coverage of the operation registry
# ---------------------------------------------------------------------------

def _operation(qualified):
    """The library function a coverage entry `module.name` names."""
    module_name, name = qualified.split(".")
    return importlib.import_module(f"so21.{module_name}"), name


def test_every_operation_reachable_from_exactly_one_subcommand():
    declared = [op for ops in cli.OPERATION_COVERAGE.values() for op in ops]
    assert len(declared) == len(set(declared)), "operation mapped twice"
    assert all(op.count(".") == 1 for op in declared), "operation not module-qualified"
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(cli.OPERATION_COVERAGE) == set(subparsers.choices)


def _output_digest():
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", sorted(cli.OPERATION_COVERAGE))
def test_every_subcommand_enters_the_operations_it_covers(command, monkeypatch):
    # runs the command's invocations in scripts/output_digest.py with every
    # registered operation wrapped by a recorder, so a coverage entry that no
    # invocation reaches fails here, not only one that names no operation
    digest = _output_digest()
    entered = set()

    def recorder(name, operation):
        @functools.wraps(operation)
        def recorded(*args, **kwargs):
            entered.add(name)
            return operation(*args, **kwargs)
        return recorded

    for op in cli.OPERATION_COVERAGE[command]:
        module, name = _operation(op)
        monkeypatch.setattr(module, name, recorder(op, getattr(module, name)))
    lines = [line.split() for line in digest.INVOCATIONS if line.split()[0] == command]
    assert lines, f"scripts/output_digest.py runs no {command} invocation"
    for argv in lines:
        digest.digest(argv)
    assert set(cli.OPERATION_COVERAGE[command]) - entered == set()


def test_registry_names_exist():
    declared = {op for ops in cli.OPERATION_COVERAGE.values() for op in ops}
    for op in declared:
        module, name = _operation(op)
        assert callable(getattr(module, name)), f"{op} missing"
    # public building blocks that no subcommand computes for its user
    for op in ("groups.tau", "groups.haar_density", "groups.cartan_radius",
               "character.integrate_G", "reps.rep_matrix", "character.corollary_check",
               "lie.ad_w_eigencheck"):
        module, name = _operation(op)
        assert op not in declared and callable(getattr(module, name))


# ---------------------------------------------------------------------------
# values with a leading minus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, option", [
    (["eigencheck", "--w", "0.5", "--z", "-1,0.7"], "--z"),
    (["matcoef", "--s", "i", "--g-iwasawa", "-0.4,0.1,0", "--n", "0", "--m", "0"], "--g-iwasawa"),
    (["spherical", "--w", "0.5+3i", "--z", "0,1", "--act", "-0.3,0.2,0.1"], "--act"),
    (["spherical", "--w", "0.5", "--ray", "-2,2,9"], "--ray"),
    (["cartan", "--matrix", "-1,0,0,0,-1,0,0,0,1"], "--matrix"),
    (["spherical", "--w", "-0.5+3i", "--z", "1,2"], "--w"),
    (["casimir", "--s", "-2i"], "--s"),
    (["casimir", "--s", "-i"], "--s"),
    (["spherical", "--w", "-i", "--z", "1,2"], "--w"),
    (["gram", "--params", "-i,2i", "--n", "0"], "--params"),
    (["gram", "--params", "-j,2j", "--n", "0"], "--params"),
], ids=["z", "g_iwasawa", "act", "ray", "matrix_k_pi", "complex_w", "complex_s",
        "minus_i_s", "minus_i_w", "minus_i_params", "minus_j_params"])
def test_leading_minus_value_needs_no_equals(capsys, argv, option):
    at = argv.index(option)
    joined = argv[:at] + [f"{option}={argv[at + 1]}"] + argv[at + 2:]
    printed = []
    for form in (argv, joined):
        code = cli.run(form + ["--no-meta"])
        printed.append((code, capsys.readouterr().out))
    assert printed[0] == printed[1]
    assert printed[0][0] == 0 and printed[0][1]


def test_matcoef_spectral_sign_symmetry(capsys):
    # rho_s and rho_{-s} are equivalent, and the spherical vector's
    # coefficient is the same function
    values = []
    for s in ("-2i", "2i"):
        code, payload = run_json(capsys, "matcoef", "--s", s, "--g-iwasawa", "0.7,0.3,1.1",
                                 "--n", "0", "--m", "0", "--no-meta")
        assert code == 0
        values.append(complex(payload["value"]["re"], payload["value"]["im"]))
    assert abs(values[0] - values[1]) < 1e-14


def test_spherical_exponent_symmetry(capsys):
    # phi_w = phi_{1 - w}
    values = []
    for w in ("-0.5+3i", "1.5-3i"):
        code, payload = run_json(capsys, "spherical", "--w", w, "--z", "-1,0.7", "--no-meta")
        assert code == 0
        values.append(complex(payload["phi"]["re"], payload["phi"]["im"]))
    assert values[0] == pytest.approx(values[1], rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["eigencheck", "--w", "0.5", "--z", "-junk"],
    ["spherical", "--w", "0.5", "--z", "-x,1"],
    ["casimir", "--s", "-ix"],
], ids=["eigencheck", "spherical", "minus_i_then_letter"])
def test_leading_minus_before_a_letter_is_an_option(capsys, argv):
    assert cli.run(argv + ["--no-meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error:")


def test_help_flag_still_prints_help(capsys):
    # -h starts with a minus and a letter, so it stays an option
    with pytest.raises(SystemExit) as exc:
        cli.run(["casimir", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: so21 casimir")


# ---------------------------------------------------------------------------
# python -m
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", ["so21", "so21.cli"])
@pytest.mark.parametrize("argv", [
    ["casimir", "--s", "-i", "--n", "0", "--no-meta"],
    ["eigencheck", "--w", "0.5", "--z", "-junk"],
], ids=["ok", "usage_error"])
def test_python_m_runs_the_cli(capsys, module, argv):
    code = cli.run(argv)
    printed = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (code, printed)


def test_python_m_so21_cli_prints_nothing_on_stderr():
    # `import so21` leaves cli unloaded, so runpy finds no copy of it to warn about
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "so21.cli", "casimir", "--s=-i", "--n", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stdout
    assert done.stderr == ""


def test_import_so21_leaves_the_cli_unloaded():
    code = ("import sys, so21; loaded = [m for m in ('so21.cli', 'argparse', 'csv', 'json') "
            "if m in sys.modules]; print(loaded, so21.cli.__name__, "
            "'acceptance.run_all' in so21.cli.OPERATION_COVERAGE['suite'])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.stdout.split() == ["[]", "so21.cli", "True"]
