"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.bootstrap()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import probes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from so21 import acceptance, character, reps  # noqa: E402
from so21.errors import SupportWarning  # noqa: E402


def _fingerprint(seed):
    """Digest of every input the pointwise and haar workloads draw from a seed."""
    digest = hashlib.sha256()
    for qs in workloads.Pointwise(seed).sets:
        digest.update(qs.stack.tobytes())
        digest.update(qs.act_vector.c.tobytes())
        digest.update(repr([p.s for p in qs.gram_params]).encode())
        for q in qs.queries:
            digest.update(repr((q.param.s, q.n, q.sign, q.boost_point, q.z,
                                q.witness.support)).encode())
    for label, g0 in workloads.haar_translations(seed).items():
        digest.update(label.encode())
        digest.update(g0.tobytes())
    return digest.hexdigest()


def test_same_seed_same_inputs_different_seed_different_inputs():
    assert _fingerprint(7) == _fingerprint(7)
    assert _fingerprint(7) != _fingerprint(8)


@pytest.mark.parametrize("seed", range(20))
def test_haar_translations_keep_support_inside_the_box(seed):
    grid = character.HaarGrid(nt=8, nu=8, ntheta=8)
    f = character._oracle_test_function
    with warnings.catch_warnings():
        warnings.simplefilter("error", SupportWarning)
        for g0 in workloads.haar_translations(seed).values():
            character.integrate_G(lambda gs: f(g0 @ gs), grid)
            character.integrate_G(lambda gs: f(gs @ g0), grid)


def test_quad_err_sees_integration_error():
    """Negative control: a coarse grid must read far worse than the default,
    although criterion 10's own rel_err is at roundoff on both."""
    default = probes.quad_err()
    coarse = probes.quad_err(grid=character.HaarGrid(nt=24, nu=24, ntheta=48))
    assert 5e-3 < coarse < 5e-2
    assert coarse > 5 * default


def test_radial_err_is_measured_over_the_whole_sweep():
    assert probes.RADIAL_TS[0] == 0.0 and probes.RADIAL_TS[-1] == 6.0
    assert probes.radial_err() > 1e-2  # the known large-radius defect shows


def test_checks_can_fail():
    checks = workloads.Checks()
    wl = workloads.Pointwise(0)
    qs, batch, rows, moved, gram = wl.run(tracing.NULL)
    wl.check((qs, batch, rows, moved, gram), checks)
    assert checks.failed == 0
    stretched = reps.KFourierVector(moved.N, moved.c * 1.001)
    wl.check((qs, batch, rows, stretched, gram), checks)
    assert checks.failed == 1
    bad = acceptance.CriterionResult(10, "character identity", False, "forced", 0.0)
    workloads.Battery(0).check([bad], checks)  # fails, and is not the whole battery
    assert checks.failed == 3
    broken = character.HaarCheckResult(1.0, 1e-2, 0.0, {})
    workloads.Haar(0).check(broken, checks)
    assert checks.failed == 4


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    rows = tr.self_times()
    outer = tr.durations("outer")[0]
    inner = tr.durations("inner")[0]
    assert rows["outer"]["self_s"] == pytest.approx(outer - inner)
    assert rows["inner"]["self_s"] == pytest.approx(inner)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run(cwd, extra_env=None):
    environ = {k: v for k, v in os.environ.items() if k != env.NODES_ENV_VAR}
    environ.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "haar", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=environ, capture_output=True, text=True, timeout=60)


def test_refuses_to_run_with_node_override():
    proc = _run(env.ROOT, {env.NODES_ENV_VAR: "64"})
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_calibrated_samples_scale_by_the_kernel_around_them(monkeypatch):
    import calibrate

    kernel = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(calibrate, "kernel_s", lambda kind: next(kernel))
    samples = calibrate.Calibrated("small", 1)
    samples.add(3.0)
    samples.add(1.0)
    assert samples.raw == [3.0, 1.0]
    reference = calibrate.REFERENCE_S["small"]
    assert samples.scaled == pytest.approx([3.0 * reference / 0.03, 1.0 * reference / 0.025])


def test_sampled_calibration_uses_the_kernel_runs_inside_the_sample(monkeypatch):
    import calibrate

    inside = []
    monkeypatch.setattr(calibrate, "kernel_s", lambda kind: 0.02 if inside else 1.0)
    monkeypatch.setattr(calibrate, "TICK_S", 0.01)
    samples = calibrate.Calibrated("large", 1)
    with samples.during():
        inside.append(True)
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        elapsed = time.perf_counter() - start
        inside.clear()
    samples.add(elapsed)
    assert samples.raw[0] < elapsed
    assert samples.scaled[0] == pytest.approx(
        samples.raw[0] * calibrate.REFERENCE_S["large"] / 0.02)
