#!/usr/bin/env python3
"""Benchmark of so21: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload battery --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Workloads (see workloads.py): ``battery`` (the acceptance battery behind
``so21 suite``), ``pointwise`` (single-element queries as the CLI makes
them) and ``haar`` (the 96 x 96 x 128 translation-invariance certificate).
The workload runs for ``--seconds`` seconds in this single-threaded
process.  With ``--trace 0`` the metrics are the end-to-end ones: median
iteration time and set-up time (median of fresh processes), both in
reference-speed seconds (see calibrate.py), this process's peak RSS, and
the three accuracy metrics from a separate probe process.
With ``--trace 1`` the workload alternates untraced and traced iterations,
every other workload runs once each way, and the metrics are the
per-layer spans and counts; the spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the environment is unusable (for example no so21 sources, or
LH_DEFAULT_NODES set), 3 a benchmark error such as reference drift.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env
import tracing

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("quad_err", "rel"), ("radial_err", "rel"), ("haar_defect", "rel"),
)

CRITERIA = tuple(f"acceptance.c{k:02d}_s" for k in range(1, 12))
CRITERION_SPANS = frozenset(name[:-2] for name in CRITERIA)
# Per-call medians of pointwise spans: metric name -> span name.
POINTWISE_US = {
    "groups.iwasawa_us": "groups.iwasawa",
    "groups.cartan_us": "groups.cartan",
    "groups.psi_inv_us": "groups.psi_inv",
    "groups.psi_us": "groups.psi",
    "groups.require_member_us": "groups.require_member",
    "reps.matcoef_us": "reps.matcoef",
    "reps.act_principal_us": "reps.act_principal",
    "reps.rep_matrix_us": "reps.rep_matrix",
    "reps.ladder_leakage_us": "reps.ladder_leakage",
    "hyperbolic.phi_us": "hyperbolic.phi",
    "hyperbolic.eigencheck_us": "hyperbolic.eigencheck",
    "lie.casimir_apply_us": "lie.casimir_apply",
    "lie.exp_matrix_us": "lie.exp_matrix",
    "equivariant.project_biequivariant_us": "equivariant.project_biequivariant",
    "equivariant.right_isotype_us": "equivariant.right_isotype",
    "equivariant.gram_us": "equivariant.gram_min_eig",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in CRITERIA},
    "acceptance.span_cover": "ratio",
    "character.char_identity_s": "s",
    "character.char_identity_refined_s": "s",
    "character.grid_nodes": "count",
    "character.active_nodes": "count",
    "character.active_node_frac": "ratio",
    "character.ns_per_active_node": "ns",
    "equivariant.witness_ns": "ns",
    "character.haar_check_s": "s",
    "character.grid_elements_ns": "ns",
    "character.stack_bytes": "B",
    "character.stacks_built": "count",
    "groups.construct_ns": "ns",
    "groups.iwasawa_batch_ns": "ns",
    **{name: "us" for name in POINTWISE_US},
    "trace.overhead_frac": "ratio",
    "trace.span_cost_ns": "ns",
}


def iterate(wl, tr, checks, during=contextlib.nullcontext):
    """One timed iteration; returns its seconds, or None if it raised.

    ``during()`` wraps the timed region, for calibration that runs in it.
    """
    tr.begin_iteration(wl.name)
    try:
        with during():
            start = time.perf_counter()
            outputs = wl.run(tr)
            elapsed = time.perf_counter() - start
        wl.check(outputs, checks)
    except Exception:  # a failing operation is counted, and the run goes on
        traceback.print_exc()
        checks.expect(f"{wl.name} iteration raised", False)
        return None
    return elapsed


def _median(values, what):
    values = [v for v in values if v is not None]
    if not values:
        raise env.BenchmarkError(f"no {what} iteration completed")
    return statistics.median(values)


def _child(args, timeout=CHILD_TIMEOUT_S):
    proc = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                          text=True, timeout=timeout, cwd=env.ROOT)
    if proc.returncode != 0:
        raise env.BenchmarkError(f"child {args[0]} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(name, seed):
    """Seconds from process start to inputs ready, one sample per fresh
    process, scaled by the ``process`` calibration kernel (a fresh
    interpreter that imports numpy) run around each of them.

    One unrecorded process runs first so that the byte-code cache is warm,
    as it is for a user's repeated runs.
    """
    import calibrate

    samples = None
    for _ in range(SETUP_SAMPLES + 1):
        elapsed, line, code = calibrate.process_s(
            [sys.executable, str(CHILD), "setup", name, str(seed)], CHILD_TIMEOUT_S)
        if code != 0 or not json.loads(line or "{}").get("ready"):
            raise env.BenchmarkError(f"set-up process for {name} failed")
        if samples is None:
            samples = calibrate.Calibrated("process", 1)
        else:
            samples.add(elapsed)
    return samples


def run_untraced(name, seed, seconds, checks):
    import calibrate
    import workloads

    setup = measure_setup(name, seed)
    wl = workloads.WORKLOADS[name](seed)
    times = calibrate.Calibrated(*wl.kernel)
    start = time.perf_counter()
    while not times.raw or time.perf_counter() - start < seconds:
        elapsed = iterate(wl, tracing.NULL, checks, times.during)
        if elapsed is not None:
            times.add(elapsed)
        elif time.perf_counter() - start >= seconds:
            break
    wall = _median(times.scaled, name)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = _child(["accuracy"])
    checks.attempted += probe["attempted"]
    checks.failed += probe["failed"]
    checks.failures += probe["failures"]
    print(f"{name}: {len(times.raw)} iterations in {sum(times.raw):.2f} s; wall_s median "
          f"{wall:.4f} reference-speed s ({_median(times.raw, name):.4f} s as measured), "
          f"{_spread(times.scaled)}; setup_s median of {len(setup.scaled)}, "
          f"{_median(setup.raw, name):.4f} s as measured")
    values = {"wall_s": wall, "setup_s": _median(setup.scaled, "set-up"),
              "peak_rss_mb": peak_mb, **probe["values"]}
    return {key: values[key] for key, _ in END_TO_END}


def _spread(values):
    """Quartiles, and the highest percentile with ten samples beyond it."""
    if len(values) < 2:
        return "one sample"
    q = statistics.quantiles(values, n=4)
    text = f"quartiles {q[0]:.4f}..{q[2]:.4f} s"
    if len(values) > 10:
        n = len(values)
        text += f", p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f} s"
    return text


def _span_cost_ns(count=20000):
    tr = tracing.Tracer()
    start = time.perf_counter()
    for _ in range(count):
        with tr.span("empty"):
            pass
    return (time.perf_counter() - start) / count * 1e9


def alternate(wl, tr, checks, seconds):
    """Untraced and traced iterations of ``wl`` in turn, for ``seconds`` and
    at least one each way.  Returns both sets of calibrated samples and the
    calibrated criterion-span total of every traced battery iteration."""
    import calibrate

    plain, traced = calibrate.Calibrated(*wl.kernel), calibrate.Calibrated(*wl.kernel)
    covered = []
    start = time.perf_counter()
    while not (plain.raw and traced.raw) or time.perf_counter() - start < seconds:
        use_trace = len(traced.raw) < len(plain.raw)
        times = traced if use_trace else plain
        first = len(tr.spans)
        elapsed = iterate(wl, tr if use_trace else tracing.NULL, checks, times.during)
        if elapsed is None:
            if time.perf_counter() - start >= seconds:
                break
            continue
        times.add(elapsed)
        spans = [end - begin for (span, begin, end, _, _) in tr.spans[first:]
                 if span in CRITERION_SPANS]
        if use_trace and spans:
            # The spans hold the kernel runs inside them; so does elapsed.
            covered.append(sum(spans) * times.scaled[-1] / elapsed)
    return plain, traced, covered


def run_traced(name, seed, seconds, checks, prov):
    import probes
    import workloads

    tr = tracing.Tracer()
    walls = {}
    for other, cls in workloads.WORKLOADS.items():
        walls[other] = alternate(cls(seed), tr, checks, seconds if other == name else 0)
    accuracy = probes.accuracy(checks, tr)
    probes.layer_counts(tr, seed)
    span_cost = _span_cost_ns()

    c = tr.counts
    m = {}
    for metric in CRITERIA:
        m[metric] = tr.median(metric[:-2])
    plain, _, covered = walls["battery"]
    m["acceptance.span_cover"] = _median(covered, "battery") / _median(plain.scaled, "battery")
    m["character.char_identity_s"] = tr.median("character.char_identity_check")
    m["character.char_identity_refined_s"] = tr.median("character.char_identity_check_refined")
    m["character.grid_nodes"] = c["character.grid_nodes"]
    m["character.active_nodes"] = c["character.active_nodes"]
    m["character.active_node_frac"] = c["character.active_nodes"] / c["character.grid_nodes"]
    m["character.ns_per_active_node"] = m["character.char_identity_s"] / c["character.active_nodes"] * 1e9
    m["equivariant.witness_ns"] = tr.median("equivariant.witness") / c["character.grid_nodes"] * 1e9
    m["character.haar_check_s"] = tr.median("character.haar_invariance_check")
    m["character.grid_elements_ns"] = tr.median("character.grid_elements") / c["character.haar_nodes"] * 1e9
    m["character.stack_bytes"] = c["character.stack_bytes"]
    m["character.stacks_built"] = c["character.stacks_built"]
    m["groups.construct_ns"] = tr.median("groups.construct") / c["character.grid_nodes"] * 1e9
    m["groups.iwasawa_batch_ns"] = tr.median("groups.iwasawa_batch") / workloads.Pointwise.K * 1e9
    for metric, span in POINTWISE_US.items():
        m[metric] = tr.median(span) * 1e6
    plain, traced, _ = walls[name]
    m["trace.overhead_frac"] = _median(traced.scaled, name) / _median(plain.scaled, name) - 1.0
    m["trace.span_cost_ns"] = span_cost

    self_times = tr.self_times()
    env.OUT.mkdir(exist_ok=True)
    out = env.OUT / f"trace-{name}-seed{seed}.json"
    out.write_text(json.dumps({
        "provenance": prov, "workload": name, "accuracy": accuracy,
        "walls_s": {k: {"untraced": u.raw, "traced": t.raw, "untraced_scaled": u.scaled,
                        "traced_scaled": t.scaled} for k, (u, t, _) in walls.items()},
        "counts": c, "self_times": self_times, "spans": tr.records(),
    }))
    print(f"{name}: {len(plain.raw)} untraced / {len(traced.raw)} traced iterations; "
          f"{len(tr.spans)} spans written to {out.relative_to(env.ROOT)}")
    print("self time by span (s):")
    for span, row in sorted(self_times.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {span:42s} {row['calls']:7d} calls {row['self_s']:10.4f}")
    return {key: m[key] for key in PER_LAYER_UNITS}


def spawn(name, seed, seconds, trace):
    """Run one workload in a fresh ``run.py`` process; returns its JSON
    result and every line it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=env.ROOT)
    if proc.returncode != 0:
        raise env.BenchmarkError(f"{' '.join(cmd)} failed:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def run_all_workloads(args):
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        res, _ = spawn(name, args.seed, args.seconds, args.trace)
        results[name] = res
        print(f"== {name}: correct={res['correct']}, "
              f"check_fail_frac {res['failed'] / res['attempted']:.3g} ratio")
        for metric, row in res["metrics"].items():
            print(f"   {metric:40s} {row['value']:<14.6g} {row['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("battery", "pointwise", "haar", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.bootstrap()
        env.import_so21()
        if args.workload == "all":
            return run_all_workloads(args)
        import workloads

        prov = env.provenance(args.seed)
        print("provenance " + json.dumps(prov))
        checks = workloads.Checks()
        if args.trace:
            values = run_traced(args.workload, args.seed, args.seconds, checks, prov)
            units = PER_LAYER_UNITS
        else:
            values = run_untraced(args.workload, args.seed, args.seconds, checks)
            units = dict(END_TO_END)
    except env.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, env.EnvironmentRefused) else 3
    for label in checks.failures:
        print(f"FAILED CHECK: {label}")
    print(f"check_fail_frac {checks.failed / max(checks.attempted, 1):.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for key, value in values.items():
        print(f"{key:40s} {value:<14.6g} {units[key]}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
