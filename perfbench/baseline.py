#!/usr/bin/env python3
"""Measure the benchmark's baseline: every workload on several seeds.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) with tracing off and once per
workload with tracing on (seed 0), then records for every end-to-end
metric the median, the quartiles and the spread (quartile distance over
median), and whether that spread is within a third of the metric's bound
in BENCHMARK.json.  It fails unless the median span_cover of the traced
runs is within 10% of 1.  Each run is its own process, as the benchmark
requires.
"""

import argparse
import json
import statistics
import time
from pathlib import Path

import run
from env import ROOT

TRACED_SEED = 0
# The criterion spans of a traced battery iteration must sum to the untraced
# battery time within this share.
SPAN_COVER_TOL = 0.10


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    start = time.perf_counter()
    result, lines = run.spawn(workload, seed, seconds, trace)
    result["run_s"] = time.perf_counter() - start
    result["provenance"] = next(json.loads(line.split(" ", 1)[1]) for line in lines
                                if line.startswith("provenance "))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": _seeds(args.seeds), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            res = _run(name, seed, spec["run_seconds"], 0)
            runs.append(res)
            print(name, seed, f"{res['run_s']:.1f}s", res["correct"],
                  {k: round(v["value"], 6) for k, v in res["metrics"].items()}, flush=True)
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bound, "steady": spread < bound / 3,
                            "unit": runs[0]["metrics"][metric]["unit"], "values": values}
            print(f"  {metric:12s} median {med:.6g} spread {spread:.4f} (bound {bound})")
        traced = _run(name, TRACED_SEED, spec["run_seconds"], 1)
        report.setdefault("provenance", {k: v for k, v in traced["provenance"].items()
                                          if k != "seed"})
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s_max": max(r["run_s"] for r in runs),
            "end_to_end": rows,
            "traced_run_s": traced["run_s"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    # One traced run compares one or two battery iterations each way, which
    # the host's speed switches move by up to 16%; the median over the
    # traced runs of every workload is what must lie within the tolerance.
    covers = [w["per_layer"]["acceptance.span_cover"] for w in report["workloads"].values()]
    cover = statistics.median(covers)
    report["span_cover"] = {"values": covers, "median": cover, "tolerance": SPAN_COVER_TOL,
                            "within": abs(cover - 1.0) <= SPAN_COVER_TOL}
    print(f"span_cover median {cover:.4f} of {covers}")
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if not report["span_cover"]["within"]:
        raise SystemExit(f"criterion spans cover {cover:.3f} of the battery time, "
                         f"not within {SPAN_COVER_TOL} of 1")


if __name__ == "__main__":
    main()
