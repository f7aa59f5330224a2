#!/usr/bin/env python3
"""Record the benchmark of a change against its parent commit as a BENCH JSON file.

Runs ``perfbench/run.py --trace 0`` on a parent commit and on HEAD, for
every workload of ``BENCHMARK.json`` and for its ``run_seconds``,
in PAIRS alternating pairs: pair k runs both sides on seed ``--seed + k``,
the parent first in even pairs and the change first in odd ones.  Each
commit is extracted with ``git archive`` into a temporary directory, so it
is measured with its own sources and benchmark, the way a fresh checkout
is; uncommitted changes are not measured.
The output file holds every run's metrics and, per workload and metric, the
median and quartiles of each side, the number of pairs the change read
lower in, the provenance that ``run.py`` prints (git revision, source
digest, CPU model, nproc, Python and numpy) and both git revisions:

    python3 scripts/bench_record.py --parent HEAD~1 --out BENCH_29.json --seed 30

Exit code 1 means a run failed (its output is printed); nothing is written
then.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(revision: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(into, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
        raise SystemExit(f"{' '.join(command)} in {tree} exited {done.returncode}")
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    result = json.loads(lines[-1])
    return {"provenance": provenance, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def _summary(runs: list) -> dict:
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        metrics = {}
        for name in next(iter(pairs.values()))["parent"]["metrics"]:
            parent = np.array([pair["parent"]["metrics"][name] for pair in pairs.values()])
            change = np.array([pair["change"]["metrics"][name] for pair in pairs.values()])
            metrics[name] = {
                "pairs": len(pairs),
                "parent_median": float(np.median(parent)),
                "parent_quartiles": [float(q) for q in np.percentile(parent, [25, 75])],
                "change_median": float(np.median(change)),
                "change_quartiles": [float(q) for q in np.percentile(change, [25, 75])],
                "change_lower_in": int(np.count_nonzero(change < parent)),
                "identical": bool(np.array_equal(parent, change)),
            }
        metrics["failed_ops"] = {side: sum(pair[side]["failed"] for pair in pairs.values())
                                 for side in ("parent", "change")}
        summary[workload] = metrics
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    revisions = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD")}
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch) / side for side in revisions}
        for side, tree in trees.items():
            tree.mkdir()
            _extract(revisions[side], tree)
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(PAIRS):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = _run(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 **run})
                    print(f"{workload} pair {pair} {side}: wall_s "
                          f"{run['metrics']['wall_s']:.4g}", file=sys.stderr, flush=True)

    first = {side: next(run["provenance"] for run in runs if run["side"] == side)
             for side in ("parent", "change")}
    record = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": f"{PAIRS} per workload; pair k runs seed {args.seed} + k on both sides, "
                 "the parent first in even pairs",
        **{side: {"git_revision": revisions[side],
                  "source_sha256_16": first[side]["source_sha256_16"]} for side in revisions},
        **{key: first["change"][key] for key in ("cpu_model", "nproc", "python", "numpy",
                                                   "blas_threads")},
        "summary": _summary(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
