import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from so21 import cli

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_charcheck_convergence_script_prints_one_row_per_level():
    # the script runs char_identity_check on the default grid, so it goes
    # through the Haar chunks
    done = _run_script("charcheck_convergence.py", "--levels", "1")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["grid", "lhs"]
    assert len(rows) == 1
    fields = rows[0].split()
    assert fields[0] == "48x48x96"
    assert float(fields[3]) < 1e-6  # rel_err: both sides share the quadrature
    active, support, grid_rows = (int(v) for v in fields[5].split("/"))
    assert 0 < active <= support < grid_rows == 48 * 48


def test_charcheck_convergence_script_takes_a_leading_minus_value():
    # the script parses with the CLI's parser: `--s -2i` is the value -2i
    printed = []
    for argv in (["--s", "-2i"], ["--s=-2i"]):
        done = _run_script("charcheck_convergence.py", *argv, "--levels", "1")
        assert done.returncode == 0, done.stderr
        printed.append([line.split()[:-1] for line in done.stdout.splitlines()])  # not secs
    assert printed[0] == printed[1] and len(printed[0]) == 2
    assert _run_script("charcheck_convergence.py", "--levels", "x").returncode == 1


def test_output_digest_script_is_deterministic():
    # two runs print the same digest for every invocation, so a diff of the
    # output across revisions shows only changed output
    first, second = _run_script("output_digest.py"), _run_script("output_digest.py")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    lines = first.stdout.splitlines()
    assert first.stdout == second.stdout and len(lines) >= 10
    for line in lines:
        digest, argv = line.split(" ", 1)
        assert len(digest) == 64 and argv.split()[0] in cli.OPERATION_COVERAGE
    assert {"suite", "suite --fast", "haarcheck --grid 96,96,128"} <= {
        line.split(" ", 1)[1] for line in lines}


def _load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_summarizes_alternating_pairs():
    # each metric is summarized over the pairs, parent against change,
    # whichever side ran first
    record = _load_script("bench_record.py")

    def run(pair, side, wall, failed=0):
        return {"workload": "haar", "pair": pair, "side": side, "failed": failed,
                "metrics": {"wall_s": wall, "haar_defect": 4e-4}}

    runs = [run(0, "parent", 3.0), run(0, "change", 2.0), run(1, "change", 2.5, failed=1),
            run(1, "parent", 2.0), run(2, "parent", 4.0), run(2, "change", 1.0)]
    summary = record._summary(runs)["haar"]
    wall = summary["wall_s"]
    assert wall["pairs"] == 3 and wall["change_lower_in"] == 2
    assert wall["parent_median"] == 3.0 and wall["change_median"] == 2.0
    assert wall["parent_quartiles"] == [2.5, 3.5] and not wall["identical"]
    assert summary["haar_defect"]["identical"]
    assert summary["failed_ops"] == {"parent": 0, "change": 1}

