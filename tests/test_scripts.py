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
