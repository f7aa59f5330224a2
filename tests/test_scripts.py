import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_charcheck_convergence_script_prints_one_row_per_level():
    # the script runs char_identity_check on the default grid, so it goes
    # through the Haar chunks
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "charcheck_convergence.py"),
                           "--levels", "1"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["grid", "lhs"]
    assert len(rows) == 1
    fields = rows[0].split()
    assert fields[0] == "48x48x96"
    assert float(fields[3]) < 1e-6  # rel_err: both sides share the quadrature
    active, support, grid_rows = (int(v) for v in fields[5].split("/"))
    assert 0 < active <= support < grid_rows == 48 * 48
