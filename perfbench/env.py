"""Environment guard, import path and provenance for every benchmark process.

:func:`bootstrap` must run before numpy is imported: it pins the BLAS
thread pools to one thread (the workloads are single-threaded by design)
and puts the checkout's own ``src`` first on the import path, so the
package measured is the one built from this checkout.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Library-wide override of every default quadrature node count.  It would
# silently change quad_err, radial_err and every time, so it is refused.
NODES_ENV_VAR = "LH_DEFAULT_NODES"
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


class EnvironmentRefused(BenchmarkError):
    """The checkout or the environment cannot be measured at all."""


def bootstrap():
    if os.environ.get(NODES_ENV_VAR):
        raise EnvironmentRefused(
            f"{NODES_ENV_VAR} is set; it changes every default node count, "
            "so the benchmark refuses to run")
    if "numpy" in sys.modules:
        raise EnvironmentRefused("bootstrap() must run before numpy is imported")
    if not (SRC / "so21" / "__init__.py").is_file():
        raise EnvironmentRefused(f"no so21 sources under {SRC}; run from a full checkout")
    for var in BLAS_ENV_VARS:
        os.environ.setdefault(var, "1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_so21():
    """Import so21 and confirm it came from this checkout."""
    import so21

    if Path(so21.__file__).resolve().parent != (SRC / "so21").resolve():
        raise EnvironmentRefused(f"imported so21 from {so21.__file__}, not from {SRC}")
    return so21


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "so21").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed) -> dict:
    import numpy as np

    return {
        "git_revision": _git_revision(),
        "source_sha256_16": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "seed": seed,
    }
