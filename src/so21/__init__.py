"""Numerical harmonic analysis on the identity component of SO(2,1).

The package machine-verifies the explicit structure theory of this group:
the Iwasawa and polar decompositions, the double cover by SL(2,R), the Lie
algebra and its rotation-eigenvector structure, spherical functions on the
upper half-plane with their Laplacian eigenvalue, the induced (principal
and complementary) series in the compact picture with discrete-series
ladders, rotation-isotype projectors, and the collapse of the character
distribution onto a single matrix coefficient.

Everything is certified by independent numerical oracles at stated
tolerances; run the `suite` CLI subcommand or the acceptance tests to see
the full battery.  `so21.cli.OPERATION_COVERAGE` names, per subcommand, the
operations it computes for its user; public building blocks such as
`groups.tau`, `groups.haar_density`, `reps.rep_matrix`,
`character.integrate_G` and `character.corollary_check` sit outside it.
"""

from . import character, equivariant, groups, hyperbolic, lie, reps
from .errors import DomainError, NumericError, SupportWarning, TruncationWarning

__version__ = "0.1.0"

__all__ = [
    "character", "cli", "equivariant", "groups", "hyperbolic", "lie", "reps",
    "DomainError", "NumericError", "SupportWarning", "TruncationWarning",
]


def __getattr__(name):
    # `cli` loads on first use: imported here, it would load argparse, csv and
    # json with every `import so21`, and `python -m so21.cli` would find it in
    # sys.modules before running it as __main__ (runpy warns)
    if name == "cli":
        from importlib import import_module
        return import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
