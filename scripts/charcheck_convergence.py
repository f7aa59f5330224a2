#!/usr/bin/env python3
"""Convergence study of the character identity under grid refinement.

Prints one line per refinement level with both sides of the identity, their
relative gap, the off-row mass of the smoothed operator (the quantity
that actually converges; the two sides themselves agree to roundoff), the
(t, u) rows as active/support/grid (rows the cocycle ran on, rows the
witness was evaluated on, all rows), and the seconds the check took.

Example:
    python scripts/charcheck_convergence.py --s i --n 1 --levels 3
"""

import sys

from so21 import acceptance, character, cli, equivariant, reps


def main():
    # the CLI's parser, so a value with a leading minus needs no `=` (`--s -2i`)
    parser = cli._Parser(description=__doc__)
    parser.add_argument("--s", default="i")
    parser.add_argument("--n", type=int, default=1)
    # the defaults of `so21 charcheck`, the library's
    parser.add_argument("--trunc", type=int, default=character.CHAR_TRUNC)
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--t0", type=float, default=acceptance.CHAR_PROFILE.center)
    parser.add_argument("--width", type=float, default=acceptance.CHAR_PROFILE.width)
    try:
        args = parser.parse_args()
    except cli.UsageError as exc:
        sys.exit(f"usage error: {exc}")

    p = reps.SpectralParam.from_s(reps.parse_complex(args.s))
    witness = equivariant.separation_witness(
        args.n, equivariant.BumpProfile(args.t0, args.width))

    grid = character.HaarGrid()
    print(f"{'grid':>16} {'lhs (trace)':>22} {'rhs (integral)':>22} "
          f"{'rel_err':>10} {'offrow':>10} {'rows':>16} {'secs':>6}")
    for _ in range(args.levels):
        res = character.char_identity_check(p, args.n, witness, grid=grid, N=args.trunc)
        label = "x".join(str(v) for v in grid.shape)
        print(f"{label:>16} {res.lhs_trace.real:>22.12f} {res.rhs_integral.real:>22.12f} "
              f"{res.rel_err:>10.1e} {res.offrow_mass:>10.1e} "
              f"{f'{res.active_rows}/{res.support_rows}/{res.grid_rows}':>16} "
              f"{res.seconds:>6.2f}")
        grid = grid.refine()


if __name__ == "__main__":
    main()
