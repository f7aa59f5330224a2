"""Command-line interface: the library's operations behind one executable.

Every subcommand takes the output flags --format (json, text, or csv for
`spherical --ray`), --no-meta and --out.  JSON is the default, in stable key
order, so identical configurations print byte-identical output once
--no-meta strips the timing block.  A value that starts with a minus and a
digit or -i needs no `=`: `--z -1,0.7`, `--s -2i`, `--params -i,2i`.  Exit codes:
0 success, 1 usage error, 2 domain error, 3 the subcommand's battery criterion
failed (`so21.acceptance`): 4 for `eigencheck`, 7 for `ladder` (which exits 3
wherever its 4N + 4 nodes alias), 10 for `charcheck`, 11 for `haarcheck`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
import time

import numpy as np

from . import acceptance, character, equivariant, groups, hyperbolic, lie, reps
from .errors import DomainError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_TOLERANCE = 3

# The library operations each subcommand computes for its user, by module;
# the coverage tests check the keys against the parser's subcommands and that
# each subcommand's invocations in scripts/output_digest.py enter every one.
OPERATION_COVERAGE = {
    "iwasawa": ("groups.iwasawa", "groups.recompose", "groups.make_a", "groups.make_n",
                "groups.make_k"),
    "cartan": ("groups.cartan",),
    "psi": ("groups.psi",),
    "psi-inv": ("groups.psi_inv", "groups.so21_check"),
    "bracket": ("lie.bracket",),
    "exp": ("lie.exp_matrix", "lie.dpsi"),
    "casimir": ("lie.casimir_apply",),
    "spherical": ("hyperbolic.phi", "hyperbolic.chi", "hyperbolic.act"),
    "eigencheck": ("hyperbolic.eigencheck", "hyperbolic.laplacian_fd"),
    "matcoef": ("reps.matcoef", "reps.act_principal", "reps.cocycle"),
    "ktypes": ("reps.k_types", "reps.tau_spherical_set"),
    "ladder": ("reps.discrete_ladder_leakage",),
    "separate": ("equivariant.separation_witness", "equivariant.project_biequivariant",
                 "equivariant.right_isotype_project"),
    "gram": ("equivariant.gram_min_eig",),
    "haarcheck": ("character.haar_invariance_check",),
    "charcheck": ("character.char_identity_check", "character.pi_of_f"),
    "suite": ("acceptance.run_all",),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # `-` or `-.` then a digit, or `-i` or `-j` ending a list entry, starts a value
        self._negative_number_matcher = re.compile(r"^-(\.?\d|[ij](,|$))")

    def error(self, message):
        raise UsageError(message)


def _refuse_with(args, flag, *dests):
    """Refuse the options `dests` next to `flag`, which would ignore them."""
    given = [f"--{dest.replace('_', '-')}" for dest in dests if getattr(args, dest) is not None]
    if given:
        raise UsageError(f"{flag} cannot be combined with {', '.join(given)}")


def _parse_floats(text, count=None):
    parts = [p for p in text.replace("[", "").replace("]", "").split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"cannot parse {text!r} as numbers") from exc
    if count is not None and len(values) != count:
        raise UsageError(f"expected {count} comma-separated numbers, got {len(values)}")
    return values


def _parse_matrix(text, size=3):
    return np.array(_parse_floats(text, size * size)).reshape(size, size)


def _parse_element(text):
    """Group element a_t n_u k_theta from a `t,u,theta` string."""
    return groups.recompose(groups.IwasawaCoords(*_parse_floats(text, 3)))


def _parse_spectral(text):
    return reps.SpectralParam.from_s(reps.parse_complex(text))


def _count(value, what):
    """`value` as an int, refused unless it is a non-negative integer."""
    if value < 0 or not value.is_integer():
        raise UsageError(f"{what} must be a non-negative integer, got {value:g}")
    return int(value)


def _parse_grid(text):
    return character.HaarGrid(*(_count(v, "--grid count") for v in _parse_floats(text, 3)))


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [_jsonable(complex(v)) for v in value.ravel()]
        return [float(v) for v in value.ravel()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _null_non_finite(value):
    """A :func:`_jsonable` value with each non-finite float as None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _null_non_finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_null_non_finite(v) for v in value]
    return value


def _emit(payload, args, started: float) -> None:
    # timings a handler reports ride in its "meta" entry, never in the payload
    payload = dict(payload)
    timings = payload.pop("meta", {})
    if not args.no_meta:
        payload["meta"] = {
            "subcommand": args.subcommand,
            "runtime_seconds": time.perf_counter() - started,
            "timestamp": time.time(),
            **timings,
        }
    if args.format == "json":
        text = json.dumps(_null_non_finite(_jsonable(payload)), sort_keys=True, allow_nan=False)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(payload["columns"])
        writer.writerows(payload["rows"])
        text = buf.getvalue().rstrip("\n")
    else:
        text = "\n".join(f"{k}: {v}" for k, v in _jsonable(payload).items())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        print(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="so21", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv", "text"), default="json")
    output.add_argument("--no-meta", action="store_true")
    output.add_argument("--out", default=None)

    def command(name, summary):
        return sub.add_parser(name, help=summary, parents=[output])

    p = command("iwasawa", "decompose g = a_t n_u k_theta, or rebuild from coordinates")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix")
    source.add_argument("--recompose", help="t,u,theta to rebuild instead of decompose")

    p = command("cartan", "polar coordinates k_theta1 a_t k_theta2")
    p.add_argument("--matrix", required=True)

    p = command("psi", "apply the covering map to an SL(2,R) matrix")
    p.add_argument("--sl2", required=True, help="a,b,c,d")

    p = command("psi-inv", "canonical SL(2,R) representative of a group element")
    p.add_argument("--matrix", required=True)

    p = command("bracket", "commutator of algebra elements")
    p.add_argument("--x", required=True, help="9 numbers or a basis name (V1, V2, W)")
    p.add_argument("--y", required=True, help="9 numbers or a basis name")

    p = command("exp", "matrix exponential; --dpsi for the differential of the covering map")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--algebra", help="9 numbers or a basis name")
    source.add_argument("--dpsi", help="a,b,c,d of a traceless 2x2 matrix")

    p = command("casimir", "Casimir ratio on a diagonal matrix coefficient")
    p.add_argument("--s", required=True, help="spectral parameter, e.g. i, 2i, 0.5")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--g-iwasawa", default="0.4,0.2,0.3")
    p.add_argument("--h", type=float, default=lie.DEFAULT_CASIMIR_STEP)

    p = command("spherical", "evaluate phi_w; --ray sweeps a geodesic (csv-able)")
    p.add_argument("--w", required=True, help="complex exponent, e.g. 0.5+3i")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--z", help="x,y with y > 0")
    source.add_argument("--ray", help="t0,t1,steps: sweep phi_w(a_t . i)")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--act", help="t,u,theta: also report the moved point g . z")

    p = command("eigencheck", "Laplacian eigenvalue residual of phi_w")
    p.add_argument("--w", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--h", type=float, default=hyperbolic.DEFAULT_FD_STEP)
    p.add_argument("--nodes", type=int, default=None)

    p = command("matcoef", "matrix coefficient <rho(g) e_n, e_m>")
    p.add_argument("--s", required=True)
    p.add_argument("--g-iwasawa", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trunc", type=int, default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--vector", action="store_true",
                   help="also apply the action to e_n and report the coefficients up to --trunc")
    p.add_argument("--cocycle-at", type=float, default=None,
                   help="report the cocycle (t, theta') at this angle")

    p = command("ktypes", "K-type support of a representation / tau_n-spherical families")
    p.add_argument("--rep", help="trivial | D+4 | D-2 | rho | rho:i | rho:0.5")
    p.add_argument("--tau-spherical", type=int, default=None)

    p = command("ladder", "invariant-subspace leakage of a discrete-series ladder")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--g-iwasawa", default="1,0,0")
    p.add_argument("--N", type=int, default=24)

    p = command("separate", "separation witness on polar orbits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--probe", required=True, help="t1,t2: radii of the two orbits to separate")
    p.add_argument("--verify-projection", action="store_true",
                   help="also re-project the witness and report the defects")

    p = command("gram", "Gram-matrix independence certificate")
    p.add_argument("--params", required=True, help="comma-separated spectral parameters, e.g. i,2i,0.5")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--tmax", type=float, default=equivariant.GRAM_REGION[1])

    p = command("haarcheck", "translation-invariance oracle for the Haar weights")
    p.add_argument("--grid", default=",".join(map(str, character.ORACLE_GRID)))

    p = command("charcheck", "character-distribution identity check")
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", default=",".join(map(str, character.HaarGrid().shape)))
    p.add_argument("--trunc", type=int, default=character.CHAR_TRUNC)
    p.add_argument("--t0", type=float, default=acceptance.CHAR_PROFILE.center)
    p.add_argument("--width", type=float, default=acceptance.CHAR_PROFILE.width)
    p.add_argument("--refine", action="store_true")

    p = command("suite", "run the full acceptance battery")
    p.add_argument("--fast", action="store_true")

    return parser


def _algebra_from_text(text):
    return lie.BASIS[text] if text in lie.BASIS else _parse_matrix(text)


def _char_sides(res):
    """Both sides of a character check and its row counts, as the JSON reports them."""
    return {"lhs": res.lhs_trace, "rhs": res.rhs_integral, "rel_err": res.rel_err,
            "grid": list(res.grid.shape), "active_rows": res.active_rows,
            "support_rows": res.support_rows, "grid_rows": res.grid_rows}


def _handle(args):
    """Dispatch to the library; returns (payload, exit_code)."""
    name = args.subcommand

    if name == "iwasawa":
        if args.recompose is not None:
            return {"matrix": _parse_element(args.recompose)}, EXIT_OK
        return dataclasses.asdict(groups.iwasawa(_parse_matrix(args.matrix))), EXIT_OK

    if name == "cartan":
        return dataclasses.asdict(groups.cartan(_parse_matrix(args.matrix))), EXIT_OK

    if name == "psi":
        return {"matrix": groups.psi(_parse_matrix(args.sl2, 2))}, EXIT_OK

    if name == "psi-inv":
        g = _parse_matrix(args.matrix)
        return {"sl2": groups.psi_inv(g).matrix,
                "diagnostics": dataclasses.asdict(groups.so21_check(g))}, EXIT_OK

    if name == "bracket":
        return {"matrix": lie.bracket(_algebra_from_text(args.x),
                                      _algebra_from_text(args.y))}, EXIT_OK

    if name == "exp":
        if args.dpsi is not None:
            return {"matrix": lie.dpsi(_parse_matrix(args.dpsi, 2))}, EXIT_OK
        return {"matrix": lie.exp_matrix(_algebra_from_text(args.algebra))}, EXIT_OK

    if name == "casimir":
        p = _parse_spectral(args.s)
        g = _parse_element(args.g_iwasawa)
        coef = lambda mat: reps.matcoef(p, mat, args.n, args.n)
        ratio = lie.casimir_apply(coef, g, h=args.h) / coef(g)
        return {"ratio": complex(ratio), "s": args.s, "n": args.n}, EXIT_OK

    if name == "spherical":
        w = reps.parse_complex(args.w)
        if args.ray is not None:
            _refuse_with(args, "--ray", "act")
            t0, t1, steps = _parse_floats(args.ray, 3)
            ts = np.linspace(t0, t1, _count(steps, "--ray steps"))
            values = hyperbolic.phi(w, np.exp(ts) * 1j, nodes=args.nodes)
            rows = [[float(t), v.real, v.imag] for t, v in zip(ts, values)]
            return {"columns": ["t", "re_phi", "im_phi"], "rows": rows}, EXIT_OK
        x, y = _parse_floats(args.z, 2)
        z = complex(x, y)
        payload = {"phi": hyperbolic.phi(w, z, nodes=args.nodes),
                   "chi": complex(hyperbolic.chi(w, z))}
        if args.act:
            payload["moved_point"] = complex(hyperbolic.act(_parse_element(args.act), z))
        return payload, EXIT_OK

    if name == "eigencheck":
        w = reps.parse_complex(args.w)
        x, y = _parse_floats(args.z, 2)
        res = hyperbolic.eigencheck(w, complex(x, y), h=args.h, nodes=args.nodes)
        payload = {"lhs": res.lhs, "rhs": res.rhs, "rel_err": res.rel_err}
        passed = res.rel_err < acceptance.EIGEN_RESIDUAL_BOUND
        return payload, EXIT_OK if passed else EXIT_TOLERANCE

    if name == "matcoef":
        if args.trunc is not None and not args.vector:
            raise UsageError("--trunc needs --vector")
        p = _parse_spectral(args.s)
        g = _parse_element(args.g_iwasawa)
        if args.trunc is not None and max(abs(args.n), abs(args.m)) > args.trunc:
            raise DomainError(f"indices ({args.n}, {args.m}) outside truncation {args.trunc}")
        value = reps.matcoef(p, g, args.n, args.m, nodes=args.nodes)
        payload = {"value": value, "s": args.s, "n": args.n, "m": args.m}
        if args.vector:
            N = args.trunc if args.trunc is not None else max(abs(args.n), abs(args.m)) + 8
            moved = reps.act_principal(p, g, reps.KFourierVector.basis(N, args.n),
                                       nodes=args.nodes)
            payload["acted_coefficients"] = moved.c
        if args.cocycle_at is not None:
            t_out, theta_out = reps.cocycle(args.cocycle_at, g)
            payload["cocycle"] = {"t": t_out, "theta_out": theta_out}
        return payload, EXIT_OK

    if name == "ktypes":
        payload = {}
        if args.rep:
            p = reps.SpectralParam.parse(args.rep)
            types = reps.k_types(p)
            payload["rep"] = p.label
            payload["k_types"] = types.description
            payload["sample"] = {str(n): bool(types.contains(n)) for n in range(-4, 5)}
        if args.tau_spherical is not None:
            families = reps.tau_spherical_set(args.tau_spherical)
            payload["tau_spherical"] = [types.label for types in families]
        if not payload:
            raise UsageError("ktypes needs --rep or --tau-spherical")
        return payload, EXIT_OK

    if name == "ladder":
        sign = 1 if args.sign == "+" else -1
        leak = reps.discrete_ladder_leakage(args.m, sign, _parse_element(args.g_iwasawa), args.N)
        payload = {"leakage": leak, "m": args.m, "sign": args.sign, "N": args.N}
        return payload, EXIT_OK if leak < acceptance.LADDER_LEAK_BOUND else EXIT_TOLERANCE

    if name == "separate":
        profile = equivariant.BumpProfile(args.t0, args.width)
        witness = equivariant.separation_witness(args.n, profile)
        probes = groups.make_a(np.array(_parse_floats(args.probe, 2)))
        v1, v2 = (complex(v) for v in witness(probes))
        payload = {"at_t1": v1, "at_t2": v2, "margin": abs(v1 - v2)}
        if args.verify_projection:
            nodes = equivariant.MIN_PROJECTION_NODES
            reproj = equivariant.project_biequivariant(witness, args.n, nodes=nodes)
            payload["projection_defect"] = float(np.max(np.abs(reproj(probes) - witness(probes))))
            h = equivariant.right_isotype_project(witness, args.n, nodes=nodes)
            payload["right_isotype_defect"] = float(np.max(np.abs(h(probes) - witness(probes))))
        return payload, EXIT_OK

    if name == "gram":
        params = [_parse_spectral(tok) for tok in args.params.split(",")]
        res = equivariant.gram_min_eig(params, args.n, region=(0.0, args.tmax))
        return {"min_eig": res.min_eig, "cond": res.cond,
                "params": [p.label for p in params]}, EXIT_OK

    if name == "haarcheck":
        grid = _parse_grid(args.grid)
        res, passed, _ = acceptance.haar_check(grid)
        payload = dataclasses.asdict(res)
        payload["meta"] = {"check_seconds": payload.pop("seconds")}
        return payload, EXIT_OK if passed else EXIT_TOLERANCE

    if name == "charcheck":
        p, grid = _parse_spectral(args.s), _parse_grid(args.grid)
        (res, *refined), passed = acceptance.character_check(
            p, args.n, [grid, grid.refine()] if args.refine else [grid],
            equivariant.BumpProfile(args.t0, args.width), N=args.trunc)
        payload = {**_char_sides(res), "offrow_mass": res.offrow_mass, "trunc": res.N,
                   "meta": {"check_seconds": res.seconds}}
        if refined:
            payload["refined"] = _char_sides(refined[0])
        return payload, EXIT_OK if passed else EXIT_TOLERANCE

    # suite, the last subcommand: argparse refuses any name it does not register
    results = acceptance.run_all(fast=args.fast)
    for res in results:
        print(res.line(), file=sys.stderr)
    payload = {"criteria": [
        {"number": r.number, "name": r.name, "passed": r.passed,
         "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
        "meta": {"criterion_seconds": [r.seconds for r in results]}}
    return payload, EXIT_OK if payload["all_passed"] else EXIT_TOLERANCE


def run(argv=None) -> int:
    """Parse argv, execute, print; returns the process exit code."""
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        if args.format == "csv" and (args.subcommand != "spherical" or args.ray is None):
            raise UsageError("csv output is only available for 1-D sweeps (spherical --ray)")
        payload, code = _handle(args)
        _emit(payload, args, started)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
