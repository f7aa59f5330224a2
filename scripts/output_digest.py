#!/usr/bin/env python3
"""Digest of the deterministic CLI output, for byte-identity checks across revisions.

Runs a fixed list of ``so21 ... --no-meta`` invocations in-process and
prints one ``sha256 argv`` line per invocation.  The digest covers the exit
code and everything printed to stdout; stderr, which carries timings and
warnings, is left out.  A change that should leave every number bit for
bit unchanged is checked by running the script against both source trees
and diffing the output:

    PYTHONPATH=src python scripts/output_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python scripts/output_digest.py > old.txt
    diff old.txt new.txt

Run as a script, it sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before so21 (and with it numpy) loads: BLAS reads its
thread count once, at load, and a threaded matrix product can sum in another
order, which moves the last bit of criterion 10's rel_err (2.3e-16 on one
thread, 2.4e-16 on two), so the digest would depend on the caller's
environment.
"""

import contextlib
import hashlib
import io
import os

if __name__ == "__main__":
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))

from so21 import cli  # noqa: E402  (after the thread counts are set)

INVOCATIONS = (
    "suite",
    "suite --fast",
    "charcheck --s i --n 1 --refine",
    "charcheck --s 0.5 --n 0",
    "charcheck --s 2i --n -2 --grid 37,41,100 --trunc 12",
    "charcheck --s 0.3 --n -1 --grid 20,30,101 --trunc 8",
    "haarcheck --grid 96,96,128",
    # the fast battery grid, where a right translate read as a rotation
    # leaves a defect of 3.9e-16 rather than 0
    "haarcheck --grid 48,48,64",
    "haarcheck --grid 40,44,37",
    "separate --n 1 --t0 0.8 --width 0.2 --probe 0.8,1.4 --verify-projection",
    "gram --params i,2i,0.5 --n 0 --tmax 2",
    "matcoef --s 0.5+2i --g-iwasawa 0.4,-0.3,1.1 --n 2 --m -1 --vector --cocycle-at 0.7",
    "spherical --w 0.5+3i --ray 0,4,9",
    "ladder --m 4 --g-iwasawa 0.8,0.2,0.5",
    # a_0.7 n_0.3 k_1.1, every entry printed to round-trip
    "cartan --matrix 1.066636794167345,-0.7638265251127709,0.8492025736757048,"
    "0.7551285236337623,0.720958329444008,0.3,"
    "0.8413876264106195,-0.32126604747552284,1.3457878774671144",
    "spherical --w 0.5+3i --z 1,2 --act 0.3,0.2,0.1",
    "eigencheck --w 0.5+1i --z 0.5,1.5",
    # values with a leading minus, written without `=`
    "spherical --w 0.5 --ray -2,2,9 --format csv",
    "eigencheck --w 0.3 --z -1,0.7",
    "matcoef --s -0.5+2i --g-iwasawa -0.4,0.3,-1.1 --n 2 --m -1 --vector",
    "gram --params -i,2i --n 0",
    # real exponents (a real exp) and, at --trunc 64, 129 coefficients summed
    # in 11 blocks of 12
    "matcoef --s 0.5 --g-iwasawa 0.4,-0.3,1.1 --n 1 --m 1 --vector --trunc 64",
    "gram --params 0.3,0.5,0.7 --n 0",
    # the subcommands not run above, so that every one is covered
    "iwasawa --matrix 1.066636794167345,-0.7638265251127709,0.8492025736757048,"
    "0.7551285236337623,0.720958329444008,0.3,"
    "0.8413876264106195,-0.32126604747552284,1.3457878774671144",
    "iwasawa --recompose 0.7,0.3,1.1",
    "psi --sl2 2,1,1,1",
    "psi-inv --matrix 1.066636794167345,-0.7638265251127709,0.8492025736757048,"
    "0.7551285236337623,0.720958329444008,0.3,"
    "0.8413876264106195,-0.32126604747552284,1.3457878774671144",
    "bracket --x V1 --y W",
    "exp --algebra W",
    "exp --dpsi 0.1,0.2,0.3,-0.1",
    "casimir --s i --n 1",
    "ktypes --rep D+4 --tau-spherical 1",
    # the rotation character tau_n and the A-character: chi at a real
    # exponent, tau_{-N} at N = 0 (where a zero's sign could move),
    # negative-n projector weights and the tau_n-spherical families at a
    # negative n
    "spherical --w 0.5 --z 1,2",
    "matcoef --s i --g-iwasawa 1,0,0 --n 0 --m 0 --trunc 0 --vector",
    "separate --n -2 --t0 0.8 --width 0.2 --probe 0.8,1.4 --verify-projection",
    "ktypes --tau-spherical -3",
    # the text format of complex values and of the payloads built from
    # result dataclasses, charcheck at n = 2, and the right projector of a
    # stack with a power |n| = 3
    "spherical --w 0.5+3i --z 1,2 --format text",
    "eigencheck --w 0.5+1i --z 0.5,1.5 --format text",
    "iwasawa --matrix 1.066636794167345,-0.7638265251127709,0.8492025736757048,"
    "0.7551285236337623,0.720958329444008,0.3,"
    "0.8413876264106195,-0.32126604747552284,1.3457878774671144 --format text",
    "cartan --matrix 1.066636794167345,-0.7638265251127709,0.8492025736757048,"
    "0.7551285236337623,0.720958329444008,0.3,"
    "0.8413876264106195,-0.32126604747552284,1.3457878774671144 --format text",
    "psi-inv --matrix 1.066636794167345,-0.7638265251127709,0.8492025736757048,"
    "0.7551285236337623,0.720958329444008,0.3,"
    "0.8413876264106195,-0.32126604747552284,1.3457878774671144 --format text",
    "haarcheck --grid 24,24,32 --format text",
    "charcheck --s 2i --n 2 --grid 20,20,40 --trunc 6",
    "separate --n 3 --t0 0.8 --width 0.2 --probe 0.8,1.4 --verify-projection",
    # exit 3, the check subcommands' gates: a ladder whose 4N + 4 nodes alias
    # at Cartan radius 2.09 (leakage 0.28), and a grid too coarse for
    # criterion 11 (worst left defect 1.4e-2)
    "ladder --m 2 --g-iwasawa 2,0.3,0.7",
    "haarcheck --grid 24,24,32",
    # the check subcommands at their defaults, which they read from the
    # library; each prints what its spelled-out twin prints
    "haarcheck",
    "charcheck --s i --n 1",
    "gram --params i,2i,0.5 --n 0",
    # exit 2, a malformed ladder label, and the repeated-parameter negative
    # control, whose infinite condition number JSON prints as null
    "ktypes --rep D+x",
    "gram --params i,i",
    # every representation label: the trivial one, bare rho with its
    # tau_0-spherical families, a real rho point, and an s whose real part
    # is far below any tolerance, printed as given
    "ktypes --rep trivial",
    "ktypes --rep rho --tau-spherical 0",
    "ktypes --rep rho:0.5",
    "ktypes --rep rho:1e-15+2i",
    # exit 1, a truncation with no vector to truncate
    "matcoef --s i --g-iwasawa 1,0,0 --n 0 --m 0 --trunc 4",
)


def digest(argv):
    """sha256 of the exit code and stdout of ``so21 argv --no-meta``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv + ["--no-meta"])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def main():
    for line in INVOCATIONS:
        print(digest(line.split()), line)


if __name__ == "__main__":
    main()
