#!/usr/bin/env python3
"""Run the finite-level interpolation experiment over a (j, n, r) grid.

For each tame twist omega^j and each n, the level-r Stickelberger package
must reproduce the Euler-corrected Dirichlet L-value modulo ~p^r.  Prints
the agreement valuation per grid point.
"""

import argparse

from iwasawa.characters import DirichletCharacter, quadratic_char
from iwasawa.group_algebra import interp_check


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prime", type=int, default=5)
    ap.add_argument("--chi", choices=("trivial", "quadratic3"), default="trivial")
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--rmin", type=int, default=3)
    ap.add_argument("--rmax", type=int, default=5)
    args = ap.parse_args()

    p = args.prime
    chi = DirichletCharacter.trivial(1, p) if args.chi == "trivial" else quadratic_char(3, p)
    prec = args.rmax + 6
    rs = list(range(args.rmin, args.rmax + 1))
    print(f"p = {p}, chi = {args.chi}; agreement valuation of lhs - rhs (threshold r-1)")
    header = "  j  n | " + "  ".join(f"r={r}" for r in rs)
    print(header)
    print("-" * len(header))
    all_ok = True
    for j in range(p - 1):
        for n in range(1, args.nmax + 1):
            vals = []
            for r in rs:
                rep = interp_check(chi, j, n, r, prec=prec)
                vals.append(rep.agreement_valuation)
                all_ok &= rep.passed
            cells = "  ".join(f"{v if v != float('inf') else '>=':>3}" for v in vals)
            print(f" {j:2d} {n:2d} | {cells}")
    print(f"all grid points within slack-1 tolerance: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
