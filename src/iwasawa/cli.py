"""Batch command-line front end: tables, checks and reports, text or JSON.

Every command is deterministic (fixed seeds where randomness is used) and the
process exits 0 exactly when all embedded assertions pass.  JSON output
follows {command, config, rows and/or checks, pass}.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import coleman, exactq, group_algebra, lambda_modules, measures
from .characters import DirichletCharacter, quadratic_char
from .iwaseries import TruncatedSeries
from .padic import PadicNumber, _check_odd_prime, decompose_unit, pexp, plog, teichmuller, vp_diff


def _emit(args: argparse.Namespace, payload: dict, passed: bool, **read) -> int:
    """Print a report.  Its JSON `config` is what this subcommand parsed, with
    `read` holding values taken from an input file (the prime of a series or
    module file)."""
    if args.json:
        parsed = {k: v for k, v in vars(args).items() if k not in ("command", "run", "parser", "json")}
        doc = {"command": args.command, "config": {**parsed, **read}, **payload, "pass": passed}
        print(json.dumps(_json_safe(doc), sort_keys=True, default=str, allow_nan=False))
    else:
        for row in payload.get("rows", []):
            print("  ".join(str(x) for x in row) if isinstance(row, (list, tuple)) else row)
        for chk in payload.get("checks", []):
            print(chk)
        print(f"pass: {passed}")
    return 0 if passed else 1


def _json_safe(x):
    """JSON has no infinities: an agreement of +inf (values equal to every
    carried digit) is written as the string "inf", -inf as "-inf"."""
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return str(x) if isinstance(x, float) and math.isinf(x) else x


def cmd_bernoulli(args) -> int:
    upto = args.upto
    if upto < 1:
        raise ValueError("nothing to tabulate: need upto >= 1")
    limit = exactq.first_unprintable_index()
    if upto > limit:
        raise ValueError(f"--upto {upto} reaches B_{limit}, whose numerator has more than "
                         f"{exactq.PRINTABLE_DIGITS} digits; use --upto {limit} or less")
    rows = [["n", "B_n", "zeta(1-n)"]]
    indices = [0, 1][:upto] + list(range(2, upto, 2))
    exactq.bernoulli(indices[-1])  # one cache build to the last index, not doublings past it
    for n in indices:
        zeta = str(exactq.zeta_neg(n)) if n >= 1 else "-"
        rows.append([n, str(exactq.bernoulli(n)), zeta])
    return _emit(args, {"rows": rows}, True)


# Largest p of `irregular` and `eigenspace`, which read B_n for every even
# n <= p - 3 from a Bernoulli cache that doubles its index limit: up to p = 2039
# it stops at index 2048 and `irregular -p 2039` runs in about 1.1 s on a
# 2-vCPU x86 VM; p = 2053 takes it to 4096 and about 5.6 s, p = 10007 past 20 s.
MAX_IRREGULAR_PRIME = 2039


def _check_irregular_prime(p: int) -> None:
    if p > MAX_IRREGULAR_PRIME:
        raise ValueError(f"p = {p} exceeds the work bound p <= {MAX_IRREGULAR_PRIME} of the "
                         f"Bernoulli numbers B_n, n <= p - 3")


def cmd_irregular(args) -> int:
    _check_irregular_prime(args.prime)
    idx = sorted(exactq.irregular_indices(args.prime))
    rows = [[f"irregular indices for p={args.prime}:", idx]]
    return _emit(args, {"rows": rows, "indices": idx}, True)


# Largest work of a command-line level-table run, counted as what runs: at
# each level r the entries (p-1) p^(r-1) of the table of h_N mu_chi times the
# distinct omega^i-branches built from it (each at most once), plus p^(r-1)
# per Horner evaluation of a branch.  `interp` builds all p-1 branches and
# evaluates one per j and n, entries (p-1+|n|); `three` builds one per
# distinct (1-n) mod (p-1) of its even n and evaluates one per even n.
# `three --level 9` at p = 5, 1.6e6 entries, 2 branches and 3 evaluations,
# work 4.3e6, runs in about 3 s on a 2-vCPU x86 VM.
MAX_LEVEL_WORK = 5 * 10**6


def _check_level_work(p: int, r_min: int, r_max: int, branches: int, evaluations: int) -> None:
    """Refuse the levels r_min..r_max when branches times their entries, which
    sum to p^r_max - p^(r_min-1) over r >= 1, plus evaluations times their
    branch lengths p^(r-1), exceed MAX_LEVEL_WORK.  A level past 64 is
    counted as 64, already far over the bound."""
    lo, hi = min(max(r_min, 1), 64), min(r_max, 64)
    entries = p**hi - p ** (lo - 1)
    if hi >= lo and branches * entries + evaluations * (entries // (p - 1)) > MAX_LEVEL_WORK:
        raise ValueError(f"levels {r_min}..{r_max} at p = {p} with {branches} branch(es) and {evaluations} "
                         f"evaluation(s) per level exceed the work bound entries (p-1) p^(r-1) times "
                         f"branches plus p^(r-1) per evaluation <= {MAX_LEVEL_WORK:.0e}")


# Largest L-value work of a command-line `interp` run, (p-1) N p sum_n
# (n+8)^2: each of its (p-1)|n| (j, n) pairs computes B_(n, chi psi) once,
# whatever the levels (the value does not depend on r and is cached), by an
# integer Horner of degree n, on integers that grow with n, at each unit mod
# the conductor of chi psi (at most N p, N the conductor of chi), plus a fixed
# cost per unit of about 8 Horner steps.  (p, N, nmax) = (5, 1, 300), work
# 2.0e8, runs in about 2.3 s on a 2-vCPU x86 VM; the slowest accepted line
# found, `interp -p 167 --chi quadratic3 --rmin 2 --rmax 2 --nmax 11` (near
# both bounds), in about 3.7 s, and `interp -p 3 --n 1500 --rmin 2 --rmax 13`
# (twelve levels) about as long.  The level-table work does not count this
# side, which dominates at small r.
MAX_LVALUE_WORK = 2 * 10**8


def cmd_interp(args) -> int:
    p, chi_name, r_min, r_max = args.prime, args.chi, args.rmin, args.rmax
    chi = _chi_by_name(chi_name, p)
    prec = r_max + 6
    checks = []
    ok = True
    if args.n is None:
        ns = range(1, args.nmax + 1)
    else:
        ns, args.nmax = [args.n], None  # the report shows that no range 1..nmax ran
    if not ns or r_min > r_max:
        raise ValueError("nothing to check: need nmax >= 1 and rmin <= rmax")
    if ns[-1] > group_algebra.BERNOULLI_INDEX_LIMIT:
        raise ValueError(f"n = {ns[-1]} exceeds the work bound n <= {group_algebra.BERNOULLI_INDEX_LIMIT} "
                         f"of exact B_n")
    lvalue_work = (p - 1) * chi.modulus * p * sum((n + 8) ** 2 for n in ns)
    if lvalue_work > MAX_LVALUE_WORK:
        raise ValueError(f"indices n <= {ns[-1]} at p = {p} with conductor {chi.modulus} exceed the "
                         f"work bound (p-1) N p sum (n+8)^2 <= {MAX_LVALUE_WORK:.0e} of the L-values")
    _check_level_work(p, r_min, r_max, p - 1, (p - 1) * len(ns))
    for j in range(p - 1):
        for n in ns:
            vals = []
            for r in range(r_min, r_max + 1):
                rep = group_algebra.interp_check(chi, j, n, r, prec=prec)
                vals.append(rep.agreement_valuation)
                ok &= rep.passed
                checks.append(
                    f"chi={chi_name} j={j} n={n} r={r}: agreement {rep.agreement_valuation} "
                    f">= {rep.threshold}: {rep.passed}"
                )
            # raw agreement can exceed the guaranteed window by luck and then
            # dip back; monotonicity is asserted for the certified part
            capped = [min(v, r) for v, r in zip(vals, range(r_min, r_max + 1))]
            monotone = all(a <= b for a, b in zip(capped, capped[1:]))
            ok &= monotone
            checks.append(f"chi={chi_name} j={j} n={n}: nondecreasing in r: {monotone}")
    return _emit(args, {"checks": checks}, ok)


def _chi_by_name(name: str, p: int) -> DirichletCharacter:
    if name == "trivial":
        return DirichletCharacter.trivial(1, p)
    if name == "quadratic3":
        return quadratic_char(3, p)
    raise ValueError(f"unknown character spec {name!r} (use trivial or quadratic3)")


def cmd_weierstrass(args) -> int:
    with open(args.series_file) as fh:
        f = TruncatedSeries.from_text(fh.read())
    fac = f.weierstrass_prep()
    rows = [
        ["mu", fac.mu],
        ["weierstrass_degree", fac.weierstrass_degree],
        ["distinguished", fac.distinguished],
        ["unit_head", list(fac.unit.coeffs[:6])],
        ["valid_mod", f"(p^{fac.p_precision + fac.mu}, T^{fac.t_window})"],
    ]
    ok = True
    if args.roundtrip:
        ok = fac.matches_source()
        rows.append(["roundtrip", ok])
    return _emit(args, {"rows": rows}, ok, prime=f.prime)


# Largest (rmax - e)(rmax log2(p) + sum_j d_j^3) of a command-line growth run:
# per level, the bits of a mu p^r exponent and one d_j x d_j determinant per
# distinguished factor; (p, d, rmax) = (5, 36, 20), work 9.3e5, runs in about
# 0.5 s on a 2-vCPU x86 VM.
MAX_GROWTH_WORK = 10**6


def cmd_growth(args) -> int:
    e, r_max = args.e, args.rmax
    if r_max <= e:
        raise ValueError("nothing to compute: need rmax > e (the tower runs over e < r <= rmax)")
    with open(args.module_file) as fh:
        E = lambda_modules.parse_module_file(fh.read())
    degrees = [len(q) - 1 for q in E.dist_polys]
    if (r_max - e) * (r_max * E.prime.bit_length() + sum(d**3 for d in degrees)) > MAX_GROWTH_WORK:
        raise ValueError(f"growth from e = {e} to rmax = {r_max} at p = {E.prime} with factor degrees "
                         f"{degrees} exceeds the work bound (rmax - e)(rmax log2(p) + sum deg^3) "
                         f"<= {MAX_GROWTH_WORK:.0e}")
    if r_max - e < 3:
        raise ValueError(f"nothing to fit: (mu, lambda, c) need three levels e < r <= rmax, got {r_max - e}")
    rep = lambda_modules.growth_sequence(E, e, r_max)
    rows = [[k, v] for k, v in rep.as_dict().items()]
    return _emit(args, {"rows": rows}, rep.passed, prime=E.prime)


# Largest M^2 N log2(p) of a command-line Coleman window (one measure of M
# coefficients mod p^N serves every moment); (p, M, N) = (3, 2000, 12), work
# 9.6e7, builds in about 0.9 s on a 2-vCPU x86 VM.
MAX_COLEMAN_WORK = 10**8


def _coleman_window(args, n_max: int, pairs: int = 1) -> tuple[int, int]:
    """Series truncation M and p-adic precision N for moments up to n_max.
    One measure of M coefficients mod p^N per pair (a, b) serves every moment:
    windows whose pairs M^2 N log2(p) exceeds MAX_COLEMAN_WORK are refused.
    Each moment then costs one D step (n_max M N <= M^2 N, since M > n_max)
    and an exact B_n reference, so n_max is held to the exact-Bernoulli
    budget as well."""
    p = args.prime
    M, N = max(args.trunc, n_max + (args.prec + 2) * (p - 1) + 2), args.prec
    if pairs * M * M * N * p.bit_length() > MAX_COLEMAN_WORK:
        raise ValueError(f"Coleman window (M, N) = ({M}, {N}) at p = {p} for {pairs} pair(s) "
                         f"exceeds the work bound pairs M^2 N log2(p) <= {MAX_COLEMAN_WORK:.0e}")
    if n_max > group_algebra.BERNOULLI_INDEX_LIMIT:
        raise ValueError(f"{n_max} moments exceed the work bound nmax <= "
                         f"{group_algebra.BERNOULLI_INDEX_LIMIT} of exact B_n references")
    return M, N


# Digits of agreement with the exact value that `coleman` and `three` require
# of every Coleman moment.
COLEMAN_MIN_AGREE = 3


def cmd_coleman(args) -> int:
    p, n_max = args.prime, args.nmax
    if n_max < 1:
        raise ValueError("nothing to check: need nmax >= 1")
    pair_list = []
    for chunk in args.pairs.split(";"):
        a, b = (int(x) for x in chunk.split(","))
        pair_list.append((a, b))
    M, N = _coleman_window(args, n_max, len(pair_list))
    rows = [["n", "pair", "moment/(b^n-a^n)", "reference", "agree_val"]]
    ok = True
    for a, b in pair_list:
        for n, val in enumerate(coleman.zeta_moments(range(1, n_max + 1), a, b, p, M, N), 1):
            ref = PadicNumber.from_rational(exactq.euler_stripped_zeta(n, p), p, N + 2)
            agree = vp_diff(val, ref)
            ok &= agree >= COLEMAN_MIN_AGREE
            rows.append([n, f"({a},{b})", repr(val), repr(ref), agree])
    return _emit(args, {"rows": rows}, ok)


def cmd_three(args) -> int:
    """(1 - p^(n-1)) zeta(1-n) for even n <= n_max, built three ways and each
    compared with the exact value: the level-r Stickelberger element at
    kappa^(1-n), Coleman moments, and the Kummer limit at n + p^k (p-1).

    The level-r value is canonical mod p^r, and dividing by h(kappa^(1-n)),
    of valuation 1 + v_p(n), costs that many digits.  When (p-1) | n the
    congruence holds for the c-regularized values, so those are gated and
    the plain quotient is only reported.  The Coleman leg uses the pair
    (a, b) = (1, 3), or (1, 2) at p = 3, where 3 is not prime to p.
    """
    r, k, n_max = args.level, args.kummer_k, args.nmax
    if n_max < 2:
        raise ValueError("need nmax >= 2")
    p, prec, c = args.prime, r + 4, 2
    a, b = 1, 2 if p == 3 else 3
    M, N = _coleman_window(args, n_max)
    triv = DirichletCharacter.trivial(1, p)
    rows = [["n", "construction", "value", "agree_val", "min_agree"]]
    ok = True
    evens = range(2, n_max + 1, 2)
    group_algebra.branch_limit_index(p, evens[-1], k)  # the last Kummer index, before any work
    _check_level_work(p, r, r, len({(1 - n) % (p - 1) for n in evens}), len(evens))
    for n, c_val in zip(evens, coleman.zeta_moments(evens, a, b, p, M, N)):
        exact = exactq.euler_stripped_zeta(n, p)
        spec = group_algebra.PadicCharSpec((1 - n) % (p - 1), 1 - n)
        lhs = group_algebra.interp_check(triv, 0, n, r, prec=prec).lhs
        s_val = lhs / group_algebra.h_char_value(1, p, spec, prec + 4)
        o_val = group_algebra.branch_limit_oracle(p, n, k, c)
        legs = [("stickelberger", repr(s_val), vp_diff(s_val, exact), r - 1 - exactq.vp(n, p)),
                ("coleman", repr(c_val), vp_diff(c_val, exact), COLEMAN_MIN_AGREE)]
        if n % (p - 1):
            legs.append(("kummer limit", repr(o_val), vp_diff(o_val, exact), k + 1))
        else:
            diff = group_algebra.branch_limit_regularized(p, n, k, c) + (1 - c**n) * exact
            legs.append(("kummer limit", repr(o_val), vp_diff(o_val, exact), None))
            legs.append((f"kummer regularized (c={c})", "-", exactq.vp(diff, p), k + 1))
        rows.append([n, "exact", str(exact), "-", "-"])
        for name, val, agree, need in legs:
            ok &= need is None or agree >= need
            rows.append([n, name, val, agree, "-" if need is None else need])
    return _emit(args, {"rows": rows, "checks": [f"coleman pair (a, b) = ({a}, {b})"]}, ok)


def cmd_eigenspace(args) -> int:
    p = args.prime
    _check_irregular_prime(p)
    rows = [["n", "v_p(B_(1,omega^(n-1)))", "predicted eigenspace order"]]
    nontrivial = []
    # B_(1,omega^(n-1)) = B_n/n mod p (Washington, Cyclotomic Fields, Cor. 5.15):
    # it is a unit except at the irregular indices
    for n in sorted(exactq.irregular_indices(p)):
        v = lambda_modules.eigenspace_order_prediction(p, n, prec=6)
        nontrivial.append((n, v))
        rows.append([n, v, f"{p}^{v}"])
    rows.append(["(all other even n give trivial eigenspaces)", "", ""])
    return _emit(args, {"rows": rows, "nontrivial": nontrivial}, True)


def cmd_selfcheck(args) -> int:
    checks = []
    ok = True

    def record(name, good):
        nonlocal ok
        ok &= bool(good)
        checks.append(f"{name}: {'ok' if good else 'FAIL'}")

    rng = random.Random(20231115)
    for p in (5, 7, 11):
        good = all(
            (teichmuller(a, p, 6) ** (p - 1)).agrees(PadicNumber.one(p, 6), 6)
            and teichmuller(a, p, 6).residue() == a % p
            for a in range(1, p)
        )
        record(f"teichmuller torsion p={p}", good)
    for p in (5, 7):
        for _ in range(5):
            x = PadicNumber.from_int(p * rng.randrange(1, p**4), p, 8)
            record(f"log/exp roundtrip p={p}", plog(pexp(x)).agrees(x, x.abs_precision - 1))
        z = PadicNumber.from_int(rng.randrange(1, p**5) * p + 1, p, 8)
        t, u = decompose_unit(z + 1 if (z + 1).residue() else z + 2)
        record(f"unit decomposition p={p}", (t * u).agrees(z + 1 if (z + 1).residue() else z + 2, 7))
    p = args.prime
    for trial in range(10):
        coeffs = [rng.randrange(p**6) for _ in range(20)]
        coeffs[rng.randrange(3)] |= 1  # ensure a unit appears early
        f = TruncatedSeries(p, coeffs, 6)
        try:
            record("weierstrass roundtrip", f.weierstrass_prep().matches_source())
        except Exception:  # noqa: BLE001 - selfcheck records, never crashes
            record("weierstrass roundtrip", False)
    e1 = group_algebra.idempotent(1, 2, 5, 8)
    e2 = group_algebra.idempotent(2, 2, 5, 8)
    record("idempotent e^2=e", all(c.valuation >= 6 for c in (e1 * e1 - e1).coeffs.values()))
    record("idempotent orthogonal", all(c.valuation >= 6 for c in (e1 * e2).coeffs.values()))
    d = measures.dirac(3, 5, 20, 6)
    record("restriction fixes unit dirac", measures.restrict_to_units(d) == d)
    d0 = measures.dirac(5, 5, 20, 6)
    record("restriction kills p-dirac", all(c == 0 for c in measures.restrict_to_units(d0).coeffs))
    record("residue units p<=31", all(group_algebra.residue_unit_check(q).passed for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    E = lambda_modules.ElementaryModule(3, (1,), ())
    record("growth Lambda/(p)", lambda_modules.growth_sequence(E, 0, 5).passed)
    rep = group_algebra.interp_check(DirichletCharacter.trivial(1, 5), 0, 2, 3)
    record("interp smoke", rep.passed)
    return _emit(args, {"checks": checks}, ok)


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, holding only the options that subcommand reads."""
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="emit a JSON report")
    prime = argparse.ArgumentParser(add_help=False)
    prime.add_argument("-p", "--prime", type=int, default=5)
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--prec", type=int, default=8, help="p-adic precision N")
    window.add_argument("--trunc", type=int, default=24, help="series truncation M")

    ap = argparse.ArgumentParser(prog="iwasawa", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help, *parents):
        # no abbreviations: `--n` is its own option to interp, not --nmax elsewhere
        parser = sub.add_parser(name, parents=[*parents, report], help=help, allow_abbrev=False)
        parser.set_defaults(run=run, parser=parser)
        return parser

    b = command("bernoulli", cmd_bernoulli, "table of B_n and zeta(1-n) for n < UPTO")
    b.add_argument("--upto", type=int, default=18)

    command("irregular", cmd_irregular, "irregular indices of the prime", prime)

    itp = command("interp", cmd_interp, "finite-level interpolation agreement grid", prime)
    itp.add_argument("--chi", default="trivial", help="trivial or quadratic3")
    itp.add_argument("--rmin", type=int, default=3)
    itp.add_argument("--rmax", type=int, default=4)
    indices = itp.add_mutually_exclusive_group()
    indices.add_argument("--nmax", type=int, default=4, help="run the indices 1..NMAX")
    indices.add_argument("--n", type=int, default=None, help="run a single interpolation index")

    w = command("weierstrass", cmd_weierstrass, "factor a series file (its header gives the prime)")
    w.add_argument("series_file")
    w.add_argument("--roundtrip", action="store_true")

    g = command("growth", cmd_growth, "growth exponents of a module file (its `p` line gives the prime)")
    g.add_argument("module_file")
    g.add_argument("--e", type=int, default=0)
    g.add_argument("--rmax", type=int, default=5)

    c = command("coleman", cmd_coleman, "Coleman moment table against zeta values", prime, window)
    c.add_argument("--nmax", type=int, default=4)
    c.add_argument("--pairs", default="1,3")

    t = command("three", cmd_three, "zeta values built three ways, cross-checked", prime, window)
    t.add_argument("--level", type=int, default=6, help="Stickelberger level r")
    t.add_argument("--kummer-k", type=int, default=2)
    t.add_argument("--nmax", type=int, default=6)

    command("eigenspace", cmd_eigenspace, "predicted class-group eigenspace orders", prime)

    command("selfcheck", cmd_selfcheck, "run the built-in invariant suite", prime)
    return ap


def main(argv=None) -> int:
    """The `iwasawa` command: run one subcommand and return its exit code.

    A bad configuration (`--prime 1`, `--prec 0`), bad input or an unreadable
    file prints `error: ...` and returns 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args, extra = ap.parse_known_args(argv)
    if extra:  # refused by the parser they were given to, so its usage line is shown
        (args.parser if argv[0] == args.command else ap).error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if "prime" in args:
            _check_odd_prime(args.prime)
        if "prec" in args and min(args.prec, args.trunc) < 1:
            raise ValueError("prec and trunc must be >= 1")
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
