"""Batch command-line front end: tables, checks and reports, text or JSON.

Every command is deterministic (fixed seeds where randomness is used) and the
process exits 0 exactly when all embedded assertions pass.  JSON output
follows {command, config, rows|checks, pass}.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import coleman, exactq, group_algebra, lambda_modules, measures
from .characters import DirichletCharacter, quadratic_char
from .iwaseries import TruncatedSeries
from .padic import PadicNumber, _check_odd_prime, decompose_unit, pexp, plog, teichmuller, vp_diff


@dataclass(frozen=True)
class RunConfig:
    prime: int = 5
    prec: int = 8
    trunc: int = 24
    json_mode: bool = False

    def __post_init__(self):
        _check_odd_prime(self.prime)
        if self.prec < 1 or self.trunc < 1:
            raise ValueError("prec and trunc must be >= 1")


def _emit(cfg: RunConfig, command: str, payload: dict, passed: bool) -> int:
    if cfg.json_mode:
        doc = {
            "command": command,
            "config": {"prime": cfg.prime, "prec": cfg.prec, "trunc": cfg.trunc},
            **payload,
            "pass": passed,
        }
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        for row in payload.get("rows", []):
            print("  ".join(str(x) for x in row) if isinstance(row, (list, tuple)) else row)
        for chk in payload.get("checks", []):
            print(chk)
        print(f"pass: {passed}")
    return 0 if passed else 1


def cmd_bernoulli(cfg: RunConfig, upto: int) -> int:
    rows = [["n", "B_n", "zeta(1-n)"]]
    indices = [0, 1] + [n for n in range(2, upto, 2)]
    for n in indices:
        zeta = str(exactq.zeta_neg(n)) if n >= 1 else "-"
        rows.append([n, str(exactq.bernoulli(n)), zeta])
    return _emit(cfg, "bernoulli", {"rows": rows}, True)


def cmd_irregular(cfg: RunConfig, prime: int) -> int:
    idx = sorted(exactq.irregular_indices(prime))
    rows = [[f"irregular indices for p={prime}:", idx]]
    return _emit(cfg, "irregular", {"rows": rows, "indices": idx}, True)


def cmd_interp(cfg: RunConfig, chi_name: str, n_max: int, r_min: int, r_max: int,
               single_n: int | None) -> int:
    p = cfg.prime
    chi = _chi_by_name(chi_name, p)
    prec = r_max + 6
    checks = []
    ok = True
    ns = [single_n] if single_n is not None else list(range(1, n_max + 1))
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
    return _emit(cfg, "interp", {"checks": checks}, ok)


def _chi_by_name(name: str, p: int) -> DirichletCharacter:
    if name == "trivial":
        return DirichletCharacter.trivial(1, p)
    if name == "quadratic3":
        return quadratic_char(3, p)
    raise ValueError(f"unknown character spec {name!r} (use trivial or quadratic3)")


def cmd_weierstrass(cfg: RunConfig, series_file: str, roundtrip: bool) -> int:
    with open(series_file) as fh:
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
    if roundtrip:
        ok = fac.matches_source()
        rows.append(["roundtrip", ok])
    return _emit(cfg, "weierstrass", {"rows": rows}, ok)


def cmd_growth(cfg: RunConfig, module_file: str, e: int, r_max: int) -> int:
    with open(module_file) as fh:
        E = lambda_modules.parse_module_file(fh.read())
    rep = lambda_modules.growth_sequence(E, e, r_max)
    rows = [[k, v] for k, v in rep.as_dict().items()]
    return _emit(cfg, "growth", {"rows": rows}, rep.passed)


def _coleman_window(cfg: RunConfig, n_max: int) -> tuple[int, int]:
    """Series truncation M and p-adic precision N for moments up to n_max."""
    return max(cfg.trunc, n_max + (cfg.prec + 2) * (cfg.prime - 1) + 2), cfg.prec


def cmd_coleman(cfg: RunConfig, n_max: int, pairs: str, min_agree: int) -> int:
    p = cfg.prime
    M, N = _coleman_window(cfg, n_max)
    pair_list = []
    for chunk in pairs.split(";"):
        a, b = (int(x) for x in chunk.split(","))
        pair_list.append((a, b))
    rows = [["n", "pair", "moment/(b^n-a^n)", "reference", "agree_val"]]
    ok = True
    for a, b in pair_list:
        for n in range(1, n_max + 1):
            val = coleman.zeta_moment(n, a, b, p, M, N)
            ref = PadicNumber.from_rational(exactq.euler_stripped_zeta(n, p), p, N + 2)
            agree = vp_diff(val, ref)
            ok &= agree >= min_agree
            rows.append([n, f"({a},{b})", repr(val), repr(ref), agree])
    return _emit(cfg, "coleman", {"rows": rows}, ok)


def cmd_three(cfg: RunConfig, r: int, k: int, n_max: int) -> int:
    """(1 - p^(n-1)) zeta(1-n) for even n <= n_max, built three ways and each
    compared with the exact value: the level-r Stickelberger element at
    kappa^(1-n), Coleman moments, and the Kummer limit at n + p^k (p-1).

    The level-r value is canonical mod p^r, and dividing by h(kappa^(1-n)),
    of valuation 1 + v_p(n), costs that many digits.  When (p-1) | n the
    congruence holds for the c-regularized values, so those are gated and
    the plain quotient is only reported.
    """
    if n_max < 2:
        raise ValueError("need nmax >= 2")
    p, prec, c = cfg.prime, r + 4, 2
    M, N = _coleman_window(cfg, n_max)
    triv = DirichletCharacter.trivial(1, p)
    rows = [["n", "construction", "value", "agree_val", "min_agree"]]
    ok = True
    for n in range(2, n_max + 1, 2):
        exact = exactq.euler_stripped_zeta(n, p)
        spec = group_algebra.PadicCharSpec((1 - n) % (p - 1), 1 - n)
        lhs = group_algebra.interp_check(triv, 0, n, r, prec=prec).lhs
        s_val = lhs / group_algebra.h_char_value(1, p, spec, prec + 4)
        c_val = coleman.zeta_moment(n, 1, 3, p, M, N)
        o_val = group_algebra.branch_limit_oracle(p, n, k, c)
        legs = [("stickelberger", repr(s_val), vp_diff(s_val, exact), r - 1 - exactq.vp(n, p)),
                ("coleman", repr(c_val), vp_diff(c_val, exact), 3)]
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
    return _emit(cfg, "three", {"rows": rows}, ok)


def cmd_eigenspace(cfg: RunConfig, prime: int) -> int:
    rows = [["n", "v_p(B_(1,omega^(n-1)))", "predicted eigenspace order"]]
    nontrivial = []
    for n in range(2, prime - 2, 2):
        v = lambda_modules.eigenspace_order_prediction(prime, n, prec=6)
        if v:
            nontrivial.append((n, v))
            rows.append([n, v, f"{prime}^{v}"])
    rows.append(["(all other even n give trivial eigenspaces)", "", ""])
    return _emit(cfg, "eigenspace", {"rows": rows, "nontrivial": nontrivial}, True)


def cmd_selfcheck(cfg: RunConfig) -> int:
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
            if x.is_zero:
                continue
            record(f"log/exp roundtrip p={p}", plog(pexp(x)).agrees(x, x.abs_precision - 1))
        z = PadicNumber.from_int(rng.randrange(1, p**5) * p + 1, p, 8)
        t, u = decompose_unit(z + 1 if (z + 1).residue() else z + 2)
        record(f"unit decomposition p={p}", (t * u).agrees(z + 1 if (z + 1).residue() else z + 2, 7))
    p = cfg.prime
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
    record("idempotent e^2=e", all(c.is_zero or c.valuation >= 6 for c in (e1 * e1 - e1).coeffs.values()))
    record("idempotent orthogonal", all(c.is_zero or c.valuation >= 6 for c in (e1 * e2).coeffs.values()))
    d = measures.dirac(3, 5, 20, 6)
    record("restriction fixes unit dirac", measures.restrict_to_units(d) == d)
    d0 = measures.dirac(5, 5, 20, 6)
    record("restriction kills p-dirac", all(c == 0 for c in measures.restrict_to_units(d0).coeffs))
    record("residue units p<=31", all(group_algebra.residue_unit_check(q).passed for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    E = lambda_modules.ElementaryModule(3, (1,), ())
    record("growth Lambda/(p)", lambda_modules.growth_sequence(E, 0, 5).passed)
    rep = group_algebra.interp_check(DirichletCharacter.trivial(1, 5), 0, 2, 3)
    record("interp smoke", rep.passed)
    return _emit(cfg, "selfcheck", {"checks": checks}, ok)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=5)
    common.add_argument("--prec", type=int, default=8, help="p-adic precision N")
    common.add_argument("--trunc", type=int, default=24, help="series truncation M")
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    ap = argparse.ArgumentParser(prog="iwasawa", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bernoulli", parents=[common], help="table of B_n and zeta(1-n) for n < UPTO")
    b.add_argument("--upto", type=int, default=18)

    irr = sub.add_parser("irregular", parents=[common], help="irregular indices of the prime")
    irr.add_argument("-p", "--target-prime", type=int, default=None)

    itp = sub.add_parser("interp", parents=[common], help="finite-level interpolation agreement grid")
    itp.add_argument("--chi", default="trivial", help="trivial or quadratic3")
    itp.add_argument("--nmax", type=int, default=4)
    itp.add_argument("--rmin", type=int, default=3)
    itp.add_argument("--rmax", type=int, default=4)
    itp.add_argument("--n", type=int, default=None, help="run a single interpolation index")

    w = sub.add_parser("weierstrass", parents=[common], help="factor a series file")
    w.add_argument("series_file")
    w.add_argument("--roundtrip", action="store_true")

    g = sub.add_parser("growth", parents=[common], help="growth exponents of a module file")
    g.add_argument("module_file")
    g.add_argument("--e", type=int, default=0)
    g.add_argument("--rmax", type=int, default=5)

    c = sub.add_parser("coleman", parents=[common], help="Coleman moment table against zeta values")
    c.add_argument("--nmax", type=int, default=4)
    c.add_argument("--pairs", default="1,3")
    c.add_argument("--min-agree", type=int, default=3)

    t = sub.add_parser("three", parents=[common], help="zeta values built three ways, cross-checked")
    t.add_argument("--level", type=int, default=6, help="Stickelberger level r")
    t.add_argument("--kummer-k", type=int, default=2)
    t.add_argument("--nmax", type=int, default=6)

    e = sub.add_parser("eigenspace", parents=[common], help="predicted class-group eigenspace orders")
    e.add_argument("-p", "--target-prime", type=int, default=None)

    sub.add_parser("selfcheck", parents=[common], help="run the built-in invariant suite")
    return ap


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    A failing command (bad input, unreadable file) prints `error: ...` and
    returns 2.  An invalid configuration such as `--prime 1` raises
    ValueError to the caller; `entry` reports it the same way.
    """
    args = build_parser().parse_args(argv)
    cfg = RunConfig(args.prime, args.prec, args.trunc, args.json)
    try:
        if args.command == "bernoulli":
            return cmd_bernoulli(cfg, args.upto)
        if args.command == "irregular":
            return cmd_irregular(cfg, args.target_prime or cfg.prime)
        if args.command == "interp":
            return cmd_interp(cfg, args.chi, args.nmax, args.rmin, args.rmax, args.n)
        if args.command == "weierstrass":
            return cmd_weierstrass(cfg, args.series_file, args.roundtrip)
        if args.command == "growth":
            return cmd_growth(cfg, args.module_file, args.e, args.rmax)
        if args.command == "coleman":
            return cmd_coleman(cfg, args.nmax, args.pairs, args.min_agree)
        if args.command == "three":
            return cmd_three(cfg, args.level, args.kummer_k, args.nmax)
        if args.command == "eigenspace":
            return cmd_eigenspace(cfg, args.target_prime or cfg.prime)
        if args.command == "selfcheck":
            return cmd_selfcheck(cfg)
        raise AssertionError(args.command)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry(argv=None) -> int:
    """The `iwasawa` command: like `main`, and a bad configuration exits 2 too."""
    try:
        return main(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
