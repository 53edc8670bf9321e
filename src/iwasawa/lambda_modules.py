"""Elementary torsion Lambda-modules: invariants, finite-quotient orders,
and the p^(mu p^r + lambda r + c) growth law over the omega_r/omega_e tower.

A module is a list of p-power exponents (factors Lambda/(p^mu_i)) and a list
of distinguished integer polynomials (factors Lambda/(P_j)).  Free rank is
excluded: the growth law needs torsion modules, and a module of infinite
Z_p-rank has no finite omega-quotients at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import gen_bernoulli, teichmuller_char
from .iwaseries import (
    IndeterminateWithinTruncation,
    TruncatedSeries,
    mu_lambda_of,
    nu_rm_poly,
    poly_divmod_monic,
    poly_mul,
    poly_trim,
    resultant,
)
from .padic import _check_odd_prime, int_vp


def _is_distinguished(poly: list[int], p: int) -> bool:
    poly = poly_trim(poly)
    return len(poly) >= 1 and poly[-1] == 1 and all(c % p == 0 for c in poly[:-1])


@dataclass(frozen=True)
class ElementaryModule:
    prime: int
    p_exponents: tuple[int, ...] = ()
    dist_polys: tuple[tuple[int, ...], ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        _check_odd_prime(self.prime)
        if self.free_rank != 0:
            raise ValueError(
                "free Lambda-summands are excluded: a module of infinite "
                "Z_p-rank is not torsion and the growth law does not apply"
            )
        object.__setattr__(self, "p_exponents", tuple(self.p_exponents))
        object.__setattr__(self, "dist_polys", tuple(tuple(q) for q in self.dist_polys))
        for mu in self.p_exponents:
            if mu < 1:
                raise ValueError("p-power exponents must be >= 1")
        for q in self.dist_polys:
            if not _is_distinguished(list(q), self.prime):
                raise ValueError(f"{list(q)} is not distinguished for p={self.prime}")


def invariants(E: ElementaryModule) -> tuple[int, int, list[int]]:
    """(mu, lambda, characteristic polynomial) of the module."""
    mu = sum(E.p_exponents)
    char = [1]
    for q in E.dist_polys:
        char = poly_mul(char, list(q))
    lam = len(poly_trim(char)) - 1
    return mu, lam, char


def _quotient_data(E: ElementaryModule, g):
    """(wdeg(g), prec, [v_p(Res(P_j, g))]) for a finite E/gE, None for an
    infinite one; prec is the p-precision of a series g, None for an integer
    polynomial.  A resultant that vanishes within prec raises before the next
    one is computed."""
    p = E.prime
    if isinstance(g, TruncatedSeries):
        (mu_g, wdeg_g), poly, prec = g.mu_lambda(), list(g.coeffs), g.prec
    else:
        poly, prec = poly_trim(list(g)), None
        if not poly:
            raise ValueError("zero polynomial")
        mu_g, wdeg_g = mu_lambda_of(poly, p)
    if E.p_exponents and mu_g > 0:
        return None
    vals = []
    for q in E.dist_polys:
        res = resultant(list(q), poly)
        if res == 0:
            return None
        v = int_vp(res, p)
        if prec is not None and v >= prec:
            raise IndeterminateWithinTruncation(
                "resultant vanishes within the available p-precision"
            )
        vals.append(v)
    return wdeg_g, prec, vals


def is_finite_quotient(E: ElementaryModule, g) -> bool:
    """True iff E/gE is finite, i.e. g is coprime to p^mu * prod P_j."""
    return _quotient_data(E, g) is not None


def quotient_order_exponent(E: ElementaryModule, g) -> int:
    """v_p of |E/gE|: mu_i * wdeg(g) per p-power factor, v_p(Res(P_j, g)) per
    polynomial factor (the determinant of multiplication by g on Lambda/(P_j))."""
    data = _quotient_data(E, g)
    if data is None:
        raise ValueError("quotient is infinite")
    wdeg_g, prec, vals = data
    if prec is not None and any(v >= prec - 1 for v in vals):
        raise IndeterminateWithinTruncation(
            "resultant valuation reaches the p-precision of the series"
        )
    return sum(mu_i * wdeg_g for mu_i in E.p_exponents) + sum(vals)


def _mult_matrix(P: list[int], g: list[int]) -> list[list[int]]:
    P = poly_trim(P)
    d = len(P) - 1
    if d < 1:
        raise ValueError("modulus polynomial must have positive degree")
    g = poly_divmod_monic(g, P)[1]
    cols = []
    cur = list(g) + [0] * (d - len(g))
    for _ in range(d):
        cols.append(list(cur))
        # multiply by T mod P
        cur = [0] + cur
        lead = cur[d]
        cur = [c - lead * P[i] for i, c in enumerate(cur[:d])]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def smith_elementary_divisors(mat: list[list[int]]) -> list[int]:
    """Smith normal form diagonal of an integer matrix, by exact reduction."""
    m = [row[:] for row in mat]
    n = len(m)
    divisors = []
    top = 0
    while top < n:
        # find a nonzero pivot of minimal absolute value
        best = None
        for i in range(top, n):
            for j in range(top, n):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            divisors.extend([0] * (n - top))
            break
        i0, j0 = best
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[top], row[j0] = row[j0], row[top]
        pivot = m[top][top]
        dirty = False
        for i in range(top + 1, n):
            q = m[i][top] // pivot
            if q:
                for j in range(top, n):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = m[top][j] // pivot
            if q:
                for i in range(top, n):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        divisors.append(abs(pivot))
        top += 1
    return divisors


def quotient_order_oracle(P: list[int], g: list[int], p: int, cap: int = 6) -> int:
    """Independent check on quotient orders: the multiplication-by-g matrix on
    Z[T]/(P) is diagonalized over the integers and the p-valuations of its
    elementary divisors are summed."""
    if len(poly_trim(P)) - 1 > cap:
        raise ValueError(f"oracle capped at degree {cap}")
    mat = _mult_matrix(P, g)
    divisors = smith_elementary_divisors(mat)
    if any(d == 0 for d in divisors):
        raise ValueError("quotient is infinite (singular multiplication matrix)")
    return sum(int_vp(d, p) for d in divisors)


@dataclass
class GrowthReport:
    prime: int
    e_start: int
    exponents: dict[int, int]
    mu_fit: int | None
    lambda_fit: int | None
    c_fit: int | None
    r0: int | None
    matches_invariants: bool
    passed: bool

    def as_dict(self):
        return {
            "p": self.prime,
            "e": self.e_start,
            "exponents": self.exponents,
            "mu": self.mu_fit,
            "lambda": self.lambda_fit,
            "c": self.c_fit,
            "r0": self.r0,
            "matches_invariants": self.matches_invariants,
            "pass": self.passed,
        }


def growth_sequence(E: ElementaryModule, e: int, r_max: int) -> GrowthReport:
    """Orders |E/(omega_r/omega_e)E| = p^(e_r) for e < r <= r_max, with the
    fitted (mu, lambda, c) and the stabilization point r0."""
    p = E.prime
    exps = {}
    for r in range(e + 1, r_max + 1):
        g = nu_rm_poly(p, r, e)
        exps[r] = quotient_order_exponent(E, g)
    rs = sorted(exps)
    mu_fit = lambda_fit = c_fit = r0 = None
    matches = False
    passed = False
    if len(rs) >= 3:
        r = rs[-3]
        d1 = exps[r + 1] - exps[r]
        d2 = exps[r + 2] - exps[r + 1]
        num = d2 - d1
        den = p**r * (p - 1) ** 2
        if num % den == 0:
            mu_fit = num // den
            lambda_fit = d1 - mu_fit * p**r * (p - 1)
            c_fit = exps[r + 2] - mu_fit * p ** (r + 2) - lambda_fit * (r + 2)
            for rr in rs:
                if all(exps[q] == mu_fit * p**q + lambda_fit * q + c_fit for q in rs if q >= rr):
                    r0 = rr
                    break
            mu_e, lam_e, _ = invariants(E)
            matches = (mu_fit, lambda_fit) == (mu_e, lam_e)
            passed = matches and r0 is not None
    return GrowthReport(p, e, exps, mu_fit, lambda_fit, c_fit, r0, matches, passed)


def eigenspace_order_prediction(p: int, n: int, prec: int = 12) -> int:
    """v_p(B_(1, omega^(n-1))): the predicted order exponent of the
    omega^(1-n) eigenspace of the p-class group of Q(mu_p)."""
    if not (2 <= n <= p - 3) or n % 2:
        raise ValueError("need even n with 2 <= n <= p-3")
    b = gen_bernoulli(1, teichmuller_char(p, n - 1), prec)
    if b.is_zero:
        raise ValueError("value vanished at the working precision")
    return b.valuation


# -- module spec files (CLI format) ------------------------------------------


def parse_module_file(text: str) -> ElementaryModule:
    """Read lines `p <prime>`, `ppow <mu_i>`, `dist <c0> <c1> ...` (low->high)."""
    prime = None
    ppows = []
    dists = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *rest = line.split()
        if head not in ("p", "ppow", "dist"):
            raise ValueError(f"unknown directive {head!r}")
        if not rest or head != "dist" and len(rest) > 1:
            raise ValueError(f"malformed line {line!r}")
        if head == "p":
            prime = int(rest[0])
        elif head == "ppow":
            ppows.append(int(rest[0]))
        else:
            dists.append([int(x) for x in rest])
    if prime is None:
        raise ValueError("module file must set `p <prime>`")
    return ElementaryModule(prime, tuple(ppows), tuple(tuple(q) for q in dists))
