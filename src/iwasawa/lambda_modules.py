"""Elementary torsion Lambda-modules: invariants, finite-quotient orders,
and the p^(mu p^r + lambda r + c) growth law over the omega_r/omega_e tower.

A module is a list of p-power exponents (factors Lambda/(p^mu_i)) and a list
of distinguished integer polynomials (factors Lambda/(P_j)).  Free rank is
excluded: the growth law needs torsion modules, and a module of infinite
Z_p-rank has no finite omega-quotients at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import gen_bernoulli, teichmuller_char
from .iwaseries import (
    IndeterminateWithinTruncation,
    TruncatedSeries,
    mu_lambda_of,
    mul_trunc,
    phi_poly,
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

    def __post_init__(self):
        _check_odd_prime(self.prime)
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
    one is computed; so does one that is exactly 0 for a series, since g mod
    p^prec cannot tell that from a resultant of high valuation."""
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
        if res == 0 and prec is None:
            return None
        v = int_vp(res, p) if res else prec
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


def smith_elementary_divisors(mat: list[list[int]], p: int) -> list[int]:
    """Smith normal form diagonal of a square integer matrix over Z_(p), the
    rationals with denominators prime to p: p^(v_i) per elementary divisor and
    0 per kernel dimension.

    Over this local ring an entry of least p-valuation divides every entry, so
    each pivot clears its row and column in one step and leaves the Schur
    complement, whose exact Fraction entries again lie in Z_(p)."""
    m = [[Fraction(c) for c in row] for row in mat]
    divisors = []
    while m:
        nonzero = [(int_vp(c.numerator, p), i, j) for i, row in enumerate(m) for j, c in enumerate(row) if c]
        if not nonzero:
            return divisors + [0] * len(m)
        v, i0, j0 = min(nonzero)
        divisors.append(p**v)
        pivot_row, pivot = m[i0], m[i0][j0]
        m = [[c - row[j0] * pivot_row[j] / pivot for j, c in enumerate(row) if j != j0]
             for i, row in enumerate(m) if i != i0]
    return divisors


def quotient_order_oracle(P: list[int], g: list[int], p: int, cap: int = 6) -> int:
    """Independent check on quotient orders: the multiplication-by-g matrix on
    Z[T]/(P) is diagonalized over Z_(p) and the p-valuations of its
    elementary divisors are summed."""
    if len(poly_trim(P)) - 1 > cap:
        raise ValueError(f"oracle capped at degree {cap}")
    mat = _mult_matrix(P, g)
    divisors = smith_elementary_divisors(mat, p)
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


def _reduce(a: list[int], D: list[int], mod: int) -> list[int]:
    """a modulo (D, mod) for a monic D of degree d, as d residues."""
    rem = poly_divmod_monic(a, D)[1]
    return [c % mod for c in rem] + [0] * (len(D) - 1 - len(rem))


def _mulmod(a: list[int], b: list[int], D: list[int], mod: int) -> list[int]:
    return _reduce(mul_trunc(a, b, mod, 2 * len(D) - 3), D, mod)


def _geometric_power(y: list[int], p: int, D: list[int], mod: int) -> tuple[list[int], list[int]]:
    """(1 + y + ... + y^(p-1), y^p) modulo (D, mod), by square-and-multiply on
    the bits of p: S_2m = S_m (1 + y^m) and S_(m+1) = S_m + y^m."""
    s, t = _reduce([1], D, mod), y
    for bit in bin(p)[3:]:
        s = _mulmod(s, [(t[0] + 1) % mod] + t[1:], D, mod)
        t = _mulmod(t, t, D, mod)
        if bit == "1":
            s = [(a + b) % mod for a, b in zip(s, t)]
            t = _mulmod(t, y, D, mod)
    return s, t


def _det_valuation(mat: list[list[int]], p: int, K: int) -> int | None:
    """v_p(det mat) read from the entries mod p^K, None when a Schur
    complement vanishes mod p^K.  A pivot p^v u of least valuation divides
    its column, so clearing the column with u^(-1) mod p^K leaves a
    complement known mod p^K, and det = +-p^v u det(complement)."""
    mod = p**K
    m = [[c % mod for c in row] for row in mat]
    total = 0
    while m:
        # the first unit is the least (v, i, j); valuations only when none is left
        pivot = next(((0, i, j) for i, row in enumerate(m) for j, c in enumerate(row) if c % p), None)
        if pivot is None:
            nonzero = [(int_vp(c, p), i, j) for i, row in enumerate(m) for j, c in enumerate(row) if c]
            if not nonzero:
                return None
            pivot = min(nonzero)
        v, i0, j0 = pivot
        total += v
        pivot_row, inv = m[i0], pow(m[i0][j0] // p**v, -1, mod)
        m = [[(c - row[j0] // p**v * inv * pivot_row[j]) % mod for j, c in enumerate(row) if j != j0]
             for i, row in enumerate(m) if i != i0]
    return total


def _tower_valuations_mod(D: list[int], p: int, e: int, r_max: int, K: int) -> list[int] | None:
    d, mod = len(D) - 1, p**K
    one = _reduce([1], D, mod)
    y, vals = _reduce([1, 1], D, mod), []
    for k in range(1, r_max + 1):
        if y == one:  # y stays 1: Phi = p and the determinant is p^d from here on
            return vals + [d] * (r_max - max(k - 1, e))
        phi, y = _geometric_power(y, p, D, mod)
        if k > e:
            v = _det_valuation(_mult_matrix(D, phi), p, K)
            if v is None:
                return None
            vals.append(v)
    return vals


def _tower_valuations(D: list[int], p: int, e: int, r_max: int) -> list[int]:
    """[v_p(Res(D, Phi_(p^k)(1+T))) for e < k <= r_max], for D distinguished of
    degree d >= 1 that no such Phi_(p^k)(1+T) divides.

    Each resultant is the determinant of multiplication by
    Phi_(p^k)(1+T) = 1 + y + ... + y^(p-1), y = (1+T)^(p^(k-1)), on
    Z_p[T]/(D), and y is carried from level to level as a p-th power mod
    (D, p^K).  K starts at d + 2 and doubles while some determinant is 0 mod
    p^K; none is 0 exactly, so this ends."""
    K = len(D) + 1
    while (vals := _tower_valuations_mod(D, p, e, r_max, K)) is None:
        K *= 2
    return vals


def growth_sequence(E: ElementaryModule, e: int, r_max: int) -> GrowthReport:
    """Orders |E/(omega_r/omega_e)E| = p^(e_r) for e < r <= r_max, with the
    fitted (mu, lambda, c) and the stabilization point r0.

    omega_r/omega_e = prod_(e<k<=r) Phi_(p^k)(1+T), of degree p^r, is never
    built.  It has mu = 0 and Weierstrass degree p^r - p^e, which each
    Lambda/(p^mu_i) multiplies by mu_i; each distinguished factor adds its
    resultant valuations level by level (`_tower_valuations`).  The quotient
    is infinite exactly when some Phi_(p^k)(1+T), e < k <= r_max, divides a
    factor, which needs phi(p^k) <= its degree."""
    p = E.prime
    if e < 0:
        raise ValueError("need e >= 0")
    polys = [poly_trim(list(q)) for q in E.dist_polys]
    for D in polys:
        k = e + 1
        while k <= r_max and p ** (k - 1) * (p - 1) <= len(D) - 1:
            if not poly_divmod_monic(D, phi_poly(p, k))[1]:
                raise ValueError("quotient is infinite")
            k += 1
    towers = [_tower_valuations(D, p, e, r_max) for D in polys if len(D) > 1]
    mu = sum(E.p_exponents)
    exps, total = {}, 0
    for i, r in enumerate(range(e + 1, r_max + 1)):
        total += sum(vals[i] for vals in towers)
        exps[r] = mu * (p**r - p**e) + total
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
