"""Group rings over (Z/m)^x: Stickelberger elements, finite-level p-adic
L-elements, idempotents, character evaluation and the interpolation checks.

An element is integer numerators keyed by unit residue over one positive
denominator, with a window: None when exact (Stickelberger elements, h_N,
mu_chi of a rational-valued chi), else w when the coefficients are known mod
p^w (idempotents, h_N^(i), other mu_chi); then the denominator is a power of
p.  Every operation runs on these integers and divides the common factor
back out, so an integral element has denominator 1.  A product is known mod
p^min(w_x + v(y), w_y + v(x)), v the least coefficient valuation and w
infinite for an exact factor.  `coeffs` reads the coefficients as Fractions
or PadicNumbers.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

from . import exactq
from .characters import (
    DirichletCharacter,
    L_neg,
    gen_bernoulli,
    teichmuller_char,
    teichmuller_table,
)
from .iwaseries import TruncatedSeries, inverse_taylor_shift, taylor_shift
from .padic import PadicNumber, from_rational_abs, int_vp, unit_power, vp_diff


class GroupRingElement:
    """sum_a num[a]/den sigma_a in Q[G_m] (or its p-adic counterpart), G_m =
    (Z/mZ)^x, known mod prime^window unless window is None.  Built from a
    dict of Fractions, ints or PadicNumbers keyed by the unit residue a."""

    __slots__ = ("modulus", "num", "den", "prime", "window")

    def __init__(self, modulus: int, coeffs: dict):
        clean, prime, window = {}, None, inf
        for a, c in coeffs.items():
            a %= modulus
            if gcd(a, modulus) != 1:
                raise ValueError(f"{a} is not a unit mod {modulus}")
            if isinstance(c, PadicNumber) and not c.is_zero:
                prime, window = c.prime, min(window, c.abs_precision)
            clean[a] = c.lift() if isinstance(c, PadicNumber) else Fraction(c)
        den = lcm(*(c.denominator for c in clean.values()))
        _normalize(self, modulus, {a: int(c * den) for a, c in clean.items()}, den, prime, window)

    @property
    def coeffs(self) -> Mapping:
        """The coefficients as a read-only {a: Fraction} (exact) or
        {a: PadicNumber} (windowed) mapping, computed on read."""
        return _Coeffs(self)

    def _coeff(self, n: int):
        q = Fraction(n, self.den)
        return q if self.window is None else from_rational_abs(q, self.prime, self.window)

    def __add__(self, other):
        if not isinstance(other, GroupRingElement) or other.modulus != self.modulus:
            return NotImplemented
        den = lcm(self.den, other.den)
        out = {a: n * (den // self.den) for a, n in self.num.items()}
        for a, n in other.num.items():
            out[a] = out.get(a, 0) + n * (den // other.den)
        return _element(self.modulus, out, den, _common_prime(self, other), min(_w(self), _w(other)))

    def __neg__(self):
        return _element(self.modulus, {a: -n for a, n in self.num.items()}, self.den, self.prime, self.window)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, GroupRingElement) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement) or other.modulus != self.modulus:
            return NotImplemented
        m = self.modulus
        small, big = sorted((self.num, other.num), key=len)
        out: dict[int, int] = {}
        for a, c in small.items():
            for b, d in big.items():
                k = a * b % m
                out[k] = out.get(k, 0) + c * d
        p = _common_prime(self, other)
        window = min(_w(self) + _v(other, p), _w(other) + _v(self, p)) if p else None
        return _element(m, out, self.den * other.den, p, window)

    def scalar_mul(self, s) -> "GroupRingElement":
        return self * GroupRingElement(self.modulus, {1: s})

    def mass(self):
        """Sum of all coefficients (the image under the trivial character)."""
        return self._coeff(sum(self.num.values()))

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __repr__(self):
        return f"<group ring element mod {self.modulus} with {len(self.num)} terms>"


class _Coeffs(Mapping):
    """The coefficients of an element, computed on read."""

    def __init__(self, x: GroupRingElement):
        self._x = x

    def __getitem__(self, a):
        return self._x._coeff(self._x.num[a])

    def __iter__(self):
        return iter(self._x.num)

    def __len__(self):
        return len(self._x.num)


def _normalize(x, modulus, num, den, prime, window):
    """Set x to sum num[a]/den sigma_a (mod prime^window), common factor removed."""
    if window in (None, inf):
        prime = window = None
    if window is None:
        g = gcd(den, *num.values())
        num = {a: n // g for a, n in num.items() if n}
        den //= g
    else:
        e = int_vp(den, prime)
        mod = prime ** max(window + e, 0)
        inv = pow(den // prime**e, -1, mod)
        num = {a: r for a, n in num.items() if (r := n * inv % mod)}
        g = gcd(prime**e, *num.values())
        num = {a: n // g for a, n in num.items()}
        den = prime**e // g
    x.modulus, x.num, x.den, x.prime, x.window = modulus, num, den, prime, window


def _element(modulus, num, den=1, prime=None, window=None) -> GroupRingElement:
    x = object.__new__(GroupRingElement)
    _normalize(x, modulus, num, den, prime, window)
    return x


def _common_prime(x, y):
    if x.prime and y.prime and x.prime != y.prime:
        raise ValueError("elements known modulo powers of different primes")
    return x.prime or y.prime


def _w(x):
    return inf if x.window is None else x.window


def _v(x, p):
    """Least valuation of the coefficients of x (its window when it has none)."""
    return int_vp(gcd(*x.num.values()), p) - int_vp(x.den, p) if x.num else _w(x)


# -- Stickelberger elements and projections ---------------------------------


def stickelberger(m: int) -> GroupRingElement:
    """Sigma_m = -(1/m) sum over units a of a * sigma_a^(-1), exact rationals."""
    if m < 2:
        raise ValueError("need m >= 2")
    return _element(m, {pow(a, -1, m): -a for a in range(1, m) if gcd(a, m) == 1}, m)


def project(x: GroupRingElement, new_modulus: int) -> GroupRingElement:
    """Pushforward along sigma_a -> sigma_(a mod m'), coefficients summed on fibers."""
    if x.modulus % new_modulus != 0:
        raise ValueError("target modulus must divide the source modulus")
    out: dict[int, int] = {}
    for a, n in x.num.items():
        k = a % new_modulus
        out[k] = out.get(k, 0) + n
    return _element(new_modulus, out, x.den, x.prime, x.window)


# -- finite-level p-adic L-elements ------------------------------------------


def mu_chi_level(chi: DirichletCharacter, r: int, prec: int = 20) -> GroupRingElement:
    """The level-r element -(1/(N p^r)) sum a chi(a) sigma_(a mod p^r)^(-1).

    For nontrivial chi every coefficient lands in Z_p (checked); for the
    trivial character of conductor 1 the coefficients have valuation >= -r
    (the pseudo-measure case).  Exact for a rational-valued chi, else mod p^prec.
    """
    rational, sums = _mu_level_sums(chi, r, prec)
    pr = chi.prime**r
    return _element(pr, {b: -acc for b, acc in sums}, chi.modulus * pr, chi.prime, None if rational else prec)


def _mu_level_sums(chi: DirichletCharacter, r: int, prec: int):
    """The bucket loop behind mu_chi_level: (rational, [(b, A), ...]) with
    mu_chi at level r equal to sum_b -A/(N p^r) sigma_b.

    A is the sum of a chi(a) over 0 < a <= N p^r with a = b^(-1) mod p^r:
    exact when chi is rational-valued, else known modulo p^(prec+r).  For
    nontrivial chi every A is divisible by p^r (checked).
    """
    p = chi.prime
    N = chi.modulus
    if N % p == 0:
        raise ValueError("conductor must be coprime to p")
    if not chi.is_primitive():
        raise ValueError("character must be primitive")
    if r < 1:
        raise ValueError("need r >= 1")
    pr = p**r
    exps = chi.exponents
    rational = all(e == 0 or 2 * e == p - 1 for e in exps.values())
    weight = list(teichmuller_table(p, prec + r).zeta_pow)
    weight[(p - 1) // 2] = -1  # chi(a) exactly where it is rational
    sums: dict[int, int] = {}
    for a in range(1, N * pr + 1):
        e = exps.get(a % N) if a % p else None
        if e is not None:
            sums[a % pr] = sums.get(a % pr, 0) + a * weight[e]
    if not chi.is_trivial() and any(acc % pr for acc in sums.values()):
        raise AssertionError("nontrivial character produced a non-integral coefficient")
    return rational, [(pow(c, -1, pr), acc) for c, acc in sums.items()]


def h_element(N: int, r: int, p: int) -> GroupRingElement:
    """h_N = 1 - (1+Np) sigma_(1+Np)^(-1) at level r."""
    pr, u = p**r, 1 + N * p
    return _element(pr, {1: 1}) - _element(pr, {pow(u, -1, pr): u})


def idempotent(i: int, r: int, p: int, prec: int = 20) -> GroupRingElement:
    """e_(omega^i) = (1/(p-1)) sum_c omega^i(c)^(-1) delta_c at level r."""
    zeta_pow = teichmuller_table(p, prec).zeta_pow
    num = {key: zeta_pow[-i * k % (p - 1)] for k, key in enumerate(teichmuller_table(p, r).zeta_pow)}
    return _element(p**r, num, p - 1, p, prec)


def h_i_element(N: int, i: int, r: int, p: int, prec: int = 20) -> GroupRingElement:
    """h_N^(i) = 1 - (1+Np) e_(omega^i) sigma_(1+Np)^(-1) at level r."""
    pr, u = p**r, 1 + N * p
    return _element(pr, {1: 1}) - idempotent(i, r, p, prec) * _element(pr, {pow(u, -1, pr): u})


# -- character evaluation -----------------------------------------------------


@dataclass(frozen=True)
class PadicCharSpec:
    """The character omega^i kappa_0^s of G = Gal(Q(mu_p^infty)/Q)."""

    teich_exponent: int
    wild_exponent: object  # int or PadicNumber in Z_p


def evaluate_char(x: GroupRingElement, spec: PadicCharSpec, p: int, prec: int = 20) -> PadicNumber:
    """sum_a coeff(a) * omega^i(a) * <a>^s for an element at level p^r.

    The reference path for arbitrary elements, canonical only modulo p^r:
    <a>^s is one modular power of the integer lift a * omega(a)^(-1) mod p^K
    with the exponent's integer lift, while `interp_check` evaluates on the
    gamma-power lift gamma^(ks) of <a> = gamma^k mod p^r; both agree modulo
    p^r.  A p-adic s known mod p^B moves the term of a by
    p^(B + v_p(<a> - 1) + v_p(coeff)), which caps the reported precision.
    """
    _p_power_level(x.modulus, p)
    shift = int_vp(x.den, p)
    K = prec + shift
    pK = p**K
    tables = teichmuller_table(p, K)
    s = spec.wild_exponent
    i = spec.teich_exponent % (p - 1)
    padic_s = not isinstance(s, int) and not s.is_zero
    if padic_s and s.valuation < 0:
        raise ValueError("exponent must lie in Z_p")
    s_red = (int(s.lift()) if isinstance(s, PadicNumber) else s) % p ** max(K - 1, 1)
    acc = 0
    for a, num in x.num.items():
        abar = a % p
        w = tables.zeta_pow[(i * tables.ind[abar]) % (p - 1)]
        u = a * tables.teich_inv[abar] % pK
        acc = (acc + num * w % pK * pow(u, s_red, pK)) % pK
    acc = acc * pow(x.den // p**shift, -1, pK) % pK
    absprec = prec if x.window is None else min(prec, x.window)
    if padic_s:
        for a, num in x.num.items():
            d = a * tables.teich_inv[a % p] % pK - 1
            if d:
                absprec = min(absprec, s.abs_precision + int_vp(d, p) + int_vp(num, p) - shift)
    if absprec < 1:
        raise ValueError("coefficients carry too little precision for this evaluation")
    return from_rational_abs(Fraction(acc, p**shift), p, absprec)


def _p_power_level(m: int, p: int) -> int:
    r = int_vp(m, p)
    if r < 1 or m != p**r:
        raise ValueError("element must live at a level p^r, r >= 1")
    return r


# -- level tables: Z_p[(Z/p^r)^x] = Z_p[Delta][T]/(omega_(r-1)), gamma = 1+p ---


@lru_cache(maxsize=16)
def _level_index(p: int, r: int) -> list[int]:
    """pos[a] = t * p^(r-1) + k where a = zeta^t gamma^k mod p^r, -1 off the units.

    zeta is the root of `teichmuller_table`, so t is the Teichmuller index
    of a and k = dlog_gamma <a> mod p^(r-1).
    """
    pr, d = p**r, p ** (r - 1)
    pos = [-1] * pr
    for t, y in enumerate(teichmuller_table(p, r).zeta_pow):
        for k in range(d):
            pos[y] = t * d + k
            y = y * (1 + p) % pr
    return pos


def _layout(x: GroupRingElement, p: int, r: int, e: int, K: int) -> list[int]:
    """x at level r as a level table: entry pos[a] (see `_level_index`) is
    coeff(a) * p^e mod p^K, for e at least the p-valuation of the denominator."""
    shift = int_vp(x.den, p)
    pK = p**K
    scale = p ** (e - shift) * pow(x.den // p**shift, -1, pK)
    pos = _level_index(p, r)
    table = [0] * ((p - 1) * p ** (r - 1))
    for a, n in x.num.items():
        table[pos[a]] = n * scale % pK
    return table


@lru_cache(maxsize=16)
def _hmu_rows(p: int, N: int, exponents: tuple, r: int, prec: int) -> tuple[int, ...]:
    """h_N mu_chi at level r as a level table, integers mod p^(prec+r) over p^r.

    The layout of mu_chi_level times the terms c sigma_g of h_element: each g
    is a principal unit gamma^k_g, so its term adds c times every row rotated
    by k_g along the k axis (no group-ring product is built).  Cached by the
    whole character (its exponent table), r and prec.
    """
    chi = DirichletCharacter(N, p, dict(exponents))
    pK, d = p ** (prec + r), p ** (r - 1)
    flat = _layout(mu_chi_level(chi, r, prec), p, r, r, prec + r)
    turns = [(c, d - _level_index(p, r)[g]) for g, c in h_element(N, r, p).num.items()]
    table = []
    for t in range(p - 1):
        row = flat[t * d : (t + 1) * d]
        acc = [0] * d
        for c, k in turns:
            acc = [v + c * y for v, y in zip(acc, row[k:] + row[:k])]
        table += [v % pK for v in acc]
    return tuple(table)


def _branch(table, i: int, p: int, K: int) -> list[int]:
    """The omega^i-branch of a level table: sum_t zeta^(it) row_t mod p^K,
    a polynomial in X = gamma (row t is the entries t p^(r-1) + k)."""
    d, pK = len(table) // (p - 1), p**K
    zeta_pow = teichmuller_table(p, K).zeta_pow
    out = [0] * d
    for t in range(p - 1):
        z = zeta_pow[i * t % (p - 1)]
        out = [v + z * c for v, c in zip(out, table[t * d : (t + 1) * d])]
    return [v % pK for v in out]


# -- special values and checks ------------------------------------------------


@dataclass(frozen=True)
class InterpReport:
    p: int
    chi_conductor: int
    chi_trivial: bool
    j: int
    n: int
    r: int
    lhs: PadicNumber
    rhs: PadicNumber
    agreement_valuation: float
    threshold: int
    passed: bool


def h_char_value(N: int, p: int, spec: PadicCharSpec, prec: int = 20) -> PadicNumber:
    """The regularizer h_N at omega^i kappa_0^s, exactly: 1 - (1+Np)^(1-s).

    Unlike evaluating the level-r image of h_N (canonical only mod p^r),
    this closed form carries full precision; that matters on the branch
    where the interpolated L-values have negative valuation.
    """
    s = spec.wild_exponent
    if isinstance(s, int):
        return PadicNumber.from_rational(1 - Fraction(1 + N * p) ** (1 - s), p, prec)
    u = PadicNumber.from_int(1 + N * p, p, prec)
    return 1 - unit_power(u, 1 - s)


def interp_check(
    chi: DirichletCharacter,
    j: int,
    n: int,
    r: int,
    prec: int | None = None,
    _mu_cache: dict | None = None,
) -> InterpReport:
    """Compare both sides of the finite-level interpolation formula.

    lhs = (h_N mu_chi at level r) evaluated at psi^(-1) kappa^(1-n) with
    psi = omega^j; rhs = h_N at the same character (closed form) times the
    Euler-corrected L(chi psi, 1-n).  Reports v_p(lhs - rhs); the congruence
    sharpens with r and the acceptance threshold is r - 1.

    The lhs is canonical only modulo p^r.  It is computed on the gamma-power
    lift: Horner evaluation at gamma^(1-n) of the omega^i-branch of a cached
    table of h_N mu_chi (see `_hmu_rows` and `_branch`); `evaluate_char` on
    h_element * mu_chi_level uses the integer lift, is reported to the same
    absolute precision and agrees with it modulo p^r.  `_mu_cache` is
    accepted and ignored: the table cache is internal and keyed by the whole
    character.
    """
    p = chi.prime
    if n < 1:
        raise ValueError("interpolation index n must be >= 1 (n = 0 is the "
                         "excluded character where the regularizer h vanishes)")
    if r < 2:
        raise ValueError("need level r >= 2")
    if prec is None:
        prec = r + 6
    N = chi.modulus
    spec = PadicCharSpec((1 - n - j) % (p - 1), 1 - n)
    pK = p ** (prec + r)
    table = _hmu_rows(p, N, tuple(sorted(chi.exponents.items())), r, prec)
    x, acc = pow(1 + p, 1 - n, pK), 0
    for c in reversed(_branch(table, spec.teich_exponent, p, prec + r)):
        acc = (acc * x + c) % pK
    lhs = from_rational_abs(Fraction(acc, p**r), p, prec)
    hval = h_char_value(N, p, spec, prec)
    if hval.is_zero:
        raise ValueError("the regularizer h vanishes at this character (the p-adic zeta pole)")
    chipsi = chi.multiply(teichmuller_char(p, j)).primitivize()
    cp = chipsi(p, prec)
    euler = PadicNumber.one(p, prec) if cp.is_zero else 1 - cp * p ** (n - 1)
    lval = L_neg(chipsi, n, prec)
    rhs = hval * euler * lval
    val = vp_diff(lhs, rhs)
    return InterpReport(p, chipsi.modulus, chi.is_trivial(), j, n, r, lhs, rhs, val, r - 1, val >= r - 1)


def mu1_at_omega(i: int, p: int, prec: int = 20) -> PadicNumber:
    """The level-1 Stickelberger image under omega^i; equals -B_(1, omega^(-i))."""
    return evaluate_char(stickelberger(p), PadicCharSpec(i, 0), p, prec)


@dataclass(frozen=True)
class ResidueUnitReport:
    p: int
    residue: int
    passed: bool


def residue_unit_check(p: int, prec: int = 12) -> ResidueUnitReport:
    """Check p * B_(1, omega^(-1)) = -1 mod p (the p-adic zeta residue is a unit)."""
    b = gen_bernoulli(1, teichmuller_char(p, -1), prec)
    pb = b * p
    if pb.is_zero or pb.valuation != 0:
        return ResidueUnitReport(p, -1, False)
    res = pb.residue()
    return ResidueUnitReport(p, res, res == p - 1)


# -- the elementary continuous-extension oracle (section 5.2 style) -----------


BERNOULLI_INDEX_LIMIT = 1500


def branch_limit_index(p: int, n: int, k: int) -> int:
    """The approximation index n + p^k (p-1): Kummer-congruent to n, same branch.

    Staying in n's residue class mod p-1 makes the oracle converge to the
    value the interpolation formula assigns to the trivial tame twist, which
    is the quantity the other two constructions produce.  n = 0 is the pole
    of the p-adic zeta function, so it has no limit.
    """
    if n < 1 or k < 0:
        raise ValueError("the Kummer limit needs n >= 1 and k >= 0")
    m = n + p**k * (p - 1)
    if m > BERNOULLI_INDEX_LIMIT:
        raise ValueError(f"Bernoulli index {m} beyond the exact-cache budget")
    return m


def branch_limit_oracle(p: int, n: int, k: int, c: int, prec: int = 12) -> PadicNumber:
    """Approximate (1 - p^(n-1)) zeta(1-n) from the Kummer-congruence limit.

    Evaluates the regularized value at the congruent index m and divides the
    (1 - c^m) factor back out, exactly as the continuity construction does;
    the division cancels in exact rationals, so c only enters the companion
    `branch_limit_regularized`.  Guaranteed agreement scale: p^(k+1) on the
    regularized values; on the plain values one p-digit per unit of
    v_p(1 - c^n) less on the branch with (p-1) | n.
    """
    if c % p == 0:
        raise ValueError("c must be prime to p")
    m = branch_limit_index(p, n, k)
    f_m = exactq.kummer_regularized_value(m, p, c)
    reg = 1 - Fraction(c) ** m
    val = -f_m / reg
    return PadicNumber.from_rational(val, p, prec)


def branch_limit_regularized(p: int, n: int, k: int, c: int) -> Fraction:
    """(1 - c^m)(1 - p^(m-1)) B_m / m at the approximation index m, exact."""
    if c % p == 0:
        raise ValueError("c must be prime to p")
    m = branch_limit_index(p, n, k)
    return exactq.kummer_regularized_value(m, p, c)


# -- eigenspace components as series ------------------------------------------


def principal_unit_dlog(u: int, p: int, r: int) -> int:
    """j with (1+p)^j = u mod p^r, for u = 1 mod p; returned mod p^(r-1)."""
    k = _level_index(p, r)[u % p**r]
    if not 0 <= k < p ** (r - 1):
        raise ValueError(f"{u} is not a principal unit mod {p}^{r}")
    return k


def component_series(x: GroupRingElement, i: int, p: int, prec: int = 12) -> TruncatedSeries:
    """Image of e_(omega^i) x in Z_p[T]/(omega_(r-1)) with gamma = 1 + T.

    Each sigma_a splits as (Teichmuller part, principal part) = (zeta^t,
    gamma^k), so the coefficients form a level table; its omega^i-branch is
    a polynomial in X = gamma, which one Taylor shift X -> 1 + T turns into
    the series.  The result must have coefficients in Z_p at the working
    precision.
    """
    r = _p_power_level(x.modulus, p)
    shift = int_vp(x.den, p)
    K = prec + shift
    table = _layout(x, p, r, shift, K)
    coeffs = []
    pshift = p**shift
    for v in taylor_shift(_branch(table, i, p, K), p**K):
        if v % pshift:
            raise ValueError("component has a non-integral coefficient at this precision")
        coeffs.append(v // pshift)
    return TruncatedSeries(p, coeffs, prec)


def reassemble_components(comps: dict[int, TruncatedSeries], p: int, r: int, prec: int = 12) -> GroupRingElement:
    """Inverse of component_series summed over all branches (test helper):
    each series, written in X = 1 + T by the inverse Taylor shift, puts h_k on gamma^k."""
    pr = p**r
    total = _element(pr, {})
    for i, series in comps.items():
        h = inverse_taylor_shift(series.coeffs, p**series.prec)
        poly = _element(pr, {pow(1 + p, k, pr): c for k, c in enumerate(h)}, 1, p, series.prec)
        total = total + idempotent(i, r, p, prec) * poly
    return total
