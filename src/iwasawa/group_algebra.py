"""Group rings over (Z/m)^x: Stickelberger elements, finite-level p-adic
L-elements, idempotents, character evaluation and the interpolation checks.

An element is one list of integer numerators over one positive denominator,
with a window: None when exact (Stickelberger elements, h_N, mu_chi of a
rational-valued chi), else w when the coefficients are known mod p^w
(idempotents, h_N^(i), other mu_chi); then the denominator is a power of p.
The list follows a fixed order of the units (`_units`): at an odd prime power
p^r it is the level order, a = zeta^t gamma^k (gamma = 1 + p) at position
t p^(r-1) + k, so the list is the element's level table, its rows the
Teichmuller classes.  Multiplying by sigma_b permutes positions; at p^r it
shifts the rows by t_b and rotates each row by k_b, and sigma_a -> sigma_(a^-1)
is the reflection (t, k) -> (-t, -k).  Every operation runs on these integers
and divides the common factor back out, so an integral element has
denominator 1.  A product is known mod p^min(w_x + v(y), w_y + v(x)), v the
least coefficient valuation and w infinite for an exact factor; `__mul__` is
the one product kernel, the level-r elements h_N mu_chi of the interpolation
check included.  `coeffs` reads the nonzero coefficients as Fractions or
PadicNumbers keyed by unit residue.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, inf, isqrt, lcm

from . import exactq
from .characters import (
    DirichletCharacter,
    L_neg,
    gen_bernoulli,
    teichmuller_char,
    teichmuller_table,
)
from .iwaseries import TruncatedSeries, taylor_shift
from .padic import PadicNumber, from_rational_abs, int_vp, unit_power, vp_diff


class GroupRingElement:
    """sum_a num[pos(a)]/den sigma_a in Q[G_m] (or its p-adic counterpart),
    G_m = (Z/mZ)^x, known mod prime^window unless window is None; pos is the
    unit order of `_units(m)`.  Built from a dict of Fractions, ints or
    PadicNumbers keyed by the unit residue a."""

    __slots__ = ("modulus", "num", "den", "prime", "window")

    def __init__(self, modulus: int, coeffs: dict):
        clean, prime, window = {}, None, inf
        for a, c in coeffs.items():
            a %= modulus
            if gcd(a, modulus) != 1:
                raise ValueError(f"{a} is not a unit mod {modulus}")
            if isinstance(c, PadicNumber) and c.abs_precision is not None:
                prime, window = c.prime, min(window, c.abs_precision)
            clean[a] = c.lift() if isinstance(c, PadicNumber) else Fraction(c)
        den = lcm(*(c.denominator for c in clean.values()))
        num = _positions(modulus, {a: int(c * den) for a, c in clean.items()})
        _normalize(self, modulus, num, den, prime, window)

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as {a: Fraction} (exact) or {a: PadicNumber}
        (windowed), built on each read."""
        return {a: self._coeff(n) for a, n in zip(_units(self.modulus)[0], self.num) if n}

    def _coeff(self, n: int):
        q = Fraction(n, self.den)
        return q if self.window is None else from_rational_abs(q, self.prime, self.window)

    def __add__(self, other):
        if not isinstance(other, GroupRingElement) or other.modulus != self.modulus:
            return NotImplemented
        den = lcm(self.den, other.den)
        sx, sy = den // self.den, den // other.den
        out = [a * sx + b * sy for a, b in zip(self.num, other.num)]
        return _element(self.modulus, out, den, _common_prime(self, other), min(_w(self), _w(other)))

    def __neg__(self):
        return _element(self.modulus, [-n for n in self.num], self.den, self.prime, self.window)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, GroupRingElement) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement) or other.modulus != self.modulus:
            return NotImplemented
        m = self.modulus
        small, big = sorted((self.num, other.num), key=lambda num: len(num) - num.count(0))
        out = [0] * len(big)
        for i, c in enumerate(small):
            if c:
                out = [o + c * v for o, v in zip(out, _times_sigma(big, m, i))]
        p = _common_prime(self, other)
        window = min(_w(self) + _v(other, p), _w(other) + _v(self, p)) if p else None
        return _element(m, out, self.den * other.den, p, window)

    def mass(self):
        """Sum of all coefficients (the image under the trivial character)."""
        return self._coeff(sum(self.num))

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __repr__(self):
        return f"<group ring element mod {self.modulus} with {len(self.num) - self.num.count(0)} terms>"


def _normalize(x, modulus, num, den, prime, window):
    """Set x to sum num[i]/den sigma_(units[i]) (mod prime^window), common
    factor removed."""
    if window in (None, inf):
        prime = window = None
    if window is None:
        g = gcd(den, *num)
    else:
        e = int_vp(den, prime)
        mod = prime ** max(window + e, 0)
        inv = pow(den // prime**e, -1, mod)
        num = [n * inv % mod for n in num]
        g = gcd(prime**e, *num)
        den = prime**e
    if g != 1:
        num = [n // g for n in num]
        den //= g
    x.modulus, x.num, x.den, x.prime, x.window = modulus, num, den, prime, window


def _element(modulus, num, den=1, prime=None, window=None) -> GroupRingElement:
    """The element with numerators num, a list in unit order or a dict
    {unit residue: numerator}."""
    x = object.__new__(GroupRingElement)
    if isinstance(num, dict):
        num = _positions(modulus, num)
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
    g = gcd(*x.num)
    return int_vp(g, p) - int_vp(x.den, p) if g else _w(x)


# -- the unit order: positions, and sigma_b as a permutation of them ------------


@lru_cache(maxsize=16)
def _units(m: int) -> tuple[array, int]:
    """(units, d): units[i] is the unit at position i of an element mod m.
    At an odd prime power p^r the order is the level order, units[t d + k] =
    zeta^t gamma^k mod p^r with d = p^(r-1), zeta the root of
    `teichmuller_table` and gamma = 1 + p; at any other m the units ascend
    and d = 0 (no rows)."""
    q = next((q for q in range(2, isqrt(m) + 1) if m % q == 0), m)
    if q > 2 and m == q ** int_vp(m, q):
        d, gamma_pow = m // q, [1]
        while len(gamma_pow) < d:
            gamma_pow.append(gamma_pow[-1] * (1 + q) % m)
        return array("q", [z * g % m for z in teichmuller_table(q, int_vp(m, q)).zeta_pow for g in gamma_pow]), d
    return array("q", [a for a in range(m) if gcd(a, m) == 1]), 0


@lru_cache(maxsize=16)
def _unit_positions(m: int) -> array:
    """pos[a] = the position of the unit a in `_units(m)`, -1 off the units."""
    pos = array("q", [-1]) * m
    for i, a in enumerate(_units(m)[0]):
        pos[a] = i
    return pos


def _positions(m: int, num: dict) -> list[int]:
    """A dict {unit residue: numerator} as a list in unit order."""
    pos = _unit_positions(m)
    out = [0] * len(_units(m)[0])
    for a, n in num.items():
        out[pos[a]] = n
    return out


def _times_sigma(num: list, m: int, i: int) -> list:
    """sum_a n_a sigma_(ab) for num = [n_a], b the unit at position i.  At
    p^r, b = zeta^t gamma^k shifts the rows by t and rotates each by k."""
    units, d = _units(m)
    if d:
        t, k = divmod(i, d)
        rows = [num[s : s + d] for s in range(0, len(num), d)]
        return list(chain.from_iterable(row[-k:] + row[:-k] for row in rows[-t:] + rows[:-t]))
    b, pos = pow(units[i], -1, m), _unit_positions(m)
    return [num[pos[a * b % m]] for a in units]


def _inverted(num: list, m: int) -> list:
    """sum_a n_a sigma_(a^(-1)) for num = [n_a]: at p^r the reflection
    (t, k) -> (-t, -k) of the positions, no modular inverse taken."""
    units, d = _units(m)
    if d:
        rows = [num[s : s + d] for s in range(0, len(num), d)]
        return list(chain.from_iterable(row[:1] + row[:0:-1] for row in rows[:1] + rows[:0:-1]))
    pos = _unit_positions(m)
    return [num[pos[pow(a, -1, m)]] for a in units]


# -- Stickelberger elements and projections ---------------------------------


def stickelberger(m: int) -> GroupRingElement:
    """Sigma_m = -(1/m) sum over units a of a * sigma_a^(-1), exact rationals."""
    if m < 2:
        raise ValueError("need m >= 2")
    return _element(m, _inverted([-a for a in _units(m)[0]], m), m)


def project(x: GroupRingElement, new_modulus: int) -> GroupRingElement:
    """Pushforward along sigma_a -> sigma_(a mod m'), coefficients summed on fibers."""
    if x.modulus % new_modulus != 0:
        raise ValueError("target modulus must divide the source modulus")
    pos = _unit_positions(new_modulus)
    out = [0] * len(_units(new_modulus)[0])
    for a, n in zip(_units(x.modulus)[0], x.num):
        out[pos[a % new_modulus]] += n
    return _element(new_modulus, out, x.den, x.prime, x.window)


# -- finite-level p-adic L-elements ------------------------------------------


def mu_chi_level(chi: DirichletCharacter, r: int, prec: int = 20) -> GroupRingElement:
    """The level-r element -(1/(N p^r)) sum a chi(a) sigma_(a mod p^r)^(-1).

    For nontrivial chi every coefficient lands in Z_p (checked); for the
    trivial character of conductor 1 the coefficients have valuation >= -r
    (the pseudo-measure case).  Exact for a rational-valued chi, else mod p^prec.

    Over a = c + j p^r (0 <= j < N), c a unit mod p^r, the terms a chi(a) sum
    to A(c) = c S_0 + p^r S_1(c mod N), with S_0 = sum_x chi(x) over x mod N
    and S_1(c) = sum_j j chi(c + j p^r); chi(a) is exact where it is
    rational, else its integer lift mod p^(prec+r).  The numerators -A(c)
    are listed in level order and reflected onto sigma_(c^(-1)).
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
    chi_at = [weight[exps[x]] if x in exps else 0 for x in range(N)]
    s0 = sum(chi_at)
    s1 = [sum(j * chi_at[(c + j * pr) % N] for j in range(N)) for c in range(N)]
    if not chi.is_trivial() and s0 % pr:
        raise AssertionError("nontrivial character produced a non-integral coefficient")
    num = [-(c * s0 + pr * s1[c % N]) for c in _units(pr)[0]]
    return _element(pr, _inverted(num, pr), N * pr, p, None if rational else prec)


def h_element(N: int, r: int, p: int) -> GroupRingElement:
    """h_N = 1 - (1+Np) sigma_(1+Np)^(-1) at level r."""
    pr, u = p**r, 1 + N * p
    units = _units(pr)[0]
    num = [1] + [0] * (len(units) - 1)  # sigma_1 is at position 0
    num[units.index(pow(u, -1, pr))] -= u
    return _element(pr, num)


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

    The list runs row by row, and omega^i(a) is constant on a row; a
    negative exponent powers the cached inverse lifts.
    """
    r = _p_power_level(x.modulus, p)
    shift = int_vp(x.den, p)
    K = prec + shift
    pK = p**K
    s = spec.wild_exponent
    i = spec.teich_exponent % (p - 1)
    padic_s = isinstance(s, PadicNumber) and s.abs_precision is not None
    if padic_s and s.valuation < 0:
        raise ValueError("exponent must lie in Z_p")
    # u = <a> is 1 mod p, so its order divides p^(K-1) mod p^K; the least
    # absolute residue of s keeps the exponent short (u^(1-n) is u^-(n-1))
    order = p ** max(K - 1, 1)
    s_red = ((int(s.lift()) if isinstance(s, PadicNumber) else s) + order // 2) % order - order // 2
    lifts = _unit_lifts(p, r, K, 1 if s_red >= 0 else -1)
    e, d = abs(s_red), p ** (r - 1)
    zeta_pow = teichmuller_table(p, K).zeta_pow
    acc = 0
    for t in range(p - 1):
        row = sum(n * pow(u, e, pK) for n, u in zip(x.num[t * d : (t + 1) * d], lifts[t * d : (t + 1) * d]) if n)
        acc += zeta_pow[i * t % (p - 1)] * (row % pK)
    acc = acc % pK * pow(x.den // p**shift, -1, pK) % pK
    absprec = prec if x.window is None else min(prec, x.window)
    if padic_s:
        for n, u in zip(x.num, _unit_lifts(p, r, K, 1)):
            if n and u != 1:
                absprec = min(absprec, s.abs_precision + int_vp(u - 1, p) + int_vp(n, p) - shift)
    if absprec < 1:
        raise ValueError("coefficients carry too little precision for this evaluation")
    return from_rational_abs(Fraction(acc, p**shift), p, absprec)


@lru_cache(maxsize=16)
def _unit_lifts(p: int, r: int, K: int, sign: int) -> list[int]:
    """(a * omega(a)^(-1))^sign mod p^K for the units a mod p^r in level
    order: the integer lift of <a> (sign 1) or its inverse (sign -1)."""
    pK, teich_inv = p**K, teichmuller_table(p, K).teich_inv
    return [pow(a * teich_inv[a % p], sign, pK) for a in _units(p**r)[0]]


def _p_power_level(m: int, p: int) -> int:
    r = int_vp(m, p)
    if r < 1 or m != p**r:
        raise ValueError("element must live at a level p^r, r >= 1")
    return r


# -- level tables: Z_p[(Z/p^r)^x] = Z_p[Delta][T]/(omega_(r-1)), gamma = 1+p ---


def _residues(x: GroupRingElement, p: int, e: int, K: int) -> list[int]:
    """The level table of x: coeff * p^e mod p^K in level order, for e at
    least the p-valuation of the denominator."""
    shift = int_vp(x.den, p)
    pK = p**K
    scale = p ** (e - shift) * pow(x.den // p**shift, -1, pK) % pK
    return [n * scale % pK for n in x.num]


class _LevelTable(tuple):
    """A level table mod p^K that keeps each omega^i-branch once it is read."""

    def __new__(cls, rows, p: int, K: int):
        table = super().__new__(cls, rows)
        table.p, table.K, table.branches = p, K, {}
        return table

    def branch(self, i: int) -> tuple[int, ...]:
        if i not in self.branches:
            self.branches[i] = tuple(_branch(self, i, self.p, self.K))
        return self.branches[i]


@lru_cache(maxsize=16)
def _hmu_rows(p: int, N: int, exponents: tuple, r: int, prec: int) -> _LevelTable:
    """h_N mu_chi at level r as a level table, integers mod p^(prec+r) over
    p^r: the residues of the one product h_element * mu_chi_level.  Cached
    by the whole character (its exponent table), r and prec; the cache entry
    is the table itself (it compares equal to the tuple of its entries) and
    holds the omega^i-branches read from it so far, at most p - 1, so a
    `cache_clear` drops both."""
    chi = DirichletCharacter(N, p, dict(exponents))
    K = prec + r
    return _LevelTable(_residues(h_element(N, r, p) * mu_chi_level(chi, r, prec), p, r, K), p, K)


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

    At an integer s != 1 the value has valuation v = 1 + v_p(N) + v_p(1-s)
    and is wanted mod p^(v+prec); 1+Np has order dividing p^(v+prec-1)
    there, so the exponent is reduced mod that and one modular power taken.
    """
    s = spec.wild_exponent
    if isinstance(s, int):
        if s == 1 or N == 0:
            return PadicNumber.from_rational(0, p, prec)
        K = 1 + int_vp(N, p) + int_vp(1 - s, p) + prec
        return PadicNumber(p, 0, 1 - pow(1 + N * p, (1 - s) % p ** (K - 1), p**K), K)
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
    lift: Horner evaluation at gamma^(1-n) of the omega^i-branch,
    i = (1-n-j) mod (p-1), of the cached level table of h_N mu_chi (see
    `_hmu_rows` and `_branch`); `evaluate_char` on
    h_element * mu_chi_level uses the integer lift, is reported to the same
    absolute precision and agrees with it modulo p^r.

    Cost per call: the table is built once per (chi, r, prec) and each of
    its p - 1 branches once, on first read; the rhs, which does not depend
    on r, once per (chi, j, n, prec) (`_interp_rhs`).  After that a call is
    one Horner pass over the p^(r-1) branch coefficients mod p^(prec+r).
    `_mu_cache` is accepted and ignored: both caches are internal and keyed
    by the whole character.
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
    exponents = tuple(sorted(chi.exponents.items()))
    pK = p ** (prec + r)
    table = _hmu_rows(p, N, exponents, r, prec)
    x, acc = pow(1 + p, 1 - n, pK), 0
    for c in reversed(table.branch((1 - n - j) % (p - 1))):
        acc = (acc * x + c) % pK
    lhs = from_rational_abs(Fraction(acc, p**r), p, prec)
    rhs, conductor = _interp_rhs(p, N, exponents, j, n, prec)
    val = vp_diff(lhs, rhs)
    return InterpReport(p, conductor, chi.is_trivial(), j, n, r, lhs, rhs, val, r - 1, val >= r - 1)


@lru_cache(maxsize=1024)
def _interp_rhs(p: int, N: int, exponents: tuple, j: int, n: int, prec: int) -> tuple[PadicNumber, int]:
    """(rhs, conductor of chi psi) of `interp_check`: h_N at omega^(1-n-j)
    kappa^(1-n) in closed form times the Euler-corrected L(chi psi, 1-n),
    psi = omega^j.  Keyed like `_hmu_rows` but by (j, n) where it has r: a
    run over the levels computes each value once."""
    chi = DirichletCharacter(N, p, dict(exponents))
    hval = h_char_value(N, p, PadicCharSpec((1 - n - j) % (p - 1), 1 - n), prec)
    if hval.is_zero:
        raise ValueError("the regularizer h vanishes at this character (the p-adic zeta pole)")
    chipsi = chi.multiply(teichmuller_char(p, j)).primitivize()
    cp = chipsi(p, prec)
    euler = PadicNumber.one(p, prec) if cp.is_zero else 1 - cp * p ** (n - 1)
    return hval * euler * L_neg(chipsi, n, prec), chipsi.modulus


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
    """Approximate (1 - p^(n-1)) zeta(1-n) from the Kummer-congruence limit:
    the same value at the congruent index m = `branch_limit_index(p, n, k)`.

    The continuity construction divides the regularized value
    `branch_limit_regularized` by its (1 - c^m) factor, which cancels
    exactly, so c is only validated.  Guaranteed agreement scale: p^(k+1) on
    the regularized values; on the plain values one p-digit per unit of
    v_p(1 - c^n) less on the branch with (p-1) | n.
    """
    if c % p == 0:
        raise ValueError("c must be prime to p")
    return PadicNumber.from_rational(exactq.euler_stripped_zeta(branch_limit_index(p, n, k), p), p, prec)


def branch_limit_regularized(p: int, n: int, k: int, c: int) -> Fraction:
    """(1 - c^m)(1 - p^(m-1)) B_m / m at the approximation index m, exact."""
    if c % p == 0:
        raise ValueError("c must be prime to p")
    m = branch_limit_index(p, n, k)
    return exactq.kummer_regularized_value(m, p, c)


# -- eigenspace components as series ------------------------------------------


def principal_unit_dlog(u: int, p: int, r: int) -> int:
    """j with (1+p)^j = u mod p^r, for u = 1 mod p; returned mod p^(r-1)."""
    k = _unit_positions(p**r)[u % p**r]
    if not 0 <= k < p ** (r - 1):
        raise ValueError(f"{u} is not a principal unit mod {p}^{r}")
    return k


def component_series(x: GroupRingElement, i: int, p: int, prec: int = 12) -> TruncatedSeries:
    """Image of e_(omega^i) x in Z_p[T]/(omega_(r-1)) with gamma = 1 + T.

    Each sigma_a splits as (Teichmuller part, principal part) = (zeta^t,
    gamma^k), so the numerators, stored in level order, are a level table;
    its omega^i-branch is a polynomial in X = gamma, which one Taylor shift
    X -> 1 + T turns into the series.  The result must have coefficients in Z_p at the working
    precision, which is capped at the window of x.
    """
    _p_power_level(x.modulus, p)
    if x.window is not None:
        prec = min(prec, x.window)
        if prec < 1:
            raise ValueError("coefficients carry too little precision for this evaluation")
    shift = int_vp(x.den, p)
    K = prec + shift
    table = _residues(x, p, shift, K)
    coeffs = []
    pshift = p**shift
    for v in taylor_shift(_branch(table, i, p, K), p**K):
        if v % pshift:
            raise ValueError("component has a non-integral coefficient at this precision")
        coeffs.append(v // pshift)
    return TruncatedSeries(p, coeffs, prec)
