"""Exact rational Bernoulli/zeta machinery and the classical congruences.

Everything here is computed in exact arithmetic (Fraction / big integers),
except the size estimate behind the printable bound `first_unprintable_index`;
p-adic reduction happens only in the callers.  The Bernoulli convention is
the one with B_1 = +1/2 throughout.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lgamma, log, pi

from .padic import _check_odd_prime, int_vp


class BernoulliCache:
    """Memoized Bernoulli numbers B_0..B_limit, extendable upward.

    Each extension runs the tangent-number triangle of Brent and Harvey
    ("Fast computation of Bernoulli, tangent and secant numbers", 2013),
    which needs only integer additions and small multiples, and stores
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) as a Fraction.  Extension is
    serialized by a lock (single-writer); reads of already computed entries
    are safe concurrently.
    """

    def __init__(self, limit: int = 32):
        self._lock = threading.Lock()
        self._even = [Fraction(1)]  # _even[k] = B_2k
        self._limit = -1
        self.extend(limit)

    @property
    def limit(self) -> int:
        return self._limit

    def extend(self, new_limit: int) -> None:
        with self._lock:
            if new_limit <= self._limit:
                return
            n = new_limit // 2
            t = [0, 1] + [0] * (n - 1)  # t[j] ends as the tangent number T_j
            for j in range(2, n + 1):
                t[j] = (j - 1) * t[j - 1]
            for k in range(2, n + 1):
                for j in range(k, n + 1):
                    t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
            self._even += [
                Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
                for k in range(len(self._even), n + 1)
            ]
            self._limit = new_limit

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        if n == 1:
            return Fraction(1, 2)
        if n % 2 == 1:
            return Fraction(0)
        if n > self._limit:
            self.extend(max(n, 2 * self._limit))
        return self._even[n // 2]


_DEFAULT_CACHE = BernoulliCache()


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = +1/2; zero for odd n > 1."""
    return _DEFAULT_CACHE.value(n)


# CPython refuses to print an int of more decimal digits than this
# (sys.int_info.default_max_str_digits).
PRINTABLE_DIGITS = 4300


def numerator_log10(n: int) -> float:
    """log10 of the numerator of B_n for even n >= 2, without computing B_n.

    |B_n| = 2 n! zeta(n) / (2 pi)^n, with zeta(n) taken as 1 (it is within
    4^(-n/2) of 1), and the denominator is the product of the primes q with
    (q - 1) | n (von Staudt-Clausen).
    """
    divisors = {e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)}
    primes = [d + 1 for d in divisors if all((d + 1) % q for q in range(2, isqrt(d + 1) + 1))]
    return (log(2) + lgamma(n + 1) - n * log(2 * pi) + sum(map(log, primes))) / log(10)


@lru_cache(maxsize=None)
def first_unprintable_index() -> int:
    """The least n whose B_n has a numerator of more than PRINTABLE_DIGITS digits."""
    n = 2
    while numerator_log10(n) < PRINTABLE_DIGITS:
        n += 2
    return n


@lru_cache(maxsize=64)
def _bernoulli_poly_coeffs(n: int) -> tuple[Fraction, ...]:
    # exact values, so a memoized row never goes stale
    return tuple(Fraction(comb(n, n - j)) * bernoulli(n - j) for j in range(n + 1))


def bernoulli_poly(n: int) -> list[Fraction]:
    """Coefficients of B_n(X) = sum_i C(n,i) B_i X^(n-i), low degree first."""
    return list(_bernoulli_poly_coeffs(n))


def bernoulli_poly_eval(n: int, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(_bernoulli_poly_coeffs(n)):
        acc = acc * x + c
    return acc


def power_sum(n: int, k: int) -> Fraction:
    """S_n(k) = 1^n + ... + k^n, computed by direct summation."""
    if n < 1 or k < 1:
        raise ValueError("power_sum needs n, k >= 1")
    return Fraction(sum(a**n for a in range(1, k + 1)))


def power_sum_closed(n: int, k: int) -> Fraction:
    """The Bernoulli closed form (B_{n+1}(k) - B_{n+1}(0)) / (n+1)."""
    return (bernoulli_poly_eval(n + 1, k) - bernoulli(n + 1)) / (n + 1)


def zeta_neg(n: int) -> Fraction:
    """zeta(1-n) = -B_n/n for n >= 1."""
    if n < 1:
        raise ValueError("zeta_neg needs n >= 1")
    return -bernoulli(n) / n


def euler_stripped_zeta(n: int, p: int) -> Fraction:
    """(1 - p^(n-1)) * zeta(1-n): the zeta value with its Euler factor at p removed."""
    return (1 - Fraction(p) ** (n - 1)) * zeta_neg(n)


def vp(x, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    return int_vp(x.numerator, p) - int_vp(x.denominator, p)


@dataclass(frozen=True)
class ClausenVonStaudtReport:
    n: int
    p: int
    divides: bool  # whether p-1 | n
    integral: bool  # B_n in Z_p (resp. B_n + 1/p in Z_p)
    residue: int | None  # p*B_n mod p when p-1 | n
    passed: bool


def clausen_von_staudt_check(n: int, p: int) -> ClausenVonStaudtReport:
    """Check B_n in Z_p when (p-1) does not divide n, else p*B_n = -1 mod p."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and positive")
    b = bernoulli(n)
    if n % (p - 1) != 0:
        integral = vp(b, p) >= 0 if b else True
        return ClausenVonStaudtReport(n, p, False, integral, None, integral)
    integral = vp(b + Fraction(1, p), p) >= 0
    pb = p * b
    residue = pb.numerator * pow(pb.denominator, -1, p) % p
    passed = integral and residue == p - 1
    return ClausenVonStaudtReport(n, p, True, integral, residue, passed)


@dataclass(frozen=True)
class KummerReport:
    m: int
    n: int
    p: int
    k: int
    c: int
    lhs: Fraction
    rhs: Fraction
    diff_valuation: float
    strong_form: bool  # whether the form without (1-c^*) factors was also checked
    strong_valuation: float | None
    passed: bool


def kummer_regularized_value(m: int, p: int, c: int) -> Fraction:
    """(1 - c^m)(1 - p^(m-1)) B_m / m, the quantity the Kummer congruences compare."""
    if m < 1:
        raise ValueError("the regularized value needs m >= 1")
    return (1 - Fraction(c) ** m) * (1 - Fraction(p) ** (m - 1)) * bernoulli(m) / m


def kummer_congruence_check(m: int, n: int, p: int, k: int, c: int) -> KummerReport:
    """Verify the congruence between regularized zeta values at m and n mod p^(k+1)."""
    if c % p == 0:
        raise ValueError("c must be prime to p")
    if (m - n) % (p**k * (p - 1)) != 0:
        raise ValueError("need m = n mod p^k (p-1)")
    lhs = kummer_regularized_value(m, p, c)
    rhs = kummer_regularized_value(n, p, c)
    diff = lhs - rhs
    dval = float("inf") if diff == 0 else vp(diff, p)
    passed = dval >= k + 1
    strong = m % (p - 1) != 0 and n % (p - 1) != 0
    sval = None
    if strong:
        sl = (1 - Fraction(p) ** (m - 1)) * bernoulli(m) / m
        sr = (1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
        sd = sl - sr
        sval = float("inf") if sd == 0 else vp(sd, p)
        passed = passed and sval >= k + 1
    return KummerReport(m, n, p, k, c, lhs, rhs, dval, strong, sval, passed)


def irregular_indices(p: int) -> set[int]:
    """Even n with 2 <= n <= p-3 and p | zeta(1-n); empty iff p is regular."""
    _check_odd_prime(p)
    out = set()
    for n in range(2, p - 2, 2):
        if vp(zeta_neg(n), p) >= 1:
            out.add(n)
    return out
