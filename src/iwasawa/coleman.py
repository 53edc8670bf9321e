"""Explicit Coleman series for cyclotomic units and the measure-theoretic
route to the p-adic zeta values.

The only series needed are the explicit w_k = ((1+X)^(-k/2) - (1+X)^(k/2))/X
and their quotients; the general existence theorem for norm-compatible unit
towers is deliberately not implemented.  The pipeline is

    unit quotient  --log-derivative trick-->  measure on Z_p
                   --restriction to Z_p^x-->  measure whose n-th moment is
                                              (1 - p^(n-1)) (b^n - a^n) zeta(1-n).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import measures
from .iwaseries import TruncatedSeries, binomial_row, floor_log, log_one_plus, omega_poly
from .padic import PadicNumber


def w_series(k: int, p: int, trunc: int, prec: int) -> TruncatedSeries:
    """((1+X)^(-k/2) - (1+X)^(k/2))/X, a unit series with constant term -k.

    The binomial rows C(+-k/2, n), n <= trunc, are integer rows at lifts of
    +-k/2 mod p^(prec + floor(log_p trunc)).  C(x+h, n) - C(x, n) is divisible
    by p^(v_p(h) - floor(log_p n)), the bound `measures.dirac` certifies, so
    each coefficient is exact mod p^prec.
    """
    if k % p == 0:
        raise ValueError("k must be prime to p")
    lift_mod = p ** (prec + floor_log(p, trunc))
    half = k * pow(2, -1, lift_mod)
    plus = binomial_row(half % lift_mod, trunc + 1)
    minus = binomial_row(-half % lift_mod, trunc + 1)
    return TruncatedSeries(p, [x - y for x, y in zip(minus[1:], plus[1:])], prec)


def coleman_unit(a: int, b: int, p: int, trunc: int, prec: int) -> TruncatedSeries:
    """The Coleman series w_a / w_b of the cyclotomic unit tower c(a, b)."""
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    if a % p == 0 or b % p == 0:
        raise ValueError("a and b must be prime to p")
    return w_series(a, p, trunc, prec) * w_series(b, p, trunc, prec).invert_unit()


def log_derivative_measure(f: TruncatedSeries) -> TruncatedSeries:
    """(1/p) log(f(T)^p / f((1+T)^p - 1)) as a series of one less p-digit.

    The inner quotient is congruent to 1 mod p, the logarithm is computed
    losslessly, and every coefficient is checked to be divisible by p before
    the division; failure signals a precision bug upstream.
    """
    p, M, N = f.prime, f.trunc, f.prec
    if f.coeffs[0] % p == 0:
        raise ValueError("log-derivative trick needs a unit series")
    target = TruncatedSeries.from_integer_poly(omega_like(p, M), p, M, N)
    g = f**p * f.substitute(target).invert_unit()
    u = g - TruncatedSeries.one(p, M, N)
    logg = log_one_plus(u)
    if any(c % p for c in logg.coeffs):
        raise AssertionError("log coefficients must be divisible by p (precision bug)")
    return TruncatedSeries(p, [c // p for c in logg.coeffs], N - 1)


def omega_like(p: int, trunc: int) -> list[int]:
    """(1+T)^p - 1 as an integer polynomial (the level-one tower map)."""
    return omega_poly(p, 1)[:trunc]


def delta_n(f: TruncatedSeries, n: int) -> PadicNumber:
    """(D^(n-1) ((1+X) f'/f))(0), the n-th logarithmic moment of the unit."""
    if n < 1:
        raise ValueError("need n >= 1")
    if f.trunc < n + 1:
        raise ValueError("truncation exhausted: need trunc >= n+1")
    inv = TruncatedSeries(f.prime, f.invert_unit().coeffs[: f.trunc - 1], f.prec)
    return measures.moment(f.d_operator() * inv, n - 1)


@lru_cache(maxsize=1)
def lambda_unit_measure(a: int, b: int, p: int, trunc: int, prec: int) -> TruncatedSeries:
    """The measure on Z_p^x attached to the unit tower c(a, b).

    Internally one extra p-digit is carried so the division inside the
    log-derivative step is lossless; the result is exact mod p^prec.  It does
    not depend on the moment read from it, so the last window is kept (series
    are immutable) and moments read one n at a time share one build.
    """
    f = coleman_unit(a, b, p, trunc, prec + 1)
    return measures.restrict_to_units(log_derivative_measure(f))


def zeta_moments(ns, a: int, b: int, p: int, trunc: int, prec: int) -> list[PadicNumber]:
    """zeta_moment for every n in ns, all read from one measure."""
    ns = list(ns)
    moms = measures.moments(lambda_unit_measure(a, b, p, trunc, prec), max(ns, default=0))
    return [_over_unit_pair(moms[n], n, a, b, p, prec) for n in ns]


def zeta_moment(n: int, a: int, b: int, p: int, trunc: int, prec: int) -> PadicNumber:
    """(1 - p^(n-1)) zeta(1-n) recovered as moment(lambda_(c(a,b)), n)/(b^n - a^n)."""
    mom = measures.moment(lambda_unit_measure(a, b, p, trunc, prec), n)
    return _over_unit_pair(mom, n, a, b, p, prec)


def _over_unit_pair(mom: PadicNumber, n: int, a: int, b: int, p: int, prec: int) -> PadicNumber:
    """mom / (b^n - a^n), refused when the divisor is 0 mod p^prec."""
    den = PadicNumber.from_int(b**n - a**n, p, prec)
    if den.is_zero:
        raise ValueError("b^n - a^n vanishes at this precision")
    return mom / den
