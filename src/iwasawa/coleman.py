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

from fractions import Fraction
from math import gcd

from . import measures
from .iwaseries import TruncatedSeries, mul_trunc, omega_poly
from .padic import PadicNumber, int_vp


def w_series(k: int, p: int, trunc: int, prec: int) -> TruncatedSeries:
    """((1+X)^(-k/2) - (1+X)^(k/2))/X, a unit series with constant term -k.

    C(h, n) = C(h, n-1) (h-n+1)/n runs as an exact Fraction product for
    h = +-k/2, not mod p^prec, since n may be divisible by p.  Only 2
    divides its denominators, so each difference reduces mod p^prec.
    """
    if k % p == 0:
        raise ValueError("k must be prime to p")
    mod = p**prec
    plus = minus = Fraction(1)
    coeffs = []
    for n in range(1, trunc + 1):
        plus *= Fraction(k - 2 * n + 2, 2 * n)
        minus *= Fraction(-k - 2 * n + 2, 2 * n)
        b = minus - plus
        coeffs.append(b.numerator * pow(b.denominator, -1, mod) % mod)
    return TruncatedSeries(p, coeffs, prec)


def coleman_unit(a: int, b: int, p: int, trunc: int, prec: int) -> TruncatedSeries:
    """The Coleman series w_a / w_b of the cyclotomic unit tower c(a, b)."""
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    if a % p == 0 or b % p == 0:
        raise ValueError("a and b must be prime to p")
    return w_series(a, p, trunc, prec) * w_series(b, p, trunc, prec).invert_unit()


def _log_one_plus(u: TruncatedSeries) -> TruncatedSeries:
    """log(1+u) for u with all coefficients divisible by p, lossless mod p^N.

    Terms u^m/m are computed with a small internal modulus buffer so the
    exact divisions by powers of p inside 1/m lose nothing.
    """
    p, M, N = u.prime, u.trunc, u.prec
    buffer = 1
    while p**buffer <= N + 2:
        buffer += 1
    K = N + buffer
    modK = p**K
    ucoef = [c % modK for c in u.coeffs]
    if any(c % p for c in ucoef):
        raise AssertionError("log argument is not congruent to 1 mod p")
    acc = [0] * M
    power = list(ucoef)
    m = 1
    while any(power) and m <= N + buffer + 1:
        e = int_vp(m, p) if m % p == 0 else 0
        minv = pow(m // p**e, -1, modK)
        for j in range(M):
            t = power[j]
            if t:
                if t % p**e:
                    raise AssertionError("precision bug: term not divisible by its index")
                acc[j] = (acc[j] + (-1) ** (m + 1) * (t // p**e) * minv) % modK
        m += 1
        power = mul_trunc(power, ucoef, modK, M)
    return TruncatedSeries(p, [c % p**N for c in acc], N)


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
    fp = f
    for _ in range(p - 1):
        fp = fp * f
    g = fp * f.substitute(target).invert_unit()
    u = g - TruncatedSeries.one(p, M, N)
    logg = _log_one_plus(u)
    out = []
    for c in logg.coeffs:
        if c % p:
            raise AssertionError("log coefficients must be divisible by p (precision bug)")
        out.append(c // p)
    return TruncatedSeries(p, out, N - 1)


def omega_like(p: int, trunc: int) -> list[int]:
    """(1+T)^p - 1 as an integer polynomial (the level-one tower map)."""
    return omega_poly(p, 1)[:trunc]


def delta_n(f: TruncatedSeries, n: int) -> PadicNumber:
    """(D^(n-1) ((1+X) f'/f))(0), the n-th logarithmic moment of the unit."""
    if n < 1:
        raise ValueError("need n >= 1")
    if f.trunc < n + 1:
        raise ValueError("truncation exhausted: need trunc >= n+1")
    return measures.moment(f.d_operator() * _shrink(f.invert_unit(), f.trunc - 1), n - 1)


def _shrink(f: TruncatedSeries, new_trunc: int) -> TruncatedSeries:
    return TruncatedSeries(f.prime, f.coeffs[:new_trunc], f.prec)


def lambda_unit_measure(a: int, b: int, p: int, trunc: int, prec: int) -> TruncatedSeries:
    """The measure on Z_p^x attached to the unit tower c(a, b).

    Internally one extra p-digit is carried so the division inside the
    log-derivative step is lossless; the result is exact mod p^prec.
    """
    f = coleman_unit(a, b, p, trunc, prec + 1)
    return measures.restrict_to_units(log_derivative_measure(f))


def zeta_moment(n: int, a: int, b: int, p: int, trunc: int, prec: int) -> PadicNumber:
    """(1 - p^(n-1)) zeta(1-n) recovered as moment(lambda_(c(a,b)), n)/(b^n - a^n)."""
    lam = lambda_unit_measure(a, b, p, trunc, prec)
    mom = measures.moment(lam, n)
    den = PadicNumber.from_int(b**n - a**n, p, prec)
    if den.is_zero:
        raise ValueError("b^n - a^n vanishes at this precision")
    return mom / den
