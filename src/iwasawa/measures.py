"""Measures on Z_p through the series dictionary Lambda(Z_p) = Z_p[[T]].

A measure is just a TruncatedSeries; the group element [x] corresponds to
the Dirac measure at x and to the series (1+T)^x.  Continuous functions are
represented by finite Mahler coefficient vectors only; everything downstream
needs monomials and characters, so there is no callable abstraction.

Restriction to Z_p^x is computed inside Z_p by two Taylor shifts: in the
variable X = 1+T the mu_p-average of g(xi X - 1) keeps exactly the powers
X^k with p | k, so no p-th roots of unity are needed.  Because the averaging
mixes T-degrees, the coefficient of T^j in the result is only reliable modulo
p^ceil((M-j)/(p-1)) relative to the discarded tail; callers wanting n-th
moments to full p-precision N should choose M >= n + N*(p-1).
"""

from __future__ import annotations

from .iwaseries import TruncatedSeries, binomial_row, floor_log, inverse_taylor_shift, taylor_shift
from .padic import PadicNumber


def dirac(a, p: int = None, trunc: int = None, prec: int = None) -> TruncatedSeries:
    """The Dirac measure at a, i.e. the series (1+T)^a = sum binom(a, n) T^n.

    A p-adic point known mod p^k is read on its integer lift, and the row is
    certified mod p^(k - floor(log_p(trunc - 1))): C(a+h, n) - C(a, n) is
    divisible by p^(v_p(h) - floor(log_p n)).
    """
    if isinstance(a, PadicNumber):
        p = a.prime
        if a.abs_precision is not None:
            if a.valuation < 0:
                raise ValueError("Dirac point must lie in Z_p")
            prec = min(prec, a.abs_precision - floor_log(p, trunc - 1))
            if prec < 1:
                raise ValueError(f"a point known mod {p}^{a.abs_precision} certifies no digit of {trunc} Dirac coefficients")
        a = int(a.lift())
    if a != int(a):
        raise ValueError("Dirac point must be an integer or a PadicNumber")
    return TruncatedSeries(p, binomial_row(int(a), trunc), prec)


def moments(mu: TruncatedSeries, n_max: int) -> list[PadicNumber]:
    """Integrals of x^0, ..., x^n_max: D = (1+T) d/dT is applied once per step
    and each constant term (D^n g)(0) read."""
    if n_max >= mu.trunc:
        raise ValueError(f"moment {n_max} needs truncation > {n_max}")
    g = mu
    out = [g.coeff(0)]
    for _ in range(n_max):
        g = g.d_operator()
        out.append(g.coeff(0))
    return out


def moment(mu: TruncatedSeries, n: int) -> PadicNumber:
    """Integral of x^n, the last of `moments(mu, n)`."""
    return moments(mu, n)[-1]


def mahler_pairing(g: TruncatedSeries, mahler_coeffs) -> PadicNumber:
    """Integrate the function with the given Mahler coefficients: sum a_n b_n."""
    if len(mahler_coeffs) > g.trunc:
        raise ValueError("more Mahler coefficients than known series coefficients")
    total = PadicNumber.zero(g.prime)
    for n, a in enumerate(mahler_coeffs):
        total = total + g.coeff(n) * a
    return total


def mahler_of_monomial(n: int, length: int) -> list[int]:
    """Mahler coefficients of x -> x^n via iterated finite differences at 0."""
    values = [x**n for x in range(length)]
    out = []
    for _ in range(length):
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def restrict_to_units(g: TruncatedSeries) -> TruncatedSeries:
    """The measure restricted to Z_p^x, as a series.

    Computes g minus the mu_p-average of g(xi(1+T)-1): written in X = 1+T,
    g(T) = sum_k h_k X^k, and the xi-average of (xi X)^k is X^k when p | k
    and 0 otherwise.
    """
    p, N = g.prime, g.prec
    mod = p**N
    h = inverse_taylor_shift(g.coeffs, mod)
    avg = taylor_shift([v if k % p == 0 else 0 for k, v in enumerate(h)], mod)
    return TruncatedSeries(p, [x - y for x, y in zip(g.coeffs, avg)], N)
