"""Measures on Z_p through the series dictionary Lambda(Z_p) = Z_p[[T]].

A measure is just a TruncatedSeries; the group element [x] corresponds to
the Dirac measure at x and to the series (1+T)^x.  Continuous functions are
represented by finite Mahler coefficient vectors only; everything downstream
needs monomials and characters, so there is no callable abstraction.

Restriction to Z_p^x is computed inside Z_p by binomial averaging (the
mu_p-average of g(xi(1+T)-1) expanded coefficientwise), so no p-th roots of
unity are needed.  Because the averaging mixes T-degrees, the coefficient of
T^j in the result is only reliable modulo p^ceil((M-j)/(p-1)) relative to the
discarded tail; callers wanting n-th moments to full p-precision N should
choose M >= n + N*(p-1).
"""

from __future__ import annotations

from math import comb

from .iwaseries import TruncatedSeries
from .padic import PadicNumber, padic_binomial


def dirac(a, p: int = None, trunc: int = None, prec: int = None) -> TruncatedSeries:
    """The Dirac measure at a, i.e. the series (1+T)^a = sum binom(a, n) T^n."""
    if isinstance(a, PadicNumber):
        p = a.prime
        if a.valuation is not None and a.valuation < 0:
            raise ValueError("Dirac point must lie in Z_p")
        coeffs = []
        for n in range(trunc):
            b = padic_binomial(a, n)
            coeffs.append(0 if b.is_zero else int(b.lift() % p**prec))
        return TruncatedSeries(p, coeffs, prec)
    if a != int(a):
        raise ValueError("Dirac point must be an integer or a PadicNumber")
    coeffs = []
    c = 1
    for n in range(trunc):
        if n:
            c = c * (a - n + 1) // n  # exact: the product is n * C(a, n)
        coeffs.append(c)
    return TruncatedSeries(p, coeffs, prec, polynomial=(0 <= a < trunc))


def convolve(mu1: TruncatedSeries, mu2: TruncatedSeries) -> TruncatedSeries:
    """Convolution of measures = product of the corresponding series."""
    return mu1 * mu2


def total_mass(mu: TruncatedSeries) -> PadicNumber:
    """Integral of the constant function 1, i.e. the constant coefficient."""
    return mu.coeff(0)


def moment(mu: TruncatedSeries, n: int) -> PadicNumber:
    """Integral of x^n, computed as (D^n g)(0) with D = (1+T) d/dT."""
    if n >= mu.trunc:
        raise ValueError(f"moment {n} needs truncation > {n}")
    g = mu
    for _ in range(n):
        g = g.d_operator()
    return g.coeff(0)


def mahler_pairing(g: TruncatedSeries, mahler_coeffs) -> PadicNumber:
    """Integrate the function with the given Mahler coefficients: sum a_n b_n."""
    if len(mahler_coeffs) > g.trunc:
        raise ValueError("more Mahler coefficients than known series coefficients")
    total = PadicNumber.zero(g.prime)
    for n, a in enumerate(mahler_coeffs):
        b = g.coeff(n)
        if isinstance(a, PadicNumber):
            term = a * b
        else:
            term = b * a
        total = total + term
    return total


def mahler_of_monomial(n: int, length: int) -> list[int]:
    """Mahler coefficients of x -> x^n via iterated finite differences at 0."""
    out = []
    for k in range(length):
        if k > n:
            out.append(0)
            continue
        out.append(sum((-1) ** (k - i) * comb(k, i) * i**n for i in range(k + 1)))
    return out


def restrict_to_units(g: TruncatedSeries) -> TruncatedSeries:
    """The measure restricted to Z_p^x, as a series.

    Computes g minus the mu_p-average of g(xi(1+T)-1), using that the
    xi-average of (xi(1+T)-1)^n equals
      sum over k = 0, p, 2p, ... <= n of C(n,k) (-1)^(n-k) (1+T)^k.
    """
    p, M, N = g.prime, g.trunc, g.prec
    mod = p**N
    avg = [0] * M
    for n in range(M):
        a = g.coeffs[n]
        if a == 0:
            continue
        for k in range(0, n + 1, p):
            c = comb(n, k) * (-1) ** (n - k) % mod
            if c == 0:
                continue
            ac = a * c % mod
            # add ac * (1+T)^k
            for j in range(min(k, M - 1) + 1):
                avg[j] = (avg[j] + ac * comb(k, j)) % mod
    out = [(x - y) % mod for x, y in zip(g.coeffs, avg)]
    return TruncatedSeries(p, out, N)
