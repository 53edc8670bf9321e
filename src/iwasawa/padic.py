"""Fixed-precision arithmetic in Q_p for odd p.

Values are stored in floating style as p^valuation * mantissa with the
mantissa a unit known modulo p^precision, so elements of negative valuation
(Stickelberger denominators) are first class.  Every value is known modulo
p^abs_precision, zero included: O(p^k) is the zero known mod p^k (mantissa 0,
valuation k, precision 0), and a sum or product carries the absolute
precision min(a_x, a_y) or min(a_x + v_y, a_y + v_x) whether or not it
cancels.  Only exact inputs give the exact zero (`PadicNumber.zero`).  All
values are immutable.  Powers u^s and Teichmuller lifts are one modular
`pow` on integer lifts, and `plog` runs on the series logarithm
`iwaseries.log_one_plus`; each reports only the digits it certifies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial


class PadicError(ValueError):
    pass


# trial division up to sqrt(p) takes 0.1 s just below 2^40 on a 2-vCPU x86 VM
MAX_PRIME_BITS = 40


@lru_cache(maxsize=None)
def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise PadicError("p = 2 is not supported (odd primes only)")
    if p >= 2**MAX_PRIME_BITS:
        raise PadicError(f"p = {p} is too large (primes below 2^{MAX_PRIME_BITS} only)")
    if p < 3 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise PadicError(f"{p} is not an odd prime")


def int_vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise PadicError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber:
    """An element of Q_p known to `precision` significant p-adic digits."""

    __slots__ = ("prime", "valuation", "mantissa", "precision")

    def __init__(self, prime, valuation, mantissa, precision):
        """p^valuation * mantissa known modulo p^(valuation + precision), for any
        integer mantissa; a mantissa of None is the exact zero."""
        _check_odd_prime(prime)
        self.prime = prime
        if mantissa is None:
            self.valuation = None
            self.mantissa = None
            self.precision = None
            return
        m = mantissa % prime**precision if precision > 0 else 0
        if not m:
            # zero to its precision: O(p^(valuation + precision))
            valuation, precision = valuation + precision, 0
        elif m % prime == 0:
            s = int_vp(m, prime)
            valuation, m, precision = valuation + s, m // prime**s, precision - s
        self.valuation = valuation
        self.mantissa = m
        self.precision = precision

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(p: int) -> "PadicNumber":
        """The exact zero."""
        return PadicNumber(p, None, None, None)

    @staticmethod
    def from_int(n: int, p: int, prec: int) -> "PadicNumber":
        """n to prec significant digits; 0 is known mod p^prec."""
        v = int_vp(n, p) if n else 0
        return PadicNumber(p, v, n // p**v, prec)

    @staticmethod
    def from_rational(q, p: int, prec: int) -> "PadicNumber":
        """q to prec significant digits; 0 is known mod p^prec."""
        q = Fraction(q)
        v = int_vp(q.numerator, p) - int_vp(q.denominator, p) if q else 0
        return from_rational_abs(q, p, v + prec)

    @staticmethod
    def one(p: int, prec: int) -> "PadicNumber":
        return PadicNumber(p, 0, 1, prec)

    # -- state ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Zero to its precision (the exact zero included)."""
        return not self.mantissa

    @property
    def abs_precision(self):
        """The value is known modulo p^abs_precision; None for the exact zero."""
        if self.mantissa is None:
            return None
        return self.valuation + self.precision

    def residue(self) -> int:
        """Value mod p; requires valuation >= 0 and the value known mod p."""
        if self.mantissa is None:
            return 0
        if self.valuation < 0 or self.abs_precision < 1:
            raise PadicError("residue of a value not known to be integral mod p")
        return self.mantissa % self.prime if self.valuation == 0 else 0

    def lift(self) -> Fraction:
        """The representative p^v * mantissa as an exact rational."""
        if self.mantissa is None:
            return Fraction(0)
        return Fraction(self.prime) ** self.valuation * self.mantissa

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.prime != self.prime:
                raise PadicError("prime mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return PadicNumber.zero(self.prime)
            if self.mantissa is None:
                raise PadicError("an exact zero and an exact rational leave no precision to report")
            # exact operand: enough digits that it never limits the result,
            # whether the operation compares absolute precisions (addition)
            # or relative ones (multiplication)
            q = Fraction(other)
            vq = int_vp(q.numerator, self.prime) - int_vp(q.denominator, self.prime)
            return from_rational_abs(q, self.prime, max(self.abs_precision, vq + max(self.precision, 1)))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.mantissa is None:
            return o
        if o.mantissa is None:
            return self
        p = self.prime
        v = min(self.valuation, o.valuation)
        val = self.mantissa * p ** (self.valuation - v) + o.mantissa * p ** (o.valuation - v)
        return PadicNumber(p, v, val, min(self.abs_precision, o.abs_precision) - v)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicNumber(self.prime, self.valuation, -self.mantissa, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self.mantissa is None and isinstance(other, (int, Fraction)):
            return self  # the exact zero times an exact rational
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.mantissa is None or o.mantissa is None:
            return PadicNumber.zero(self.prime)
        prec = min(self.precision, o.precision)
        return PadicNumber(self.prime, self.valuation + o.valuation, self.mantissa * o.mantissa, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.is_zero:
            raise PadicError("inversion of a value that is zero to its precision")
        p, n = self.prime, self.precision
        return PadicNumber(p, -self.valuation, pow(self.mantissa, -1, p**n), n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (1 / Fraction(other))  # an exact divisor stays exact
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if self.mantissa is None:
            return self if n else PadicNumber.one(self.prime, 1)
        p, prec = self.prime, self.precision
        return PadicNumber(p, n * self.valuation, pow(self.mantissa, n, p**prec), prec)

    # -- comparison helpers ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # exact operand: compare values at this number's precision
            if self.mantissa is None:
                return other == 0
            return self.agrees(self._coerce(other), self.abs_precision)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self.prime, self.valuation, self.mantissa, self.precision) == (
            other.prime,
            other.valuation,
            other.mantissa,
            other.precision,
        )

    # `==` against an exact number holds to self's precision only, so no hash
    # can agree with it: p-adic numbers are not hashable.
    __hash__ = None

    def agrees(self, other, abs_prec: int) -> bool:
        """True when self - other is known to vanish modulo p^abs_prec: an
        O(p^j) difference agrees only for abs_prec <= j."""
        d = self - other
        return d.mantissa is None or d.valuation >= abs_prec

    def __repr__(self):
        if self.mantissa is None:
            return f"O({self.prime}^inf)*0"
        if not self.mantissa:
            return f"O({self.prime}^{self.abs_precision})"
        return f"{self.mantissa}*{self.prime}^{self.valuation} + O({self.prime}^{self.abs_precision})"


def vp_diff(x: PadicNumber, y) -> float:
    """Valuation of x - y, or +inf when indistinguishable from zero."""
    d = x - y
    return float("inf") if d.is_zero else d.valuation


# -- Teichmuller lifts and the unit-group decomposition -----------------


def teichmuller(a: int, p: int, prec: int) -> PadicNumber:
    """The (p-1)-th root of unity congruent to a mod p: a^(p^(prec-1)) mod p^prec."""
    _check_odd_prime(p)
    if a % p == 0:
        raise PadicError("argument divisible by p has no Teichmuller lift")
    if prec < 1:
        raise PadicError("precision must be >= 1")
    return PadicNumber(p, 0, pow(a, p ** (prec - 1), p**prec), prec)


def decompose_unit(z: PadicNumber):
    """Split a unit as (torsion part, principal part) per Z_p^x = mu_{p-1} x (1+pZ_p)."""
    if z.is_zero or z.valuation != 0:
        raise PadicError("decompose_unit requires a p-adic unit")
    t = teichmuller(z.residue(), z.prime, z.precision)
    return t, z / t


# -- log / exp on the principal units ------------------------------------


def plog(u: PadicNumber) -> PadicNumber:
    """Logarithm on 1 + pZ_p; returns an element of pZ_p known to the absolute
    precision of u (log is an isometry there for odd p).  The kernel is
    `iwaseries.log_one_plus` on a one-coefficient series."""
    from .iwaseries import TruncatedSeries, log_one_plus  # iwaseries imports this module

    p = u.prime
    if u.valuation != 0 or u.mantissa % p != 1:
        raise PadicError("plog requires an argument in 1 + pZ_p")
    absprec = u.abs_precision
    (c,) = log_one_plus(TruncatedSeries(p, [u.mantissa - 1], absprec)).coeffs
    return from_rational_abs(Fraction(c), p, absprec)


def pexp(x: PadicNumber) -> PadicNumber:
    """Exponential on pZ_p; returns an element of 1 + pZ_p."""
    p = x.prime
    if x.mantissa is None:
        return PadicNumber.one(p, 1)
    if x.valuation < 1:
        raise PadicError("pexp requires an argument in pZ_p")
    absprec = x.abs_precision
    big = x.lift()
    total = Fraction(1)
    n = 1
    term = Fraction(1)
    while n * x.valuation - (n - 1) // (p - 1) - 1 < absprec:
        term = term * big / n
        total += term
        n += 1
    return from_rational_abs(total, p, absprec)


def unit_power(u: PadicNumber, s) -> PadicNumber:
    """u^s for u in 1+pZ_p and s in Z_p.

    A p-adic s is read on the integer lifts U and S of u and s: u^s is
    U^(S mod p^(K-1)) mod p^K, since U^(p^(K-1)) = 1 mod p^K, with
    K = min(A + v_p(s), B + v_p(u-1)) for A and B the absolute precisions of
    u and s (v_p(u-1) read as A when u = 1 + O(p^A)).  Moving u by p^A moves
    s log u by p^(A+v_p(s)), moving s by p^B moves it by p^(B+v_p(u-1)), and
    exp is an isometry on pZ_p.
    """
    if isinstance(s, int):
        return u**s
    p = u.prime
    if s.mantissa is None:
        return PadicNumber.one(p, u.precision)
    if s.valuation < 0:
        raise PadicError("exponent must lie in Z_p")
    if u.valuation != 0 or u.mantissa % p != 1:
        raise PadicError("unit_power requires a base in 1 + pZ_p")
    A = u.precision
    K = min(A + s.valuation, s.abs_precision + (int_vp(u.mantissa - 1, p) if u.mantissa != 1 else A))
    S = s.mantissa * p**s.valuation % p ** (K - 1)
    return PadicNumber(p, 0, pow(u.mantissa, S, p**K), K)


def padic_binomial(x, n: int, p: int = None, prec: int = None) -> PadicNumber:
    """Binomial coefficient x(x-1)...(x-n+1)/n! as an element of Q_p."""
    if n < 0:
        raise PadicError("binomial index must be nonnegative")
    if isinstance(x, (int, Fraction)):
        if p is None or prec is None:
            raise PadicError("exact argument needs explicit prime and precision")
        q = Fraction(1)
        for i in range(n):
            q *= Fraction(x) - i
        q /= factorial(n)
        return PadicNumber.from_rational(q, p, prec)
    if x.mantissa is None:
        # binom(0, 0) = 1 exactly; higher coefficients vanish with x
        return PadicNumber.one(x.prime, 1) if n == 0 else x
    acc = PadicNumber.one(x.prime, max(x.precision, 1))
    for i in range(n):
        acc = acc * (x - i)
    return acc / factorial(n)


# -- internal helpers ------------------------------------------------------


def from_rational_abs(q: Fraction, p: int, absprec: int) -> PadicNumber:
    """Rational q as a p-adic value known modulo p^absprec."""
    vd = int_vp(q.denominator, p)
    rel = absprec + vd  # digits counted from p^-vd
    den = q.denominator // p**vd
    return PadicNumber(p, -vd, q.numerator * pow(den, -1, p ** max(rel, 0)), rel)
