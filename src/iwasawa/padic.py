"""Fixed-precision arithmetic in Q_p for odd p.

Values are stored in floating style as p^valuation * mantissa with the
mantissa a unit known modulo p^precision, so elements of negative valuation
(Stickelberger denominators) are first class.  Exact zero is a distinguished
state.  All values are immutable; operations return new numbers and track
precision loss on cancellation conservatively.  Powers u^s and Teichmuller
lifts are one modular `pow` on integer lifts, and `plog` runs on the series
logarithm `iwaseries.log_one_plus`; each reports only the digits it certifies.
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
        _check_odd_prime(prime)
        self.prime = prime
        if mantissa is None:
            # exact zero
            self.valuation = None
            self.mantissa = None
            self.precision = None
            return
        if precision < 1:
            raise PadicError("precision must be >= 1")
        m = mantissa % prime**precision
        if m % prime == 0:
            raise PadicError("mantissa must be a p-adic unit")
        self.valuation = valuation
        self.mantissa = m
        self.precision = precision

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(p: int) -> "PadicNumber":
        return PadicNumber(p, None, None, None)

    @staticmethod
    def from_int(n: int, p: int, prec: int) -> "PadicNumber":
        if n == 0:
            return PadicNumber.zero(p)
        v = int_vp(n, p)
        return PadicNumber(p, v, n // p**v, prec)

    @staticmethod
    def from_rational(q, p: int, prec: int) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return PadicNumber.zero(p)
        vn = int_vp(q.numerator, p) if q.numerator else 0
        vd = int_vp(q.denominator, p)
        num = q.numerator // p**vn
        den = q.denominator // p**vd
        m = num * pow(den, -1, p**prec)
        return PadicNumber(p, vn - vd, m, prec)

    @staticmethod
    def one(p: int, prec: int) -> "PadicNumber":
        return PadicNumber(p, 0, 1, prec)

    # -- state ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mantissa is None

    @property
    def abs_precision(self):
        """The value is known modulo p^abs_precision."""
        if self.is_zero:
            return None
        return self.valuation + self.precision

    def residue(self) -> int:
        """Value mod p; requires valuation >= 0."""
        if self.is_zero:
            return 0
        if self.valuation > 0:
            return 0
        if self.valuation < 0:
            raise PadicError("residue of a non-integral value")
        return self.mantissa % self.prime

    def lift(self) -> Fraction:
        """The representative p^v * mantissa as an exact rational."""
        if self.is_zero:
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
            if self.is_zero:
                return PadicNumber.from_rational(other, self.prime, 1)
            # exact operand: enough relative digits that it never limits the
            # result, whether the operation compares absolute precisions
            # (addition) or relative ones (multiplication)
            q = Fraction(other)
            vq = int_vp(q.numerator, self.prime) - int_vp(q.denominator, self.prime)
            rel = max(self.precision, self.abs_precision - vq + 1, 1)
            return PadicNumber.from_rational(q, self.prime, rel)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        p = self.prime
        v = min(self.valuation, o.valuation)
        absprec = min(self.abs_precision, o.abs_precision)
        window = absprec - v
        m = p**window
        val = (self.mantissa * p ** (self.valuation - v) + o.mantissa * p ** (o.valuation - v)) % m
        if val == 0:
            return PadicNumber.zero(p)
        shift = int_vp(val, p)
        rel = window - shift
        if rel < 1:
            return PadicNumber.zero(p)
        return PadicNumber(p, v + shift, val // p**shift, rel)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return PadicNumber.zero(self.prime)
        prec = min(self.precision, o.precision)
        return PadicNumber(self.prime, self.valuation + o.valuation, self.mantissa * o.mantissa, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.is_zero:
            raise PadicError("inversion of exact zero")
        p, n = self.prime, self.precision
        return PadicNumber(p, -self.valuation, pow(self.mantissa, -1, p**n), n)

    def __truediv__(self, other):
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
        if self.is_zero:
            return PadicNumber.zero(self.prime) if n else PadicNumber.one(self.prime, 1)
        if n == 0:
            return PadicNumber.one(self.prime, self.precision)
        p, prec = self.prime, self.precision
        m = pow(self.mantissa, n, p**prec)
        return PadicNumber(p, n * self.valuation, m, prec)

    # -- comparison helpers ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # exact operand: compare values at this number's precision
            if self.is_zero:
                return other == 0
            return self.agrees(self._coerce(other), self.abs_precision)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.prime != other.prime:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return (self.valuation, self.mantissa, self.precision) == (
            other.valuation,
            other.mantissa,
            other.precision,
        )

    # `==` against an exact number holds to self's precision only, so no hash
    # can agree with it: p-adic numbers are not hashable.
    __hash__ = None

    def agrees(self, other, abs_prec: int) -> bool:
        """True when self - other vanishes modulo p^abs_prec."""
        d = self - other
        return d.is_zero or d.valuation >= abs_prec

    def __repr__(self):
        if self.is_zero:
            return f"O({self.prime}^inf)*0"
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
    if u.is_zero or u.valuation != 0 or u.mantissa % p != 1:
        raise PadicError("plog requires an argument in 1 + pZ_p")
    absprec = u.abs_precision
    (c,) = log_one_plus(TruncatedSeries(p, [u.mantissa - 1], absprec)).coeffs
    return from_rational_abs(Fraction(c), p, absprec)


def pexp(x: PadicNumber) -> PadicNumber:
    """Exponential on pZ_p; returns an element of 1 + pZ_p."""
    p = x.prime
    if x.is_zero:
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
    if s.is_zero:
        return PadicNumber.one(p, u.precision)
    if s.valuation < 0:
        raise PadicError("exponent must lie in Z_p")
    if u.is_zero or u.valuation != 0 or u.mantissa % p != 1:
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
    if x.is_zero:
        # binom(0, 0) = 1 exactly; higher coefficients vanish with x
        return PadicNumber.one(x.prime, 1) if n == 0 else PadicNumber.zero(x.prime)
    if n == 0:
        return PadicNumber.one(x.prime, x.precision)
    acc = PadicNumber.one(x.prime, x.precision)
    for i in range(n):
        acc = acc * (x - i)
        if acc.is_zero:
            return acc
    return acc / PadicNumber.from_int(factorial(n), x.prime, x.precision)


# -- internal helpers ------------------------------------------------------


def from_rational_abs(q: Fraction, p: int, absprec: int) -> PadicNumber:
    """Rational q as a p-adic value known modulo p^absprec."""
    if q == 0:
        return PadicNumber.zero(p)
    v = int_vp(q.numerator, p) - int_vp(q.denominator, p)
    if v >= absprec:
        return PadicNumber.zero(p)
    return PadicNumber.from_rational(q, p, absprec - v)
