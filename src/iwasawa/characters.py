"""Dirichlet characters with values in Z_p, and their Bernoulli numbers.

Only characters of order dividing p-1 are representable: values live in
mu_(p-1), embedded in Z_p^x as Teichmuller lifts.  Internally a character
stores, for each unit a mod m, the exponent e with chi(a) = zeta^e, where
zeta is the Teichmuller lift of the least primitive root mod p.  This keeps
multiplicativity, conductors and character products exact; p-adic digits
enter only when a value is materialized.

`teichmuller_table` is the package's one coordinate change on the mu_(p-1)
factor of Z_p^x = mu_(p-1) x (1+pZ_p): the powers of zeta mod p^K, the index
of each residue and the inverse Teichmuller lifts, cached per (p, K).  Every
character value, idempotent and level table reads zeta from it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import exactq
from .padic import PadicNumber, from_rational_abs, int_vp, teichmuller


@lru_cache(maxsize=None)
def least_primitive_root(p: int) -> int:
    order = p - 1
    factors = set()
    n = order
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"{p} has no primitive root")


TeichmullerTable = namedtuple("TeichmullerTable", "zeta_pow ind teich_inv")


@lru_cache(maxsize=None)
def teichmuller_table(p: int, K: int) -> TeichmullerTable:
    """mu_(p-1) mod p^K: zeta_pow[e] = zeta^e for 0 <= e < p-1, ind[a % p] = e
    with a = zeta^e mod p, and teich_inv[a % p] = omega(a)^(-1).  zeta is the
    Teichmuller lift of the least primitive root; omega(a) = zeta_pow[ind[a % p]].
    """
    pK = p**K
    zeta = teichmuller(least_primitive_root(p), p, K).mantissa
    zeta_pow = [pow(zeta, e, pK) for e in range(p - 1)]
    ind = {z % p: e for e, z in enumerate(zeta_pow)}
    teich_inv = {a: zeta_pow[-e % (p - 1)] for a, e in ind.items()}
    return TeichmullerTable(zeta_pow, ind, teich_inv)


class DirichletCharacter:
    """Character mod m with values zeta^e in mu_(p-1), extended by zero."""

    __slots__ = ("modulus", "prime", "exponents")

    def __init__(self, modulus: int, prime: int, exponents: dict[int, int]):
        self.modulus = modulus
        self.prime = prime
        self.exponents = {a % modulus: e % (prime - 1) for a, e in exponents.items()}
        units = {a % modulus for a in range(1, modulus + 1) if gcd(a, modulus) == 1}
        if set(self.exponents) != units:
            raise ValueError("exponent table must cover exactly the units mod m")

    # -- construction ----------------------------------------------------

    @staticmethod
    def trivial(modulus: int, prime: int) -> "DirichletCharacter":
        table = {a % modulus: 0 for a in range(1, modulus + 1) if gcd(a, modulus) == 1}
        return DirichletCharacter(modulus, prime, table)

    def __call__(self, a: int, prec: int = 20) -> PadicNumber:
        """chi(a) as a p-adic number (exact zero on non-units)."""
        e = self.exponent(a)
        if e is None:
            return PadicNumber.zero(self.prime)
        return PadicNumber(self.prime, 0, teichmuller_table(self.prime, prec).zeta_pow[e], prec)

    def exponent(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta^e, or None when chi(a) = 0."""
        a %= self.modulus
        return self.exponents.get(a)

    def rational_value(self, a: int) -> Fraction | None:
        """chi(a) as an exact rational when it is 0 or +-1, else None."""
        e = self.exponent(a)
        if e is None:
            return Fraction(0)
        if e == 0:
            return Fraction(1)
        if 2 * e == self.prime - 1:
            return Fraction(-1)
        return None

    @property
    def parity(self) -> int:
        """chi(-1), always +1 or -1."""
        v = self.rational_value(-1)
        if v is None or v == 0:
            raise AssertionError("chi(-1) must be a sign")
        return int(v)

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents.values())

    # -- conductor --------------------------------------------------------

    def _factors_through(self, M: int) -> bool:
        for a in range(1, self.modulus + 1):
            if a % M == 1 % M and gcd(a, self.modulus) == 1:
                if self.exponents[a % self.modulus] != 0:
                    return False
        return True

    def conductor(self) -> int:
        for M in sorted(d for d in range(1, self.modulus + 1) if self.modulus % d == 0):
            if self._factors_through(M):
                return M
        return self.modulus

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def primitivize(self) -> "DirichletCharacter":
        """The primitive character mod conductor inducing this one."""
        N = self.conductor()
        if N == self.modulus:
            return self
        # chi factors through (Z/N)^x, which every unit mod m reaches, so all
        # units a over one residue mod N carry the same exponent
        table = {a % N: e for a, e in self.exponents.items()}
        return DirichletCharacter(N, self.prime, table)

    def multiply(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """Product character modulo lcm of the two moduli."""
        if self.prime != other.prime:
            raise ValueError("characters must share the working prime")
        m = self.modulus * other.modulus // gcd(self.modulus, other.modulus)
        table = {a % m: self.exponent(a) + other.exponent(a) for a in range(1, m + 1) if gcd(a, m) == 1}
        return DirichletCharacter(m, self.prime, table)


def teichmuller_char(p: int, i: int) -> DirichletCharacter:
    """omega^i as a character mod p."""
    ind = teichmuller_table(p, 1).ind
    return DirichletCharacter(p, p, {a: i * k for a, k in ind.items()})


def from_generator_data(modulus: int, assignments: dict[int, int], prime: int) -> DirichletCharacter:
    """Build a character from exponents assigned to generators of (Z/m)^x.

    Each generator g is mapped to zeta^assignments[g].  The multiplicative
    closure is computed and any inconsistent or non-generating assignment is
    rejected.
    """
    for g in assignments:
        if gcd(g, modulus) != 1:
            raise ValueError(f"generator {g} is not a unit mod {modulus}")
    table = {1 % modulus: 0}
    frontier = [1 % modulus]
    while frontier:
        x = frontier.pop()
        for g, t in assignments.items():
            y = x * g % modulus
            e = (table[x] + t) % (prime - 1)
            if y in table:
                if table[y] != e:
                    raise ValueError("assignment is inconsistent with the group relations")
            else:
                table[y] = e
                frontier.append(y)
    n_units = sum(1 for a in range(1, modulus + 1) if gcd(a, modulus) == 1)
    if len(table) != n_units:
        raise ValueError("the given elements do not generate (Z/m)^x")
    return DirichletCharacter(modulus, prime, table)


def quadratic_char(q: int, prime: int) -> DirichletCharacter:
    """The quadratic character mod an odd prime q (Euler's criterion)."""
    table = {}
    for a in range(1, q):
        ls = pow(a, (q - 1) // 2, q)
        table[a] = 0 if ls == 1 else (prime - 1) // 2
    return DirichletCharacter(q, prime, table)


# -- generalized Bernoulli numbers and L-values -----------------------------


def _grouped_rational_sums(chi: DirichletCharacter, weights) -> dict:
    """Sum the weights a -> w(a) (integers or Fractions) into buckets by character exponent."""
    buckets = {}
    for a, w in weights:
        e = chi.exponent(a)
        if e is None:
            continue
        buckets[e] = buckets.get(e, 0) + w
    return buckets


def _materialize(sums: dict[int, int], den: int, p: int, prec: int) -> PadicNumber:
    """sum_e zeta^e t_e / den for integer bucket sums t_e, with zeta^e known
    mod p^prec: one integer sum and one division, known mod
    p^(prec + min_e v_p(t_e) - v_p(den)) over the nonzero buckets.  Zero
    buckets drop out; when every bucket is zero the value is the exact zero."""
    vals = [int_vp(t, p) for t in sums.values() if t]
    if not vals:
        return PadicNumber.zero(p)
    zeta_pow = teichmuller_table(p, prec).zeta_pow
    total = sum(zeta_pow[e] * t for e, t in sums.items())
    return from_rational_abs(Fraction(total, den), p, prec + min(vals) - int_vp(den, p))


def gen_bernoulli(n: int, chi: DirichletCharacter, prec: int = 20) -> PadicNumber:
    """B_(n,chi) = N^(n-1) sum_a chi(a) B_n(a/N - 1) for primitive chi of conductor N.

    With D the least common denominator of B_n(X) = sum_j c_j X^j, the
    integers d_j = D c_j N^(n-j) give D N^n B_n((a-N)/N) = sum_j d_j (a-N)^j,
    so each unit a costs one integer Horner evaluation at a - N, the units
    are summed into one integer per character exponent, and the value is
    their zeta-weighted integer sum divided once by D N.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not chi.is_primitive():
        raise ValueError("character must be primitive (call primitivize first)")
    N = chi.modulus
    if N == 1:
        b = exactq.bernoulli(n)  # exactly zero at odd n > 1
        return PadicNumber.from_rational(b, chi.prime, prec) if b else PadicNumber.zero(chi.prime)
    coeffs = exactq.bernoulli_poly(n)
    D = lcm(*(c.denominator for c in coeffs))
    d = [int(D * c) * N ** (n - j) for j, c in enumerate(coeffs)]

    def horner(y: int) -> int:
        acc = 0
        for dj in reversed(d):
            acc = acc * y + dj
        return acc

    sums = _grouped_rational_sums(chi, ((a, horner(a - N)) for a in chi.exponents))
    return _materialize(sums, D * N, chi.prime, prec)


def L_neg(chi: DirichletCharacter, n: int, prec: int = 20) -> PadicNumber:
    """L(chi, 1-n) = -B_(n,chi)/n as a p-adic value."""
    return -gen_bernoulli(n, chi, prec) / n
