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
from math import gcd

from . import exactq
from .padic import PadicNumber, teichmuller


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
        units = {a for a in range(1, modulus + 1) if gcd(a, modulus) == 1}
        if modulus == 1:
            units = {0}
        if set(self.exponents) != units:
            raise ValueError("exponent table must cover exactly the units mod m")

    # -- construction ----------------------------------------------------

    @staticmethod
    def trivial(modulus: int, prime: int) -> "DirichletCharacter":
        if modulus == 1:
            return DirichletCharacter(1, prime, {0: 0})
        table = {a: 0 for a in range(1, modulus + 1) if gcd(a, modulus) == 1}
        return DirichletCharacter(modulus, prime, table)

    def __call__(self, a: int, prec: int = 20) -> PadicNumber:
        """chi(a) as a p-adic number (exact zero on non-units)."""
        e = self.exponent(a)
        if e is None:
            return PadicNumber.zero(self.prime)
        return PadicNumber(self.prime, 0, teichmuller_table(self.prime, prec).zeta_pow[e], prec)

    def exponent(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta^e, or None when chi(a) = 0."""
        if self.modulus == 1:
            return 0
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
        v = self.rational_value(-1 % self.modulus if self.modulus > 1 else 0)
        if v is None or v == 0:
            raise AssertionError("chi(-1) must be a sign")
        return int(v)

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents.values())

    # -- conductor --------------------------------------------------------

    def _factors_through(self, M: int) -> bool:
        if self.modulus == 1:
            return True
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
        table = {}
        for u in range(1, N + 1) if N > 1 else [0]:
            if N > 1 and gcd(u, N) != 1:
                continue
            b = u if N > 1 else 1
            while gcd(b, self.modulus) != 1:
                b += N
            table[u % N] = self.exponents[b % self.modulus]
        return DirichletCharacter(N, self.prime, table)

    def multiply(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """Product character modulo lcm of the two moduli."""
        if self.prime != other.prime:
            raise ValueError("characters must share the working prime")
        m = self.modulus * other.modulus // gcd(self.modulus, other.modulus)
        table = {}
        for a in range(1, m + 1) if m > 1 else [0]:
            if m > 1 and gcd(a, m) != 1:
                continue
            e1 = self.exponent(a if m > 1 else 1)
            e2 = other.exponent(a if m > 1 else 1)
            table[a % m] = e1 + e2
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
    if modulus == 1:
        return DirichletCharacter.trivial(1, prime)
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


def _grouped_rational_sums(chi: DirichletCharacter, weights) -> dict[int, Fraction]:
    """Sum the rational weights a -> w(a) into buckets by character exponent."""
    buckets: dict[int, Fraction] = {}
    for a, w in weights:
        e = chi.exponent(a)
        if e is None:
            continue
        buckets[e] = buckets.get(e, Fraction(0)) + w
    return buckets


def _materialize(buckets: dict[int, Fraction], p: int, prec: int) -> PadicNumber:
    zeta_pow = teichmuller_table(p, prec).zeta_pow
    total = PadicNumber.zero(p)
    for e, q in sorted(buckets.items()):
        if q == 0:
            continue
        total = total + PadicNumber(p, 0, zeta_pow[e], prec) * PadicNumber.from_rational(q, p, prec)
    return total


def gen_bernoulli(n: int, chi: DirichletCharacter, prec: int = 20) -> PadicNumber:
    """B_(n,chi) = N^(n-1) sum_a chi(a) B_n(a/N - 1) for primitive chi of conductor N."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not chi.is_primitive():
        raise ValueError("character must be primitive (call primitivize first)")
    N = chi.modulus
    if N == 1:
        return PadicNumber.from_rational(exactq.bernoulli(n), chi.prime, prec)
    scale = Fraction(N) ** (n - 1)
    weights = ((a, scale * exactq.bernoulli_poly_eval(n, Fraction(a, N) - 1)) for a in range(1, N + 1))
    return _materialize(_grouped_rational_sums(chi, weights), chi.prime, prec)


def gen_bernoulli_limit_oracle(n: int, chi: DirichletCharacter, j: int, prec: int = 20) -> PadicNumber:
    """The finite approximation (1/(N p^j)) sum_(a<=N p^j) chi(a) a^n."""
    N = max(chi.modulus, 1)
    p = chi.prime
    top = N * p**j
    weights = ((a, Fraction(a**n, top)) for a in range(1, top + 1))
    return _materialize(_grouped_rational_sums(chi, weights), p, prec)


def L_neg(chi: DirichletCharacter, n: int, prec: int = 20) -> PadicNumber:
    """L(chi, 1-n) = -B_(n,chi)/n as a p-adic value."""
    b = gen_bernoulli(n, chi, prec)
    if b.is_zero:
        return b
    return -b / n
