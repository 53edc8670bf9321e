"""The Iwasawa algebra Z_p[[T]] at finite T- and p-precision.

A TruncatedSeries holds the first M coefficients, each an integer residue
mod p^N.  Coefficients beyond M are unknown, never assumed zero, so every
operation documents how much of the (T^M, p^N) window survives:

  add/mul: window unchanged;
  deriv / D: T-window shrinks by 1;
  divide by f of Weierstrass degree nu, W = M - nu: quotient coefficient j
    reliable mod p^min(N, (W-j-1)//nu + 1), the remainder mod
    p^min(N, (W-1)//nu) (the discarded tails change the Toeplitz system of
    `divide` only in its last nu rows, by multiples of p, and each power of p
    carries that change at most nu rows up);
  substitute(f, g) with v(g(0)) >= 1: coefficient j is reliable mod
    p^min(N, M-j) (the discarded tail of f perturbs low coefficients by
    multiples of p^(M-j)).

A series is its coefficient window and nothing else.  Exact integer
polynomials (for omega_r, Phi_r, resultants and the lambda-module layer)
are plain low-to-high int lists handled by the helper functions at the
bottom.  Each operation has one kernel for the whole package: every product
of two series or integer polynomials, inversion, division, substitution and
the twist included, goes through `mul_trunc`; every change between the group
element gamma = X and the series variable T = X - 1, the twist X -> (1+p)/X
among them, through `taylor_shift` and its inverse; every binomial row
C(x, 0..n-1) (omega_r, Dirac measures, the twist's (1+T)^(1-M), the Coleman
series) through `binomial_row`; every logarithm through `log_one_plus`.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import lru_cache
from itertools import chain, repeat
from math import isqrt
from struct import iter_unpack

from .padic import PadicNumber, _check_odd_prime, from_rational_abs, int_vp


# Largest precision N of a series file (work grows as N^2); tests use N <= 9, the benchmark N <= 20.
MAX_FILE_PREC = 1000


class IndeterminateWithinTruncation(ValueError):
    """The (M, N) window cannot decide the requested quantity."""


class TruncatedSeries:
    __slots__ = ("prime", "prec", "coeffs")

    def __init__(self, prime: int, coeffs, prec: int):
        _check_odd_prime(prime)
        if prec < 1:
            raise ValueError("prec must be >= 1")
        self.prime = prime
        self.prec = prec
        m = prime**prec
        self.coeffs = tuple(c % m for c in coeffs)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(p: int, trunc: int, prec: int) -> "TruncatedSeries":
        return TruncatedSeries(p, [0] * trunc, prec)

    @staticmethod
    def one(p: int, trunc: int, prec: int) -> "TruncatedSeries":
        return TruncatedSeries(p, [1] + [0] * (trunc - 1), prec)

    @staticmethod
    def variable(p: int, trunc: int, prec: int) -> "TruncatedSeries":
        c = [0] * trunc
        if trunc > 1:
            c[1] = 1
        return TruncatedSeries(p, c, prec)

    @staticmethod
    def from_integer_poly(poly, p: int, trunc: int, prec: int) -> "TruncatedSeries":
        c = list(poly[:trunc]) + [0] * max(0, trunc - len(poly))
        return TruncatedSeries(p, c, prec)

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    def coeff(self, i: int) -> PadicNumber:
        """Coefficient of T^i as a p-adic number known mod p^prec."""
        return from_rational_abs(self.coeffs[i], self.prime, self.prec)

    def _shape_check(self, other: "TruncatedSeries") -> None:
        if (self.prime, self.trunc, self.prec) != (other.prime, other.trunc, other.prec):
            raise ValueError("series shape mismatch (prime, trunc, prec must agree)")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._shape_check(other)
        return TruncatedSeries(
            self.prime,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.prec,
        )

    def __neg__(self):
        return TruncatedSeries(self.prime, [-a for a in self.coeffs], self.prec)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._shape_check(other)
        M = self.trunc
        out = mul_trunc(self.coeffs, other.coeffs, self.prime**self.prec, M)
        return TruncatedSeries(self.prime, out, self.prec)

    def __pow__(self, e: int) -> "TruncatedSeries":
        """self^e for an integer e >= 1 by left-to-right repeated squaring."""
        if e < 1:
            raise ValueError("need a power e >= 1")
        out = self
        for bit in bin(e)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def scalar_mul(self, c) -> "TruncatedSeries":
        """c * self for c in Z_p: an int, a Fraction or a PadicNumber.  A
        PadicNumber known mod p^a leaves the product known mod p^min(prec, a);
        an exact scalar, the exact zero included, keeps prec."""
        prec = self.prec
        if isinstance(c, PadicNumber):
            if c.mantissa is None:
                return TruncatedSeries.zero(self.prime, self.trunc, prec)
            prec = min(prec, c.abs_precision)
            if prec < 1:
                raise ValueError("scalar carries too little precision for this product")
            if c.valuation < 0:
                raise ValueError("scalar must lie in Z_p")
            c = c.lift()
        c = c.numerator * pow(c.denominator, -1, self.prime**prec)
        return TruncatedSeries(self.prime, [c * a for a in self.coeffs], prec)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.prime, self.prec, self.coeffs) == (other.prime, other.prec, other.coeffs)

    def __hash__(self):
        return hash((self.prime, self.prec, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*T^{i}" for i, c in enumerate(self.coeffs[:6]) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} ... mod ({self.prime}^{self.prec}, T^{self.trunc})>"

    # -- units and Weierstrass data ---------------------------------------

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a series whose constant term is a unit, by Newton doubling:
        g exact mod T^k gives f g = 1 + T^k h mod T^(2k), and g - T^k (g h) is exact
        mod T^(2k), so a step computes only h and the new half (Hanrot et al. 2004)."""
        p, M, mod = self.prime, self.trunc, self.prime**self.prec
        a0 = self.coeffs[0]
        if a0 % p == 0:
            raise ValueError("not a unit in Lambda: constant term is divisible by p")
        g = [pow(a0, -1, mod)]
        while len(g) < M:
            k = len(g)
            h = mul_trunc(self.coeffs, g, mod, min(2 * k, M))[k:]
            g += [-c % mod for c in mul_trunc(g, h, mod, len(h))]
        return TruncatedSeries(p, g, self.prec)

    def weierstrass_degree(self) -> int:
        """Least index with a unit coefficient (Weierstrass degree)."""
        for i, c in enumerate(self.coeffs):
            if c % self.prime != 0:
                return i
        raise IndeterminateWithinTruncation(
            "no unit coefficient within the truncation window; "
            "f may lie in p*Lambda or the window (M, N) is too small"
        )

    def mu_lambda(self) -> tuple[int, int]:
        """(mu, lambda): minimal coefficient valuation and the first index attaining it."""
        return mu_lambda_of(self.coeffs, self.prime)

    def divide(self, f: "TruncatedSeries") -> tuple["TruncatedSeries", list[int]]:
        """Division-lemma decomposition self = f*quotient + remainder.

        f must have Weierstrass degree nu with 2*nu <= M.  Returns the
        quotient q (truncation n = M - nu) and the remainder as a coefficient
        list of length nu (integers mod p^N).  q is the unique solution mod p^N
        of the Toeplitz system (f q)[nu:M] = self[nu:M], whose matrix T_n(a),
        a_k = f_(nu+k), is lower triangular with unit diagonal mod p; the
        remainder is self[:nu] - (f q)[:nu].  The module docstring says which
        digits of them the (M, N) window decides.

        The system is solved exactly in three steps:
        1. f = U P over Z/p^N, P monic of degree nu and = T^nu mod p, U of
           length n (`_distinguished_factor`, O(M nu log N) steps).
        2. T_n(a) = T_n(U) T_n(P/T^nu) + C.  T_n(U) is lower triangular, its
           inverse the product by U^(-1) mod T^n.  T_n(P/T^nu) is upper
           triangular with nu bands and unit diagonal, inverted by
           back-substitution.  C holds the terms of U P that the product of
           the two drops; it fills only the first nu columns, and
           T_n(U)^(-1) C = -[u_1 ... u_nu] Theta with u_d = U^(-1)[d:d+n] and
           Theta_(d,m) = H_(nu-m-d), H = U P mod T^nu.
        3. So T_n(P/T^nu) q = U^(-1) self[nu:] + [u_1 ... u_nu] Theta x, with
           x = q[:nu].  Its first nu rows are (I - Rho Theta) x = first nu
           entries of T_n(P/T^nu)^(-1) U^(-1) self[nu:], Rho the first nu rows
           of T_n(P/T^nu)^(-1) [u_1 ... u_nu].  C = 0 mod p, so the nu x nu
           matrix is = I mod p and has unit pivots; one back-substitution
           then gives q.
        Nothing is approximated, so q and the remainder are the same residues
        any exact solver gives.  Cost: one `invert_unit` (of U), one full and
        one short product, O(M nu log N + n nu) scalar steps and the
        O(nu^3) solve.
        """
        self._shape_check(f)
        p, M, N = self.prime, self.trunc, self.prec
        nu = f.weierstrass_degree()
        if 2 * nu > M:
            raise IndeterminateWithinTruncation(
                f"need 2*nu <= M to determine the remainder (nu={nu}, M={M})"
            )
        mod, n = p**N, M - nu
        P, U = _distinguished_factor(f.coeffs, nu, p, N)
        u_inv = TruncatedSeries(p, U + [0] * nu, N).invert_unit().coeffs
        v = mul_trunc(u_inv, self.coeffs[nu:], mod, n)
        if nu:
            # r_l = (T_n(P/T^nu)^(-1))_(i, i+l): its last column, by one back-substitution
            r = _band_solve(P, [0] * (n - 1) + [1], mod)[::-1]
            # Rho[i][d-1] = sum_(j >= i) r_(j-i) u_inv[j+d]; moving to (i+1, d-1) drops one term
            rho = [[0] * nu for _ in range(nu)]
            for i in reversed(range(nu)):
                for d in range(1, nu + 1):
                    if d == 1 or i == nu - 1:
                        rho[i][d - 1] = sum(map(operator.mul, r[: n - i], u_inv[i + d :])) % mod
                    else:
                        rho[i][d - 1] = (rho[i + 1][d - 2] + r[n - 1 - i] * u_inv[n - 1 + d]) % mod
            H = mul_trunc(U, P[:nu], mod, nu)
            # row i of Rho Theta is row i of Rho times H, read backwards
            S = [[(int(i == m) - c) % mod for m, c in enumerate(mul_trunc(row, H, mod, nu)[::-1])]
                 for i, row in enumerate(rho)]
            x = _solve_unit_pivots(S, [sum(map(operator.mul, r[: n - i], v[i:])) % mod for i in range(nu)], mod)
            # [u_1 ... u_nu] Theta x = (U^(-1) (H x mod T^nu))[nu:M]
            v = [(a + b) % mod for a, b in zip(v, mul_trunc(u_inv, mul_trunc(H, x, mod, nu), mod, M)[nu:])]
        q = _band_solve(P, v, mod)
        rem = [(a - b) % mod for a, b in zip(self.coeffs, mul_trunc(q, f.coeffs[:nu], mod, nu))]
        return TruncatedSeries(p, q, N), rem

    def weierstrass_prep(self) -> "DistinguishedFactorization":
        """f = p^mu * unit * P with P distinguished, following the preparation theorem:
        the unit inverts the quotient of T^nu by f1 = f/p^mu, so it is f1 when nu = 0,
        and P = T^nu - remainder.  Both come from one `divide`, so they are known on
        its window, which `DistinguishedFactorization.p_precision` and `t_window`
        report: the coefficients past T^M move P and the unit's later coefficients
        by multiples of p^((M - nu - 1) // nu) and less.  (The factor P of the
        polynomial f1 mod T^M that `divide` lifts agrees with this P on that window.)"""
        p, M, N = self.prime, self.trunc, self.prec
        mu, _ = self.mu_lambda()
        if N - mu < 1:
            raise IndeterminateWithinTruncation("p-precision exhausted after removing p^mu")
        n_eff = N - mu
        f1 = TruncatedSeries(p, [c // p**mu for c in self.coeffs], n_eff)
        nu = f1.weierstrass_degree()
        if nu == 0:
            return DistinguishedFactorization(mu, f1, [1], self)
        tpow = TruncatedSeries(p, [1 if i == nu else 0 for i in range(M)], n_eff)
        lam, r = tpow.divide(f1)
        dist = [(-c) % p**n_eff for c in r] + [1]
        for c in dist[:-1]:
            if c % p != 0:
                raise AssertionError("computed polynomial is not distinguished")
        unit = lam.invert_unit()
        return DistinguishedFactorization(mu, unit, dist, self)

    # -- substitutions and operators ---------------------------------------

    def substitute(self, g: "TruncatedSeries") -> "TruncatedSeries":
        """f(g(T)) by Paterson-Stockmeyer in about 2 sqrt(M) products; requires
        g(0) in pZ_p so powers of g converge.

        With k = isqrt(M): the baby steps g^0, ..., g^(k-1) are packed once
        into Kronecker slots wide enough for k products of residues, each
        block sum_j c_(ik+j) g^j is one linear combination of those integers,
        and Horner in g^k joins the blocks through mul_trunc.
        """
        self._shape_check(g)
        p = self.prime
        if g.coeffs[0] % p != 0:
            raise ValueError("substitution target must have constant term in pZ_p")
        M, mod = self.trunc, p**self.prec
        k = isqrt(M)
        powers = [[1] + [0] * (M - 1), list(g.coeffs)]
        while len(powers) <= k:
            powers.append(mul_trunc(powers[-1], g.coeffs, mod, M))
        giant = powers.pop()
        width = _slot_width(mod, k)
        packed = [_pack(v, width) for v in powers]
        acc = None
        for i in reversed(range(0, M, k)):
            block = _unpack(sum(c * x for c, x in zip(self.coeffs[i : i + k], packed) if c), width, M, mod)
            if acc is not None:
                block = [(a + b) % mod for a, b in zip(mul_trunc(acc, giant, mod, M), block)]
            acc = block
        return TruncatedSeries(p, acc, self.prec)

    def nu_involution(self) -> "TruncatedSeries":
        """The twist T -> (1+p)(1+T)^(-1) - 1 induced by g -> kappa(g) g^(-1).

        In X = 1+T it is X -> (1+p)/X: f = F(X) of degree M-1 has F((1+p)/X) =
        X^(1-M) G(X), G_j = F_(M-1-j) (1+p)^(M-1-j), so two Taylor shifts and one
        product give the element of (Z/p^N)[T]/(T^M) that `substitute` would.
        """
        p, M, mod = self.prime, self.trunc, self.prime**self.prec
        G = [c * pow(1 + p, i, mod) for i, c in enumerate(inverse_taylor_shift(self.coeffs, mod))][::-1]
        inv_power = [c % mod for c in binomial_row(1 - M, M)]
        return TruncatedSeries(p, mul_trunc(taylor_shift(G, mod), inv_power, mod, M), self.prec)

    def deriv(self) -> "TruncatedSeries":
        """Formal derivative; truncation shrinks by one."""
        p, M = self.prime, self.trunc
        return TruncatedSeries(p, [(i + 1) * self.coeffs[i + 1] for i in range(M - 1)], self.prec)

    def d_operator(self) -> "TruncatedSeries":
        """(1+T) f'; truncation shrinks by one."""
        p, M = self.prime, self.trunc
        out = []
        for j in range(M - 1):
            val = (j + 1) * self.coeffs[j + 1] + j * self.coeffs[j]
            out.append(val)
        return TruncatedSeries(p, out, self.prec)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.prime} {self.trunc} {self.prec}"]
        for c in self.coeffs:
            if c == 0:
                lines.append("0:0")
            else:
                v = int_vp(c, self.prime)
                lines.append(f"{v}:{c // self.prime**v}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "TruncatedSeries":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty series text: expected a header `p M N`")
        p, M, N = (int(x) for x in lines[0].split())
        _check_odd_prime(p)
        if N > MAX_FILE_PREC:
            raise ValueError(f"series file precision N = {N} exceeds the bound {MAX_FILE_PREC}")
        if len(lines) - 1 != M:
            raise ValueError(f"expected {M} coefficient lines, got {len(lines) - 1}")
        coeffs = []
        for ln in lines[1:]:
            v, m = map(int, ln.split(":"))
            if v < 0:
                raise ValueError(f"coefficient {ln!r} does not lie in Z_p (negative valuation)")
            # p^v with v >= N is 0 mod p^N, and computing it could take unbounded time
            coeffs.append(m * p**v if v < N else 0)
        return TruncatedSeries(p, coeffs, N)


class DistinguishedFactorization:
    """p^mu * unit * distinguished, with the window the factors are valid in."""

    __slots__ = ("mu", "unit", "distinguished", "_source")

    def __init__(self, mu, unit, distinguished, source):
        self.mu = mu
        self.unit = unit
        self.distinguished = list(distinguished)
        self._source = source

    @property
    def weierstrass_degree(self) -> int:
        return len(self.distinguished) - 1

    @property
    def p_precision(self) -> int:
        """The distinguished polynomial is known mod p^(this), before multiplying
        back by p^mu: min(N - mu, (W - 1) // nu) with W = M - nu (the remainder
        window of `divide`), at least 1 (it is T^nu mod p), and N - mu when nu = 0."""
        n_eff, nu = self._source.prec - self.mu, self.weierstrass_degree
        if nu == 0:
            return n_eff
        return max(1, min(n_eff, (self._source.trunc - nu - 1) // nu))

    @property
    def t_window(self) -> int:
        """How many unit coefficients are known mod p^p_precision: coefficient j is
        known mod p^min(N - mu, (W - j - 1) // nu + 1), the quotient window of
        `divide`, as the unit inverts that quotient."""
        nu = self.weierstrass_degree
        return self._source.trunc - nu - nu * (self.p_precision - 1)

    def reconstruct(self) -> "TruncatedSeries":
        """p^mu * unit * P on the unit's (shorter) truncation window."""
        p = self.unit.prime
        W = self.unit.trunc
        poly = TruncatedSeries.from_integer_poly(self.distinguished, p, W, self.unit.prec)
        inner = self.unit * poly  # known mod p^(N - mu)
        return TruncatedSeries(p, [c * p**self.mu for c in inner.coeffs], self._source.prec)

    def matches_source(self) -> bool:
        p = self._source.prime
        mod = p ** self._source.prec
        rec = self.reconstruct()
        return all(
            (a - b) % mod == 0 for a, b in zip(rec.coeffs, self._source.coeffs[: rec.trunc])
        )


def mu_lambda_of(coeffs, p: int) -> tuple[int, int]:
    """Least valuation of the nonzero coefficients and the first index attaining it.

    A unit coefficient settles both, so valuations are computed only when
    no coefficient is a unit.
    """
    for i, c in enumerate(coeffs):
        if c % p:
            return 0, i
    vals = [(int_vp(c, p), i) for i, c in enumerate(coeffs) if c]
    if not vals:
        raise IndeterminateWithinTruncation("series vanishes within the (M, N) window")
    return min(vals)


def mul_trunc(a, b, mod: int, n: int) -> list[int]:
    """First n coefficients of a*b mod `mod`, for coefficients in [0, mod).

    The package's one product kernel, by Kronecker substitution (Harvey,
    J. Symbolic Comput. 44, 2009): both operands are packed into integers
    with byte slots wide enough for any exact product coefficient,
    multiplied once, and the slots read back.  `_pack` and `_unpack` move
    the slot bytes with C-level copies, so the only Python-level pass over
    the coefficients is the final reduction mod `mod`.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    width = _slot_width(mod, min(len(a), len(b)))
    size = min(n, len(a) + len(b) - 1)
    return _unpack(_pack(a, width) * _pack(b, width), width, size, mod) + [0] * (n - size)


def _slot_width(mod: int, terms: int) -> int:
    """Bytes per Kronecker slot holding a sum of `terms` products of residues mod `mod`."""
    return (((mod - 1) ** 2 * terms).bit_length() + 7) // 8


def _pack(v, width: int) -> int:
    """The integer sum_i v[i] 2^(8 width i), for 0 <= v[i] < 2^(8 width).

    Slots of up to 8 bytes go through one array of 8-byte words, narrowed to
    `width` bytes by `width` strided copies; wider slots are written by
    `int.to_bytes` mapped over v.  Either way no Python loop visits a slot.
    """
    if width > 8:
        return int.from_bytes(b"".join(map(int.to_bytes, v, repeat(width), repeat("little"))), "little")
    words = array("Q", v)
    if sys.byteorder == "big":
        words.byteswap()
    buf = words.tobytes()
    if width < 8:
        narrow = bytearray(len(v) * width)
        for b in range(width):
            narrow[b::width] = buf[b::8]
        buf = narrow
    return int.from_bytes(buf, "little")


def _unpack(x: int, width: int, n: int, mod: int) -> list[int]:
    """The first n `width`-byte slots of a non-negative integer, each reduced mod `mod`.

    The inverse copies of `_pack`: slots of up to 8 bytes are widened to
    8-byte words by `width` strided copies and read as one array, wider ones
    are read by `int.from_bytes` mapped over `struct.iter_unpack`.
    """
    size = n * width
    buf = (x & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    if width > 8:
        slots = map(int.from_bytes, chain.from_iterable(iter_unpack(f"{width}s", buf)), repeat("little"))
    else:
        if width < 8:
            wide = bytearray(8 * n)
            for b in range(width):
                wide[b::8] = buf[b::width]
            buf = wide
        slots = array("Q", buf)
        if sys.byteorder == "big":
            slots.byteswap()
    return [c % mod for c in slots]


def log_one_plus(u: TruncatedSeries) -> TruncatedSeries:
    """log(1+u) for u with all coefficients divisible by p, lossless mod p^N:
    the package's one logarithm (Coleman measures, and `padic.plog` on one
    coefficient).  Terms u^m/m carry a small modulus buffer, so the exact
    divisions by powers of p inside 1/m lose nothing."""
    p, M, N = u.prime, u.trunc, u.prec
    buffer = floor_log(p, N + 2) + 1
    modK = p ** (N + buffer)
    if any(c % p for c in u.coeffs):
        raise AssertionError("log argument is not congruent to 1 mod p")
    acc = [0] * M
    power = u.coeffs
    m = 1
    while any(power) and m <= N + buffer + 1:
        pe = p ** int_vp(m, p)
        if any(t % pe for t in power):
            raise AssertionError("precision bug: term not divisible by its index")
        inv = (-1) ** (m + 1) * pow(m // pe, -1, modK)
        acc = [(a + t // pe * inv) % modK for a, t in zip(acc, power)]
        m += 1
        power = mul_trunc(power, u.coeffs, modK, M)
    return TruncatedSeries(p, acc, N)


# Length up to which one Kronecker evaluation beats splitting in `taylor_shift`,
# set by timing lengths 46 to 3125 at limits 32 to 128: 80 to 112 were within
# noise, 64 was 6-10% slower at lengths 94 and 312 to 625, and 32 to 56 and
# 128 slower at lengths 62 to 125.  Base slots are wider than 8 bytes from
# about length 50, and one evaluation still beats a split into 8-byte halves.
SHIFT_BASE_LENGTH = 96


def taylor_shift(c: list[int], mod: int) -> list[int]:
    """Coefficients of sum_k c_k (1+T)^k modulo mod, by divide and conquer
    (von zur Gathen and Gerhard, ISSAC 1997): f = f_lo + X^h f_hi gives
    f(1+T) = f_lo(1+T) + (1+T)^h f_hi(1+T), one `mul_trunc` per split, so
    O(M(d) log d) for length d.

    Up to SHIFT_BASE_LENGTH, f is evaluated by Horner at the one integer
    X = 1 + 2^(8w) and the result read in w-byte slots: slot j holds
    sum_k C(k, j) c_k <= (mod-1) C(d, j+1) < 2^(8w) with
    w = ((mod-1).bit_length() + d) // 8 + 1, so no slot carries into the next.
    """
    c = [v % mod for v in c]
    d = len(c)
    if d > SHIFT_BASE_LENGTH:
        h = d // 2
        out = mul_trunc([v % mod for v in binomial_row(h, h + 1)], taylor_shift(c[h:], mod), mod, d)
        return [(v + w) % mod for v, w in zip(taylor_shift(c[:h], mod), out)] + out[h:]
    w = ((mod - 1).bit_length() + d) // 8 + 1
    shift = 8 * w
    y = 0
    for v in reversed(c):
        y = (y << shift) + y + v
    return _unpack(y, w, d, mod)


def inverse_taylor_shift(c: list[int], mod: int) -> list[int]:
    """Coefficients of sum_n c_n (X-1)^n in powers of X, modulo mod.

    (X-1)^n = (-1)^n (1 + (-X))^n, so this is taylor_shift with the signs
    of the odd-index coefficients flipped before and after.
    """
    out = taylor_shift([-v if n % 2 else v for n, v in enumerate(c)], mod)
    return [-v % mod if n % 2 else v for n, v in enumerate(out)]


# -- exact integer polynomials (low degree first) ---------------------------


def poly_trim(a: list[int]) -> list[int]:
    d = len(a)
    while d > 0 and a[d - 1] == 0:
        d -= 1
    return list(a[:d])


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Exact product: mul_trunc modulo m = 2*max|a|*max|b|*min(len a, len b) + 1,
    which bounds every coefficient, lifted back to the balanced range."""
    if not a or not b:
        return []
    m = 2 * max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)) + 1
    out = mul_trunc([c % m for c in a], [c % m for c in b], m, len(a) + len(b) - 1)
    return [c - m if 2 * c > m else c for c in out]


def poly_divmod_monic(a: list[int], b: list[int], mod: int | None = None) -> tuple[list[int], list[int]]:
    """Division with remainder by a monic polynomial, exact over the integers or,
    given `mod`, over Z/mod with residues in [0, mod); the loop runs over the
    divisor's nonzero lower coefficients (the leading one clears a slot never read)."""
    b = poly_trim(b)
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    r = poly_trim(a)
    db = len(b) - 1
    if db == 0:
        return (r if mod is None else poly_trim([c % mod for c in r])), []
    q = [0] * max(len(r) - db, 0)
    low = [(i, c) for i, c in enumerate(b[:db]) if c]
    for d in reversed(range(len(q))):
        c = r[d + db] if mod is None else r[d + db] % mod
        if c:
            q[d] = c
            for i, bi in low:
                r[d + i] -= c * bi
    r = r[:db] if mod is None else [c % mod for c in r[:db]]
    return poly_trim(q), poly_trim(r)


def _padded(a: list[int], n: int) -> list[int]:
    return a + [0] * (n - len(a))


def _distinguished_factor(f, nu: int, p: int, N: int) -> tuple[list[int], list[int]]:
    """(P, U) with f = U P over Z/p^N, for coefficients f mod p^N of Weierstrass
    degree nu: P monic of degree nu with P = T^nu mod p, and U of length len(f) - nu.

    Hensel lifting from P = T^nu, doubling the p-adic precision each step.
    With P right mod p^h, R = f mod P = 0 mod p^h, and W = (f quo P)^(-1)
    mod (P, p^(k-h)), P + (R W mod P) divides f mod p^k for k <= 2h.  W is
    carried along by a Newton step W (2 - a W), a = (f quo P) mod P, when it
    has fewer digits than that; a last step that does not double often needs
    none.  A step to p^k reads f only mod T^(nu k): T^nu = -P[:nu] mod P is
    = 0 mod p, so T^(nu k) = 0 mod (P, p^k) and T^(nu k) = 0 mod (P^2, p^(k-1)).
    """
    if nu == 0:
        return [1], list(f)
    P, W, w, k = [0] * nu + [1], None, 0, 1
    while k < N:
        h, k = k, min(2 * k, N)
        mod = p**k
        quo, R = poly_divmod_monic(f[: nu * k], P, mod)
        if w < k - h:
            w, mod_w = k - h, p ** (k - h)
            a = _padded(poly_divmod_monic(quo, P, mod_w)[1], nu)
            if W is None:  # P = T^nu: the inverse mod T^nu
                W = TruncatedSeries(p, a, w).invert_unit().coeffs
            else:
                e = _mul_mod_monic(a, W, P, mod_w)
                W = _mul_mod_monic(W, [(2 * (i == 0) - c) % mod_w for i, c in enumerate(e)], P, mod_w)
        delta = _mul_mod_monic(_padded(R, nu), W, P, mod)
        P = [(c + d) % mod for c, d in zip(P, delta)] + [1]
    U, R = poly_divmod_monic(f, P, p**N)
    if R:
        raise AssertionError("Hensel lifting left a remainder")
    return P, _padded(U, len(f) - nu)


def _mul_mod_monic(a: list[int], b: list[int], P: list[int], mod: int) -> list[int]:
    """a b mod (P, mod) as nu = deg P coefficients, for a, b of length nu in [0, mod)."""
    nu = len(P) - 1
    return _padded(poly_divmod_monic(mul_trunc(a, b, mod, 2 * nu - 1), P, mod)[1], nu)


def _band_solve(P: list[int], v: list[int], mod: int) -> list[int]:
    """x with sum_k P_(nu-k) x_(j+k) = v_j for every j < len(v), x_j = 0 past the
    end: T_n(P/T^nu)^(-1) v for monic P of degree nu and v in [0, mod), by
    back-substitution."""
    nu = len(P) - 1
    bands = [(k, P[nu - k]) for k in range(1, nu + 1) if P[nu - k]]
    if not bands:
        return list(v)
    x = list(v) + [0] * nu
    for j in reversed(range(len(v))):
        s = x[j]
        for k, c in bands:
            s -= c * x[j + k]
        x[j] = s % mod
    return x[: len(v)]


def _solve_unit_pivots(S: list[list[int]], b: list[int], mod: int) -> list[int]:
    """x with S x = b mod `mod`, by Gaussian elimination without row exchanges:
    for S whose pivots are units, as when S = I mod p."""
    n = len(b)
    rows = [row + [c] for row, c in zip(S, b)]
    invs = []
    for i, piv in enumerate(rows):
        invs.append(pow(piv[i], -1, mod))
        for row in rows[i + 1 :]:
            c = row[i] * invs[i] % mod
            if c:
                row[i + 1 :] = [(x - c * y) % mod for x, y in zip(row[i + 1 :], piv[i + 1 :])]
    x = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        x[i] = (row[n] - sum(map(operator.mul, row[i + 1 : n], x[i + 1 :]))) * invs[i] % mod
    return x


def floor_log(p: int, n: int) -> int:
    """floor(log_p n), the largest v_p(m) over 0 < m <= n (0 when n < 1)."""
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return e


def binomial_row(x: int, n: int) -> list[int]:
    """C(x, 0), ..., C(x, n-1) for an integer x, exactly, by
    C(x, k) = C(x, k-1) (x-k+1)/k, the product being k C(x, k)."""
    x = operator.index(x)
    out = [1]
    for k in range(1, n):
        out.append(out[-1] * (x - k + 1) // k)
    return out[:n]


@lru_cache(maxsize=None)
def _omega_tuple(p: int, r: int) -> tuple[int, ...]:
    return (0, *binomial_row(p**r, p**r + 1)[1:])


def omega_poly(p: int, r: int) -> list[int]:
    """(T+1)^(p^r) - 1, a distinguished polynomial of degree p^r."""
    if r < 0:
        raise ValueError("need level r >= 0")
    return list(_omega_tuple(p, r))


@lru_cache(maxsize=None)
def _nu_tuple(p: int, r: int, m: int) -> tuple[int, ...]:
    q, rem = poly_divmod_monic(omega_poly(p, r), omega_poly(p, m))
    if rem:
        raise AssertionError("omega_m must divide omega_r")
    return tuple(q)


def phi_poly(p: int, r: int) -> list[int]:
    """The p^r-th cyclotomic polynomial in 1+T: omega_r / omega_(r-1)."""
    if r == 0:
        return omega_poly(p, 0)
    return list(_nu_tuple(p, r, r - 1))


def nu_rm_poly(p: int, r: int, m: int) -> list[int]:
    """omega_r / omega_m = Phi_r ... Phi_(m+1) for r >= m >= 0."""
    if r < m or m < 0:
        raise ValueError("need r >= m >= 0")
    if r == m:
        return [1]
    return list(_nu_tuple(p, r, m))


def sylvester_resultant(a: list[int], b: list[int]) -> int:
    """Resultant via the Sylvester matrix and fraction-free (Bareiss) elimination."""
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        raise ValueError("resultant of the zero polynomial")
    m, n = len(a) - 1, len(b) - 1
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    size = m + n
    rows = []
    ar = a[::-1]
    br = b[::-1]
    for i in range(n):
        rows.append([0] * i + ar + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + br + [0] * (size - n - 1 - i))
    return _bareiss_det(rows)


def _bareiss_det(mat: list[list[int]]) -> int:
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(a: list[int], b: list[int]) -> int:
    """Exact resultant of two nonzero integer polynomials.

    When one argument is monic and of much smaller degree, the other is
    reduced modulo it first (legitimate since the leading coefficient is 1),
    which keeps the Sylvester matrix small for inputs like omega_r/omega_e.
    """
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        raise ValueError("resultant of the zero polynomial")
    da, db = len(a) - 1, len(b) - 1
    if da >= 1 and a[-1] == 1 and db > da:
        _, r = poly_divmod_monic(b, a)
        if not r:
            return 0
        return resultant(a, r)
    if db >= 1 and b[-1] == 1 and da > db:
        sign = -1 if (da * db) % 2 else 1
        return sign * resultant(b, a)
    return sylvester_resultant(a, b)
