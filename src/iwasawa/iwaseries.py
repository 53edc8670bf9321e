"""The Iwasawa algebra Z_p[[T]] at finite T- and p-precision.

A TruncatedSeries holds the first M coefficients, each an integer residue
mod p^N.  Coefficients beyond M are unknown, never assumed zero, so every
operation documents how much of the (T^M, p^N) window survives:

  add/mul: window unchanged;
  deriv / D: T-window shrinks by 1;
  divide by f of Weierstrass degree nu: quotient window T^(M-nu);
  substitute(f, g) with v(g(0)) >= 1: coefficient j is reliable mod
    p^min(N, M-j) (the discarded tail of f perturbs low coefficients by
    multiples of p^(M-j)).

Exact integer polynomials (for omega_r, Phi_r, resultants and the
lambda-module layer) are plain low-to-high int lists handled by the helper
functions at the bottom.  Every product of two series or integer
polynomials, inversion included, goes through the one kernel `mul_trunc`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .padic import PadicNumber, _check_odd_prime, int_vp


class IndeterminateWithinTruncation(ValueError):
    """The (M, N) window cannot decide the requested quantity."""


class TruncatedSeries:
    __slots__ = ("prime", "prec", "coeffs", "polynomial")

    def __init__(self, prime: int, coeffs, prec: int, polynomial: bool = False):
        _check_odd_prime(prime)
        if prec < 1:
            raise ValueError("prec must be >= 1")
        self.prime = prime
        self.prec = prec
        m = prime**prec
        self.coeffs = tuple(c % m for c in coeffs)
        self.polynomial = polynomial

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(p: int, trunc: int, prec: int) -> "TruncatedSeries":
        return TruncatedSeries(p, [0] * trunc, prec)

    @staticmethod
    def one(p: int, trunc: int, prec: int) -> "TruncatedSeries":
        return TruncatedSeries(p, [1] + [0] * (trunc - 1), prec, polynomial=True)

    @staticmethod
    def variable(p: int, trunc: int, prec: int) -> "TruncatedSeries":
        c = [0] * trunc
        if trunc > 1:
            c[1] = 1
        return TruncatedSeries(p, c, prec, polynomial=True)

    @staticmethod
    def from_integer_poly(poly, p: int, trunc: int, prec: int) -> "TruncatedSeries":
        c = list(poly[:trunc]) + [0] * max(0, trunc - len(poly))
        return TruncatedSeries(p, c, prec, polynomial=len(poly) <= trunc)

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    def coeff(self, i: int) -> PadicNumber:
        """Coefficient of T^i as a p-adic number known mod p^prec."""
        c = self.coeffs[i]
        if c == 0:
            return PadicNumber.zero(self.prime)
        v = int_vp(c, self.prime)
        return PadicNumber(self.prime, v, c // self.prime**v, self.prec - v)

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
            self.polynomial and other.polynomial,
        )

    def __neg__(self):
        return TruncatedSeries(self.prime, [-a for a in self.coeffs], self.prec, self.polynomial)

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
        poly = False
        if self.polynomial and other.polynomial:
            da = _poly_degree_bound(self.coeffs)
            db = _poly_degree_bound(other.coeffs)
            poly = da + db < M
        return TruncatedSeries(self.prime, out, self.prec, poly)

    def scalar_mul(self, c) -> "TruncatedSeries":
        if isinstance(c, PadicNumber):
            if c.is_zero:
                return TruncatedSeries.zero(self.prime, self.trunc, self.prec)
            if c.valuation < 0:
                raise ValueError("scalar must lie in Z_p")
            c = c.lift()
            c = c.numerator * pow(c.denominator, -1, self.prime**self.prec)
        return TruncatedSeries(self.prime, [c * a for a in self.coeffs], self.prec, self.polynomial)

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
        """Inverse of a series whose constant term is a unit, by Newton
        doubling g <- g (2 - f g) mod T^(2k)."""
        p, M, mod = self.prime, self.trunc, self.prime**self.prec
        a0 = self.coeffs[0]
        if a0 % p == 0:
            raise ValueError("not a unit in Lambda: constant term is divisible by p")
        g = [pow(a0, -1, mod)]
        while len(g) < M:
            k = min(2 * len(g), M)
            e = [-c % mod for c in mul_trunc(self.coeffs, g, mod, k)]
            e[0] = (e[0] + 2) % mod
            g = mul_trunc(g, e, mod, k)
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
        quotient (truncation M - nu) and the remainder as a coefficient list
        of length nu (integers mod p^N).  The scheme gains one power of p
        per round and therefore stabilizes after N rounds.
        """
        self._shape_check(f)
        p, M, N = self.prime, self.trunc, self.prec
        nu = f.weierstrass_degree()
        if 2 * nu > M:
            raise IndeterminateWithinTruncation(
                f"need 2*nu <= M to determine the remainder (nu={nu}, M={M})"
            )
        W = M - nu
        mod = p**N
        # inverse of the unit part of f mod p, on the quotient window
        fbar_unit = TruncatedSeries(p, f.coeffs[nu:nu + W], 1)
        ubar_inv = fbar_unit.invert_unit()
        quot = [0] * W
        rem = [0] * nu
        defect = list(self.coeffs)
        for s in range(N):
            ps = p**s
            e = [(d // ps) % p for d in defect]
            lam_bar = mul_trunc(e[nu:], ubar_inv.coeffs, p, W)
            for j in range(W):
                quot[j] = (quot[j] + ps * lam_bar[j]) % mod
            for i in range(nu):
                rem[i] = (rem[i] + ps * e[i]) % mod
            # defect -= p^s * (f * lam_bar + r_bar), computed mod (p^N, T^M);
            # beyond T^(M-nu) the defect is not meaningful but stays harmless
            flam = mul_trunc(f.coeffs, lam_bar, mod, M)
            for j in range(M):
                d = flam[j] + (e[j] if j < nu else 0)
                defect[j] = (defect[j] - ps * d) % mod
        quotient = TruncatedSeries(p, quot, N)
        return quotient, rem

    def weierstrass_prep(self) -> "DistinguishedFactorization":
        """f = p^mu * unit * P with P distinguished, following the preparation theorem."""
        p, M, N = self.prime, self.trunc, self.prec
        mu, _ = self.mu_lambda()
        if N - mu < 1:
            raise IndeterminateWithinTruncation("p-precision exhausted after removing p^mu")
        n_eff = N - mu
        f1 = TruncatedSeries(p, [c // p**mu for c in self.coeffs], n_eff)
        nu = f1.weierstrass_degree()
        tpow = TruncatedSeries(p, [1 if i == nu else 0 for i in range(M)], n_eff, polynomial=True)
        lam, r = tpow.divide(f1)
        dist = [(-c) % p**n_eff for c in r] + [1]
        for c in dist[:-1]:
            if c % p != 0:
                raise AssertionError("computed polynomial is not distinguished")
        unit = lam.invert_unit()
        return DistinguishedFactorization(mu, unit, dist, self)

    # -- substitutions and operators ---------------------------------------

    def substitute(self, g: "TruncatedSeries") -> "TruncatedSeries":
        """f(g(T)) by Horner; requires g(0) in pZ_p so powers of g converge."""
        self._shape_check(g)
        p = self.prime
        if g.coeffs[0] % p != 0:
            raise ValueError("substitution target must have constant term in pZ_p")
        M, N = self.trunc, self.prec
        acc = TruncatedSeries.zero(p, M, N)
        const = TruncatedSeries.one(p, M, N)
        for c in reversed(self.coeffs):
            acc = acc * g + const.scalar_mul(c)
        return acc

    def nu_involution(self) -> "TruncatedSeries":
        """The twist T -> (1+p)(1+T)^(-1) - 1 induced by g -> kappa(g) g^(-1)."""
        p, M, N = self.prime, self.trunc, self.prec
        one_plus_t = TruncatedSeries(p, [1, 1] + [0] * (M - 2), N, polynomial=True)
        target = one_plus_t.invert_unit().scalar_mul(1 + p) - TruncatedSeries.one(p, M, N)
        return self.substitute(target)

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
        p, M, N = (int(x) for x in lines[0].split())
        if len(lines) - 1 != M:
            raise ValueError(f"expected {M} coefficient lines, got {len(lines) - 1}")
        coeffs = []
        for ln in lines[1:]:
            v, _, m = ln.partition(":")
            coeffs.append(int(m) * p ** int(v))
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
        """Factors are valid mod p^(this) before multiplying back by p^mu."""
        return self._source.prec - self.mu

    @property
    def t_window(self) -> int:
        return self._source.trunc - self.weierstrass_degree

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


def _poly_degree_bound(coeffs) -> int:
    d = 0
    for i, c in enumerate(coeffs):
        if c:
            d = i
    return d


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

    The package's one product kernel, by Kronecker substitution: both
    operands are packed into integers with slots wide enough for any exact
    product coefficient, multiplied once, and the slots read back.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    width = ((mod - 1) ** 2 * min(len(a), len(b))).bit_length() // 8 + 1
    x, y = (int.from_bytes(b"".join(c.to_bytes(width, "little") for c in v), "little") for v in (a, b))
    size = min(n, len(a) + len(b) - 1)
    buf = (x * y).to_bytes((len(a) + len(b)) * width, "little")
    out = [int.from_bytes(buf[i : i + width], "little") % mod for i in range(0, size * width, width)]
    return out + [0] * (n - size)


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


def poly_divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Exact division with remainder by a monic integer polynomial."""
    b = poly_trim(b)
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(poly_trim(a))
    db = len(b) - 1
    if db == 0:
        return r, []
    if len(r) <= db:
        return [], r
    q = [0] * (len(r) - db)
    for d in range(len(r) - 1 - db, -1, -1):
        c = r[d + db]
        if c:
            q[d] = c
            for i in range(db + 1):
                r[d + i] -= c * b[i]
    return poly_trim(q), poly_trim(r[:db])


@lru_cache(maxsize=None)
def _omega_tuple(p: int, r: int) -> tuple[int, ...]:
    n = p**r
    out = [comb(n, k) for k in range(n + 1)]
    out[0] = 0
    return tuple(out)


def omega_poly(p: int, r: int) -> list[int]:
    """(T+1)^(p^r) - 1, a distinguished polynomial of degree p^r."""
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
    if r < m:
        raise ValueError("need r >= m")
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
