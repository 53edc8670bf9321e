"""Group rings over (Z/m)^x: Stickelberger elements, finite-level p-adic
L-elements, idempotents, character evaluation and the interpolation checks.

Coefficients stay exact rationals as long as possible (Stickelberger
denominators 1/(N p^r) would otherwise force negative-valuation bookkeeping
everywhere); p-adic digits appear when a character with irrational values (a
nontrivial Teichmuller power) enters a coefficient.  When a character is
evaluated, or a component series taken, the coefficients first become
integer residues c * p^shift mod p^(prec+shift) (see `_coeff_residues`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd

from . import exactq
from .characters import (
    DirichletCharacter,
    L_neg,
    gen_bernoulli,
    least_primitive_root,
    teichmuller_char,
)
from .iwaseries import TruncatedSeries
from .padic import PadicNumber, from_rational_abs, int_vp, teichmuller, unit_power, vp_diff


class GroupRingElement:
    """Element of Q[G_m] (or its p-adic counterpart), G_m = (Z/mZ)^x.

    Coefficient values are Fractions or PadicNumbers, keyed by the unit
    residue a indexing sigma_a.  Zero coefficients are dropped.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: dict):
        self.modulus = modulus
        clean = {}
        for a, c in coeffs.items():
            a %= modulus
            if gcd(a, modulus) != 1:
                raise ValueError(f"{a} is not a unit mod {modulus}")
            if _is_zero_coeff(c):
                continue
            clean[a] = c
        self.coeffs = clean

    def __add__(self, other):
        if not isinstance(other, GroupRingElement) or other.modulus != self.modulus:
            return NotImplemented
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out[a] + c if a in out else c
        return GroupRingElement(self.modulus, out)

    def __neg__(self):
        return GroupRingElement(self.modulus, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, GroupRingElement) or other.modulus != self.modulus:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement) or other.modulus != self.modulus:
            return NotImplemented
        m = self.modulus
        out: dict[int, object] = {}
        for a, c in self.coeffs.items():
            for b, d in other.coeffs.items():
                k = a * b % m
                cd = c * d
                out[k] = out[k] + cd if k in out else cd
        return GroupRingElement(m, out)

    def scalar_mul(self, s) -> "GroupRingElement":
        return GroupRingElement(self.modulus, {a: c * s for a, c in self.coeffs.items()})

    def mass(self):
        """Sum of all coefficients (the image under the trivial character)."""
        total = Fraction(0)
        for c in self.coeffs.values():
            total = c + total
        return total

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __repr__(self):
        n = len(self.coeffs)
        return f"<group ring element mod {self.modulus} with {n} terms>"


def _is_zero_coeff(c) -> bool:
    if isinstance(c, PadicNumber):
        return c.is_zero
    return c == 0


# -- Stickelberger elements and projections ---------------------------------


def stickelberger(m: int) -> GroupRingElement:
    """Sigma_m = -(1/m) sum over units a of a * sigma_a^(-1), exact rationals."""
    if m < 2:
        raise ValueError("need m >= 2")
    coeffs = {}
    for a in range(1, m):
        if gcd(a, m) == 1:
            coeffs[pow(a, -1, m)] = Fraction(-a, m)
    return GroupRingElement(m, coeffs)


def project(x: GroupRingElement, new_modulus: int) -> GroupRingElement:
    """Pushforward along sigma_a -> sigma_(a mod m'), coefficients summed on fibers."""
    if x.modulus % new_modulus != 0:
        raise ValueError("target modulus must divide the source modulus")
    out: dict[int, object] = {}
    for a, c in x.coeffs.items():
        k = a % new_modulus
        out[k] = out[k] + c if k in out else c
    return GroupRingElement(new_modulus, out)


# -- finite-level p-adic L-elements ------------------------------------------


def mu_chi_level(chi: DirichletCharacter, r: int, prec: int = 20) -> GroupRingElement:
    """The level-r element -(1/(N p^r)) sum a chi(a) sigma_(a mod p^r)^(-1).

    For nontrivial chi every coefficient lands in Z_p (checked); for the
    trivial character of conductor 1 the coefficients have valuation >= -r
    (the pseudo-measure case).  Rational-valued characters give exact
    Fraction coefficients.
    """
    rational, sums = _mu_level_sums(chi, r, prec)
    p, den = chi.prime, chi.modulus * chi.prime**r
    coeffs: dict[int, object] = {}
    for key, acc in sums:
        val = Fraction(-acc, den)
        coeffs[key] = val if rational else from_rational_abs(val, p, prec)
    return GroupRingElement(p**r, coeffs)


def _mu_level_sums(chi: DirichletCharacter, r: int, prec: int):
    """The bucket loop behind mu_chi_level: (rational, [(b, A), ...]) with
    mu_chi at level r equal to sum_b -A/(N p^r) sigma_b.

    A is exact when chi is rational-valued, else known modulo p^(prec+r).
    For nontrivial chi every A is divisible by p^r (checked).
    """
    p = chi.prime
    N = chi.modulus
    if N % p == 0:
        raise ValueError("conductor must be coprime to p")
    if not chi.is_primitive():
        raise ValueError("character must be primitive")
    if r < 1:
        raise ValueError("need r >= 1")
    pr = p**r
    top = N * pr
    buckets: dict[int, dict[int, int]] = {}
    for a in range(1, top + 1):
        if gcd(a, N * p) != 1:
            continue
        e = chi.exponent(a)
        slot = buckets.setdefault(a % pr, {})
        slot[e] = slot.get(e, 0) + a
    rational = all(e == 0 or 2 * e == p - 1 for e in _exponent_range(chi))
    half = (p - 1) // 2
    zeta = teichmuller(least_primitive_root(p), p, prec + r).mantissa
    zpow = [pow(zeta, e, p ** (prec + r)) for e in range(p - 1)]
    check = not chi.is_trivial()
    sums = []
    for c, slot in buckets.items():
        if rational:
            acc = slot.get(0, 0) - slot.get(half, 0)
        else:
            acc = sum(zpow[e] * s for e, s in slot.items())
        if check and acc % pr:
            raise AssertionError("nontrivial character produced a non-integral coefficient")
        sums.append((pow(c, -1, pr), acc))
    return rational, sums


def _exponent_range(chi: DirichletCharacter):
    return set(chi.exponents.values())


def h_element(N: int, r: int, p: int) -> GroupRingElement:
    """h_N = 1 - (1+Np) sigma_(1+Np)^(-1) at level r."""
    pr = p**r
    key = pow(1 + N * p, -1, pr)
    coeffs = {1: Fraction(1)}
    coeffs[key] = coeffs.get(key, Fraction(0)) - (1 + N * p)
    return GroupRingElement(pr, coeffs)


def idempotent(i: int, r: int, p: int, prec: int = 20) -> GroupRingElement:
    """e_(omega^i) = (1/(p-1)) sum_c omega^i(c)^(-1) delta_c at level r."""
    pr = p**r
    g0 = least_primitive_root(p)
    zeta = teichmuller(g0, p, prec)
    coeffs: dict[int, object] = {}
    x = 1
    for k in range(p - 1):
        delta_key = teichmuller(x, p, r).mantissa % pr
        val = zeta ** ((-i * k) % (p - 1)) / (p - 1)
        coeffs[delta_key] = val
        x = x * g0 % p
    return GroupRingElement(pr, coeffs)


def h_i_element(N: int, i: int, r: int, p: int, prec: int = 20) -> GroupRingElement:
    """h_N^(i) = 1 - (1+Np) e_(omega^i) sigma_(1+Np)^(-1) at level r."""
    pr = p**r
    one = GroupRingElement(pr, {1: Fraction(1)})
    sig_inv = GroupRingElement(pr, {pow(1 + N * p, -1, pr): Fraction(1)})
    return one - (idempotent(i, r, p, prec) * sig_inv).scalar_mul(1 + N * p)


# -- character evaluation -----------------------------------------------------


@dataclass(frozen=True)
class PadicCharSpec:
    """The character omega^i kappa_0^s of G = Gal(Q(mu_p^infty)/Q)."""

    teich_exponent: int
    wild_exponent: object  # int or PadicNumber in Z_p


def evaluate_char(x: GroupRingElement, spec: PadicCharSpec, p: int, prec: int = 20) -> PadicNumber:
    """sum_a coeff(a) * omega^i(a) * <a>^s for an element at level p^r.

    This is the reference path for arbitrary elements.  The value of a
    level-r element is canonical only modulo p^r: here <a>^s is taken on the
    integer lift a * omega(a)^(-1) mod p^K, while `interp_check` evaluates on
    the gamma-power lift gamma^(ks) of <a> = gamma^k mod p^r.  Both are
    reported to the requested precision and agree modulo p^r.
    """
    _p_power_level(x.modulus, p)
    res, shift, window = _coeff_residues(x, p, prec)
    K = prec + shift
    pK = p**K
    tables = _eval_tables(p, K)
    s = spec.wild_exponent
    i = spec.teich_exponent % (p - 1)
    s_int = isinstance(s, int)
    if s_int:
        s_red = s % p ** max(K - 1, 1)
    acc = 0
    for a, num in res.items():
        abar = a % p
        w = tables.zeta_pow[(i * tables.ind[abar]) % (p - 1)]
        u = a * tables.teich_inv[abar] % pK
        if s_int:
            ks = pow(u, s_red, pK)
        else:
            ks_p = unit_power(PadicNumber(p, 0, u, K), s)
            ks = ks_p.mantissa % pK if not ks_p.is_zero else 0
        acc = (acc + num * w % pK * ks) % pK
    absprec = min(prec, window - shift) if window is not None else prec
    if absprec < 1:
        raise ValueError("coefficients carry too little precision for this evaluation")
    return from_rational_abs(Fraction(acc, p**shift), p, absprec)


def _p_power_level(m: int, p: int) -> int:
    r = 0
    while m % p == 0:
        m //= p
        r += 1
    if m != 1 or r < 1:
        raise ValueError("element must live at a level p^r, r >= 1")
    return r


def _coeff_residues(x: GroupRingElement, p: int, prec: int):
    """Coefficients as integers: (res, shift, window) with
    res[a] = coeff(a) * p^shift mod p^(prec+shift).

    shift clears every p from the denominators; window bounds the absolute
    precision of res (None when every coefficient is exact).  The valuation
    and inverse of each distinct Fraction denominator are computed once.
    """
    dens = {}  # Fraction denominator -> its p-valuation
    shift = 0
    window = None
    for c in x.coeffs.values():
        if isinstance(c, PadicNumber):
            shift = max(shift, -c.valuation)
            window = c.abs_precision if window is None else min(window, c.abs_precision)
        elif c.denominator not in dens:
            dens[c.denominator] = e = int_vp(c.denominator, p)
            shift = max(shift, e)
    pK = p ** (prec + shift)
    scale = {d: p ** (shift - e) * pow(d // p**e, -1, pK) for d, e in dens.items()}
    res = {}
    for a, c in x.coeffs.items():
        if isinstance(c, PadicNumber):
            res[a] = c.mantissa * p ** (c.valuation + shift) % pK
        else:
            res[a] = c.numerator * scale[c.denominator] % pK
    return res, shift, (window + shift if window is not None else None)


class _EvalTables:
    __slots__ = ("zeta_pow", "ind", "teich_inv")

    def __init__(self, p, K):
        g0 = least_primitive_root(p)
        pK = p**K
        t = {}
        x = 1
        ind = {}
        for k in range(p - 1):
            ind[x] = k
            t[x] = teichmuller(x, p, K).mantissa
            x = x * g0 % p
        self.ind = ind
        self.zeta_pow = [t[pow(g0, e, p)] for e in range(p - 1)]
        self.teich_inv = {c: t[pow(c, -1, p)] for c in t}


_EVAL_CACHE: dict[tuple[int, int], _EvalTables] = {}


def _eval_tables(p: int, K: int) -> _EvalTables:
    key = (p, K)
    if key not in _EVAL_CACHE:
        _EVAL_CACHE[key] = _EvalTables(p, K)
    return _EVAL_CACHE[key]


# -- level tables: Z_p[(Z/p^r)^x] = Z_p[Delta][T]/(omega_(r-1)), gamma = 1+p ---


@lru_cache(maxsize=16)
def _level_index(p: int, r: int) -> list[int]:
    """pos[a] = t * p^(r-1) + k where a = zeta^t gamma^k mod p^r, -1 off the units.

    zeta is the Teichmuller lift of the least primitive root mod p, so t is
    the Teichmuller index of a and k = dlog_gamma <a> mod p^(r-1).
    """
    pr, d = p**r, p ** (r - 1)
    zeta = teichmuller(least_primitive_root(p), p, r).mantissa
    pos = [-1] * pr
    x = 1
    for t in range(p - 1):
        y = x
        for k in range(d):
            pos[y] = t * d + k
            y = y * (1 + p) % pr
        x = x * zeta % pr
    return pos


def _hmu_table(chi: DirichletCharacter, r: int, prec: int) -> list[list[int]]:
    """h_N mu_chi at level r as rows c[t][k], integers mod p^(prec+r) over p^r.

    Row t holds the coefficients of zeta^t gamma^k.  Cached by the whole
    character (its exponent table), r and prec.
    """
    return _hmu_rows(chi.prime, chi.modulus, tuple(sorted(chi.exponents.items())), r, prec)


@lru_cache(maxsize=16)
def _hmu_rows(p: int, N: int, exponents: tuple, r: int, prec: int) -> list[list[int]]:
    """Built from the bucket sums of mu_chi_level; h_N = 1 - (1+Np)
    sigma_(1+Np)^(-1) shifts the k axis by k0 = dlog_gamma(1+Np)."""
    chi = DirichletCharacter(N, p, dict(exponents))
    pK, d = p ** (prec + r), p ** (r - 1)
    pos = _level_index(p, r)
    flat = [0] * ((p - 1) * d)
    scale = -pow(N, -1, pK)
    for b, acc in _mu_level_sums(chi, r, prec)[1]:
        flat[pos[b]] = acc * scale % pK
    u = 1 + N * p
    k0 = pos[u % p**r]
    rows = []
    for t in range(p - 1):
        row = flat[t * d : (t + 1) * d]
        rows.append([(x - u * y) % pK for x, y in zip(row, row[k0:] + row[:k0])])
    return rows


def _evaluate_rows(rows: list[list[int]], i: int, s: int, p: int, r: int, prec: int) -> PadicNumber:
    """sum_t zeta^(it) C_t(gamma^s) for a level-r table, known modulo p^prec."""
    pK = p ** (prec + r)
    x = pow(1 + p, s, pK)
    zeta_pow = _eval_tables(p, prec + r).zeta_pow
    acc = 0
    for t, row in enumerate(rows):
        v = 0
        for c in reversed(row):
            v = (v * x + c) % pK
        acc += zeta_pow[i * t % (p - 1)] * v
    return from_rational_abs(Fraction(acc % pK, p**r), p, prec)


# -- special values and checks ------------------------------------------------


@dataclass(frozen=True)
class InterpReport:
    p: int
    chi_conductor: int
    chi_trivial: bool
    j: int
    n: int
    r: int
    lhs: PadicNumber
    rhs: PadicNumber
    agreement_valuation: float
    threshold: int
    passed: bool


def h_char_value(N: int, p: int, spec: PadicCharSpec, prec: int = 20) -> PadicNumber:
    """The regularizer h_N at omega^i kappa_0^s, exactly: 1 - (1+Np)^(1-s).

    Unlike evaluating the level-r image of h_N (canonical only mod p^r),
    this closed form carries full precision; that matters on the branch
    where the interpolated L-values have negative valuation.
    """
    s = spec.wild_exponent
    if isinstance(s, int):
        return PadicNumber.from_rational(1 - Fraction(1 + N * p) ** (1 - s), p, prec)
    u = PadicNumber.from_int(1 + N * p, p, prec)
    return 1 - unit_power(u, 1 - s)


def interp_check(
    chi: DirichletCharacter,
    j: int,
    n: int,
    r: int,
    prec: int | None = None,
    _mu_cache: dict | None = None,
) -> InterpReport:
    """Compare both sides of the finite-level interpolation formula.

    lhs = (h_N mu_chi at level r) evaluated at psi^(-1) kappa^(1-n) with
    psi = omega^j; rhs = h_N at the same character (closed form) times the
    Euler-corrected L(chi psi, 1-n).  Reports v_p(lhs - rhs); the congruence
    sharpens with r and the acceptance threshold is r - 1.

    The lhs is canonical only modulo p^r.  It is computed on the gamma-power
    lift, by Horner evaluation of a cached table of h_N mu_chi (see
    `_hmu_table`); `evaluate_char` on h_element * mu_chi_level uses the
    integer lift, is reported to the same absolute precision and agrees
    with it modulo p^r.  `_mu_cache` is accepted and ignored: the table cache is
    internal and keyed by the whole character.
    """
    p = chi.prime
    if n < 1:
        raise ValueError("interpolation index n must be >= 1 (n = 0 is the "
                         "excluded character where the regularizer h vanishes)")
    if r < 2:
        raise ValueError("need level r >= 2")
    if prec is None:
        prec = r + 6
    N = chi.modulus
    spec = PadicCharSpec((1 - n - j) % (p - 1), 1 - n)
    lhs = _evaluate_rows(_hmu_table(chi, r, prec), spec.teich_exponent, 1 - n, p, r, prec)
    hval = h_char_value(N, p, spec, prec)
    if hval.is_zero:
        raise ValueError("the regularizer h vanishes at this character (the p-adic zeta pole)")
    chipsi = chi.multiply(teichmuller_char(p, j)).primitivize()
    cp = chipsi(p, prec)
    euler = PadicNumber.one(p, prec) if cp.is_zero else 1 - cp * p ** (n - 1)
    lval = L_neg(chipsi, n, prec)
    rhs = hval * euler * lval
    val = vp_diff(lhs, rhs)
    return InterpReport(p, chipsi.modulus, chi.is_trivial(), j, n, r, lhs, rhs, val, r - 1, val >= r - 1)


def mu1_at_omega(i: int, p: int, prec: int = 20) -> PadicNumber:
    """The level-1 Stickelberger image under omega^i; equals -B_(1, omega^(-i))."""
    sigma_p = stickelberger(p)
    return evaluate_char(sigma_p, PadicCharSpec(i, 0), p, prec)


@dataclass(frozen=True)
class ResidueUnitReport:
    p: int
    residue: int
    passed: bool


def residue_unit_check(p: int, prec: int = 12) -> ResidueUnitReport:
    """Check p * B_(1, omega^(-1)) = -1 mod p (the p-adic zeta residue is a unit)."""
    b = gen_bernoulli(1, teichmuller_char(p, -1), prec)
    pb = b * p
    if pb.is_zero or pb.valuation != 0:
        return ResidueUnitReport(p, -1, False)
    res = pb.residue()
    return ResidueUnitReport(p, res, res == p - 1)


# -- the elementary continuous-extension oracle (section 5.2 style) -----------


BERNOULLI_INDEX_LIMIT = 1500


def branch_limit_index(p: int, n: int, k: int) -> int:
    """The approximation index n + p^k (p-1): Kummer-congruent to n, same branch.

    Staying in n's residue class mod p-1 makes the oracle converge to the
    value the interpolation formula assigns to the trivial tame twist, which
    is the quantity the other two constructions produce.  n = 0 is the pole
    of the p-adic zeta function, so it has no limit.
    """
    if n < 1 or k < 0:
        raise ValueError("the Kummer limit needs n >= 1 and k >= 0")
    m = n + p**k * (p - 1)
    if m > BERNOULLI_INDEX_LIMIT:
        raise ValueError(f"Bernoulli index {m} beyond the exact-cache budget")
    return m


def branch_limit_oracle(p: int, n: int, k: int, c: int, prec: int = 12) -> PadicNumber:
    """Approximate (1 - p^(n-1)) zeta(1-n) from the Kummer-congruence limit.

    Evaluates the regularized value at the congruent index m and divides the
    (1 - c^m) factor back out, exactly as the continuity construction does;
    the division cancels in exact rationals, so c only enters the companion
    `branch_limit_regularized`.  Guaranteed agreement scale: p^(k+1) on the
    regularized values; on the plain values one p-digit per unit of
    v_p(1 - c^n) less on the branch with (p-1) | n.
    """
    if c % p == 0:
        raise ValueError("c must be prime to p")
    m = branch_limit_index(p, n, k)
    f_m = exactq.kummer_regularized_value(m, p, c)
    reg = 1 - Fraction(c) ** m
    val = -f_m / reg
    return PadicNumber.from_rational(val, p, prec)


def branch_limit_regularized(p: int, n: int, k: int, c: int) -> Fraction:
    """(1 - c^m)(1 - p^(m-1)) B_m / m at the approximation index m, exact."""
    if c % p == 0:
        raise ValueError("c must be prime to p")
    m = branch_limit_index(p, n, k)
    return exactq.kummer_regularized_value(m, p, c)


# -- eigenspace components as series ------------------------------------------


def principal_unit_dlog(u: int, p: int, r: int) -> int:
    """j with (1+p)^j = u mod p^r, for u = 1 mod p; returned mod p^(r-1)."""
    k = _level_index(p, r)[u % p**r]
    if not 0 <= k < p ** (r - 1):
        raise ValueError(f"{u} is not a principal unit mod {p}^{r}")
    return k


def component_series(x: GroupRingElement, i: int, p: int, prec: int = 12) -> TruncatedSeries:
    """Image of e_(omega^i) x in Z_p[T]/(omega_(r-1)) with gamma = 1 + T.

    Each sigma_a splits as (Teichmuller part, principal part) = (zeta^t,
    gamma^k); the torsion part contributes a factor omega^i(a) and the
    principal part X^k.  The coefficients are bucketed by k into a
    polynomial in X, which one Taylor shift X -> 1 + T turns into the
    series.  The result must have coefficients in Z_p at the working
    precision.
    """
    r = _p_power_level(x.modulus, p)
    res, shift, _ = _coeff_residues(x, p, prec)
    K = prec + shift
    pK = p**K
    zeta_pow = _eval_tables(p, K).zeta_pow
    pos = _level_index(p, r)
    deg = p ** (r - 1)
    acc = [0] * deg
    for a, num in res.items():
        t, k = divmod(pos[a], deg)
        acc[k] += num * zeta_pow[i * t % (p - 1)]
    coeffs = []
    pshift = p**shift
    for v in _taylor_shift(acc, pK):
        if v % pshift:
            raise ValueError("component has a non-integral coefficient at this precision")
        coeffs.append(v // pshift)
    return TruncatedSeries(p, coeffs, prec)


def _taylor_shift(c: list[int], mod: int) -> list[int]:
    """Coefficients of sum_k c_k (1+T)^k modulo mod, by the O(d^2) Ruffini scheme.

    Pass k replaces c[k:] by its suffix sums: a synthetic division by X - 1
    of what the earlier passes left, whose remainder c[k] is the T^k
    coefficient.
    """
    c = [v % mod for v in c]
    for k in range(len(c) - 1):
        tail = list(accumulate(reversed(c[k:])))
        tail.reverse()
        c[k:] = tail
        if k % 32 == 31:
            c[k:] = [v % mod for v in c[k:]]
    return [v % mod for v in c]


def reassemble_components(comps: dict[int, TruncatedSeries], p: int, r: int, prec: int = 12) -> GroupRingElement:
    """Inverse of component_series summed over all branches (test helper)."""
    pr = p**r
    gamma = GroupRingElement(pr, {(1 + p) % pr: Fraction(1)})
    one = GroupRingElement(pr, {1: Fraction(1)})
    tminus = gamma - one
    total = GroupRingElement(pr, {})
    for i, series in comps.items():
        e_i = idempotent(i, r, p, prec)
        poly = GroupRingElement(pr, {})
        power = one
        for m in range(series.trunc):
            c = series.coeff(m)
            if not c.is_zero:
                poly = poly + power.scalar_mul(c)
            power = power * tminus
        total = total + e_i * poly
    return total
