"""Reference computations that only the tests read: each rebuilds a library
value by a second route, so a test can compare the two."""

from fractions import Fraction
from math import gcd, lcm

from iwasawa import exactq
from iwasawa.characters import DirichletCharacter, _grouped_rational_sums, teichmuller_table
from iwasawa.group_algebra import GroupRingElement, PadicCharSpec, _element, evaluate_char, idempotent, stickelberger
from iwasawa.iwaseries import TruncatedSeries, inverse_taylor_shift
from iwasawa.padic import PadicNumber


def materialize_oracle(buckets: dict[int, Fraction], p: int, prec: int) -> PadicNumber:
    """sum_e zeta^e q_e by PadicNumber arithmetic: one zeta^e mod p^prec times
    each exact rational bucket q_e, added term by term."""
    zeta_pow = teichmuller_table(p, prec).zeta_pow
    total = PadicNumber.zero(p)
    for e, q in sorted(buckets.items()):
        total = total + PadicNumber(p, 0, zeta_pow[e], prec) * q
    return total


def gen_bernoulli_oracle(n: int, chi: DirichletCharacter, prec: int = 20) -> PadicNumber:
    """B_(n,chi) from the integer Horner buckets of `gen_bernoulli`, each
    divided by D N as a Fraction and summed by `materialize_oracle`."""
    N = chi.modulus
    coeffs = exactq.bernoulli_poly(n)
    D = lcm(*(c.denominator for c in coeffs))
    d = [int(D * c) * N ** (n - j) for j, c in enumerate(coeffs)]

    def horner(y: int) -> int:
        acc = 0
        for dj in reversed(d):
            acc = acc * y + dj
        return acc

    sums = _grouped_rational_sums(chi, ((a, horner(a - N)) for a in chi.exponents))
    return materialize_oracle({e: Fraction(t, D * N) for e, t in sums.items()}, chi.prime, prec)


def gen_bernoulli_limit_oracle(n: int, chi: DirichletCharacter, j: int, prec: int = 20) -> PadicNumber:
    """The finite approximation (1/(N p^j)) sum_(a<=N p^j) chi(a) a^n."""
    N = max(chi.modulus, 1)
    p = chi.prime
    top = N * p**j
    weights = ((a, Fraction(a**n, top)) for a in range(1, top + 1))
    return materialize_oracle(_grouped_rational_sums(chi, weights), p, prec)


def gen_bernoulli_fraction_oracle(n: int, chi: DirichletCharacter, prec: int = 20) -> PadicNumber:
    """B_(n,chi) = N^(n-1) sum_a chi(a) B_n(a/N - 1) by a Fraction Horner at every a mod N."""
    N = chi.modulus
    scale = Fraction(N) ** (n - 1)
    weights = ((a, scale * exactq.bernoulli_poly_eval(n, Fraction(a, N) - 1)) for a in range(1, N + 1))
    return materialize_oracle(_grouped_rational_sums(chi, weights), chi.prime, prec)


def mu1_at_omega(i: int, p: int, prec: int = 20) -> PadicNumber:
    """The level-1 Stickelberger image under omega^i; equals -B_(1, omega^(-i))."""
    return evaluate_char(stickelberger(p), PadicCharSpec(i, 0), p, prec)


def reassemble_components(comps: dict[int, TruncatedSeries], p: int, r: int, prec: int = 12) -> GroupRingElement:
    """Inverse of component_series summed over all branches: each series,
    written in X = 1 + T by the inverse Taylor shift, puts h_k on gamma^k."""
    pr = p**r
    total = _element(pr, {})
    for i, series in comps.items():
        h = inverse_taylor_shift(series.coeffs, p**series.prec)
        poly = _element(pr, {pow(1 + p, k, pr): c for k, c in enumerate(h)}, 1, p, series.prec)
        total = total + idempotent(i, r, p, prec) * poly
    return total


def _parent_mu_level_sums(chi, r, prec):
    """The former bucket loop: [(b, A)] with mu_chi = sum_b -A/(N p^r) sigma_b."""
    p, N = chi.prime, chi.modulus
    pr = p**r
    buckets = {}
    for a in range(1, N * pr + 1):
        if gcd(a, N * p) != 1:
            continue
        e = chi.exponent(a)
        slot = buckets.setdefault(a % pr, {})
        slot[e] = slot.get(e, 0) + a
    rational = all(e == 0 or 2 * e == p - 1 for e in chi.exponents.values())
    zpow = teichmuller_table(p, prec + r).zeta_pow
    sums = []
    for c, slot in buckets.items():
        if rational:
            acc = slot.get(0, 0) - slot.get((p - 1) // 2, 0)
        else:
            acc = sum(zpow[e] * t for e, t in slot.items())
        sums.append((pow(c, -1, pr), acc))
    return sums
