"""The Lambda kernels that skip wasted products: the sparse monic division,
the preparation of a unit, the half-length Newton step of `invert_unit`.
Each is compared with the route it replaced, copied here as the reference;
the twist's references are the Horner loops in test_composition_kernels and
test_operation_kernels."""

import random

import pytest

from iwasawa.iwaseries import TruncatedSeries, mul_trunc, poly_divmod_monic, poly_trim


def _dense_divmod(a, b):
    """The former division: every coefficient of the monic b, zeros and the leading 1 included."""
    r, b = poly_trim(a), poly_trim(b)
    db = len(b) - 1
    if db == 0:
        return r, []
    q = [0] * max(len(r) - db, 0)
    for d in reversed(range(len(q))):
        c = q[d] = r[d + db]
        for i in range(db + 1):
            r[d + i] -= c * b[i]
    return poly_trim(q), poly_trim(r[:db])


DIVISORS = {
    "T": lambda p: [0, 1],
    "T-p": lambda p: [-p, 1],
    "T^2+p": lambda p: [p, 0, 1],
    "T^3": lambda p: [0, 0, 0, 1],
    "1": lambda p: [1],
    "T, zero-padded": lambda p: [0, 1, 0],
}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("name", DIVISORS)
def test_poly_divmod_monic_matches_dense_schoolbook(p, name):
    b = DIVISORS[name](p)
    rng = random.Random(str((p, name)))
    dividends = [[], [0], [0, 0, 0], [5], [3, -2], [0, 0, 7], [1, 2, 3, 4]]
    dividends += [[rng.randrange(-p**4, p**4) for _ in range(rng.randrange(1, 14))] for _ in range(20)]
    for a in dividends:
        assert poly_divmod_monic(a, b) == _dense_divmod(a, b), a


def _general_prep(f):
    """The former preparation for every f: the quotient of T^nu by f / p^mu, inverted."""
    p, M, N = f.prime, f.trunc, f.prec
    mu, _ = f.mu_lambda()
    f1 = TruncatedSeries(p, [c // p**mu for c in f.coeffs], N - mu)
    nu = f1.weierstrass_degree()
    lam, r = TruncatedSeries(p, [int(i == nu) for i in range(M)], N - mu).divide(f1)
    return mu, lam.invert_unit(), [-c % p ** (N - mu) for c in r] + [1]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("mu", [0, 1, 2])
def test_weierstrass_prep_of_a_unit_needs_no_division(monkeypatch, p, mu):
    rng = random.Random(p * 10 + mu)
    N = 8
    cases = []
    for M in (1, 2, 7, 40):
        coeffs = [rng.randrange(p ** (N - mu)) for _ in range(M)]
        coeffs[0] = coeffs[0] * p % p ** (N - mu) + rng.randrange(1, p)
        f = TruncatedSeries(p, [c * p**mu for c in coeffs], N)
        cases.append((f, _general_prep(f)))

    def refuse(*args):
        raise AssertionError("a unit's preparation inverted or divided")

    monkeypatch.setattr(TruncatedSeries, "invert_unit", refuse)
    monkeypatch.setattr(TruncatedSeries, "divide", refuse)
    for f, (mu_ref, unit_ref, dist_ref) in cases:
        fac = f.weierstrass_prep()
        assert (fac.mu, fac.unit, fac.distinguished) == (mu_ref, unit_ref, dist_ref) == (mu, unit_ref, [1])
        assert fac.matches_source()


def _full_newton_inverse(f):
    """The former Newton loop: g <- g (2 - f g) by two full products mod T^(2k)."""
    M, mod = f.trunc, f.prime**f.prec
    g = [pow(f.coeffs[0], -1, mod)]
    while len(g) < M:
        k = min(2 * len(g), M)
        e = [-c % mod for c in mul_trunc(f.coeffs, g, mod, k)]
        e[0] = (e[0] + 2) % mod
        g = mul_trunc(g, e, mod, k)
    return g


@pytest.mark.parametrize("M", [1, 2, 3, 5, 8, 9, 17, 160])
@pytest.mark.parametrize("N", [1, 6, 20])
def test_invert_unit_matches_full_product_newton(M, N):
    rng = random.Random(M * 100 + N)
    for p in (3, 5, 13):
        mod = p**N
        coeffs = [rng.randrange(mod) for _ in range(M)]
        coeffs[0] = coeffs[0] * p % mod + rng.randrange(1, p)
        f = TruncatedSeries(p, coeffs, N)
        assert list(f.invert_unit().coeffs) == _full_newton_inverse(f)
