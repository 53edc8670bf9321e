"""The division lemma as one contraction.

`divide` and `weierstrass_prep` are compared with the former digit-by-digit
division (kept here as the reference), and results at p-adic precision N + 5,
reduced mod p^N, must equal the results at N.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa.iwaseries import TruncatedSeries, mul_trunc

# the (p, M, N) of the benchmark's lambda_tower series ops
TOWER_SHAPES = [(3, 40, 12), (5, 40, 12), (7, 40, 12), (5, 160, 20), (7, 160, 20)]


def _digit_divide(g, f):
    """The former `divide`: N rounds, each solving for one base-p digit of
    quotient and remainder mod p with the inverse of f's unit part mod p."""
    p, M, N = g.prime, g.trunc, g.prec
    nu = f.weierstrass_degree()
    W = M - nu
    mod = p**N
    ubar_inv = TruncatedSeries(p, f.coeffs[nu:nu + W], 1).invert_unit()
    quot = [0] * W
    rem = [0] * nu
    defect = list(g.coeffs)
    for s in range(N):
        ps = p**s
        e = [(d // ps) % p for d in defect]
        lam_bar = mul_trunc(e[nu:], ubar_inv.coeffs, p, W)
        for j in range(W):
            quot[j] = (quot[j] + ps * lam_bar[j]) % mod
        for i in range(nu):
            rem[i] = (rem[i] + ps * e[i]) % mod
        flam = mul_trunc(f.coeffs, lam_bar, mod, M)
        for j in range(M):
            d = flam[j] + (e[j] if j < nu else 0)
            defect[j] = (defect[j] - ps * d) % mod
    return TruncatedSeries(p, quot, N), rem


def _divisor(rng, p, M, N, nu, v_a, mu=0):
    """p^mu (A + T^nu B): A = f mod T^nu divisible by p^v_a, B(0) a unit."""
    a = [p**v_a * rng.randrange(p**N) for _ in range(nu)]
    b = [rng.randrange(1, p) + p * rng.randrange(p**N)] + [rng.randrange(p**N) for _ in range(M - nu - 1)]
    return TruncatedSeries(p, [p**mu * c for c in a + b], N)


# (p, M, N, nu, v_p(A)): the tower shapes at nu = 0, a small nu and v_p(A) = 2,
# then 2 nu = M, v_p(A) >= 2, and A = 0 mod p^N at nu > 0
CASES = [(p, M, N, nu, v_a) for p, M, N in TOWER_SHAPES for nu, v_a in ((0, 1), (3, 1), (5, 2))] + [
    (5, 12, 6, 6, 1), (3, 10, 5, 5, 2), (5, 24, 8, 4, 3), (7, 16, 6, 3, 6), (5, 2, 3, 1, 1),
]


@pytest.mark.parametrize("p, M, N, nu, v_a", CASES)
def test_divide_matches_digit_by_digit_division(p, M, N, nu, v_a):
    rng = random.Random(str((p, M, N, nu, v_a)))
    for _ in range(3):
        f = _divisor(rng, p, M, N, nu, v_a)
        g = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
        assert f.weierstrass_degree() == nu
        q, r = g.divide(f)
        q_ref, r_ref = _digit_divide(g, f)
        assert q.coeffs == q_ref.coeffs and r == r_ref


@pytest.mark.parametrize("mu", [0, 1, 2])
@pytest.mark.parametrize("p, M, N, nu, v_a", [c for c in CASES if c[2] > 2])
def test_weierstrass_prep_matches_digit_by_digit_division(monkeypatch, p, M, N, nu, v_a, mu):
    f = _divisor(random.Random(str((p, M, N, nu, v_a, mu))), p, M, N, nu, v_a, mu)
    fac = f.weierstrass_prep()
    with monkeypatch.context() as m:
        m.setattr(TruncatedSeries, "divide", _digit_divide)
        ref = f.weierstrass_prep()
    assert (fac.mu, fac.weierstrass_degree) == (ref.mu, ref.weierstrass_degree) == (mu, nu)
    assert fac.distinguished == ref.distinguished and fac.unit == ref.unit
    assert fac.matches_source()


# -- results at N + 5 reduce to the results at N --------------------------------------

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def divisions(draw, max_mu=0):
    """(p, M, N, nu, mu, g, f) with g, f given mod p^(N+5) and f = p^mu (A + T^nu B)."""
    p = draw(st.sampled_from([3, 5, 7]))
    mu = draw(st.integers(0, max_mu))
    N = draw(st.integers(mu + 1, mu + 6))
    nu = draw(st.integers(0, 4))
    M = draw(st.integers(max(2 * nu, 1), 16))
    big = p ** (N + 5)
    digits = st.integers(0, big - 1)
    a = [p * x for x in draw(st.lists(digits, min_size=nu, max_size=nu))]
    b0 = draw(st.integers(1, p - 1)) + p * draw(digits)
    b = draw(st.lists(digits, min_size=M - nu - 1, max_size=M - nu - 1))
    g = draw(st.lists(digits, min_size=M, max_size=M))
    f = [p**mu * c for c in a + [b0] + b]
    return p, M, N, nu, mu, g, f


@PROPERTY
@given(case=divisions())
def test_divide_at_n_plus_5_reduces_to_divide_at_n(case):
    p, M, N, nu, _, g, f = case
    mod = p**N
    q_hi, r_hi = TruncatedSeries(p, g, N + 5).divide(TruncatedSeries(p, f, N + 5))
    q, r = TruncatedSeries(p, g, N).divide(TruncatedSeries(p, f, N))
    assert [c % mod for c in q_hi.coeffs] == list(q.coeffs)
    assert [c % mod for c in r_hi] == r


@PROPERTY
@given(case=divisions(max_mu=2))
def test_weierstrass_prep_at_n_plus_5_reduces_to_prep_at_n(case):
    p, M, N, nu, mu, _, f = case
    hi = TruncatedSeries(p, f, N + 5).weierstrass_prep()
    lo = TruncatedSeries(p, f, N).weierstrass_prep()
    mod = p ** (N - mu)
    assert (hi.mu, hi.weierstrass_degree) == (lo.mu, lo.weierstrass_degree) == (mu, nu)
    assert [c % mod for c in hi.distinguished] == lo.distinguished
    assert [c % mod for c in hi.unit.coeffs] == list(lo.unit.coeffs)
