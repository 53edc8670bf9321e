"""The division lemma as an exact solve: `divide` factors f = U P by Hensel
lifting and corrects T_n(U) T_n(P/T^nu) by a rank-nu term.  Its results are
compared with the digit-by-digit division of test_division_contraction, and
a counter checks that no product runs once per p-adic digit."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa import iwaseries
from iwasawa.iwaseries import TruncatedSeries, _distinguished_factor, mul_trunc
from test_division_contraction import _digit_divide


@st.composite
def exact_divisions(draw):
    """(g, f) mod p^N with f = A + T^nu B, A = 0 mod p^v, B(0) a unit, 2 nu <= M."""
    p = draw(st.sampled_from([3, 5, 7, 13]))
    N = draw(st.integers(1, 25))
    M = draw(st.integers(1, 24))
    nu = M // 2 if draw(st.booleans()) else draw(st.integers(0, M // 2))
    v = min(draw(st.sampled_from([1, 2, 3, N])), N)
    mod = p**N
    digits = st.integers(0, mod - 1)
    a = [p**v * x for x in draw(st.lists(digits, min_size=nu, max_size=nu))]
    b0 = draw(st.integers(1, p - 1)) + p * draw(digits)
    b = draw(st.lists(digits, min_size=M - nu - 1, max_size=M - nu - 1))
    g = draw(st.lists(digits, min_size=M, max_size=M))
    return TruncatedSeries(p, g, N), TruncatedSeries(p, a + [b0] + b, N)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=exact_divisions())
def test_divide_matches_digit_by_digit_division_everywhere(case):
    g, f = case
    q, r = g.divide(f)
    q_ref, r_ref = _digit_divide(g, f)
    assert q.coeffs == q_ref.coeffs and r == r_ref


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=exact_divisions())
def test_distinguished_factor_divides_the_polynomial(case):
    _, f = case
    p, M, N = f.prime, f.trunc, f.prec
    nu = f.weierstrass_degree()
    P, U = _distinguished_factor(f.coeffs, nu, p, N)
    assert len(P) == nu + 1 and P[-1] == 1 and all(c % p == 0 for c in P[:-1])
    assert len(U) == M - nu and mul_trunc(U, P, p**N, M) == list(f.coeffs)


def test_divide_makes_no_product_per_digit(monkeypatch):
    """A nu = 3, v_p(A) = 1 division at (p, M, N) = (5, 160, 20) makes O(nu)
    products of length at least M - nu, where the contraction it replaced,
    two products in each of its ceil(N / v_p(A)) = 20 rounds, made 40."""
    p, M, N, nu = 5, 160, 20, 3
    rng = random.Random(27)
    a = [p * rng.randrange(1, p) + p * p * rng.randrange(p**N) for _ in range(nu)]
    b = [rng.randrange(1, p)] + [rng.randrange(p**N) for _ in range(M - nu - 1)]
    f = TruncatedSeries(p, a + b, N)
    g = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
    long_products = []

    def counted(x, y, mod, n):
        if n >= M - nu and x and y:
            long_products.append(n)
        return mul_trunc(x, y, mod, n)

    expected = g.divide(f)
    monkeypatch.setattr(iwaseries, "mul_trunc", counted)
    assert g.divide(f) == expected
    assert 1 <= len(long_products) <= nu
