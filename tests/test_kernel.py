"""The one product kernel `mul_trunc` and the routines built on it, against
schoolbook references written here."""

import random

import pytest

from iwasawa.iwaseries import (
    IndeterminateWithinTruncation,
    TruncatedSeries,
    mu_lambda_of,
    mul_trunc,
    poly_mul,
)
from iwasawa.padic import int_vp


def schoolbook(a, b, mod, n):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] = (out[i + j] + x * y) % mod
    return out


def triangular_inverse(coeffs, mod):
    """The inverse of a unit series by solving f*g = 1 one coefficient at a time."""
    M = len(coeffs)
    inv0 = pow(coeffs[0], -1, mod)
    out = [inv0] + [0] * (M - 1)
    for k in range(1, M):
        s = sum(coeffs[i] * out[k - i] for i in range(1, k + 1))
        out[k] = (-inv0 * s) % mod
    return out


def random_coeffs(rng, length, mod, zero_share=0.0):
    return [0 if rng.random() < zero_share else rng.randrange(mod) for _ in range(length)]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("N", [1, 6, 20])
def test_mul_trunc_matches_schoolbook(p, N):
    rng = random.Random(p * 100 + N)
    mod = p**N
    lengths = [0, 1, 2, 3, 8, 17, 40]
    for la in lengths:
        for lb in lengths:
            a = random_coeffs(rng, la, mod)
            b = random_coeffs(rng, lb, mod)
            for n in {0, 1, max(la, lb), la + lb - 1, la + lb + 3}:
                if n < 0:
                    continue
                assert mul_trunc(a, b, mod, n) == schoolbook(a, b, mod, n), (la, lb, n)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("N", [1, 6, 20])
def test_mul_trunc_extreme_and_sparse_inputs(p, N):
    rng = random.Random(p + N)
    mod = p**N
    top = [mod - 1] * 30
    assert mul_trunc(top, top, mod, 59) == schoolbook(top, top, mod, 59)
    for share in (0.7, 0.95, 1.0):
        a = random_coeffs(rng, 33, mod, share)
        b = random_coeffs(rng, 21, mod, share)
        assert mul_trunc(a, b, mod, 40) == schoolbook(a, b, mod, 40)
        assert mul_trunc(tuple(a), tuple(b), mod, 60) == schoolbook(a, b, mod, 60)


def test_mul_trunc_squares_an_operand_passed_twice():
    rng = random.Random(1)
    for mod, length in [(3, 1), (5**6, 12), (7**20, 33)]:
        a = random_coeffs(rng, length, mod)
        for n in (1, length, 2 * length - 1, 2 * length + 2):
            assert mul_trunc(a, a, mod, n) == schoolbook(a, a, mod, n)
            t = tuple(a)
            assert mul_trunc(t, t, mod, n) == schoolbook(a, a, mod, n)


def test_mul_trunc_output_is_reduced_and_padded():
    out = mul_trunc([2, 2], [2], 3, 5)
    assert out == [1, 1, 0, 0, 0]
    assert mul_trunc([], [1, 2], 7, 3) == [0, 0, 0]
    assert mul_trunc([1, 2], [3], 7, 0) == []


def test_series_mul_uses_the_kernel_result():
    rng = random.Random(2)
    p, M, N = 5, 24, 8
    a = TruncatedSeries(p, random_coeffs(rng, M, p**N), N)
    b = TruncatedSeries(p, random_coeffs(rng, M, p**N), N)
    assert list((a * b).coeffs) == schoolbook(a.coeffs, b.coeffs, p**N, M)
    assert list((a * a).coeffs) == schoolbook(a.coeffs, a.coeffs, p**N, M)


def test_poly_mul_signed_exact():
    rng = random.Random(3)
    for la, lb in [(1, 1), (1, 6), (5, 5), (9, 3), (30, 17)]:
        for scale in (1, 7, 10**12):
            a = [rng.randint(-scale, scale) for _ in range(la)]
            b = [rng.randint(-scale, scale) for _ in range(lb)]
            b[rng.randrange(lb)] = 0
            exact = [0] * (la + lb - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    exact[i + j] += x * y
            assert poly_mul(a, b) == exact
    assert poly_mul([0, 0], [0, 0, 0]) == [0, 0, 0, 0]
    assert poly_mul([-3], [-4]) == [12]
    assert poly_mul([-1, 1], [1, 1]) == [-1, 0, 1]
    assert poly_mul([], [1, 2]) == [] and poly_mul([1, 2], []) == []


@pytest.mark.parametrize("M", [1, 2, 3, 17, 64])
def test_invert_unit_matches_triangular_solve(M):
    rng = random.Random(M)
    for p, N in [(3, 1), (5, 8), (7, 20)]:
        mod = p**N
        coeffs = random_coeffs(rng, M, mod)
        coeffs[0] = coeffs[0] * p + rng.randrange(1, p)
        f = TruncatedSeries(p, coeffs, N)
        g = f.invert_unit()
        assert list(g.coeffs) == triangular_inverse(list(f.coeffs), mod)
        assert f * g == TruncatedSeries.one(p, M, N)


def test_mu_lambda_of_matches_a_full_scan():
    rng = random.Random(4)
    p = 5
    for _ in range(200):
        coeffs = [rng.choice([0, 1, 2, 5, 10, 25, 125, -50, 3 * 625]) * rng.choice([1, 5]) for _ in range(9)]
        nonzero = [(int_vp(c, p), i) for i, c in enumerate(coeffs) if c]
        if not nonzero:
            with pytest.raises(IndeterminateWithinTruncation):
                mu_lambda_of(coeffs, p)
            continue
        mu = min(v for v, _ in nonzero)
        first = next(i for v, i in nonzero if v == mu)
        assert mu_lambda_of(coeffs, p) == (mu, first)
