import random

import pytest

from iwasawa import measures
from iwasawa.iwaseries import TruncatedSeries
from iwasawa.padic import PadicNumber, vp_diff


def test_dirac_basics():
    d0 = measures.dirac(0, 5, 12, 6)
    assert d0 == TruncatedSeries.one(5, 12, 6)
    d1 = measures.dirac(1, 5, 12, 6)
    assert d1.coeffs[:3] == (1, 1, 0)


def test_dirac_convolution_is_addition_of_points():
    p, M, N = 5, 16, 6
    for a, b in ((1, 1), (2, 3), (0, 4), (-1, 3)):
        lhs = measures.dirac(a, p, M, N) * measures.dirac(b, p, M, N)
        rhs = measures.dirac(a + b, p, M, N)
        assert lhs == rhs


def test_convolution_commutative_with_unit():
    rng = random.Random(5)
    p, M, N = 5, 14, 6
    one = measures.dirac(0, p, M, N)
    for _ in range(10):
        f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
        g = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
        assert f * g == g * f
        assert f * one == f


def test_iterated_dirac_convolution():
    p, M, N = 5, 14, 6
    d1 = measures.dirac(1, p, M, N)
    acc = measures.dirac(0, p, M, N)
    for k in range(1, 5):
        acc = acc * d1
        assert acc == measures.dirac(k, p, M, N)


def test_total_mass():
    p, M, N = 5, 14, 6
    assert measures.dirac(7, p, M, N).coeff(0).agrees(PadicNumber.one(p, N), N)
    t_f = TruncatedSeries(p, [0] + [3] * (M - 1), N)
    assert t_f.coeff(0).is_zero
    a = TruncatedSeries(p, [2] * M, N)
    b = TruncatedSeries(p, [3] * M, N)
    assert (a + b).coeff(0).agrees(PadicNumber.from_int(5, p, N), N)


def test_moments_of_dirac_are_powers():
    p, M, N = 5, 14, 8
    for a in (0, 1, 2, 5):
        d = measures.dirac(a, p, M, N)
        for n in range(9):
            want = PadicNumber.from_int(a**n, p, N) if a**n else PadicNumber.zero(p)
            got = measures.moment(d, n)
            if want.is_zero:
                assert got.is_zero or got.valuation >= N
            else:
                assert vp_diff(got, want) >= N


def test_dirac_at_padic_point():
    # moments of the Dirac measure at a Teichmuller point are its powers
    from iwasawa.padic import teichmuller

    p, M, N = 5, 14, 6
    w = teichmuller(2, p, N)
    d = measures.dirac(w, None, M, N)
    for n in range(6):
        assert vp_diff(measures.moment(d, n), w**n) >= N


def test_moment_zero_is_total_mass():
    rng = random.Random(6)
    p, M, N = 5, 10, 6
    f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
    assert measures.moment(f, 0) == f.coeff(0)


def test_moment_of_convolved_diracs():
    p, M, N = 5, 14, 6
    conv = measures.dirac(1, p, M, N) * measures.dirac(2, p, M, N)
    for n in range(7):
        assert measures.moment(conv, n).agrees(PadicNumber.from_int(3**n, p, N), N)


def test_moment_requires_truncation():
    with pytest.raises(ValueError):
        measures.moment(measures.dirac(1, 5, 6, 4), 6)


def test_mahler_pairing_picks_out_coefficients():
    rng = random.Random(7)
    p, M, N = 5, 12, 6
    f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
    for k in range(5):
        e_k = [0] * k + [1]
        got = measures.mahler_pairing(f, e_k)
        assert got == f.coeff(k) or got.agrees(f.coeff(k), N)


def test_mahler_of_monomial_tables():
    assert measures.mahler_of_monomial(1, 6) == [0, 1, 0, 0, 0, 0]
    assert measures.mahler_of_monomial(2, 6) == [0, 1, 2, 0, 0, 0]


def test_pairing_against_monomials_reproduces_moments():
    p, M, N = 5, 14, 8
    for x in (2, 3, 7):
        d = measures.dirac(x, p, M, N)
        for n in range(6):
            got = measures.mahler_pairing(d, measures.mahler_of_monomial(n, M))
            assert got.agrees(PadicNumber.from_int(x**n, p, N), N)
            assert vp_diff(got, measures.moment(d, n)) >= N


def test_pairing_is_bilinear():
    p, M, N = 5, 10, 6
    rng = random.Random(8)
    f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
    g = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
    coeffs = [rng.randrange(p**N) for _ in range(M)]
    lhs = measures.mahler_pairing(f + g, coeffs)
    rhs = measures.mahler_pairing(f, coeffs) + measures.mahler_pairing(g, coeffs)
    assert lhs.agrees(rhs, N) or vp_diff(lhs, rhs) >= N


def test_restriction_fixes_unit_diracs():
    for p in (3, 5):
        M, N = 20, 4
        for a in (1, 2, 3):
            if a % p == 0:
                continue
            d = measures.dirac(a, p, M, N)
            assert measures.restrict_to_units(d) == d


def test_restriction_kills_p_supported_diracs():
    for p in (3, 5):
        M, N = 20, 4
        for a in (0, p, 2 * p):
            d = measures.dirac(a, p, M, N)
            assert all(c == 0 for c in measures.restrict_to_units(d).coeffs)


def test_restriction_idempotent():
    # exact on polynomial measures (Dirac combinations)
    p, M, N = 5, 24, 4
    combo = measures.dirac(1, p, M, N) + measures.dirac(5, p, M, N) + measures.dirac(7, p, M, N)
    once = measures.restrict_to_units(combo)
    assert measures.restrict_to_units(once) == once
    # on general truncated series, idempotence holds on the reliable window
    rng = random.Random(9)
    f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
    r1 = measures.restrict_to_units(f)
    r2 = measures.restrict_to_units(r1)
    for j in range(M):
        window = min(N, (M - j) // (p - 1) - 1)
        if window <= 0:
            break
        assert (r1.coeffs[j] - r2.coeffs[j]) % p**window == 0


def test_restriction_moments_of_dirac_combinations():
    # moments of the restricted measure keep only the unit-supported points
    p, M, N = 5, 30, 4
    mix = measures.dirac(2, p, M, N) + measures.dirac(5, p, M, N).scalar_mul(3)
    res = measures.restrict_to_units(mix)
    for n in range(5):
        want = PadicNumber.from_int(2**n, p, N)
        assert measures.moment(res, n).agrees(want, N)
