import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iwasawa.padic import (
    PadicError,
    PadicNumber,
    decompose_unit,
    padic_binomial,
    pexp,
    plog,
    teichmuller,
    unit_power,
    vp_diff,
)


def test_rejects_two():
    with pytest.raises(PadicError):
        PadicNumber.from_int(3, 2, 4)


def test_padic_numbers_are_unhashable():
    # `==` against an exact number depends on precision, so no hash can match it
    x = PadicNumber.from_int(1, 5, 10)
    assert x == 1
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(TypeError):
        {x}


def test_additive_inverse_gives_exact_zero():
    one = PadicNumber.from_int(1, 5, 4)
    assert (one + PadicNumber.from_int(-1, 5, 4)).is_zero


def test_carry_into_valuation_loses_a_digit():
    x = PadicNumber.from_int(2, 5, 3) + PadicNumber.from_int(3, 5, 3)
    assert (x.valuation, x.mantissa, x.precision) == (1, 1, 2)


def test_seven_plus_eighteen():
    x = PadicNumber.from_int(7, 5, 4) + PadicNumber.from_int(18, 5, 4)
    assert (x.valuation, x.mantissa) == (2, 1)


def test_inverse_examples():
    one = PadicNumber.from_int(1, 7, 3)
    assert one.inverse() == one
    inv2 = PadicNumber.from_int(2, 7, 3).inverse()
    assert inv2.mantissa == 172 and inv2.valuation == 0
    with pytest.raises(PadicError):
        PadicNumber.zero(7).inverse()


def test_mul_inverse_is_one_on_random_units():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice((5, 7, 11))
        m = rng.randrange(1, p**6)
        while m % p == 0:
            m = rng.randrange(1, p**6)
        u = PadicNumber(p, rng.randrange(-3, 4), m, 6)
        assert (u * u.inverse()).agrees(PadicNumber.one(p, 6), 6)


def test_prime_mismatch_raises():
    with pytest.raises(PadicError):
        PadicNumber.from_int(1, 5, 3) + PadicNumber.from_int(1, 7, 3)


# -- Teichmuller ------------------------------------------------------------


def test_teichmuller_fixed_point_and_minus_one():
    for p in (5, 11):
        assert teichmuller(1, p, 5) == PadicNumber.one(p, 5)
        m1 = teichmuller(p - 1, p, 5)
        assert (m1 + 1).is_zero


def test_teichmuller_of_two_mod_125():
    assert teichmuller(2, 5, 3).mantissa == 57


def test_teichmuller_torsion_and_reduction():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            w = teichmuller(a, p, 5)
            assert (w ** (p - 1)).agrees(PadicNumber.one(p, 5), 5)
            assert w.residue() == a


def test_teichmuller_rejects_p_multiple():
    with pytest.raises(PadicError):
        teichmuller(10, 5, 4)


# -- log / exp ---------------------------------------------------------------


def test_pexp_zero_is_one():
    assert pexp(PadicNumber.zero(5)) == PadicNumber.one(5, 1)


def test_log_exp_inverse_pair_on_random_points():
    rng = random.Random(2)
    count = 0
    while count < 30:
        p = rng.choice((5, 7, 11))
        x = PadicNumber.from_int(p * rng.randrange(1, p**5), p, 6)
        if x.is_zero:
            continue
        count += 1
        assert plog(pexp(x)).agrees(x, x.abs_precision)
        u = pexp(x)
        assert pexp(plog(u)).agrees(u, u.abs_precision)


def test_plog_of_six_matches_term_sum():
    # independent evaluation of sum (-1)^(n+1) 5^n / n at higher precision
    oracle = sum(Fraction((-1) ** (n + 1) * 5**n, n) for n in range(1, 12))
    got = plog(PadicNumber.from_int(6, 5, 4))
    assert got.agrees(PadicNumber.from_rational(oracle, 5, 8), 4)


def test_plog_domain_check():
    with pytest.raises(PadicError):
        plog(PadicNumber.from_int(2, 5, 4))
    with pytest.raises(PadicError):
        pexp(PadicNumber.from_int(3, 5, 4))


@given(st.integers(1, 5**4), st.integers(1, 5**4))
def test_plog_is_a_homomorphism(a, b):
    u = PadicNumber.from_int(1 + 5 * a, 5, 7)
    v = PadicNumber.from_int(1 + 5 * b, 5, 7)
    lhs = plog(u * v)
    rhs = plog(u) + plog(v)
    assert vp_diff(lhs, rhs) >= min(lhs.abs_precision or 7, 7)


# -- unit decomposition and powers ---------------------------------------


def test_decompose_unit_examples():
    one = PadicNumber.one(5, 4)
    t, u = decompose_unit(one)
    assert t == one and u.agrees(one, 4)
    t, u = decompose_unit(PadicNumber.from_int(-1, 5, 4))
    assert (t + 1).is_zero and u.agrees(one, 4)
    z = PadicNumber.from_int(2, 5, 3)
    t, u = decompose_unit(z)
    assert t.mantissa == 57
    assert (t * u).agrees(z, 3)


def test_decompose_rejects_nonunit():
    with pytest.raises(PadicError):
        decompose_unit(PadicNumber.from_int(10, 5, 3))


def test_unit_power_consistency():
    rng = random.Random(3)
    p = 7
    for _ in range(10):
        u = PadicNumber.from_int(1 + p * rng.randrange(1, p**4), p, 6)
        assert unit_power(u, 0) == PadicNumber.one(p, u.precision)
        assert unit_power(u, 2).agrees(u * u, u.abs_precision)


def test_iterated_unit_power_multiplies_exponents():
    p = 5
    u = PadicNumber.from_int(1 + p, p, 8)
    rng = random.Random(4)
    for _ in range(5):
        s = PadicNumber.from_int(rng.randrange(1, p**4), p, 8)
        t = PadicNumber.from_int(rng.randrange(1, p**4), p, 8)
        lhs = unit_power(unit_power(u, s), t)
        rhs = unit_power(u, s * t)
        assert vp_diff(lhs, rhs) >= 6


# -- binomial coefficients -----------------------------------------------


def test_binomial_base_cases():
    x = PadicNumber.from_int(9, 5, 4)
    assert padic_binomial(x, 0) == PadicNumber.one(5, 4)
    assert padic_binomial(5, 2, 7, 4).agrees(PadicNumber.from_int(10, 7, 4), 4)


@given(st.integers(0, 5**4), st.integers(1, 10))
def test_binomial_pascal_identity(a, n):
    p = 5
    x = PadicNumber.from_int(a, p, 8)
    lhs = padic_binomial(x + 1, n) - padic_binomial(x, n)
    rhs = padic_binomial(x, n - 1)
    assert vp_diff(lhs, rhs) >= 4


def test_binomial_integrality_on_zp_points():
    for a in (3, 12, 57, 124):
        for n in range(8):
            b = padic_binomial(PadicNumber.from_int(a, 5, 6), n)
            assert b.is_zero or b.valuation >= 0


# -- field axioms at fixed precision -----------------------------------------


nonzero5 = st.integers(-5**5, 5**5).filter(lambda n: n != 0)


@given(nonzero5, nonzero5, nonzero5)
def test_field_axioms_on_tracked_digits(a, b, c):
    p, N = 5, 6
    x, y, z = (PadicNumber.from_int(t, p, N) for t in (a, b, c))
    assoc = (x + y) + z - (x + (y + z))
    assert assoc.is_zero or assoc.valuation >= min(v.abs_precision for v in (x, y, z))
    lhs = x * (y + z)
    rhs = x * y + x * z
    d = lhs - rhs
    if not d.is_zero:
        floor = x.valuation + min(y.abs_precision, z.abs_precision)
        assert d.valuation >= floor
