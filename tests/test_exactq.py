import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa import exactq
from iwasawa.exactq import (
    BernoulliCache,
    bernoulli,
    bernoulli_poly,
    bernoulli_poly_eval,
    clausen_von_staudt_check,
    irregular_indices,
    kummer_congruence_check,
    power_sum,
    power_sum_closed,
    vp,
    zeta_neg,
)

FIRST_NONZERO = {
    0: Fraction(1),
    1: Fraction(1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}


def test_first_bernoulli_numbers():
    for n, val in FIRST_NONZERO.items():
        assert bernoulli(n) == val


def test_odd_bernoulli_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 31, 2))


def test_cache_is_extendable():
    cache = BernoulliCache(10)
    assert cache.value(4) == Fraction(-1, 30)
    assert cache.value(40) == bernoulli(40)  # triggers extension
    assert cache.limit >= 40


def test_cache_concurrent_extension():
    import threading

    cache = BernoulliCache(8)
    results = {}

    def worker(i):
        results[i] = cache.value(520 + 2 * i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(8):
        assert results[i] == bernoulli(520 + 2 * i)


def test_bernoulli_against_power_sum_identity():
    # Faulhaber closed form S_n(k) = (B_(n+1)(k) - B_(n+1)(0))/(n+1) brute forced
    for n in range(1, 31):
        for k in (1, 2, 3, 7, 25, 50):
            assert power_sum(n, k) == power_sum_closed(n, k)


def test_power_sum_values():
    assert power_sum(1, 10) == 55
    assert power_sum(2, 4) == 30 == power_sum_closed(2, 4)


@given(st.integers(1, 12), st.integers(1, 40))
def test_power_sum_formula_identity(n, k):
    assert power_sum(n, k) == power_sum_closed(n, k)


def test_bernoulli_poly_low_degrees():
    assert bernoulli_poly(1) == [Fraction(1, 2), Fraction(1)]  # X + 1/2
    assert bernoulli_poly(0) == [Fraction(1)]


def test_bernoulli_poly_difference_identity():
    for n in range(11):
        for x in range(-3, 4):
            lhs = bernoulli_poly_eval(n + 1, x) - bernoulli_poly_eval(n + 1, x - 1)
            assert lhs == (n + 1) * Fraction(x) ** n


def test_bernoulli_poly_distribution_relation():
    # B_n(X) = m^(n-1) sum_(a=1..m) B_n((X+a)/m - 1); the shift by -1 in the
    # argument is forced by the generating-function derivation and by n = 1
    for n in range(1, 9):
        for m in (2, 3, 5):
            for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7)):
                rhs = Fraction(m) ** (n - 1) * sum(
                    bernoulli_poly_eval(n, (x + a) / m - 1) for a in range(1, m + 1)
                )
                assert bernoulli_poly_eval(n, x) == rhs


def test_zeta_values():
    assert zeta_neg(1) == Fraction(-1, 2)
    assert zeta_neg(12) == Fraction(691, 32760)
    assert all(zeta_neg(n) == 0 for n in range(3, 20, 2))


def test_vp():
    assert vp(Fraction(691, 32760), 691) == 1
    assert vp(1, 5) == 0
    assert vp(Fraction(5**3, 2), 5) == 3
    with pytest.raises(ValueError):
        vp(0, 5)


def test_clausen_von_staudt_examples():
    rep = clausen_von_staudt_check(4, 5)
    assert rep.divides and rep.residue == 4 and rep.passed  # 5*(-1/30) = -1 mod 5
    rep = clausen_von_staudt_check(4, 7)
    assert not rep.divides and rep.integral and rep.passed


def test_clausen_von_staudt_small_scan():
    for p in (3, 5, 7):
        for n in range(2, 60, 2):
            assert clausen_von_staudt_check(n, p).passed


def test_kummer_example():
    rep = kummer_congruence_check(22, 2, 5, 1, 2)
    assert rep.diff_valuation >= 2 and rep.passed


def test_kummer_equal_indices_give_zero_difference():
    rep = kummer_congruence_check(14, 14, 5, 2, 3)
    assert rep.diff_valuation == float("inf")


def test_kummer_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        kummer_congruence_check(10, 2, 5, 1, 2)  # 8 not divisible by 20
    with pytest.raises(ValueError):
        kummer_congruence_check(22, 2, 5, 1, 5)  # c divisible by p


@settings(max_examples=15)
@given(st.data())
def test_kummer_random_tuples(data):
    p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
    feasible_k = [k for k in (1, 2) if p**k * (p - 1) < 400]
    k = data.draw(st.sampled_from(feasible_k))
    step = p**k * (p - 1)
    n = data.draw(st.integers(1, min(30, 400 - step)))
    m = n + step * data.draw(st.integers(1, max(1, (400 - n) // step)))
    c = data.draw(st.sampled_from([c for c in range(2, 12) if c % p]))
    assert kummer_congruence_check(m, n, p, k, c).passed


def test_irregular_indices():
    assert irregular_indices(37) == {32}
    for p in (3, 5, 7, 11, 13):
        assert irregular_indices(p) == set()


def test_irregular_indices_match_the_zeta_valuation():
    primes = [p for p in range(3, 700, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]
    assert len(primes) == 124
    for p in primes:
        assert irregular_indices(p) == {n for n in range(2, p - 2, 2) if vp(zeta_neg(n), p) >= 1}, p


def test_euler_stripped_zeta():
    assert exactq.euler_stripped_zeta(2, 5) == (1 - 5) * Fraction(-1, 12)


def test_numerator_digits_without_computing_bernoulli_numbers():
    for n in range(2, 700, 2):
        assert int(exactq.numerator_log10(n)) + 1 == len(str(abs(bernoulli(n).numerator))), n


def test_first_unprintable_index():
    # B_2062 has a numerator of exactly 4300 digits and B_2064 one of 4311
    # (counted once with the int printing limit lifted)
    assert exactq.first_unprintable_index() == 2064
    assert [int(exactq.numerator_log10(n)) + 1 for n in (2062, 2064)] == [4300, 4311]
    default = getattr(sys.int_info, "default_max_str_digits", exactq.PRINTABLE_DIGITS)
    assert exactq.PRINTABLE_DIGITS == default
