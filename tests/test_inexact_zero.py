"""A zero carries its absolute precision: O(p^k) is an ordinary value.

Cancellation, `from_rational_abs` and `plog` return the zero known mod p^k,
and every caller that reads such a zero keeps its precision.  The exact zero
comes only from exact inputs; beside an exact rational it has no precision to
report, so their sum raises.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa import measures
from iwasawa.characters import DirichletCharacter, L_neg, quadratic_char
from iwasawa.group_algebra import GroupRingElement, PadicCharSpec, evaluate_char, h_element, interp_check, mu_chi_level
from iwasawa.iwaseries import TruncatedSeries
from iwasawa.padic import PadicError, PadicNumber, from_rational_abs, padic_binomial, plog, unit_power


def test_cancellation_keeps_its_precision():
    one = PadicNumber.from_int(1, 5, 4)
    z = one + PadicNumber.from_int(-1, 5, 4)
    assert z.is_zero and z.abs_precision == 4 and repr(z) == "O(5^4)"
    assert (z * PadicNumber.from_int(10, 5, 3)).abs_precision == 5


def test_zero_from_a_precision_is_inexact():
    assert PadicNumber.from_int(0, 5, 6).abs_precision == 6
    assert PadicNumber.from_rational(0, 5, 6).abs_precision == 6
    assert from_rational_abs(Fraction(25), 5, 2).abs_precision == 2
    assert PadicNumber.zero(5).abs_precision is None


def test_exact_zero_beside_an_exact_rational():
    z = PadicNumber.zero(5)
    with pytest.raises(PadicError):
        z + Fraction(1, 3)
    with pytest.raises(PadicError):
        Fraction(1, 3) - z
    assert (z * Fraction(1, 3)).abs_precision is None
    assert (z / 7).abs_precision is None
    assert (z + 0).abs_precision is None


def test_unit_power_with_an_inexact_zero_exponent():
    s = from_rational_abs(Fraction(25), 5, 2)  # 25 known mod 5^2
    assert unit_power(PadicNumber.from_int(6, 5, 8), s) == PadicNumber.one(5, 3)


def test_plog_of_one_keeps_its_precision():
    got = plog(PadicNumber.one(5, 4))
    assert got.is_zero and got.abs_precision == 4


def test_binomial_at_an_inexact_zero():
    x = PadicNumber.from_int(0, 5, 8)
    # x (x-1) ... (x-9) / 10! loses v_5(10) = 1 digit of x
    assert padic_binomial(x, 10).abs_precision == 7
    assert padic_binomial(PadicNumber.zero(5), 10).abs_precision is None


def test_agrees_only_up_to_the_known_digits():
    # the difference is O(5^4): it vanishes mod 5^4 but is unknown mod 5^8
    x, y = PadicNumber.from_int(1, 5, 4), PadicNumber.from_int(1 + 5**6, 5, 8)
    assert x.agrees(y, 4)
    assert not x.agrees(y, 8)
    assert PadicNumber.zero(5).agrees(PadicNumber.zero(5), 100)


@pytest.mark.parametrize("c", [0, 1])
def test_scalar_mul_is_capped_by_the_scalar_precision(c):
    f = TruncatedSeries(5, [1, 2, 3], 8)
    g = f.scalar_mul(PadicNumber.from_int(c, 5, 2))
    assert g.prec == 2 and g.coeffs == tuple(c * a % 25 for a in f.coeffs)


def test_scalar_mul_by_an_exact_scalar_keeps_the_series_precision():
    f = TruncatedSeries(5, [1, 2, 3], 8)
    assert f.scalar_mul(PadicNumber.from_int(7, 5, 20)) == f.scalar_mul(7)
    assert f.scalar_mul(PadicNumber.zero(5)).prec == 8
    assert f.scalar_mul(3).prec == 8
    assert f.scalar_mul(Fraction(1, 2)).scalar_mul(2) == f
    with pytest.raises(ValueError):
        f.scalar_mul(PadicNumber.from_int(0, 5, 0))


def test_series_coefficient_zero_is_known_mod_p_prec():
    f = TruncatedSeries(5, [0, 1, 25], 4)
    assert f.coeff(0).abs_precision == 4
    assert f.coeff(2).abs_precision == 4


def test_zero_coefficient_limits_the_group_ring_window():
    x = GroupRingElement(25, {1: PadicNumber.from_int(0, 5, 2), 2: PadicNumber.from_int(1, 5, 8)})
    assert x.window == 2


def test_dirac_at_an_inexact_zero_point_is_capped():
    d = measures.dirac(PadicNumber.from_int(0, 5, 2), trunc=6, prec=6)
    assert d.prec == 1  # 2 digits of the point less floor(log_5 5)
    assert measures.dirac(PadicNumber.zero(5), trunc=6, prec=6).prec == 6


def test_a_zero_known_mod_p_10_divided_by_p_loses_a_digit():
    # B_5 = 0 exactly, so L(1, -4) = -B_5/5 is the exact zero; a zero known
    # mod 5^10 divided by 5 is known mod 5^9 only
    assert L_neg(DirichletCharacter.trivial(1, 5), 5, 10).abs_precision is None
    got = -PadicNumber.from_rational(0, 5, 10) / 5
    assert got.is_zero and got.abs_precision == 9


def test_evaluate_char_caps_an_inexact_zero_exponent():
    p, r = 5, 3
    x = h_element(1, r, p) * mu_chi_level(DirichletCharacter.trivial(1, p), r)
    s = from_rational_abs(Fraction(0), p, 2)
    assert evaluate_char(x, PadicCharSpec(1, s), p, 10).abs_precision == 3


def _v5(q: Fraction) -> int:
    v, n, d = 0, q.numerator, q.denominator
    while n % 5 == 0:
        n, v = n // 5, v + 1
    while d % 5 == 0:
        d, v = d // 5, v - 1
    return v


# a * 5^e known mod 5^A: zeros to their precision whenever a = 0 or v_5(a) + e >= A
_padic_values = st.builds(
    lambda a, e, A: from_rational_abs(a * Fraction(5) ** e, 5, A),
    st.integers(-5**6, 5**6), st.integers(-3, 8), st.integers(-3, 12),
)
_rationals = st.builds(Fraction, st.integers(-10**4, 10**4).filter(bool), st.integers(1, 10**4))


@settings(derandomize=True, max_examples=400)
@given(_padic_values, _rationals)
def test_an_exact_operand_never_limits_precision(x, q):
    assert (x + q).abs_precision == x.abs_precision
    assert (q - x).abs_precision == x.abs_precision
    if x.is_zero:
        assert (x * q).abs_precision == x.abs_precision + _v5(q)
    else:
        assert (x * q).precision == (x / q).precision == x.precision


@pytest.mark.parametrize("p, chi, j, n, r", [
    (7, "quadratic3", 5, 8, 2),  # lhs vanishes mod 7^4 but not mod 7^9
    (5, "quadratic3", 3, 7, 4),
    (5, "trivial", 0, 2, 3),
    (7, "trivial", 2, 5, 3),
])
def test_interp_lhs_agrees_with_more_precision(p, chi, j, n, r):
    char = quadratic_char(3, p) if chi == "quadratic3" else DirichletCharacter.trivial(1, p)
    N = r + 2
    lo = interp_check(char, j, n, r, prec=N).lhs
    hi = interp_check(char, j, n, r, prec=N + 5).lhs
    assert lo.abs_precision is not None
    assert hi.agrees(lo, lo.abs_precision)
