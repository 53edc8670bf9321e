import random
from fractions import Fraction
from math import gcd

import pytest

from iwasawa import exactq
from iwasawa.characters import (
    DirichletCharacter,
    _materialize,
    from_generator_data,
    gen_bernoulli,
    L_neg,
    quadratic_char,
    teichmuller_char,
)
from iwasawa.padic import PadicNumber, vp_diff
from oracles import gen_bernoulli_fraction_oracle, gen_bernoulli_limit_oracle, gen_bernoulli_oracle, materialize_oracle


def test_teichmuller_char_basics():
    p = 7
    w0 = teichmuller_char(p, 0)
    assert w0.is_trivial()
    assert teichmuller_char(p, p - 1).exponents == w0.exponents
    w = teichmuller_char(p, 1)
    assert w.rational_value(p - 1) == -1  # omega(-1) = -1
    assert w.parity == -1
    assert teichmuller_char(p, 2).parity == 1


def test_every_table_is_multiplicative():
    for chi in (teichmuller_char(7, 3), quadratic_char(3, 5), quadratic_char(7, 13)):
        m = chi.modulus
        for a in range(1, m):
            for b in range(1, m):
                if gcd(a, m) == 1 and gcd(b, m) == 1:
                    assert chi.exponent(a * b) == (chi.exponent(a) + chi.exponent(b)) % (chi.prime - 1)


def test_character_sums():
    # sum over the group: 0 for nontrivial, phi(m) for trivial
    for chi in (teichmuller_char(5, 1), teichmuller_char(5, 2), quadratic_char(7, 5)):
        total = sum(chi(a, 8) for a in range(1, chi.modulus) if gcd(a, chi.modulus) == 1)
        assert total.is_zero or total.valuation >= 8
    triv = DirichletCharacter.trivial(12, 5)
    total = sum(triv(a, 8) for a in range(1, 12) if gcd(a, 12) == 1)
    assert total.agrees(PadicNumber.from_int(4, 5, 8), 8)


def test_from_generator_data_quadratic():
    p = 13
    q = 11
    chi = from_generator_data(q, {2: (p - 1) // 2}, p)  # 2 generates (Z/11)^x
    # Euler's criterion table
    for a in range(1, q):
        expect = Fraction(1) if pow(a, (q - 1) // 2, q) == 1 else Fraction(-1)
        assert chi.rational_value(a) == expect
    assert chi.exponents == quadratic_char(q, p).exponents


def test_from_generator_data_trivial_and_omega():
    assert from_generator_data(9, {2: 0}, 5).is_trivial()
    p = 7
    for i in range(p - 1):
        chi = from_generator_data(p, {3: i}, p)  # 3 is the least primitive root mod 7
        assert chi.exponents == teichmuller_char(p, i).exponents


def test_from_generator_data_rejects():
    with pytest.raises(ValueError):
        from_generator_data(7, {2: 1}, 7)  # 2 has order 3 mod 7; needs 3 | order of image
    with pytest.raises(ValueError):
        from_generator_data(12, {5: 0}, 5)  # 5 alone does not generate (Z/12)^x


def test_conductor_and_primitivize():
    assert DirichletCharacter.trivial(15, 5).conductor() == 1
    p = 7
    for i in range(1, p - 1):
        assert teichmuller_char(p, i).conductor() == p
    # character mod 15 induced from the quadratic character mod 3
    chi3 = quadratic_char(3, 5)
    table = {a: chi3.exponent(a % 3) for a in range(1, 15) if gcd(a, 15) == 1}
    chi15 = DirichletCharacter(15, 5, table)
    assert chi15.conductor() == 3
    assert not chi15.is_primitive()
    assert chi15.primitivize().exponents == chi3.exponents


def test_gen_bernoulli_trivial_reduces_to_bernoulli():
    triv = DirichletCharacter.trivial(1, 5)
    for n in (1, 2, 4, 6):
        b = gen_bernoulli(n, triv, 8)
        assert b.agrees(PadicNumber.from_rational(exactq.bernoulli(n), 5, 8), 7)


def test_gen_bernoulli_requires_primitive():
    with pytest.raises(ValueError):
        gen_bernoulli(2, DirichletCharacter.trivial(15, 5), 8)


def test_residue_of_first_twisted_bernoulli():
    # p * B_(1, omega^(-1)) = -1 mod p
    for p in (5, 7, 11):
        b = gen_bernoulli(1, teichmuller_char(p, -1), 8)
        pb = b * p
        assert pb.valuation == 0 and pb.residue() == p - 1


@pytest.mark.parametrize("p", [5, 7, 13])
def test_gen_bernoulli_matches_the_fraction_formula(p):
    """Every interp_grid character times omega^j of conductor N > 1 (N = 1 reads B_n itself)."""
    chars = [DirichletCharacter.trivial(1, p), quadratic_char(3, p), from_generator_data(13, {2: 1}, p)]
    for chi in chars:
        for j in range(p - 1):
            chipsi = chi.multiply(teichmuller_char(p, j)).primitivize()
            if chipsi.modulus == 1:
                continue
            for n in range(1, 13):
                got, ref = gen_bernoulli(n, chipsi, 12), gen_bernoulli_fraction_oracle(n, chipsi, 12)
                assert (got.valuation, got.mantissa, got.precision) == (ref.valuation, ref.mantissa, ref.precision)


def _digits(x):
    return x.valuation, x.mantissa, x.precision


def _conductor_chars(p):
    """A primitive character of each conductor 3, 7, 13, 21, 39 and 91."""
    def prime_char(q, g):
        return from_generator_data(q, {g: (p - 1) // gcd(q - 1, p - 1)}, p)

    c3, c7, c13 = prime_char(3, 2), prime_char(7, 3), prime_char(13, 2)
    return [c3, c7, c13, c3.multiply(c7), c3.multiply(c13), c7.multiply(c13)]


@pytest.mark.parametrize("p", [5, 7, 13])
def test_gen_bernoulli_is_the_term_by_term_bucket_sum(p):
    chars = _conductor_chars(p)
    assert [chi.conductor() for chi in chars] == [3, 7, 13, 21, 39, 91]
    for chi in chars:
        for n in range(1, 13):
            for prec in range(1, 13):
                got, ref = gen_bernoulli(n, chi, prec), gen_bernoulli_oracle(n, chi, prec)
                assert _digits(got) == _digits(ref), (chi.modulus, n, prec)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_integer_bucket_sum_drops_zero_buckets_and_keeps_the_exact_zero(p):
    rng = random.Random(p)
    for prec in range(1, 13):
        for den in (1, 6, p, 4 * p**3, 91 * p**2):
            zero = _materialize({0: 0, 1: 0, p - 2: 0}, den, p, prec)
            assert zero.mantissa is None and materialize_oracle({0: Fraction(0), 1: Fraction(0)}, p, prec).mantissa is None
            for _ in range(8):
                sums = {e: rng.choice([0, 1, -1]) * rng.randrange(1, p**6) * p ** rng.randrange(5)
                        for e in rng.sample(range(p - 1), rng.randrange(1, p))}
                sums[rng.randrange(p - 1)] = 0  # a zero bucket
                got = _materialize(sums, den, p, prec)
                ref = materialize_oracle({e: Fraction(t, den) for e, t in sums.items()}, p, prec)
                assert _digits(got) == _digits(ref), (sums, den, prec)


def test_limit_oracle_agrees_with_gen_bernoulli():
    p, j = 5, 2
    chi = teichmuller_char(p, 2)
    for n in range(1, 7):
        a = gen_bernoulli(n, chi, 10)
        b = gen_bernoulli_limit_oracle(n, chi, j, 10)
        assert vp_diff(a, b) >= j - 1


def test_limit_oracle_trivial_character():
    triv = DirichletCharacter.trivial(1, 5)
    approx = gen_bernoulli_limit_oracle(2, triv, 1, 8)  # (1/5) S_2(5) = 11
    target = PadicNumber.from_rational(exactq.bernoulli(2), 5, 8)
    assert vp_diff(approx, target) >= 1


def test_limit_oracle_agreement_improves_with_j():
    chi = teichmuller_char(5, 2)
    target = gen_bernoulli(1, chi, 10)
    vals = [vp_diff(gen_bernoulli_limit_oracle(1, chi, j, 10), target) for j in (1, 2, 3)]
    assert vals[0] <= vals[1] <= vals[2]


def test_L_values():
    triv = DirichletCharacter.trivial(1, 691)
    v = L_neg(triv, 12, 4)
    assert v.agrees(PadicNumber.from_rational(Fraction(691, 32760), 691, 4), 3)
    p = 5
    for i in (1, 2, 3):
        chi = teichmuller_char(p, i)
        assert vp_diff(L_neg(chi, 1, 8), -gen_bernoulli(1, chi, 8)) >= 7


def test_L_parity_vanishing():
    # L(chi, 1-n) = 0 when chi(-1) (-1)^n = -1
    p = 5
    for i, n in ((1, 2), (2, 3), (1, 4), (3, 2)):
        chi = teichmuller_char(p, i)
        if chi.parity * (-1) ** n == -1:
            v = L_neg(chi, n, 8)
            assert v.is_zero or v.valuation >= 8


def test_trivial_L_value_at_odd_n_is_the_exact_zero():
    # B_n = 0 exactly for odd n > 1, as B_(n,chi) for a parity-mismatched chi of conductor N > 1
    triv = DirichletCharacter.trivial(1, 5)
    for n in range(3, 12, 2):
        assert L_neg(triv, n, 8).abs_precision is None, n
