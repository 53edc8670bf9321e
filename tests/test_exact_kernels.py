"""The exact kernels of the three-way zeta check against the slower
constructions they replace: Bernoulli numbers from tangent numbers, Coleman
binomials by recurrence, integer coefficient residues in character evaluation,
and the running product behind integer Dirac measures."""

import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from iwasawa import exactq, measures
from iwasawa.characters import DirichletCharacter, from_generator_data, quadratic_char, teichmuller_table
from iwasawa.coleman import w_series
from iwasawa.exactq import BernoulliCache, bernoulli, kummer_regularized_value
from iwasawa.group_algebra import (
    GroupRingElement,
    PadicCharSpec,
    _p_power_level,
    _unit_positions,
    branch_limit_index,
    branch_limit_oracle,
    branch_limit_regularized,
    component_series,
    evaluate_char,
    h_element,
    mu_chi_level,
    stickelberger,
)
from iwasawa.iwaseries import TruncatedSeries, taylor_shift
from iwasawa.padic import PadicNumber, from_rational_abs, int_vp, padic_binomial, unit_power


# -- Bernoulli numbers ---------------------------------------------------------


def _akiyama_tanigawa(n_max: int) -> list[Fraction]:
    """B_0..B_n_max with B_1 = +1/2 by the Akiyama-Tanigawa triangle."""
    row = []
    out = []
    for m in range(n_max + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


REFERENCE = _akiyama_tanigawa(300)


def test_tangent_bernoulli_against_akiyama_tanigawa():
    cache = BernoulliCache(300)
    assert [cache.value(n) for n in range(301)] == REFERENCE
    assert [bernoulli(n) for n in range(301)] == REFERENCE
    assert bernoulli(12) == Fraction(-691, 2730)


def test_tangent_bernoulli_extension_steps():
    for start in (0, 1, 2, 3, 10, 33):
        cache = BernoulliCache(start)
        assert cache.limit == start
        assert [cache.value(n) for n in range(0, 301, 7)] == REFERENCE[0:301:7]
    cache = BernoulliCache(10)
    cache.extend(6)  # never shrinks
    assert cache.limit == 10
    assert cache.value(12) == REFERENCE[12]
    assert cache.limit == 20  # doubling rule max(n, 2 * limit)
    assert cache.value(90) == REFERENCE[90]
    assert cache.limit == 90
    cache.extend(151)
    assert cache.limit == 151 and cache.value(150) == REFERENCE[150]
    with pytest.raises(ValueError):
        cache.value(-2)


def test_reads_during_extension_see_final_values():
    cache = BernoulliCache(40)
    seen = []

    def reader():
        for _ in range(200):
            seen.append([cache.value(n) for n in range(0, 41, 2)])

    def extender():
        for lim in (120, 240, 300):
            cache.extend(lim)

    threads = [threading.Thread(target=reader) for _ in range(3)] + [threading.Thread(target=extender)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 600
    assert all(row == REFERENCE[0:41:2] for row in seen)
    assert cache.limit == 300
    assert [cache.value(n) for n in range(301)] == REFERENCE


# -- Coleman binomials ---------------------------------------------------------


def _w_coeffs_by_binomials(k, p, trunc, prec):
    """The former w_series loop: every C(+-k/2, n) from scratch."""
    half = Fraction(k, 2)
    coeffs = []
    for n in range(1, trunc + 1):
        b = padic_binomial(-half, n, p, prec) - padic_binomial(half, n, p, prec)
        if b.is_zero:
            coeffs.append(0)
            continue
        if b.valuation < 0:
            raise AssertionError("w_k coefficient left Z_p")
        coeffs.append(int(b.lift()) % p**prec)
    return coeffs


def _ks(p):
    return [s * k for k in range(1, 13) if k % p for s in (1, -1)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_w_series_against_binomial_loop(p):
    for prec in (1, 6, 7):
        ks = _ks(p)
        for k in ks:
            # the deep truncation for the extreme k, a moderate one for the rest
            trunc = 110 if k in (ks[0], ks[1], ks[-2], ks[-1]) else 40
            ref = _w_coeffs_by_binomials(k, p, trunc, prec)
            for t in (0, 1, 2, 17, trunc):
                got = w_series(k, p, t, prec)
                assert got.coeffs == tuple(ref[:t]), (p, k, t, prec)
                assert got.prec == prec
    with pytest.raises(ValueError):
        w_series(p, p, 10, 6)


# -- integer residues in character evaluation -------------------------------------


def _old_normalized_coeffs(x, p):
    shifts = {}
    max_shift = 0
    window = None
    for a, c in x.coeffs.items():
        if isinstance(c, PadicNumber):
            e = max(0, -c.valuation)
            window = c.abs_precision if window is None else min(window, c.abs_precision)
        else:
            e = max(0, int_vp(Fraction(c).denominator, p))
        shifts[a] = e
        max_shift = max(max_shift, e)
    out = {}
    for a, c in x.coeffs.items():
        q = (c.lift() if isinstance(c, PadicNumber) else Fraction(c)) * p ** shifts[a]
        out[a] = (q, max_shift - shifts[a])
    return out, max_shift, (window + max_shift if window is not None else None)


def _old_coeff_numerator(q, extra_shift, p, pK):
    q = q * p**extra_shift
    den = q.denominator
    if den % p == 0:
        raise AssertionError("normalization left a p in the denominator")
    return q.numerator * pow(den, -1, pK) % pK


def _old_evaluate_char(x, spec, p, prec):
    """evaluate_char on the former Fraction normalization."""
    _p_power_level(x.modulus, p)
    norm, shift, window = _old_normalized_coeffs(x, p)
    K = prec + shift
    pK = p**K
    tables = teichmuller_table(p, K)
    s = spec.wild_exponent
    i = spec.teich_exponent % (p - 1)
    s_int = isinstance(s, int)
    if s_int:
        s_red = s % p ** max(K - 1, 1)
    acc = 0
    for a, (num_q, extra) in norm.items():
        num = _old_coeff_numerator(num_q, extra, p, pK)
        abar = a % p
        w = tables.zeta_pow[(i * tables.ind[abar]) % (p - 1)]
        u = a * tables.teich_inv[abar] % pK
        if s_int:
            ks = pow(u, s_red, pK)
        else:
            ks_p = unit_power(PadicNumber(p, 0, u, K), s)
            ks = ks_p.mantissa % pK if not ks_p.is_zero else 0
        acc = (acc + num * w % pK * ks) % pK
    absprec = min(prec, window - shift) if window is not None else prec
    if absprec < 1:
        raise ValueError("coefficients carry too little precision for this evaluation")
    return from_rational_abs(Fraction(acc, p**shift), p, absprec)


def _old_component_series(x, i, p, prec):
    """component_series on the former Fraction normalization."""
    r = _p_power_level(x.modulus, p)
    norm, shift, window = _old_normalized_coeffs(x, p)
    if window is not None:
        # no more digits than the coefficients carry (the former path claimed prec)
        prec = min(prec, window - shift)
    K = prec + shift
    pK = p**K
    zeta_pow = teichmuller_table(p, K).zeta_pow
    pos = _unit_positions(p**r)
    deg = p ** (r - 1)
    acc = [0] * deg
    for a, (num_q, extra) in norm.items():
        t, k = divmod(pos[a], deg)
        acc[k] += _old_coeff_numerator(num_q, extra, p, pK) * zeta_pow[i * t % (p - 1)]
    coeffs = []
    pshift = p**shift
    for v in taylor_shift(acc, pK):
        if v % pshift:
            raise ValueError("component has a non-integral coefficient at this precision")
        coeffs.append(v // pshift)
    return TruncatedSeries(p, coeffs, prec)


def _outcome(fn, *args):
    """A comparable record of a value or of the error it raised."""
    try:
        v = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(v, TruncatedSeries):
        return (v.prime, v.coeffs, v.prec)
    return (v.valuation, v.mantissa, v.precision)


def _as_padic(x, p, absprec):
    """x with every coefficient a PadicNumber known modulo p^absprec."""
    return GroupRingElement(x.modulus, {a: from_rational_abs(Fraction(c), p, absprec)
                                        for a, c in x.coeffs.items()})


def _fraction_elements():
    """(p, element) with Fraction coefficients, levels 1 to 3."""
    out = []
    for p, r in ((3, 3), (5, 2), (5, 3), (7, 2)):
        triv = DirichletCharacter.trivial(1, p)
        out.append((p, h_element(1, r, p) * mu_chi_level(triv, r, r + 4)))
    for m in (5, 7, 11, 13):
        out.append((m, stickelberger(m)))
    # denominators of different p-valuation, and some prime to p
    out.append((5, GroupRingElement(25, {
        1: Fraction(1, 25), 2: Fraction(2, 7), 3: Fraction(3, 35), 4: 6, 6: Fraction(-4, 5),
    })))
    return out


def _padic_elements():
    """(p, element) with PadicNumber coefficients."""
    out = []
    quad = mu_chi_level(quadratic_char(3, 5), 2)
    out.append((5, _as_padic(quad, 5, 6)))
    out.append((5, _as_padic(h_element(1, 2, 5) * mu_chi_level(DirichletCharacter.trivial(1, 5), 2), 5, 4)))
    out.append((7, mu_chi_level(from_generator_data(13, {2: 1}, 7), 2, prec=6)))
    # valuations and absolute precisions that differ from term to term
    out.append((5, GroupRingElement(25, {
        1: from_rational_abs(Fraction(1, 5), 5, 3),
        2: PadicNumber.from_int(7, 5, 9),
        3: from_rational_abs(Fraction(3, 25), 5, 6),
        4: PadicNumber.from_int(50, 5, 4),
    })))
    return out


PADIC_ELEMENTS = _padic_elements()
ELEMENTS = _fraction_elements() + PADIC_ELEMENTS


def test_padic_elements_are_padic():
    for _, x in PADIC_ELEMENTS:
        assert all(isinstance(c, PadicNumber) for c in x.coeffs.values())


@pytest.mark.parametrize("index", range(len(ELEMENTS)))
def test_evaluate_char_against_fraction_normalization(index):
    p, x = ELEMENTS[index]
    exponents = [0, 1, -3, 5, PadicNumber.from_int(4, p, 9), PadicNumber.from_rational(Fraction(1, 2), p, 9)]
    for i in range(p - 1):
        for s in exponents:
            spec = PadicCharSpec(i, s)
            for prec in (3, 8):
                assert _outcome(evaluate_char, x, spec, p, prec) == _outcome(_old_evaluate_char, x, spec, p, prec)


@pytest.mark.parametrize("index", range(len(ELEMENTS)))
def test_component_series_against_fraction_normalization(index):
    p, x = ELEMENTS[index]
    for i in range(p - 1):
        for prec in (2, 6):
            assert _outcome(component_series, x, i, p, prec) == _outcome(_old_component_series, x, i, p, prec)


# -- Dirac measures at integers ----------------------------------------------------


def test_integer_dirac_is_binomial_row():
    p, prec, M = 5, 40, 24
    for a in range(-15, 16):
        row = [comb(a, n) if a >= 0 else (-1) ** n * comb(n - a - 1, n) for n in range(M)]
        d = measures.dirac(a, p, M, prec)
        assert d.coeffs == tuple(c % p**prec for c in row), a
    assert measures.dirac(3, p, 0, prec).coeffs == ()
    with pytest.raises(ValueError):
        measures.dirac(Fraction(1, 2), p, 6, 4)


# -- Kummer-leg inputs ------------------------------------------------------------


def test_kummer_limit_rejects_pole_and_negative_depth():
    with pytest.raises(ValueError):
        branch_limit_oracle(5, 0, 1, 2)  # n = 0 is the pole of zeta_p
    with pytest.raises(ValueError):
        branch_limit_oracle(5, 4, -1, 2)
    with pytest.raises(ValueError):
        branch_limit_regularized(5, -2, 1, 2)
    with pytest.raises(ValueError):
        branch_limit_index(7, 0, 0)
    with pytest.raises(ValueError):
        kummer_regularized_value(0, 5, 2)
    with pytest.raises(ValueError):
        kummer_regularized_value(-4, 5, 2)
    assert branch_limit_index(5, 4, 0) == 8
    assert kummer_regularized_value(2, 5, 2) == (1 - 4) * (1 - 5) * Fraction(1, 6) / 2
    assert exactq.kummer_congruence_check(6, 2, 5, 0, 2).passed
