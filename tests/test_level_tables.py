"""The gamma-power level tables behind interp_check and component_series,
checked against the integer-lift reference path and a schoolbook component."""

import random
from fractions import Fraction
from math import comb

import pytest

from iwasawa import exactq
from iwasawa.characters import DirichletCharacter, from_generator_data, least_primitive_root, quadratic_char
from iwasawa.group_algebra import (
    GroupRingElement,
    PadicCharSpec,
    component_series,
    evaluate_char,
    h_element,
    interp_check,
    mu_chi_level,
)
from iwasawa.padic import teichmuller

PREC = 11


def _interp_groups():
    """(p, chi, r) of the benchmark's interpolation grid."""
    groups = []
    for p, extra_levels in ((5, (4, 5)), (7, (4,))):
        for chi, levels in ((DirichletCharacter.trivial(1, p), (4, 5)),
                            (quadratic_char(3, p), (4, 5)),
                            (from_generator_data(13, {2: 1}, p), extra_levels)):
            groups += [(p, chi, r) for r in levels]
    return groups


def _vp(x: Fraction, p: int) -> float:
    return float("inf") if x == 0 else exactq.vp(x, p)


@pytest.mark.parametrize("p, chi, r", _interp_groups(),
                         ids=lambda v: str(v.modulus) if isinstance(v, DirichletCharacter) else str(v))
def test_table_lhs_agrees_with_integer_lift_mod_p_r(p, chi, r):
    hmu = h_element(chi.modulus, r, p) * mu_chi_level(chi, r, PREC)
    for j in range(p - 1):
        for n in (1, 2, 3, 5, 8):
            lhs = interp_check(chi, j, n, r, prec=PREC).lhs
            ref = evaluate_char(hmu, PadicCharSpec((1 - n - j) % (p - 1), 1 - n), p, PREC)
            assert _vp(lhs.lift() - ref.lift(), p) >= r, (j, n)
            # a zero lhs is zero to all PREC digits: the gamma-power lift keeps
            # the exact sign symmetry that kills parity-mismatched characters
            assert lhs.is_zero or lhs.abs_precision == ref.abs_precision == PREC, (j, n)


def _schoolbook_component(x: GroupRingElement, i: int, p: int, r: int, prec: int) -> list[int]:
    """sum_a c_a omega^i(a) (1+T)^(dlog <a>) with brute-force dlog and one binomial row per term."""
    pr, d, mod = p**r, p ** (r - 1), p**prec
    dlog = {pow(1 + p, k, pr): k for k in range(d)}
    g0 = least_primitive_root(p)
    ind = {pow(g0, t, p): t for t in range(p - 1)}
    zeta = teichmuller(g0, p, prec).mantissa
    out = [0] * d
    for a, c in x.coeffs.items():
        k = dlog[a * pow(teichmuller(a % p, p, r).mantissa, -1, pr) % pr]
        w = pow(zeta, i * ind[a % p], mod) * c.numerator * pow(c.denominator, -1, mod)
        for m in range(k + 1):
            out[m] += w * comb(k, m)
    return [v % mod for v in out]


@pytest.mark.parametrize("p, r", [(3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_component_series_matches_schoolbook(p, r):
    rng = random.Random(100 * p + r)
    pr, prec = p**r, 7
    for _ in range(3):
        keys = [a for a in range(1, pr) if a % p and rng.random() < 0.4]
        x = GroupRingElement(pr, {a: Fraction(rng.randrange(-99, 99), rng.choice((1, 2, 3 if p != 3 else 7)))
                                  for a in keys})
        for i in range(p - 1):
            comp = component_series(x, i, p, prec)
            assert [c % p**prec for c in comp.coeffs] == _schoolbook_component(x, i, p, r, prec)


@pytest.mark.parametrize("p, r", [(3, 4), (5, 3), (5, 4), (7, 3)])
def test_table_lhs_is_component_series_at_gamma_power(p, r):
    triv = DirichletCharacter.trivial(1, p)
    hmu = h_element(1, r, p) * mu_chi_level(triv, r, PREC)
    comps = {}
    for j in range(p - 1):
        for n in (1, 2, 3, 4):
            i, s = (1 - n - j) % (p - 1), 1 - n
            if i not in comps:
                comps[i] = component_series(hmu, i, p, PREC)
            t = pow(1 + p, s, p**PREC) - 1
            at_t = 0
            for c in reversed(comps[i].coeffs):
                at_t = (at_t * t + c) % p**PREC
            lhs = interp_check(triv, j, n, r, prec=PREC).lhs
            # both sides use the gamma-power lift, so they agree to all PREC
            # digits, beyond the p^r where a level-r value is canonical
            assert _vp(lhs.lift() - at_t, p) >= PREC, (j, n)


def test_shared_mu_cache_keeps_characters_apart():
    cache = {}
    quadratic = interp_check(quadratic_char(13, 5), 0, 2, 4, prec=PREC, _mu_cache=cache)
    quartic = interp_check(from_generator_data(13, {2: 1}, 5), 0, 2, 4, prec=PREC, _mu_cache=cache)
    alone = interp_check(from_generator_data(13, {2: 1}, 5), 0, 2, 4, prec=PREC)
    # with the quadratic mu reused, the quartic check used to report 1 and fail
    assert quadratic.passed and quartic.passed
    assert quartic.agreement_valuation == alone.agreement_valuation
    assert quartic.lhs == alone.lhs
