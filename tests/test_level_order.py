"""Elements stored in level order against the code they replaced, copied here:
character values against the per-residue evaluation loop, and the level
elements mu_chi and h_N mu_chi against the bucket loop and the term-by-term
product at every key of the benchmark workloads."""

from fractions import Fraction

import pytest

from iwasawa.characters import DirichletCharacter, from_generator_data, quadratic_char, teichmuller_table
from iwasawa.group_algebra import (
    PadicCharSpec,
    _element,
    _p_power_level,
    evaluate_char,
    h_element,
    h_i_element,
    idempotent,
    mu_chi_level,
    stickelberger,
)
from iwasawa.padic import PadicNumber, from_rational_abs, int_vp
from oracles import _parent_mu_level_sums


def _numerators(x) -> dict:
    """{a: numerator over x.den} read back from the public coefficients."""
    out = {}
    for a, c in x.coeffs.items():
        q = (c.lift() if isinstance(c, PadicNumber) else c) * x.den
        assert q.denominator == 1
        out[a] = int(q)
    return out


def _parent_evaluate_char(x, spec, p, prec):
    """The former evaluate_char: one modular power of a * omega(a)^(-1) per unit."""
    _p_power_level(x.modulus, p)
    shift = int_vp(x.den, p)
    K = prec + shift
    pK = p**K
    tables = teichmuller_table(p, K)
    s = spec.wild_exponent
    i = spec.teich_exponent % (p - 1)
    padic_s = isinstance(s, PadicNumber) and s.abs_precision is not None
    if padic_s and s.valuation < 0:
        raise ValueError("exponent must lie in Z_p")
    order = p ** max(K - 1, 1)
    s_red = ((int(s.lift()) if isinstance(s, PadicNumber) else s) + order // 2) % order - order // 2
    num = _numerators(x)
    acc = 0
    for a, n in num.items():
        abar = a % p
        w = tables.zeta_pow[(i * tables.ind[abar]) % (p - 1)]
        u = a * tables.teich_inv[abar] % pK
        acc = (acc + n * w % pK * pow(u, s_red, pK)) % pK
    acc = acc * pow(x.den // p**shift, -1, pK) % pK
    absprec = prec if x.window is None else min(prec, x.window)
    if padic_s:
        for a, n in num.items():
            d = a * tables.teich_inv[a % p] % pK - 1
            if d:
                absprec = min(absprec, s.abs_precision + int_vp(d, p) + int_vp(n, p) - shift)
    if absprec < 1:
        raise ValueError("coefficients carry too little precision for this evaluation")
    return from_rational_abs(Fraction(acc, p**shift), p, absprec)


def _outcome(fn, *args):
    try:
        v = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return (v.valuation, v.mantissa, v.precision)


def _characters(p):
    """Primitive characters of conductor N = 1, 3 and 13."""
    return [DirichletCharacter.trivial(1, p), quadratic_char(3, p), from_generator_data(13, {2: 1}, p)]


def _elements(p, r, prec=9):
    out = [stickelberger(p**r), idempotent(1, r, p, prec), idempotent(2, r, p, prec + 2),
           h_i_element(1, 1, r, p, prec), h_i_element(3, 2, r, p, prec)]
    return out + [h_element(chi.modulus, r, p) * mu_chi_level(chi, r, prec) for chi in _characters(p)]


def _specs(p):
    padic = [PadicNumber.from_int(4, p, 7), PadicNumber.from_rational(Fraction(-1, 2), p, 9),
             from_rational_abs(Fraction(25 + 3 * p), p, 3)]
    return [PadicCharSpec(i, s) for i in range(p - 1) for s in [-7, -1, 0, 1, 5] + padic]


@pytest.mark.parametrize("p, r", [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)])
def test_evaluate_char_is_the_per_residue_loop(p, r):
    for x in _elements(p, r):
        for spec in _specs(p):
            for prec in (1, 6):
                got = _outcome(evaluate_char, x, spec, p, prec)
                assert got == _outcome(_parent_evaluate_char, x, spec, p, prec), (x, spec, prec)


def _workload_keys():
    """(p, chi, r, prec) of every level element the benchmark workloads build:
    three_way at prec r + 4, interp_grid's interpolation groups at prec 11
    and its component levels at prec 10."""
    keys = [(p, DirichletCharacter.trivial(1, p), r, r + 4)
            for p, r in ((5, 4), (5, 5), (7, 4), (11, 3), (13, 3), (5, 6), (7, 5))]
    for p, levels in ((5, (4, 5)), (7, (4,))):
        for chi in _characters(p):
            keys += [(p, chi, r, 11) for r in (levels if chi.modulus == 13 else (4, 5))]
    keys += [(p, DirichletCharacter.trivial(1, p), r, 10) for p, r in ((5, 4), (5, 5), (7, 4))]
    return keys


def _parent_product(x: dict, y: dict, m: int) -> dict:
    """The former GroupRingElement.__mul__ on numerator dicts: one product per pair of terms."""
    out = {}
    for a, c in x.items():
        for b, d in y.items():
            k = a * b % m
            out[k] = out.get(k, 0) + c * d
    return out


@pytest.mark.parametrize("p, chi, r, prec", _workload_keys(),
                         ids=lambda v: str(v.modulus) if isinstance(v, DirichletCharacter) else str(v))
def test_level_build_is_the_parent_formula(p, chi, r, prec):
    N, pr = chi.modulus, p**r
    window = None if all(e == 0 or 2 * e == p - 1 for e in chi.exponents.values()) else prec
    ref = _element(pr, {b: -A for b, A in _parent_mu_level_sums(chi, r, prec)}, N * pr, p, window)
    mu = mu_chi_level(chi, r, prec)
    assert (mu.num, mu.den, mu.window) == (ref.num, ref.den, ref.window)
    h = h_element(N, r, p)
    hmu = h * mu
    ref_hmu = _element(pr, _parent_product(_numerators(h), _numerators(ref), pr), h.den * ref.den, p, window)
    assert (hmu.num, hmu.den, hmu.window) == (ref_hmu.num, ref_hmu.den, ref_hmu.window)
