"""Group-ring elements on integer numerators against the representation they
replaced, a dict of Fraction or PadicNumber coefficients, kept here with its
product and its coefficient residues: sums, products, projections, character
values and component series are bit-identical on exact elements, and agree to
the window they report on p-adic ones.  Elements built at precision N and N+5
agree to the precision the N result reports."""

import random
from fractions import Fraction
from math import gcd

import pytest

from iwasawa import exactq
from iwasawa.characters import DirichletCharacter, from_generator_data, quadratic_char, teichmuller_table
from iwasawa.group_algebra import (
    GroupRingElement,
    PadicCharSpec,
    _level_index,
    _p_power_level,
    _branch,
    _hmu_rows,
    component_series,
    evaluate_char,
    h_element,
    h_i_element,
    idempotent,
    mu_chi_level,
    project,
    stickelberger,
)
from iwasawa.iwaseries import TruncatedSeries, taylor_shift
from iwasawa.padic import PadicNumber, from_rational_abs, int_vp

# -- the former representation: coefficient dicts -----------------------------------


def _clean(coeffs):
    return {a: c for a, c in coeffs.items() if not (c.is_zero if isinstance(c, PadicNumber) else c == 0)}


def _ref_add(x, y):
    out = dict(x)
    for a, c in y.items():
        out[a] = out[a] + c if a in out else c
    return _clean(out)


def _ref_mul(x, y, m):
    """The former GroupRingElement.__mul__: one coefficient product per pair of terms."""
    out = {}
    for a, c in x.items():
        for b, d in y.items():
            k = a * b % m
            cd = c * d
            out[k] = out[k] + cd if k in out else cd
    return _clean(out)


def _ref_project(x, m):
    out = {}
    for a, c in x.items():
        k = a % m
        out[k] = out[k] + c if k in out else c
    return _clean(out)


def _ref_residues(x, p, prec):
    """The former _coeff_residues: (res, shift, window) with
    res[a] = coeff(a) * p^shift mod p^(prec+shift)."""
    dens = {}
    shift = 0
    window = None
    for c in x.values():
        if isinstance(c, PadicNumber):
            shift = max(shift, -c.valuation)
            window = c.abs_precision if window is None else min(window, c.abs_precision)
        elif c.denominator not in dens:
            dens[c.denominator] = e = int_vp(c.denominator, p)
            shift = max(shift, e)
    pK = p ** (prec + shift)
    scale = {d: p ** (shift - e) * pow(d // p**e, -1, pK) for d, e in dens.items()}
    res = {}
    for a, c in x.items():
        if isinstance(c, PadicNumber):
            res[a] = c.mantissa * p ** (c.valuation + shift) % pK
        else:
            res[a] = c.numerator * scale[c.denominator] % pK
    return res, shift, (window + shift if window is not None else None)


def _ref_evaluate_char(x, m, spec, p, prec):
    """The former evaluate_char on the residues of a coefficient dict."""
    _p_power_level(m, p)
    res, shift, window = _ref_residues(x, p, prec)
    K = prec + shift
    pK = p**K
    tables = teichmuller_table(p, K)
    s = spec.wild_exponent
    i = spec.teich_exponent % (p - 1)
    padic_s = not isinstance(s, int) and not s.is_zero
    s_red = (int(s.lift()) if isinstance(s, PadicNumber) else s) % p ** max(K - 1, 1)
    acc = 0
    for a, num in res.items():
        abar = a % p
        w = tables.zeta_pow[(i * tables.ind[abar]) % (p - 1)]
        u = a * tables.teich_inv[abar] % pK
        acc = (acc + num * w % pK * pow(u, s_red, pK)) % pK
    absprec = min(prec, window - shift) if window is not None else prec
    if padic_s:
        for a, num in res.items():
            d = a * tables.teich_inv[a % p] % pK - 1
            if num and d:
                absprec = min(absprec, s.abs_precision + int_vp(d, p) + int_vp(num, p) - shift)
    if absprec < 1:
        raise ValueError("coefficients carry too little precision for this evaluation")
    return from_rational_abs(Fraction(acc, p**shift), p, absprec)


def _ref_component_series(x, m, i, p, prec):
    """The former component_series on the residues of a coefficient dict."""
    r = _p_power_level(m, p)
    res, shift, _ = _ref_residues(x, p, prec)
    K = prec + shift
    pos = _level_index(p, r)
    table = [0] * ((p - 1) * p ** (r - 1))
    for a, num in res.items():
        table[pos[a]] = num
    coeffs = []
    for v in taylor_shift(_branch(table, i, p, K), p**K):
        if v % p**shift:
            raise ValueError("component has a non-integral coefficient at this precision")
        coeffs.append(v // p**shift)
    return TruncatedSeries(p, coeffs, prec)


def _outcome(fn, *args):
    try:
        v = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(v, TruncatedSeries):
        return (v.prime, v.coeffs, v.prec)
    return (v.valuation, v.mantissa, v.precision)


def _lift(c):
    return c.lift() if isinstance(c, PadicNumber) else Fraction(c)


def _agree(x: dict, y: dict, p: int, absprec) -> bool:
    """Every coefficient of x and y agrees modulo p^absprec (exactly when None)."""
    for a in set(x) | set(y):
        d = _lift(x.get(a, 0)) - _lift(y.get(a, 0))
        if d != 0 and (absprec is None or exactq.vp(d, p) < absprec):
            return False
    return True


def _digits_agree(x: PadicNumber, y: PadicNumber, absprec: int) -> bool:
    d = _lift(x) - _lift(y)
    return d == 0 or exactq.vp(d, x.prime) >= absprec


LEVELS = [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)]


def _random_exact(rng, p, r):
    m = p**r
    keys = rng.sample([a for a in range(1, m) if a % p], min(m - m // p, rng.choice((2, 6, 40))))
    dens = (1, 2, 3, p, p * p, 7 * p**r, 11)
    return GroupRingElement(m, {a: Fraction(rng.randrange(-60, 60), rng.choice(dens)) for a in keys})


def _random_padic(rng, p, r):
    """p-adic coefficients of different valuations and absolute precisions."""
    m = p**r
    keys = rng.sample([a for a in range(1, m) if a % p], min(m - m // p, rng.choice((2, 6, 40))))
    out = {}
    for a in keys:
        q = Fraction(rng.randrange(1, 10**6), rng.choice((1, 2, p, p * p)))
        out[a] = from_rational_abs(q * p ** rng.randrange(3), p, rng.randrange(4, 12))
    return GroupRingElement(m, out)


def _exact_elements(p, r):
    rng = random.Random(100 * p + r)
    triv = DirichletCharacter.trivial(1, p)
    out = [stickelberger(p**r), h_element(1, r, p), h_element(2, r, p), mu_chi_level(triv, r, 8),
           mu_chi_level(quadratic_char(3, p), r, 8), h_element(1, r, p) * mu_chi_level(triv, r, 8)]
    return out + [_random_exact(rng, p, r) for _ in range(6)]


def _windowed_elements(p, r, prec=9):
    rng = random.Random(200 * p + r)
    e1, e2 = idempotent(1, r, p, prec), idempotent(2, r, p, prec + 3)
    return [e1, e1 * e2, e1 * _random_exact(rng, p, r), h_i_element(1, 1, r, p, prec),
            _random_padic(rng, p, r), _random_padic(rng, p, r)]


SPECS = [(0, 0), (1, 1), (2, -3), (3, 5), (1, "4"), (2, "1/2"), (1, "25 mod p^2")]


def _specs(p):
    out = []
    for i, s in SPECS:
        if s == "4":
            s = PadicNumber.from_int(4, p, 9)
        elif s == "1/2":
            s = PadicNumber.from_rational(Fraction(1, 2), p, 9)
        elif s == "25 mod p^2":
            s = from_rational_abs(Fraction(25 + 3 * p), p, 3)
        out.append(PadicCharSpec(i, s))
    return out


# -- exact elements: bit-identical ---------------------------------------------------


@pytest.mark.parametrize("p, r", LEVELS)
def test_exact_sums_products_projections_are_the_dict_results(p, r):
    m = p**r
    xs = _exact_elements(p, r)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        cx, cy = dict(x.coeffs), dict(y.coeffs)
        assert all(isinstance(c, Fraction) for c in cx.values())
        assert dict((x + y).coeffs) == _ref_add(cx, cy)
        assert dict((x - y).coeffs) == _ref_add(cx, {a: -c for a, c in cy.items()})
        assert dict((x * y).coeffs) == _ref_mul(cx, cy, m)
        assert (x * y).mass() == sum(_ref_mul(cx, cy, m).values(), Fraction(0))
        for k in range(r):
            assert dict(project(x, p**k).coeffs) == _ref_project(cx, p**k)


@pytest.mark.parametrize("p, r", LEVELS)
def test_exact_character_values_and_components_are_the_dict_results(p, r):
    m = p**r
    for x in _exact_elements(p, r):
        cx = dict(x.coeffs)
        for spec in _specs(p):
            for prec in (1, 6):
                got = _outcome(evaluate_char, x, spec, p, prec)
                assert got == _outcome(_ref_evaluate_char, cx, m, spec, p, prec), (spec, prec)
        for i in range(p - 1):
            assert _outcome(component_series, x, i, p, 6) == _outcome(_ref_component_series, cx, m, i, p, 6)


def test_integral_products_have_denominator_one():
    for p, r in LEVELS:
        hmu = h_element(1, r, p) * mu_chi_level(DirichletCharacter.trivial(1, p), r, 8)
        assert hmu.den == 1 and hmu.window is None
        assert stickelberger(p**r).den == p**r


# -- windowed elements: agreement to the reported window -----------------------------


@pytest.mark.parametrize("p, r", LEVELS)
def test_windowed_operations_agree_with_the_dict_results(p, r):
    m = p**r
    xs = _windowed_elements(p, r)
    exact = _exact_elements(p, r)
    for x, y in zip(xs + exact[:3], xs[1:] + xs[:1] + xs[:3]):
        cx, cy = dict(x.coeffs), dict(y.coeffs)
        total, prod = x + y, x * y
        assert total.window is not None and prod.window is not None
        assert _agree(dict(total.coeffs), _ref_add(cx, cy), p, total.window)
        assert _agree(dict(prod.coeffs), _ref_mul(cx, cy, m), p, prod.window)
        assert all(isinstance(c, PadicNumber) for c in prod.coeffs.values())
        for k in range(1, r):
            proj = project(x, p**k)
            assert _agree(dict(proj.coeffs), _ref_project(cx, p**k), p, proj.window)


@pytest.mark.parametrize("p, r", LEVELS)
def test_windowed_character_values_and_components_agree_with_the_dict_results(p, r):
    m = p**r
    xs = _windowed_elements(p, r)
    for x in xs + [xs[0] * xs[4]]:
        cx = dict(x.coeffs)
        for spec in _specs(p):
            got = _outcome(evaluate_char, x, spec, p, 6)
            ref = _outcome(_ref_evaluate_char, cx, m, spec, p, 6)
            if got[0] == "error":
                assert ref == got
                continue
            # the view carries the element's one window, so the former
            # normalization reads the same residues
            assert got == ref, spec
        for i in range(p - 1):
            got = _outcome(component_series, x, i, p, 6)
            ref = _outcome(_ref_component_series, cx, m, i, p, 6)
            if ref[0] == "error":
                assert got == ref
            else:
                prec = min(6, x.window)
                assert got[2] == ref[2]
                assert [c % p**prec for c in got[1]] == [c % p**prec for c in ref[1]]


def _at_precision(p, r, prec):
    """Windowed elements built at working precision prec."""
    rng = random.Random(300 * p + r)
    e1 = idempotent(1, r, p, prec)
    y = _random_exact(rng, p, r)
    out = [e1 * idempotent(3, r, p, prec), e1 * y, h_i_element(2, 1, r, p, prec) * y]
    if p == 13:  # the sextic character mod 7: values off the rationals
        out.append(mu_chi_level(from_generator_data(7, {3: 2}, 13), r, prec))
    return out


@pytest.mark.parametrize("p, r", LEVELS + [(13, 1), (13, 2)])
def test_windowed_results_at_prec_n_and_n_plus_5_agree_where_reported(p, r):
    N = 6
    for lo, hi in zip(_at_precision(p, r, N), _at_precision(p, r, N + 5)):
        assert lo.window is not None and hi.window >= lo.window
        assert _agree(dict(lo.coeffs), dict(hi.coeffs), p, lo.window)
        for y in (lo, _exact_elements(p, r)[5]):
            assert _agree(dict((lo * y).coeffs), dict((hi * y).coeffs), p, (lo * y).window)
        for spec in _specs(p):
            try:
                x = evaluate_char(lo, spec, p, N)
            except ValueError:
                continue
            if not x.is_zero:
                assert _digits_agree(x, evaluate_char(hi, spec, p, N + 5), x.abs_precision)
        for i in range(p - 1):
            try:
                a = component_series(lo, i, p, N)
            except ValueError:
                continue
            b = component_series(hi, i, p, N + 5)
            assert all((u - v) % p ** min(N, lo.window) == 0 for u, v in zip(a.coeffs, b.coeffs))


# -- the interpolation table is h_N mu_chi laid out on the level index ---------------


def _parent_mu_level_sums(chi, r, prec):
    """The former bucket loop: [(b, A)] with mu_chi = sum_b -A/(N p^r) sigma_b."""
    p, N = chi.prime, chi.modulus
    pr = p**r
    buckets = {}
    for a in range(1, N * pr + 1):
        if gcd(a, N * p) != 1:
            continue
        e = chi.exponent(a)
        slot = buckets.setdefault(a % pr, {})
        slot[e] = slot.get(e, 0) + a
    rational = all(e == 0 or 2 * e == p - 1 for e in chi.exponents.values())
    zpow = teichmuller_table(p, prec + r).zeta_pow
    sums = []
    for c, slot in buckets.items():
        if rational:
            acc = slot.get(0, 0) - slot.get((p - 1) // 2, 0)
        else:
            acc = sum(zpow[e] * t for e, t in slot.items())
        sums.append((pow(c, -1, pr), acc))
    return sums


def _parent_hmu_table(chi, r, prec):
    """The former table: mu_chi's bucket sums scaled by -1/N, then h_N as the
    shift x - (1+Np) y along the k axis by k0 = dlog_gamma(1+Np)."""
    p, N = chi.prime, chi.modulus
    pK, d = p ** (prec + r), p ** (r - 1)
    pos = _level_index(p, r)
    flat = [0] * ((p - 1) * d)
    scale = -pow(N, -1, pK)
    for b, acc in _parent_mu_level_sums(chi, r, prec):
        flat[pos[b]] = acc * scale % pK
    u = 1 + N * p
    k0 = pos[u % p**r]
    table = []
    for t in range(p - 1):
        row = flat[t * d : (t + 1) * d]
        table += [(x - u * y) % pK for x, y in zip(row, row[k0:] + row[:k0])]
    return tuple(table)


def _table_groups():
    groups = []
    for p in (5, 7):
        chars = [DirichletCharacter.trivial(1, p), quadratic_char(3, p), from_generator_data(13, {2: 1}, p)]
        groups += [(p, chi, r) for chi in chars for r in (2, 3, 4)]
    return groups + [(13, from_generator_data(7, {3: 2}, 13), 2)]


@pytest.mark.parametrize("p, chi, r", _table_groups(),
                         ids=lambda v: str(v.modulus) if isinstance(v, DirichletCharacter) else str(v))
def test_hmu_table_is_the_former_formula_and_the_layout_of_h_times_mu(p, chi, r):
    prec = r + 6
    pK = p ** (prec + r)
    table = _hmu_rows(p, chi.modulus, tuple(sorted(chi.exponents.items())), r, prec)
    assert table == _parent_hmu_table(chi, r, prec)
    hmu = h_element(chi.modulus, r, p) * mu_chi_level(chi, r, prec)
    layout = [0] * len(table)
    for a, c in hmu.coeffs.items():
        q = _lift(c) * p**r
        layout[_level_index(p, r)[a]] = q.numerator * pow(q.denominator, -1, pK) % pK
    assert table == tuple(layout)
