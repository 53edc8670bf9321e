"""One kernel per operation: series substitution and the twist on mul_trunc,
the binomial row behind omega_r, Dirac measures and Coleman series, and the
omega^i-branch of a level table behind interp_check and component_series.
Each kernel is checked against the code it replaced, copied here."""

import itertools
import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from iwasawa import exactq, iwaseries
from iwasawa.characters import (
    DirichletCharacter,
    from_generator_data,
    quadratic_char,
    teichmuller_char,
    teichmuller_table,
)
from iwasawa.group_algebra import (
    GroupRingElement,
    _hmu_rows,
    _level_index,
    _mu_level_sums,
    _p_power_level,
    component_series,
    h_element,
    interp_check,
    mu_chi_level,
    stickelberger,
)
from iwasawa.iwaseries import TruncatedSeries, binomial_row, nu_rm_poly, omega_poly, phi_poly, taylor_shift
from iwasawa.padic import PadicNumber, from_rational_abs, int_vp

# -- substitution and the twist ---------------------------------------------------


def _object_horner(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """The former substitute: Horner with three series built per step."""
    p, M, N = f.prime, f.trunc, f.prec
    acc = TruncatedSeries.zero(p, M, N)
    const = TruncatedSeries.one(p, M, N)
    for c in reversed(f.coeffs):
        acc = acc * g + const.scalar_mul(c)
    return acc


def _inverse_target(p: int, M: int, N: int) -> TruncatedSeries:
    """The former twist target (1+p)(1+T)^(-1) - 1, by inverting 1+T."""
    one_plus_t = TruncatedSeries(p, [1, 1][:M] + [0] * (M - 2), N)
    return one_plus_t.invert_unit().scalar_mul(1 + p) - TruncatedSeries.one(p, M, N)


SHAPES = [(3, 1, 1), (3, 2, 4), (5, 1, 6), (5, 2, 3), (5, 16, 5), (7, 9, 2), (11, 30, 4), (13, 47, 7)]


@pytest.mark.parametrize("p, M, N", SHAPES)
def test_substitute_matches_object_horner(p, M, N):
    rng = random.Random(97 * p + M + N)
    mod = p**N
    for g0 in (0, p, p * rng.randrange(1, p**N)):
        f = TruncatedSeries(p, [rng.randrange(mod) for _ in range(M)], N)
        g = TruncatedSeries(p, [g0] + [rng.randrange(mod) for _ in range(M - 1)], N)
        assert f.substitute(g) == _object_horner(f, g), g0


@pytest.mark.parametrize("p, M, N", SHAPES)
def test_nu_involution_matches_inverse_target(p, M, N):
    rng = random.Random(13 * p + M)
    target = _inverse_target(p, M, N)
    assert target.coeffs[0] == p % p**N  # constant term p: in pZ_p, not a unit
    f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
    assert f.nu_involution() == _object_horner(f, target)


def test_substitute_builds_only_its_result(monkeypatch):
    p, M, N = 5, 12, 4
    f = TruncatedSeries(p, range(1, M + 1), N)
    g = TruncatedSeries(p, [p] + [1] * (M - 1), N)
    built = []
    init = TruncatedSeries.__init__
    monkeypatch.setattr(TruncatedSeries, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    f.substitute(g)
    assert len(built) == 1


def test_nu_involution_needs_no_inversion(monkeypatch):
    f = TruncatedSeries(5, [1, 2, 3, 4], 3)
    expected = _object_horner(f, _inverse_target(5, 4, 3))

    def refuse(self):
        raise AssertionError("invert_unit called")

    monkeypatch.setattr(TruncatedSeries, "invert_unit", refuse)
    assert f.nu_involution() == expected


# -- binomial rows ------------------------------------------------------------------


def test_binomial_row_integers_against_comb():
    for x in range(-15, 41):
        ref = [comb(x, k) if x >= 0 else (-1) ** k * comb(k - x - 1, k) for k in range(45)]
        assert binomial_row(x, 45) == ref, x
    assert binomial_row(7, 0) == [] and binomial_row(7, 1) == [1]
    assert all(type(c) is int for c in binomial_row(-9, 20))


@pytest.mark.parametrize("num", [1, -1, 3, -3, 7, -7, 12, -12, 25])
def test_binomial_row_half_integers_against_factorial(num):
    x = Fraction(num, 2)
    for k, c in enumerate(binomial_row(x, 30)):
        prod = Fraction(1)
        for i in range(k):
            prod *= x - i
        assert c == prod / factorial(k), (x, k)


@pytest.mark.parametrize("p, r", [(3, 0), (3, 1), (3, 4), (5, 1), (5, 2), (5, 4), (7, 2), (11, 2), (13, 2), (23, 2)])
def test_omega_poly_against_comb(p, r):
    n = p**r
    assert n <= 625
    assert omega_poly(p, r) == [0] + [comb(n, k) for k in range(1, n + 1)]


def test_negative_levels_are_refused():
    with pytest.raises(ValueError):
        omega_poly(5, -1)
    with pytest.raises(ValueError):
        phi_poly(5, -1)
    with pytest.raises(ValueError):
        nu_rm_poly(5, 2, -1)
    assert nu_rm_poly(5, 1, 0) == phi_poly(5, 1)


# -- the omega^i-branch of a level table ---------------------------------------------


def _rows_table(chi: DirichletCharacter, r: int, prec: int) -> list[list[int]]:
    """The former rows c[t][k] of h_N mu_chi at level r."""
    p, N = chi.prime, chi.modulus
    pK, d = p ** (prec + r), p ** (r - 1)
    pos = _level_index(p, r)
    flat = [0] * ((p - 1) * d)
    scale = -pow(N, -1, pK)
    for b, acc in _mu_level_sums(chi, r, prec)[1]:
        flat[pos[b]] = acc * scale % pK
    u = 1 + N * p
    k0 = pos[u % p**r]
    rows = []
    for t in range(p - 1):
        row = flat[t * d : (t + 1) * d]
        rows.append([(x - u * y) % pK for x, y in zip(row, row[k0:] + row[:k0])])
    return rows


def _evaluate_rows(rows: list[list[int]], i: int, s: int, p: int, r: int, prec: int):
    """The former lhs: sum_t zeta^(it) C_t(gamma^s), known modulo p^prec."""
    pK = p ** (prec + r)
    x = pow(1 + p, s, pK)
    zeta_pow = teichmuller_table(p, prec + r).zeta_pow
    acc = 0
    for t, row in enumerate(rows):
        v = 0
        for c in reversed(row):
            v = (v * x + c) % pK
        acc += zeta_pow[i * t % (p - 1)] * v
    return from_rational_abs(Fraction(acc % pK, p**r), p, prec)


def _digits(x):
    return (x.is_zero, x.valuation, x.mantissa, x.precision)


def _interp_groups():
    """(p, chi, r) of the interpolation grid, level 3 included."""
    groups = []
    for p, extra_levels in ((5, (3, 4, 5)), (7, (3, 4))):
        for chi, levels in ((DirichletCharacter.trivial(1, p), (3, 4, 5)),
                            (quadratic_char(3, p), (3, 4, 5)),
                            (from_generator_data(13, {2: 1}, p), extra_levels)):
            groups += [(p, chi, r) for r in levels]
    return groups


@pytest.mark.parametrize("p, chi, r", _interp_groups(),
                         ids=lambda v: str(v.modulus) if isinstance(v, DirichletCharacter) else str(v))
def test_interp_lhs_matches_row_evaluation(p, chi, r):
    prec = r + 6
    rows = _rows_table(chi, r, prec)
    table = _hmu_rows(p, chi.modulus, tuple(sorted(chi.exponents.items())), r, prec)
    assert table == tuple(c for row in rows for c in row)
    for j in range(p - 1):
        for n in (1, 2, 3, 5, 8):
            lhs = interp_check(chi, j, n, r, prec=prec).lhs
            ref = _evaluate_rows(rows, (1 - n - j) % (p - 1), 1 - n, p, r, prec)
            assert _digits(lhs) == _digits(ref), (j, n)


def _coeff_residues(x: GroupRingElement, p: int, prec: int):
    """The former coefficient residues: (res, shift, window) with
    res[a] = coeff(a) * p^shift mod p^(prec+shift), read from the Fractions
    and PadicNumbers of x.coeffs."""
    dens = {}  # Fraction denominator -> its p-valuation
    shift = 0
    window = None
    for c in x.coeffs.values():
        if isinstance(c, PadicNumber):
            shift = max(shift, -c.valuation)
            window = c.abs_precision if window is None else min(window, c.abs_precision)
        elif c.denominator not in dens:
            dens[c.denominator] = e = int_vp(c.denominator, p)
            shift = max(shift, e)
    pK = p ** (prec + shift)
    scale = {d: p ** (shift - e) * pow(d // p**e, -1, pK) for d, e in dens.items()}
    res = {}
    for a, c in x.coeffs.items():
        if isinstance(c, PadicNumber):
            res[a] = c.mantissa * p ** (c.valuation + shift) % pK
        else:
            res[a] = c.numerator * scale[c.denominator] % pK
    return res, shift, (window + shift if window is not None else None)


def _bucket_component(x: GroupRingElement, i: int, p: int, prec: int) -> tuple[int, ...]:
    """The former component_series: bucket by k with the branch weight, then shift."""
    r = _p_power_level(x.modulus, p)
    res, shift, _ = _coeff_residues(x, p, prec)
    pK = p ** (prec + shift)
    zeta_pow = teichmuller_table(p, prec + shift).zeta_pow
    pos = _level_index(p, r)
    deg = p ** (r - 1)
    acc = [0] * deg
    for a, num in res.items():
        t, k = divmod(pos[a], deg)
        acc[k] += num * zeta_pow[i * t % (p - 1)]
    out = taylor_shift(acc, pK)
    if any(v % p**shift for v in out):
        raise ValueError("non-integral component")
    return tuple(v // p**shift for v in out)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return "refused"


@pytest.mark.parametrize("p, r", [(3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_component_series_matches_bucket_loop(p, r):
    hmu = h_element(1, r, p) * mu_chi_level(DirichletCharacter.trivial(1, p), r, 10)
    sparse = h_element(2, r, p)
    for x in (hmu, sparse, stickelberger(p**r)):
        for i in range(p - 1):
            comp = _outcome(component_series, x, i, p, 8)
            ref = _outcome(_bucket_component, x, i, p, 8)
            if ref == "refused":
                assert comp == ref
            else:
                assert comp.coeffs == tuple(v % p**8 for v in ref) and comp.trunc == p ** (r - 1)


# -- characters without a modulus-1 case, and the unused parameters -----------------


def test_modulus_one_needs_no_special_case():
    p = 7
    triv = DirichletCharacter.trivial(1, p)
    assert triv.exponents == {0: 0} and triv.exponent(12) == 0 and triv.parity == 1
    assert triv.is_primitive() and triv.multiply(triv).exponents == {0: 0}
    assert DirichletCharacter.trivial(15, p).primitivize().exponents == {0: 0}
    assert from_generator_data(1, {}, p).exponents == {0: 0}
    assert from_generator_data(1, {2: 0}, p).exponents == {0: 0}
    with pytest.raises(ValueError):
        from_generator_data(1, {2: 1}, p)  # chi(2) = zeta is not a character mod 1
    omega = from_generator_data(7, {3: 1}, p)
    assert omega.multiply(triv).exponents == omega.exponents


def _loop_primitivize(chi: DirichletCharacter) -> DirichletCharacter:
    """The former primitivize: lift each unit u mod N to the least unit u + jN mod m."""
    N = chi.conductor()
    if N == chi.modulus:
        return chi
    table = {}
    for u in range(1, N + 1) if N > 1 else [0]:
        if N > 1 and gcd(u, N) != 1:
            continue
        b = u if N > 1 else 1
        while gcd(b, chi.modulus) != 1:
            b += N
        table[u % N] = chi.exponents[b % chi.modulus]
    return DirichletCharacter(N, chi.prime, table)


@pytest.mark.parametrize("p", [5, 7])
def test_primitivize_matches_unit_lifting(p):
    base = [DirichletCharacter.trivial(m, p) for m in (1, 2, 4, 12, 15, 21)]
    base += [quadratic_char(3, p), teichmuller_char(p, 1), teichmuller_char(p, 2), from_generator_data(13, {2: 1}, p)]
    for x, y in itertools.product(base, repeat=2):
        chi = x.multiply(y)
        new, old = chi.primitivize(), _loop_primitivize(chi)
        assert (new.modulus, new.exponents) == (old.modulus, old.exponents), (x.modulus, y.modulus)


def test_series_carry_only_their_window():
    f = TruncatedSeries(5, [1, 2], 3)
    assert TruncatedSeries.__slots__ == ("prime", "prec", "coeffs")
    assert not hasattr(f, "polynomial") and not hasattr(iwaseries, "_poly_degree_bound")
    with pytest.raises(TypeError):
        TruncatedSeries(5, [1, 2], 3, True)
    with pytest.raises(TypeError):
        exactq.bernoulli(4, exactq.BernoulliCache())
