"""One kernel per p-adic function, each reporting only the digits it certifies.

unit_power, teichmuller and the p-adic-point Dirac row run on integer lifts,
plog on the series logarithm `iwaseries.log_one_plus`.  Properties: an
input perturbed below its stated precision (a compatible input known to 5
more digits) changes no digit the result reports.  plog, unit_power and
teichmuller are also compared with test-local copies of their former
routes (a Fraction log series, exp of s log u, x -> x^p iteration).
"""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa import cli, lambda_modules, measures
from iwasawa.characters import DirichletCharacter
from iwasawa.group_algebra import PadicCharSpec, evaluate_char, h_element, mu_chi_level
from iwasawa.padic import PadicError, PadicNumber, from_rational_abs, int_vp, pexp, plog, teichmuller, unit_power, vp_diff

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)
primes = st.sampled_from([3, 5, 7, 11])


def _key(x):
    return None if x.is_zero else (x.valuation, x.mantissa, x.precision)


def _agrees(x, y, digits):
    """x and y are equal modulo p^digits."""
    return vp_diff(x, y) >= digits


# -- the former routes ----------------------------------------------------------


def _old_ilog(n, p):
    v = 0
    while p ** (v + 1) <= n:
        v += 1
    return v


def _old_plog(u):
    """plog as the Fraction series sum (-1)^(n+1) x^n / n."""
    p = u.prime
    x = u - 1
    if x.is_zero:
        return PadicNumber.zero(p)
    absprec = x.abs_precision
    big = x.lift()
    total = Fraction(0)
    n = 1
    while n * x.valuation - _old_ilog(n, p) < absprec + 1:
        total += Fraction((-1) ** (n + 1), n) * big**n
        n += 1
    return from_rational_abs(total, p, absprec)


def _old_unit_power(u, s):
    """u^s as pexp(s plog(u))."""
    if s.is_zero:
        return PadicNumber.one(u.prime, u.precision)
    return pexp(s * _old_plog(u))


def _old_teichmuller(a, p, prec):
    m = p**prec
    x = a % m
    for _ in range(prec):
        nxt = pow(x, p, m)
        if nxt == x:
            break
        x = nxt
    return PadicNumber(p, 0, x, prec)


def _principal_unit(rng, p, A):
    return PadicNumber(p, 0, 1 + p * rng.randrange(p ** (A - 1)), A)


def _exponent(rng, p, B):
    """A nonzero element of Z_p known modulo p^B."""
    S = rng.randrange(1, p**B)
    return from_rational_abs(Fraction(S), p, B)


def test_plog_matches_former_fraction_series():
    rng = random.Random(10)
    for _ in range(300):
        p = rng.choice((3, 5, 7, 11, 13))
        u = _principal_unit(rng, p, rng.randrange(1, 12))
        assert _key(plog(u)) == _key(_old_plog(u)), u


def test_teichmuller_matches_former_iteration():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, 3 * p):
            if a % p:
                for prec in range(1, 9):
                    assert _key(teichmuller(a, p, prec)) == _key(_old_teichmuller(a, p, prec))
    with pytest.raises(PadicError):
        teichmuller(2, 5, 0)


def test_unit_power_matches_former_exp_log_route():
    """Bit-identical unless u = 1 + O(p^A); there the new route certifies at
    least as many digits, and they agree with the former ones."""
    rng = random.Random(11)
    ones = 0
    for trial in range(400):
        p = rng.choice((3, 5, 7, 11))
        A, B = rng.randrange(1, 9), rng.randrange(1, 9)
        u = PadicNumber.one(p, A) if trial % 8 == 0 else _principal_unit(rng, p, A)
        s = _exponent(rng, p, B)
        new, old = unit_power(u, s), _old_unit_power(u, s)
        if u.mantissa != 1:
            assert _key(new) == _key(old), (u, s)
        else:
            ones += 1
            assert new.precision >= old.precision and _agrees(new, old, old.abs_precision)
    assert ones >= 50


def test_unit_power_domain_checks():
    s = PadicNumber.from_int(3, 5, 4)
    for u in (PadicNumber.from_int(2, 5, 4), PadicNumber.from_int(10, 5, 4), PadicNumber.zero(5)):
        with pytest.raises(PadicError):
            unit_power(u, s)
    with pytest.raises(PadicError):
        unit_power(PadicNumber.from_int(6, 5, 4), PadicNumber.from_rational(Fraction(1, 5), 5, 4))


# -- perturbation below the stated precision --------------------------------------


@PROPERTY
@given(primes, st.integers(1, 8), st.integers(1, 8), st.randoms(use_true_random=False))
def test_unit_power_certifies_its_digits(p, A, B, rng):
    u, s = _principal_unit(rng, p, A), _exponent(rng, p, B)
    u2 = PadicNumber(p, 0, u.mantissa + p**A * rng.randrange(1, p**5), A + 5)
    s2 = PadicNumber(p, s.valuation, s.mantissa + p ** (B - s.valuation) * rng.randrange(1, p**5), s.precision + 5)
    got = unit_power(u, s)
    assert _agrees(got, unit_power(u2, s2), got.abs_precision)


@PROPERTY
@given(primes, st.integers(1, 10), st.randoms(use_true_random=False))
def test_plog_certifies_its_digits(p, A, rng):
    u = _principal_unit(rng, p, A)
    u2 = PadicNumber(p, 0, u.mantissa + p**A * rng.randrange(1, p**5), A + 5)
    got = plog(u)
    assert _agrees(got, plog(u2), A if got.is_zero else got.abs_precision)


@PROPERTY
@given(primes, st.integers(1, 10), st.randoms(use_true_random=False))
def test_teichmuller_certifies_its_digits(p, N, rng):
    a = rng.randrange(1, p)
    got = teichmuller(a, p, N)
    assert _agrees(got, teichmuller(a + p * rng.randrange(1, p**4), p, N + 5), N)


@PROPERTY
@given(primes, st.integers(1, 8), st.integers(1, 30), st.integers(1, 8), st.randoms(use_true_random=False))
def test_padic_dirac_certifies_its_digits(p, k, trunc, prec, rng):
    v = rng.randrange(k)
    a = PadicNumber(p, v, p * rng.randrange(p ** (k - v - 1)) + rng.randrange(1, p), k - v)
    a2 = PadicNumber(p, v, a.mantissa + p ** (k - v) * rng.randrange(1, p**5), k - v + 5)
    try:
        d = measures.dirac(a, trunc=trunc, prec=prec)
    except ValueError:
        return  # no digit is certified (see the refusal test below)
    d2 = measures.dirac(a2, trunc=trunc, prec=prec + 5)
    mod = p**d.prec
    assert all((x - y) % mod == 0 for x, y in zip(d.coeffs, d2.coeffs))


def test_padic_dirac_regression_and_refusal():
    d = measures.dirac(PadicNumber(5, 0, 3, 2), trunc=6, prec=6)
    d2 = measures.dirac(PadicNumber(5, 0, 3 + 7 * 25, 6), trunc=6, prec=6)
    assert d.prec == 1
    assert all((x - y) % 5**d.prec == 0 for x, y in zip(d.coeffs, d2.coeffs))
    # C(a, n) for n < p loses no digit: the row of a point known mod p^k is known mod p^k
    assert measures.dirac(PadicNumber(5, 0, 3, 2), trunc=5, prec=6).prec == 2
    assert measures.dirac(PadicNumber.zero(5), trunc=6, prec=6).coeffs == (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        measures.dirac(PadicNumber(5, 0, 3, 1), trunc=6, prec=6)
    with pytest.raises(ValueError):
        measures.dirac(from_rational_abs(Fraction(1, 5), 5, 3), trunc=6, prec=6)


def _levels():
    out = []
    for p, r in ((5, 3), (7, 2), (3, 3)):
        x = h_element(1, r, p) * mu_chi_level(DirichletCharacter.trivial(1, p), r, 12)
        out.append((p, x))
    return out


LEVELS = _levels()


@PROPERTY
@given(st.integers(0, len(LEVELS) - 1), st.integers(0, 12), st.integers(1, 6), st.integers(2, 10),
       st.randoms(use_true_random=False))
def test_evaluate_char_certifies_its_digits_at_padic_exponents(index, i, B, prec, rng):
    p, x = LEVELS[index]
    s = _exponent(rng, p, B)
    s2 = PadicNumber(p, s.valuation, s.mantissa + p ** (B - s.valuation) * rng.randrange(1, p**5), s.precision + 5)
    try:
        got = evaluate_char(x, PadicCharSpec(i, s), p, prec)
    except ValueError:
        return  # no digit is certified
    other = evaluate_char(x, PadicCharSpec(i, s2), p, prec)
    if not got.is_zero:
        assert _agrees(got, other, got.abs_precision)


@pytest.mark.parametrize("index", range(len(LEVELS)))
def test_evaluate_char_is_periodic_in_the_exponent(index):
    """<a> has order dividing p^(K-1) mod p^K, so s and s +- p^(K-1) give the same digits."""
    p, x = LEVELS[index]
    prec = 9
    period = p ** (prec + int_vp(x.den, p) - 1)
    for i in range(p - 1):
        for s in (-11, -1, 0, 1, 4, period // 2, period // 2 + 1, period - 1):
            got = [_key(evaluate_char(x, PadicCharSpec(i, t), p, prec)) for t in (s, s + period, s - period)]
            assert got[0] == got[1] == got[2]


def test_evaluate_char_regression_at_an_exponent_known_mod_25():
    p, x = LEVELS[0]
    s = PadicNumber(5, 0, 3, 2)
    s2 = PadicNumber(5, 0, 3 + 7 * 25, 6)
    for i in range(p - 1):
        got = evaluate_char(x, PadicCharSpec(i, s), p, 10)
        assert got.is_zero or got.abs_precision <= 3
        assert _agrees(got, evaluate_char(x, PadicCharSpec(i, s2), p, 10), 3)
    # an integer exponent is exact, so nothing is capped
    assert evaluate_char(x, PadicCharSpec(1, 3), p, 10).abs_precision == 10


# -- eigenspace rows at the irregular indices only ----------------------------------


def _old_eigenspace_nontrivial(p):
    """The former per-n loop over every even n."""
    out = []
    for n in range(2, p - 2, 2):
        v = lambda_modules.eigenspace_order_prediction(p, n, prec=6)
        if v:
            out.append([n, v])
    return out


def _eigenspace(capsys, p):
    code = cli.main(["eigenspace", "--json", "-p", str(p)])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and doc["pass"] is True
    return doc


@pytest.mark.parametrize("p", [5, 7, 37, 59, 67, 101, 103, 131, 157])
def test_eigenspace_rows_match_the_per_n_loop(capsys, p):
    old = _old_eigenspace_nontrivial(p)
    doc = _eigenspace(capsys, p)
    assert doc["nontrivial"] == old
    assert doc["rows"][1:-1] == [[n, v, f"{p}^{v}"] for n, v in old]


def test_eigenspace_predicts_once_per_irregular_index(capsys, monkeypatch):
    calls = []
    real = lambda_modules.eigenspace_order_prediction

    def counted(p, n, prec=12):
        calls.append(n)
        return real(p, n, prec)

    monkeypatch.setattr(lambda_modules, "eigenspace_order_prediction", counted)
    doc = _eigenspace(capsys, 691)
    assert calls == [12, 200]
    assert doc["nontrivial"] == [[12, 1], [200, 1]]


# -- the Coleman window bound ---------------------------------------------------------

TWENTY_PAIRS = ";".join(f"1,{b}" for b in range(2, 32) if b % 3)


@pytest.mark.parametrize("argv", [
    ["coleman", "--prec", "400"], ["coleman", "-p", "401"], ["coleman", "--nmax", "100000"],
    ["coleman", "--trunc", "100000"], ["three", "--trunc", "100000"],
    ["coleman", "--prime", "3", "--prec", "1", "--nmax", "7000"],
    ["coleman", "--prime", "3", "--prec", "1", "--pairs", "1,2", "--nmax", "7000"],
    ["three", "--prime", "5", "--prec", "1", "--nmax", "1600", "--kummer-k", "1"],
    # each window passes the bound alone; twenty of them (b prime to 3) do not
    ["coleman", "-p", "3", "--prec", "12", "--trunc", "2000", "--pairs", TWENTY_PAIRS],
])
def test_oversized_coleman_windows_end_promptly(capsys, argv):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "work bound" in err
    assert elapsed < 1.0


def test_kummer_index_past_the_budget_ends_promptly(capsys):
    """three checks its last Kummer index, nmax + p^k (p-1), before any work."""
    start = time.perf_counter()
    code = cli.main(["three", "--prime", "5", "--prec", "1", "--nmax", "1400", "--kummer-k", "3"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "exact-cache budget" in err
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, n_max", [
    (["coleman"], 4), (["coleman", "--prime", "5", "--prec", "5"], 4), (["three"], 6),
    (["three", "--prime", "7"], 12), (["three", "--prime", "11"], 12), (["coleman", "-p", "37"], 4),
])
def test_documented_coleman_windows_are_accepted(argv, n_max):
    args = cli.build_parser().parse_args(argv)
    M, N = cli._coleman_window(args, n_max)
    assert M >= n_max + 2 and N == args.prec
