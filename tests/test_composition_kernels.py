"""Composition, powers and moments of the Coleman route.

`substitute` (Paterson-Stockmeyer) is compared with the former Horner loop,
kept here as the reference; f^p by squaring with p - 1 products; the moments
of one D pass with the per-n `moment`.  Results at p-adic precision N + 5,
reduced mod p^N, must equal the results at N.  The Coleman measure is built
once per window: the build counts of `zeta_moment`, `coleman` and `three`.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa import cli, coleman, measures
from iwasawa.group_algebra import component_series, idempotent
from iwasawa.iwaseries import TruncatedSeries, log_one_plus, mul_trunc


def _horner_substitute(f, g):
    """The former `substitute`: acc <- acc g + c over the coefficients of f."""
    p, M, mod = f.prime, f.trunc, f.prime**f.prec
    acc = [0] * M
    for c in reversed(f.coeffs):
        acc = mul_trunc(acc, g.coeffs, mod, M)
        acc[0] = (acc[0] + c) % mod
    return TruncatedSeries(p, acc, f.prec)


def _targets(rng, p, M, N):
    """The twist target, (1+T)^p - 1 and a random target with g(0) in pZ."""
    twist = [(1 + p) * (-1) ** k - (k == 0) for k in range(M)]
    rand = [p * rng.randrange(p ** (N - 1))] + [rng.randrange(p**N) for _ in range(M - 1)]
    omega = TruncatedSeries.from_integer_poly(coleman.omega_like(p, M), p, M, N)
    return [TruncatedSeries(p, twist, N), omega, TruncatedSeries(p, rand, N)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 17, 100, 400])
def test_substitute_matches_horner(p, M):
    rng = random.Random(str((p, M)))
    for N in ((4,) if M == 400 else (1, 6, 12)):
        f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
        targets = _targets(rng, p, M, N)
        for g in targets:
            assert f.substitute(g) == _horner_substitute(f, g), (N, g)
        assert f.nu_involution() == _horner_substitute(f, targets[0])


def test_substitute_rejects_a_unit_target():
    f = TruncatedSeries(5, [1, 2, 3], 4)
    with pytest.raises(ValueError):
        f.substitute(TruncatedSeries(5, [1, 1, 0], 4))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_power_by_squaring_matches_repeated_products(p):
    rng = random.Random(p)
    f = TruncatedSeries(p, [rng.randrange(p**6) for _ in range(30)], 6)
    ref = f
    for _ in range(p - 1):
        ref = ref * f
    assert f**p == ref
    assert f**1 == f
    with pytest.raises(ValueError):
        f**0


@pytest.mark.parametrize("p, M, N", [(3, 20, 6), (5, 46, 7), (7, 62, 7), (13, 110, 6)])
def test_moments_match_moment(p, M, N):
    rng = random.Random(str((p, M, N)))
    for mu in (TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N),
               coleman.lambda_unit_measure(1, 2, p, M, N)):
        moms = measures.moments(mu, M - 1)
        assert len(moms) == M
        for n in range(M):
            assert moms[n] == measures.moment(mu, n), n
    with pytest.raises(ValueError):
        measures.moments(mu, M)


def test_zeta_moments_match_zeta_moment():
    p, M, N = 5, 50, 6
    vals = coleman.zeta_moments(range(1, 9), 2, 3, p, M, N)
    coleman.lambda_unit_measure.cache_clear()
    assert vals == [coleman.zeta_moment(n, 2, 3, p, M, N) for n in range(1, 9)]
    assert coleman.zeta_moments([], 2, 3, p, M, N) == []


# -- results at N + 5 reduce to the results at N ----------------------------------------

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def windows(draw):
    """(p, M, N, a, b): two coefficient lists of length M given mod p^(N+5)."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(1, 6))
    M = draw(st.integers(1, 24))
    digits = st.lists(st.integers(0, p ** (N + 5) - 1), min_size=M, max_size=M)
    return p, M, N, draw(digits), draw(digits)


def _reduces(hi, lo):
    mod = lo.prime**lo.prec
    return hi.prec == lo.prec + 5 and [c % mod for c in hi.coeffs] == list(lo.coeffs)


@PROPERTY
@given(case=windows())
def test_substitute_at_n_plus_5_reduces_to_substitute_at_n(case):
    p, M, N, a, b = case
    b[0] *= p
    hi = TruncatedSeries(p, a, N + 5).substitute(TruncatedSeries(p, b, N + 5))
    assert _reduces(hi, TruncatedSeries(p, a, N).substitute(TruncatedSeries(p, b, N)))


@PROPERTY
@given(case=windows())
def test_nu_involution_at_n_plus_5_reduces_to_nu_involution_at_n(case):
    p, M, N, a, _ = case
    assert _reduces(TruncatedSeries(p, a, N + 5).nu_involution(), TruncatedSeries(p, a, N).nu_involution())


@PROPERTY
@given(case=windows())
def test_log_one_plus_at_n_plus_5_reduces_to_log_at_n(case):
    p, M, N, a, _ = case
    u = [p * c for c in a]
    assert _reduces(log_one_plus(TruncatedSeries(p, u, N + 5)), log_one_plus(TruncatedSeries(p, u, N)))


@PROPERTY
@given(case=windows())
def test_invert_unit_at_n_plus_5_reduces_to_inverse_at_n(case):
    p, M, N, a, _ = case
    if a[0] % p == 0:
        a[0] += 1
    assert _reduces(TruncatedSeries(p, a, N + 5).invert_unit(), TruncatedSeries(p, a, N).invert_unit())


# -- one Coleman measure per window -----------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Arguments of every log_derivative_measure call, from an empty measure cache."""
    calls = []
    real = coleman.log_derivative_measure

    def counted(f):
        calls.append((f.prime, f.trunc, f.prec))
        return real(f)

    coleman.lambda_unit_measure.cache_clear()
    monkeypatch.setattr(coleman, "log_derivative_measure", counted)
    yield calls
    coleman.lambda_unit_measure.cache_clear()


def test_two_moments_of_one_window_build_one_measure(builds):
    first = coleman.zeta_moment(2, 1, 3, 5, 40, 6)
    second = coleman.zeta_moment(4, 1, 3, 5, 40, 6)
    assert len(builds) == 1
    coleman.lambda_unit_measure.cache_clear()
    assert [coleman.zeta_moment(n, 1, 3, 5, 40, 6) for n in (2, 4)] == [first, second]
    assert len(builds) == 2


def test_measure_cache_is_bounded(builds):
    assert coleman.lambda_unit_measure.cache_info().maxsize == 1
    for trunc in (20, 21, 20):
        coleman.zeta_moment(2, 1, 2, 3, trunc, 3)
    assert coleman.lambda_unit_measure.cache_info().currsize == 1
    assert len(builds) == 3  # window 20 was dropped when window 21 was built


def test_coleman_command_builds_one_measure_per_pair(capsys, builds):
    code = cli.main(["coleman", "--nmax", "60", "--pairs", "1,3;2,3"])
    capsys.readouterr()
    assert code == 0
    assert len(builds) == 2


def test_three_command_builds_one_measure(capsys, builds):
    code = cli.main(["three"])
    capsys.readouterr()
    assert code == 0
    assert len(builds) == 1


def test_two_hundred_moments_end_promptly(capsys):
    start = time.perf_counter()
    code = cli.main(["coleman", "--prime", "5", "--prec", "8", "--nmax", "200", "--trunc", "242"])
    elapsed = time.perf_counter() - start
    assert code == 0, capsys.readouterr().err
    assert elapsed < 10


# -- component series report no more digits than the element carries -------------------


def test_component_series_is_capped_at_the_window():
    x = idempotent(1, 2, 5, 3)
    assert x.window == 3
    capped = component_series(x, 1, 5, 8)
    assert capped.prec == 3
    assert capped == component_series(x, 1, 5, 3)
