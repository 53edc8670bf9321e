"""The two coordinate kernels of Z_p^x = mu_(p-1) x (1+pZ_p), their callers,
the shared resultant pass of the module layer, and strict `--json` output."""

import json
import random
from math import comb

import pytest

from iwasawa import cli, group_algebra
from iwasawa.characters import teichmuller_table
from iwasawa.coleman import omega_like
from iwasawa.iwaseries import IndeterminateWithinTruncation, TruncatedSeries, inverse_taylor_shift, taylor_shift
from iwasawa.lambda_modules import ElementaryModule, is_finite_quotient, quotient_order_exponent
from iwasawa.lambda_modules import mu_lambda_of, poly_trim, resultant
from iwasawa.measures import restrict_to_units
from iwasawa.padic import int_vp, teichmuller


def _triple_loop_restriction(g: TruncatedSeries) -> TruncatedSeries:
    """restrict_to_units by binomial averaging: the xi-average of
    (xi(1+T)-1)^n is sum over k = 0, p, 2p, ... <= n of C(n,k) (-1)^(n-k) (1+T)^k."""
    p, M, N = g.prime, g.trunc, g.prec
    mod = p**N
    avg = [0] * M
    for n in range(M):
        a = g.coeffs[n]
        if a == 0:
            continue
        for k in range(0, n + 1, p):
            c = comb(n, k) * (-1) ** (n - k) % mod
            if c == 0:
                continue
            ac = a * c % mod
            for j in range(min(k, M - 1) + 1):
                avg[j] = (avg[j] + ac * comb(k, j)) % mod
    out = [(x - y) % mod for x, y in zip(g.coeffs, avg)]
    return TruncatedSeries(p, out, N)


@pytest.mark.parametrize("p, M, N", [(3, 1, 3), (5, 2, 3), (5, 24, 5), (5, 46, 7), (7, 62, 7), (11, 94, 7), (13, 110, 7)])
def test_restrict_to_units_matches_triple_loop(p, M, N):
    rng = random.Random(1000 * p + M)
    for density in (1.0, 0.3):
        coeffs = [rng.randrange(p**N) if rng.random() < density else 0 for _ in range(M)]
        g = TruncatedSeries(p, coeffs, N)
        assert restrict_to_units(g) == _triple_loop_restriction(g)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 691])
@pytest.mark.parametrize("K", [1, 2, 6])
def test_teichmuller_table_entries(p, K):
    pK = p**K
    table = teichmuller_table(p, K)
    assert len(table.zeta_pow) == p - 1 and sorted(table.ind) == list(range(1, p))
    for a in range(1, p):
        omega = teichmuller(a, p, K).mantissa
        assert table.zeta_pow[table.ind[a]] == omega
        assert table.teich_inv[a] * omega % pK == 1
    assert group_algebra.teichmuller_table(p, K) is table


@pytest.mark.parametrize("length", [0, 1, 2, 3, 7, 40, 97])
def test_inverse_taylor_shift_inverts_the_shift(length):
    rng = random.Random(length)
    for mod in (3**5, 7**4, 13**7):
        c = [rng.randrange(-mod, 2 * mod) for _ in range(length)]
        reduced = [v % mod for v in c]
        assert inverse_taylor_shift(taylor_shift(c, mod), mod) == reduced
        assert taylor_shift(inverse_taylor_shift(c, mod), mod) == reduced


def test_inverse_taylor_shift_expands_powers_of_x_minus_one():
    mod = 5**6
    for n in range(9):
        expected = [comb(n, k) * (-1) ** (n - k) % mod for k in range(n + 1)]
        assert inverse_taylor_shift([0] * n + [1], mod) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_omega_like_matches_binomial_list(p):
    for trunc in range(1, p + 3):
        assert omega_like(p, trunc) == [comb(p, k) if k else 0 for k in range(min(p, trunc - 1) + 1)]


# -- the module layer: one resultant pass ------------------------------------


def _series_to_poly_data(g, p):
    if isinstance(g, TruncatedSeries):
        mu, lam = g.mu_lambda()
        return mu, lam, list(g.coeffs), g.prec
    poly = poly_trim(list(g))
    if not poly:
        raise ValueError("zero polynomial")
    mu, wdeg = mu_lambda_of(poly, p)
    return mu, wdeg, poly, None


def _two_pass_is_finite(E, g):
    p = E.prime
    mu_g, _, poly, prec = _series_to_poly_data(g, p)
    if E.p_exponents and mu_g > 0:
        return False
    for q in E.dist_polys:
        res = resultant(list(q), poly)
        if res == 0:
            return False
        if prec is not None and int_vp(res, p) >= prec:
            raise IndeterminateWithinTruncation("resultant vanishes within the available p-precision")
    return True


def _two_pass_order(E, g):
    p = E.prime
    if not _two_pass_is_finite(E, g):
        raise ValueError("quotient is infinite")
    mu_g, wdeg_g, poly, prec = _series_to_poly_data(g, p)
    total = sum(mu_i * wdeg_g for mu_i in E.p_exponents)
    for q in E.dist_polys:
        v = int_vp(resultant(list(q), poly), p)
        if prec is not None and v >= prec - 1:
            raise IndeterminateWithinTruncation("resultant valuation reaches the p-precision of the series")
        total += v
    return total


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def _modules_and_arguments():
    p = 5
    X = [0, 1]
    t_minus_5 = [-5, 1]
    modules = [
        ElementaryModule(p, (1,), ((5, 1), (10, 0, 1))),
        # one infinite factor: T - 5 shares its root with g = T - 5 below
        ElementaryModule(p, (), ((5, 1), (-5, 1), (10, 0, 1))),
        ElementaryModule(p, (2,), ((-5, 1),)),
        ElementaryModule(p, (), ((25, 1), (-5, 1))),
    ]
    args = [X, t_minus_5, [5, 0, 1], [1, 1], [5], [25, 5, 1]]
    for prec in (1, 2, 3):
        for coeffs in ([0, 1, 0, 0], [5, 1, 0, 0], [-5 % p**prec, 1, 0, 0], [25, 0, 1, 0], [5, 5, 0, 0]):
            args.append(TruncatedSeries(p, coeffs, prec))
    return modules, args


def test_one_resultant_pass_keeps_results_and_errors():
    modules, args = _modules_and_arguments()
    seen = set()
    for E in modules:
        for g in args:
            assert _outcome(is_finite_quotient, E, g) == _outcome(_two_pass_is_finite, E, g)
            new = _outcome(quotient_order_exponent, E, g)
            assert new == _outcome(_two_pass_order, E, g)
            seen.add(new[1] if new[0] != "value" else "value")
    # every branch is exercised: a finite order, an infinite quotient, a series
    # that vanishes at its precision, and both resultant precision refusals
    assert seen == {
        "value",
        "quotient is infinite",
        "series vanishes within the (M, N) window",
        "resultant vanishes within the available p-precision",
        "resultant valuation reaches the p-precision of the series",
    }


def test_infinite_factor_is_reported_before_a_precision_refusal():
    # the first factor alone would be refused at prec 2 (v_p(Res) = 1 = prec - 1);
    # the second factor makes the quotient infinite, which is what is reported
    E = ElementaryModule(5, (), ((5, 1), (0, 1)))
    g = TruncatedSeries(5, [0, 1, 0, 0], 2)
    assert _outcome(quotient_order_exponent, E, g) == ("ValueError", "quotient is infinite")
    assert is_finite_quotient(E, g) is False


# -- strict JSON reports ----------------------------------------------------------


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("argv", [["three", "--json"], ["coleman", "--json"]])
def test_json_reports_parse_strictly(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(out, parse_constant=_refuse_constant)
    agreements = [row[3] for row in doc["rows"][1:] if doc["command"] == "three" and row[1] == "coleman"]
    agreements += [row[4] for row in doc["rows"][1:] if doc["command"] == "coleman"]
    assert "inf" in agreements


def test_json_refuses_nan():
    cfg = cli.RunConfig(json_mode=True)
    with pytest.raises(ValueError):
        cli._emit(cfg, "x", {"rows": [[float("nan")]]}, True)


def test_json_encodes_negative_infinity():
    assert cli._json_safe({"a": (1.5, float("-inf")), "b": [float("inf")]}) == {"a": [1.5, "-inf"], "b": ["inf"]}
