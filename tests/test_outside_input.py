"""Malformed files and non-prime p are refused with a ValueError, and the CLI
reports them as `error: ...` with exit code 2; the memoized prime check and
Bernoulli rows behave like the plain functions."""

import pytest

from iwasawa.cli import main
from iwasawa.exactq import bernoulli_poly, bernoulli_poly_eval
from iwasawa.iwaseries import TruncatedSeries
from iwasawa.lambda_modules import ElementaryModule, parse_module_file
from iwasawa.padic import PadicError, _check_odd_prime


@pytest.mark.parametrize("text", ["p\n", "p 5\nppow\n", "p 5\ndist\n", "p 5 7\n", "p 5\nppow 1 2\n"])
def test_module_file_malformed_lines_raise_value_error(text):
    with pytest.raises(ValueError):
        parse_module_file(text)


def test_growth_with_bare_ppow_line_exits_2(tmp_path, capsys):
    path = tmp_path / "mod.txt"
    path.write_text("p 5\nppow\n")
    assert main(["growth", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_weierstrass_rejects_non_prime_series_file(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("4 2 4\n0:1\n0:1\n")
    assert main(["weierstrass", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("p", [1, 2, 4, 9])
def test_series_and_modules_reject_non_primes(p):
    with pytest.raises(ValueError):
        TruncatedSeries(p, [1, 0], 3)
    with pytest.raises(ValueError):
        ElementaryModule(p, (1,), ())


def test_prime_check_is_cached_but_failures_are_not():
    _check_odd_prime.cache_clear()
    for _ in range(3):
        _check_odd_prime(7)
        with pytest.raises(PadicError):
            _check_odd_prime(15)
    info = _check_odd_prime.cache_info()
    assert info.hits == 2 and info.currsize == 1


def test_bernoulli_poly_returns_a_fresh_list():
    row = bernoulli_poly(4)
    row[0] = 99
    assert bernoulli_poly(4)[0] != 99
    assert bernoulli_poly_eval(4, 0) == bernoulli_poly(4)[0]
