"""Malformed files and non-prime p are refused with a ValueError, and the CLI
reports them as `error: ...` with exit code 2; the memoized prime check and
Bernoulli rows behave like the plain functions."""

import time

import pytest

from iwasawa import lambda_modules
from iwasawa.cli import main
from iwasawa.exactq import bernoulli_poly, bernoulli_poly_eval
from iwasawa.iwaseries import MAX_FILE_PREC, TruncatedSeries
from iwasawa.lambda_modules import ElementaryModule, parse_module_file
from iwasawa.padic import MAX_PRIME_BITS, PadicError, _check_odd_prime


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


def _timed_main(argv, capsys):
    t0 = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - t0, capsys.readouterr().err


# a precision far above the bound, and a valuation whose power of p would take
# over a minute to compute; the second file is the zero series once v >= N reads as 0
@pytest.mark.parametrize("text", ["5 2 2000000\n0:1\n0:1\n", "5 1 4\n40000000:1\n"])
def test_series_files_that_could_hang_exit_2_promptly(tmp_path, capsys, text):
    path = tmp_path / "series.txt"
    path.write_text(text)
    code, seconds, err = _timed_main(["weierstrass", str(path)], capsys)
    assert code == 2 and err.startswith("error:") and seconds < 1


def test_growth_work_bound_refuses_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a growth sequence was computed")

    monkeypatch.setattr(lambda_modules, "growth_sequence", refuse)
    module = tmp_path / "module.txt"
    module.write_text("p 3\nppow 1\ndist 9 3 1\n")
    big = tmp_path / "big.txt"
    big.write_text("p 5\ndist " + "5 " * 120 + "1\n")
    for argv in (["growth", str(module), "--rmax", "1000000"], ["growth", str(big), "--rmax", "2"]):
        code, seconds, err = _timed_main(argv, capsys)
        assert code == 2 and err.startswith("error:") and "work bound" in err and seconds < 1


@pytest.mark.parametrize("e, rmax", [(5, 3), (3, 3), (0, 0)])
def test_growth_with_an_empty_tower_is_refused_before_any_work(tmp_path, capsys, monkeypatch, e, rmax):
    def refuse(*args):
        raise AssertionError("a growth sequence was computed")

    monkeypatch.setattr(lambda_modules, "growth_sequence", refuse)
    module = tmp_path / "module.txt"
    module.write_text("p 3\nppow 1\ndist 9 3 1\n")
    code, seconds, err = _timed_main(["growth", str(module), "--e", str(e), "--rmax", str(rmax)], capsys)
    assert code == 2 and err.startswith("error: nothing to compute") and seconds < 1


@pytest.mark.parametrize("e, rmax", [(0, 1), (0, 2), (4, 6)])
def test_growth_tower_too_short_to_fit_is_refused_before_any_work(tmp_path, capsys, monkeypatch, e, rmax):
    def refuse(*args):
        raise AssertionError("a growth sequence was computed")

    monkeypatch.setattr(lambda_modules, "growth_sequence", refuse)
    module = tmp_path / "module.txt"
    module.write_text("p 3\nppow 1\ndist 9 3 1\n")
    code, seconds, err = _timed_main(["growth", str(module), "--e", str(e), "--rmax", str(rmax)], capsys)
    assert code == 2 and err.startswith("error: nothing to fit") and seconds < 1


def test_growth_to_level_30_is_prompt_and_an_infinite_quotient_exits_2(tmp_path, capsys):
    module = tmp_path / "module.txt"
    module.write_text("p 5\nppow 1\ndist 5 0 1\ndist 10 5 0 1\n")
    code, seconds, err = _timed_main(["growth", str(module), "--rmax", "30", "--json"], capsys)
    assert code == 0 and seconds < 1
    module.write_text("p 3\ndist 3 3 1\n")  # Phi_3(1+T)
    code, seconds, err = _timed_main(["growth", str(module)], capsys)
    assert code == 2 and err == "error: quotient is infinite\n"


def test_series_file_precision_bound_and_high_valuations():
    ok = TruncatedSeries.from_text(f"5 3 {MAX_FILE_PREC}\n0:1\n{MAX_FILE_PREC}:1\n2:3\n")
    assert ok.coeffs == (1, 0, 75)
    assert TruncatedSeries.from_text("5 2 4\n4:1\n3:2\n").coeffs == (0, 250)
    with pytest.raises(ValueError, match="exceeds the bound"):
        TruncatedSeries.from_text(f"5 1 {MAX_FILE_PREC + 1}\n0:1\n")


def test_large_prime_is_refused_promptly(capsys):
    code, seconds, err = _timed_main(["irregular", "--prime", "1000000000000000003"], capsys)
    assert code == 2 and err.startswith("error:") and f"2^{MAX_PRIME_BITS}" in err and seconds < 1
    with pytest.raises(PadicError, match="too large"):
        _check_odd_prime(2**MAX_PRIME_BITS + 15)
    _check_odd_prime(2**40 - 87)  # the largest prime below the bound
    for p, message in ((2, "p = 2 is not supported"), (1, "1 is not an odd prime"), (9, "9 is not an odd prime")):
        with pytest.raises(PadicError, match=message):
            _check_odd_prime(p)


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


def test_level_work_bound_refuses_before_any_work(capsys, monkeypatch):
    from iwasawa import group_algebra

    def refuse(*args, **kwargs):
        raise AssertionError("a level table was built")

    monkeypatch.setattr(group_algebra, "interp_check", refuse)
    for argv in (["three", "--level", "10"], ["three", "--level", "1000000000"],
                 ["three", "--level", "9", "--nmax", "100"],
                 ["interp", "-p", "5", "--rmin", "10", "--rmax", "10"],
                 ["interp", "-p", "5", "--rmin", "9", "--rmax", "9", "--nmax", "2"]):
        code, seconds, err = _timed_main(argv, capsys)
        assert code == 2 and err.startswith("error:") and "work bound" in err and seconds < 1, argv


@pytest.mark.parametrize("argv", [["interp", "--nmax", "0"], ["interp", "--rmin", "5", "--rmax", "3"],
                                  ["interp", "--nmax", "0", "--rmax", "1000000000"]])
def test_interp_with_nothing_to_check_is_refused_before_any_work(argv, capsys, monkeypatch):
    from iwasawa import group_algebra

    def refuse(*args, **kwargs):
        raise AssertionError("a level table was built")

    monkeypatch.setattr(group_algebra, "interp_check", refuse)
    code, seconds, err = _timed_main(argv, capsys)
    assert code == 2 and err.startswith("error:") and "nothing to check" in err and seconds < 1


def test_interp_l_value_bound_refuses_before_any_work(capsys, monkeypatch):
    # each (j, n) check computes one B_(n, chi psi); at small r these, not the
    # level table, are the work: the first line ran 16.8 s before this bound
    from iwasawa import group_algebra

    def refuse(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(group_algebra, "interp_check", refuse)
    for argv in (["interp", "-p", "13", "--rmin", "3", "--rmax", "3", "--nmax", "400"],
                 ["interp", "-p", "5", "--rmin", "2", "--rmax", "2", "--nmax", "62500"],
                 ["interp", "--n", "1501"],
                 ["interp", "-p", "5", "--rmin", "2", "--rmax", "1000000000", "--nmax", "2"]):
        code, seconds, err = _timed_main(argv, capsys)
        assert code == 2 and err.startswith("error:") and "work bound" in err and seconds < 1, argv


def test_level_work_bound_counts_distinct_branches_and_horner_passes(monkeypatch):
    # three --level 9 builds 2 branches ((1-n) mod 4 is 3, 1, 3 for n = 2, 4, 6) and
    # evaluates 3; interp at p = 5, r = 8 builds 4 and evaluates 4 |n|: each is under 5e6
    from iwasawa import group_algebra

    class Accepted(Exception):
        pass

    def accept(*args, **kwargs):
        raise Accepted

    monkeypatch.setattr(group_algebra, "interp_check", accept)
    for argv in (["three", "--level", "9"], ["three", "--level", "9", "--nmax", "8"],
                 ["interp", "-p", "5", "--rmin", "8", "--rmax", "8", "--nmax", "12"]):
        with pytest.raises(Accepted):
            main(argv)


@pytest.mark.parametrize("command", ["irregular", "eigenspace"])
def test_irregular_prime_bound_refuses_before_any_work(capsys, monkeypatch, command):
    from iwasawa import exactq
    from iwasawa.cli import MAX_IRREGULAR_PRIME

    class Accepted(Exception):
        pass

    def accept(p):
        raise Accepted

    monkeypatch.setattr(exactq, "irregular_indices", accept)
    for p in (10007, 2053):
        code, seconds, err = _timed_main([command, "-p", str(p)], capsys)
        assert code == 2 and err.startswith("error:") and "work bound" in err and seconds < 1
    with pytest.raises(Accepted):
        main([command, "-p", str(MAX_IRREGULAR_PRIME)])
