"""The omega^i-branches kept on a cached level table: `interp_check` reads
each branch of a table at most once, its lhs is bit-identical to a Horner
evaluation on a freshly built branch, and clearing the table cache drops the
branches with the rows.  The rhs of `interp_check` is computed once per
(chi, j, n, prec), whatever the level."""

from fractions import Fraction

import pytest

from iwasawa import group_algebra
from iwasawa.characters import DirichletCharacter, from_generator_data, quadratic_char
from iwasawa.cli import main
from iwasawa.group_algebra import _branch, _hmu_rows, _interp_rhs, interp_check
from iwasawa.padic import from_rational_abs

NS = range(1, 9)


def _key(chi):
    return (chi.prime, chi.modulus, tuple(sorted(chi.exponents.items())))


def _fresh_lhs(chi, j, n, r, prec):
    """The lhs as one Horner evaluation of a branch built anew for this (j, n)."""
    p, N, exponents = _key(chi)
    pK = p ** (prec + r)
    x, acc = pow(1 + p, 1 - n, pK), 0
    for c in reversed(_branch(_hmu_rows(p, N, exponents, r, prec), (1 - n - j) % (p - 1), p, prec + r)):
        acc = (acc * x + c) % pK
    return from_rational_abs(Fraction(acc, p**r), p, prec)


def _chars(p):
    """The interp_grid characters; mod 13 at p = 13, whose conductor must be
    prime to p, the cubic character mod 7 stands in for the quartic one."""
    third = from_generator_data(7, {3: 2}, p) if p == 13 else from_generator_data(13, {2: 1}, p)
    return {"trivial": DirichletCharacter.trivial(1, p), "quadratic3": quadratic_char(3, p), "third": third}


@pytest.mark.parametrize("p, r", [(5, 2), (5, 3), (7, 3), (13, 2)])
@pytest.mark.parametrize("name", ["trivial", "quadratic3", "third"])
def test_every_lhs_is_the_horner_value_of_a_fresh_branch(p, r, name):
    chi, prec = _chars(p)[name], r + 6
    for j in range(p - 1):
        for n in NS:
            got, ref = interp_check(chi, j, n, r).lhs, _fresh_lhs(chi, j, n, r, prec)
            assert (got.valuation, got.mantissa, got.precision) == (ref.valuation, ref.mantissa, ref.precision), (j, n)


def _counting(monkeypatch, name):
    """The argument tuples of every call to group_algebra.<name> from now on."""
    calls, fn = [], getattr(group_algebra, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(group_algebra, name, counted)
    return calls


@pytest.mark.parametrize("p", [5, 7])
def test_a_table_builds_each_of_its_branches_once(p, monkeypatch):
    chi, r = quadratic_char(3, p), 3
    _hmu_rows.cache_clear()
    calls = _counting(monkeypatch, "_branch")
    for _ in range(2):
        for j in range(p - 1):
            for n in NS:
                interp_check(chi, j, n, r)
    assert sorted(i for _, i, _, _ in calls) == list(range(p - 1))
    table = _hmu_rows(*_key(chi), r, r + 6)
    assert sorted(table.branches) == list(range(p - 1))
    assert table == tuple(table)


def test_cache_clear_drops_the_branches(monkeypatch):
    chi, r = DirichletCharacter.trivial(1, 5), 3
    _hmu_rows.cache_clear()
    calls = _counting(monkeypatch, "_branch")
    first = interp_check(chi, 0, 2, r).lhs
    interp_check(chi, 0, 2, r)
    assert len(calls) == 1
    _hmu_rows.cache_clear()
    again = interp_check(chi, 0, 2, r).lhs
    assert len(calls) == 2
    assert (again.valuation, again.mantissa, again.precision) == (first.valuation, first.mantissa, first.precision)


# -- the rhs of interp_check, once per (chi, j, n, prec) ---------------------------


def test_interp_over_three_levels_computes_each_l_value_once(monkeypatch, capsys):
    _interp_rhs.cache_clear()
    calls = _counting(monkeypatch, "L_neg")
    assert main(["interp", "--rmin", "2", "--rmax", "4", "--nmax", "3"]) == 0
    assert "pass: True" in capsys.readouterr().out
    keys = [(chipsi.modulus, tuple(sorted(chipsi.exponents.items())), n) for chipsi, n, _ in calls]
    assert len(keys) == 4 * 3 and len(set(keys)) == len(keys)


def test_cache_clear_computes_the_l_value_again(monkeypatch):
    chi = quadratic_char(3, 5)
    calls = _counting(monkeypatch, "L_neg")
    _interp_rhs.cache_clear()
    first = [interp_check(chi, 1, 3, r, prec=10) for r in (2, 3, 4)]
    assert len(calls) == 1
    _interp_rhs.cache_clear()
    again = interp_check(chi, 1, 3, 3, prec=10)
    assert len(calls) == 2
    for rep in first:
        assert rep.chi_conductor == again.chi_conductor
        assert (rep.rhs.valuation, rep.rhs.mantissa, rep.rhs.precision) == (
            again.rhs.valuation, again.rhs.mantissa, again.rhs.precision)
