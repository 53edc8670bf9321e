"""The window a Weierstrass factorization reports is the window it knows: the
factorization of f mod T^M and of f mod T^(4M), for random coefficients past
M, agree on the distinguished polynomial mod p^p_precision and on the first
t_window unit coefficients mod p^p_precision."""

import json
import random

import pytest

from iwasawa.cli import main
from iwasawa.iwaseries import TruncatedSeries


def _series(rng, p, M, N, nu, mu):
    """p^mu (A + T^nu B) mod p^N with A = 0 mod p and B(0) a unit."""
    unit_part = [p * rng.randrange(p ** (N - mu)) for _ in range(nu)] + [rng.randrange(1, p)]
    return [p**mu * c for c in unit_part + [rng.randrange(p ** (N - mu)) for _ in range(M - nu - 1)]]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("M, N, nu, mu", [(10, 6, 3, 0), (12, 8, 2, 1), (16, 9, 4, 0), (24, 12, 5, 2),
                                          (8, 5, 4, 0), (9, 7, 1, 0), (6, 4, 0, 1)])
def test_factorization_agrees_with_a_longer_window_where_it_reports(p, M, N, nu, mu):
    rng = random.Random(str((p, M, N, nu, mu)))
    for _ in range(8):
        coeffs = _series(rng, p, 4 * M, N, nu, mu)
        short = TruncatedSeries(p, coeffs[:M], N).weierstrass_prep()
        long = TruncatedSeries(p, coeffs, N).weierstrass_prep()
        assert (short.mu, short.weierstrass_degree) == (long.mu, long.weierstrass_degree) == (mu, nu)
        k, t = short.p_precision, short.t_window
        assert 1 <= k <= N - mu and 1 <= t <= M - nu
        assert all((a - b) % p**k == 0 for a, b in zip(short.distinguished, long.distinguished))
        assert all((a - b) % p**k == 0 for a, b in zip(short.unit.coeffs[:t], long.unit.coeffs[:t]))
        # coefficient j of the unit is known mod p^min(N - mu, (W - j - 1) // nu + 1)
        W = M - nu
        for j in range(W):
            tol = N - mu if nu == 0 else min(N - mu, (W - j - 1) // nu + 1)
            assert (short.unit.coeffs[j] - long.unit.coeffs[j]) % p**tol == 0


def test_weierstrass_command_reports_the_certified_window(tmp_path, capsys):
    """3 + 3T + 3T^2 + T^3 + ... + T^9 mod 3^6: the coefficients past T^10
    move P mod 3^3 and the unit's T-coefficient mod 3^2, so the report is
    (p^2, T^4), and appending coefficients changes nothing inside it."""
    head = "1:1\n" * 3 + "0:1\n" * 7
    rows = {}
    for name, text in (("short", "3 10 6\n" + head), ("long", "3 40 6\n" + head + "0:2\n" * 30)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        assert main(["weierstrass", str(path)]) == 0
        rows[name] = dict(line.split("  ", 1) for line in capsys.readouterr().out.splitlines()[:-1])
    assert rows["short"]["valid_mod"] == "(p^2, T^4)"
    short_p, long_p = (json.loads(rows[k]["distinguished"]) for k in ("short", "long"))
    short_u, long_u = (json.loads(rows[k]["unit_head"]) for k in ("short", "long"))
    assert all((a - b) % 9 == 0 for a, b in zip(short_p, long_p))
    assert all((a - b) % 9 == 0 for a, b in zip(short_u[:4], long_u[:4]))
    assert short_p != long_p and short_u[1] != long_u[1]
