import random

import pytest

from iwasawa.iwaseries import TruncatedSeries, _bareiss_det, nu_rm_poly, phi_poly, poly_mul
from iwasawa.lambda_modules import (
    ElementaryModule,
    _det_valuation,
    _mult_matrix,
    eigenspace_order_prediction,
    growth_sequence,
    invariants,
    is_finite_quotient,
    parse_module_file,
    quotient_order_exponent,
    quotient_order_oracle,
    smith_elementary_divisors,
)
from iwasawa.padic import int_vp


def test_invariants_examples():
    assert invariants(ElementaryModule(5, (1,), ()))[:2] == (1, 0)
    E = ElementaryModule(5, (2,), ((0, 1),))
    mu, lam, char = invariants(E)
    assert (mu, lam) == (2, 1) and char == [0, 1]


def test_invariants_additive_on_direct_sums():
    rng = random.Random(31)
    for _ in range(10):
        p = 5
        pe1 = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(2)))
        pe2 = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(2)))
        d1 = ((p, 1),) if rng.random() < 0.7 else ()
        d2 = ((p * 2, p, 1),) if rng.random() < 0.5 else ()
        a = ElementaryModule(p, pe1, d1)
        b = ElementaryModule(p, pe2, d2)
        ab = ElementaryModule(p, pe1 + pe2, d1 + d2)
        ma, la, ca = invariants(a)
        mb, lb, cb = invariants(b)
        mab, lab, cab = invariants(ab)
        assert (mab, lab) == (ma + mb, la + lb)
        assert cab == poly_mul(ca, cb)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ElementaryModule(5, (0,), ())
    with pytest.raises(ValueError):
        ElementaryModule(5, (), ((1, 1),))  # not distinguished: constant is a unit


def test_is_finite_quotient():
    E = ElementaryModule(5, (1,), ())
    assert is_finite_quotient(E, [0, 1])  # g = T coprime to p
    assert not is_finite_quotient(E, [5])  # g = p
    ET = ElementaryModule(5, (), ((0, 1),))
    assert is_finite_quotient(ET, nu_rm_poly(5, 2, 0))
    assert not is_finite_quotient(ET, [0, 0, 5, 1])  # shares the factor T


def test_quotient_order_examples():
    p = 5
    E = ElementaryModule(p, (1,), ())
    for r in (1, 2):
        assert quotient_order_exponent(E, nu_rm_poly(p, r, 0)) == p**r - 1
    ET = ElementaryModule(p, (), ((0, 1),))
    for r in (1, 2, 3):
        assert quotient_order_exponent(ET, nu_rm_poly(p, r, 0)) == r
    ETp = ElementaryModule(p, (), ((-p, 1),))
    for r, e in ((2, 1), (3, 1), (4, 2)):
        assert quotient_order_exponent(ETp, nu_rm_poly(p, r, e)) == r - e


def test_quotient_order_accepts_truncated_series():
    p = 5
    E = ElementaryModule(p, (), ((-p, 1),))
    g = TruncatedSeries.from_integer_poly(nu_rm_poly(p, 2, 0), p, 30, 10)
    assert quotient_order_exponent(E, g) == 2


def test_oracle_trivial_cases():
    assert quotient_order_oracle([0, 1], [3], 5) == 0  # P = T, g a unit constant
    assert quotient_order_oracle([0, 0, 1], [5], 5) == 2  # P = T^2, g = p


def test_oracle_matches_main_path():
    rng = random.Random(32)
    checked = 0
    while checked < 50:
        p = rng.choice((3, 5))
        d = rng.randrange(1, 4)
        P = [rng.randrange(0, 3 * p) * p for _ in range(d)] + [1]
        g = [rng.randrange(-20, 20) for _ in range(rng.randrange(1, 5))] + [rng.randrange(1, 9)]
        E = ElementaryModule(p, (), (tuple(P),))
        try:
            main = quotient_order_exponent(E, g)
        except ValueError:
            continue
        checked += 1
        assert main == quotient_order_oracle(P, g, p)


def _integer_smith_diagonal(mat):
    """Diagonalization over Z by Euclid-style pivoting: repeated division by the
    entry of least absolute value (the oracle's former routine)."""
    m = [row[:] for row in mat]
    n = len(m)
    divisors = []
    top = 0
    while top < n:
        # find a nonzero pivot of minimal absolute value
        best = None
        for i in range(top, n):
            for j in range(top, n):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            divisors.extend([0] * (n - top))
            break
        i0, j0 = best
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[top], row[j0] = row[j0], row[top]
        pivot = m[top][top]
        dirty = False
        for i in range(top + 1, n):
            q = m[i][top] // pivot
            if q:
                for j in range(top, n):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = m[top][j] // pivot
            if q:
                for i in range(top, n):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        divisors.append(abs(pivot))
        top += 1
    return divisors


# criterion 09's distinguished factors and two cubics; at p = 7 the integer
# pivoting needs minutes for r = 5, so the comparison stops at r = 4 there
@pytest.mark.parametrize("p, r_max", [(3, 5), (5, 5), (7, 4)])
def test_local_smith_form_matches_integer_pivoting(p, r_max):
    for P in ([0, 1], [-p, 1], [p * p, p, 1], [p**3, 0, p, 1], [p, p, 0, 1]):
        for r in range(1, r_max + 1):
            mat = _mult_matrix(P, nu_rm_poly(p, r, 0))
            got = smith_elementary_divisors(mat, p)
            assert all(d == p ** int_vp(d, p) for d in got)
            want = sorted(int_vp(d, p) for d in _integer_smith_diagonal(mat))
            assert sorted(int_vp(d, p) for d in got) == want, (P, r)


def test_local_smith_form_singular():
    assert smith_elementary_divisors([[2, 4], [1, 2]], 5) == [1, 0]
    assert _integer_smith_diagonal([[2, 4], [1, 2]]) == [1, 0]
    assert smith_elementary_divisors([[0, 0], [0, 0]], 3) == [0, 0]
    with pytest.raises(ValueError, match="singular"):
        quotient_order_oracle([0, 1], [0, 1], 5)  # T is zero on Z[T]/(T)


def test_oracle_degree_cap():
    with pytest.raises(ValueError):
        quotient_order_oracle([0] * 7 + [1], [0, 1], 5)


def test_growth_examples():
    rep = growth_sequence(ElementaryModule(5, (1,), ()), 0, 5)
    assert (rep.mu_fit, rep.lambda_fit, rep.c_fit) == (1, 0, -1) and rep.passed
    rep = growth_sequence(ElementaryModule(5, (), ((0, 1),)), 0, 5)
    assert (rep.mu_fit, rep.lambda_fit, rep.c_fit) == (0, 1, 0) and rep.passed
    rep = growth_sequence(ElementaryModule(5, (1,), ((-5, 1),)), 1, 5)
    assert (rep.mu_fit, rep.lambda_fit, rep.c_fit) == (1, 1, -6) and rep.passed  # c = -p-1
    assert rep.r0 is not None and rep.r0 <= 5


def test_growth_tower_kernel_matches_the_exact_resultant_route():
    # the p-adic tower kernel never builds omega_r/omega_e; the exact route
    # takes v_p of the integer resultant with it, level by level
    p = 7
    cubics = [(p**3, 0, p, 1), (p, p, 0, 1)]
    modules = [ElementaryModule(p, (), (q,)) for q in cubics] + [ElementaryModule(p, (1,), tuple(cubics))]
    for E in modules:
        for e in (0, 1, 2):
            rep = growth_sequence(E, e, 4)
            assert rep.exponents == {r: quotient_order_exponent(E, nu_rm_poly(p, r, e)) for r in range(e + 1, 5)}


def test_growth_of_a_cyclotomic_factor_is_infinite_only_below_it():
    # T^2 + 3T + 3 = Phi_3(1+T) divides omega_1/omega_0, not omega_r/omega_1
    E = ElementaryModule(3, (), ((3, 3, 1),))
    with pytest.raises(ValueError, match="quotient is infinite"):
        growth_sequence(E, 0, 4)
    rep = growth_sequence(E, 1, 4)
    assert rep.exponents == {r: quotient_order_exponent(E, nu_rm_poly(3, r, 1)) for r in (2, 3, 4)}
    with pytest.raises(ValueError):
        growth_sequence(E, -1, 4)


def test_growth_holds_its_fit_to_level_30():
    E = ElementaryModule(5, (1,), ((5, 0, 1), (10, 5, 0, 1)))
    rep = growth_sequence(E, 0, 30)
    assert rep.passed and (rep.mu_fit, rep.lambda_fit) == (1, 5) and rep.r0 <= 5
    assert all(v == 5**r + 5 * r + rep.c_fit for r, v in rep.exponents.items())
    # a factor close to Phi_5(1+T) has a large first resultant, read after
    # the p-adic precision doubles
    near = ElementaryModule(5, (), (tuple(c + 5**9 * (i == 0) for i, c in enumerate(phi_poly(5, 1))),))
    rep = growth_sequence(near, 0, 30)
    assert rep.exponents[1] == quotient_order_exponent(near, phi_poly(5, 1)) and rep.passed


def test_phi_acts_as_p_times_unit():
    # for P distinguished of degree d and p^(s-1) >= d, the Phi_s-quotient
    # of Lambda/(P) has order p^(deg P)
    for p, P, s in ((5, (0, 5, 1), 2), (3, (3, 6, 3, 1), 3)):
        E = ElementaryModule(p, (), (P,))
        assert quotient_order_exponent(E, phi_poly(p, s)) == len(P) - 1


def test_eigenspace_predictions():
    assert eigenspace_order_prediction(691, 12, 3) == 1
    assert all(eigenspace_order_prediction(5, n) == 0 for n in range(2, 3, 2))
    assert eigenspace_order_prediction(37, 32) >= 1
    with pytest.raises(ValueError):
        eigenspace_order_prediction(5, 3)


def test_eigenspace_consistent_with_irregular_indices():
    from iwasawa.exactq import irregular_indices

    for p in (5, 7, 37):
        irr = irregular_indices(p)
        for n in range(2, p - 2, 2):
            positive = eigenspace_order_prediction(p, n, 6) >= 1
            assert positive == (n in irr)


def test_parse_module_file():
    text = """
# comment
p 5
ppow 2
dist 0 1
dist -5 1
"""
    E = parse_module_file(text)
    assert E.prime == 5 and E.p_exponents == (2,) and E.dist_polys == ((0, 1), (-5, 1))
    with pytest.raises(ValueError):
        parse_module_file("ppow 1\n")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_det_valuation_matches_the_integer_determinant(p):
    """v_p(det) from the entries mod p^K equals the exact determinant's, whether
    the pivots are units (most random entries) or all divisible by p."""
    rng = random.Random(p)
    K = 6
    for trial in range(60):
        d = rng.randrange(1, 9)
        scale = [1, p, p * p][trial % 3]  # trial % 3 > 0: no unit entry at all
        mat = [[scale * rng.choice([0, 1, p, p * rng.randrange(1, 50), rng.randrange(-50, 50)]) for _ in range(d)]
               for _ in range(d)]
        det = _bareiss_det(mat)
        got = _det_valuation(mat, p, K)
        if det and int_vp(det, p) < K:
            assert got == int_vp(det, p)
        elif got is not None:
            assert det and got == int_vp(det, p)
