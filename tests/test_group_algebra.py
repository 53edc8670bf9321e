import random
import time
from fractions import Fraction

import pytest

from iwasawa import exactq
from iwasawa.characters import DirichletCharacter, quadratic_char, teichmuller_char, gen_bernoulli
from iwasawa.group_algebra import (
    GroupRingElement,
    PadicCharSpec,
    branch_limit_index,
    branch_limit_oracle,
    branch_limit_regularized,
    component_series,
    evaluate_char,
    h_char_value,
    h_element,
    h_i_element,
    idempotent,
    interp_check,
    mu_chi_level,
    project,
    residue_unit_check,
    stickelberger,
)
from iwasawa.padic import PadicNumber, int_vp, vp_diff
from oracles import mu1_at_omega, reassemble_components


def close(x, y, absprec):
    d = x - y
    return d.is_zero or d.valuation >= absprec


def gr_close(x, y, p, absprec):
    for k in set(x.coeffs) | set(y.coeffs):
        cx = x.coeffs.get(k, Fraction(0))
        cy = y.coeffs.get(k, Fraction(0))
        d = cx - cy
        if isinstance(d, PadicNumber):
            if not (d.is_zero or d.valuation >= absprec):
                return False
        elif d != 0 and exactq.vp(d, p) < absprec:
            return False
    return True


def test_stickelberger_small_levels():
    s3 = stickelberger(3)
    assert s3.coeffs == {1: Fraction(-1, 3), 2: Fraction(-2, 3)}
    s4 = stickelberger(4)
    assert s4.coeffs == {1: Fraction(-1, 4), 3: Fraction(-3, 4)}


def test_projection_identity_and_mass():
    s = stickelberger(36)
    assert project(s, 36) == s
    assert project(s, 12).mass() == s.mass()


def test_stickelberger_projection_defect_is_half_norm():
    # the naive pushforward misses exact compatibility by ((p-1)/2) * Norm;
    # the defect dies under every nontrivial character, which is all the
    # construction uses downstream
    for (N, p, r) in ((1, 3, 1), (1, 3, 2), (4, 3, 1), (4, 3, 2)):
        proj = project(stickelberger(N * p ** (r + 1)), N * p**r)
        tgt = stickelberger(N * p**r)
        diff = proj - tgt
        assert set(diff.coeffs) == set(tgt.coeffs)
        assert all(c == Fraction(-(p - 1), 2) for c in diff.coeffs.values())


def test_projected_stickelberger_agrees_on_nontrivial_characters():
    p, r = 3, 1
    proj = project(stickelberger(p ** (r + 1)), p**r)
    tgt = stickelberger(p**r)
    for i in range(1, p - 1):
        spec = PadicCharSpec(i, 0)
        assert vp_diff(evaluate_char(proj, spec, p, 8), evaluate_char(tgt, spec, p, 8)) >= 8


def test_mu_chi_trivial_level_one_is_stickelberger():
    assert mu_chi_level(DirichletCharacter.trivial(1, 5), 1) == stickelberger(5)


def test_mu_chi_quadratic_is_integral_and_compatible():
    chi = quadratic_char(3, 5)
    for r in (1, 2, 3):
        mu = mu_chi_level(chi, r)
        for c in mu.coeffs.values():
            assert exactq.vp(c, 5) >= 0
    assert project(mu_chi_level(chi, 3), 25) == mu_chi_level(chi, 2)


def test_mu_chi_with_irrational_values_is_integral_and_compatible():
    # a sextic character mod 7 over p = 13: values are nontrivial roots of
    # unity, so the coefficients go through the p-adic path
    from iwasawa.characters import from_generator_data

    chi = from_generator_data(7, {3: 2}, 13)
    assert not all(e in (0, 6) for e in chi.exponents.values())
    mus = {r: mu_chi_level(chi, r, prec=8) for r in (1, 2)}
    for mu in mus.values():
        for c in mu.coeffs.values():
            assert isinstance(c, PadicNumber) and c.valuation >= 0
    proj = project(mus[2], 13)
    for k in set(proj.coeffs) | set(mus[1].coeffs):
        d = proj.coeffs.get(k, PadicNumber.zero(13)) - mus[1].coeffs.get(k, PadicNumber.zero(13))
        assert d.is_zero or d.valuation >= 6


def test_mu_chi_rejects_p_in_conductor():
    with pytest.raises(ValueError):
        mu_chi_level(teichmuller_char(5, 1), 2)


def test_h_evaluations_lemma_style():
    p, r = 5, 3
    # phi(h_N) independent of the tame exponent j
    vals = [evaluate_char(h_element(1, r, p), PadicCharSpec(j, 0), p, 6) for j in range(p - 1)]
    assert all(v.agrees(vals[0], 3) for v in vals)
    assert vals[0].agrees(PadicNumber.from_int(-p, p, 6), 3)
    # h^(i) at omega^j: 1 for j != i, 1-(1+Np) at j = i (wild part trivial)
    for i in (1, 2):
        for j in range(p - 1):
            v = evaluate_char(h_i_element(1, i, r, p, 8), PadicCharSpec(j, 0), p, 6)
            want = PadicNumber.from_int(-p if j == i else 1, p, 6)
            assert v.agrees(want, 3)


def test_h_char_value_closed_form():
    p = 5
    spec = PadicCharSpec(2, -1)  # s = -1, so 1 - (1+Np)^2
    v = h_char_value(1, p, spec, 10)
    assert v.agrees(PadicNumber.from_int(1 - 6**2, p, 10), 10)
    # vanishes exactly at the excluded character kappa = omega kappa_0
    assert h_char_value(1, p, PadicCharSpec(1, 1), 10).is_zero


def test_idempotent_relations():
    for p, r in ((5, 2), (7, 2)):
        prec = 8
        es = [idempotent(i, r, p, prec) for i in range(1, p)]
        one = GroupRingElement(p**r, {1: Fraction(1)})
        total = es[0]
        for e in es[1:]:
            total = total + e
        assert gr_close(total, one, p, prec - 1)
        for a, ea in enumerate(es):
            assert gr_close(ea * ea, ea, p, prec - 1)
            for b in range(a + 1, len(es)):
                assert gr_close(ea * es[b], GroupRingElement(p**r, {}), p, prec - 1)


def test_evaluate_char_basics():
    p, r = 5, 3
    x = GroupRingElement(p**r, {42: Fraction(1)})
    # kappa sends sigma_a to a
    assert evaluate_char(x, PadicCharSpec(1, 1), p, 3).agrees(PadicNumber.from_int(42, p, 3), 3)
    # trivial spec sums the coefficients
    y = GroupRingElement(p**r, {1: Fraction(2), 7: Fraction(3, 2)})
    assert evaluate_char(y, PadicCharSpec(0, 0), p, 6).agrees(
        PadicNumber.from_rational(Fraction(7, 2), p, 6), 6
    )


def test_evaluate_char_linearity():
    rng = random.Random(21)
    p, r = 5, 2
    pr = p**r
    spec = PadicCharSpec(2, -3)
    for _ in range(10):
        keys = [a for a in range(1, pr) if a % p and rng.random() < 0.4]
        x = GroupRingElement(pr, {a: Fraction(rng.randrange(-9, 9)) for a in keys})
        y = GroupRingElement(pr, {a: Fraction(rng.randrange(-9, 9), 2) for a in keys})
        lhs = evaluate_char(x + y, spec, p, 8)
        rhs = evaluate_char(x, spec, p, 8) + evaluate_char(y, spec, p, 8)
        assert vp_diff(lhs, rhs) >= 7


def test_evaluate_char_padic_wild_exponent():
    p, r = 5, 3
    x = GroupRingElement(p**r, {6: Fraction(1)})
    s = PadicNumber.from_int(3, p, 6)
    got = evaluate_char(x, PadicCharSpec(0, s), p, 6)
    assert got.agrees(PadicNumber.from_int(pow(6, 3), p, 6), 3)
    # p-adic and integer exponents agree on a multi-key element
    rng = random.Random(33)
    y = GroupRingElement(p**r, {a: Fraction(rng.randrange(1, 9)) for a in (2, 6, 11, 23)})
    for k in (1, 2, 7):
        via_int = evaluate_char(y, PadicCharSpec(2, k), p, 8)
        via_padic = evaluate_char(y, PadicCharSpec(2, PadicNumber.from_int(k, p, 8)), p, 8)
        assert vp_diff(via_int, via_padic) >= 3


def test_h_char_value_padic_exponent():
    p = 5
    s_int = h_char_value(1, p, PadicCharSpec(0, -3), 8)
    s_pad = h_char_value(1, p, PadicCharSpec(0, PadicNumber.from_int(-3, p, 8)), 8)
    assert vp_diff(s_int, s_pad) >= 7


def test_h_char_value_integer_s_is_the_exact_rational_value():
    # the modular power equals the exact rational 1 - (1+Np)^(1-s) read to
    # prec digits, digit for digit, and a huge s costs one modular power;
    # N = p checks the v_p(N) in the working precision
    for p in (3, 5, 7):
        for N in (1, 2, p):
            for prec in (1, 6):
                for s in range(-60, 61):
                    got = h_char_value(N, p, PadicCharSpec(0, s), prec)
                    want = PadicNumber.from_rational(1 - Fraction(1 + N * p) ** (1 - s), p, prec)
                    assert (got.valuation, got.mantissa, got.precision) == (
                        want.valuation, want.mantissa, want.precision), (p, N, prec, s)
    t0 = time.perf_counter()
    v = h_char_value(1, 5, PadicCharSpec(0, 48 * 10**12), 10)
    assert time.perf_counter() - t0 < 1
    assert v.valuation == 1 + int_vp(1 - 48 * 10**12, 5) and v.precision == 10


def test_interp_unit_L_part_at_the_example_point():
    # p=5, chi trivial, j=0, n=2: psi^(-1) kappa^(1-2) = omega^(-1) kappa_0^(-1),
    # and the pure L-part (1-5) zeta(-1) = 1/3 is a 5-adic unit
    val = exactq.euler_stripped_zeta(2, 5)
    assert val == Fraction(1, 3)
    rep = interp_check(DirichletCharacter.trivial(1, 5), 0, 2, 4)
    assert rep.passed
    assert rep.lhs.valuation + 1 >= 1  # lhs = h * unit: v(h(kappa^-1)) = 1
    assert (rep.rhs / h_char_value(1, 5, PadicCharSpec(3, -1), 10)).agrees(
        PadicNumber.from_rational(Fraction(1, 3), 5, 6), 5
    )


def test_interp_agreement_thresholds_and_monotonicity():
    cache = {}
    chi = DirichletCharacter.trivial(1, 5)
    for j in (0, 3):
        prev = -1
        for r in (3, 4, 5):
            rep = interp_check(chi, j, 2, r, prec=11, _mu_cache=cache)
            assert rep.agreement_valuation >= r - 1
            certified = min(rep.agreement_valuation, r)
            assert certified >= prev
            prev = certified


def test_interp_quadratic_character():
    rep = interp_check(quadratic_char(3, 5), 1, 3, 3)
    assert rep.passed


def test_interp_rejects_excluded_character():
    with pytest.raises(ValueError):
        interp_check(DirichletCharacter.trivial(1, 5), 0, 0, 3)


def test_mu1_at_omega_two_paths():
    for p in (5, 7, 11):
        for i in range(1, p - 1):
            a = mu1_at_omega(i, p, 8)
            b = -gen_bernoulli(1, teichmuller_char(p, -i), 8)
            assert vp_diff(a, b) >= 7
        v0 = mu1_at_omega(0, p, 8)
        assert v0.agrees(PadicNumber.from_rational(Fraction(-(p - 1), 2), p, 8), 8)


def test_mu1_at_omega_eleven_mod_691():
    # mu_1(omega^(-11)) = -B_(1, omega^11), whose 691-valuation is 1
    assert mu1_at_omega(-11, 691, 3).valuation == 1


def test_residue_unit_small_primes():
    for p in (5, 7):
        rep = residue_unit_check(p)
        assert rep.passed and rep.residue == p - 1


def test_branch_limit_oracle_strong_branch():
    # plain values agree mod p^(k+1) on branches with (p-1) nmid n
    p = 5
    for n in (2, 6):
        for k in (1, 2):
            val = branch_limit_oracle(p, n, k, 2, 12)
            ref = PadicNumber.from_rational(exactq.euler_stripped_zeta(n, p), p, 12)
            assert vp_diff(val, ref) >= k + 1


def test_branch_limit_oracle_wild_branch_regularized():
    # on the (p-1) | n branch the c-regularized values carry the guarantee
    p, c = 5, 2
    for n in (4, 8):
        for k in (1, 2):
            f_m = branch_limit_regularized(p, n, k, c)
            tgt = -(1 - Fraction(c) ** n) * exactq.euler_stripped_zeta(n, p)
            assert exactq.vp(f_m - tgt, p) >= k + 1


def test_branch_limit_oracle_c_independence():
    p = 5
    for n in (2, 4):
        vals = [branch_limit_oracle(p, n, 1, c, 10) for c in (2, 3)]
        assert vp_diff(vals[0], vals[1]) >= 2


def test_branch_limit_oracle_guards():
    with pytest.raises(ValueError):
        branch_limit_oracle(5, 2, 1, 10, 8)  # c divisible by p
    with pytest.raises(ValueError):
        branch_limit_index(5, 1480, 2)  # cache budget


def test_principal_unit_dlog_brute_force():
    from iwasawa.group_algebra import principal_unit_dlog

    for p, r in ((5, 3), (7, 2), (3, 4)):
        pr = p**r
        powers = {}
        x = 1
        for j in range(p ** (r - 1)):
            powers[x] = j
            x = x * (1 + p) % pr
        for u, j in powers.items():
            assert principal_unit_dlog(u, p, r) == j


def test_evaluate_char_against_naive_evaluation():
    # independent slow path: per-key Teichmuller decomposition and unit_power
    from iwasawa.padic import decompose_unit, teichmuller as teich, unit_power as upow

    rng = random.Random(34)
    p, r, prec = 5, 3, 8
    pr = p**r
    for _ in range(5):
        keys = [a for a in range(1, pr) if a % p and rng.random() < 0.15]
        x = GroupRingElement(pr, {a: Fraction(rng.randrange(-9, 9), rng.choice((1, 2, 5))) for a in keys})
        i, sexp = rng.randrange(p - 1), rng.randrange(-5, 6)
        fast = evaluate_char(x, PadicCharSpec(i, sexp), p, prec)
        slow = PadicNumber.zero(p)
        for a, c in x.coeffs.items():
            za = PadicNumber.from_int(a, p, prec + 2)
            tor, princ = decompose_unit(za)
            val = tor**i * princ**sexp
            slow = slow + val * c
        assert vp_diff(fast, slow) >= prec - 1


def test_component_series_of_group_generator():
    p, r = 5, 3
    g = GroupRingElement(p**r, {(1 + p) % p**r: Fraction(1)})
    for i in range(1, p):
        comp = component_series(g, i, p, 6)
        assert comp.coeffs[0] == 1 and comp.coeffs[1] == 1
        assert all(c == 0 for c in comp.coeffs[2:])


def test_component_series_kills_other_branches():
    p, r, prec = 5, 2, 6
    x = GroupRingElement(p**r, {7: Fraction(2), 11: Fraction(1, 3)})
    for j in range(1, p):
        ex = idempotent(j, r, p, prec + 2) * x
        for i in range(1, p):
            comp = component_series(ex, i, p, prec)
            if i != j:
                assert all(c % 5**(prec - 1) == 0 for c in comp.coeffs)


def test_component_series_roundtrip():
    p, r, prec = 5, 2, 8
    rng = random.Random(22)
    keys = [a for a in range(1, p**r) if a % p]
    x = GroupRingElement(p**r, {a: Fraction(rng.randrange(-9, 9)) for a in keys})
    comps = {i: component_series(x, i, p, prec) for i in range(1, p)}
    back = reassemble_components(comps, p, r, prec)
    assert gr_close(back, x, p, prec - 2)
