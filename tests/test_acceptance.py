"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
(including elapsed times against each budget).
"""

import random
import time
from fractions import Fraction

from iwasawa import coleman, exactq, measures
from iwasawa.characters import DirichletCharacter, quadratic_char, teichmuller_char, gen_bernoulli
from iwasawa.group_algebra import (
    PadicCharSpec,
    branch_limit_oracle,
    branch_limit_regularized,
    component_series,
    evaluate_char,
    h_char_value,
    h_element,
    interp_check,
    mu_chi_level,
    residue_unit_check,
)
from iwasawa.iwaseries import TruncatedSeries, nu_rm_poly
from iwasawa.lambda_modules import (
    ElementaryModule,
    growth_sequence,
    invariants,
    quotient_order_exponent,
    quotient_order_oracle,
)
from iwasawa.padic import PadicNumber, vp_diff


class Criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} [{self.label}]: {status} "
              f"({elapsed:.1f}s / budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded its time budget"
        return False


EXPECTED_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}


def test_criterion_01_bernoulli_table():
    with Criterion(1, "Bernoulli table B_0..B_16", 1):
        for n, val in EXPECTED_BERNOULLI.items():
            assert exactq.bernoulli(n) == val


def test_criterion_02_zeta_and_irregular_indices():
    with Criterion(2, "zeta(-11) and irregular indices", 30):
        assert exactq.zeta_neg(12) == Fraction(691, 32760)
        assert 12 in exactq.irregular_indices(691)
        for p in (3, 5, 7, 11, 13):
            assert exactq.irregular_indices(p) == set()
        assert exactq.irregular_indices(37) == {32}


def test_criterion_03_clausen_von_staudt():
    with Criterion(3, "Clausen-von Staudt scan", 10):
        for p in (3, 5, 7, 11, 13):
            for n in range(2, 201, 2):
                assert exactq.clausen_von_staudt_check(n, p).passed


def test_criterion_04_kummer_congruences():
    with Criterion(4, "100 random Kummer congruences", 60):
        rng = random.Random(20230404)
        checked = 0
        while checked < 100:
            p = rng.choice((3, 5, 7, 11, 13))
            feasible = [k for k in (1, 2) if p**k * (p - 1) < 400]
            k = rng.choice(feasible)
            step = p**k * (p - 1)
            n = rng.randrange(1, 400 - step)
            m = n + step * rng.randrange(1, (400 - n) // step + 1)
            cc = rng.choice([x for x in range(2, 12) if x % p])
            rep = exactq.kummer_congruence_check(m, n, p, k, cc)
            assert rep.passed, (m, n, p, k, cc)
            checked += 1


def test_criterion_05_twisted_bernoulli_691():
    with Criterion(5, "v_691(B_(1,omega^11)) = 1 at 691^3", 10):
        b = gen_bernoulli(1, teichmuller_char(691, 11), prec=3)
        assert b.valuation == 1


def test_criterion_06_interpolation_grid():
    with Criterion(6, "interpolation grid p=5,7", 120):
        for p in (5, 7):
            for chi in (DirichletCharacter.trivial(1, p), quadratic_char(3, p)):
                cache = {}
                for j in range(p - 1):
                    for n in range(1, 9):
                        certified_prev = -1
                        for r in (3, 4, 5):
                            rep = interp_check(chi, j, n, r, prec=11, _mu_cache=cache)
                            assert rep.agreement_valuation >= r - 1, (p, j, n, r)
                            certified = min(rep.agreement_valuation, r)
                            assert certified >= certified_prev, (p, j, n, r)
                            certified_prev = certified


def test_criterion_07_three_constructions():
    with Criterion(7, "three-construction consistency p=5", 120):
        p, prec, r = 5, 10, 6
        triv = DirichletCharacter.trivial(1, p)
        hmu = h_element(1, r, p) * mu_chi_level(triv, r, prec)

        def stickelberger_value(n):
            spec = PadicCharSpec((1 - n) % (p - 1), 1 - n)
            return evaluate_char(hmu, spec, p, prec) / h_char_value(1, p, spec, prec + 4)

        M, N = 48, 6
        for n in (2, 4, 6):
            ref = PadicNumber.from_rational(exactq.euler_stripped_zeta(n, p), p, prec)
            s_val = stickelberger_value(n)
            c_val = coleman.zeta_moment(n, 1, 3, p, M, N)
            assert vp_diff(s_val, ref) >= 3
            assert vp_diff(c_val, ref) >= 3
            assert vp_diff(s_val, c_val) >= 3
            if n % (p - 1):
                # strong branches: the elementary limit agrees outright
                o_val = branch_limit_oracle(p, n, 2, 2, prec)
                assert vp_diff(o_val, ref) >= 3
                assert vp_diff(o_val, s_val) >= 3 and vp_diff(o_val, c_val) >= 3
            else:
                # on the (p-1) | n branch the congruence lives on the
                # c-regularized values; the plain quotient still agrees to the
                # valuation the regularizer (1 - c^n) allows
                for creg in (2, 3):
                    f_m = branch_limit_regularized(p, n, 2, creg)
                    tgt = -(1 - Fraction(creg) ** n) * exactq.euler_stripped_zeta(n, p)
                    assert exactq.vp(f_m - tgt, p) >= 3
                o_val = branch_limit_oracle(p, n, 2, 2, prec)
                assert vp_diff(o_val, ref) >= 1


def test_criterion_08_weierstrass_suite():
    with Criterion(8, "Weierstrass suite (M,N)=(40,12)", 30):
        M, N = 40, 12
        rng = random.Random(20230808)
        for p in (3, 5, 7):
            for _ in range(200):
                mu = rng.randrange(3)
                coeffs = [rng.randrange(p ** (N - mu)) for _ in range(M)]
                pos = rng.randrange(6)
                coeffs[pos] = coeffs[pos] * p + rng.randrange(1, p)
                f = TruncatedSeries(p, [x * p**mu for x in coeffs], N)
                fac = f.weierstrass_prep()
                assert fac.mu == mu
                assert fac.matches_source()
            # division residual identically zero on the quotient window
            for _ in range(100):
                g = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
                fcoeffs = [rng.randrange(p**N) for _ in range(M)]
                pos = rng.randrange(6)
                fcoeffs[pos] = fcoeffs[pos] * p + rng.randrange(1, p)
                f = TruncatedSeries(p, fcoeffs, N)
                q, rem = g.divide(f)
                mod = p**N
                for j in range(q.trunc):
                    s = g.coeffs[j] - (rem[j] if j < len(rem) else 0)
                    for i in range(j + 1):
                        s -= f.coeffs[i] * q.coeffs[j - i]
                    assert s % mod == 0
            # mu/lambda additivity on products
            done = 0
            while done < 50:
                f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
                g = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
                try:
                    mf, lf = f.mu_lambda()
                    mg, lg = g.mu_lambda()
                except Exception:
                    continue
                if lf + lg >= M or mf + mg >= N:
                    continue
                assert (f * g).mu_lambda() == (mf + mg, lf + lg)
                done += 1


def test_criterion_09_growth_grid():
    with Criterion(9, "growth formula grid", 60):
        for p in (3, 5):
            ppow_options = [(), (1,), (2,), (1, 1)]
            dist_options = [
                (),
                ((0, 1),),
                ((-p, 1),),
                ((p * p, p, 1),),
                ((0, 1), (-p, 1)),
                ((0, 1), (p * p, p, 1)),
            ]
            for ppows in ppow_options:
                for dists in dist_options:
                    E = ElementaryModule(p, ppows, dists)
                    mu_e, lam_e, _ = invariants(E)
                    if mu_e == 0 and lam_e == 0:
                        continue
                    rep = growth_sequence(E, 0, 5)
                    assert rep.passed, (p, ppows, dists, rep.as_dict())
                    assert (rep.mu_fit, rep.lambda_fit) == (mu_e, lam_e)
                    assert rep.r0 is not None and rep.r0 <= 5
                    # every level of the tower cross-checked against the exact
                    # resultant route and the Smith-form oracle
                    for r in range(1, 6):
                        g = nu_rm_poly(p, r, 0)
                        main = quotient_order_exponent(E, g)
                        oracle = sum(mu_i * (len(g) - 1) for mu_i in ppows)
                        for P in dists:
                            oracle += quotient_order_oracle(list(P), g, p)
                        assert rep.exponents[r] == main == oracle, (p, ppows, dists, r)


def test_criterion_10_measures():
    with Criterion(10, "measures suite", 10):
        for p in (3, 5):
            M, N = 24, 5
            for a in (1, 2, 3):
                if a % p == 0:
                    continue
                d = measures.dirac(a, p, M, N)
                assert measures.restrict_to_units(d) == d
            for a in (0, p, 2 * p):
                d = measures.dirac(a, p, M, N)
                res = measures.restrict_to_units(d)
                assert all(x == 0 for x in res.coeffs)
                assert measures.restrict_to_units(res) == res
        p, M, N = 5, 16, 8
        for a in (0, 1, 2, 5):
            d = measures.dirac(a, p, M, N)
            for n in range(9):
                got = measures.moment(d, n)
                if a**n == 0:
                    assert got.is_zero or got.valuation >= N
                else:
                    assert got.agrees(PadicNumber.from_int(a**n, p, N), N)
                pairing = measures.mahler_pairing(d, measures.mahler_of_monomial(n, M))
                assert vp_diff(pairing, got) >= N


def test_criterion_11_residue_units():
    with Criterion(11, "p B_(1,omega^-1) = -1 mod p for p <= 97", 10):
        primes = [q for q in range(3, 98) if all(q % d for d in range(2, q))]
        for q in primes:
            rep = residue_unit_check(q)
            assert rep.passed, q


def test_criterion_12_nu_involution():
    with Criterion(12, "nu involution", 5):
        p, M, N = 5, 28, 6
        rng = random.Random(20231212)
        for _ in range(100):
            f = TruncatedSeries(p, [rng.randrange(p**N) for _ in range(M)], N)
            g = f.nu_involution().nu_involution()
            for j in range(M):
                window = min(N, M - j - 2)
                if window <= 0:
                    break
                assert (g.coeffs[j] - f.coeffs[j]) % p**window == 0
        one = TruncatedSeries.one(p, M, N)
        f = one - TruncatedSeries.from_integer_poly([1, 1], p, M, N).invert_unit().scalar_mul(1 + p)
        img = f.nu_involution()
        for j in range(M):
            window = min(N, M - j - 1)
            if window <= 0:
                break
            expect = -1 if j == 1 else 0
            assert (img.coeffs[j] - expect) % p**window == 0


def test_criterion_13_component_mu_vanishes():
    with Criterion(13, "observed mu = 0 on odd branches of h mu_1", 30):
        for p in (5, 7):
            triv = DirichletCharacter.trivial(1, p)
            for r in (2, 3, 4):
                hmu = h_element(1, r, p) * mu_chi_level(triv, r, 10)
                for i in range(3, p - 1, 2):
                    comp = component_series(hmu, i, p, prec=6)
                    mu, _ = comp.mu_lambda()
                    assert mu == 0, (p, r, i)
