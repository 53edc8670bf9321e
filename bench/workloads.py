"""The three workloads: inputs drawn from a seed, ops, and reference checks.

A workload is an endless stream of rounds.  A round has a fixed composition
(which op kinds at which input sizes) and the seed draws the free parameters
and the order, so every run spends its time on the same mix.  Categorical
draws whose cost differs (the (j, n) grid, module shapes, primes) come from a
shuffled deck, so a run covers them evenly instead of by luck.

An op's `run` makes only library calls and is timed.  Its `check` compares
the output with a reference computed here, independently of the library
(exact Bernoulli numbers, schoolbook products, known irregular pairs), or with
the library's own oracle where there is one (Smith form, the
interpolation right-hand side, naive character evaluation).  Checks are not
timed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from typing import Callable

# Library functions are looked up through their modules at call time, so the
# traced run sees the wrapped entry points.
from iwasawa import characters, coleman, exactq, iwaseries, lambda_modules
from iwasawa import group_algebra as ga
from iwasawa.characters import DirichletCharacter
from iwasawa.group_algebra import PadicCharSpec
from iwasawa.iwaseries import IndeterminateWithinTruncation, TruncatedSeries
from iwasawa.lambda_modules import ElementaryModule
from iwasawa.padic import PadicNumber


@dataclass
class Op:
    kind: str
    size: str  # input-size key: (p, r), (p, M, N) or module shape
    run: Callable[[], object]
    check: Callable[[object], bool]
    level: tuple | None = None  # (p, chi, r, prec) of the level element used


def deck(rng, items):
    """Endless draws that exhaust a shuffled copy of items before reshuffling."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


# -- independent references ----------------------------------------------------

_BERNOULLI: dict[int, Fraction] = {}


def bernoulli_ref(n: int) -> Fraction:
    """B_n with B_1 = +1/2 by the Akiyama-Tanigawa algorithm."""
    if n not in _BERNOULLI:
        a = [Fraction(1, m + 1) for m in range(n + 1)]
        for m in range(n + 1):
            for j in range(m, 0, -1):
                a[j - 1] = j * (a[j - 1] - a[j])
            if m not in _BERNOULLI:
                _BERNOULLI[m] = a[0]
    return _BERNOULLI[n]


def euler_stripped_zeta_ref(n: int, p: int) -> Fraction:
    return (1 - Fraction(p) ** (n - 1)) * (-bernoulli_ref(n) / n)


def vp(x, p: int) -> float:
    x = Fraction(x)
    if x == 0:
        return inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _digits(x: PadicNumber):
    """(value as a rational, absolute precision) of a p-adic number."""
    if x.is_zero:
        return Fraction(0), inf
    return Fraction(x.prime) ** x.valuation * x.mantissa, x.valuation + x.precision


def agreement(x: PadicNumber, y) -> float:
    """Digits to which x and y are known to agree: v_p(x - y), capped by the
    absolute precision of each, so an output that carries fewer digits than a
    threshold fails it.  Rationals and exact zeros are exact."""
    a, prec_a = _digits(x)
    b, prec_b = _digits(y) if isinstance(y, PadicNumber) else (Fraction(y), inf)
    return min(vp(a - b, x.prime), prec_a, prec_b)


def series_product(a, b, mod: int, length: int) -> list[int]:
    out = [0] * length
    for i, x in enumerate(a[:length]):
        for j, y in enumerate(b[: length - i]):
            out[i + j] += x * y
    return [c % mod for c in out]


def mu_lambda_ref(coeffs, p: int):
    vals = [(vp(c, p), i) for i, c in enumerate(coeffs) if c]
    return min(vals) if vals else None


IRREGULAR_PAIRS = {37: {32}, 59: {44}, 67: {58}, 101: {68}, 103: {24}, 131: {22},
                   149: {130}, 157: {62, 110}, 691: {12, 200}}
PRIMES_TO_200 = [q for q in range(3, 200) if all(q % d for d in range(2, int(q**0.5) + 1))]


# -- interp_grid -----------------------------------------------------------------

INTERP_PREC = 11
COMPONENT_PREC = 6
COMPONENT_LEVEL_PREC = 10
COMPONENT_LEVELS = [(5, 4), (5, 5), (7, 4)]


def _interp_groups():
    groups = []
    for p, extra, r_extra in ((5, "quartic13", (4, 5)), (7, "sextic13", (4,))):
        chars = {"trivial": DirichletCharacter.trivial(1, p), "quadratic3": characters.quadratic_char(3, p),
                 extra: characters.from_generator_data(13, {2: 1}, p)}
        for name, chi in chars.items():
            for r in (r_extra if name == extra else (4, 5)):
                groups.append((p, name, chi, r))
    return groups


def interp_grid(rng):
    """One interp_check per (chi, r) group and one component op per level, per round."""
    groups = []
    for p, name, chi, r in _interp_groups():
        grid = [(j, n) for j in range(p - 1) for n in range(1, 9)]
        groups.append((p, name, chi, r, deck(rng, grid), {}))
    levels, naive = {}, {}
    component_draws = {
        (p, r): deck(rng, [(i, s) for i in range(1, p - 1, 2) for s in (1, 2)])
        for p, r in COMPONENT_LEVELS
    }
    while True:
        ops = []
        for p, name, chi, r, draws, cache in groups:
            j, n = next(draws)
            ops.append(_interp_op(p, name, chi, r, j, n, cache))
        for (p, r), draws in component_draws.items():
            i, s = next(draws)
            ops.append(_component_op(p, r, i, s, levels, naive))
        rng.shuffle(ops)
        yield ops


def _interp_op(p, name, chi, r, j, n, cache):
    def run():
        return ga.interp_check(chi, j, n, r, prec=INTERP_PREC, _mu_cache=cache)

    def check(rep):
        # the right-hand side is Euler-corrected L(chi omega^j, 1-n) times h
        return rep.r == r and rep.n == n and agreement(rep.lhs, rep.rhs) >= r - 1

    return Op("interp", f"interp p={p} r={r}", run, check, (p, name, r, INTERP_PREC))


def _component_op(p, r, i, s, levels, naive):
    def run():
        hmu = levels.get((p, r))
        if hmu is None:
            triv = DirichletCharacter.trivial(1, p)
            hmu = levels[(p, r)] = ga.h_element(1, r, p) * ga.mu_chi_level(triv, r, COMPONENT_LEVEL_PREC)
        return ga.component_series(hmu, i, p, prec=COMPONENT_PREC)

    def check(comp):
        # mu = 0 on odd branches (Ferrero-Washington), and the series at
        # T = gamma^s - 1 equals the naive evaluation at omega^i kappa^s
        # modulo p^r, the window where a level-r element is canonical
        low = mu_lambda_ref(comp.coeffs, p)
        if low is None or low[0] != 0:
            return False
        key = (p, r, i, s)
        if key not in naive:
            naive[key] = ga.evaluate_char(levels[(p, r)], PadicCharSpec(i, s), p, COMPONENT_PREC)
        mod = p**COMPONENT_PREC
        t = (1 + p) ** s - 1
        acc = 0
        for c in reversed(comp.coeffs):
            acc = (acc * t + c) % mod
        return agreement(naive[key], acc) >= min(r, COMPONENT_PREC)

    return Op("component", f"component p={p} r={r}", run, check,
              (p, "trivial", r, COMPONENT_LEVEL_PREC))


# -- three_way -------------------------------------------------------------------

# (p, r) with its number of ops per round.  The multiplicities keep the op
# count high enough for a 90th percentile and put both percentiles inside a
# cluster of similar ops instead of at the edge between two clusters: the
# median among the (5, 4) ops, the 90th percentile among (13, 3) and (5, 6).
THREE_WAY_LEVELS = [((5, 4), 12), ((5, 5), 3), ((7, 4), 1), ((11, 3), 1), ((13, 3), 1),
                    ((5, 6), 1), ((7, 5), 1)]
COLEMAN_PREC = 6
COLEMAN_MIN = 3
KUMMER_C = 2


def three_way(rng):
    draws = {}
    for (p, r), _ in THREE_WAY_LEVELS:
        # k keeps the Bernoulli index n + p^k (p-1) at or below 520; k = 1
        # is excluded on the (p-1) | n branch
        ks = (2, 3) if p == 5 else (2,) if p == 7 else (1,)
        evens = [n for n in range(2, 13, 2) if ks != (1,) or n % (p - 1)]
        draws[(p, r)] = (
            deck(rng, ks),
            deck(rng, [(m, n) for m in evens for n in evens if m < n]),
            deck(rng, [(a, b) for a in range(1, 13) for b in range(a + 1, 13)
                       if gcd(a, b) == 1 and a % p and b % p]),
        )
    # A fixed order within the round: the Bernoulli cache grows to the same
    # limit in every run (about 1000, by doubling past 512), instead of to
    # anything from 592 to 1024 depending on which request came first.
    while True:
        ops = []
        for (p, r), mult in THREE_WAY_LEVELS:
            ks, ns, pairs = draws[(p, r)]
            for _ in range(mult):
                ops.append(_three_way_op(p, r, next(ks), *next(pairs), list(next(ns))))
        yield ops


def _three_way_op(p, r, k, a, b, ns):
    prec = r + 4
    M = max(ns) + 8 * (p - 1) + 2

    def run():
        triv = DirichletCharacter.trivial(1, p)
        hmu = ga.h_element(1, r, p) * ga.mu_chi_level(triv, r, prec)
        out = []
        for n in ns:
            spec = PadicCharSpec((1 - n) % (p - 1), 1 - n)
            stick = ga.evaluate_char(hmu, spec, p, prec) / ga.h_char_value(1, p, spec, prec)
            col = coleman.zeta_moment(n, a, b, p, M, COLEMAN_PREC)
            kum = ga.branch_limit_oracle(p, n, k, KUMMER_C)
            reg = ga.branch_limit_regularized(p, n, k, KUMMER_C) if n % (p - 1) == 0 else None
            out.append((stick, col, kum, reg))
        return out

    def check(out):
        for n, (stick, col, kum, reg) in zip(ns, out):
            exact = euler_stripped_zeta_ref(n, p)
            if n % (p - 1):
                kum_min = k + 1
            else:
                # the congruence holds for the c-regularized values; the
                # plain quotient keeps what v_p(1 - c^n) leaves
                kum_min = 1
                if vp(reg + (1 - Fraction(KUMMER_C) ** n) * exact, p) < k + 1:
                    return False
            # the level-r value is canonical mod p^r and dividing by
            # h(kappa^(1-n)), of valuation 1 + v_p(n), costs that many digits
            want = {"s": r - 1 - vp(n, p), "c": COLEMAN_MIN, "k": kum_min}
            got = {"s": stick, "c": col, "k": kum}
            if any(agreement(got[x], exact) < want[x] for x in want):
                return False
            for x, y in (("s", "c"), ("s", "k"), ("c", "k")):
                if agreement(got[x], got[y]) < min(want[x], want[y]):
                    return False
        return True

    return Op("three_way", f"three_way p={p} r={r}", run, check, (p, "trivial", r, prec))


# -- lambda_tower ----------------------------------------------------------------

SERIES_SIZES = [(3, 40, 12), (5, 40, 12), (7, 40, 12), (5, 160, 20), (7, 160, 20)]
TWIST_SIZES = [(5, 28, 6), (5, 100, 16)]
GROWTH_PRIMES = (3, 5)


def _module_shapes(p):
    """Criterion 09's modules: p-power and distinguished factors, not both empty."""
    ppows = [(), (1,), (2,), (1, 1)]
    dists = [(), ((0, 1),), ((-p, 1),), ((p * p, p, 1),), ((0, 1), (-p, 1)),
             ((0, 1), (p * p, p, 1))]
    return [(a, d) for a in ppows for d in dists if a or d]


def lambda_tower(rng):
    shapes = {p: deck(rng, _module_shapes(p)) for p in GROWTH_PRIMES}
    primes = deck(rng, PRIMES_TO_200)
    while True:
        ops = []
        for p, M, N in SERIES_SIZES:
            ops += [_prep_op(rng, p, M, N), _divide_op(rng, p, M, N), _product_op(rng, p, M, N)]
        ops += [_twist_op(rng, p, M, N) for p, M, N in TWIST_SIZES]
        ops += [_growth_op(p, *next(shapes[p])) for p in GROWTH_PRIMES]
        ops += [_irregular_op(next(primes)), _irregular_op(691)]
        rng.shuffle(ops)
        yield ops


def _random_coeffs(rng, p, M, N):
    return [rng.randrange(p**N) for _ in range(M)]


def _with_unit_early(rng, coeffs, p):
    """Make one of the first six coefficients a unit, as criterion 08 does."""
    pos = rng.randrange(6)
    coeffs[pos] = coeffs[pos] * p + rng.randrange(1, p)
    return coeffs


def _prep_op(rng, p, M, N):
    mu = rng.randrange(3)
    coeffs = _with_unit_early(rng, _random_coeffs(rng, p, M, N - mu), p)
    f = TruncatedSeries(p, [x * p**mu for x in coeffs], N)

    def run():
        fac = f.weierstrass_prep()
        return fac, fac.matches_source()

    def check(out):
        fac, matches = out
        dist = fac.distinguished
        mod = p**N
        if not matches or fac.mu != mu or dist[-1] != 1 or any(c % p for c in dist[:-1]):
            return False
        if len(dist) - 1 != mu_lambda_ref([c // p**mu for c in f.coeffs], p)[1]:
            return False
        W = fac.unit.trunc
        rebuilt = series_product(fac.unit.coeffs, dist, mod, W)
        return all((p**mu * x - y) % mod == 0 for x, y in zip(rebuilt, f.coeffs))

    return Op("weierstrass", f"weierstrass p={p} M={M} N={N}", run, check)


def _divide_op(rng, p, M, N):
    g = TruncatedSeries(p, _random_coeffs(rng, p, M, N), N)
    f = TruncatedSeries(p, _with_unit_early(rng, _random_coeffs(rng, p, M, N), p), N)

    def run():
        return g.divide(f)

    def check(out):
        q, rem = out
        fq = series_product(f.coeffs, q.coeffs, p**N, q.trunc)
        return all(
            (g.coeffs[j] - (rem[j] if j < len(rem) else 0) - fq[j]) % p**N == 0
            for j in range(q.trunc)
        )

    return Op("divide", f"divide p={p} M={M} N={N}", run, check)


def _product_op(rng, p, M, N):
    while True:
        f = TruncatedSeries(p, _random_coeffs(rng, p, M, N), N)
        g = TruncatedSeries(p, _random_coeffs(rng, p, M, N), N)
        try:
            (mf, lf), (mg, lg) = f.mu_lambda(), g.mu_lambda()
        except IndeterminateWithinTruncation:
            continue
        if lf + lg < M and mf + mg < N:
            break

    def run():
        h = f * g
        return h, h.mu_lambda(), f.mu_lambda(), g.mu_lambda()

    def check(out):
        h, mlh, mlf, mlg = out
        ref_f, ref_g = mu_lambda_ref(f.coeffs, p), mu_lambda_ref(g.coeffs, p)
        return (
            list(h.coeffs) == series_product(f.coeffs, g.coeffs, p**N, M)
            and (mlf, mlg) == (ref_f, ref_g)
            and mlh == (ref_f[0] + ref_g[0], ref_f[1] + ref_g[1])
        )

    return Op("product", f"product p={p} M={M} N={N}", run, check)


def _twist_op(rng, p, M, N):
    f = TruncatedSeries(p, _random_coeffs(rng, p, M, N), N)

    def run():
        return f.nu_involution().nu_involution()

    def check(g):
        # criterion 12: the round trip is the identity on the reliable window
        for j in range(M):
            window = min(N, M - j - 2)
            if window <= 0:
                break
            if (g.coeffs[j] - f.coeffs[j]) % p**window:
                return False
        return True

    return Op("twist", f"twist p={p} M={M} N={N}", run, check)


def _growth_op(p, ppows, dists):
    E = ElementaryModule(p, ppows, dists)
    shape = f"ppow={list(ppows)} dist_deg={[len(q) - 1 for q in dists]}"

    def run():
        rep = lambda_modules.growth_sequence(E, 0, 5)
        oracle = {}
        for r in range(1, 6):
            g = iwaseries.nu_rm_poly(p, r, 0)
            oracle[r] = sum(mu * (len(g) - 1) for mu in ppows) + sum(
                lambda_modules.quotient_order_oracle(list(q), g, p) for q in dists)
        return rep, oracle

    def check(out):
        rep, oracle = out
        mu, lam = sum(ppows), sum(len(q) - 1 for q in dists)
        return (rep.passed and (rep.mu_fit, rep.lambda_fit) == (mu, lam)
                and rep.r0 is not None and rep.r0 <= 5
                and all(rep.exponents[r] == oracle[r] for r in oracle))

    return Op("growth", f"growth p={p} {shape}", run, check)


def _irregular_op(q):
    def run():
        return exactq.irregular_indices(q)

    def check(found):
        return found == IRREGULAR_PAIRS.get(q, set())

    return Op("irregular", "irregular q=691" if q == 691 else "irregular q<200", run, check)


WORKLOADS = {"interp_grid": interp_grid, "three_way": three_way, "lambda_tower": lambda_tower}


# -- output digests ----------------------------------------------------------------


def canonical(x):
    """A plain nested tuple carrying every value and precision of an op output."""
    if isinstance(x, PadicNumber):
        return ("padic", x.prime, x.valuation, x.mantissa, x.precision)
    if isinstance(x, TruncatedSeries):
        return ("series", x.prime, x.prec, x.coeffs)
    if isinstance(x, Fraction):
        return ("q", x.numerator, x.denominator)
    if isinstance(x, (list, tuple)):
        return tuple(canonical(v) for v in x)
    if isinstance(x, (set, frozenset)):
        return ("set",) + tuple(sorted(x))
    if isinstance(x, dict):
        return ("dict",) + tuple((k, canonical(v)) for k, v in sorted(x.items()))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(canonical(getattr(x, f.name)) for f in dataclasses.fields(x))
    if hasattr(x, "distinguished"):  # DistinguishedFactorization
        return ("weierstrass", x.mu, canonical(x.unit), tuple(x.distinguished))
    return x
