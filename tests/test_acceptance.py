"""Acceptance gate: one test per criterion, each printing a verdict line.

The verdict lines bypass pytest's capture, so a plain `pytest -v` shows
the per-criterion report.  Every check is exact rational arithmetic
except the Monte Carlo criterion, whose tolerance is the |z| < 4 CLT
bound at the pinned seed.
"""

import random
import time
from fractions import Fraction

import pytest

from umbrakit import multiindex as mi
from umbrakit.families import (bernoulli, bernoulli_gf_oracle, euler,
                               euler_gf_oracle, hermite, hermite_gf_oracle)
from umbrakit.harmonic import (coefficient_recursion_check,
                               expected_value_zero, tsh_polynomial,
                               verify_harmonicity)
from umbrakit.montecarlo import SimConfig, simulate_and_test
from umbrakit.polynomials import Poly
from umbrakit.processes import (ProcessSpec, build, ig_gf_check,
                                inverse_gaussian_closed_form,
                                inverse_gaussian_one_step)
from umbrakit.series import (TruncatedSeries, series_compose, series_subst,
                             series_reversion, vector_reversion)
from umbrakit.umbrae import UmbraTuple, dot_beta_tuple, compositional_inverse, singleton

from oracles import bell_number, multiindex_partition_count

PROCESS_SWEEP = [
    ("brownian", {}),
    ("poisson", {"rate": Fraction(2)}),
    ("gamma", {"shape": Fraction(2), "scale": Fraction(1, 2)}),
    ("inverse_gaussian", {"a": Fraction(1), "b": Fraction(2)}),
    ("bernoulli_neg", {}),
    ("euler_half", {}),
]


@pytest.fixture
def report(capsys):
    def _report(n, ok, text):
        with capsys.disabled():
            print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {text}")
        assert ok, f"criterion {n} failed: {text}"
    return _report


def rand_tuple(rnd, d, order):
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 4))
    return UmbraTuple(d, order, ms)


def test_criterion_1_partition_engine(report):
    start = time.monotonic()
    expected = [2, 5, 15, 52]
    ok = True
    for d, want in zip(range(2, 6), expected):
        v = (1,) * d
        got = sum(1 for _ in mi.partitions(v))
        ok &= got == want == bell_number(d) == multiindex_partition_count(v)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(1, ok, f"Bell numbers {expected} for d=2..5 vs set-partition "
                  f"oracle in {elapsed:.3f}s (< 1s)")


def test_criterion_2_dot_product_consistency(report):
    rnd = random.Random(20240601)
    ok = True
    for trial in range(5):
        d = rnd.randint(1, 3)
        mu = rand_tuple(rnd, d, 6)
        n = rnd.randint(1, 4)
        via_dot_n = mu.dot_n(n)
        via_sum = mu
        for _ in range(n - 1):
            via_sum = via_sum.tuple_sum(mu)
        via_dot_t = mu.dot_t("t").specialize({"t": n})
        ok &= via_dot_n == via_sum == via_dot_t
    report(2, ok, "dot_n = n-fold tuple_sum = dot_t|t=n on 5 random arrays "
                  "(d<=3, N=6, n<=4), exact")


def test_criterion_3_tsh_master_identity(report):
    start = time.monotonic()
    ok = True
    checked = 0
    for kind, params in PROCESS_SWEEP:
        for d in (1, 2, 3):
            mu = build(ProcessSpec(kind, d, 4, params)).one_step
            for v in mi.iter_indices(d, 4):
                if not any(v):
                    continue
                q = tsh_polynomial(mu, v)
                good, _ = verify_harmonicity(mu, q.coeffs)
                ok &= good
                checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(3, ok, f"verify_harmonicity exact in Q[t,s] for {checked} "
                  f"(process, v) pairs, 6 kinds, |v|<=4, d<=3, "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_4_zero_expectation(report):
    ok = True
    for kind, params in PROCESS_SWEEP:
        for d in (1, 2, 3):
            mu = build(ProcessSpec(kind, d, 4, params)).one_step
            for v in mi.iter_indices(d, 4):
                if any(v):
                    ok &= expected_value_zero(mu, v)
    report(4, ok, "E[Q_v(t.mu, t)] = 0 in Q[t] over the same sweep")


def test_criterion_5_coefficient_laws(report):
    ok = True
    printed_failures = 0
    for kind, params in PROCESS_SWEEP:
        mu = build(ProcessSpec(kind, 1, 4, params)).one_step
        for v in [(1,), (2,), (3,), (4,)]:
            q = tsh_polynomial(mu, v)
            ok &= q.coefficient(v) == 1
            for k in q.coeffs:
                if k != v:
                    ok &= q.coefficient(k).subs({"t": 0}).is_zero()
            rep = coefficient_recursion_check(mu, v)
            ok &= rep.proof_version_holds
            if not rep.printed_version_holds:
                printed_failures += 1
    # the discrepancy: the alternative statement form (moment factor g_i
    # instead of g_{i-k}) fails in general, documented by this count
    ok &= printed_failures > 0
    report(5, ok, "q_v = 1, q_k(0) = 0, proof-version recursion exact; "
                  f"printed-statement variant fails on {printed_failures} "
                  "cases (documented discrepancy)")


def test_criterion_6_classical_families(report):
    x = Poly.var("x1")
    t = Poly.var("t")
    I1 = [[Fraction(1)]]
    pairs = [
        (hermite((2,), I1), x ** 2 - t),
        (hermite((3,), I1), x ** 3 - 3 * t * x),
        (bernoulli((1,), 1), x - Fraction(1, 2)),
        (bernoulli((2,), 1), x ** 2 - x + Fraction(1, 6)),
        (euler((1,), 1), x - Fraction(1, 2)),
        (euler((2,), 1), x ** 2 - x),
    ]
    ok = all(got == want for got, want in pairs)
    # closed form vs generating-function oracle
    for v in [(1,), (2,), (3,)]:
        ok &= hermite(v, I1) == hermite_gf_oracle(v, I1)
        ok &= bernoulli(v) == bernoulli_gf_oracle(v)
        ok &= euler(v) == euler_gf_oracle(v)
    report(6, ok, "d=1 Hermite/Bernoulli/Euler specializations exact, "
                  "closed form == gf oracle")


def test_criterion_7_inverse_gaussian(report):
    ok = True
    for a, b in [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(3))]:
        ok &= ig_gf_check(a, b, 6)
        ok &= inverse_gaussian_one_step(a, b, 6).to_series() == \
            inverse_gaussian_closed_form(a, b, 6)
    report(7, ok, "IG reversion gf == closed form to order 6 for "
                  "(a,b) in {(1,1),(2,3)}, exact rationals")


def test_criterion_8_compositional_inverses(report):
    rnd = random.Random(31)
    N = 8
    ok = True
    for _ in range(5):
        # univariate: alpha . beta . alpha^<-1> == chi
        ms = {(0,): Fraction(1), (1,): Fraction(rnd.choice([1, -1, 2]))}
        for k in range(2, N + 1):
            ms[(k,)] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        alpha = UmbraTuple(1, N, ms)
        inv = compositional_inverse(alpha)
        ok &= dot_beta_tuple(alpha, inv) == singleton(N)

        # multivariate: composing the components with their vector inverse
        # returns the coordinate series 1 + z_i
        fs = []
        for i in range(2):
            cs = {(0, 0): Fraction(1)}
            cs[(1, 0) if i == 0 else (0, 1)] = Fraction(rnd.choice([1, 2]))
            cs[(0, 1) if i == 0 else (1, 0)] = Fraction(rnd.randint(0, 1)) \
                if i == 0 else Fraction(0)
            for v in mi.iter_indices(2, N):
                if sum(v) >= 2 and rnd.random() < 0.5:
                    cs[v] = Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
            fs.append(TruncatedSeries(2, N, cs))
        gs = vector_reversion(fs)
        one = TruncatedSeries.one(2, N)
        for i in range(2):
            res = series_subst(fs[i] - one, [g - one for g in gs])
            ok &= res == TruncatedSeries.variable(2, N, i)
    report(8, ok, "univariate and multivariate compositional inverses "
                  "round-trip at N=8 on 5 random invertible inputs")


def test_criterion_9_cumulant_roundtrip(report):
    rnd = random.Random(47)
    ok = True
    for _ in range(5):
        d = rnd.randint(1, 3)
        mu = rand_tuple(rnd, d, 6)
        ok &= UmbraTuple.from_cumulants(mu.cumulant_tuple()) == mu
    gauss = build(ProcessSpec("brownian", 2, 6, {})).one_step
    cum = gauss.cumulant_tuple()
    for v in mi.iter_indices(2, 6):
        if mi.total(v) >= 3:
            ok &= cum.eval_power(v) == 0
    report(9, ok, "moments -> cumulants -> moments identity (d<=3, N=6); "
                  "Gaussian cumulants vanish for |v| >= 3")


def test_criterion_10_monte_carlo(report):
    start = time.monotonic()
    ok = True
    runs = []
    for kind, d, params in [("brownian", 2, {}),
                            ("poisson", 1, {"rate": Fraction(1)})]:
        spec = ProcessSpec(kind, d, 3, params)
        proc = build(spec)
        polys = [tsh_polynomial(proc.one_step, v)
                 for v in mi.iter_indices(d, 3) if any(v)]
        cfg = SimConfig(spec, 100_000, Fraction(1, 2), Fraction(1), 20240601)
        rep = simulate_and_test(cfg, polys)
        ok &= rep.passed
        runs.append(max(abs(r.zscore) for r in rep.rows))
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(10, ok, f"10^5 paths, |z| < 4 for all tests (max |z| = "
                   f"{max(runs):.2f}), |v|<=3, {elapsed:.1f}s (< 60s)")
