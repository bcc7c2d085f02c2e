"""The benchmark's workloads: seeded inputs, timed ops and their known answers.

A workload is a list of ops.  ``Op.run(state)`` is the timed call into
umbrakit; ``state`` is a dict that lives for one pass, through which an
op may hand its result to a later op of the same pass.  ``Op.check``
runs after the pass, outside every timed or traced region, and returns
None for a right answer or a one-line reason for a wrong one.

Inputs depend on the seed only through values whose arithmetic cost
does not depend on the seed (small coefficients drawn from fixed
ranges, fixed shapes), so runs with different seeds do the same amount
of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from functools import cache, partial
from fractions import Fraction
from pathlib import Path
from typing import Callable

import known_answers as ka

from umbrakit import multiindex as mi
from umbrakit import cli
from umbrakit.families import (bernoulli, bernoulli_gf_oracle,
                               bernoulli_tsh_check, euler, euler_gf_oracle,
                               euler_tsh_check, hermite, hermite_gf_oracle,
                               levy_sheffer, levy_sheffer_gf_oracle)
from umbrakit.harmonic import (decompose, expected_value_zero, tsh_polynomial,
                               verify_harmonicity)
from umbrakit.polynomials import Poly
from umbrakit.processes import (ProcessSpec, bernoulli_neg_one_step,
                                brownian_one_step, build, euler_half_one_step,
                                gamma_one_step, ig_gf_check,
                                inverse_gaussian_one_step, poisson_one_step)
from umbrakit.series import (TruncatedSeries, series_exp, series_pow,
                             series_subst, vector_reversion)
from umbrakit.umbrae import (UmbraTuple, compositional_inverse, dot_beta_tuple,
                             singleton)

T = Poly.var("t")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], str | None]


def _expect(ok: bool, reason: str) -> str | None:
    return None if ok else reason


def _rational(rnd: random.Random) -> Fraction:
    """A nonzero rational with small numerator and denominator."""
    return Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.randint(1, 5))


def random_array(rnd: random.Random, d: int, order: int) -> UmbraTuple:
    """A dense unital moment array.  Numerators are drawn from +-1..4 and
    the denominator of g_v is fixed by |v|, so every seed gives entries of
    the same size and the same arithmetic cost."""
    ms = {(0,) * d: Fraction(1)}
    for v in mi.iter_indices(d, order):
        if any(v):
            ms[v] = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 4), 1 + mi.total(v) % 3)
    return UmbraTuple(d, order, ms)


# -- tsh_verify -------------------------------------------------------------

PROCESS_SWEEP = [
    ("brownian", {}),
    ("poisson", {"rate": Fraction(2)}),
    ("gamma", {"shape": Fraction(2), "scale": Fraction(1, 2)}),
    ("inverse_gaussian", {"a": Fraction(1), "b": Fraction(2)}),
    ("bernoulli_neg", {}),
    ("euler_half", {}),
]
TSH_ORDER = {1: 4, 2: 3, 3: 2}          # |v| <= N per dimension
TSH_DEEP = ("gamma", PROCESS_SWEEP[2][1], 1, 8)
DECOMPOSE_TERMS = 3
FAMILY_ORDER = 4


class _ProcessOracle:
    """Closed-form one-step moments and series-path time moments."""

    def __init__(self, kind, params, d, order):
        self.moments = ka.one_step_moments(kind, params, d, order)
        f = TruncatedSeries(d, order, self.moments)
        self.forward = series_pow(f, T)        # moments of t . mu
        self.backward = series_pow(f, -T)      # moments of -t . mu


def _tsh_op(key, tag: str, v: tuple, oracle) -> Op:
    """Q_v built, verified harmonic and checked for zero expectation."""
    def run(state):
        mu = state[key].one_step
        q = tsh_polynomial(mu, v)
        harmonic, _ = verify_harmonicity(mu, q.coeffs)
        state[key, v] = q
        return q, harmonic, expected_value_zero(mu, v)

    def check(result, state):
        q, harmonic, zero = result
        if not harmonic:
            return "verify_harmonicity returned False"
        if not zero:
            return "expected_value_zero returned False"
        neg = oracle().backward
        for k in mi.iter_indices(len(v), mi.total(v)):
            if mi.leq(k, v) and q.coefficient(k) != \
                    mi.multi_binomial(v, k) * neg.get(mi.sub(v, k)):
                return f"coefficient {k} differs from the series path"
        return None

    return Op(f"tsh:{tag}:{mi.format_index(v)}", run, check)


def _decompose_ops(key, tag: str, d: int, want: dict) -> list[Op]:
    """decompose of sum_k c_k Q_k, built from this pass's Q_k, with and
    without t added to the constant term."""
    def combination(state, plus_t: bool) -> dict:
        coeffs: dict = {}
        for k, c in want.items():
            for j, q_j in state[key, k].coeffs.items():
                coeffs[j] = coeffs.get(j, Poly.const(0)) + c * q_j
        if plus_t:
            zero = (0,) * d
            coeffs[zero] = coeffs.get(zero, Poly.const(0)) + T
        return coeffs

    return [
        Op(f"decompose:{tag}",
           lambda state: decompose(combination(state, False), state[key].one_step),
           lambda result, state: _expect(
               result.exact and result.coefficients == want,
               "decompose did not recover the seeded coefficients")),
        Op(f"decompose+t:{tag}",
           lambda state: decompose(combination(state, True), state[key].one_step),
           lambda result, state: _expect(
               result.coefficients == want and result.residual == {(0,) * d: T},
               "decompose of the combination plus t left no t residual")),
    ]


def _process_ops(rnd, kind: str, params: dict, d: int, order: int,
                 with_decompose: bool) -> list[Op]:
    """build, then one op per index v with 0 < |v| <= order, then decompose."""
    key, tag = (kind, d, order), f"{kind}:d{d}:N{order}"
    oracle = cache(lambda: _ProcessOracle(kind, params, d, order))

    def run_build(state):
        state[key] = build(ProcessSpec(kind, d, order, params))
        return state[key]

    def check_build(proc, state):
        if not ka.same_moments(proc.one_step.moments, oracle().moments):
            return "one-step moments differ from the closed form"
        return _expect(proc.time_tuple.to_series() == oracle().forward,
                       "dot_t(t) differs from exp(t log f)")

    vs = [v for v in mi.iter_indices(d, order) if any(v)]
    ops = [Op(f"build:{tag}", run_build, check_build)]
    ops += [_tsh_op(key, tag, v, oracle) for v in vs]
    if with_decompose:
        want = {k: _rational(rnd) for k in rnd.sample(vs, DECOMPOSE_TERMS)}
        ops += _decompose_ops(key, tag, d, want)
    return ops


def _family_op(name: str, check_fn) -> Op:
    return Op(f"family_tsh:{name}:N{FAMILY_ORDER}",
              lambda state: check_fn(FAMILY_ORDER, 1),
              lambda ok, state: _expect(ok is True, f"{name}_tsh_check returned {ok!r}"))


def tsh_verify(seed: int) -> list[Op]:
    rnd = random.Random(seed)
    ops: list[Op] = []
    for kind, params in PROCESS_SWEEP:
        for d in (1, 2, 3):
            ops += _process_ops(rnd, kind, params, d, TSH_ORDER[d], True)
    kind, params, d, order = TSH_DEEP
    ops += _process_ops(rnd, kind, params, d, order, False)
    return ops + [_family_op("bernoulli", bernoulli_tsh_check),
                  _family_op("euler", euler_tsh_check)]


# -- series_gf --------------------------------------------------------------

CONSTRUCTOR_ORDER = 20
IG_ORDER = 24
IG_CHECK_ORDER = 16
BROWNIAN_GF = (2, 8)
DENSE_SHAPES = [(1, 12), (2, 8), (3, 6), (1, 16), (2, 10)]
REVERSION = (2, 8)
COMP_INVERSE_ORDER = 12
GF_ORACLE_INDICES = {"hermite": [(4, 2), (3, 3)], "bernoulli": [(6,), (3, 2)],
                     "euler": [(6,), (3, 2)]}
SHEFFER = (1, 6)


def _one_step_op(name, make, want) -> Op:
    return Op(name, lambda state: make(),
              lambda mu, state: _expect(ka.same_moments(mu.moments, want),
                                        "moments differ from the closed form"))


def _constructor_ops(rnd) -> list[Op]:
    """One-step constructors called directly, each against closed-form
    moments, at the acceptance-sweep parameters."""
    N = CONSTRUCTOR_ORDER
    params = dict(PROCESS_SWEEP)
    rate = params["poisson"]["rate"]
    shape, scale = params["gamma"]["shape"], params["gamma"]["scale"]
    a, b = params["inverse_gaussian"]["a"], params["inverse_gaussian"]["b"]
    d, order = BROWNIAN_GF
    C = _triangular(rnd, d)
    sigma = [[sum(C[i][k] * C[j][k] for k in range(d)) for j in range(d)]
             for i in range(d)]
    return [
        _one_step_op(f"brownian_one_step:d{d}:N{order}",
                     lambda: brownian_one_step(C, order),
                     ka.gaussian_moments(sigma, order)),
        _one_step_op(f"poisson_one_step:N{N}", lambda: poisson_one_step(rate, N),
                     ka.comonotone(ka.poisson_moments(rate, N), 1)),
        _one_step_op(f"gamma_one_step:N{N}",
                     lambda: gamma_one_step(shape, scale, N),
                     ka.comonotone(ka.gamma_moments(shape, scale, N), 1)),
        _one_step_op(f"inverse_gaussian_one_step:N{IG_ORDER}",
                     lambda: inverse_gaussian_one_step(a, b, IG_ORDER),
                     ka.comonotone(ka.inverse_gaussian_moments(a, b, IG_ORDER), 1)),
        _one_step_op(f"bernoulli_neg_one_step:N{N}",
                     lambda: bernoulli_neg_one_step(N, 1),
                     ka.comonotone(ka.uniform_moments(N), 1)),
        _one_step_op(f"euler_half_one_step:N{N}",
                     lambda: euler_half_one_step(N, 1),
                     ka.comonotone(ka.bernoulli_half_moments(N), 1)),
        Op(f"ig_gf_check:N{IG_CHECK_ORDER}",
           lambda state: ig_gf_check(a, b, IG_CHECK_ORDER),
           lambda ok, state: _expect(ok is True, f"ig_gf_check returned {ok!r}")),
    ]


def _triangular(rnd, d: int) -> list[list[Fraction]]:
    """A unit lower-triangular matrix with entries +-1 or +-2 below the
    diagonal: invertible, and of the same size for every seed."""
    return [[Fraction(1) if i == j else
             Fraction(rnd.choice((-2, -1, 1, 2))) if j < i else Fraction(0)
             for j in range(d)] for i in range(d)]


def _at(c, n: int) -> Fraction:
    """A coefficient that is a polynomial in t alone, evaluated at t = n."""
    if not isinstance(c, Poly):
        return c
    if c.vars not in ((), ("t",)):
        raise ValueError(f"coefficient {c} has variables other than t")
    return sum((a * n ** (e[0] if e else 0) for e, a in c.terms.items()), Fraction(0))


def _pow_interpolates(f: TruncatedSeries, g: TruncatedSeries) -> bool:
    """g = f**t, shown at t = 0..N.  Each coefficient of f**t = exp(t log f)
    is a polynomial of degree <= N in t, so with that degree bound on g,
    N + 1 points prove it."""
    if any(isinstance(c, Poly) and c.degree("t") > f.order for c in g.coeffs.values()):
        return False
    power = TruncatedSeries.one(f.dim, f.order)
    for n in range(f.order + 1):
        if g.map_coeffs(lambda c: _at(c, n)) != power:
            return False
        power = power * f
    return True


def _cumulants_match(mu: UmbraTuple, kappa: UmbraTuple) -> bool:
    """m_{v+e_i} = sum_{k<=v} binom(v, k) kappa_{k+e_i} m_{v-k}."""
    d = mu.dim
    for v in mi.iter_indices(d, mu.order - 1):
        for i in range(d):
            e = tuple(int(j == i) for j in range(d))
            acc = Fraction(0)
            for k in mi.iter_indices(d, mi.total(v)):
                if mi.leq(k, v):
                    acc += mi.multi_binomial(v, k) * kappa.eval_power(mi.add(k, e)) \
                        * mu.eval_power(mi.sub(v, k))
            if acc != mu.eval_power(mi.add(v, e)):
                return False
    return True


def _dense_ops(rnd, d: int, order: int) -> list[Op]:
    """Cumulants, their inverse and f**t on one dense random array."""
    mu = random_array(rnd, d, order)
    f = mu.to_series()
    tag = f"d{d}:N{order}"

    def run_cumulants(state):
        state["cumulants", tag] = mu.cumulant_tuple()
        return state["cumulants", tag]

    return [
        Op(f"cumulant_tuple:{tag}", run_cumulants,
           lambda kappa, state: _expect(_cumulants_match(mu, kappa),
                                        "cumulants break the moment-cumulant recursion")),
        Op(f"from_cumulants:{tag}",
           lambda state: UmbraTuple.from_cumulants(state["cumulants", tag]),
           lambda back, state: _expect(back == mu, "cumulant round trip changed the array")),
        Op(f"series_pow_t:{tag}", lambda state: series_pow(f, T),
           lambda g, state: _expect(_pow_interpolates(f, g),
                                    "f**t differs from f**n at t = n")),
    ]


def _reversion_ops(rnd) -> list[Op]:
    """Vector reversion of random invertible component series, and the
    compositional inverse of a random univariate umbra."""
    d, order = REVERSION
    C = _triangular(rnd, d)
    fs = []
    for i in range(d):
        # 1 + (z C^T)_i + dense higher terms: the Jacobian C is invertible
        cs = {(0,) * d: Fraction(1)}
        for j in range(d):
            cs[tuple(int(k == j) for k in range(d))] = C[i][j]
        cs.update((v, g) for v, g in random_array(rnd, d, order).moments.items()
                  if mi.total(v) >= 2)
        fs.append(TruncatedSeries(d, order, cs))
    one = TruncatedSeries.one(d, order)

    def round_trips(gs) -> bool:
        return all(series_subst(fs[i] - one, [g - one for g in gs])
                   == TruncatedSeries.variable(d, order, i) for i in range(d))

    n = COMP_INVERSE_ORDER
    ms = dict(random_array(rnd, 1, n).moments)
    ms[(1,)] = Fraction(rnd.choice((-1, 1)))
    alpha = UmbraTuple(1, n, ms)
    return [
        Op(f"vector_reversion:d{d}:N{order}", lambda state: vector_reversion(fs),
           lambda gs, state: _expect(round_trips(gs), "vector reversion does not round-trip")),
        Op(f"compositional_inverse:N{n}", lambda state: compositional_inverse(alpha),
           lambda inv, state: _expect(dot_beta_tuple(alpha, inv) == singleton(n),
                                      "compositional inverse does not round-trip")),
    ]


def _gf_oracle_op(name: str, oracle, closed) -> Op:
    return Op(name, lambda state: oracle(),
              lambda p, state: _expect(p == closed(), "gf oracle differs from closed form"))


def _gf_oracle_ops(rnd) -> list[Op]:
    """Each family's generating-function oracle against its closed form."""
    ops = []
    for v in GF_ORACLE_INDICES["hermite"]:
        C = _triangular(rnd, len(v))
        ops.append(_gf_oracle_op(f"hermite_gf_oracle:{mi.format_index(v)}",
                                 partial(hermite_gf_oracle, v, C), partial(hermite, v, C)))
    for name, oracle, closed in (("bernoulli", bernoulli_gf_oracle, bernoulli),
                                 ("euler", euler_gf_oracle, euler)):
        for v in GF_ORACLE_INDICES[name]:
            ops.append(_gf_oracle_op(f"{name}_gf_oracle:{mi.format_index(v)}",
                                     partial(oracle, v), partial(closed, v)))
    d, order = SHEFFER
    mu, nu = random_array(rnd, d, order), random_array(rnd, d, order)
    k = (order,) * d
    ops.append(_gf_oracle_op(f"levy_sheffer_gf_oracle:d{d}:N{order}",
                             partial(levy_sheffer_gf_oracle, mu, nu, k),
                             partial(levy_sheffer, mu, nu, k)))
    return ops


def series_gf(seed: int) -> list[Op]:
    rnd = random.Random(seed)
    ops = _constructor_ops(rnd)
    for d, order in DENSE_SHAPES:
        ops += _dense_ops(rnd, d, order)
    return ops + _reversion_ops(rnd) + _gf_oracle_ops(rnd)


# -- fresh_arrays -----------------------------------------------------------

FRESH_SHAPES = [(1, 6), (2, 6), (3, 4), (3, 5)]
FRESH_ROUNDS = 6
FRESH_TSH_ORDER = 2


def _fresh_ops(rnd, tag: str, d: int, order: int, n: int) -> list[Op]:
    """Every dot product and inverse on one fresh array, each op once."""
    mu, other = random_array(rnd, d, order), random_array(rnd, d, order)
    low = random_array(rnd, d, FRESH_TSH_ORDER)
    f, one = mu.to_series(), TruncatedSeries.one(d, order)

    def run_dot_t(state):
        state["dot_t", tag] = mu.dot_t("t")
        return state["dot_t", tag]

    def check_dot_n(got, state):
        if got.to_series() != f ** n:
            return "dot_n differs from f**n"
        summed = mu
        for _ in range(n - 1):
            summed = summed.tuple_sum(mu)
        if got != summed:
            return "dot_n differs from the n-fold tuple_sum"
        at_n = {v: _at(c, n) for v, c in state["dot_t", tag].moments.items()}
        return _expect(ka.same_moments(got.moments, at_n),
                       "dot_n differs from dot_t at t = n")

    def run_tsh(state):
        verdicts = []
        for v in mi.iter_indices(d, FRESH_TSH_ORDER):
            if any(v):
                q = tsh_polynomial(low, v)
                harmonic, _ = verify_harmonicity(low, q.coeffs)
                verdicts.append(harmonic and expected_value_zero(low, v))
        return verdicts

    return [
        Op(f"dot_t:{tag}", run_dot_t,
           lambda got, state: _expect(_pow_interpolates(f, got.to_series()),
                                      "dot_t differs from exp(t log f)")),
        Op(f"dot_n:{tag}", lambda state: mu.dot_n(n), check_dot_n),
        Op(f"dot_t_beta:{tag}", lambda state: mu.dot_t_beta("t"),
           lambda got, state: _expect(
               _pow_interpolates(series_exp(f - one), got.to_series()),
               "dot_t_beta differs from exp(t (f - 1))")),
        Op(f"tuple_sum:{tag}", lambda state: mu.tuple_sum(other),
           lambda got, state: _expect(got.to_series() == f * other.to_series(),
                                      "tuple_sum differs from the gf product")),
        Op(f"inverse_umbra:{tag}", lambda state: mu.inverse_umbra(),
           lambda got, state: _expect(got.to_series() * f == one,
                                      "inverse_umbra is not the reciprocal")),
        Op(f"cumulant_round_trip:{tag}",
           lambda state: UmbraTuple.from_cumulants(mu.cumulant_tuple()),
           lambda got, state: _expect(got == mu, "cumulant round trip changed the array")),
        Op(f"tsh_short:{tag}", run_tsh,
           lambda verdicts, state: _expect(verdicts and all(verdicts),
                                           "a short TSH verify returned False")),
    ]


def fresh_arrays(seed: int) -> list[Op]:
    rnd = random.Random(seed)
    return [op for r in range(FRESH_ROUNDS) for d, order in FRESH_SHAPES
            for op in _fresh_ops(rnd, f"{r}:d{d}:N{order}", d, order, 2 + r % 3)]


# -- mc_paths ---------------------------------------------------------------

MC_PATHS = 100_000
MC_ORDER = 3
MC_PROCESSES = [("brownian", 2), ("poisson", 1), ("gamma", 2), ("ig", 1)]
MC_DEFAULT_SEED = 20240601
MC_SEEDS = [MC_DEFAULT_SEED + k for k in range(16)]
MC_SEEDS_PER_PASS = 6
DIGESTS = Path(__file__).with_name("mc_digests.json")


def mc_argv(process: str, d: int, mc_seed: int) -> list[str]:
    return ["mc-verify", "--process", process, "--d", str(d),
            "--max-order", str(MC_ORDER), "--order", str(MC_ORDER),
            "--paths", str(MC_PATHS), "--seed", str(mc_seed), "--json"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """umbrakit.cli.main in-process, its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def canonical_digest(text: str) -> str:
    """sha256 of the report with floats cut to 12 significant digits, so
    the digest does not hang on the last bit of a platform's libm."""
    def fix(x):
        if isinstance(x, float):
            return float(f"{x:.12g}")
        if isinstance(x, dict):
            return {k: fix(v) for k, v in x.items()}
        if isinstance(x, list):
            return [fix(v) for v in x]
        return x
    body = json.dumps(fix(json.loads(text)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _mc_op(argv: list[str], want: str) -> Op:
    def check(result, state):
        code, text = result
        if code != 0:
            return f"mc-verify exited {code}"
        return _expect(canonical_digest(text) == want,
                       "mc-verify report differs from the recorded digest")

    return Op(f"mc-verify:{argv[2]}:d{argv[4]}:seed{argv[argv.index('--seed') + 1]}",
              lambda state: run_cli(argv), check)


def mc_paths(seed: int) -> list[Op]:
    rnd = random.Random(seed)
    digests = json.loads(DIGESTS.read_text())
    seeds = [MC_DEFAULT_SEED] + rnd.sample(MC_SEEDS[1:], MC_SEEDS_PER_PASS - 1)
    argvs = [mc_argv(process, d, s) for s in seeds for process, d in MC_PROCESSES]
    return [_mc_op(argv, digests[" ".join(argv)]) for argv in argvs]


WORKLOADS = {
    "tsh_verify": tsh_verify,
    "series_gf": series_gf,
    "fresh_arrays": fresh_arrays,
    "mc_paths": mc_paths,
}
