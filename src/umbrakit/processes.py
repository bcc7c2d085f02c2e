"""Named symbolic Levy processes as parameterized moment-array factories.

A process is the family {t . mu} for a one-step tuple mu; we store the
one-step joint moments exactly and the time-parameterized moments as
polynomials in t.  KINDS lists every kind once, with its parameter
defaults and its one-step constructor: ProcessSpec checks a spec
against it, and build is one lookup in it.  Poisson is rate.beta.u,
Brownian 1.beta.(delta C^T) and inverse Gaussian 1.beta over the
compositional inverse of a quadratic: each one dot_t_beta.

build keeps what it builds: equal specs get the same SymbolicProcess
from an LRU of BUILD_MEMO_SIZE processes keyed by the spec itself,
which is immutable, so the time-parameterized moments of a process,
held in its tuples' memo, are computed once per interpreter.  A
returned process is shared and must not be mutated.  A custom process
is read from a file that can change, so build makes it anew on every
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from . import multiindex as mi
from .polynomials import (Poly, json_int, parse_coeff_map, parse_matrix,
                          parse_rational, read_json)
from .series import TruncatedSeries, series_exp, series_pow
from .umbrae import (UmbraTuple, check_square, comonotone_tuple,
                     compositional_inverse, gaussian_delta, gaussian_delta_tuple,
                     identity_matrix, singleton, unity)

class UnsupportedProcessError(ValueError):
    """Requested process has no computable moment representation."""


@dataclass(frozen=True)
class ProcessSpec:
    """A process kind, its dimension and order, and its parameters.

    params takes only the names KINDS lists for the kind, as rationals
    (a matrix for C, a file path for a custom process).  A spec is a
    value: it stores the parsed params, with KINDS' defaults filled in,
    as a read-only mapping and C as a tuple of rows, so it can key
    build's memo by itself, which is immutable.
    """

    kind: str
    dim: int
    order: int
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "m_stable":
            raise UnsupportedProcessError(
                "m-stable processes have divergent moment generating "
                "functions; no moment-level construction exists")
        if self.kind not in KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}")
        takes = KINDS[self.kind][0]
        params = dict(takes)
        for key, value in self.params.items():
            if key not in takes:
                raise ValueError(f"parameter {key!r} does not apply to {self.kind} "
                                 f"(takes: {', '.join(takes) or 'none'})")
            params[key] = value if key == "path" else \
                parse_matrix(key, value) if key == "C" else parse_rational(key, value)
        mi.check_dimension(self.dim)
        mi.check_order(self.order)
        if self.kind == "brownian":
            if params["C"] is None:
                params["C"] = identity_matrix(self.dim)
            check_square(params["C"], self.dim, f"brownian C for --d {self.dim}")
        if self.kind == "custom" and not params["path"]:
            raise ValueError("a custom process needs a 'path'" if params["path"] is None
                             else "the custom moment file path is empty")
        # a new mapping: the caller's dict may be shared between specs
        object.__setattr__(self, "params", MappingProxyType(params))

    def __hash__(self) -> int:
        return hash((self.kind, self.dim, self.order, frozenset(self.params.items())))


@dataclass(frozen=True)
class SymbolicProcess:
    spec: ProcessSpec
    one_step: UmbraTuple          # moments of the unit-time marginal
    time_tuple: UmbraTuple        # moments of X_t as polynomials in t

    def at_time(self, t: Fraction | int) -> UmbraTuple:
        return self.time_tuple.specialize({"t": t})


def brownian_one_step(C: Sequence[Sequence[Fraction]], order: int) -> UmbraTuple:
    """Unit-time nonstandard Brownian marginal 1.beta.(delta C^T), gf exp(z Sigma z^T / 2)."""
    return gaussian_delta_tuple(order, len(C)).linear_map(C).dot_t_beta(1)


def poisson_one_step(rate: Fraction, order: int) -> UmbraTuple:
    """rate.beta.u: gf exp(rate (e^z - 1))."""
    if rate <= 0:
        raise ValueError("poisson rate must be positive")
    return unity(order).dot_t_beta(rate)


def gamma_one_step(shape: Fraction, scale: Fraction, order: int) -> UmbraTuple:
    """gf (1 - scale z)^(-shape), expanded as a binomial series.

    Convention external to the moment-representation theory: shape-scale
    gamma with mean shape*scale.
    """
    if shape <= 0 or scale <= 0:
        raise ValueError("gamma shape and scale must be positive")
    base = TruncatedSeries(1, order, {(0,): 1, (1,): -scale})
    return UmbraTuple.from_series(series_pow(base, Fraction(-shape)))


def ig_quadratic(a: Fraction, b: Fraction, order: int) -> UmbraTuple:
    """The quadratic umbra whose compositional inverse builds the IG gf.

    Built in the singleton/Gaussian disjoint-sum shape c*chi .+ s*delta
    with a declared square root s (s^2 rewritten to a rational), so that
    reversion followed by exp yields exp{(b/a)[1 - sqrt(1 - 2 a^2 z / b)]}.
    """
    if a <= 0 or b <= 0:
        raise ValueError("inverse Gaussian parameters must be positive")
    chi_part = singleton(order).scale(Fraction(1) / a)
    s = Poly.var("s")
    delta_part = gaussian_delta(order).scale(s)
    quad = chi_part.disjoint_sum(delta_part)
    fixed = {v: c.reduce_power("s", 2, Poly.const(Fraction(-1, 1) / b))
             if isinstance(c, Poly) else c
             for v, c in quad.moments.items()}
    return UmbraTuple(1, order, fixed)


def inverse_gaussian_one_step(a: Fraction, b: Fraction, order: int) -> UmbraTuple:
    """Unit-time IG(a, b) marginal: 1.beta over the compositional inverse of ig_quadratic."""
    return compositional_inverse(ig_quadratic(a, b, order)).dot_t_beta(1)


def inverse_gaussian_closed_form(a: Fraction, b: Fraction, order: int) -> TruncatedSeries:
    """Independent expansion of exp{(b/a)[1 - sqrt(1 - 2 a^2 z / b)]}.

    The square root is the binomial series with rational coefficients;
    no reversion is involved.
    """
    w = Fraction(2) * a * a / b          # sqrt argument is 1 - w z
    # binom(1/2, k) (-w)^k, the ordinary coefficient of z^k, from the last
    root, c = {}, Fraction(1)
    for k in range(order + 1):
        root[(k,)] = c
        c = c * (Fraction(1, 2) - k) * -w / (k + 1)
    sqrt_series = TruncatedSeries.from_ordinary(1, order, root)
    exponent = (TruncatedSeries.one(1, order) - sqrt_series).scale(b / a)
    return series_exp(exponent)


def ig_gf_check(a: Fraction, b: Fraction, order: int) -> bool:
    """True iff the reversion-based IG gf matches the closed form exactly."""
    return inverse_gaussian_one_step(a, b, order).to_series() == \
        inverse_gaussian_closed_form(a, b, order)


def bernoulli_neg_one_step(order: int, dim: int) -> UmbraTuple:
    """One step of the {-t . iota} family, the inverse of the Bernoulli
    tuple: the comonotone lift of a uniform(0,1) r.v., moments 1/(k+1)."""
    uniform = {(k,): Fraction(1, k + 1) for k in range(order + 1)}
    return comonotone_tuple(UmbraTuple(1, order, uniform), dim)


def euler_half_one_step(order: int, dim: int) -> UmbraTuple:
    """One step of the {(1/2)[t . (u - 1 . eta)]} family: the comonotone
    lift of a Bernoulli(1/2) r.v., moments 1 at k = 0 and 1/2 after."""
    coin = {(k,): Fraction(1, 2) if k else 1 for k in range(order + 1)}
    return comonotone_tuple(UmbraTuple(1, order, coin), dim)


def load_custom_moments(path: str | Path) -> UmbraTuple:
    """Load a one-step moment array from the JSON moment-sequence format;
    a moment in t or s, which every check reads as time, is refused."""
    mu = moments_from_json(read_json(path))
    for v, g in mu.moments.items():
        for x in ("t", "s"):
            if isinstance(g, Poly) and g.degree(x):
                raise ValueError(f"moments index {mi.format_index(v)} uses {x}, "
                                 f"which the checks read as time")
    return mu


def moments_from_json(data: Mapping) -> UmbraTuple:
    moments = parse_coeff_map(data, "moments")
    d, order = json_int(data, "d"), json_int(data, "order")
    mi.check_order(order)
    return UmbraTuple(d, order, moments)


def moments_to_json(mu: UmbraTuple, params: Sequence[str] = ()) -> dict:
    """The moment file of mu; each distinct moment is formatted once.  A
    comonotone lift repeats its base's m_n at every v of total degree n,
    so its moments are read off the base, with no index looked up."""
    if mu.base is None:
        g, fmt = mu.moments, cache(str)
        texts = ((v, fmt(g.get(v, 0))) for v in mu.indices())
    else:
        m = mu.base.moments
        texts = ((v, text) for n in range(mu.order + 1)
                 for text in [str(m.get((n,), 0))]
                 for v in mi.iter_indices_of_total(mu.dim, n))
    return {
        "d": mu.dim,
        "order": mu.order,
        "params": list(params),
        "moments": {mi.format_index(v): text for v, text in texts},
    }


def custom_one_step(path: str | Path, order: int, dim: int) -> UmbraTuple:
    """The moment file at path cut at order; it must be d = dim and reach
    that order."""
    loaded = load_custom_moments(path)
    if loaded.dim != dim or loaded.order < order:
        raise ValueError(f"custom moment file {path} has d = {loaded.dim} and order "
                         f"{loaded.order}, but d = {dim} and order {order} were asked for")
    return loaded.truncate(order)


# kind -> ({parameter: default}, one step from (params, order, d)); brownian
# C defaults to the d x d identity and a custom process has no default path
KINDS = {
    "brownian": ({"C": None}, lambda p, order, d: brownian_one_step(p["C"], order)),
    "poisson": ({"rate": Fraction(1)}, lambda p, order, d: comonotone_tuple(
        poisson_one_step(p["rate"], order), d)),
    "gamma": ({"shape": Fraction(1), "scale": Fraction(1)}, lambda p, order, d:
              comonotone_tuple(gamma_one_step(p["shape"], p["scale"], order), d)),
    "inverse_gaussian": ({"a": Fraction(1), "b": Fraction(1)}, lambda p, order, d:
                         comonotone_tuple(inverse_gaussian_one_step(p["a"], p["b"], order), d)),
    "bernoulli_neg": ({}, lambda p, order, d: bernoulli_neg_one_step(order, d)),
    "euler_half": ({}, lambda p, order, d: euler_half_one_step(order, d)),
    "custom": ({"path": None}, lambda p, order, d: custom_one_step(p["path"], order, d)),
}


# The most processes build keeps.  A sweep over processes cycles through
# its specs (the benchmark's tsh_verify through 19), and an LRU smaller
# than a cyclic working set evicts each spec just before it comes round
# again, so it never hits.
BUILD_MEMO_SIZE = 32


def build(spec: ProcessSpec) -> SymbolicProcess:
    """The symbolic process for a validated spec: its kind's one-step
    constructor in KINDS, and the time tuple t.mu.

    Equal specs get the same process, from an LRU of BUILD_MEMO_SIZE keyed
    by the spec itself, which is immutable, and so share the memo of its
    tuples: the caller must not mutate what it gets.  A custom process is
    read from a file that can change, so it is built anew on every call."""
    return _construct(spec) if spec.kind == "custom" else _built(spec)


def _construct(spec: ProcessSpec) -> SymbolicProcess:
    one_step = KINDS[spec.kind][1](spec.params, spec.order, spec.dim)
    return SymbolicProcess(spec, one_step, one_step.dot_t("t"))


_built = lru_cache(maxsize=BUILD_MEMO_SIZE)(_construct)
