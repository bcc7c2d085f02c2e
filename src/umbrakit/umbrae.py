"""Umbral d-tuples as joint moment arrays and the evaluation functional.

A tuple is identified with its joint moments {g_v : |v| <= N}; similar
tuples are equal values, and products across distinct tuples factor by
construction, so uncorrelated copies need no explicit representation.
Moments may be exact rationals or Poly values in declared parameters.

A tuple is its gf f, and every derived array is one series operation on
it: log f, the exp table of log f behind dot_n and dot_t, exp(t (f - 1))
for dot_t_beta and f^p f^q for dot_sum.  Each is built once and kept in
the tuple's one memo, which only this module touches.  The memo lives
as long as the tuple: processes.build keeps the processes it builds, so
a process's memo lasts while build's LRU holds the process.  A shift
E[P(x + tup)] is read off the moments by harmonic.  dot_t_beta is the
one exp(f - 1), as Bell is 1.beta.u and from_cumulants 1.beta over the
cumulants, and inverse_umbra the one reciprocal.

A comonotone tuple (mu, ..., mu) keeps the univariate mu as its base:
its gf is F(z_1 + ... + z_d) for mu's gf F, and z -> z_1 + ... + z_d is
a ring homomorphism of truncated series that commutes with log, exp and
truncation and loses nothing (the coefficient at z_1^n is F's at z^n).
So dot_t, dot_n, the tuple sum of two such tuples and truncate compute
on the bases and keep a base, the moments g_v = m_|v| and == are read
off the base, and the d-variate gf is formed from it only when
to_series is first read, then kept.  Every other op reads to_series.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from . import multiindex as mi
from .polynomials import Coefficient, Poly, as_coefficient
from .series import (_NAUGHT, TruncatedSeries, exp_at, exp_table, index_in,
                     series_compose, series_exp, series_log, series_pow,
                     series_reversion, series_subst, vector_reversion)


class UmbraTuple:
    """A d-tuple of umbral monomials given by its joint moment array."""

    __slots__ = ("dim", "order", "_series", "_memo")
    base = None     # the univariate umbra of a comonotone lift, see _Comonotone

    def __init__(self, dim: int, order: int,
                 moments: Mapping[tuple[int, ...], Coefficient]):
        self._adopt(TruncatedSeries(dim, order, moments))

    def _adopt(self, f: TruncatedSeries) -> None:
        """Take the gf f as the moment array; its coefficients are the moments."""
        if f.constant_term() != 1:
            raise ValueError("moment array must be unital: g_0 = 1")
        self.dim, self.order = f.dim, f.order
        self._series = f
        self._memo = {}     # key -> array derived from f, see _derived

    # -- evaluation ---------------------------------------------------

    @property
    def moments(self) -> Mapping[tuple[int, ...], Coefficient]:
        """The nonzero moments g_v, a read-only view of the gf's coefficients."""
        return self._series.coeffs

    def eval_power(self, v: tuple[int, ...]) -> Coefficient:
        """E[mu^v] = g_v; index_in's error for an index outside (dim, order)."""
        return self.moments.get(index_in(v, self.dim, self.order), _NAUGHT)

    def indices(self):
        return mi.iter_indices(self.dim, self.order)

    def _check(self, other: "UmbraTuple") -> None:
        self.to_series()._check_ring(other.to_series())

    def __eq__(self, other) -> bool:
        if not isinstance(other, UmbraTuple):
            return NotImplemented
        return self.to_series() == other.to_series()

    def __repr__(self) -> str:
        shown = {v: c for v, c in sorted(self.moments.items(),
                                         key=lambda kv: (mi.total(kv[0]), kv[0]))}
        return f"UmbraTuple(d={self.dim}, N={self.order}, {shown})"

    # -- series bridge ------------------------------------------------

    def to_series(self) -> TruncatedSeries:
        """The gf sum_v g_v z^v / v!; shared, not copied."""
        return self._series

    @classmethod
    def from_series(cls, f: TruncatedSeries) -> "UmbraTuple":
        tup = cls.__new__(cls)
        tup._adopt(f)
        return tup

    def component_series(self, i: int) -> TruncatedSeries:
        """Marginal gf of the i-th monomial, living in its own slot z_i."""
        out = {}
        for k in range(self.order + 1):
            v = tuple(k if j == i else 0 for j in range(self.dim))
            out[v] = self.eval_power(v)
        return TruncatedSeries(self.dim, self.order, out)

    def truncate(self, order: int) -> "UmbraTuple":
        """The moments g_v with |v| <= order, as a tuple of that order."""
        f = self._series.truncate(order)
        return self if f is self._series else UmbraTuple.from_series(f)

    def specialize(self, mapping: Mapping[str, Fraction | int]) -> "UmbraTuple":
        """Substitute parameter values into Poly moments; the moment array
        takes each result in the canonical form of as_coefficient."""
        return UmbraTuple.from_series(self.to_series().map_coeffs(
            lambda c: c.subs(mapping) if isinstance(c, Poly) else c))

    # -- auxiliary-umbra constructions --------------------------------

    def tuple_sum(self, other: "UmbraTuple") -> "UmbraTuple":
        """Sum of uncorrelated tuples: gf f g."""
        return UmbraTuple.from_series(self.to_series() * other.to_series())

    __add__ = tuple_sum

    def disjoint_sum(self, other: "UmbraTuple") -> "UmbraTuple":
        """Moments add for v != 0: gf f + g - 1."""
        one = TruncatedSeries.one(self.dim, self.order)
        return UmbraTuple.from_series(self.to_series() + other.to_series() - one)

    def scale(self, c: Coefficient) -> "UmbraTuple":
        """Scalar rescaling: g_v -> c^{|v|} g_v."""
        c = as_coefficient(c)
        return UmbraTuple(self.dim, self.order,
                          {v: (c ** mi.total(v)) * g for v, g in self.moments.items()})

    def linear_map(self, matrix: Sequence[Sequence[Coefficient]]) -> "UmbraTuple":
        """Tuple transformed by a matrix: f(nu C^T, z) = f(nu, z C)."""
        d = self.dim
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise ValueError(f"matrix must be {d}x{d}")
        units = [tuple(int(r == i) for r in range(d)) for i in range(d)]
        inners = [TruncatedSeries(d, self.order, {units[i]: matrix[i][j] for i in range(d)})
                  for j in range(d)]
        return UmbraTuple.from_series(series_subst(self.to_series(), inners))

    def _derived(self, key, build):
        """The array that build() derives from the gf, built once per tuple
        and kept under key: "log" (log f), "exp" (the exp_table of log f),
        ("pow", p), ("beta", p) and ("sum", p, q) (dot-product tuples and
        their sums).  Callers share it and must not mutate it."""
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = build()
        return out

    def _log_series(self) -> TruncatedSeries:
        """log f, for the exp table and cumulant_tuple."""
        return self._derived("log", lambda: series_log(self.to_series()))

    def _pow(self, p: Coefficient) -> "UmbraTuple":
        """The tuple with gf f^p = exp(p log f), summed by exp_at on the
        exp_table of log f, so the few time arguments a process uses (t,
        -t, t - s) each cost one pass over one table."""
        def build():
            table = self._derived("exp", lambda: exp_table(self._log_series()))
            return UmbraTuple.from_series(exp_at(table, p, self.dim, self.order))
        return self._derived(("pow", p), build)

    def dot_n(self, n: int) -> "UmbraTuple":
        """n-fold sum of uncorrelated copies; gf f^n."""
        if n < 0:
            raise ValueError("dot_n needs n >= 0; use inverse_umbra for -1")
        return self._pow(Fraction(n))

    def dot_t(self, t: Coefficient | str) -> "UmbraTuple":
        """Dot-product with a parameter: gf f^t = exp(t log f), so the
        moments are polynomials in t."""
        return self._pow(time_argument(t))

    def dot_sum(self, p: Coefficient | str, q: Coefficient | str) -> "UmbraTuple":
        """The tuple sum p.mu + q.mu, gf f^p f^q, formed once per (p, q)."""
        p, q = time_argument(p), time_argument(q)
        return self._derived(("sum", p, q), lambda: self.dot_t(p) + self.dot_t(q))

    def dot_t_beta(self, t: Coefficient | str) -> "UmbraTuple":
        """Composition-style dot-product: gf exp(t (f - 1)), one series_exp."""
        p = time_argument(t)
        def build():
            h = self.to_series() - TruncatedSeries.one(self.dim, self.order)
            return UmbraTuple.from_series(series_exp(h.scale(p)))
        return self._derived(("beta", p), build)

    def inverse_umbra(self) -> "UmbraTuple":
        """The -1 dot-product: gf is the reciprocal series, f**-1."""
        return UmbraTuple.from_series(series_pow(self.to_series(), -1))

    def cumulant_tuple(self) -> "UmbraTuple":
        """Tuple whose moments are the joint cumulants: gf 1 + log f."""
        one = TruncatedSeries.one(self.dim, self.order)
        return UmbraTuple.from_series(one + self._log_series())

    @staticmethod
    def from_cumulants(c: "UmbraTuple") -> "UmbraTuple":
        """Inverse of cumulant_tuple: 1.beta.c, gf exp(f_c - 1)."""
        return c.dot_t_beta(1)


def time_argument(t: Coefficient | str) -> Coefficient:
    """A time argument as a coefficient: a name is its variable, any
    other value its as_coefficient."""
    return Poly.var(t) if isinstance(t, str) else as_coefficient(t)


# -- composition of univariate umbrae --------------------------------

def dot_umbra(gamma: UmbraTuple, alpha: UmbraTuple) -> UmbraTuple:
    """gamma . alpha for univariate umbrae: gf f(gamma, log f(alpha, z))."""
    if gamma.dim != 1 or alpha.dim != 1:
        raise ValueError("dot_umbra is defined for univariate umbrae")
    return UmbraTuple.from_series(
        series_compose(gamma.to_series(), series_log(alpha.to_series())))


def dot_beta_tuple(gamma: UmbraTuple, nu: UmbraTuple) -> UmbraTuple:
    """gamma . beta . nu with univariate gamma and a d-tuple nu.

    gf f(gamma, f(nu, z) - 1); reduces to dot_t_beta when gamma has the
    moments t^k.
    """
    if gamma.dim != 1:
        raise ValueError("outer umbra must be univariate")
    inner = nu.to_series() - TruncatedSeries.one(nu.dim, nu.order)
    return UmbraTuple.from_series(series_compose(gamma.to_series(), inner))


def compositional_inverse(alpha: UmbraTuple) -> UmbraTuple:
    """Umbra whose gf is the series reversion of f(alpha, z)."""
    if alpha.dim != 1:
        raise ValueError("compositional inverse of a single umbra is univariate")
    return UmbraTuple.from_series(series_reversion(alpha.to_series()))


def multivariate_comp_inverse(nu: UmbraTuple) -> UmbraTuple:
    """The d-tuple inverse: components invert the map z -> (f_i(z) - 1).

    Component series of nu are the marginals, each in its own slot; the
    inverse components then decouple and the returned joint tuple takes
    independent components (joint gf = product of component gfs).
    """
    joint, *rest = vector_reversion([nu.component_series(i) for i in range(nu.dim)])
    for g in rest:
        joint = joint * g
    return UmbraTuple.from_series(joint)


# -- special umbrae ---------------------------------------------------

def augmentation(order: int, dim: int = 1) -> UmbraTuple:
    """All moments zero: gf 1."""
    return UmbraTuple(dim, order, {(0,) * dim: 1})


def unity(order: int, dim: int = 1) -> UmbraTuple:
    """All moments one: gf e^{z_1 + ... + z_d}."""
    return UmbraTuple(dim, order, {v: 1 for v in mi.iter_indices(dim, order)})


def singleton(order: int) -> UmbraTuple:
    """Moments (1, 1, 0, 0, ...): gf 1 + z."""
    return singleton_component(order, 1, 0)


def singleton_component(order: int, dim: int, i: int) -> UmbraTuple:
    """The tuple with gf 1 + z_i (singleton in slot i, augmentation elsewhere)."""
    return UmbraTuple.from_series(TruncatedSeries.one(dim, order)
                                  + TruncatedSeries.variable(dim, order, i))


def bell(order: int) -> UmbraTuple:
    """Moments are the Bell numbers: 1.beta.u, gf exp(e^z - 1)."""
    return unity(order).dot_t_beta(1)


def gaussian_delta(order: int) -> UmbraTuple:
    """gf 1 + z^2/2: second moment 1, all others zero."""
    return gaussian_delta_tuple(order, 1)


def gaussian_delta_tuple(order: int, dim: int) -> UmbraTuple:
    """Multivariate version: gf 1 + z z^T / 2."""
    ms = {(0,) * dim: 1}
    if order >= 2:
        for i in range(dim):
            ms[tuple(2 if j == i else 0 for j in range(dim))] = 1
    return UmbraTuple(dim, order, ms)


def bernoulli_umbra(order: int) -> UmbraTuple:
    """Moments are the Bernoulli numbers: gf z / (e^z - 1), the inverse
    of the uniform(0,1) law, whose gf (e^z - 1)/z has moments 1/(k+1)."""
    uniform = {(k,): Fraction(1, k + 1) for k in range(order + 1)}
    return UmbraTuple(1, order, uniform).inverse_umbra()


def euler_umbra(order: int) -> UmbraTuple:
    """Moments are the Euler (secant) numbers: gf 2 e^z / (e^{2z} + 1)
    = 1 / cosh z, the inverse of the tuple with moments 1 at even k."""
    return UmbraTuple(1, order, {(k,): 1 for k in range(0, order + 1, 2)}).inverse_umbra()


def comonotone_tuple(univariate: UmbraTuple, dim: int) -> UmbraTuple:
    """Joint tuple (mu, ..., mu) of identical copies of one umbra.

    Components share support, so joint moments collapse to single-umbra
    moments of the total degree: g_v = m_{|v|}.  For dim 1 this is the
    umbra itself.  The gf is the univariate one at z_1 + ... + z_d; for
    dim > 1 the tuple keeps the umbra as its base and forms that gf only
    when to_series is first read.
    """
    if univariate.dim != 1:
        raise ValueError("need a univariate umbra")
    return univariate if dim == 1 else _Comonotone(univariate, dim)


class _Comonotone(UmbraTuple):
    """The comonotone lift of its univariate base to dim > 1: the ops the
    lift z -> z_1 + ... + z_d commutes with run on the base, and the
    d-variate gf is formed on first read of to_series."""

    __slots__ = ("base", "_moments")

    def __init__(self, base: UmbraTuple, dim: int):
        self.dim, self.order = dim, base.order
        self.base, self._series, self._moments, self._memo = base, None, None, {}

    @property
    def moments(self) -> Mapping[tuple[int, ...], Coefficient]:
        """g_v = m_|v| at every v, a read-only view built on first read."""
        if self._moments is None:
            m = self.base.moments
            self._moments = MappingProxyType({v: m[(n,)] for n in range(self.order + 1)
                                              if (n,) in m
                                              for v in mi.iter_indices_of_total(self.dim, n)})
        return self._moments

    def __eq__(self, other) -> bool:
        if isinstance(other, UmbraTuple) and other.base is not None:
            return self.dim == other.dim and self.base == other.base
        return super().__eq__(other)

    def to_series(self) -> TruncatedSeries:
        if self._series is None:
            z_sum = TruncatedSeries(self.dim, self.order,
                                    dict.fromkeys(mi.iter_indices_of_total(self.dim, 1), 1))
            self._series = series_subst(self.base.to_series(), [z_sum])
        return self._series

    def truncate(self, order: int) -> UmbraTuple:
        base = self.base.truncate(order)
        return self if base is self.base else _Comonotone(base, self.dim)

    def tuple_sum(self, other: UmbraTuple) -> UmbraTuple:
        if other.base is not None and (other.dim, other.order) == (self.dim, self.order):
            return _Comonotone(self.base.tuple_sum(other.base), self.dim)
        return super().tuple_sum(other)

    __add__ = tuple_sum

    def _pow(self, p: Coefficient) -> UmbraTuple:
        return self._derived(("pow", p), lambda: _Comonotone(self.base._pow(p), self.dim))
