"""Truncated exponential formal power series in d variables.

A series sum_v g_v z^v / v! cut at total degree N, with exact rational
or Poly coefficients, is stored as its homogeneous parts: part n is one
Poly in the coefficient parameters (t, s, ...) and reserved variables
~z1, ..., ~zd for z, whose coefficient of z^v with |v| = n is the
ordinary coefficient g_v / v!.  These names sort after every identifier
and parse_poly never produces them.

Every operation reads and returns parts.  Each part of a result is a
sum of products of parts (a truncated Cauchy product, a recurrence
step, a dot product's sum over powers, a reversion round), and each is
one accumulation, polynomials._dot, over one denominator, with no Poly
made per product.  A coefficient map meets the parts only at the boundary:
the constructor grades a dict of exponential coefficients once with
from_coeff_map (weight v!), and .coeffs is a read-only view of it, built
with to_coeff_map on first read.

The Euler operator E = sum_i z_i d/dz_i multiplies the degree-n part by
n, so exp, log and f**(p/q) are recurrences on the parts with int
weights (Knuth, TAOCP vol. 2, 4.7), each about one truncated product;
the reciprocal is f**-1, and f**e for a Poly e is exp(e log f).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .multiindex import mi_factorial, total
from .polynomials import (Coefficient, Poly, _binary_power, _dot, _scale, _sum,
                          as_coefficient, as_poly, from_coeff_map, to_coeff_map)


_NAUGHT = Fraction(0)   # the coefficient off the support, shared: a Fraction is immutable


class OrderMismatchError(ValueError):
    """Operands live in different truncation rings."""


class TruncatedSeries:
    """Multivariate egf truncated at a fixed total order, stored as its
    homogeneous parts."""

    __slots__ = ("dim", "order", "_parts", "_view")

    def __init__(self, dim: int, order: int,
                 coeffs: Mapping[tuple[int, ...], Coefficient] | None = None):
        if dim < 1 or order < 0:
            raise ValueError(f"bad ring parameters d={dim}, N={order}")
        by_degree: list[dict] = [{} for _ in range(order + 1)]
        for v, c in (coeffs or {}).items():
            try:
                v = index_in(v, dim, order)
            except OrderMismatchError:
                continue    # a coefficient above the order is cut
            c = as_coefficient(c)
            _check_params(c, dim)
            by_degree[total(v)][v] = c
        zs = _z_vars(dim)
        self.dim, self.order, self._view = dim, order, None
        self._parts = [from_coeff_map(cs, zs, mi_factorial) if cs else _empty(dim)
                       for cs in by_degree]

    # -- basics -------------------------------------------------------

    @classmethod
    def one(cls, dim: int, order: int) -> "TruncatedSeries":
        return _from_parts(dim, order, [_unit(dim)] + [_empty(dim)] * order)

    @classmethod
    def variable(cls, dim: int, order: int, i: int) -> "TruncatedSeries":
        """The series z_i (exponential coefficient 1 on the i-th unit index)."""
        if not 0 <= i < dim:
            raise ValueError(f"slot {i} is not in [0, {dim})")
        e = tuple(1 if j == i else 0 for j in range(dim))
        return cls(dim, order, {e: 1})

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], Coefficient]:
        """The nonzero exponential coefficients g_v: a read-only view,
        built from the parts on first read."""
        if self._view is None:
            self._view = MappingProxyType(_read(self, mi_factorial))
        return self._view

    def get(self, v: tuple[int, ...]) -> Coefficient:
        return self.coeffs.get(index_in(v, self.dim, self.order), _NAUGHT)

    def truncate(self, order: int) -> "TruncatedSeries":
        """The same series in the ring of a lower order: its parts up to order."""
        if not 0 <= order <= self.order:
            raise OrderMismatchError(f"cannot truncate order {self.order} to {order}")
        if order == self.order:
            return self
        return _from_parts(self.dim, order, self._parts[:order + 1])

    def constant_term(self) -> Coefficient:
        zero = (0,) * self.dim
        return to_coeff_map(self._parts[0], _z_vars(self.dim)).get(zero, _NAUGHT)

    def _check_ring(self, other: "TruncatedSeries") -> None:
        if self.dim != other.dim or self.order != other.order:
            raise OrderMismatchError(
                f"ring mismatch: (d={self.dim}, N={self.order}) vs "
                f"(d={other.dim}, N={other.order})")

    def ordinary(self) -> dict[tuple[int, ...], Coefficient]:
        """The nonzero ordinary coefficients a_v = g_v / v!, read from the parts."""
        return _read(self, None)

    @classmethod
    def from_ordinary(cls, dim: int, order: int,
                      coeffs: Mapping[tuple[int, ...], Coefficient]) -> "TruncatedSeries":
        return cls(dim, order,
                   {v: c * mi_factorial(v) for v, c in coeffs.items()})

    def map_coeffs(self, fn: Callable[[Coefficient], Coefficient]) -> "TruncatedSeries":
        return TruncatedSeries(self.dim, self.order,
                               {v: fn(c) for v, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.dim != other.dim or self.order != other.order:
            return False
        return all(p == q for p, q in zip(self._parts, other._parts))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {c}" for v, c in sorted(self.coeffs.items(),
                                                         key=lambda kv: (total(kv[0]), kv[0])))
        return f"TruncatedSeries(d={self.dim}, N={self.order}, {{{inner}}})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_ring(other)
        return _from_parts(self.dim, self.order, list(map(_add, self._parts, other._parts)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return _from_parts(self.dim, self.order, [_scale(part, -1, 1) for part in self._parts])

    def scale(self, c: Coefficient) -> "TruncatedSeries":
        c = as_coefficient(c)
        _check_params(c, self.dim)
        if type(c) is Poly:
            parts = [_dot(((c, part, 1, 1),)) for part in self._parts]
        else:
            parts = [_scale(part, c.numerator, c.denominator) for part in self._parts]
        return _from_parts(self.dim, self.order, parts)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_ring(other)
        return _from_parts(self.dim, self.order,
                           _mul_parts(self._parts, other._parts, self.dim, self.order))

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative power; use series_pow(f, -1)")
        return _binary_power(self, n, TruncatedSeries.one(self.dim, self.order))


def index_in(v: Sequence[int], dim: int, order: int) -> tuple[int, ...]:
    """v as a tuple if it indexes the ring (dim, order): dim entries, none
    negative (else ValueError), total at most order (else OrderMismatchError)."""
    if type(v) is not tuple:
        v = tuple(v)
    if len(v) != dim:
        raise ValueError(f"index {v} has wrong dimension (d={dim})")
    if min(v) < 0:
        raise ValueError(f"index {v} has a negative entry")
    if sum(v) > order:
        raise OrderMismatchError(f"|{v}| exceeds truncation order {order}")
    return v


def series_exp(f: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term (pass f - 1 for a gf).

    g = exp(h) solves E g = (E h) g: n g_n = sum_{k=1..n} k h_k g_{n-k}.
    """
    if f.constant_term() != 0:
        raise ValueError("series_exp needs zero constant term")
    return _recurrence(f, lambda n, k: k)


def series_log(f: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1; result has zero constant term.

    h = log f solves E f = (E h) f: n h_n = n f_n - sum_{k=1..n-1} k h_k f_{n-k}.
    """
    if f.constant_term() != 1:
        raise ValueError("series_log needs constant term 1")
    fp, unit = f._parts, _unit(f.dim)
    h = [_empty(f.dim)]
    for n in range(1, f.order + 1):
        h.append(_dot([(fp[n], unit, 1, 1)] + [(h[k], fp[n - k], -k, n) for k in range(1, n)
                                               if h[k]._nums and fp[n - k]._nums]))
    return _from_parts(f.dim, f.order, h)


def series_pow(f: TruncatedSeries, e: Coefficient) -> TruncatedSeries:
    """f**e for a series with constant term 1 and any rational or Poly e.

    A Poly e with a variable gives exp(e log f): log f is rational when f
    is, and exp's weight k is an int, so each pair costs one product.  A
    rational e = p/q gives J.C.P. Miller's recurrence: g = f**e solves
    f E g = e (E f) g, so q n g_n = sum_{k=1..n} ((p + q) k - q n) f_k g_{n-k}.
    The reciprocal is e = -1, where the weight is -n over n.
    """
    if f.constant_term() != 1:
        raise ValueError("series_pow needs constant term 1")
    e = as_coefficient(e)
    if type(e) is Poly:
        return series_exp(series_log(f).scale(e))
    p, q = e.numerator, e.denominator
    return _recurrence(f, lambda n, k: (p + q) * k - q * n, q)


def series_subst(f: TruncatedSeries,
                 inners: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """Substitute z_i -> inners[i] into f; every inner must vanish at 0.

    The inners share one target ring, which becomes the result's ring.
    A monomial z^v maps into degrees >= |v|, so those with |v| above the
    target order are skipped, and each inner is raised only to the
    largest exponent that f uses in its variable.
    """
    if len(inners) != f.dim:
        raise ValueError(f"need {f.dim} inner series, got {len(inners)}")
    tgt = inners[0]
    for h in inners:
        tgt._check_ring(h)
        if h.constant_term() != 0:
            raise ValueError("inner series must have zero constant term")
    order, dim = tgt.order, tgt.dim
    terms = [(v, as_poly(c)) for v, c in f.ordinary().items() if total(v) <= order]
    one = [_unit(dim)]
    pows = []
    for i, h in enumerate(inners):
        hp = h._parts
        ps = [one, hp]
        for _ in range(2, max((v[i] for v, _ in terms), default=0) + 1):
            ps.append(_mul_parts(ps[-1], hp, dim, order))
        pows.append(ps)
    sums = [[] for _ in range(order + 1)]   # the terms of each part of the result
    for v, c in terms:
        term = one
        for i, k in enumerate(v):
            if k:
                term = pows[i][k] if term is one else _mul_parts(term, pows[i][k], dim, order)
        for n, part in enumerate(term):
            if part._nums:
                sums[n].append((c, part, 1, 1))
    return _from_parts(dim, order, [_part(dim, s) for s in sums])


def series_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Composition g(h) with univariate outer g and zero-constant inner h."""
    if outer.dim != 1:
        raise ValueError("outer series must be univariate")
    return series_subst(outer, [inner])


def exp_table(h: TruncatedSeries) -> list[list[Poly]]:
    """Homogeneous parts of h^k / k!, k = 0..N, for h with zero constant term.

    Each power is one part product with the last, divided by k.
    """
    if h.constant_term() != 0:
        raise ValueError("exp_table needs zero constant term")
    dim, order = h.dim, h.order
    hp = h._parts
    term = [_unit(dim)] + [_empty(dim)] * order
    table = [term]
    for k in range(1, order + 1):
        term = _mul_parts(term, hp, dim, order, k)
        table.append(term)
    return table


def exp_at(table: Sequence[Sequence[Poly]], p: Coefficient,
           dim: int, order: int) -> TruncatedSeries:
    """exp(p h) = sum_k p^k [h^k / k!] from the exp_table of h, for a
    rational or Poly p: part deg is one _dot of the p^k T_k[deg].
    """
    p = as_poly(as_coefficient(p))
    _check_params(p, dim)
    powers = [_unit(dim), p]   # p^k
    for _ in range(2, order + 1):
        powers.append(powers[-1] * p)
    parts = [table[0][0]]
    for deg in range(1, order + 1):
        parts.append(_part(dim, [(powers[k], table[k][deg], 1, 1) for k in range(1, deg + 1)
                                 if table[k][deg]._nums]))
    return _from_parts(dim, order, parts)


def series_reversion(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse relative to 1 + z: vector_reversion at d = 1.

    For univariate f = 1 + a1 z + ... with a1 != 0, returns the series
    g = 1 + G(z) with (f - 1)(G(z)) = z, so that f(g - 1) = 1 + z.  At
    N = 0 both sides are 1, and the inverse is the unit series.
    """
    if f.dim != 1:
        raise ValueError("reversion implemented for univariate series")
    return vector_reversion([f])[0]


def vector_reversion(fs: Sequence[TruncatedSeries]) -> list[TruncatedSeries]:
    """Formal inverse of the vector map z -> (f_1(z)-1, ..., f_d(z)-1).

    Each f_i is a d-variate series with constant term 1; the Jacobian of
    the map at 0 must be invertible.  Returns series g_i = 1 + G_i with
    (f_i - 1)(G_1, ..., G_d) = z_i, solved order by order (the unit
    series at N = 0).  With G right through degree n - 1, the degree-n
    part of every monomial G^v with |v| >= 2 is final, and the degree-n
    error of (f_i - 1)(G) fixes the degree-n part of G through the
    inverse Jacobian.  Each G^v is built as G^(v - e_j) G_j, one degree
    per round, and shared by the d components; it is built only for the
    monomials some f_i uses and their chains of such parents, so that a
    series with few terms, such as a quadratic, needs few powers.
    """
    if not fs:
        raise ValueError("vector_reversion needs at least one component series")
    d = len(fs)
    order = fs[0].order
    for f in fs:
        fs[0]._check_ring(f)
        if f.dim != d:
            raise ValueError("component series dimension must match tuple size")
        if f.constant_term() != 1:
            raise ValueError("component series must have constant term 1")
    if order == 0:
        return [TruncatedSeries.one(d, order)] * d
    unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    ords = [f.ordinary() for f in fs]
    jinv = _invert_matrix([
        [a.get(e, _NAUGHT) for e in unit] for a in ords])

    # ordinary coefficients of degree >= 2, the only ones the error reads
    Fs = [{v: as_poly(c) for v, c in a.items() if total(v) >= 2} for a in ords]
    # v -> (j, v - e_j) with j the first nonzero entry, for each G^v built
    parent = {}
    for F in Fs:
        for v in F:
            while total(v) >= 2 and v not in parent:
                j = next(i for i, k in enumerate(v) if k)
                parent[v] = j, v[:j] + (v[j] - 1,) + v[j + 1:]
                v = parent[v][1]
    chain = sorted((total(v), v, *jp) for v, jp in parent.items())
    # homogeneous parts of g_i = 1 + G_i, one appended per degree
    zs, one = _z_vars(d), _unit(d)
    G = [[one, from_coeff_map(dict(zip(unit, row)), zs)] for row in jinv]
    mono = {unit[j]: G[j] for j in range(d)}   # v -> homogeneous parts of G^v
    for deg in range(2, order + 1):
        err = [[] for _ in range(d)]   # the terms of the degree-deg error of each f_i
        for n, v, j, p in chain:
            if n > deg:
                break
            base = mono[p]
            part = _part(d, [(base[k], G[j][deg - k], 1, 1) for k in range(n - 1, deg)
                             if base[k]._nums and G[j][deg - k]._nums])
            mono.setdefault(v, [_empty(d)] * n).append(part)
            if part._nums:
                for i in range(d):
                    a = Fs[i].get(v)
                    if a is not None:
                        err[i].append((a, part, 1, 1))
        err = [_part(d, terms) for terms in err]
        for g, row in zip(G, jinv):
            g.append(_part(d, [(e, one, -x.numerator, x.denominator)
                               for e, x in zip(err, row) if x and e._nums]))
    return [_from_parts(d, order, g) for g in G]


# -- homogeneous parts ------------------------------------------------

@lru_cache(maxsize=None)
def _z_vars(dim: int) -> tuple[str, ...]:
    """The reserved names of z_1..z_d, zero-padded so they sort in order."""
    width = len(str(dim))
    return tuple(f"~z{i:0{width}d}" for i in range(1, dim + 1))


@lru_cache(maxsize=None)
def _empty(dim: int) -> Poly:
    return from_coeff_map({}, _z_vars(dim))


@lru_cache(maxsize=None)
def _unit(dim: int) -> Poly:
    return from_coeff_map({(0,) * dim: 1}, _z_vars(dim))


def _check_params(c: Coefficient, dim: int) -> None:
    """Raise unless every variable of c sorts before the reserved names."""
    if type(c) is Poly and c.vars and c.vars[-1] >= _z_vars(dim)[0]:
        raise ValueError(f"variable {c.vars[-1]!r} does not sort before the "
                         f"reserved series variables")


def _from_parts(dim: int, order: int, parts: list[Poly]) -> TruncatedSeries:
    """The series whose homogeneous parts are parts, unchecked."""
    out = TruncatedSeries.__new__(TruncatedSeries)
    out.dim, out.order, out._parts, out._view = dim, order, parts, None
    return out


def _read(f: TruncatedSeries, weight) -> dict:
    """The nonzero coefficients of f, ordinary ones times weight(v)."""
    zs = _z_vars(f.dim)
    return {v: c for part in f._parts if part._nums
            for v, c in to_coeff_map(part, zs, weight).items()}


def _add(p: Poly, q: Poly) -> Poly:
    """p + q for two parts."""
    if not q._nums:
        return p
    if not p._nums:
        return q
    return _sum(p, q, 1)


def _part(dim: int, terms: list[tuple[Poly, Poly, int, int]]) -> Poly:
    """The part sum n/d a b over the terms (a, b, n, d): one _dot, or the
    empty part when there are no terms."""
    return _dot(terms) if terms else _empty(dim)


def _recurrence(f: TruncatedSeries, weight: Callable[[int, int], int],
                q: int = 1) -> TruncatedSeries:
    """The series g with g_0 = 1 and
    q n g_n = sum_{k=1..n} weight(n, k) f_k g_{n-k} on homogeneous parts,
    for an int weight and q > 0, each part one _dot."""
    fp = f._parts
    g = [_unit(f.dim)]
    for n in range(1, f.order + 1):
        terms = []
        for k in range(1, n + 1):
            if fp[k]._nums and g[n - k]._nums:
                w = weight(n, k)
                if w:
                    terms.append((fp[k], g[n - k], w, q * n))
        g.append(_part(f.dim, terms))
    return _from_parts(f.dim, f.order, g)


def _mul_parts(p: Sequence[Poly], q: Sequence[Poly], dim: int, order: int,
               d: int = 1) -> list[Poly]:
    """Homogeneous parts of the product p q / d, truncated at order, each
    one _dot."""
    out = []
    for n in range(order + 1):
        # every i with p[i] and q[n - i] in range
        out.append(_part(dim, [(p[i], q[n - i], 1, d)
                               for i in range(max(0, n + 1 - len(q)), min(n + 1, len(p)))
                               if p[i]._nums and q[n - i]._nums]))
    return out


def _invert_matrix(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse; raises on a singular matrix."""
    d = len(m)
    a = [
        [Fraction(m[i][j]) for j in range(d)]
        + [Fraction(int(i == j)) for j in range(d)]
        for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular first-order coefficient matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(d):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[d:] for row in a]
