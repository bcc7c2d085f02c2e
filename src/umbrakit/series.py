"""Truncated exponential formal power series in d variables.

Coefficients are exact rationals (or Poly values for parameterized
series).  A series stores the exponential coefficients g_v, i.e. it
denotes  sum_v g_v z^v / v!  cut at total degree N.  The arithmetic
kernel works on ordinary coefficients a_v = g_v / v! and converts back,
which turns the binomial convolution into a plain Cauchy product.

The kernel groups the ordinary coefficients into homogeneous parts by
total degree.  The Euler operator E = sum_i z_i d/dz_i multiplies the
degree-n part by n, so exp, log, reciprocal and pow follow from
recurrences on the parts (Knuth, TAOCP vol. 2, 4.7) and each costs about
one truncated product.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Mapping, Sequence

from .multiindex import iter_indices_of_total, mi_factorial, total
from .polynomials import Coefficient, as_coefficient, coeff_is_zero


class OrderMismatchError(ValueError):
    """Operands live in different truncation rings."""


class TruncatedSeries:
    """Multivariate egf truncated at a fixed total order."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int,
                 coeffs: Mapping[tuple[int, ...], Coefficient] | None = None):
        if dim < 1 or order < 0:
            raise ValueError(f"bad ring parameters d={dim}, N={order}")
        cs = {}
        for v, c in (coeffs or {}).items():
            v = tuple(v)
            if len(v) != dim:
                raise ValueError(f"index {v} has wrong dimension (d={dim})")
            if total(v) > order:
                continue
            c = as_coefficient(c)
            if not coeff_is_zero(c):
                cs[v] = c
        self.dim = dim
        self.order = order
        self.coeffs = cs

    # -- basics -------------------------------------------------------

    @classmethod
    def one(cls, dim: int, order: int) -> "TruncatedSeries":
        return cls(dim, order, {(0,) * dim: 1})

    @classmethod
    def zero(cls, dim: int, order: int) -> "TruncatedSeries":
        return cls(dim, order, {})

    @classmethod
    def variable(cls, dim: int, order: int, i: int) -> "TruncatedSeries":
        """The series z_i (exponential coefficient 1 on the i-th unit index)."""
        e = tuple(1 if j == i else 0 for j in range(dim))
        return cls(dim, order, {e: 1})

    def get(self, v: tuple[int, ...]) -> Coefficient:
        if total(v) > self.order:
            raise OrderMismatchError(f"|{v}| exceeds truncation order {self.order}")
        return self.coeffs.get(tuple(v), Fraction(0))

    def constant_term(self) -> Coefficient:
        return self.coeffs.get((0,) * self.dim, Fraction(0))

    def _check_ring(self, other: "TruncatedSeries") -> None:
        if self.dim != other.dim or self.order != other.order:
            raise OrderMismatchError(
                f"ring mismatch: (d={self.dim}, N={self.order}) vs "
                f"(d={other.dim}, N={other.order})")

    def ordinary(self) -> dict[tuple[int, ...], Coefficient]:
        return {v: c * Fraction(1, mi_factorial(v)) for v, c in self.coeffs.items()}

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
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeffs.get(k, 0) == other.coeffs.get(k, 0) for k in keys)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {c}" for v, c in sorted(self.coeffs.items(),
                                                         key=lambda kv: (total(kv[0]), kv[0])))
        return f"TruncatedSeries(d={self.dim}, N={self.order}, {{{inner}}})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_ring(other)
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, Fraction(0)) + c
        return TruncatedSeries(self.dim, self.order, out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return self.map_coeffs(lambda c: -c)

    def scale(self, c: Coefficient) -> "TruncatedSeries":
        return self.map_coeffs(lambda x: x * c)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_ring(other)
        return _ungraded(self.dim, self.order,
                         _mul_parts(_graded(self), _graded(other), self.order))

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative power; use reciprocal")
        out = TruncatedSeries.one(self.dim, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def series_exp(f: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term (pass f - 1 for a gf).

    g = exp(h) solves E g = (E h) g: n g_n = sum_{k=1..n} k h_k g_{n-k}.
    """
    if not coeff_is_zero(f.constant_term()):
        raise ValueError("series_exp needs zero constant term")
    return _recurrence(f, lambda n, k: k)


def series_log(f: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1; result has zero constant term.

    h = log f solves E f = (E h) f: n h_n = n f_n - sum_{k=1..n-1} k h_k f_{n-k}.
    """
    if f.constant_term() != 1:
        raise ValueError("series_log needs constant term 1")
    fp = _graded(f)
    h: list[dict] = [{}]
    for n in range(1, f.order + 1):
        acc = {v: n * c for v, c in fp[n].items()}
        for k in range(1, n):
            _addmul(acc, -k, h[k], fp[n - k])
        inv = Fraction(1, n)
        h.append({v: c * inv for v, c in acc.items()})
    return _ungraded(f.dim, f.order, h)


def reciprocal(f: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with constant term 1.

    This is f**-1, for which the weight of series_pow is -n.
    """
    if f.constant_term() != 1:
        raise ValueError("reciprocal needs constant term 1")
    return _recurrence(f, lambda n, k: -n)


def series_pow(f: TruncatedSeries, e: Coefficient) -> TruncatedSeries:
    """f**e for a series with constant term 1 and any rational or Poly e.

    J.C.P. Miller's recurrence: g = f**e solves f E g = e (E f) g, so
    n g_n = sum_{k=1..n} (e k - (n - k)) f_k g_{n-k}.
    """
    if f.constant_term() != 1:
        raise ValueError("series_pow needs constant term 1")
    e = as_coefficient(e)
    return _recurrence(f, lambda n, k: e * k - (n - k))


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
        if not coeff_is_zero(h.constant_term()):
            raise ValueError("inner series must have zero constant term")
    order = tgt.order
    terms = [(v, c) for v, c in f.ordinary().items() if total(v) <= order]
    one = [{(0,) * tgt.dim: Fraction(1)}]
    pows = []
    for i, h in enumerate(inners):
        hp = _graded(h)
        ps = [one, hp]
        for _ in range(2, max((v[i] for v, _ in terms), default=0) + 1):
            ps.append(_mul_parts(ps[-1], hp, order))
        pows.append(ps)
    out: list[dict] = [{} for _ in range(order + 1)]
    for v, c in terms:
        term = one
        for i, k in enumerate(v):
            if k:
                term = pows[i][k] if term is one else _mul_parts(term, pows[i][k], order)
        for n, part in enumerate(term):
            _add_scaled(out[n], c, part)
    return _ungraded(tgt.dim, order, out)


def series_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Composition g(h) with univariate outer g and zero-constant inner h."""
    if outer.dim != 1:
        raise ValueError("outer series must be univariate")
    return series_subst(outer, [inner])


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """d/dz of a univariate series (result truncated at the same order)."""
    if f.dim != 1:
        raise ValueError("derivative implemented for univariate series")
    out = {}
    for (k,), c in f.ordinary().items():
        if k >= 1:
            out[(k - 1,)] = c * k
    return TruncatedSeries.from_ordinary(1, f.order, out)


def divide(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """num / den for univariate den with invertible rational constant term."""
    c0 = den.constant_term()
    if coeff_is_zero(c0):
        raise ValueError("division by series with zero constant term")
    inv0 = Fraction(1) / c0
    return num * reciprocal(den.scale(inv0)).scale(inv0)


def series_reversion(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse relative to 1 + z.

    For univariate f = 1 + a1 z + ... with a1 != 0, returns the series
    g = 1 + G(z) with (f - 1)(G(z)) = z, so that f(g - 1) = 1 + z.
    Newton iteration with precision doubling (Brent & Kung 1978): when G
    is right through degree m, the step G <- G - (F(G) - z) G' is right
    through degree 2m, so it runs in the ring truncated at min(2m, N).
    G' stands in for 1 / F'(G): their product is 1 through degree m - 1,
    and F(G) - z vanishes through degree m.
    """
    if f.dim != 1:
        raise ValueError("reversion implemented for univariate series")
    one = TruncatedSeries.one(1, f.order)
    F = f - one
    a1 = F.get((1,))
    if coeff_is_zero(a1):
        raise ValueError("no compositional inverse: first-order coefficient is zero")
    g = {(1,): Fraction(1) / a1}
    m = 1
    while m < f.order:
        m = min(2 * m, f.order)
        G = TruncatedSeries(1, m, g)
        res = series_subst(TruncatedSeries(1, m, F.coeffs), [G]) \
            - TruncatedSeries.variable(1, m, 0)
        g = (G - res * derivative(G)).coeffs
    return one + TruncatedSeries(1, f.order, g)


def vector_reversion(fs: Sequence[TruncatedSeries]) -> list[TruncatedSeries]:
    """Formal inverse of the vector map z -> (f_1(z)-1, ..., f_d(z)-1).

    Each f_i is a d-variate series with constant term 1; the Jacobian of
    the map at 0 must be invertible.  Returns series g_i = 1 + G_i with
    (f_i - 1)(G_1, ..., G_d) = z_i, solved order by order.  With G right
    through degree n - 1, the degree-n part of every monomial G^v with
    |v| >= 2 is final, and the degree-n error of (f_i - 1)(G) fixes the
    degree-n part of G through the inverse Jacobian.  Each G^v is built
    as G^(v - e_j) G_j, one degree per round, and shared by the d
    components.
    """
    d = len(fs)
    order = fs[0].order
    for f in fs:
        fs[0]._check_ring(f)
        if f.dim != d:
            raise ValueError("component series dimension must match tuple size")
        if f.constant_term() != 1:
            raise ValueError("component series must have constant term 1")
    unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    jac = [[fs[i].coeffs.get(unit[j], Fraction(0)) for j in range(d)]
           for i in range(d)]
    jinv = _invert_matrix(jac)

    Fs = [_graded(f) for f in fs]
    # homogeneous parts of G_i, one appended per degree
    G = [[{}, {unit[j]: jinv[i][j] for j in range(d)}] for i in range(d)]
    mono = {unit[j]: G[j] for j in range(d)}   # v -> homogeneous parts of G^v
    for deg in range(2, order + 1):
        err: list[dict] = [{} for _ in range(d)]
        for n in range(2, deg + 1):
            for v in iter_indices_of_total(d, n):
                j = next(i for i, k in enumerate(v) if k)
                base = mono[tuple(k - (i == j) for i, k in enumerate(v))]
                part: dict = {}
                for k in range(n - 1, deg):
                    _addmul(part, 1, base[k], G[j][deg - k])
                mono.setdefault(v, [{} for _ in range(n)]).append(part)
                for i in range(d):
                    a = Fs[i][n].get(v)
                    if a is not None:
                        _add_scaled(err[i], a, part)
        for j in range(d):
            part = {}
            for i in range(d):
                if jinv[j][i]:
                    _add_scaled(part, -jinv[j][i], err[i])
            G[j].append(part)
    one = TruncatedSeries.one(d, order)
    return [one + _ungraded(d, order, g) for g in G]


# -- homogeneous parts ------------------------------------------------

def _graded(f: TruncatedSeries) -> list[dict]:
    """Ordinary coefficients of f split by total degree: parts[n] holds |v| = n."""
    parts: list[dict] = [{} for _ in range(f.order + 1)]
    for v, c in f.coeffs.items():
        parts[total(v)][v] = c * Fraction(1, mi_factorial(v))
    return parts


def _ungraded(dim: int, order: int, parts: Sequence[dict]) -> TruncatedSeries:
    """The series whose ordinary coefficients are grouped in parts."""
    return TruncatedSeries(dim, order, {v: c * mi_factorial(v)
                                        for part in parts for v, c in part.items()})


def _addmul(out: dict, w: Coefficient, p: dict, q: dict) -> None:
    """out += w p q for two homogeneous parts p and q."""
    for v1, c1 in p.items():
        c1 = w * c1
        for v2, c2 in q.items():
            v = tuple(map(add, v1, v2))
            x = c1 * c2
            out[v] = out[v] + x if v in out else x


def _add_scaled(out: dict, c: Coefficient, part: dict) -> None:
    """out += c part for one homogeneous part."""
    for v, x in part.items():
        x = c * x
        out[v] = out[v] + x if v in out else x


def _recurrence(f: TruncatedSeries, weight: Callable) -> TruncatedSeries:
    """The series g with g_0 = 1 and
    n g_n = sum_{k=1..n} weight(n, k) f_k g_{n-k} on homogeneous parts."""
    fp = _graded(f)
    g = [{(0,) * f.dim: Fraction(1)}]
    for n in range(1, f.order + 1):
        acc: dict = {}
        for k in range(1, n + 1):
            _addmul(acc, weight(n, k), fp[k], g[n - k])
        inv = Fraction(1, n)
        g.append({v: c * inv for v, c in acc.items()})
    return _ungraded(f.dim, f.order, g)


def _mul_parts(p: Sequence[dict], q: Sequence[dict], order: int) -> list[dict]:
    """Homogeneous parts of the product p q, truncated at order."""
    out: list[dict] = [{} for _ in range(order + 1)]
    for i, pi in enumerate(p[:order + 1]):
        if pi:
            for j, qj in enumerate(q[:order + 1 - i]):
                if qj:
                    _addmul(out[i + j], 1, pi, qj)
    return out


def _invert_matrix(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse; raises on a singular matrix."""
    d = len(m)
    a = [[Fraction(m[i][j]) for j in range(d)] + [Fraction(int(i == j)) for j in range(d)]
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
