"""The product-loop series kernel, kept as a test reference for the
degree recurrences in umbrakit.series.

exp, log and reciprocal sum N powers of the argument, each one full
truncated product; pow is exp(e log f); subst raises every inner to
the N-th power.  Products are the plain pairwise Cauchy product on
ordinary coefficients, so nothing here shares the graded kernel.

The functions named d_* do the same on plain dicts v -> g_v of
exponential coefficients, with the binomial convolution as product.
They use no TruncatedSeries code at all, so they check its storage in
homogeneous parts from outside.
"""

from fractions import Fraction

from umbrakit.multiindex import add, mi_factorial, multi_binomial, total
from umbrakit.polynomials import as_coefficient
from umbrakit.series import TruncatedSeries


def mul(a, b):
    out = {}
    for v1, c1 in a.ordinary().items():
        for v2, c2 in b.ordinary().items():
            if total(v1) + total(v2) <= a.order:
                v = tuple(x + y for x, y in zip(v1, v2))
                out[v] = out.get(v, Fraction(0)) + c1 * c2
    return TruncatedSeries.from_ordinary(a.dim, a.order, out)


def exp(f):
    out = term = TruncatedSeries.one(f.dim, f.order)
    for k in range(1, f.order + 1):
        term = mul(term, f).scale(Fraction(1, k))
        out = out + term
    return out


def log(f):
    g = f - TruncatedSeries.one(f.dim, f.order)
    out = TruncatedSeries(f.dim, f.order)
    power = TruncatedSeries.one(f.dim, f.order)
    for k in range(1, f.order + 1):
        power = mul(power, g)
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def reciprocal(f):
    g = f - TruncatedSeries.one(f.dim, f.order)
    out = power = TruncatedSeries.one(f.dim, f.order)
    for k in range(1, f.order + 1):
        power = mul(power, g)
        out = out + power.scale((-1) ** k)
    return out


def pow(f, e):
    return exp(log(f).scale(e))


def subst(f, inners):
    tgt = inners[0]
    pows = []
    for h in inners:
        ps = [TruncatedSeries.one(tgt.dim, tgt.order)]
        for _ in range(f.order):
            ps.append(mul(ps[-1], h))
        pows.append(ps)
    out = TruncatedSeries(tgt.dim, tgt.order)
    for v, c in f.ordinary().items():
        term = TruncatedSeries.one(tgt.dim, tgt.order).scale(c)
        for i, k in enumerate(v):
            if k:
                term = mul(term, pows[i][k])
        out = out + term
    return out


# -- the same kernel on plain dicts of exponential coefficients -------------

def d_canonical(cs, order):
    """cs cut at order, zeros dropped and each value in canonical form."""
    out = {}
    for v, c in cs.items():
        c = as_coefficient(c)
        if total(v) <= order and c != 0:
            out[tuple(v)] = c
    return out


def d_one(dim):
    return {(0,) * dim: Fraction(1)}


def d_add(a, b, order):
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, 0) + c
    return d_canonical(out, order)


def d_scale(a, c, order):
    return d_canonical({v: c * g for v, g in a.items()}, order)


def d_sub(a, b, order):
    return d_add(a, d_scale(b, -1, order), order)


def d_mul(a, b, order):
    """The egf product: g_v = sum_{k <= v} C(v, k) a_k b_{v-k}."""
    out = {}
    for k, x in a.items():
        for j, y in b.items():
            if total(k) + total(j) <= order:
                v = add(k, j)
                out[v] = out.get(v, 0) + multi_binomial(v, k) * x * y
    return d_canonical(out, order)


def d_power_sum(h, weights, dim, order):
    """sum_k weights[k] h^k for k = 0..order."""
    out, power = {}, d_one(dim)
    for k, w in enumerate(weights):
        if k:
            power = d_mul(power, h, order)
        out = d_add(out, d_scale(power, w, order), order)
    return out


def d_exp(h, dim, order):
    weights, w = [], Fraction(1)
    for k in range(order + 1):
        weights.append(w)
        w /= k + 1
    return d_power_sum(h, weights, dim, order)


def d_log(f, dim, order):
    g = d_sub(f, d_one(dim), order)
    return d_power_sum(g, [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)],
                       dim, order)


def d_reciprocal(f, dim, order):
    g = d_sub(f, d_one(dim), order)
    return d_power_sum(g, [(-1) ** k for k in range(order + 1)], dim, order)


def d_pow(f, e, dim, order):
    return d_exp(d_scale(d_log(f, dim, order), e, order), dim, order)


def d_subst(f, inners, dim, order):
    """sum_v (g_v / v!) prod_i inners[i]^v_i, in the inners' ring (dim, order)."""
    out = {}
    for v, c in f.items():
        term = d_scale(d_one(dim), c / mi_factorial(v), order)
        for h, k in zip(inners, v):
            for _ in range(k):
                term = d_mul(term, h, order)
        out = d_add(out, term, order)
    return out
