"""The product-loop series kernel, kept as a test reference for the
degree recurrences in umbrakit.series.

exp, log and reciprocal sum N powers of the argument, each one full
truncated product; pow is exp(e log f); subst raises every inner to
the N-th power.  Products are the plain pairwise Cauchy product on
ordinary coefficients, so nothing here shares the graded kernel.
"""

from fractions import Fraction

from umbrakit.multiindex import total
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
    out = TruncatedSeries.zero(f.dim, f.order)
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
    out = TruncatedSeries.zero(tgt.dim, tgt.order)
    for v, c in f.ordinary().items():
        term = TruncatedSeries.one(tgt.dim, tgt.order).scale(c)
        for i, k in enumerate(v):
            if k:
                term = mul(term, pows[i][k])
        out = out + term
    return out
