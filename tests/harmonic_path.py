"""Test references for umbrakit.harmonic: the back-substitution decompose
and a shift by umbral substitution.

decompose is the package's former solver of P = sum c_k Q_k, kept
verbatim: it walks every sub-index of P in decreasing total order, reads
c_k off the residual at t = 0 and subtracts c_k Q_k from the residual
before it reads the next one.

shifted computes E[P(x + tup)] without the binomial expansion of the
package: it substitutes x_i -> x_i + y_i in P as one Poly, and then
replaces each monomial y^j of the result by the moment g_j of the tuple.
It calls neither shift_coeffs nor multi_binomial.

verify_harmonicity is the package's former check, index by index: it
compares entry j of that shift by (t - s).mu with p_j(s) for every j in
increasing (|j|, j) order and certifies the first difference.

expected_value_zero is the package's former zero-mean check, kept
verbatim: it sums E[Q_v(t.mu, t)] = sum_{k <= v} C(v, k) g_{v-k}(-t)
g_k(t) over the shift plan of v from the moments of dot_t(-t) and
dot_t(t), where the package reads entry v of their tuple sum.

per_index_sweep is the former basis sweep of the verify command: it
builds each Q_v and checks it with the package's verify_harmonicity and
the expected_value_zero above, where the package now reads every
verdict off one series identity.  MovedArray is a test-local copy of a
tuple whose dot_t at one time argument has one moment moved, so both
sweeps can be compared on arrays that fail.
"""

from fractions import Fraction
from itertools import product

from umbrakit import harmonic
from umbrakit import multiindex as mi
from umbrakit.harmonic import (MINUS_T, T, Decomposition, poly_to_coeff_map, to_poly,
                               tsh_polynomial, x_names)
from umbrakit.polynomials import Poly, as_poly, sum_of_products
from umbrakit.umbrae import UmbraTuple, time_argument


def _sub_indices(v):
    """Every k <= v, lexicographically."""
    return tuple(product(*(range(e + 1) for e in v)))


def decompose(coeffs, mu):
    """Solve P = sum c_k Q_k by unitriangular back-substitution."""
    residual = {tuple(k): as_poly(c)
                for k, c in coeffs.items()}
    closure = set()
    for k in residual:
        closure.update(_sub_indices(k))
    order = sorted(closure, key=lambda k: (mi.total(k), k), reverse=True)
    out: dict[tuple[int, ...], Fraction] = {}
    for k in order:
        p_k = residual.get(k, Poly.const(0))
        if p_k.is_zero():
            continue
        c = p_k.subs({"t": 0})
        if c.is_zero():
            continue
        c_val = c.constant_value()
        out[k] = c_val
        q = tsh_polynomial(mu, k)
        for j, q_j in q.coeffs.items():
            residual[j] = residual.get(j, Poly.const(0)) - c_val * q_j
    leftovers = {k: p for k, p in residual.items() if not p.is_zero()}
    return Decomposition(out, leftovers)


def shifted(coeffs, tup):
    """E[P(x + tup)] as a coefficient map with zero entries dropped."""
    if not coeffs:
        return {}
    d = tup.dim
    xs, ys = x_names(d), tuple(f"y{i + 1}" for i in range(d))
    moved = to_poly(coeffs).subs({x: Poly.var(x) + Poly.var(y) for x, y in zip(xs, ys)})
    at = [moved.vars.index(y) if y in moved.vars else None for y in ys]
    rest = tuple(i for i, name in enumerate(moved.vars) if name not in ys)
    out = Poly.const(0)
    for e, c in moved.terms.items():
        j = tuple(0 if i is None else e[i] for i in at)
        monomial = Poly(tuple(moved.vars[i] for i in rest), {tuple(e[i] for i in rest): c})
        out = out + monomial * tup.eval_power(j)
    return {k: c for k, c in poly_to_coeff_map(out, d).items() if not c.is_zero()}


def verify_harmonicity(mu, coeffs):
    """The verdict and certificate of E(P(t.mu, t) | s.mu) = P(s.mu, s)."""
    t, s = Poly.var("t"), Poly.var("s")
    coeffs = {tuple(k): as_poly(c) for k, c in coeffs.items()}
    lhs = shifted(coeffs, mu.dot_t(t - s))
    zero = Poly.const(0)
    for j in sorted(set(lhs) | set(coeffs), key=lambda j: (mi.total(j), j)):
        left, right = lhs.get(j, zero), coeffs.get(j, zero).subs({"t": s})
        if left != right:
            return False, {"index": j, "conditional": str(left), "expected": str(right)}
    return True, None


def expected_value_zero(mu, v):
    """Cor.-style check: E[Q_v(t.mu, t)] = sum_{k <= v} C(v, k) g_{v-k}(-t)
    g_k(t) is the zero polynomial, summed as one accumulation."""
    v = tuple(v)
    if not any(v):
        raise ValueError("v = 0 is excluded: Q_0 = 1 has expectation 1")
    mu.eval_power(v)
    g, h = mu.dot_t(MINUS_T).moments, mu.dot_t(T).moments
    return sum_of_products((g[m], h[k], b) for k, m, b in mi.shift_plan(v)
                           if m in g and k in h).is_zero()


def per_index_sweep(mu, indices):
    """(v, harmonic, certificate, zero mean) of each Q_v, v != 0, one
    index at a time."""
    for v in indices:
        ok, cert = harmonic.verify_harmonicity(mu, tsh_polynomial(mu, v).coeffs)
        yield v, ok, cert, expected_value_zero(mu, v)


def moved(tup, w, bump):
    """A copy of tup with the moment at w moved by bump."""
    ms = dict(tup.moments)
    ms[w] = as_poly(ms.get(w, 0)) + bump
    return UmbraTuple(tup.dim, tup.order, ms)


class MovedArray(UmbraTuple):
    """The moments of mu, with the moment at w of dot_t(time) moved by bump."""

    def __init__(self, mu, time, w, bump):
        self._adopt(mu.to_series())
        self.move = (time, w, bump)

    def dot_t(self, t):
        out = super().dot_t(t)
        time, w, bump = self.move
        return moved(out, w, bump) if time_argument(t) == time else out
