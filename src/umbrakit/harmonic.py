"""Time-space harmonic polynomials: construction, verification, decomposition.

A polynomial family member Q_v(x, t) is stored as its coefficient map
k -> q_k(t) over x^k with k <= v.  Verification of the martingale-style
identity is a formal basis computation: powers of the conditioning tuple
are opaque symbols and both sides are normalized in that basis, giving a
decidable exact equality in Q[t, s].

One expansion serves every construction: shift_coeffs gives
E[(x + tup)^v] = sum_k C(v, k) g_{v-k} x^k.  The basis Q_v is the shift by
-t.mu and E[(t.mu)^v | s.mu] the shift by (t - s).mu, each memoised per
index on its tuple; expectation gives sum_k p_k g_k.  to_poly and
poly_to_coeff_map convert between a coefficient map and a Poly in x1..xd
through polynomials.from_coeff_map and to_coeff_map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Mapping

from . import multiindex as mi
from .polynomials import (Coefficient, Poly, as_poly, from_coeff_map, json_int,
                          parse_coeff_map, to_coeff_map)
from .umbrae import UmbraTuple

CoeffMap = dict[tuple[int, ...], Poly]


@lru_cache(maxsize=None)
def _sub_indices(v: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every k <= v, lexicographically."""
    return tuple(product(*(range(e + 1) for e in v)))


# -- coefficient maps: k -> p_k stands for sum_k p_k x^k ---------------

def x_names(d: int) -> tuple[str, ...]:
    """The space variables x1..xd."""
    return tuple(f"x{i + 1}" for i in range(d))


def to_poly(coeffs: Mapping[tuple[int, ...], Coefficient]) -> Poly:
    """sum_k p_k x^k as one Poly in x1..xd and the variables of the p_k."""
    return from_coeff_map(coeffs, x_names(len(next(iter(coeffs), ()))))


def poly_to_coeff_map(p: Poly, d: int) -> CoeffMap:
    """Split a Poly in x1..xd (and t) into x-monomial -> Q[t] coefficients."""
    out = {k: as_poly(c) for k, c in to_coeff_map(p, x_names(d)).items()}
    return out or {(0,) * d: Poly.const(0)}


def shift_coeffs(tup: UmbraTuple, v: tuple[int, ...]) -> Mapping[tuple[int, ...], Poly]:
    """E[(x + tup)^v] as its coefficient map k -> C(v, k) g_{v-k}, k <= v.

    Memoised per v on the tuple, so a sweep that conditions on one tuple
    expands each index once.  Every caller shares the map, TshPolynomial
    among them, so it is returned read-only.
    """
    v = tuple(v)
    out = tup._shifts.get(v)
    if out is None:
        out = tup._shifts[v] = MappingProxyType(
            {k: mi.multi_binomial(v, k) * as_poly(tup.eval_power(mi.sub(v, k)))
             for k in _sub_indices(v)})
    return out


def expectation(coeffs: Mapping[tuple[int, ...], Coefficient], tup: UmbraTuple) -> Poly:
    """E[P(tup)] = sum_k p_k g_k for P = sum_k p_k x^k."""
    return sum((as_poly(p) * tup.eval_power(k) for k, p in coeffs.items()), Poly.const(0))


# -- the TSH basis and its checks ---------------------------------------

@dataclass(frozen=True)
class TshPolynomial:
    """Q_v(x, t) = sum_{k <= v} q_k(t) x^k with q_v = 1 and q_k(0) = 0."""

    dim: int
    index: tuple[int, ...]
    coeffs: Mapping[tuple[int, ...], Poly]

    def coefficient(self, k: tuple[int, ...]) -> Poly:
        return self.coeffs.get(tuple(k), Poly.const(0))

    def as_polynomial(self) -> Poly:
        """Expand into a single Poly in x1..xd and t."""
        return to_poly(self.coeffs)

    def specialize_time(self, t: Fraction | int) -> CoeffMap:
        return {k: q.subs({"t": t}) for k, q in self.coeffs.items()}


@dataclass(frozen=True)
class ConditionalPolynomial:
    """Formal expansion sum_j c_j(t, s) * (s . mu)^j; the basis powers of
    the conditioning tuple are never evaluated."""

    dim: int
    terms: Mapping[tuple[int, ...], Poly]

    def coefficient(self, j: tuple[int, ...]) -> Poly:
        return self.terms.get(tuple(j), Poly.const(0))


def tsh_polynomial(mu: UmbraTuple, v: tuple[int, ...]) -> TshPolynomial:
    """The basis polynomial Q_v(x, t) = E[(x - t.mu)^v]."""
    v = tuple(v)
    return TshPolynomial(mu.dim, v, shift_coeffs(mu.dot_t(-Poly.var("t")), v))


def conditional_eval(mu: UmbraTuple, v: tuple[int, ...],
                     t: str = "t", s: str = "s") -> ConditionalPolynomial:
    """E[(t.mu)^v | s.mu] expanded over the formal basis (s.mu)^j."""
    diff = mu.dot_t(Poly.var(t) - Poly.var(s))
    return ConditionalPolynomial(mu.dim, {k: c for k, c in shift_coeffs(diff, v).items()
                                          if not c.is_zero()})


def verify_harmonicity(mu: UmbraTuple,
                       coeffs: Mapping[tuple[int, ...], Coefficient]
                       ) -> tuple[bool, dict | None]:
    """Exact check of E(P(t.mu, t) | s.mu) = P(s.mu, s) in Q[t, s].

    P is given by its coefficient map k -> p_k(t).  The left side is
    sum_k p_k(t) E[(t.mu)^k | s.mu] over the formal basis (s.mu)^j.
    Returns the verdict and, on failure, a certificate naming the first
    differing basis index together with both Q[t, s] coefficients.
    """
    coeffs = {tuple(k): as_poly(c) for k, c in coeffs.items()}
    diff = mu.dot_t(Poly.var("t") - Poly.var("s"))
    lhs: CoeffMap = {}
    for k, p_k in coeffs.items():
        if p_k.is_zero():
            continue
        for j, c in shift_coeffs(diff, k).items():
            add = p_k * c
            if not add.is_zero():
                lhs[j] = lhs.get(j, Poly.const(0)) + add
    keys = sorted(set(lhs) | set(coeffs), key=lambda j: (mi.total(j), j))
    for j in keys:
        left = lhs.get(j, Poly.const(0))
        right = coeffs.get(j, Poly.const(0)).subs({"t": Poly.var("s")})
        if left != right:
            return False, {"index": j, "conditional": str(left),
                           "expected": str(right)}
    return True, None


def expected_value_zero(mu: UmbraTuple, v: tuple[int, ...]) -> bool:
    """Cor.-style check: sum_k q_k(t) E[(t.mu)^k] is the zero polynomial."""
    v = tuple(v)
    if not any(v):
        raise ValueError("v = 0 is excluded: Q_0 = 1 has expectation 1")
    return expectation(tsh_polynomial(mu, v).coeffs, mu.dot_t(Poly.var("t"))).is_zero()


@dataclass(frozen=True)
class RecursionReport:
    index: tuple[int, ...]
    proof_version_holds: bool
    printed_version_holds: bool
    first_mismatch: tuple[int, ...] | None


def coefficient_recursion_check(mu: UmbraTuple, v: tuple[int, ...]) -> RecursionReport:
    """Check the coefficient recursion relating q_k(t - 1) to the moments.

    Two candidate identities are evaluated: the derivation form
    q_k(t-1) = sum_{k<=i<=v} binom(i,k) g_{i-k} q_i(t), which holds, and
    the alternative form with g_j q_j(t) inside the sum, whose status is
    reported (it fails in general).
    """
    v = tuple(v)
    q = tsh_polynomial(mu, v)
    shift = {"t": Poly.var("t") - 1}
    # the derivation form is the coefficient map of E[Q_v(x + mu, t)]
    proof: CoeffMap = {}
    for i, q_i in q.coeffs.items():
        for k, c in shift_coeffs(mu, i).items():
            proof[k] = proof.get(k, Poly.const(0)) + c * q_i
    proof_ok, printed_ok = True, True
    mismatch = None
    for k in _sub_indices(v):
        target = q.coefficient(k).subs(shift)
        printed_sum = Poly.const(0)
        for i in _sub_indices(v):
            if mi.leq(k, i):
                printed_sum = printed_sum + mi.multi_binomial(i, k) \
                    * as_poly(mu.eval_power(i)) * q.coefficient(i)
        if target != proof[k]:
            proof_ok = False
            if mismatch is None:
                mismatch = k
        if k != v and target != printed_sum:
            # the alternative form is only claimed for k strictly below v
            printed_ok = False
    return RecursionReport(v, proof_ok, printed_ok, mismatch)


@dataclass(frozen=True)
class Decomposition:
    coefficients: dict[tuple[int, ...], Fraction]
    residual: dict[tuple[int, ...], Poly]

    @property
    def exact(self) -> bool:
        return not self.residual


def decompose(coeffs: Mapping[tuple[int, ...], Coefficient],
              mu: UmbraTuple) -> Decomposition:
    """Solve P = sum c_k Q_k by unitriangular back-substitution.

    Indices are processed in decreasing total order; each Q_k has unit
    leading coefficient, so c_k is read off the residual directly.  A
    nonzero final residual certifies that P is not time-space harmonic.
    """
    residual: CoeffMap = {tuple(k): as_poly(c)
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


def tsh_to_json(q: TshPolynomial) -> dict:
    return {
        "v": mi.format_index(q.index),
        "d": q.dim,
        "coeffs": {mi.format_index(k): str(c) for k, c in sorted(
            q.coeffs.items(), key=lambda kv: (mi.total(kv[0]), kv[0]))},
    }


def tsh_from_json(data: Mapping) -> TshPolynomial:
    coeffs = {k: as_poly(c) for k, c in parse_coeff_map(data, "coeffs").items()}
    v = mi.parse_index(data["v"])
    d = json_int(data, "d", len(v))
    if d != len(v):
        raise ValueError(f"'d' is {d} but v = {mi.format_index(v)} has {len(v)} entries")
    return TshPolynomial(d, v, coeffs)


def tsh_to_latex(q: TshPolynomial) -> str:
    """LaTeX rendering of Q_v(x, t) for tables."""
    parts = []
    for k in sorted(q.coeffs, key=lambda k: (mi.total(k), k), reverse=True):
        c = q.coeffs[k]
        mono = "".join(
            (f"x_{{{i + 1}}}" if e == 1 else f"x_{{{i + 1}}}^{{{e}}}")
            for i, e in enumerate(k) if e)
        c_str = str(c)
        if mono and c_str == "1":
            parts.append(mono)
        elif mono:
            parts.append(f"({c_str})\\, {mono}")
        else:
            parts.append(c_str)
    body = " + ".join(parts) if parts else "0"
    return body.replace("+ -", "- ")
