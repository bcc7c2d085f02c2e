"""Time-space harmonic polynomials: construction, verification, decomposition.

A polynomial family member Q_v(x, t) is stored as its coefficient map
k -> q_k(t) over x^k with k <= v.  Verification of the martingale-style
identity is a formal basis computation: powers of the conditioning tuple
are opaque symbols and both sides are normalized in that basis, giving a
decidable exact equality in Q[t, s].

Every check is one shift, read off a tuple's moments by the cached plans
multiindex.shift_plan(k), which only this module reads: shift_coeffs
maps k -> C(v, k) g_{v-k}, and entry j of shifted(P, tup) = E[P(x + tup)]
sums p_k g_m C(k, j), no Poly per (k, j), as one slot of a single
polynomials.slot_sums accumulation.  The basis
is Q_v = E[(x - t.mu)^v].  P is harmonic when its shift by (t - s).mu
less P with t -> s, in the same accumulation, leaves every slot empty;
a failure names the first nonzero slot in (|j|, j) order, with both
sides read back from that slot's sum.  The coefficient recursion is
the shift of Q_v by mu less the shifted-time coefficients, and since
Q_k(x, 0) = x^k, decompose reads c_k = p_k(0) and sums its residual one
slot per index.  to_poly and poly_to_coeff_map convert between a
coefficient map and a Poly in x1..xd through from_coeff_map and
to_coeff_map.

A sweep over the basis shifts no Q_v: t.mu is a semigroup, so
basis_identity forms two tuple sums at the tuple's own order, and
basis_sweep reads every verdict off them; a caller that sweeps through a
lower order truncates the tuple first.  A Q_v that the identity finds
not harmonic, which only a faulty array gives, is certified by
verify_harmonicity itself.  The per-index verify_harmonicity also stays
for polynomials that are not a basis member, as a --tsh file may be.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from . import multiindex as mi
from .polynomials import (Coefficient, Poly, as_poly, from_coeff_map, json_int,
                          parse_coeff_map, slot_sums, sum_of_products, to_coeff_map)
from .umbrae import UmbraTuple, unity

CoeffMap = dict[tuple[int, ...], Poly]
T, S = Poly.var("t"), Poly.var("s")
MINUS_T, T_MINUS_S = -T, T - S     # the time arguments of the checks, built once


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


def _check_index(tup: UmbraTuple, k: tuple[int, ...]) -> None:
    """Raise eval_power's error unless k fits tup; a valid k reads nothing."""
    if len(k) != tup.dim or min(k) < 0 or sum(k) > tup.order:
        tup.eval_power(k)


def shift_coeffs(tup: UmbraTuple, v: tuple[int, ...]) -> Mapping[tuple[int, ...], Poly]:
    """E[(x + tup)^v] as a read-only map k -> C(v, k) g_{v-k} over every
    k <= v, zeros included; eval_power checks v's length, sign and order."""
    v, g = tuple(v), tup.moments
    tup.eval_power(v)
    return MappingProxyType({k: as_poly(c * g.get(m, 0)) for k, m, c in mi.shift_plan(v)})


def _shift_sums(coeffs: Mapping, tup: UmbraTuple,
                extra: Mapping[tuple[int, ...], Coefficient], sign: int) -> CoeffMap:
    """Entry j of E[P(x + tup)] + sign * extra[j], for every j, as one
    slot_sums accumulation in which each index j is a slot: the nonzero
    entries, extra's indices first, then the others as the shift meets
    them.  Every k of P is checked, whatever p_k, and a nonzero p_k
    reaches every j <= k with the terms (p_k, g_m, C(k, j))."""
    terms = {j: [(c, 1, sign)] for j, c in extra.items()}
    g = tup.moments
    for k, p_k in coeffs.items():
        _check_index(tup, k)
        if p_k == 0:
            continue
        for j, m, b in mi.shift_plan(k):
            ts = terms.setdefault(j, [])
            if m in g:
                ts.append((p_k, g[m], b))
    sums = slot_sums(list(terms.values()))
    return {j: sums[i] for i, j in enumerate(terms) if i in sums}


def shifted(coeffs: Mapping[tuple[int, ...], Coefficient], tup: UmbraTuple) -> CoeffMap:
    """E[P(x + tup)] as a coefficient map with zero entries dropped: entry
    j is sum_m C(j + m, m) p_{j+m} g_m, every j in one accumulation."""
    return _shift_sums(coeffs, tup, {}, 1)


def expectation(coeffs: Mapping[tuple[int, ...], Coefficient], tup: UmbraTuple) -> Poly:
    """E[P(tup)] = sum_k p_k g_k for P = sum_k p_k x^k."""
    return sum_of_products((p, tup.eval_power(k), 1) for k, p in coeffs.items())


# -- the TSH basis and its checks ---------------------------------------

@dataclass(frozen=True)
class TshPolynomial:
    """Q_v(x, t) = sum_{k <= v} q_k(t) x^k with q_v = 1 and q_k(0) = 0."""

    index: tuple[int, ...]
    coeffs: Mapping[tuple[int, ...], Poly]

    @property
    def dim(self) -> int:
        return len(self.index)

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

    terms: Mapping[tuple[int, ...], Poly]

    def coefficient(self, j: tuple[int, ...]) -> Poly:
        return self.terms.get(tuple(j), Poly.const(0))


def tsh_polynomial(mu: UmbraTuple, v: tuple[int, ...]) -> TshPolynomial:
    """The basis polynomial Q_v(x, t) = E[(x - t.mu)^v]."""
    v = tuple(v)
    return TshPolynomial(v, shift_coeffs(mu.dot_t(MINUS_T), v))


def conditional_eval(mu: UmbraTuple, v: tuple[int, ...]) -> ConditionalPolynomial:
    """E[(t.mu)^v | s.mu] expanded over the formal basis (s.mu)^j."""
    return ConditionalPolynomial(shifted({tuple(v): 1}, mu.dot_t(T_MINUS_S)))


def verify_harmonicity(mu: UmbraTuple,
                       coeffs: Mapping[tuple[int, ...], Coefficient]
                       ) -> tuple[bool, dict | None]:
    """Exact check of E(P(t.mu, t) | s.mu) = P(s.mu, s) in Q[t, s].

    P is given by its coefficient map k -> p_k(t); an s in a p_k is read
    as the conditioning time.  The left side is P's shift by (t - s).mu
    over the formal basis (s.mu)^j, the right side P with t -> s.  Both
    go into one accumulation, the right side with weight -1, and P is
    harmonic iff every basis index sums to zero.  Returns the verdict
    and, on failure, a certificate naming the first differing basis
    index in increasing (|j|, j) order together with both Q[t, s]
    coefficients, read from that index's sum: "expected" is p_j with
    t -> s, and "conditional" is the sum plus "expected".
    """
    coeffs = {tuple(k): as_poly(c) for k, c in coeffs.items()}
    right = {k: c.subs({"t": S}) for k, c in coeffs.items()}
    diff = _shift_sums(coeffs, mu.dot_t(T_MINUS_S), right, -1)
    if not diff:
        return True, None
    j = min(diff, key=lambda j: (mi.total(j), j))
    expected = right.get(j, Poly.const(0))
    return False, {"index": j, "conditional": str(diff[j] + expected),
                   "expected": str(expected)}


def basis_identity(mu: UmbraTuple) -> tuple[UmbraTuple, UmbraTuple]:
    """The tuple sums step = (-t).mu + (t - s).mu and zero = (-t).mu + t.mu
    at mu's order, from which every basis verdict of that order is read;
    a sweep through a lower order is the identity of mu.truncate(order).

    Q_v has q_k = C(v, k) g_{v-k}(-t), and C(v, k) C(k, j) = C(v, j)
    C(v - j, k - j) (Vandermonde), so entry j of the shift of Q_v by
    (t - s).mu is C(v, j) step_{v-j}, while q_j(s) = C(v, j) g_{v-j}(-s):
    Q_v is harmonic iff step_w = g_w(-s) at every w <= v.  Likewise
    E[Q_v(t.mu, t)] = zero_v, so the mean is zero iff zero_v = 0.
    """
    back, mid, forward = (mu.dot_t(p) for p in (MINUS_T, T_MINUS_S, T))
    return back + mid, back + forward


def basis_sweep(mu: UmbraTuple, indices: Iterable[tuple[int, ...]]
                ) -> Iterator[tuple[tuple[int, ...], bool, dict | None, bool]]:
    """(v, harmonic, certificate, zero mean) of Q_v for each v != 0 in
    indices, as verify_harmonicity(mu, Q_v) and expected_value_zero(mu, v)
    give them, read off basis_identity(mu) at mu's order.  g_w(-s) is read
    as verify_harmonicity reads p_j(s), g_w(-t) with t -> s.  A Q_v whose
    plan meets a w where step misses g_w(-s) is not harmonic, and its
    verdict and certificate are those of verify_harmonicity itself; a
    valid array never misses, as f^(-t) f^(t-s) = f^(-s).
    """
    step, zero = basis_identity(mu)
    at_s = {w: as_poly(g).subs({"t": S}) for w, g in mu.dot_t(MINUS_T).moments.items()}
    misses = {w for w in step.moments.keys() | at_s.keys()
              if step.eval_power(w) != at_s.get(w, 0)}
    for v in map(tuple, indices):
        mean_zero = zero.eval_power(v) == 0     # a bad v fails here
        ok, cert = True, None
        if misses and any(w in misses for _, w, _ in mi.shift_plan(v)):
            ok, cert = verify_harmonicity(mu, tsh_polynomial(mu, v).coeffs)
        yield v, ok, cert, mean_zero


def expected_value_zero(mu: UmbraTuple, v: tuple[int, ...]) -> bool:
    """Cor.-style check: E[Q_v(t.mu, t)] = sum_{k <= v} C(v, k) g_{v-k}(-t)
    g_k(t) is the zero polynomial, summed as one accumulation."""
    v = tuple(v)
    if not any(v):
        raise ValueError("v = 0 is excluded: Q_0 = 1 has expectation 1")
    mu.eval_power(v)
    g, h = mu.dot_t(MINUS_T).moments, mu.dot_t(T).moments
    return sum_of_products((g[m], h[k], b) for k, m, b in mi.shift_plan(v)
                           if m in g and k in h).is_zero()


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
    targets = {k: q.coefficient(k).subs({"t": T - 1}) for k in mi.sub_indices(v)}
    # the derivation form is the coefficient map of E[Q_v(x + mu, t)], the
    # alternative one the shift of sum_i g_i q_i x^i by the unity umbra;
    # each is one accumulation less the targets, keyed in the targets' order
    proof = _shift_sums(q.coeffs, mu, targets, -1)
    printed = _shift_sums({i: mu.eval_power(i) * q_i for i, q_i in q.coeffs.items()},
                          unity(mu.order, mu.dim), targets, -1)
    mismatch = next(iter(proof), None)
    # the alternative form is only claimed for k strictly below v
    printed_ok = not printed.keys() - {v}
    return RecursionReport(v, mismatch is None, printed_ok, mismatch)


@dataclass(frozen=True)
class Decomposition:
    coefficients: dict[tuple[int, ...], Fraction]
    residual: dict[tuple[int, ...], Poly]

    @property
    def exact(self) -> bool:
        return not self.residual


def decompose(coeffs: Mapping[tuple[int, ...], Coefficient],
              mu: UmbraTuple) -> Decomposition:
    """Write P = sum c_k Q_k, reading c_k = p_k(0).

    Q_k(x, 0) = x^k, so P(x, 0) = sum c_k x^k whenever P is in the span;
    the c_k are keyed in decreasing (|k|, k) order.  A nonzero residual
    P - sum c_k Q_k, summed per index in one accumulation, certifies that
    P is not time-space harmonic.  Every index must have the d entries of
    mu, none of them negative, and be within mu's truncation order.
    """
    p: CoeffMap = {tuple(k): as_poly(c) for k, c in coeffs.items()}
    _check_dimension(p, mu.dim)
    for k in p:
        _check_index(mu, k)
    at_0 = {k: p[k].coefficient("t", 0)
            for k in sorted(p, key=lambda k: (mi.total(k), k), reverse=True)}
    for k, c in at_0.items():
        if not c.is_constant():
            raise ValueError(f"coeffs index {mi.format_index(k)}: {p[k]} is {c} "
                             f"at t = 0, not a rational")
    out = {k: c.constant_value() for k, c in at_0.items() if not c.is_zero()}
    # residual j is p_j plus entry j of -sum_k c_k Q_k, a shift by -t.mu
    residual = _shift_sums({k: -c for k, c in out.items()}, mu.dot_t(MINUS_T), p, 1)
    return Decomposition(out, residual)


def tsh_to_json(q: TshPolynomial) -> dict:
    return {
        "v": mi.format_index(q.index),
        "d": q.dim,
        "coeffs": {mi.format_index(k): str(c) for k, c in sorted(
            q.coeffs.items(), key=lambda kv: (mi.total(kv[0]), kv[0]))},
    }


def _check_dimension(indices, d: int) -> None:
    """Raise unless every coefficient index has d entries, none negative."""
    for k in indices:
        if len(k) != d:
            raise ValueError(f"coeffs index {mi.format_index(k)} has {len(k)} entries, not d = {d}")
        if min(k) < 0:
            raise ValueError(f"coeffs index {mi.format_index(k)} has a negative entry")


def tsh_from_json(data: Mapping) -> TshPolynomial:
    """Read a gen-tsh "tsh" object: every index must have the d entries
    of v and be <= v, the coefficient at v must be 1, and no coefficient
    may use s, which verify_harmonicity reads as the conditioning time."""
    coeffs = {k: as_poly(c) for k, c in parse_coeff_map(data, "coeffs").items()}
    if "v" not in data:
        raise ValueError("missing key 'v'")
    if not isinstance(data["v"], str):
        raise ValueError(f"'v' must be a string such as \"(1,2)\", got {data['v']!r}")
    v = mi.parse_index(data["v"])
    d = json_int(data, "d", len(v))
    if d != len(v):
        raise ValueError(f"'d' is {d} but v = {mi.format_index(v)} has {len(v)} entries")
    _check_dimension(coeffs, d)
    for k in coeffs:
        if not mi.leq(k, v):
            raise ValueError(f"coeffs index {mi.format_index(k)} is not <= v = {mi.format_index(v)}")
    q_v = coeffs.get(v, Poly.const(0))
    if q_v != 1:
        raise ValueError(f"the coefficient at v = {mi.format_index(v)} is {q_v}, not 1")
    for k, c in coeffs.items():
        if c.degree("s"):
            raise ValueError(f"coeffs index {mi.format_index(k)} uses s, "
                             f"the conditioning time of the harmonic check")
    return TshPolynomial(v, coeffs)


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
