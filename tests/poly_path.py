"""The Fraction-dict Poly, kept as a test reference for the
integer-numerator ring in umbrakit.polynomials, and the coefficient-map
converter that the package built from ring operations.

Every coefficient is a Fraction in a dict keyed by exponent tuples, and
every binary operation remaps both operands onto the union of their
variables.  The package's Poly must agree with this one exactly: the
same variables and the same coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from umbrakit import polynomials as pkg

Scalar = Union[int, Fraction]
Coefficient = Union[int, Fraction, "Poly"]


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational scalar: {c!r}")


class Poly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (),
                 terms: Mapping[tuple[int, ...], Scalar] | None = None):
        vs = tuple(vars)
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError(f"variables must be sorted and distinct: {vs}")
        tm = {}
        for exp, c in (terms or {}).items():
            c = _as_fraction(c)
            if c:
                tm[tuple(exp)] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", tm)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((), {(): _as_fraction(c)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls((name,), {(1,): Fraction(1)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return sum(self.terms.values(), Fraction(0))

    def degree(self, name: str) -> int:
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coefficient(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, a Poly in the remaining variables."""
        if name not in self.vars:
            if power == 0:
                return self
            return Poly.const(0)
        i = self.vars.index(name)
        rest = tuple(v for v in self.vars if v != name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                re = e[:i] + e[i + 1:]
                terms[re] = terms.get(re, Fraction(0)) + c
        return Poly(rest, terms)

    def _aligned(self, other: "Poly") -> tuple[tuple[str, ...], dict, dict]:
        if self.vars == other.vars:
            return self.vars, dict(self.terms), dict(other.terms)
        vs = tuple(sorted(set(self.vars) | set(other.vars)))

        def remap(p: "Poly") -> dict:
            pos = [vs.index(v) for v in p.vars]
            out = {}
            for e, c in p.terms.items():
                ne = [0] * len(vs)
                for i, x in zip(pos, e):
                    ne[i] = x
                out[tuple(ne)] = c
            return out

        return vs, remap(self), remap(other)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Coefficient) -> "Poly":
        other = as_poly(other)
        vs, a, b = self._aligned(other)
        for e, c in b.items():
            a[e] = a.get(e, Fraction(0)) + c
        return Poly(vs, a)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Coefficient) -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other: Coefficient) -> "Poly":
        return as_poly(other) + (-self)

    def __mul__(self, other: Coefficient) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c0 = _as_fraction(other)
            return Poly(self.vars, {e: c * c0 for e, c in self.terms.items()})
        other = as_poly(other)
        vs, a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(vs, out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Poly":
        return self * (Fraction(1) / _as_fraction(other))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        vs, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        if self.is_constant():
            # equal to its scalar value, so it must hash like it
            return hash(self.constant_value())
        # canonical form with variables of zero degree dropped
        used = [i for i in range(len(self.vars))
                if any(e[i] for e in self.terms)]
        vs = tuple(self.vars[i] for i in used)
        items = frozenset((tuple(e[i] for i in used), c)
                          for e, c in self.terms.items())
        return hash((vs, items))

    # -- substitution -------------------------------------------------

    def subs(self, mapping: Mapping[str, Coefficient]) -> "Poly":
        """Substitute variables by polynomials or scalars."""
        out = Poly.const(0)
        for e, c in self.terms.items():
            term = Poly.const(c)
            for name, k in zip(self.vars, e):
                if not k:
                    continue
                if name in mapping:
                    term = term * as_poly(mapping[name]) ** k
                else:
                    term = term * Poly.var(name) ** k
            out = out + term
        return out

    def reduce_power(self, name: str, order: int, replacement: Coefficient) -> "Poly":
        """Rewrite name**order -> replacement wherever it divides a term.

        Used for declared square roots: e.g. s with s**2 -> a keeps the
        ring polynomial while modelling sqrt(a).
        """
        if name not in self.vars:
            return self
        rep = as_poly(replacement)
        out = Poly.const(0)
        i = self.vars.index(name)
        for e, c in self.terms.items():
            q, r = divmod(e[i], order)
            term = Poly(self.vars, {e[:i] + (r,) + e[i + 1:]: c})
            if q:
                term = term * rep ** q
            out = out + term
        return out

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self})"


def as_poly(value: Coefficient) -> Poly:
    """Promote an int or Fraction to a constant Poly; pass a Poly through."""
    return value if isinstance(value, Poly) else Poly.const(value)


# -- the coefficient-map converter built from ring operations -------------
#
# The reference for polynomials.from_coeff_map and to_coeff_map: a map is
# summed term by term with package Poly products, and a Poly is split one
# name at a time by degree and coefficient.


def to_poly(coeffs: Mapping[tuple[int, ...], Coefficient],
            names: tuple[str, ...]) -> pkg.Poly:
    """sum_k p_k names^k as one package Poly."""
    out = pkg.Poly.const(0)
    for k, c in coeffs.items():
        term = pkg.as_poly(c)
        for name, e in zip(names, k):
            if e:
                term = term * pkg.Poly.var(name) ** e
        out = out + term
    return out


def poly_to_coeff_map(p: pkg.Poly, names: tuple[str, ...]) -> dict:
    """Split a package Poly into names-monomial -> Poly coefficients; the
    zero Poly gives the single coefficient 0 at the zero index."""
    work = [(p, ())]
    for name in names:
        nxt = []
        for q, prefix in work:
            for e in range(q.degree(name) + 1):
                c = q.coefficient(name, e)
                if not c.is_zero() or e == 0:
                    nxt.append((c, prefix + (e,)))
        work = nxt
    out = {k: q for q, k in work if not q.is_zero()}
    return out or {(0,) * len(names): pkg.Poly.const(0)}
