"""Sparse multivariate polynomials over exact rationals.

Coefficient ring for parameterized moment arrays: elements of
Q[t, s, x1, ..., xd, ...] with named indeterminates.  Variables are kept
in sorted name order; binary operations unify variable sets through an
alignment computed once per pair of variable tuples.

A Poly holds integer numerators over one positive common denominator.
Every operation ends with a single gcd reduction of the denominator
against all numerators (Knuth, TAOCP vol. 2, 4.5.1), so equal
polynomials have equal parts and no Fraction is made inside polynomial
arithmetic.  A constant Poly without variables acts as a scalar.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter
from typing import Iterable, Mapping, Union

from .multiindex import parse_index

Scalar = Union[int, Fraction]
Coefficient = Union[int, Fraction, "Poly"]

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _ratio(c: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator of a rational scalar."""
    if type(c) is int:
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    if isinstance(c, int):
        return int(c), 1
    raise TypeError(f"not a rational scalar: {c!r}")


def _hash_rational(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for coprime n and d > 0, as Python defines it."""
    if d == 1:
        return hash(n)
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
    except ValueError:
        h = _HASH_INF
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


@lru_cache(maxsize=1024)
def _alignment(a: tuple[str, ...], b: tuple[str, ...]):
    """The sorted union of two variable tuples and, for each side, the map
    of its exponent tuples into the union (None where the side is the union)."""
    vs = tuple(sorted(set(a) | set(b)))
    return vs, _embedding(a, vs), _embedding(b, vs)


def _embedding(src: tuple[str, ...], vs: tuple[str, ...]):
    if src == vs:
        return None
    if not src:
        zero = (0,) * len(vs)
        return lambda e: zero
    # src is a proper nonempty subset, so vs has two or more variables
    pick = itemgetter(*(src.index(v) if v in src else len(src) for v in vs))
    return lambda e: pick(e + (0,))


class Poly:
    """Immutable sparse polynomial: integer numerators over one denominator.

    Parts: vars (sorted, distinct names), _nums (exponent tuple -> nonzero
    int) and _den (positive int) with gcd(_den, *_nums) == 1.  The zero
    polynomial is {} over 1.
    """

    __slots__ = ("vars", "_nums", "_den")

    def __init__(self, vars: Iterable[str] = (),
                 terms: Mapping[tuple[int, ...], Scalar] | None = None):
        vs = tuple(vars)
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError(f"variables must be sorted and distinct: {vs}")
        parts = {}
        for exp, c in (terms or {}).items():
            n, d = _ratio(c)
            if n:
                parts[tuple(exp)] = n, d
        den = math.lcm(*(d for _, d in parts.values()))
        nums = {e: n * (den // d) for e, (n, d) in parts.items()}
        _set(self, "vars", vs)
        _set(self, "_nums", nums)
        _set(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        n, d = _ratio(c)
        return _make((), {(): n}, d) if n else _make((), {}, 1)

    @classmethod
    def var(cls, name: str) -> "Poly":
        return _make((name,), {(1,): 1}, 1)

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Exponent tuple -> Fraction.  Built on each read, so writing to
        it leaves the Poly unchanged."""
        den = self._den
        return {e: Fraction(n, den) for e, n in self._nums.items()}

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return not self.vars or all(not any(e) for e in self._nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(sum(self._nums.values()), self._den)

    def degree(self, name: str) -> int:
        if name not in self.vars or not self._nums:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self._nums)

    def coefficient(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, a Poly in the remaining variables."""
        if name not in self.vars:
            return self if power == 0 else _ZERO
        i = self.vars.index(name)
        nums = {e[:i] + e[i + 1:]: n for e, n in self._nums.items() if e[i] == power}
        return _reduced(self.vars[:i] + self.vars[i + 1:], nums, self._den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Coefficient) -> "Poly":
        if type(other) is Poly and other.vars:
            if self.vars:
                return _sum(self, other, 1)
            return _shift(other, *_scalar(self))
        return _shift(self, *_scalar_parts(other))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(self.vars, {e: -n for e, n in self._nums.items()}, self._den)

    def __sub__(self, other: Coefficient) -> "Poly":
        if type(other) is Poly and other.vars:
            if self.vars:
                return _sum(self, other, -1)
            return _shift(-other, *_scalar(self))
        n, d = _scalar_parts(other)
        return _shift(self, -n, d)

    def __rsub__(self, other: Coefficient) -> "Poly":
        return _shift(-self, *_scalar_parts(other))

    def __mul__(self, other: Coefficient) -> "Poly":
        if type(other) is Poly and other.vars:
            if self.vars:
                return _product(self, other)
            return _scale(other, *_scalar(self))
        return _scale(self, *_scalar_parts(other))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Poly":
        n, d = _ratio(other)
        if not n:
            raise ZeroDivisionError(f"Poly division by {other!r}")
        return _scale(self, -d, -n) if n < 0 else _scale(self, d, n)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                n, d = _ratio(other)
                return (self.is_constant() and self._den == d
                        and sum(self._nums.values()) == n)
            return NotImplemented
        if self._den != other._den:
            return False
        if self.vars == other.vars:
            return self._nums == other._nums
        _, ea, eb = _alignment(self.vars, other.vars)
        return _embedded(self._nums, ea) == _embedded(other._nums, eb)

    def __hash__(self):
        nums = self._nums
        used = [i for i in range(len(self.vars)) if any(e[i] for e in nums)]
        if not used:
            # equal to its scalar value, so it must hash like it
            return _hash_rational(sum(nums.values()), self._den)
        # canonical form with variables of zero degree dropped
        if len(used) == len(self.vars):
            return hash((self.vars, self._den, frozenset(nums.items())))
        pick = itemgetter(*used) if len(used) > 1 else (lambda e: (e[used[0]],))
        return hash((tuple(self.vars[i] for i in used), self._den,
                     frozenset((pick(e), n) for e, n in nums.items())))

    # -- substitution -------------------------------------------------

    def subs(self, mapping: Mapping[str, Coefficient]) -> "Poly":
        """Substitute variables by polynomials or scalars.

        Renaming one variable to one the polynomial does not contain
        permutes the exponents; every other mapping expands term by term.
        """
        if len(mapping) == 1:
            (name, new), = mapping.items()
            if (name in self.vars and type(new) is Poly and len(new.vars) == 1
                    and new.vars[0] not in self.vars and new._den == 1
                    and new._nums == {(1,): 1}):
                names = [new.vars[0] if x == name else x for x in self.vars]
                order = sorted(range(len(names)), key=names.__getitem__)
                pick = itemgetter(*order) if len(order) > 1 else tuple
                return _make(tuple(names[i] for i in order),
                             {pick(e): n for e, n in self._nums.items()}, self._den)
        out = _ZERO
        powers: dict = {}
        for e, n in self._nums.items():
            term = _reduced((), {(): n}, self._den)
            for name, k in zip(self.vars, e):
                if not k:
                    continue
                f = powers.get((name, k))
                if f is None:
                    base = as_poly(mapping[name]) if name in mapping else Poly.var(name)
                    f = powers[name, k] = base ** k
                term = term * f
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
        powers: dict = {}
        out = _ZERO
        i = self.vars.index(name)
        for e, n in self._nums.items():
            q, r = divmod(e[i], order)
            term = _reduced(self.vars, {e[:i] + (r,) + e[i + 1:]: n}, self._den)
            if q:
                f = powers.get(q)
                if f is None:
                    f = powers[q] = rep ** q
                term = term * f
            out = out + term
        return out

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for e in sorted(self._nums, key=lambda e: (sum(e), e), reverse=True):
            g = math.gcd(self._nums[e], self._den)
            n, d = self._nums[e] // g, self._den // g
            c = str(n) if d == 1 else f"{n}/{d}"
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(c)
            elif n == d:
                parts.append("*".join(factors))
            elif n == -d:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(c + "*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self})"


# -- the ring kernel: parts in, canonical Poly out ----------------------

_set = object.__setattr__
_new = object.__new__


def _make(vs: tuple[str, ...], nums: dict, den: int) -> Poly:
    """A Poly from canonical parts, unchecked."""
    p = _new(Poly)
    _set(p, "vars", vs)
    _set(p, "_nums", nums)
    _set(p, "_den", den)
    return p


def _reduced(vs: tuple[str, ...], nums: dict, den: int) -> Poly:
    """A Poly from zero-free parts: divide out gcd(den, *nums)."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
    return _make(vs, nums, den)


_ZERO = _make((), {}, 1)
_ONE = _make((), {(): 1}, 1)


def _scalar(p: Poly) -> tuple[int, int]:
    """Numerator and denominator of a Poly without variables."""
    return sum(p._nums.values()), p._den


def _scalar_parts(c) -> tuple[int, int]:
    """Numerator and denominator of an int, a Fraction or a Poly without
    variables."""
    return _scalar(c) if type(c) is Poly else _ratio(c)


def _embedded(nums: dict, emb) -> dict:
    return nums if emb is None else {emb(e): n for e, n in nums.items()}


def _shift(p: Poly, n: int, d: int) -> Poly:
    """p + n/d."""
    if not n:
        return p
    nums, den = p._nums, p._den
    zero = (0,) * len(p.vars)
    if d == den:
        out = dict(nums)
    else:
        g = math.gcd(den, d)
        m = d // g
        out, n, den = {e: x * m for e, x in nums.items()}, n * (den // g), den * m
    c = out.get(zero, 0) + n
    if c:
        out[zero] = c
    else:
        del out[zero]
    return _reduced(p.vars, out, den)


def _sum(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b for two Polys with variables."""
    vs, an, bn = a.vars, a._nums, b._nums
    if b.vars != vs:
        vs, ea, eb = _alignment(vs, b.vars)
        an, bn = _embedded(an, ea), _embedded(bn, eb)
    da, db = a._den, b._den
    if da == db:
        out, den, m = dict(an), da, sign
    else:
        g = math.gcd(da, db)
        ma = db // g
        out, den, m = {e: x * ma for e, x in an.items()}, da * ma, sign * (da // g)
    get = out.get
    for e, x in bn.items():
        out[e] = get(e, 0) + m * x
    if 0 in out.values():
        out = {e: x for e, x in out.items() if x}
    return _reduced(vs, out, den)


def _scale(p: Poly, n: int, d: int) -> Poly:
    """p * n/d."""
    if not n:
        return _make(p.vars, {}, 1)
    if n == d:
        return p
    den = p._den
    if d == 1:
        # gcd(den, nums) == 1, so cancelling n against den is enough
        g = math.gcd(n, den)
        if g != 1:
            n //= g
            den //= g
        return _make(p.vars, {e: x * n for e, x in p._nums.items()}, den)
    return _reduced(p.vars, {e: x * n for e, x in p._nums.items()}, den * d)


def _product(a: Poly, b: Poly) -> Poly:
    """a * b for two Polys with variables."""
    vs, an, bn = a.vars, a._nums, b._nums
    if b.vars != vs:
        vs, ea, eb = _alignment(vs, b.vars)
        an, bn = _embedded(an, ea), _embedded(bn, eb)
    if len(bn) == 1:
        (e2, x2), = bn.items()
        out = {tuple(map(add, e1, e2)): x1 * x2 for e1, x1 in an.items()}
    elif len(an) == 1:
        (e1, x1), = an.items()
        out = {tuple(map(add, e1, e2)): x1 * x2 for e2, x2 in bn.items()}
    else:
        out = {}
        get = out.get
        for e1, x1 in an.items():
            for e2, x2 in bn.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + x1 * x2
        if 0 in out.values():
            out = {e: x for e, x in out.items() if x}
    return _reduced(vs, out, a._den * b._den)


# -- text and JSON readers -----------------------------------------------

_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")
_POWER = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([0-9]+))?")


def _factor(text: str, source: str) -> Coefficient:
    m = _RATIONAL.fullmatch(text)
    if m:
        return Fraction(int(m[1]), int(m[2] or 1))
    m = _POWER.fullmatch(text)
    if m:
        return Poly.var(m[1]) ** int(m[2] or 1)
    raise ValueError(f"malformed factor {text!r} in polynomial {source!r}")


def parse_poly(text: str) -> Poly:
    """Parse the sparse text form emitted by Poly.__str__.

    Grammar: terms joined by + or -, the first one optionally signed.  A
    term is factors joined by *; a factor is a rational p or p/q, or a
    variable name with an optional ^k.  Anything else is a ValueError.
    """
    source = text
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial string")
    pieces = re.split(r"([+-])", text)
    if not pieces[0].strip():
        # a leading sign: "-t" splits into "", "-", "t"
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    out = Poly.const(0)
    for sign, chunk in zip(pieces[::2], pieces[1::2]):
        if not chunk.strip():
            raise ValueError(f"empty term in polynomial {source!r}")
        term = Poly.const(1)
        for factor in chunk.split("*"):
            term = term * _factor(factor.strip(), source)
        out = out + (-term if sign == "-" else term)
    return out


def parse_coeff_map(data, key: str) -> dict[tuple[int, ...], Fraction | Poly]:
    """Read data[key], a JSON object from index strings to coefficient strings.

    A constant gives a Fraction and any other value a Poly.  A malformed
    input raises a one-line ValueError.
    """
    entries = data.get(key) if isinstance(data, dict) else None
    if not isinstance(entries, dict):
        raise ValueError(f"expected a JSON object whose {key!r} maps indices to strings")
    out = {}
    for k, c in entries.items():
        if not isinstance(c, str):
            raise ValueError(f"{key} entry {k}: {c!r} is not a string")
        try:
            p = parse_poly(c)
        except ZeroDivisionError:
            raise ValueError(f"{key} entry {k}: {c!r} has a zero denominator") from None
        out[parse_index(k)] = p.constant_value() if p.is_constant() else p
    return out


def json_int(data: Mapping, key: str, default: int | None = None) -> int:
    """data[key] as an int; it must be a JSON integer (not a bool)."""
    if key not in data:
        if default is None:
            raise ValueError(f"missing key {key!r}")
        return default
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def parse_rational(key: str, value) -> Fraction:
    """value, a number or a string p or p/q, as a Fraction."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"parameter {key}: {value!r} is not a rational number") from None


def parse_matrix(key: str, value) -> list[list[Fraction]]:
    """value, a list of rows of rationals, as lists of Fractions."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValueError(f"parameter {key}: {value!r} is not a list of rows")
    return [[parse_rational(key, x) for x in row] for row in value]


def as_poly(value: Coefficient) -> Poly:
    """Promote an int or Fraction to a constant Poly; pass a Poly through."""
    return value if isinstance(value, Poly) else Poly.const(value)


def as_coefficient(value: Coefficient) -> Fraction | Poly:
    """Normalize ints to Fractions, pass Fractions and Polys through."""
    if isinstance(value, (Poly, Fraction)):
        return value
    return Fraction(*_ratio(value))


def coeff_is_zero(value: Coefficient) -> bool:
    if isinstance(value, Poly):
        return value.is_zero()
    return value == 0
