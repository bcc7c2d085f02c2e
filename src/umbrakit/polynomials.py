"""Sparse multivariate polynomials over exact rationals.

Coefficient ring for parameterized moment arrays: elements of
Q[t, s, x1, ..., xd, ...] with named indeterminates.  Variables are kept
in sorted name order; binary operations unify variable sets through an
alignment computed once per pair of variable tuples.

A Poly holds integer numerators over one positive common denominator.
Every operation ends with a single gcd reduction of the denominator
against all numerators (Knuth, TAOCP vol. 2, 4.5.1), so equal
polynomials have equal parts and no Fraction is made inside polynomial
arithmetic.  A sum of products sum n/d a b is one accumulation, _dot,
with no Poly per product (Monagan and Pearce, J. Symb. Comput. 2011):
one union of variables and one common denominator, both from _common,
one product loop into one dict of numerators, one overflow check and
one gcd.  slot_sums holds many sums side by side as slots: _common
takes the union and the denominator of the terms of every slot in one
pass, _dot runs its product loop once per slot over that shared pair
and returns the slot's dict with no gcd, and only a nonzero slot
becomes a Poly, reduced by its own gcd, so sums that all vanish make
no Poly and take no gcd.  A constant Poly without variables acts as a
scalar.

Each monomial is keyed by one packed int (Monagan and Pearce, CASC
2007): over n sorted variables, the exponent of variable i sits in the
32-bit field at bit 32 (n - 1 - i), so the last variable is in the
lowest field.  A monomial product is one int addition, a constant's key
is 0 over any variables, and int order is lexicographic exponent order.
Keys over a suffix of a variable tuple are already keys over the whole
tuple, so a series part over ~z1..~zd meets the parameters of its
coefficients without being re-keyed.  Every field keeps its top bit
clear: exponents are below 2^31, and a product that would reach 2^31
raises ValueError instead of carrying into the next field.

from_coeff_map and to_coeff_map are the one path between a coefficient
map k -> c_k and a Poly; no other module builds or unpacks numerators.
The public API (the constructor, .terms, degree, coefficient, subs,
reduce_power) speaks exponent tuples.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, starmap
from operator import mul, or_
from typing import Callable, Iterable, Mapping, Sequence, Union

from .multiindex import parse_index

Scalar = Union[int, Fraction]
Coefficient = Union[int, Fraction, "Poly"]

_WIDTH = 32                    # bits per exponent field
_FIELD = (1 << _WIDTH) - 1     # one field's mask
_LIMIT = 1 << (_WIDTH - 1)     # exponents stay below this, so a field's top bit is clear


def _ratio(c: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator of a rational scalar."""
    if type(c) is int:
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    if isinstance(c, int):
        return int(c), 1
    raise TypeError(f"not a rational scalar: {c!r}")


def _pack(e: Sequence[int]) -> int:
    """The key of an exponent tuple."""
    key = 0
    for x in e:
        if not 0 <= x < _LIMIT:
            raise ValueError(f"exponent {x} in {tuple(e)} is not in [0, 2^31)")
        key = key << _WIDTH | x
    return key


@lru_cache(maxsize=None)
def _offsets(n: int) -> tuple[int, ...]:
    """The bit offset of each of n fields, first variable first."""
    return tuple(range(_WIDTH * (n - 1), -1, -_WIDTH))


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent tuple of a key over n variables."""
    return tuple([key >> s & _FIELD for s in _offsets(n)])


@lru_cache(maxsize=None)
def _guard(n: int) -> int:
    """The top bit of each of n fields."""
    return _LIMIT * (((1 << _WIDTH * n) - 1) // _FIELD)


@lru_cache(maxsize=1024)
def _alignment(a: tuple[str, ...], b: tuple[str, ...]):
    """The sorted union of two variable tuples and, for each side, the
    re-keying of its numerators into the union (None where the keys need
    no change)."""
    vs = tuple(sorted(set(a) | set(b)))
    return vs, _embedding(a, vs), _embedding(b, vs)


@lru_cache(maxsize=1024)
def _embedding(src: tuple[str, ...], dst: tuple[str, ...]):
    """The map from numerators keyed over src to numerators keyed over
    dst: each dst variable takes the field of the same src variable, or 0
    where src lacks it.  None where every key is unchanged, as when src
    is a suffix of dst."""
    if src == dst or not src:
        return None
    pos = {x: i for i, x in enumerate(src)}
    runs = []   # [last src index, last dst index, length] of fields that move together
    for j, x in enumerate(dst):
        i = pos.get(x)
        if i is None:
            continue
        if runs and runs[-1][:2] == [i - 1, j - 1]:
            runs[-1] = [i, j, runs[-1][2] + 1]
        else:
            runs.append([i, j, 1])
    ns, nd = len(src), len(dst)
    moves = tuple((_WIDTH * (ns - 1 - i), _WIDTH * (nd - 1 - j), (1 << _WIDTH * n) - 1)
                  for i, j, n in runs)
    if len(runs) == 1 and runs[0][2] == ns:
        # src is one contiguous run of dst: every key moves by one shift
        b = moves[0][1]
        return None if b == 0 else lambda nums: {k << b: x for k, x in nums.items()}
    return lambda nums: {sum((k >> a & m) << b for a, b, m in moves): x
                         for k, x in nums.items()}


class Poly:
    """Immutable sparse polynomial: integer numerators over one denominator.

    Parts: vars (sorted, distinct names), _nums (packed exponent key ->
    nonzero int) and _den (positive int) with gcd(_den, *_nums) == 1.
    The zero polynomial is {} over 1.  Exponents are below 2^31.  The
    hash is kept in _hash once computed.
    """

    __slots__ = ("vars", "_nums", "_den", "_hash")

    def __init__(self, vars: Iterable[str] = (),
                 terms: Mapping[tuple[int, ...], Scalar] | None = None):
        vs = tuple(vars)
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError(f"variables must be sorted and distinct: {vs}")
        p = from_coeff_map(terms or {}, vs)
        for name in ("vars", "_nums", "_den"):
            _set(self, name, getattr(p, name))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        n, d = _ratio(c)
        return _make((), {0: n}, d) if n else _make((), {}, 1)

    @classmethod
    def var(cls, name: str) -> "Poly":
        return _make((name,), {1: 1}, 1)

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Exponent tuple -> Fraction.  Built on each read, so writing to
        it leaves the Poly unchanged."""
        return to_coeff_map(self, self.vars)

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        # the keys are distinct, so two terms mean a variable term
        nums = self._nums
        return len(nums) < 2 and not next(iter(nums), 0)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(sum(self._nums.values()), self._den)

    def degree(self, name: str) -> int:
        if name not in self.vars or not self._nums:
            return 0
        s = _offsets(len(self.vars))[self.vars.index(name)]
        return max(e >> s & _FIELD for e in self._nums)

    def coefficient(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, a Poly in the remaining variables."""
        if name not in self.vars:
            return self if power == 0 else _ZERO
        i = self.vars.index(name)
        s = _offsets(len(self.vars))[i]
        low = (1 << s) - 1
        # drop the field of name: the fields above it move down by one
        nums = {(e >> (_WIDTH + s) << s) | (e & low): n
                for e, n in self._nums.items() if (e >> s & _FIELD) == power}
        return _reduced(self.vars[:i] + self.vars[i + 1:], nums, self._den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Coefficient) -> "Poly":
        return _sum(self, as_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(self.vars, {e: -n for e, n in self._nums.items()}, self._den)

    def __sub__(self, other: Coefficient) -> "Poly":
        return _sum(self, as_poly(other), -1)

    def __rsub__(self, other: Coefficient) -> "Poly":
        return _sum(as_poly(other), self, -1)

    def __mul__(self, other: Coefficient) -> "Poly":
        if type(other) is Poly and other.vars:
            if self.vars:
                return _dot(((self, other, 1, 1),))
            return _scale(other, *_scalar_parts(self))
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
        return _binary_power(self, n, _ONE)

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
        try:
            return self._hash
        except AttributeError:
            pass
        nums = self._nums
        seen = reduce(or_, nums, 0)
        used = tuple(x for x, s in zip(self.vars, _offsets(len(self.vars)))
                     if seen >> s & _FIELD)
        if not used:
            # equal to its scalar value, so it must hash like it
            h = hash(Fraction(sum(nums.values()), self._den))
        else:
            # canonical form with variables of zero degree dropped
            nums = _embedded(nums, _embedding(self.vars, used))
            h = hash((used, self._den, frozenset(nums.items())))
        _set(self, "_hash", h)
        return h

    # -- substitution -------------------------------------------------

    def subs(self, mapping: Mapping[str, Coefficient]) -> "Poly":
        """Substitute variables by polynomials or scalars.

        A constant is returned as it is.  Renaming one variable to one the
        polynomial does not contain permutes the exponents when every
        variable occurs, and costs no copy when the renamed variable is
        the only one; every other mapping expands term by term, the last
        factor of each term meeting the others in one _dot, which keeps
        only the variables that occur.
        """
        if not self.vars:
            return self
        if len(mapping) == 1:
            (name, new), = mapping.items()
            if (name in self.vars and type(new) is Poly and len(new.vars) == 1
                    and new.vars[0] not in self.vars and new._den == 1
                    and new._nums == {1: 1}):
                if self.vars == (name,):
                    if not self.is_constant():
                        return _make(new.vars, self._nums, self._den)
                elif all(reduce(or_, self._nums, 0) >> s & _FIELD
                         for s in _offsets(len(self.vars))):
                    names = tuple(new.vars[0] if x == name else x for x in self.vars)
                    vs = tuple(sorted(names))
                    return _make(vs, _embedded(self._nums, _embedding(names, vs)), self._den)
        terms = []
        powers: dict = {}
        nv = len(self.vars)
        for e, n in self._nums.items():
            factors = []
            for name, k in zip(self.vars, _unpack(e, nv)):
                if not k:
                    continue
                f = powers.get((name, k))
                if f is None:
                    base = as_poly(mapping[name]) if name in mapping else Poly.var(name)
                    f = powers[name, k] = base ** k
                factors.append(f)
            *rest, last = factors or [_ONE]
            terms.append((reduce(mul, rest, _ONE), last, n, self._den))
        return _dot(terms)

    def reduce_power(self, name: str, order: int, replacement: Coefficient) -> "Poly":
        """Rewrite name**order -> replacement wherever it divides a term.

        Used for declared square roots: e.g. s with s**2 -> a keeps the
        ring polynomial while modelling sqrt(a).
        """
        if name not in self.vars:
            return self
        rep = as_poly(replacement)
        powers = {0: _ONE}
        terms = []
        s = _offsets(len(self.vars))[self.vars.index(name)]
        for e, n in self._nums.items():
            q = (e >> s & _FIELD) // order
            f = powers.get(q)
            if f is None:
                f = powers[q] = rep ** q
            terms.append((_make(self.vars, {e - (q * order << s): 1}, 1), f, n, self._den))
        return _dot(terms)

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        nv = len(self.vars)
        terms = sorted(((_unpack(k, nv), x) for k, x in self._nums.items()),
                       key=lambda ex: (sum(ex[0]), ex[0]), reverse=True)
        for e, x in terms:
            g = math.gcd(x, self._den)
            n, d = x // g, self._den // g
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
_ONE = _make((), {0: 1}, 1)


def _binary_power(base, n: int, one):
    """base ** n, n >= 0, by square-and-multiply from one: a product per set
    bit of n, a squaring per bit after the lowest and none after the highest."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _scalar_parts(c) -> tuple[int, int]:
    """Numerator and denominator of an int, a Fraction or a Poly without
    variables."""
    return (sum(c._nums.values()), c._den) if type(c) is Poly else _ratio(c)


def _embedded(nums: dict, emb) -> dict:
    return nums if emb is None else emb(nums)


def _sum(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b; the constant 0 as an operand costs no copy."""
    if not (b._nums or b.vars):
        return a
    if not (a._nums or a.vars):
        return b if sign == 1 else -b
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


def _dot(terms: Sequence[tuple[Poly, Poly, int, int]],
         common: tuple[tuple[str, ...], int] | None = None):
    """sum of n/d a b over the terms (a, b, n, d), d > 0, in one pass.

    After Monagan and Pearce (J. Symb. Comput. 46, 2011): the variable
    tuples of all terms are united once and their common denominator
    lcm(a._den b._den d) taken, both by _common, every product is scaled
    onto that denominator and added key by key into one dict, and one gcd
    reduces the sum.  No terms sum to the constant 0.

    Given common = (vs, den), _common of a larger list of terms, the sum
    is one slot of that list's accumulation: it returns den times the sum
    as a dict of numerators over vs, a cancelled key kept at 0, with no
    gcd and no Poly.
    """
    vs, den = common or _common(terms)
    out: dict = {}
    get = out.get
    for a, b, n, d in terms:
        an, bn = a._nums, b._nums
        if a.vars and a.vars != vs:
            an = _embedded(an, _embedding(a.vars, vs))
        if b.vars and b.vars != vs:
            bn = _embedded(bn, _embedding(b.vars, vs))
        if len(an) > len(bn):
            an, bn = bn, an
        m = n * (den // (a._den * b._den * d))
        for e1, x1 in an.items():
            x1 *= m
            for e2, x2 in bn.items():
                e = e1 + e2
                out[e] = get(e, 0) + x1 * x2
    # each field of a sum of two keys is below 2^32, so it carries nothing
    # into the next field, and its top bit is set iff the exponent
    # overflowed; a cancelled key is still in out, so it is checked too
    if reduce(or_, out, 0) & _guard(len(vs)):
        raise ValueError("polynomial product has an exponent of 2^31 or more")
    if common:
        return out
    if 0 in out.values():
        out = {e: x for e, x in out.items() if x}
    return _reduced(vs, out, den)


def _common(terms: Iterable[tuple[Poly, Poly, int, int]]) -> tuple[tuple[str, ...], int]:
    """The union of the variables of the terms (a, b, n, d) and their
    common denominator, as _dot takes them for a sum or a slot."""
    vs, den = (), 1
    for a, b, _, d in terms:
        # a scalar's key is 0 over any variables, so () needs no alignment
        if a.vars and a.vars != vs:
            vs = _alignment(vs, a.vars)[0] if vs else a.vars
        if b.vars and b.vars != vs:
            vs = _alignment(vs, b.vars)[0] if vs else b.vars
        den = math.lcm(den, a._den * b._den * d)
    return vs, den


def _fold(a: Coefficient, b: Coefficient, n: int) -> tuple[Poly, Poly, int, int]:
    """The term n a b as (a, b, n, d) over Polys: a rational factor goes
    into n/d and makes no Poly."""
    d = 1
    if type(a) is not Poly:
        a, n, d = _ONE, n * a.numerator, a.denominator
    if type(b) is not Poly:
        b, n, d = _ONE, n * b.numerator, d * b.denominator
    return a, b, n, d


def sum_of_products(terms: Iterable[tuple[Coefficient, Coefficient, int]]) -> Poly:
    """sum of w a b over terms (a, b, w) of rationals or Polys and an int w,
    as one _dot."""
    return _dot([t for t in starmap(_fold, terms) if t[2]])


def slot_sums(slots: Sequence[Iterable[tuple[Coefficient, Coefficient, int]]]
              ) -> dict[int, Poly]:
    """The sum of w a b over the terms (a, b, w) of each slot, slots[i]
    being the terms of slot i: one _common pass over the terms of every
    slot, so all slots share one variable tuple and one denominator, and
    one _dot dict per slot.

    Returns i -> the sum of slot i for the slots whose sum is not zero,
    in increasing i, each sum a Poly over the variables of all the terms.
    An empty result says that every sum is zero, and takes no gcd.
    """
    slots = [
        [t for t in starmap(_fold, terms) if t[2]] for terms in slots]
    vs, den = common = _common(chain.from_iterable(slots))
    outs = [_dot(terms, common) for terms in slots]
    return {
        i: _reduced(vs, {e: x for e, x in out.items() if x}, den)
        for i, out in enumerate(outs) if any(out.values())}


# -- coefficient maps ----------------------------------------------------
#
# A coefficient map k -> c_k over names stands for the Poly
# sum_k c_k names^k / weight(k), where each c_k is a rational or a Poly in
# other variables and weight(k) is a positive int (1 by default).

# One int object per parameter key that to_coeff_map hands out, across
# calls, so a moment array holds each once; clearing costs no result.
_SHARED: dict = {}
_SHARED_MAX = 1 << 12


def from_coeff_map(coeffs: Mapping[tuple[int, ...], Coefficient],
                   names: Sequence[str],
                   weight: Callable[[tuple[int, ...]], int] | None = None) -> Poly:
    """sum_k coeffs[k] names^k / weight(k) as one Poly in the names and
    the variables of the coefficients, which must not use the names."""
    names = tuple(names)
    params = tuple(sorted({x for c in coeffs.values() if type(c) is Poly
                           for x in c.vars}))
    if params and not set(params).isdisjoint(names):
        raise ValueError(f"a coefficient uses one of the variables {names}")
    den, parts = 1, []   # (key of k, (key over params, numerator) pairs, denominator)
    for k, c in coeffs.items():
        if len(k) != len(names):
            raise ValueError(f"index {k} does not match the variables {names}")
        if type(c) is Poly:
            nums, d = _embedded(c._nums, _alignment(c.vars, params)[1]).items(), c._den
        else:
            n, d = (c.numerator, c.denominator) if type(c) is Fraction else _ratio(c)
            nums = ((0, n),) if n else ()
        if nums:
            d *= weight(k) if weight else 1
            den = math.lcm(den, d)
            parts.append((_pack(k), nums, d))
    out = {}
    shift = _WIDTH * len(names)
    for k, nums, d in parts:
        m = den // d
        for e, x in nums:
            out[e << shift | k] = x * m
    # the sorted variables, and the map of keys over params + names onto them
    vs, place, _ = _alignment(params + names, ())
    return _reduced(vs, _embedded(out, place), den)


def to_coeff_map(p: Poly, names: Sequence[str],
                 weight: Callable[[tuple[int, ...]], int] | None = None
                 ) -> dict[tuple[int, ...], Fraction | Poly]:
    """The coefficient map over names whose from_coeff_map is p.

    Each coefficient is in the canonical form of as_coefficient: a
    Fraction unless it has a term in p's other variables, a Poly in them
    then.  Zero coefficients are left out.
    """
    names, vs, nums, den = tuple(names), p.vars, p._nums, p._den
    nn = len(names)
    params = vs[:len(vs) - nn]
    if params + names != vs:
        # lay the fields out as the parameters followed by the names
        params = tuple(x for x in vs if x not in names)
        nums = _embedded(nums, _embedding(vs, params + names))
    out = {}
    if not params:
        for key, x in nums.items():
            k = _unpack(key, nn)
            out[k] = Fraction(x * weight(k) if weight else x, den)
        return out
    if len(_SHARED) > _SHARED_MAX:
        _SHARED.clear()
    shared = _SHARED.setdefault
    shift = _WIDTH * nn
    low = (1 << shift) - 1
    groups: dict = {}   # key of k -> {key over params: numerator}
    for e, x in nums.items():
        pe = e >> shift
        groups.setdefault(e & low, {})[shared(pe, pe)] = x
    for key, terms in groups.items():
        k = _unpack(key, nn)
        if weight:
            w = weight(k)
            terms = {e: x * w for e, x in terms.items()}
        out[k] = as_coefficient(_reduced(params, terms, den))
    return out


# -- text and JSON readers -----------------------------------------------

_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")
_POWER = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([0-9]+))?")


def _factor(text: str, source: str) -> Coefficient:
    m = _RATIONAL.fullmatch(text)
    if m:
        return Fraction(int(m[1]), int(m[2] or 1))
    m = _POWER.fullmatch(text)
    if m:
        k = int(m[2] or 1)
        if k >= _LIMIT:
            raise ValueError(f"exponent {k} of {m[1]} in polynomial {source!r} "
                             f"is 2^31 or more")
        return Poly.var(m[1]) ** k
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

    Each value is in the canonical form of as_coefficient.  A malformed
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
        out[parse_index(k)] = as_coefficient(p)
    return out


def read_json(source, text: str | None = None):
    """The JSON value of text, or of the file at path source if text is None;
    nesting too deep to decode is a one-line ValueError naming source."""
    try:
        if text is None:
            with open(source) as fh:
                return json.load(fh)
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"the JSON of {source} is nested too deeply to read") from None


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


def parse_matrix(key: str, value) -> tuple[tuple[Fraction, ...], ...]:
    """value, a list (or tuple) of rows of rationals, as a tuple of tuples
    of Fractions."""
    rows = (list, tuple)
    if not isinstance(value, rows) or not all(isinstance(row, rows) for row in value):
        raise ValueError(f"parameter {key}: {value!r} is not a list of rows")
    return tuple([
        tuple([parse_rational(key, x) for x in row]) for row in value])


def as_poly(value: Coefficient) -> Poly:
    """Promote an int or Fraction to a constant Poly; pass a Poly through."""
    return value if isinstance(value, Poly) else Poly.const(value)


def as_coefficient(value: Coefficient) -> Fraction | Poly:
    """The canonical form of a coefficient: a Poly with a variable term as
    it is, and any other value as a Fraction."""
    if isinstance(value, Poly):
        return value.constant_value() if value.is_constant() else value
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))

