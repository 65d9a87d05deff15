"""Exact scalar and polynomial arithmetic.

Scalars are either `fractions.Fraction` values or elements of a small number
field Q[y]/(m(y)) declared through `NumberField`.  Both implement the same
operators (+, -, *, /, ==, truth value), and code operates on a scalar
through them.  `Poly` turns int coefficients into Fractions; where a plain
int may meet a division, write `Fraction(1) / x`, since `1 / x` would give
a float.  All arithmetic is exact; no floating point enters any
computation.  The zero polynomial has degree -1, so degree comparisons stay
in the integers.

`pseudo_divrem` is the one polynomial long-division loop: `poly_divrem`
runs it on the monic divisor b / lead(b), root extraction and
`Piece.coords` run it on integer coefficient lists, and `NumberField.element`
reduces a number-field product by it, as the remainder by the monic modulus
m of degree k (s = 1: each step folds y^i = y^(i-k) * (y^k - m(y)) from the
top, on the coordinate list, with no `Poly`).  An exact coefficient
list is cleared to integers with one scale here too: `_scaled_ints` (the
lcm of the denominators) and `primitive_multiple` (content divided out).

`_gcd_loop` is the one gcd loop, the primitive pseudo-remainder sequence
(Knuth, TAOCP vol. 2, 4.6.1) on `pseudo_divrem`: s*a = q*b + r with s a
nonzero constant, so a and b have the common divisors of b and r, and the
degrees fall until a remainder is zero; the last nonzero one is the gcd up
to a unit.  Each remainder is made primitive (ints) or monic (other
scalars), which changes no gcd and keeps the coefficients small.  The
`RationalFunctionP1` constructor reduces by it (`_lowest_terms`): rational
numer and denom are cleared to ints with one scale each, and their
primitive gcd g divides both over Z by Gauss's lemma (a primitive factor
over Q of an int polynomial is one over Z).  So each top coefficient met
while dividing by g is a multiple of lead(g), `pseudo_divrem` divides
exactly with s = 1, and the Fractions are built once, when the denominator
is made monic.  Other scalars divide by the monic gcd, with s = 1 too.
`poly_gcd` is a wrapper over the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .errors import ReducibleModulusError

_INT = {int}


def rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def scalar_sort_key(x):
    """Total order on scalars: the key by which divisor entries are ordered
    (`divisors.point_sort_key`), so that equal divisors serialize the same.
    A Fraction is its own key."""
    if type(x) is Fraction:
        return (0, x)
    if isinstance(x, NumberFieldElem):
        return (1, x.coords)
    return (0, Fraction(x))


def _power(base, n: int, one):
    """base**n for an int n >= 0, by square-and-multiply from `one`."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class Poly:
    """Univariate polynomial; coefficients are stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((Fraction(1),))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, and -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        return Poly(convolve(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not c:
            return Poly.zero()
        return Poly(tuple(co * c for co in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Poly.one())

    def shifted(self, k: int) -> "Poly":
        """Multiply by the k-th power of the variable."""
        if self.is_zero:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading
        if lead == 1:
            return self
        inv = 1 / lead
        return Poly(tuple(c * inv for c in self.coeffs))

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def convolve(a, b) -> list:
    """Coefficients of the product of two polynomials, all lowest degree first.

    Works over any scalars (ints, Fractions, number-field elements); the
    zero polynomial is the empty sequence.
    """
    if not a or not b:
        return []
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + n] = [o + x * y for o, y in zip(out[i : i + n], b)]
    return out


def _scaled_ints(vec):
    """(vec * L as ints, L) with L the lcm of the denominators.

    None when some entry is neither a Fraction nor an int.
    """
    types = set(map(type, vec))
    if types <= _INT:  # what the section-ring builders pass in
        return list(vec), 1
    L = 1
    for c in vec:
        t = type(c)
        if t is Fraction:
            den = c.denominator
            if L % den:
                L = L // gcd(L, den) * den
        elif t is not int:
            return None
    if L == 1:
        return [c.numerator for c in vec], 1
    return [c.numerator * (L // c.denominator) for c in vec], L


def primitive_multiple(vec) -> list:
    """A nonzero multiple of the list vec: primitive ints when every entry is
    rational, else the entries unchanged.

    Spans, ranks, pivots and kernels do not change when a vector is scaled, so
    callers that only use those may pass this in place of vec.
    """
    scaled = _scaled_ints(vec)
    if scaled is None:
        return list(vec)
    u = scaled[0]
    g = gcd(*u)
    return [x // g for x in u] if g > 1 else u


def pseudo_divrem(a, b) -> tuple[list, list, object]:
    """Fraction-free division of coefficient lists: (q, r, s) with
    s*a = q*b + r, deg r < deg b and s a nonzero scalar (Knuth, TAOCP
    vol. 2, 4.6.1, Algorithm R).

    b is nonempty with a nonzero last entry.  Each step clears the top of the
    remainder with no inverse: by the top c itself when the lead L of b is
    one, else after multiplying the remainder and q by m = L / gcd(c, L) for
    ints, or by m = L for any other scalar; s is the product of the m.  So
    ints stay ints, and s divides L^k over k steps.
    """
    lead = b[-1]
    db = len(b) - 1
    rem = list(a)
    q = [0] * (len(rem) - db)
    s = 1
    monic = lead == 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        if not monic:
            if type(c) is int and type(lead) is int:
                g = gcd(c, lead)
                m, c = lead // g, c // g
            else:
                m = lead
            if m != 1:
                rem = [m * x for x in rem[:i]]
                q = [m * x for x in q]
                s = s * m
        k = i - db
        q[k] = c
        rem[k:i] = [x - c * y for x, y in zip(rem[k:i], b)]
    return q, rem[:db], s


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division: returns (q, r) with a = q*b + r and deg r < deg b, by
    `pseudo_divrem` on the monic b / lead (s = 1), q times 1 / lead."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero or a.degree < b.degree:
        return Poly.zero(), a
    lead_inv = 1 / b.leading
    monic = [c * lead_inv for c in b.coeffs[:-1]] + [1]
    q, r, _ = pseudo_divrem(a.coeffs, monic)
    return Poly([c * lead_inv if c else c for c in q]), Poly(r)


def _primitive(v: list) -> list:
    """The int list v divided by its content, with a positive last entry (so
    that `pseudo_divrem` by it scales by s = 1 when the division is exact)."""
    g = gcd(*v)
    if v[-1] < 0:
        g = -g
    return v if g == 1 else [c // g for c in v]


def _monic(v: list) -> list:
    """The list v divided by its last entry."""
    inv = Fraction(1) / v[-1]
    return [c * inv for c in v]


def _gcd_loop(a, b, unit) -> list:
    """A gcd of the coefficient lists a and b, not both empty, by the
    primitive pseudo-remainder sequence (module docstring): unit, which is
    `_primitive` for int lists and `_monic` for other scalars, divides each
    remainder by a unit of Q[w]."""
    if not b:
        return unit(a)
    while True:
        b = unit(b)
        r = pseudo_divrem(a, b)[1]
        while r and not r[-1]:
            r.pop()
        if not r:
            return b
        a, b = b, r


def _lowest_terms(numer, denom) -> tuple[list, list]:
    """(n, d) with n / d = numer / denom in lowest terms and d monic, for
    nonzero coefficient lists, divided exactly by their gcd (module
    docstring).  An int gcd has a positive lead, since by a negative one
    `pseudo_divrem` would scale by s = -1."""
    ints_n, ints_d = _scaled_ints(numer), _scaled_ints(denom)
    if ints_n is None or ints_d is None:
        g = _gcd_loop(numer, denom, _monic)
        if len(g) > 1:
            numer = pseudo_divrem(numer, g)[0]
            denom = pseudo_divrem(denom, g)[0]
        inv = Fraction(1) / denom[-1]
        return [c * inv for c in numer], [c * inv for c in denom]
    (n, scale_n), (d, scale_d) = ints_n, ints_d
    g = _gcd_loop(n, d, _primitive)
    if len(g) > 1:
        n = pseudo_divrem(n, g)[0]
        d = pseudo_divrem(d, g)[0]
    # numer / denom = (n / scale_n) / (d / scale_d)
    lead = d[-1]
    return [Fraction(c * scale_d, lead * scale_n) for c in n], [Fraction(c, lead) for c in d]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by `_gcd_loop`, on int lists when a and b are rational;
    gcd(p, 0) = monic p."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    ints_a, ints_b = _scaled_ints(a.coeffs), _scaled_ints(b.coeffs)
    if ints_a is None or ints_b is None:
        return Poly(_gcd_loop(a.coeffs, b.coeffs, _monic))
    g = _gcd_loop(ints_a[0], ints_b[0], _primitive)
    return Poly([Fraction(c, g[-1]) for c in g])


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns monic g and u, v with u*a + v*b = g."""
    r0, r1 = a, b
    u0, u1 = Poly.one(), Poly.zero()
    v0, v1 = Poly.zero(), Poly.one()
    while not r1.is_zero:
        q, r = poly_divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    inv = 1 / r0.leading
    return r0.scale(inv), u0.scale(inv), v0.scale(inv)


@dataclass(frozen=True)
class NumberField:
    """Q[y]/(m(y)) for a monic integer m of degree 1..4, declared irreducible
    by the caller.  Irreducibility is only probed at inversion time."""

    min_poly: tuple[int, ...]

    def __post_init__(self):
        mp = tuple(int(c) for c in self.min_poly)
        object.__setattr__(self, "min_poly", mp)
        deg = len(mp) - 1
        if deg < 1 or deg > 4:
            raise ValueError("minimal polynomial must have degree 1..4")
        if mp[-1] != 1:
            raise ValueError("minimal polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def element(self, coords) -> "NumberFieldElem":
        # the remainder by the monic modulus (module docstring)
        cs = pseudo_divrem([rational(c) for c in coords], self.min_poly)[1]
        cs += [Fraction(0)] * (self.degree - len(cs))
        return NumberFieldElem(self, tuple(cs))

    def from_rational(self, q) -> "NumberFieldElem":
        return self.element([rational(q)])

    def gen(self) -> "NumberFieldElem":
        return self.element([0, 1])

    def zero(self) -> "NumberFieldElem":
        return self.element([])

    def one(self) -> "NumberFieldElem":
        return self.element([1])


@dataclass(frozen=True)
class NumberFieldElem:
    """An element of a NumberField, stored by coordinates in the power basis."""

    field: NumberField
    coords: tuple[Fraction, ...]

    def _coerce(self, other):
        if isinstance(other, NumberFieldElem):
            if other.field != self.field:
                raise ValueError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, NumberFieldElem):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.field, self.coords))

    def __repr__(self):
        return f"NumberFieldElem({list(map(str, self.coords))})"

    def __neg__(self):
        return NumberFieldElem(self.field, tuple(-c for c in self.coords))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElem(
            self.field, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElem(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.element(convolve(self.coords, o.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one())

    def inverse(self) -> "NumberFieldElem":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        g, u, _ = poly_xgcd(Poly(self.coords), Poly(self.field.min_poly))
        if g.degree != 0:
            raise ReducibleModulusError(
                f"declared modulus shares the factor {g!r} with {self!r}"
            )
        return self.field.element(u.coeffs)


Scalar = Union[Fraction, NumberFieldElem]
