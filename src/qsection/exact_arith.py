"""Exact scalar and polynomial arithmetic.

Scalars are either `fractions.Fraction` values or elements of a small number
field Q[y]/(m(y)) declared through `NumberField`.  All arithmetic is exact;
no floating point enters any computation.  The zero polynomial has degree
-1, so degree comparisons stay in the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ReducibleModulusError


def rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def scalar_is_zero(x) -> bool:
    if isinstance(x, (Fraction, int)):
        return x == 0
    return x.is_zero()


def scalar_inverse(x):
    if isinstance(x, NumberFieldElem):
        return x.inverse()
    return Fraction(1) / Fraction(x)


def scalar_div(a, b):
    if isinstance(a, NumberFieldElem) or isinstance(b, NumberFieldElem):
        return a * scalar_inverse(b)
    return Fraction(a) / Fraction(b)


def scalar_sort_key(x):
    """Total order on scalars, used only for canonical serialization order."""
    if isinstance(x, NumberFieldElem):
        return (1, x.coords)
    return (0, Fraction(x))


def as_fraction(x) -> Fraction | None:
    """The Fraction value of a scalar, or None if it is irrational."""
    if isinstance(x, NumberFieldElem):
        return x.as_fraction() if x.is_rational() else None
    return Fraction(x)


class Poly:
    """Univariate polynomial; coefficients are stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while cs and scalar_is_zero(cs[-1]):
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

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

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
        if scalar_is_zero(c):
            return Poly.zero()
        return Poly(tuple(co * c for co in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __divmod__(self, other):
        return poly_divrem(self, other)

    def __floordiv__(self, other):
        return poly_divrem(self, other)[0]

    def __mod__(self, other):
        return poly_divrem(self, other)[1]

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
        inv = scalar_inverse(lead)
        return Poly(tuple(c * inv for c in self.coeffs))

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def all_rational(self) -> bool:
        return all(as_fraction(c) is not None for c in self.coeffs)

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        out = []
        for c in self.coeffs:
            q = as_fraction(c)
            if q is None:
                raise ValueError("polynomial has irrational coefficients")
            out.append(q)
        return tuple(out)


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


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division: returns (q, r) with a = q*b + r and deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero or a.degree < b.degree:
        return Poly.zero(), a
    lead_inv = scalar_inverse(b.leading)
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    q = [Fraction(0)] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if scalar_is_zero(c):
            continue
        factor = c * lead_inv
        q[i - db] = factor
        for j, bc in enumerate(b.coeffs):
            rem[i - db + j] = rem[i - db + j] - factor * bc
    return Poly(q), Poly(rem[:db])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm; gcd(p, 0) = monic p."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    while not b.is_zero:
        a, b = b, poly_divrem(a, b)[1]
    return a.monic()


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
    inv = scalar_inverse(r0.leading)
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

    def modulus(self) -> Poly:
        return Poly(tuple(Fraction(c) for c in self.min_poly))

    def element(self, coords) -> "NumberFieldElem":
        cs = [rational(c) for c in coords]
        if len(cs) > self.degree:
            rem = poly_divrem(Poly(cs), self.modulus())[1]
            cs = list(rem.coeffs)
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

    def _rep(self) -> Poly:
        return Poly(self.coords)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElem):
            if other.field != self.field:
                raise ValueError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def __bool__(self):
        return not self.is_zero()

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
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = poly_divrem(self._rep() * o._rep(), self.field.modulus())[1]
        return self.field.element(prod.coeffs)

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
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def inverse(self) -> "NumberFieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        g, u, _ = poly_xgcd(self._rep(), self.field.modulus())
        if g.degree != 0:
            raise ReducibleModulusError(
                f"declared modulus shares the factor {g!r} with {self!r}"
            )
        return self.field.element(u.coeffs)


Scalar = Union[Fraction, NumberFieldElem]
