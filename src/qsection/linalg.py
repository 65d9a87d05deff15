"""Exact linear algebra over the scalar types used in this package.

Vectors are plain lists of scalars (Fractions, ints or number-field
elements).  Everything is deterministic: pivots are chosen left to right and
rows are processed in the order supplied.

One elimination step serves every sweep.  A vector u is cleared at the pivot
column p of a stored row r as

    u <- a*u - b*r,    (a, b) = (1, u[p]) when r[p] is one, else
                       (a, b) = (r[p], u[p]) divided by their gcd,

and the step skips the zero entries of r, which is most of them in the
vectors the section-ring builders pass in; r is zero before p, so u[:p] is
only multiplied by a.  The gcd pair only arises for int rows.  Stored rows
come in two forms:

* Rational input is eliminated over Python ints, fraction-free.  A vector
  whose entries are all Fractions or ints is multiplied by the lcm L of its
  denominators on entry, entry by entry as c.numerator * (L // c.denominator).
  Stored rows are primitive (content divided out, pivot positive), so the
  integers stay small.
* Number-field input is eliminated over the field, with every stored row
  divided by its pivot, so its pivot is one and the step is u - u[p]*r.

Results are turned back into Fractions only on the way out, and both forms
give exactly what elimination over the field gives:

* Multiplying a row by a nonzero scalar does not change the row space, and
  every step above is such a multiplication followed by a field elimination
  step.  So at every step each row is a nonzero multiple of the row field
  elimination would hold, and the two see the same zero patterns, pivots
  and ranks.
* `SpanBuilder.reduce` returns the integer residual divided by the tracked
  scale (L times the product of the a's).  For a given span, the residual
  of a vector with zeros at the pivot columns is unique: two such residuals
  differ by a span element that vanishes at every pivot column, which is 0.

A `SpanBuilder` starts with int rows; the first time it meets a vector with
a number-field entry it divides each row by its pivot and keeps pivot-one
rows from then on, because a model over Q(sqrt 2) mixes rational and
irrational coordinate vectors in one span.

`SpanBuilder.add` returns the row it stores, a nonzero multiple of the
residual, or None when the vector lies in the span already.  Relations need
no kernel routine: `section_ring.find_relations` adds the vectors
(evaluation column | monomial coordinates) to one span and reads each
relation off a returned row whose column block is zero (proof in its module
docstring), so `reduce` is not on that path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_INT = {int}


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
    """A nonzero multiple of vec: primitive ints when every entry is rational,
    else the entries unchanged.

    Spans, ranks, pivots and kernels do not change when a vector is scaled, so
    callers that only use those may pass this in place of vec.
    """
    scaled = _scaled_ints(vec)
    if scaled is None:
        return list(vec)
    u = scaled[0]
    g = gcd(*u)
    return [x // g for x in u] if g > 1 else u


def _step(u: list, row: list, p: int) -> tuple[list, int]:
    """(a*u - b*row, a) with u[p] cleared, walking row from its pivot p."""
    c, h = u[p], row[p]
    if h == 1:
        a, b = 1, c
    else:
        g = gcd(c, h)
        a, b = h // g, c // g
    if a == 1:
        return u[:p] + [x - b * y if y else x for x, y in zip(u[p:], row[p:])], 1
    head = [a * x for x in u[:p]]
    return head + [a * x - b * y if y else a * x for x, y in zip(u[p:], row[p:])], a


def _stored(u: list, p: int, ints: bool) -> list:
    """u in stored form: primitive ints with u[p] > 0, or u[p] one."""
    if not ints:
        inv = Fraction(1) / u[p]
        return [x * inv if x else x for x in u]
    g = gcd(*u)
    if u[p] < 0:
        g = -g
    return u if g in (0, 1) else [x // g for x in u]


class SpanBuilder:
    """Incrementally maintained row-echelon basis of a subspace.

    Rows are kept sorted by pivot: primitive int rows, or pivot-one rows
    once the span has met a number-field vector (see the module docstring).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self._ints = True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec) -> tuple[list, int]:
        """(s * residual, s) for vec against the rows, s a positive int."""
        scaled = _scaled_ints(vec) if self._ints else (list(vec), 1)
        if scaled is None:  # a number-field vector: pivot-one rows for good
            self.rows = [
                [Fraction(x, row[p]) for x in row] for row, p in zip(self.rows, self.pivots)
            ]
            self._ints = False
            scaled = list(vec), 1
        u, scale = scaled
        for row, p in zip(self.rows, self.pivots):
            if u[p]:
                u, a = _step(u, row, p)
                scale *= a
        return u, scale

    def _insert(self, row: list, p: int) -> None:
        # keep rows sorted by pivot so elimination stays a single sweep
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < p:
            idx += 1
        self.rows.insert(idx, row)
        self.pivots.insert(idx, p)

    def reduce(self, vec) -> list:
        """Residual of vec after elimination against the current basis."""
        u, s = self._eliminate(vec)
        if not self._ints:
            return u
        return [Fraction(x, s) if x else _ZERO for x in u]

    def add(self, vec) -> list | None:
        """Add a vector to the span: the row stored for it (see the module
        docstring), or None when it lies in the span already."""
        u = self._eliminate(vec)[0]
        p = next((i for i, x in enumerate(u) if x), None)
        if p is None:
            return None
        row = _stored(u, p, self._ints)
        self._insert(row, p)
        return row

    def contains(self, vec) -> bool:
        return not any(self._eliminate(vec)[0])

