"""Exact row reduction over the scalar types used in this package.

This module is elimination only: a vector is cleared to integers by
`exact_arith._scaled_ints`, which also serves the polynomial code.

A vector is a map {column: nonzero entry} (Fractions, ints or number-field
elements); a missing column is zero.  `SpanBuilder.add` and `reduce` drop
the zero entries of a vector on the way in, so a zero is never a pivot, and
a row's pivot is its smallest column.  Everything is deterministic: pivots
are chosen left to right and rows are processed in the order supplied.

One elimination step serves every sweep.  A vector u is cleared at the pivot
column p of a stored row r as

    u <- a*u - b*r,    (a, b) = (1, u[p]) when r[p] is one, else
                       (a, b) = (r[p], u[p]) divided by their gcd,

and the step walks the nonzeros of r only, which are few in the vectors
the section-ring builders pass in; the entries of u outside r are only
multiplied by a.  The gcd pair only arises for int rows.  Stored rows come
in two forms:

* Rational input is eliminated over Python ints, fraction-free.  A vector
  whose entries are all Fractions or ints is multiplied by the lcm L of its
  denominators on entry (`_scaled_ints`).  Stored rows are primitive
  (content divided out, pivot positive), so the integers stay small.
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

A `SpanBuilder` starts with int rows; the first time it meets a nonzero
number-field entry it divides each row by its pivot and keeps pivot-one
rows from then on, because a model over Q(sqrt 2) mixes rational and
irrational coordinate vectors in one span.

`SpanBuilder.add` returns the row it stores, a nonzero multiple of the
residual, or None when the vector lies in the span already.  Relations need
no kernel routine: `section_ring.find_relations` adds the vectors
(evaluation column | monomial coordinates) to one span and reads each
relation off a returned row whose smallest column lies in the monomial
block (proof in its module docstring), so `reduce` is not on that path.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .exact_arith import _scaled_ints


def _step(u: dict, row: dict, p: int) -> tuple[dict, int]:
    """(a*u - b*row, a) with u[p] cleared, walking the nonzeros of row; u
    itself is updated when a is one."""
    c, h = u[p], row[p]
    if h == 1:
        a, b = 1, c
    else:
        g = gcd(c, h)
        a, b = h // g, c // g
        if a != 1:
            u = {k: a * x for k, x in u.items()}
    for k, y in row.items():
        x = u.get(k, 0) - b * y
        if x:
            u[k] = x
        else:
            del u[k]
    return u, a


def _stored(u: dict, p: int, ints: bool) -> dict:
    """u in stored form: primitive ints with u[p] > 0, or u[p] one."""
    if not ints:
        inv = Fraction(1) / u[p]
        return {k: x * inv for k, x in u.items()}
    g = gcd(*u.values())
    if u[p] < 0:
        g = -g
    return u if g == 1 else {k: x // g for k, x in u.items()}


class SpanBuilder:
    """Incrementally maintained row-echelon basis of a subspace.

    Rows are kept sorted by pivot: primitive int rows, or pivot-one rows
    once the span has met a number-field vector (see the module docstring).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[dict] = []
        self.pivots: list[int] = []
        self._ints = True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec: dict) -> tuple[dict, int]:
        """(s * residual, s) for vec against the rows, s a positive int."""
        u = {k: c for k, c in vec.items() if c}
        scaled = _scaled_ints(u.values()) if self._ints else (u.values(), 1)
        if scaled is None:  # a number-field vector: pivot-one rows for good
            self.rows = [
                {k: Fraction(x, row[p]) for k, x in row.items()}
                for row, p in zip(self.rows, self.pivots)
            ]
            self._ints = False
            scaled = u.values(), 1
        u, scale = dict(zip(u, scaled[0])), scaled[1]
        for row, p in zip(self.rows, self.pivots):
            if p in u:
                u, a = _step(u, row, p)
                scale *= a
        return u, scale

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after elimination against the current basis."""
        u, s = self._eliminate(vec)
        if not self._ints:
            return u
        return {k: Fraction(x, s) for k, x in u.items()}

    def add(self, vec: dict) -> dict | None:
        """Add a vector to the span: the row stored for it (see the module
        docstring), or None when it lies in the span already."""
        u = self._eliminate(vec)[0]
        if not u:
            return None
        p = min(u)
        row = _stored(u, p, self._ints)
        idx = bisect_left(self.pivots, p)
        self.rows.insert(idx, row)
        self.pivots.insert(idx, p)
        return row
