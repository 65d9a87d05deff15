"""Exact linear algebra over the scalar types used in this package.

Vectors are plain lists of scalars (Fractions, ints or number-field
elements).  Everything is deterministic: pivots are chosen left to right and
rows are processed in the order supplied.

Rational input is eliminated over Python ints, fraction-free.  A vector (or,
in `kernel_basis`, a matrix row) whose entries are all Fractions or ints is
multiplied by the lcm L of its denominators on entry, entry by entry as
c.numerator * (L // c.denominator).  One row u is cleared against a pivot
row r at pivot column p as a*u - b*r, with (a, b) = (r[p], u[p]) divided by
their gcd, and stored rows are kept primitive (content divided out, pivot
positive), so the integers stay small.  Results are turned back into
Fractions only on the way out, and they are exactly what elimination over
the field gives:

* Multiplying a row by a nonzero scalar changes neither the row space nor
  the kernel of a matrix, and every step above is such a multiplication
  followed by a field elimination step.  So at every step each integer row
  is a nonzero multiple of the row the field path would hold, and the two
  paths see the same zero patterns, pivots and ranks.
* `kernel_basis` returns the kernel read off the reduced row echelon form,
  vec[pc] = -M[r][free] / M[r][pc].  The reduced row echelon form of a
  matrix is unique, and the quotient does not depend on the scale of row r,
  so the values are those of the field path.
* `SpanBuilder.reduce` returns the integer residual divided by the tracked
  scale (L times the product of the a's).  For a given span, the residual
  of a vector with zeros at the pivot columns is unique: two such residuals
  differ by a span element that vanishes at every pivot column, which is 0.

Number-field scalars keep the field path (rows normalised to pivot one,
elimination with field operations); it is the only path that can take
them.  `kernel_basis` takes the field path when any entry is not a Fraction
or an int.  A `SpanBuilder` starts on the integer path; the first time it
meets a vector with such an entry it converts its rows (dividing each by its
pivot gives the field path's row exactly) and stays on the field path from
then on, because a model over Q(sqrt 2) mixes rational and irrational
coordinate vectors in one span.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd

from .exact_arith import scalar_inverse, scalar_is_zero

_ZERO = Fraction(0)
_INT = {int}


def _first_nonzero(vec):
    for i, c in enumerate(vec):
        if not scalar_is_zero(c):
            return i
    return None


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


def _primitive(u: list[int], p: int) -> list[int]:
    """u divided by its content, with the sign making u[p] positive."""
    g = gcd(*u)
    if u[p] < 0:
        g = -g
    if g == 1:
        return u
    return [x // g for x in u]


class SpanBuilder:
    """Incrementally maintained row-echelon basis of a subspace.

    Rows are kept sorted by pivot.  On the integer path they are primitive
    int rows; on the field path they are scalar rows with pivot entry one
    (see the module docstring for when each is used).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self._ints = True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, u: list[int]) -> tuple[list[int], int]:
        """(a * residual, a) for an int vector u against the int rows, a > 0."""
        scale = 1
        for row, p in zip(self.rows, self.pivots):
            c = u[p]
            if not c:
                continue
            h = row[p]
            g = gcd(c, h)
            a, b = h // g, c // g
            if a == 1:  # the usual case: pivot 1 or dividing u[p]
                u = [x - b * y for x, y in zip(u, row)]
            else:
                u = [a * x - b * y for x, y in zip(u, row)]
                scale *= a
        return u, scale

    def _int_input(self, vec):
        """`_scaled_ints(vec)` while the span is on the integer path, else None.

        A vector with a number-field entry moves the span to the field path
        for good: its rows are divided by their pivots.
        """
        if self._ints:
            scaled = _scaled_ints(vec)
            if scaled is not None:
                return scaled
            self.rows = [
                [Fraction(x, row[p]) for x in row] for row, p in zip(self.rows, self.pivots)
            ]
            self._ints = False
        return None

    def _field_reduce(self, vec) -> list:
        out = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if scalar_is_zero(c):
                continue
            for j in range(p, self.dim):
                out[j] = out[j] - c * row[j]
        return out

    def _insert(self, row: list, p: int) -> None:
        # keep rows sorted by pivot so elimination stays a single sweep
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < p:
            idx += 1
        self.rows.insert(idx, row)
        self.pivots.insert(idx, p)

    def reduce(self, vec) -> list:
        """Residual of vec after elimination against the current basis."""
        scaled = self._int_input(vec)
        if scaled is None:
            return self._field_reduce(vec)
        u, a = self._eliminate(scaled[0])
        s = scaled[1] * a
        return [Fraction(x, s) if x else _ZERO for x in u]

    def add(self, vec) -> bool:
        """Add a vector to the span; True if it enlarged the subspace."""
        scaled = self._int_input(vec)
        if scaled is None:
            res = self._field_reduce(vec)
            p = _first_nonzero(res)
            if p is None:
                return False
            inv = scalar_inverse(res[p])
            self._insert([c * inv for c in res], p)
            return True
        u = self._eliminate(scaled[0])[0]
        p = next((i for i, x in enumerate(u) if x), None)
        if p is None:
            return False
        self._insert(_primitive(u, p), p)
        return True

    def contains(self, vec) -> bool:
        scaled = self._int_input(vec)
        if scaled is None:
            return _first_nonzero(self._field_reduce(vec)) is None
        return not any(self._eliminate(scaled[0])[0])


def kernel_basis(columns: list[list], nrows: int) -> list[list]:
    """Kernel of the linear map sending unit vector k to columns[k].

    Returns the canonical kernel basis read off the reduced row echelon
    form, one vector per free column, in ascending column order.
    """
    ncols = len(columns)
    if ncols == 0:
        return []
    rows = [list(r) for r in islice(zip(*columns), nrows)]
    int_rows = []
    for row in rows:
        scaled = _scaled_ints(row)
        if scaled is None:
            return _field_kernel(rows, ncols)
        int_rows.append(scaled[0])
    return _int_kernel(int_rows, ncols)


def _int_kernel(rows: list[list[int]], ncols: int) -> list[list]:
    """`kernel_basis` of an int matrix, by fraction-free Gauss-Jordan."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        prow = _primitive(rows[pivot_row], c)
        rows[pivot_row] = rows[r]
        rows[r] = prow
        h = prow[c]
        for i in range(nrows):
            x = rows[i][c]
            if i == r or not x:
                continue
            g = gcd(h, x)
            a, b = h // g, x // g
            u = [a * s - b * t for s, t in zip(rows[i], prow)]
            g = gcd(*u)
            rows[i] = [s // g for s in u] if g > 1 else u
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    kernel = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            x = rows[row_idx][free]
            vec[pc] = Fraction(-x, rows[row_idx][pc]) if x else _ZERO
        kernel.append(vec)
    return kernel


def _field_kernel(rows: list[list], ncols: int) -> list[list]:
    """`kernel_basis` over the scalar field, with pivots normalised to one."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not scalar_is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = scalar_inverse(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not scalar_is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    pivot_set = set(pivots)
    kernel = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rows[row_idx][free]
        kernel.append(vec)
    return kernel
