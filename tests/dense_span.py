"""The dense span builder that `qsection.linalg.SpanBuilder` replaced.

A reference for the tests: vectors are plain lists, and every elimination
step walks the stored row from its pivot to the end.  The sparse builder
takes the same (a, b) steps on maps from column to nonzero entry, so both
store the same rows, pivots and residuals; the tests compare them entry by
entry.  `reference_find_relations` builds its consequence spans with it.
"""

from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_INT = {int}


def _scaled_ints(vec):
    """(vec * L as ints, L) with L the lcm of the denominators.

    None when some entry is neither a Fraction nor an int.
    """
    types = set(map(type, vec))
    if types <= _INT:
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
    once the span has met a number-field vector (see `qsection.linalg`).
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
        """Add a vector to the span: the row stored for it, or None when it
        lies in the span already."""
        u = self._eliminate(vec)[0]
        p = next((i for i, x in enumerate(u) if x), None)
        if p is None:
            return None
        row = _stored(u, p, self._ints)
        self._insert(row, p)
        return row

    def contains(self, vec) -> bool:
        return not any(self._eliminate(vec)[0])


def dense(vec: dict, dim: int) -> list:
    """The list of length dim with the entries of a map vector, zeros elsewhere."""
    out = [0] * dim
    for k, x in vec.items():
        out[k] = x
    return out
