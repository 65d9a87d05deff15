"""The canonical kernel basis by plain Gauss-Jordan over the field.

A reference for the tests: it shares no code with `qsection.linalg`, so the
relations and spans it checks are not checked against themselves.
"""

from fractions import Fraction


def kernel_basis(columns: list[list], nrows: int) -> list[list]:
    """Kernel of the linear map sending unit vector k to columns[k] (the
    first nrows entries of each).

    One vector per free column of the reduced row echelon form, in ascending
    column order: 1 at the free column, -row[free] at each pivot column and
    0 elsewhere.  Entries are Fractions or number-field elements.
    """
    ncols = len(columns)
    rows = [[col[i] for col in columns] for i in range(nrows)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, nrows) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = Fraction(1) / rows[r][c]
        prow = rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
    kernel = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free]
        kernel.append(vec)
    return kernel
