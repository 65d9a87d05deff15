"""The `Fraction` long division that `qsection.exact_arith.poly_divrem`
replaced.

A reference for the tests: each step divides the top of the remainder by the
divisor's lead and subtracts that multiple of the divisor, over any scalars
that support `+ - * /`.  It shares no code with `exact_arith.pseudo_divrem`,
through which `poly_divrem` now divides, so the tests that compare with it do
not check the division loop against itself.
"""

from fractions import Fraction

from qsection.exact_arith import Poly


def reference_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division: returns (q, r) with a = q*b + r and deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero or a.degree < b.degree:
        return Poly.zero(), a
    lead_inv = 1 / b.leading
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    q = [Fraction(0)] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        factor = c * lead_inv
        q[i - db] = factor
        for j, bc in enumerate(b.coeffs):
            rem[i - db + j] = rem[i - db + j] - factor * bc
    return Poly(q), Poly(rem[:db])
