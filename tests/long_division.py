"""The `Fraction` long division that `qsection.exact_arith.poly_divrem`
replaced, and the `Fraction` Euclid that `poly_gcd` and the
`RationalFunctionP1` constructor ran on it.

References for the tests: each step divides the top of the remainder by the
divisor's lead and subtracts that multiple of the divisor, over any scalars
that support `+ - * /`.  They share no code with `exact_arith.pseudo_divrem`,
through which `poly_divrem` now divides, nor with the pseudo-remainder gcd
loop, so the tests that compare with them do not check a loop against itself.
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


def reference_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm on `reference_divrem`; gcd(p, 0) = monic p."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    while not b.is_zero:
        a, b = b, reference_divrem(a, b)[1]
    return a.monic()


def reference_lowest_terms(numer: Poly, denom: Poly) -> tuple[Poly, Poly]:
    """numer / denom reduced by the Euclid gcd and made denominator-monic, as
    the `RationalFunctionP1` constructor did; the zero function is 0 / 1."""
    if numer.is_zero:
        return Poly.zero(), Poly.one()
    g = reference_gcd(numer, denom)
    if g.degree > 0:
        numer = reference_divrem(numer, g)[0]
        denom = reference_divrem(denom, g)[0]
    inv = 1 / denom.leading
    return numer.scale(inv), denom.scale(inv)
