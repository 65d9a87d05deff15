"""JSON encoding and decoding of the domain objects.

All arithmetic stays exact: rationals travel as strings "p/q" (or bare
integers), number-field scalars as {"nf": [coords]} against the declared
field, polynomial coefficient lists are lowest degree first.  Points are
"inf" for the point at infinity of the projective line, "O" for the origin
of a Weierstrass curve, a scalar for a finite line coordinate, or
{"xy": [x, y]} for an affine curve point.  Every malformed input raises
SchemaError with the offending path.

`format_json` writes a payload as `json.dumps(obj, sort_keys=True,
indent=2)` does, byte for byte: with `indent` set, `json` falls back to its
pure-Python encoder, while here the strings go through the C quoting
function and the parts are joined once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .divisors import (
    EC_ORIGIN,
    P1_INFINITY,
    CurvePoint,
    ECAffine,
    ECOrigin,
    FiniteP1,
    InfinityP1,
    ProjectiveLine,
    QDivisor,
)
from .elliptic import WeierstrassCurve
from .errors import SchemaError
from .exact_arith import NumberField, NumberFieldElem, Poly, Scalar
from .p1 import RationalFunctionP1
from .section_ring import HilbertSeries

__all__ = [
    "format_json",
    "parse_rational",
    "serialize_rational",
    "parse_scalar",
    "serialize_scalar",
    "parse_field",
    "parse_point",
    "serialize_point",
    "parse_curve",
    "serialize_curve",
    "parse_divisor",
    "serialize_divisor",
    "parse_function",
    "serialize_function",
    "serialize_hilbert",
]


def format_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` for payloads made of dicts
    with str keys, lists, tuples, strs, ints, bools and None; any other type
    raises TypeError, as `json` does.
    """
    parts: list[str] = []
    append = parts.append
    quote = encode_basestring_ascii

    def write(o, indent: str) -> None:
        if isinstance(o, str):
            append(quote(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = indent + "  "
            append("[\n" + inner)
            for i, item in enumerate(o):
                if i:
                    append(",\n" + inner)
                write(item, inner)
            append("\n" + indent + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = indent + "  "
            append("{\n" + inner)
            for i, key in enumerate(sorted(o)):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                if i:
                    append(",\n" + inner)
                append(quote(key) + ": ")
                write(o[key], inner)
            append("\n" + indent + "}")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(obj, "")
    return "".join(parts)


def _fail(path: str, msg: str):
    raise SchemaError(f"{path}: {msg}")


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(obj, path: str = "rational") -> Fraction:
    """A JSON int, or a string "p/q" or "p": an optional leading '-' and
    ASCII digits only, so no float, exponent, '+', space or '_' form."""
    if isinstance(obj, bool):
        _fail(path, "expected a rational, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        match = _RATIONAL.fullmatch(obj)
        if match:
            p, q = match.groups()
            try:  # int() refuses a string past its digit limit
                return Fraction(int(p), int(q)) if q else Fraction(int(p))
            except (ValueError, ZeroDivisionError):
                pass
        _fail(path, f"not a rational string: {obj!r}")
    _fail(path, f"expected an integer or 'p/q' string, got {type(obj).__name__}")


def serialize_rational(q) -> str:
    return str(q) if type(q) in (Fraction, int) else str(Fraction(q))


def parse_field(obj, path: str = "field") -> NumberField | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "min_poly" not in obj:
        _fail(path, "expected {'min_poly': [integers]}")
    coeffs = obj["min_poly"]
    if not isinstance(coeffs, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in coeffs
    ):
        _fail(f"{path}.min_poly", "expected a list of integers")
    try:
        return NumberField(tuple(coeffs))
    except (ValueError, TypeError) as exc:
        _fail(f"{path}.min_poly", str(exc))


def serialize_field(field: NumberField | None):
    if field is None:
        return None
    return {"min_poly": list(field.min_poly)}


def parse_scalar(obj, field: NumberField | None, path: str = "scalar") -> Scalar:
    if isinstance(obj, dict):
        if "nf" not in obj:
            _fail(path, "expected {'nf': [rationals]} for a number-field scalar")
        if field is None:
            _fail(path, "number-field scalar given but no field is declared")
        coords = obj["nf"]
        if not isinstance(coords, list) or not coords:
            _fail(f"{path}.nf", "expected a nonempty list of rationals")
        vals = [parse_rational(c, f"{path}.nf[{i}]") for i, c in enumerate(coords)]
        return field.element(vals)
    return parse_rational(obj, path)


def serialize_scalar(s):
    if isinstance(s, NumberFieldElem):
        if s.is_rational():
            return serialize_rational(s.as_fraction())
        return {"nf": [serialize_rational(c) for c in s.coords]}
    return serialize_rational(s)


def parse_point(obj, curve, path: str = "point") -> CurvePoint:
    field = getattr(curve, "field", None)
    if obj == "inf":
        pt: CurvePoint = P1_INFINITY
    elif obj == "O":
        pt = EC_ORIGIN
    elif isinstance(obj, dict) and "xy" in obj:
        xy = obj["xy"]
        if not isinstance(xy, list) or len(xy) != 2:
            _fail(f"{path}.xy", "expected a two-element list [x, y]")
        pt = ECAffine(
            parse_scalar(xy[0], field, f"{path}.xy[0]"),
            parse_scalar(xy[1], field, f"{path}.xy[1]"),
        )
    else:
        pt = FiniteP1(parse_scalar(obj, field, path))
    try:
        lifted = curve.lift_point(pt)
    except Exception as exc:
        _fail(path, str(exc))
    if not curve.contains(lifted):
        _fail(path, f"{obj!r} does not lie on the declared curve")
    return lifted


def serialize_point(pt: CurvePoint):
    if isinstance(pt, InfinityP1):
        return "inf"
    if isinstance(pt, ECOrigin):
        return "O"
    if isinstance(pt, ECAffine):
        return {"xy": [serialize_scalar(pt.x), serialize_scalar(pt.y)]}
    return serialize_scalar(pt.coord)


def parse_curve(obj, path: str = "curve"):
    if obj is None:
        return ProjectiveLine()
    if not isinstance(obj, dict) or "type" not in obj:
        _fail(path, "expected {'type': 'p1' | 'weierstrass', ...}")
    field = parse_field(obj.get("field"), f"{path}.field")
    kind = obj["type"]
    if kind == "p1":
        return ProjectiveLine(field)
    if kind == "weierstrass":
        if "a" not in obj or "b" not in obj:
            _fail(path, "a Weierstrass curve needs coefficients 'a' and 'b'")
        try:
            return WeierstrassCurve(
                parse_scalar(obj["a"], field, f"{path}.a"),
                parse_scalar(obj["b"], field, f"{path}.b"),
                field,
            )
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(f"{path}.type", f"unknown curve type {kind!r}")


def serialize_curve(curve):
    if isinstance(curve, ProjectiveLine):
        out = {"type": "p1"}
    elif isinstance(curve, WeierstrassCurve):
        out = {
            "type": "weierstrass",
            "a": serialize_scalar(curve.a),
            "b": serialize_scalar(curve.b),
        }
    else:
        raise SchemaError(f"cannot serialize curve {curve!r}")
    if curve.field is not None:
        out["field"] = serialize_field(curve.field)
    return out


def parse_divisor(obj, curve, path: str = "divisor") -> QDivisor:
    if not isinstance(obj, list):
        _fail(path, "expected a list of {'point': ..., 'coeff': ...} entries")
    entries = {}
    for i, item in enumerate(obj):
        here = f"{path}[{i}]"
        if not isinstance(item, dict) or "point" not in item or "coeff" not in item:
            _fail(here, "expected {'point': ..., 'coeff': ...}")
        pt = parse_point(item["point"], curve, f"{here}.point")
        if pt in entries:
            _fail(f"{here}.point", "duplicate point in divisor")
        entries[pt] = parse_rational(item["coeff"], f"{here}.coeff")
    # parse_point has lifted each point and checked it on the curve
    return QDivisor._checked(curve, entries.items())


def serialize_divisor(D: QDivisor):
    return [
        {"point": serialize_point(pt), "coeff": serialize_rational(c)}
        for pt, c in D.entries
    ]


def _parse_poly(obj, field, path: str) -> Poly:
    if not isinstance(obj, list):
        _fail(path, "expected a coefficient list, lowest degree first")
    return Poly([parse_scalar(c, field, f"{path}[{i}]") for i, c in enumerate(obj)])


def parse_function(obj, field: NumberField | None = None, path: str = "function") -> RationalFunctionP1:
    if not isinstance(obj, dict) or "numer" not in obj:
        _fail(path, "expected {'numer': [...], 'denom': [...]} coefficient lists")
    numer = _parse_poly(obj["numer"], field, f"{path}.numer")
    denom = (
        _parse_poly(obj["denom"], field, f"{path}.denom")
        if "denom" in obj
        else Poly.one()
    )
    if denom.is_zero:
        _fail(f"{path}.denom", "denominator is the zero polynomial")
    return RationalFunctionP1(numer, denom)


def serialize_function(f: RationalFunctionP1):
    return {
        "numer": [serialize_scalar(c) for c in f.numer.coeffs],
        "denom": [serialize_scalar(c) for c in f.denom.coeffs],
    }


def serialize_hilbert(hs: HilbertSeries):
    return {
        "numerator": list(hs.numerator),
        "denominator_exponents": list(hs.denominator_exponents),
    }
