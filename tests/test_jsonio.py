"""Round trips and rejection rules for the JSON layer."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsection.divisors import (
    EC_ORIGIN,
    P1_INFINITY,
    ECAffine,
    FiniteP1,
    ProjectiveLine,
    QDivisor,
)
from qsection.elliptic import WeierstrassCurve
from qsection.errors import SchemaError
from qsection.exact_arith import NumberField
from qsection.jsonio import (
    format_json,
    parse_curve,
    parse_divisor,
    parse_function,
    parse_point,
    parse_rational,
    serialize_curve,
    serialize_divisor,
    serialize_function,
    serialize_hilbert,
    serialize_point,
    serialize_rational,
)
from qsection.p1 import RationalFunctionP1
from qsection.section_ring import HilbertSeries


class TestRational:
    def test_accepts_int_and_string(self):
        assert parse_rational(3) == 3
        assert parse_rational("-7/2") == F(-7, 2)

    def test_rejects_bool_float_and_garbage(self):
        # only a JSON int, or "p/q" or "p" with an optional leading '-' and
        # ASCII digits: no float, exponent, sign '+', space, '_' or other digit
        for bad in (True, 1.5, "one half", "1/0", None, "1.5", "+3", " 1/2 ", "1_0",
                    "1e100000", "1/-2", "--1", "-", "1/", "/2", "1/2/3", "\u0663", "3\n", ""):
            with pytest.raises(SchemaError, match="^coeff: "):
                parse_rational(bad, "coeff")

    def test_accepts_the_readme_forms(self):
        assert parse_rational("12") == 12
        assert parse_rational("-0") == 0
        assert parse_rational("6/4") == F(3, 2)
        assert parse_rational("-007/010") == F(-7, 10)
        assert parse_rational(-(10**30)) == -(10**30)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(serialize_rational(q)) == q


class TestPointAndCurve:
    def test_line_round_trip(self):
        line = ProjectiveLine()
        for obj in ("inf", "0", "-3/2", 5):
            pt = parse_point(obj, line)
            assert parse_point(serialize_point(pt), line) == pt
        assert parse_point("inf", line) is P1_INFINITY

    def test_weierstrass_round_trip(self):
        curve = WeierstrassCurve(0, 1)
        pt = parse_point({"xy": ["2", "3"]}, curve)
        assert pt == ECAffine(F(2), F(3))
        assert serialize_point(pt) == {"xy": ["2", "3"]}
        assert parse_point("O", curve) is EC_ORIGIN

    def test_off_curve_point_rejected(self):
        with pytest.raises(SchemaError):
            parse_point({"xy": ["1", "1"]}, WeierstrassCurve(0, 1))

    def test_ec_point_on_line_rejected(self):
        with pytest.raises(SchemaError):
            parse_point({"xy": ["2", "3"]}, ProjectiveLine())

    def test_number_field_scalar_needs_declared_field(self):
        with pytest.raises(SchemaError) as exc:
            parse_point({"nf": ["0", "1"]}, ProjectiveLine())
        assert "field" in str(exc.value)

    def test_curve_round_trip(self):
        for obj in (
            {"type": "p1"},
            {"type": "p1", "field": {"min_poly": [1, 0, 1]}},
            {"type": "weierstrass", "a": "0", "b": "-1", "field": {"min_poly": [1, 1, 1]}},
        ):
            curve = parse_curve(obj)
            assert serialize_curve(curve) == obj

    def test_default_curve_is_rational_line(self):
        assert parse_curve(None) == ProjectiveLine()

    def test_unknown_curve_type(self):
        with pytest.raises(SchemaError):
            parse_curve({"type": "hyperelliptic"})

    def test_bad_min_poly_rejected(self):
        # non-monic, constant, and overly large moduli all fail up front;
        # reducibility itself is only caught lazily, at inversion time
        for bad in ([1, 1, 2], [1], [0, 0, 0, 0, 0, 1]):
            with pytest.raises(SchemaError):
                parse_curve({"type": "p1", "field": {"min_poly": bad}})


class TestDivisor:
    def test_round_trip_canonical_order(self):
        line = ProjectiveLine()
        obj = [
            {"point": "inf", "coeff": "1/2"},
            {"point": "1", "coeff": "-1/2"},
            {"point": "0", "coeff": "1/2"},
        ]
        D = parse_divisor(obj, line)
        assert serialize_divisor(D) == [
            {"coeff": "1/2", "point": "0"},
            {"coeff": "-1/2", "point": "1"},
            {"coeff": "1/2", "point": "inf"},
        ]
        assert parse_divisor(serialize_divisor(D), line) == D

    def test_duplicate_point_rejected(self):
        obj = [
            {"point": "0", "coeff": "1/2"},
            {"point": "0", "coeff": "1/3"},
        ]
        with pytest.raises(SchemaError) as exc:
            parse_divisor(obj, ProjectiveLine())
        assert "divisor[1]" in str(exc.value)

    def test_entry_shape_enforced(self):
        with pytest.raises(SchemaError):
            parse_divisor([{"point": "0"}], ProjectiveLine())
        with pytest.raises(SchemaError):
            parse_divisor("not a list", ProjectiveLine())


class TestFunction:
    def test_round_trip(self):
        g = parse_function({"numer": ["2", "-3", "1"], "denom": ["0", "1"]})
        assert isinstance(g, RationalFunctionP1)
        assert serialize_function(g) == {
            "numer": ["2", "-3", "1"],
            "denom": ["0", "1"],
        }

    def test_denominator_defaults_to_one(self):
        g = parse_function({"numer": ["-1", "1"]})
        assert serialize_function(g) == {"numer": ["-1", "1"], "denom": ["1"]}

    def test_normalization_is_applied(self):
        # 2w / 4w^2 reduces to (1/2) / w
        g = parse_function({"numer": ["0", "2"], "denom": ["0", "0", "4"]})
        assert serialize_function(g) == {"numer": ["1/2"], "denom": ["0", "1"]}

    def test_zero_denominator_rejected(self):
        with pytest.raises(SchemaError):
            parse_function({"numer": ["1"], "denom": ["0"]})

    def test_number_field_coefficients(self):
        field = NumberField((1, 0, 1))
        g = parse_function({"numer": [{"nf": ["0", "1"]}, "1"]}, field)
        assert serialize_function(g) == {
            "numer": [{"nf": ["0", "1"]}, "1"],
            "denom": ["1"],
        }


class TestHilbert:
    def test_serialized_shape(self):
        hs = HilbertSeries((1, 0, 0, 0, 0, 0, -1), (2, 2, 3))
        assert serialize_hilbert(hs) == {
            "numerator": [1, 0, 0, 0, 0, 0, -1],
            "denominator_exponents": [2, 2, 3],
        }


# quotes, backslashes, control characters, non-ASCII (astral ones become
# surrogate pairs) and a lone surrogate, next to arbitrary text
SPECIAL = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800"]
STRINGS = st.one_of(st.text(max_size=8), st.lists(st.sampled_from(SPECIAL), max_size=4).map("".join))
LEAVES = st.one_of(
    st.none(),
    st.sampled_from([True, False, 0, 1]),
    st.integers(),
    st.integers(10**99, 10**100 - 1).flatmap(lambda n: st.sampled_from([n, -n])),
    STRINGS,
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=20,
)


class TestFormatJson:
    @given(PAYLOADS)
    @example({"b": [], "a": {}, "c": (True, 1, False, 0, None), '"\\\x00\u00e9': -(10**99)})
    @settings(max_examples=300)
    def test_matches_the_indented_sorted_dump(self, obj):
        assert format_json(obj) == json.dumps(obj, sort_keys=True, indent=2)

    def test_a_fraction_is_refused(self):
        obj = {"coeff": [1, F(1, 2)]}
        with pytest.raises(TypeError):
            json.dumps(obj, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            format_json(obj)
