"""Exact elimination: the integer path against the field path.

Rational input is eliminated over ints; the field path (pivots normalised to
one, field operations) is the reference.  A rational matrix or span is sent
down the field path here by giving it one number-field vector that changes
nothing: a zero row for `kernel_basis`, a zero vector for `SpanBuilder`.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qsection.exact_arith import NumberField, NumberFieldElem
from qsection.linalg import SpanBuilder, kernel_basis

Q_SQRT2 = NumberField((-2, 0, 1))
SQRT2 = Q_SQRT2.gen()

KINDS = ("random", "zero", "combination")


def entry(rng):
    """A zero, a small int, or a coefficient of the heights the benchmark's
    points have (up to 300) or of products of a few of them."""
    kind = rng.randrange(4)
    if kind == 0:
        return F(0)
    if kind == 1:
        return rng.randint(-5, 5)
    if kind == 2:
        return F(rng.randint(-300, 300), rng.randint(1, 300))
    return F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))


@st.composite
def vector_lists(draw, max_dim=6, max_count=8):
    """(dim, vectors): random vectors, zero vectors and rational
    combinations of earlier vectors, so spans of low rank show up.  The
    shape is drawn by hypothesis, the entries by a random source seeded
    with a drawn integer."""
    dim = draw(st.integers(0, max_dim))
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=max_count))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    out = []
    for kind in kinds:
        if kind == "zero" or (kind == "combination" and not out):
            out.append([F(0)] * dim)
        elif kind == "random":
            out.append([entry(rng) for _ in range(dim)])
        else:
            vec = [F(0)] * dim
            for v in rng.sample(out, min(len(out), rng.randint(1, 3))):
                c = entry(rng)
                vec = [x + c * y for x, y in zip(vec, v)]
            out.append(vec)
    return dim, out


def field_span(dim):
    """A SpanBuilder that has met a number-field vector: the field path."""
    span = SpanBuilder(dim)
    assert not span.add([Q_SQRT2.zero()] * dim)
    return span


def field_kernel(columns, nrows):
    """kernel_basis down the field path: one extra zero row over Q(sqrt 2)."""
    return kernel_basis([list(col) + [Q_SQRT2.zero()] for col in columns], nrows + 1)


@given(vector_lists(), st.sets(st.integers(0, 5), max_size=2))
@settings(max_examples=200)
def test_kernel_matches_field_path(case, zero_rows):
    nrows, columns = case
    columns = [[F(0) if i in zero_rows else x for i, x in enumerate(col)] for col in columns]
    kern = kernel_basis(columns, nrows)
    assert kern == field_kernel(columns, nrows)
    assert all(type(x) is F for vec in kern for x in vec)
    for vec in kern:
        for i in range(nrows):
            assert sum(col[i] * x for col, x in zip(columns, vec)) == 0


@given(vector_lists(), vector_lists(max_count=3), st.data())
@settings(max_examples=200)
def test_span_matches_field_path(case, probe_case, data):
    dim, vecs = case
    probes = [v[:dim] + [F(0)] * (dim - len(v)) for v in probe_case[1]] + vecs[-2:]
    span, ref = SpanBuilder(dim), field_span(dim)
    for v in vecs:
        assert span.add(v) == ref.add(v)
        assert span.pivots == ref.pivots
    assert span.rank == ref.rank
    if dim and data.draw(st.integers(0, 3)) == 0:
        # the mixed case: after the rational vectors, a Q(sqrt 2) vector
        # moves the span to the field path with the field path's rows
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        nf_vec = [NumberFieldElem(Q_SQRT2, (F(entry(rng)), F(entry(rng)))) for _ in range(dim)]
        assert span.add(nf_vec) == ref.add(nf_vec)
        assert span.rows == ref.rows and span.pivots == ref.pivots
        probes.append(nf_vec)
    for v in probes:
        res = span.reduce(v)
        assert res == ref.reduce(v)
        assert all(res[p] == 0 for p in span.pivots)
        assert span.contains(v) == ref.contains(v) == (not any(res))
    for v in vecs:
        assert span.contains(v)


class TestFieldPath:
    """Number-field input takes the field path; rational input does not."""

    def test_rational_span_keeps_integer_rows(self):
        span = SpanBuilder(3)
        span.add([F(1, 2), F(2, 3), F(0)])
        span.add([F(0), F(5, 7), F(-1)])
        assert all(type(x) is int for row in span.rows for x in row)
        assert span.reduce([F(1, 2), F(29, 21), F(-1, 3)]) == [F(0), F(0), F(2, 3)]

    def test_number_field_vector_moves_span_to_field_rows(self):
        span = SpanBuilder(2)
        span.add([F(2), F(3)])
        span.add([SQRT2, F(1)])
        assert span.rank == 2
        assert [row[p] for row, p in zip(span.rows, span.pivots)] == [1, 1]
        assert any(isinstance(x, NumberFieldElem) for row in span.rows for x in row)
        assert span.contains([F(1), SQRT2])

    def test_number_field_kernel(self):
        # x + sqrt2 * y = 0 has kernel (-sqrt2, 1): no rational path gives it
        kern = kernel_basis([[F(1)], [SQRT2]], 1)
        assert kern == [[-SQRT2, F(1)]]
        assert isinstance(kern[0][0], NumberFieldElem)

    def test_zero_and_empty_shapes(self):
        assert kernel_basis([], 3) == []
        assert kernel_basis([[], []], 0) == [[F(1), F(0)], [F(0), F(1)]]
        assert kernel_basis([[F(0)], [F(0)]], 1) == [[F(1), F(0)], [F(0), F(1)]]
        span = SpanBuilder(0)
        assert not span.add([])
        assert span.reduce([]) == [] and span.contains([])
