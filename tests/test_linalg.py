"""Exact elimination: int rows against pivot-one rows, against the dense
reference builder, and against sympy.

`SpanBuilder` takes vectors as maps {column: entry}; the strategies draw
plain lists, and `as_map` turns them into maps.  Rational input is
eliminated over ints.  The same elimination on pivot-one rows (the form
number-field input takes) is checked against it: the dense reference of
`dense_span` is given pivot-one rows by adding a number-field zero vector,
which changes nothing else.  The map builder takes the reference's (a, b)
steps, and stores the same rows, pivots and residuals, over ints,
Fractions, Q(sqrt 2) and mixed lists.  sympy's `rref` is the independent
reference, over Q and over Q(sqrt 2).  The field Gauss-Jordan `kernel_basis`
of the tests, the reference for relations, is checked against sympy's
`nullspace` here too.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_span
from dense_span import dense
from field_kernel import kernel_basis
from qsection.exact_arith import NumberField, NumberFieldElem
from qsection.linalg import SpanBuilder

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


def nf_entry(rng):
    """An element a + b*sqrt(2) with a and b drawn by `entry`."""
    return NumberFieldElem(Q_SQRT2, (F(entry(rng)), F(entry(rng))))


def int_entry(rng):
    return rng.randint(-5, 5)


@st.composite
def vector_lists(draw, max_dim=6, max_count=8, nf=False, ints=False):
    """(dim, vectors): random vectors, zero vectors and combinations of
    earlier vectors, so spans of low rank show up; over Q(sqrt 2) when nf is
    set, of small ints when ints is set.  The shape is drawn by hypothesis,
    the entries by a random source seeded with a drawn integer."""
    dim = draw(st.integers(0, max_dim))
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=max_count))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if nf:
        zero, scalar = Q_SQRT2.zero(), nf_entry
    else:
        zero, scalar = (0, int_entry) if ints else (F(0), entry)
    out = []
    for kind in kinds:
        if kind == "zero" or (kind == "combination" and not out):
            out.append([zero] * dim)
        elif kind == "random":
            out.append([scalar(rng) for _ in range(dim)])
        else:
            vec = [zero] * dim
            for v in rng.sample(out, min(len(out), rng.randint(1, 3))):
                c = scalar(rng)
                vec = [x + c * y for x, y in zip(vec, v)]
            out.append(vec)
    return dim, out


def as_map(vec):
    """The map {column: entry} of a list, its zero entries left out."""
    return {i: x for i, x in enumerate(vec) if x}


def field_span(dim):
    """A dense reference builder that has met a number-field vector:
    pivot-one rows."""
    span = dense_span.SpanBuilder(dim)
    assert not span.add([Q_SQRT2.zero()] * dim)
    return span


@given(vector_lists(), vector_lists(max_count=3), st.data())
@settings(max_examples=200)
def test_span_matches_field_path(case, probe_case, data):
    dim, vecs = case
    probes = [v[:dim] + [F(0)] * (dim - len(v)) for v in probe_case[1]] + vecs[-2:]
    span, ref = SpanBuilder(dim), field_span(dim)
    for v in vecs:
        row, ref_row = span.add(as_map(v)), ref.add(v)
        assert (row is None) == (ref_row is None)
        if row is not None:
            # add returns the row it stored: a primitive int row here, whose
            # division by its pivot entry is the reference's pivot-one row
            assert any(r is row for r in span.rows)
            p = min(row)
            assert row[p] > 0 and all(type(x) is int for x in row.values())
            assert dense({k: F(x, row[p]) for k, x in row.items()}, dim) == ref_row
        assert span.pivots == ref.pivots
    assert span.rank == ref.rank
    if dim and data.draw(st.integers(0, 3)) == 0:
        # the mixed case: after the rational vectors, a Q(sqrt 2) vector
        # gives the span the pivot-one rows it would have held all along
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        nf_vec = [nf_entry(rng) for _ in range(dim)]
        if not any(nf_vec):  # as a map, a zero vector has no number-field entry
            nf_vec[0] = SQRT2
        row, ref_row = span.add(as_map(nf_vec)), ref.add(nf_vec)
        assert (row is None) == (ref_row is None)
        assert row is None or dense(row, dim) == ref_row
        assert [dense(r, dim) for r in span.rows] == ref.rows and span.pivots == ref.pivots
        probes.append(nf_vec)
    for v in probes:
        res = span.reduce(as_map(v))
        assert dense(res, dim) == ref.reduce(v)
        assert all(p not in res for p in span.pivots)
        assert (not span.reduce(as_map(v))) == ref.contains(v) == (not any(res.values()))
    for v in vecs:
        assert not span.reduce(as_map(v))


EXACT_TYPES = (int, F, NumberFieldElem)


def mixed_entry(rng, rational):
    """An int (zero included), a Fraction or, unless `rational` is set, an
    element of Q(sqrt 2)."""
    kind = rng.randrange(2 if rational else 3)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return F(rng.randint(-9, 9), rng.randint(1, 9))
    return nf_entry(rng)


@st.composite
def mixed_vector_lists(draw, max_dim=4, max_count=6):
    """(dim, vectors) whose entries mix ints, Fractions and elements of
    Q(sqrt 2); some vectors are rational, and some are combinations of
    earlier ones, so spans move from int rows to pivot-one rows and
    some residuals are zero."""
    dim = draw(st.integers(0, max_dim))
    kinds = draw(st.lists(st.sampled_from(("rational", "mixed", "combination")), max_size=max_count))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    out = []
    for kind in kinds:
        if kind == "combination" and out:
            vec = [0] * dim
            for v in rng.sample(out, min(len(out), 2)):
                c = mixed_entry(rng, False)
                vec = [x + c * y for x, y in zip(vec, v)]
            out.append(vec)
        else:
            out.append([mixed_entry(rng, kind == "rational") for _ in range(dim)])
    return dim, out


def assert_exact(vectors):
    for vec in vectors:
        assert all(type(x) in EXACT_TYPES for x in vec), vec


@given(mixed_vector_lists())
@settings(max_examples=200, deadline=None)
def test_outputs_stay_exact_on_mixed_scalars(case):
    """Every entry that SpanBuilder returns is an int, a Fraction or a
    number-field element.  Fraction(1) == 1.0, so the value
    checks above would not notice a float."""
    dim, vecs = case
    span = SpanBuilder(dim)
    for v in vecs:
        span.add(as_map(v))
        assert_exact(row.values() for row in span.rows)
    assert_exact(span.reduce(as_map(v)).values() for v in vecs)


@given(
    st.one_of(
        vector_lists(ints=True),
        vector_lists(),
        vector_lists(max_dim=4, max_count=6, nf=True),
        mixed_vector_lists(),
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_map_builder_matches_dense_reference(case, seed):
    """The map builder stores the dense reference's rows and pivots, returns
    its rows from `add`, and its residuals from `reduce`, entry for entry and
    type for type, over ints, Fractions, Q(sqrt 2) and mixed scalars.  Each
    vector is reduced before it is added, so residuals are nonzero too."""
    dim, vecs = case
    rng = random.Random(seed)
    span, ref = SpanBuilder(dim), dense_span.SpanBuilder(dim)
    for v in vecs:
        # the map keeps some explicit zeros, of the vector's own scalar types
        vec = {i: x for i, x in enumerate(v) if x or rng.random() < 0.5}
        # the reference meets the same vector with int zeros: a number-field
        # zero would move it to pivot-one rows, and `add` drops every zero
        ref_vec = dense(as_map(v), dim)
        res, ref_res = span.reduce(vec), ref.reduce(ref_vec)
        assert dense(res, dim) == ref_res
        assert all(x and type(x) is type(ref_res[k]) for k, x in res.items())
        row, ref_row = span.add(vec), ref.add(ref_vec)
        assert (row is None) == (ref_row is None)
        if row is not None:
            assert row is span.rows[span.pivots.index(min(row))]
            assert dense(row, dim) == ref_row
            assert all(type(x) is type(ref_row[k]) for k, x in row.items())
        assert span.pivots == ref.pivots
        assert [dense(r, dim) for r in span.rows] == ref.rows
        assert all(all(r.values()) and min(r) == p for r, p in zip(span.rows, span.pivots))


def test_an_explicit_zero_is_never_a_pivot():
    span = SpanBuilder(3)
    assert span.add({0: 0, 2: 3}) == {2: 1}
    assert span.pivots == [2]
    # a number-field zero is dropped as well, so the rows stay integral
    assert span.add({0: Q_SQRT2.zero(), 1: F(1, 2)}) == {1: 1}
    assert span.pivots == [1, 2]
    assert all(type(x) is int for row in span.rows for x in row.values())


class TestFieldPath:
    """Number-field input gets pivot-one rows; rational input keeps int rows."""

    def test_rational_span_keeps_integer_rows(self):
        span = SpanBuilder(3)
        span.add(as_map([F(1, 2), F(2, 3), F(0)]))
        span.add(as_map([F(0), F(5, 7), F(-1)]))
        assert all(type(x) is int for row in span.rows for x in row.values())
        assert dense(span.reduce(as_map([F(1, 2), F(29, 21), F(-1, 3)])), 3) == [
            F(0), F(0), F(2, 3)
        ]

    def test_number_field_vector_moves_span_to_field_rows(self):
        span = SpanBuilder(2)
        span.add(as_map([F(2), F(3)]))
        span.add(as_map([SQRT2, F(1)]))
        assert span.rank == 2
        assert [row[p] for row, p in zip(span.rows, span.pivots)] == [1, 1]
        assert any(isinstance(x, NumberFieldElem) for row in span.rows for x in row.values())
        assert not span.reduce(as_map([F(1), SQRT2]))

    def test_number_field_kernel(self):
        # x + sqrt2 * y = 0 has kernel (-sqrt2, 1)
        kern = kernel_basis([[F(1)], [SQRT2]], 1)
        assert kern == [[-SQRT2, F(1)]]
        assert isinstance(kern[0][0], NumberFieldElem)

    def test_zero_and_empty_shapes(self):
        assert kernel_basis([], 3) == []
        assert kernel_basis([[], []], 0) == [[F(1), F(0)], [F(0), F(1)]]
        assert kernel_basis([[F(0)], [F(0)]], 1) == [[F(1), F(0)], [F(0), F(1)]]
        span = SpanBuilder(0)
        assert not span.add({})
        assert span.reduce({}) == {}


def sympy_rational(x):
    sympy = pytest.importorskip("sympy")
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


@given(vector_lists())
@settings(max_examples=200)
def test_kernel_matches_sympy_nullspace(case):
    sympy = pytest.importorskip("sympy")
    nrows, columns = case
    matrix = sympy.Matrix(nrows, len(columns), lambda i, k: sympy_rational(columns[k][i]))
    expected = [[F(int(x.p), int(x.q)) for x in v] for v in matrix.nullspace()]
    assert kernel_basis(columns, nrows) == expected


@given(vector_lists())
@settings(max_examples=200)
def test_span_pivots_match_sympy_rref(case):
    sympy = pytest.importorskip("sympy")
    dim, vecs = case
    span = SpanBuilder(dim)
    for v in vecs:
        span.add(as_map(v))
    matrix = sympy.Matrix(len(vecs), dim, lambda i, j: sympy_rational(vecs[i][j]))
    assert span.pivots == list(matrix.rref()[1])
    assert span.rank == matrix.rank()


class QSqrt2:
    """Q(sqrt 2) in sympy: conversion and exact matrices."""

    def __init__(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        self.QQ = sympy.QQ
        self.K = sympy.QQ.algebraic_field(sympy.sqrt(2))
        self.DomainMatrix = DomainMatrix
        assert self.element(SQRT2) ** 2 == self.element(2)

    def element(self, x):
        """a + b*sqrt(2) as sympy's element [b, a] of K, highest power first."""
        a, b = x.coords if isinstance(x, NumberFieldElem) else (F(x), F(0))
        return self.K([self.QQ(b.numerator, b.denominator), self.QQ(a.numerator, a.denominator)])

    def matrix(self, rows, ncols):
        return self.DomainMatrix(
            [[self.element(x) for x in row] for row in rows], (len(rows), ncols), self.K
        )


@given(vector_lists(max_dim=4, max_count=6, nf=True))
@settings(max_examples=200, deadline=None)
def test_number_field_kernel_matches_sympy(case):
    """Over Q(sqrt 2) every kernel vector annihilates the columns, and the
    kernel is sympy's, each of its vectors scaled to end in one."""
    nrows, columns = case
    kern = kernel_basis(columns, nrows)
    for vec in kern:
        for i in range(nrows):
            assert not sum((col[i] * x for col, x in zip(columns, vec)), F(0))
    if not (nrows and columns):
        return
    K = QSqrt2()
    rows = [[col[i] for col in columns] for i in range(nrows)]
    matrix = K.matrix(rows, len(columns))
    assert len(kern) == len(columns) - matrix.rank()
    expected = []
    for v in matrix.nullspace().to_list():
        last = next(x for x in reversed(v) if x)
        expected.append([x / last for x in v])
    assert [[K.element(x) for x in vec] for vec in kern] == expected


@given(vector_lists(max_dim=4, max_count=6, nf=True))
@settings(max_examples=100, deadline=None)
def test_number_field_span_matches_sympy_rref(case):
    dim, vecs = case
    span = SpanBuilder(dim)
    for v in vecs:
        span.add(as_map(v))
    if not (dim and vecs):
        assert span.rank == 0
        return
    matrix = QSqrt2().matrix(vecs, dim)
    assert span.pivots == list(matrix.rref()[1])
    for v in vecs:
        assert not span.reduce(as_map(v))
        assert not any(span.reduce(as_map(v)).values())
