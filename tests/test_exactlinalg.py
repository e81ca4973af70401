"""The integer echelon in exactlinalg against a Fraction-based Q(i) oracle
and against the same echelon on dense rows. The families are drawn as dense
pairs (re, im), which the Fraction oracle reads, and handed to exactlinalg
and the dense echelon as SparseVectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindeg.exactlinalg import (
    SparseVector, SpanBuilder, intersect_spans, span_contains, span_rank, spans_equal,
)
from mindeg.exceptions import InvalidVectorError
from mindeg.so7 import subalgebra_bases
from oracles import (
    DenseSpanBuilder, dense_intersect_spans, dense_parts, qi_contains, qi_rank, qi_rref,
)

ENTRY = st.integers(-3, 3)


def _vector(dim):
    return st.tuples(st.tuples(*[ENTRY] * dim), st.tuples(*[ENTRY] * dim))


def _combination(data, vectors, dim):
    """A Gaussian-integer combination of the given vectors."""
    re, im = [0] * dim, [0] * dim
    for vr, vi in vectors:
        a, b = data.draw(ENTRY), data.draw(ENTRY)
        for k in range(dim):
            re[k] += a * vr[k] - b * vi[k]
            im[k] += a * vi[k] + b * vr[k]
    return tuple(re), tuple(im)


def _family(data, dim):
    """Up to 6 dense pairs, later ones possibly combinations of earlier ones."""
    out = []
    for _ in range(data.draw(st.integers(0, 6))):
        if out and data.draw(st.booleans()):
            out.append(_combination(data, out, dim))
        else:
            out.append(data.draw(_vector(dim)))
    return out


def _sparse(vec) -> SparseVector:
    re, im = vec
    return SparseVector(tuple([(k, x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y]))


def _sparse_all(vectors) -> list[SparseVector]:
    return [_sparse(v) for v in vectors]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spans_match_the_fraction_oracle(data):
    dim = data.draw(st.integers(1, 6))
    a = _family(data, dim)
    b = _family(data, dim) if data.draw(st.booleans()) else a[::-1] + [
        _combination(data, a, dim)]
    w = _combination(data, a, dim) if data.draw(st.booleans()) else data.draw(_vector(dim))
    sa, sb = _sparse_all(a), _sparse_all(b)

    assert span_rank(sa, dim) == qi_rank(a)
    assert span_contains(sa, _sparse(w), dim) == qi_contains(a, w)
    assert spans_equal(sa, sb, dim) == (qi_rref(a) == qi_rref(b))

    inter = [dense_parts(v, dim) for v in intersect_spans(sa, sb, dim)]
    assert len(inter) == qi_rank(a) + qi_rank(b) - qi_rank(a + b)
    assert qi_rank(inter) == len(inter)
    assert all(qi_contains(a, v) and qi_contains(b, v) for v in inter)


def _dense_rows(sb: SpanBuilder) -> list[tuple[int, list[int]]]:
    """The echelon's rows in insertion order, each with its pivot, made dense."""
    return [(p, [row.get(k, 0) for k in range(2 * sb.dim)]) for p, row in sb.rows.items()]


def _oracle_rows(vectors, dim) -> list[tuple[int, list[int]]]:
    dense = DenseSpanBuilder(dim)
    for v in vectors:
        dense.add(v)
    return list(dense.rows.items())


def _assert_matches_the_dense_oracle(a, b, dim):
    """The sparse echelon of the SparseVectors a, and of a extended by b,
    holds the dense oracle's rows pivot by pivot, and the intersection,
    made dense, is the oracle's tuple."""
    sb = SpanBuilder(dim, a)
    assert _dense_rows(sb) == _oracle_rows(a, dim)
    assert _dense_rows(sb.extended(b)) == _oracle_rows(list(a) + list(b), dim)
    assert _dense_rows(sb) == _oracle_rows(a, dim)  # extending left sb as it was
    inter = intersect_spans(a, b, dim)
    assert all(isinstance(v, SparseVector) for v in inter)
    assert tuple(dense_parts(v, dim) for v in inter) == dense_intersect_spans(a, b, dim)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sparse_echelon_matches_the_dense_oracle(data):
    dim = data.draw(st.integers(1, 6))
    a = _family(data, dim)
    b = _family(data, dim) if data.draw(st.booleans()) else a[::-1] + [
        _combination(data, a, dim)]
    _assert_matches_the_dense_oracle(_sparse_all(a), _sparse_all(b), dim)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sparse_echelon_matches_the_dense_oracle_on_so7_families(data):
    """Random families of the so7 model's basis matrices, 49 entries wide."""
    mats = sorted(set(m for basis in subalgebra_bases().values() for m in basis))
    a = data.draw(st.lists(st.sampled_from(mats), max_size=12))
    b = data.draw(st.lists(st.sampled_from(mats), max_size=12))
    _assert_matches_the_dense_oracle(a, b, 49)


# The three intersections of the subalgebra-inclusions check, and the
# echelons of p1~ and b~ it also builds.
@pytest.mark.parametrize("a, b", [("g2", "t~"), ("g2", "p1~"), ("g2", "l1~"),
                                  ("p1~", "b~"), ("b~", "g2")])
def test_sparse_echelon_matches_the_dense_oracle_on_so7_bases(a, b):
    s = subalgebra_bases()
    _assert_matches_the_dense_oracle(s[a], s[b], 49)


# Vectors for a span of length 3. A short one is longer than the span: it
# has a position past 2. A ragged one has positions out of order or twice.
E1 = SparseVector(((0, 1, 0),))
SHORT = SparseVector(((0, 1, 0), (3, 1, 1)))
RAGGED = SparseVector(((2, 1, 0), (0, 1, 0)))
TWICE = SparseVector(((1, 1, 0), (1, 0, 1)))
NEGATIVE = SparseVector(((-1, 1, 0),))
DENSE = ((1, 0, 0), (0, 0, 0))  # a dense pair (re, im), not a SparseVector


@pytest.mark.parametrize("call", [
    lambda: span_rank([E1, SHORT], 3),
    lambda: span_rank([RAGGED], 3),
    lambda: span_contains([E1], SHORT, 3),
    lambda: span_contains([RAGGED], E1, 3),
    lambda: spans_equal([E1], [SHORT], 3),
    lambda: spans_equal([RAGGED], [E1], 3),
    lambda: intersect_spans([E1], [RAGGED], 3),
    lambda: intersect_spans([SHORT], [E1], 3),
    lambda: SpanBuilder(3).add(RAGGED),
    lambda: SpanBuilder(3, [E1]).contains(SHORT),
    lambda: intersect_spans([E1], [TWICE], 3),
    lambda: span_rank([NEGATIVE], 3),
    lambda: SpanBuilder(3).add(DENSE),
], ids=["span_rank-short", "span_rank-ragged", "span_contains-short",
        "span_contains-ragged", "spans_equal-short", "spans_equal-ragged",
        "intersect_spans-ragged", "intersect_spans-short", "add-ragged", "contains-short",
        "intersect_spans-twice", "span_rank-negative", "add-dense-pair"])
def test_vectors_of_the_wrong_length_are_rejected(call):
    """A sparse vector with a position outside 0..dim-1, or positions not
    ascending, raises, rather than being read into another vector's columns
    or shifting its imaginary half; so does a vector that is not a
    SparseVector."""
    with pytest.raises(InvalidVectorError):
        call()
