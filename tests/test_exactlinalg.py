"""The integer echelon in exactlinalg against a Fraction-based Q(i) oracle
and against the same echelon on dense rows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindeg.exactlinalg import (
    SpanBuilder, intersect_spans, span_contains, span_rank, spans_equal,
)
from mindeg.exceptions import InvalidVectorError
from mindeg.so7 import subalgebra_bases
from oracles import DenseSpanBuilder, dense_intersect_spans, qi_contains, qi_rank, qi_rref

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
    """Up to 6 vectors, later ones possibly combinations of earlier ones."""
    out = []
    for _ in range(data.draw(st.integers(0, 6))):
        if out and data.draw(st.booleans()):
            out.append(_combination(data, out, dim))
        else:
            out.append(data.draw(_vector(dim)))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spans_match_the_fraction_oracle(data):
    dim = data.draw(st.integers(1, 6))
    a = _family(data, dim)
    b = _family(data, dim) if data.draw(st.booleans()) else a[::-1] + [
        _combination(data, a, dim)]
    w = _combination(data, a, dim) if data.draw(st.booleans()) else data.draw(_vector(dim))

    assert span_rank(a, dim) == qi_rank(a)
    assert span_contains(a, w, dim) == qi_contains(a, w)
    assert spans_equal(a, b, dim) == (qi_rref(a) == qi_rref(b))

    inter = intersect_spans(a, b, dim)
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
    """The sparse echelon of a, and of a extended by b, holds the dense
    oracle's rows pivot by pivot, and the intersection is the oracle's tuple."""
    sb = SpanBuilder(dim, a)
    assert _dense_rows(sb) == _oracle_rows(a, dim)
    assert _dense_rows(sb.extended(b)) == _oracle_rows(list(a) + list(b), dim)
    assert _dense_rows(sb) == _oracle_rows(a, dim)  # extending left sb as it was
    assert intersect_spans(a, b, dim) == dense_intersect_spans(a, b, dim)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sparse_echelon_matches_the_dense_oracle(data):
    dim = data.draw(st.integers(1, 6))
    a = _family(data, dim)
    b = _family(data, dim) if data.draw(st.booleans()) else a[::-1] + [
        _combination(data, a, dim)]
    _assert_matches_the_dense_oracle(a, b, dim)


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


E1 = ((1, 0, 0), (0, 0, 0))
SHORT = ((1, 0), (0, 0))
RAGGED = ((1, 2, 3), (0, 0))


@pytest.mark.parametrize("call", [
    lambda: span_rank([E1, ((0, 1), (0, 0))], 3),
    lambda: span_rank([RAGGED], 3),
    lambda: span_contains([E1], SHORT, 3),
    lambda: span_contains([RAGGED], E1, 3),
    lambda: spans_equal([E1], [SHORT], 3),
    lambda: spans_equal([RAGGED], [E1], 3),
    lambda: intersect_spans([E1], [RAGGED], 3),
    lambda: intersect_spans([SHORT], [E1], 3),
    lambda: SpanBuilder(3).add(RAGGED),
    lambda: SpanBuilder(3, [E1]).contains(SHORT),
], ids=["span_rank-short", "span_rank-ragged", "span_contains-short",
        "span_contains-ragged", "spans_equal-short", "spans_equal-ragged",
        "intersect_spans-ragged", "intersect_spans-short", "add-ragged", "contains-short"])
def test_vectors_of_the_wrong_length_are_rejected(call):
    """A vector whose parts do not both have dim entries raises, rather than
    being zipped against the others or shifting its imaginary half."""
    with pytest.raises(InvalidVectorError):
        call()
