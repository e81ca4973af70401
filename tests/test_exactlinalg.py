"""The integer echelon in exactlinalg against a Fraction-based Q(i) oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mindeg.exactlinalg import intersect_spans, span_contains, span_rank, spans_equal
from oracles import qi_contains, qi_rank, qi_rref

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
