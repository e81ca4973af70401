"""Exact spans of Gaussian-integer vectors, by fraction-free integer elimination.

A vector over Z[i] is a pair (re, im) of integer tuples. Its Q(i)-span is
realified as span{v, iv} inside Q^(2n), with v -> (re|im) and iv -> (-im|re),
so rank over Q is twice the rank over Q(i). One integer echelon serves every
function here: a row w is reduced against a stored row with pivot p by
w <- row[p]*w - w[p]*row and then divided by the gcd of its entries (the
fraction-free elimination of Bareiss, Math. Comp. 22, 1968). No rational
number and no floating point enters, so every result is exact.
"""

from __future__ import annotations

from math import gcd

__all__ = ["SpanBuilder", "span_rank", "span_contains", "spans_equal",
           "intersect_spans"]


def _realify(vec) -> tuple[list[int], list[int]]:
    """The integer rows (re|im) and (-im|re) of v and iv."""
    re, im = vec
    return [*re, *im], [-x for x in im] + list(re)


class SpanBuilder:
    """Incremental integer row echelon form of a realified Q(i)-span."""

    def __init__(self, dim: int):
        self.dim = dim
        # pivot column -> row, in insertion order. Each row was reduced against
        # the rows before it, so it is zero at their pivots, and one pass in
        # this order leaves a reduced row zero at every pivot.
        self.rows: dict[int, list[int]] = {}

    def _reduce(self, w: list[int]) -> list[int]:
        for p, row in self.rows.items():
            c = w[p]
            if c:
                a = row[p]
                g = gcd(a, c)
                a, c = a // g, c // g
                w = [a * x - c * y for x, y in zip(w, row)]
                g = gcd(*w)
                if g > 1:
                    w = [x // g for x in w]
        return w

    def _insert(self, w: list[int]) -> bool:
        """Add one integer row; returns True iff it enlarged the row space."""
        w = self._reduce(w)
        pivot = next((k for k, x in enumerate(w) if x), None)
        if pivot is None:
            return False
        self.rows[pivot] = w
        return True

    def add(self, vec) -> bool:
        """Add a vector; returns True iff it enlarged the span."""
        v, iv = _realify(vec)
        if not self._insert(v):
            return False
        self._insert(iv)  # never in span + Qv: the span is closed under i
        return True

    def contains(self, vec) -> bool:
        return not any(self._reduce(_realify(vec)[0]))

    @property
    def rank(self) -> int:
        return len(self.rows) // 2


def _builder(vectors, dim: int) -> SpanBuilder:
    sb = SpanBuilder(dim)
    for v in vectors:
        sb.add(v)
    return sb


def span_rank(vectors, dim: int) -> int:
    return _builder(vectors, dim).rank


def span_contains(vectors, vec, dim: int) -> bool:
    return _builder(vectors, dim).contains(vec)


def spans_equal(a, b, dim: int) -> bool:
    a, b = tuple(a), tuple(b)
    return span_rank(a, dim) == span_rank(b, dim) == span_rank(a + b, dim)


def intersect_spans(a, b, dim: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """A Q(i)-basis of span(a) & span(b), by Zassenhaus elimination.

    The realified rows [u|u] for u in a and [v|0] for v in b go into one
    echelon; the rows whose left half is zero, those with a pivot past it,
    carry a basis of the realified intersection in their right half.
    """
    zassenhaus = SpanBuilder(2 * dim)
    zero = [0] * (2 * dim)
    for u in a:
        for row in _realify(u):
            zassenhaus._insert(row + row)
    for v in b:
        for row in _realify(v):
            zassenhaus._insert(row + zero)
    out = SpanBuilder(dim)
    basis = []
    for p, row in zassenhaus.rows.items():
        if p >= 2 * dim:
            vec = (tuple(row[2 * dim:3 * dim]), tuple(row[3 * dim:]))
            if out.add(vec):
                basis.append(vec)
    return tuple(basis)
