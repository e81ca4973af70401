"""Exact spans of Gaussian-integer vectors, by fraction-free integer elimination.

A vector over Z[i] of length dim is a SparseVector: its nonzero entries
(k, re_k, im_k) alone, k ascending in 0..dim-1, which is what so7's
matrices are. Its Q(i)-span is realified as span{v, iv} inside Q^(2 dim),
with v -> (re|im) and iv -> (-im|re), so rank over Q is twice the rank over
Q(i). A realified row is stored sparse, as a dict {column: value} of its
nonzero entries, and its pivot is its least column, min(row). A vector is
realified from its entries alone, and an intersection is returned as
SparseVectors, so a so7 check never reads the zero entries of its matrices. One integer echelon
serves every function here: a row w is reduced against a stored row with pivot p by
w <- row[p]*w - w[p]*row, both factors first divided by their gcd, and then
divided by the gcd of its entries (the fraction-free elimination of Bareiss,
Math. Comp. 22, 1968); the step reads and writes only the nonzero entries of
w and row, and gives the same integers as on the dense rows. No rational
number and no floating point enters, so every result is exact.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .exceptions import InvalidVectorError

__all__ = ["SparseVector", "SpanBuilder", "span_rank", "span_contains", "spans_equal",
           "intersect_spans"]


class SparseVector(NamedTuple):
    """A Gaussian-integer vector by its nonzero entries: the triples
    (k, re_k, im_k) with re_k or im_k nonzero, k ascending."""

    entries: tuple[tuple[int, int, int], ...]


def _realify(vec: SparseVector, dim: int) -> tuple[dict[int, int], dict[int, int]]:
    """The sparse integer rows (re|im) and (-im|re) of v and iv."""
    if not isinstance(vec, SparseVector):
        raise InvalidVectorError(f"a vector of this span is a SparseVector, got {vec!r}")
    v, iv = {}, {}
    last = -1
    for k, x, y in vec.entries:
        if not last < k < dim:
            raise InvalidVectorError(
                f"a vector of this span has positions ascending in 0..{dim - 1}, "
                f"got {k} after {last}")
        last = k
        if x:
            v[k] = iv[dim + k] = x
        if y:
            v[dim + k] = y
            iv[k] = -y
    return v, iv


class SpanBuilder:
    """Incremental integer row echelon form of a realified Q(i)-span."""

    def __init__(self, dim: int, vectors=()):
        self.dim = dim
        # pivot column -> sparse row, in insertion order. Each row was reduced
        # against the rows before it, so it is zero at their pivots, and one
        # pass in this order leaves a reduced row zero at every pivot.
        self.rows: dict[int, dict[int, int]] = {}
        for v in vectors:
            self.add(v)

    def extended(self, vectors) -> "SpanBuilder":
        """A copy of this echelon with vectors added; this builder is unchanged.

        Stored rows are never written, so the copy shares them.
        """
        out = SpanBuilder(self.dim)
        out.rows = dict(self.rows)
        for v in vectors:
            out.add(v)
        return out

    def _reduce(self, w: dict[int, int]) -> dict[int, int]:
        """w reduced against every stored row, in place; returns w."""
        get = w.get
        for p, row in self.rows.items():
            c = get(p)
            if c:
                a = row[p]
                g = gcd(a, c)
                a, c = a // g, c // g
                if a != 1:
                    for k in w:
                        w[k] *= a
                for k, y in row.items():
                    x = get(k, 0) - c * y
                    if x:
                        w[k] = x
                    else:
                        del w[k]
                g = gcd(*w.values())
                if g > 1:
                    for k in w:
                        w[k] //= g
        return w

    def _insert(self, w: dict[int, int]) -> bool:
        """Add one sparse integer row; returns True iff it enlarged the row space."""
        w = self._reduce(w)
        if not w:
            return False
        self.rows[min(w)] = w
        return True

    def add(self, vec) -> bool:
        """Add a vector; returns True iff it enlarged the span."""
        v, iv = _realify(vec, self.dim)
        if not self._insert(v):
            return False
        self._insert(iv)  # never in span + Qv: the span is closed under i
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(_realify(vec, self.dim)[0])

    @property
    def rank(self) -> int:
        return len(self.rows) // 2

    def spanned_by(self, vectors) -> bool:
        """True iff vectors span exactly this span: each lies in it, and they
        have its rank."""
        vectors = tuple(vectors)
        return (all(self.contains(v) for v in vectors)
                and SpanBuilder(self.dim, vectors).rank == self.rank)

    def intersect(self, b) -> tuple[SparseVector, ...]:
        """A Q(i)-basis of this span & span(b), by Zassenhaus elimination.

        The realified rows [u|u] for the vectors u of this span and [v|0] for
        v in b go into one echelon; the rows whose left half is zero, those
        with a pivot past it, carry a basis of the realified intersection in
        their right half. Reducing [u|u] rows against each other repeats on
        the right half each step on the left, and the gcd of [r|r] is that of
        r, so the [u|u] rows reduce to [r|r] for the rows r of this echelon,
        in its order: they are copied, not eliminated again. Each basis
        vector is read off the right half of its row as a SparseVector.
        """
        dim, n = self.dim, 2 * self.dim
        zassenhaus = SpanBuilder(n)
        for p, row in self.rows.items():
            zassenhaus.rows[p] = {**row, **{n + k: x for k, x in row.items()}}
        for v in b:
            for row in _realify(v, dim):
                zassenhaus._insert(row)
        out = SpanBuilder(dim)
        basis = []
        for p, row in zassenhaus.rows.items():
            if p >= n:
                parts = {}
                for k, x in row.items():  # re_k at column n + k, im_k at n + dim + k
                    k -= n
                    parts.setdefault(k % dim, [0, 0])[k // dim] = x
                vec = SparseVector(tuple([(k, x, y) for k, (x, y) in sorted(parts.items())]))
                if out.add(vec):
                    basis.append(vec)
        return tuple(basis)


def span_rank(vectors, dim: int) -> int:
    return SpanBuilder(dim, vectors).rank


def span_contains(vectors, vec, dim: int) -> bool:
    return SpanBuilder(dim, vectors).contains(vec)


def spans_equal(a, b, dim: int) -> bool:
    return SpanBuilder(dim, a).spanned_by(b)


def intersect_spans(a, b, dim: int) -> tuple[SparseVector, ...]:
    """A Q(i)-basis of span(a) & span(b), by Zassenhaus elimination (`SpanBuilder.intersect`)."""
    return SpanBuilder(dim, a).intersect(b)
