"""Cascades of strongly orthogonal roots and their classification.

The cascade of a full-flag minimal degree e is the set of roots occurring in
a greedy decomposition of e. Cascades are sets of pairwise strongly
orthogonal roots (SOS); each is held, checked, as a mask over root positions
in the entry of e (curve_nbhd), and cascade_roots lists its roots. The
classification facts checked here are that every SOS of maximal cardinality
is Weyl-equivalent to the top cascade, and that cascade sizes are bounded by
it. A minimal degree of any G/P is recorded with its z, its lifting and the
cascade of that lifting.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .exceptions import NotApplicableError, NotMinimalDegreeError, RankTooLargeError
from .curve_nbhd import _entry, _minimal, borel, minimal_degrees, point_class_degree
from .parabolic import Degree, Parabolic, checks_degree
from .root_system import Root, RootSystem, held, strongly_orthogonal
from .weyl import WeylElement, all_elements, center_elements, longest_element

__all__ = [
    "cascade_roots", "full_cascade",
    "is_sos", "SosRecord", "enumerate_sos", "mmsos_size",
    "mmsos_unique_up_to_weyl", "cascade_size_bound_holds",
    "max_cascade_forces_point_degree", "MinimalDegreeRecord",
    "minimal_degree_records",
]

_SOS_RANK_CAP = 4


def is_sos(roots) -> bool:
    roots = list(roots)
    return all(strongly_orthogonal(a, b)
               for i, a in enumerate(roots) for b in roots[i + 1:])


def _check_full_flag_degree(rs: RootSystem, e: Degree) -> None:
    borel(rs).check_degree(e)


def _items_at(items, mask: int) -> tuple:
    """The items at the set bits of a mask, from the lowest bit up. Over
    rs.roots and a mask over root positions, the roots in the order of
    rs.roots, which is by coefficients."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


@checks_degree(_check_full_flag_degree)
@lru_cache(maxsize=None)
def cascade_roots(rs: RootSystem, e: Degree) -> tuple[Root, ...]:
    """The greedy roots of the full-flag minimal degree e, by coefficients:
    the cascade mask of e's entry, read off the G/B table when borel(rs)
    holds it, and otherwise built by the local test (curve_nbhd), checked
    strongly orthogonal either way."""
    entry = _entry(borel(rs), e)
    if entry is None:
        raise NotMinimalDegreeError(f"{e} is not a full-flag minimal degree")
    return _items_at(rs.roots, entry[2])


class MinimalDegreeRecord(NamedTuple):
    degree: Degree
    z: WeylElement
    lifting: Degree
    cascade: tuple[Root, ...]


def minimal_degree_records(p: Parabolic) -> tuple[MinimalDegreeRecord, ...]:
    """One record per minimal degree, in the order of minimal_degrees: its
    Weyl element and lifting, read off the table of minimal degrees that
    lists it, and the cascade of the lifting."""
    roots, table = p.system.roots, _minimal(p)[0]
    return tuple([MinimalDegreeRecord(d, z, e, _items_at(roots, cascade))
                  for d, (z, e, cascade) in sorted(table.items())])


def full_cascade(rs: RootSystem) -> tuple[Root, ...]:
    """The cascade of the degree joining two general points of G/B."""
    return cascade_roots(rs, point_class_degree(borel(rs)))


class SosRecord(NamedTuple):
    roots: tuple[Root, ...]
    is_msos: bool
    is_mmsos: bool


@held
def _sos_subsets(rs: RootSystem):
    """All nonempty SOS as ascending index tuples into rs.roots, plus adjacency;
    refused above rank _SOS_RANK_CAP."""
    if rs.rank > _SOS_RANK_CAP:
        raise RankTooLargeError(f"SOS enumeration capped at rank {_SOS_RANK_CAP}")
    n = len(rs.roots)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if strongly_orthogonal(rs.roots[i], rs.roots[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    out = []

    def grow(members: tuple[int, ...], allowed: int) -> None:
        m = allowed
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            fresh = members + (i,)
            out.append(fresh)
            grow(fresh, allowed & adj[i] & ~((1 << (i + 1)) - 1))

    grow((), (1 << n) - 1)
    return tuple(out), tuple(adj)


def enumerate_sos(rs: RootSystem) -> tuple[SosRecord, ...]:
    """Every nonempty SOS, flagged as maximal / of maximal cardinality."""
    subsets, adj = _sos_subsets(rs)
    top = max(len(s) for s in subsets)
    full_mask = (1 << len(rs.roots)) - 1
    records = []
    for members in subsets:
        inside = 0
        common = full_mask
        for i in members:
            inside |= 1 << i
            common &= adj[i]
        records.append(SosRecord(tuple(rs.roots[i] for i in members),
                                 (common & ~inside) == 0, len(members) == top))
    return tuple(records)


def mmsos_size(rs: RootSystem) -> int:
    subsets, _ = _sos_subsets(rs)
    return max(len(s) for s in subsets)


def mmsos_unique_up_to_weyl(rs: RootSystem) -> bool:
    """Every SOS of maximal cardinality is a Weyl translate of the top cascade."""
    records = enumerate_sos(rs)  # refused above the rank cap before any orbit work
    base = frozenset(r.coeffs for r in full_cascade(rs))
    orbit = {frozenset(w.apply(c) for c in base) for w in all_elements(rs)}
    for rec in records:
        if rec.is_mmsos and frozenset(r.coeffs for r in rec.roots) not in orbit:
            return False
    return True


def cascade_size_bound_holds(rs: RootSystem) -> bool:
    """No cascade is larger than the top cascade."""
    bound = len(full_cascade(rs))
    return all(len(cascade_roots(rs, e)) <= bound
               for e in minimal_degrees(borel(rs)))


def max_cascade_forces_point_degree(rs: RootSystem) -> bool:
    """When w_o is central, only the point-class degree has a full-size cascade."""
    if longest_element(rs) not in center_elements(rs):
        raise NotApplicableError("the longest element is not central")
    top = point_class_degree(borel(rs))
    bound = len(full_cascade(rs))
    return all(e == top
               for e in minimal_degrees(borel(rs))
               if len(cascade_roots(rs, e)) == bound)
