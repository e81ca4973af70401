"""Greedy decompositions, curve-neighborhood Weyl elements, minimal degrees.

The search for minimal degrees runs over the componentwise box below the
degree joining two general points, plus a one-step frontier scan that turns
the box bound into a checked assumption (BoundViolationError on escape).

z_d is built from z_{d - alpha^vee} by one left Hecke step with s_alpha,
alpha the first greedy root of d, and memoized per degree, so a box costs
one short step per degree instead of a whole Hecke product each. A box of
more than a million degrees is refused (ResourceGuardError) before a scan.

Minimality is decided on unit edges only: d is minimal iff z_{d-e_i} != z_d
for every i with d_i > 0. That is equivalent to the definition because z_d
is monotone in d (Buch-Mihalcea, Curve neighborhoods of Schubert varieties,
J. Differential Geom. 99 (2015)); the monotonicity is not assumed but checked
on every unit edge of the box below d: an edge with z_{d-e_i} == z_d holds
trivially, and bruhat_leq runs once per distinct pair (z_{d-e_i}, z_d) of
each parabolic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .exceptions import (
    BoundViolationError, ConsistencyError, LiftingNotFoundError,
    LiftingNotUniqueError, NotMinimalDegreeError, ResourceGuardError,
    UniquenessViolationError,
)
from .parabolic import Degree, Parabolic, project_coroot
from .root_system import Root, RootSystem, root_leq
from .weyl import (
    WeylElement, bruhat_leq, compose, hecke_reflection_on_coset, identity,
    is_descent, longest_element,
)

__all__ = [
    "borel", "maximal_roots", "greedy_decomposition", "is_p_cosmall",
    "curve_neighborhood_element", "is_minimal_degree", "point_class_degree",
    "minimal_degrees", "lifting", "MinimalDegreeRecord",
    "minimal_degree_records",
]


# The most degrees one box below a degree may hold before a scan is refused.
# E7/B's point-class box holds 181,440 degrees, E8/B's 18,243,225.
_MAX_BOX_DEGREES = 10 ** 6


@lru_cache(maxsize=None)
def borel(rs: RootSystem) -> Parabolic:
    return Parabolic(rs, frozenset())


@lru_cache(maxsize=None)
def _root_table(p: Parabolic):
    """The roots of R+ \\ R_P+ as bitmask data for maximal_roots.

    Returns (roots, fits, above). roots is sorted with the lexicographically
    largest coefficient vector first, and bit j of a mask stands for roots[j].
    fits[i][c] masks the roots whose projected coroot has i-th coordinate
    <= c (the last entry, the largest such coordinate, masks them all), and
    above[j] masks the roots strictly above roots[j] in the root order.
    """
    roots = sorted((a for a in p.system.positive_roots if p.outside_levi(a)),
                   key=lambda r: r.coeffs, reverse=True)
    coroots = [project_coroot(p, a) for a in roots]
    fits = []
    for i in range(len(p.quotient_positions)):
        top = max((c[i] for c in coroots), default=0)
        fits.append(tuple(sum(1 << j for j, c in enumerate(coroots) if c[i] <= v)
                          for v in range(top + 1)))
    above = tuple(sum(1 << k for k, b in enumerate(roots) if b is not a and root_leq(a, b))
                  for a in roots)
    return tuple(roots), tuple(fits), above


@lru_cache(maxsize=None)
def maximal_roots(p: Parabolic, d: Degree) -> tuple[Root, ...]:
    """Maximal elements (root order) among roots whose coroot class is <= d.

    Sorted with the lexicographically largest coefficient vector first, which
    is the deterministic greedy tie-break.
    """
    p.check_degree(d)
    roots, fits, above = _root_table(p)
    cands = (1 << len(roots)) - 1
    for fit, c in zip(fits, d):
        cands &= fit[min(c, len(fit) - 1)]
    return tuple(a for j, a in enumerate(roots)
                 if cands >> j & 1 and not above[j] & cands)


def _greedy_step(p: Parabolic, d: Degree) -> tuple[Root, Degree]:
    """The first greedy root alpha of a nonzero degree d, and d - alpha^vee."""
    tops = maximal_roots(p, d)
    if not tops:
        raise ConsistencyError(f"nonzero effective degree {d} has no maximal root")
    alpha = tops[0]
    rest = tuple(x - y for x, y in zip(d, project_coroot(p, alpha)))
    if min(rest) < 0:
        raise ConsistencyError(f"peeling {alpha} off a degree left {rest}")
    return alpha, rest


@lru_cache(maxsize=None)
def greedy_decomposition(p: Parabolic, d: Degree) -> tuple[Root, ...]:
    """Peel maximal roots off d until nothing is left."""
    p.check_degree(d)
    out = []
    while any(d):
        alpha, d = _greedy_step(p, d)
        out.append(alpha)
    return tuple(out)


def is_p_cosmall(p: Parabolic, alpha: Root) -> bool:
    """True iff alpha is maximal among the roots of its own coroot class."""
    if not p.outside_levi(alpha):
        return False
    return alpha in maximal_roots(p, project_coroot(p, alpha))


@lru_cache(maxsize=None)
def _z_pairs(p: Parabolic) -> dict[Degree, tuple[WeylElement, WeylElement]]:
    """(z_d, z_d^-1) for each degree d of p computed so far."""
    e = identity(p.system)
    return {p.zero_degree: (e, e)}


def _z_pair(p: Parabolic, d: Degree) -> tuple[WeylElement, WeylElement]:
    """(z_d, z_d^-1), one greedy step from z_{d - alpha^vee} at a time.

    The greedy rule is deterministic, so greedy(d) is its first root alpha
    followed by greedy(d - alpha^vee), and the Hecke product is associative:
    z_d W_P = s_alpha * z_{d - alpha^vee} W_P. The walk goes down the greedy
    chain to the first degree already known and back up, without recursion,
    so a long chain cannot exhaust the stack.
    """
    pairs = _z_pairs(p)
    chain = []
    while d not in pairs:
        alpha, rest = _greedy_step(p, d)
        chain.append((d, alpha))
        d = rest
    pair = pairs[d]
    for d, alpha in reversed(chain):
        pair = hecke_reflection_on_coset(*pair, alpha, p.positions)
        if any(is_descent(pair[0], j) for j in p.positions):
            raise ConsistencyError(f"curve-neighborhood element of {d} is not in W^P")
        pairs[d] = pair
    return pair


@lru_cache(maxsize=None)
def curve_neighborhood_element(p: Parabolic, d: Degree) -> WeylElement:
    """The Weyl element attached to the degree-d curve neighborhood of 1P.

    The minimal representative of the coset of s_{a_1} * ... * s_{a_k} * w_P,
    a Hecke product over the greedy decomposition (a_1, ..., a_k) of d.
    """
    p.check_degree(d)
    return _z_pair(p, d)[0]


def _check_box_size(p: Parabolic, d: Degree) -> None:
    """Refuse, before any scan, a box below d of more than _MAX_BOX_DEGREES degrees."""
    size = math.prod(c + 1 for c in d)
    if size > _MAX_BOX_DEGREES:
        raise ResourceGuardError(
            f"the box below {d} on {p} holds {size} degrees, "
            f"more than the guard's {_MAX_BOX_DEGREES}")


def _unit_steps_down(d: Degree):
    """The degrees d - e_i, over the coordinates i with d_i > 0."""
    for i, c in enumerate(d):
        if c:
            yield d[:i] + (c - 1,) + d[i + 1:]


@lru_cache(maxsize=None)
def _monotone_certified(p: Parabolic) -> set[Degree]:
    """Degrees of p below which z is checked monotone on every unit edge."""
    return set()


@lru_cache(maxsize=None)
def _monotone_pairs(p: Parabolic) -> set[tuple[WeylElement, WeylElement]]:
    """Unequal pairs (u, z) of elements of p for which bruhat_leq(u, z) held."""
    return set()


def _certify_monotone(p: Parabolic, d: Degree) -> None:
    """Check z_{c-e_i} <= z_c in Bruhat order on every unit edge of the box below d.

    Walks the box iteratively (its depth is sum(d)) and skips degrees whose
    box is already certified, so each edge is visited once per parabolic.
    Bruhat order depends only on the two elements, so an edge with
    z_{c-e_i} == z_c needs no walk and bruhat_leq runs once per distinct pair
    per parabolic; a pair is remembered only after it passes. Monotonicity on
    the unit edges gives it on the whole box by transitivity.
    """
    certified = _monotone_certified(p)
    if d in certified:
        return
    _check_box_size(p, d)
    verified = _monotone_pairs(p)
    seen = {d}
    stack = [d]
    while stack:
        c = stack.pop()
        z = curve_neighborhood_element(p, c)
        for below in _unit_steps_down(c):
            u = curve_neighborhood_element(p, below)
            if u != z and (u, z) not in verified:
                if not bruhat_leq(u, z):
                    raise ConsistencyError(
                        f"z is not monotone on {p}: z_{below} is not below z_{c}")
                verified.add((u, z))
            if below not in certified and below not in seen:
                seen.add(below)
                stack.append(below)
    certified |= seen


@lru_cache(maxsize=None)
def is_minimal_degree(p: Parabolic, d: Degree) -> bool:
    """No strictly smaller effective degree reaches a Bruhat-larger element.

    With z certified monotone on the box below d, a smaller degree can only
    reach z_d itself, and if one does, so does some d - e_i.
    """
    p.check_degree(d)
    _certify_monotone(p, d)
    z = curve_neighborhood_element(p, d)
    return all(curve_neighborhood_element(p, below) != z for below in _unit_steps_down(d))


@lru_cache(maxsize=None)
def point_class_degree(p: Parabolic) -> Degree:
    """The smallest degree whose curve neighborhood reaches the longest coset.

    Found by coordinate descent from a saturating degree; the enumeration in
    minimal_degrees re-checks minimality and uniqueness over the whole box.
    """
    rs = p.system
    target = compose(longest_element(rs), p.w_p)
    k = len(p.quotient_positions)
    if k == 0:
        if curve_neighborhood_element(p, ()) != target:
            raise ConsistencyError("trivial quotient must reach the longest coset at 0")
        return ()
    start = None
    for b in (1, 2, 4, 8, 16, 32, 64):
        if curve_neighborhood_element(p, (b,) * k) == target:
            start = (b,) * k
            break
    if start is None:
        raise BoundViolationError("no saturating degree below the probe bound 64")
    d = list(start)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            while d[i] > 0:
                trial = tuple(d[:i] + [d[i] - 1] + d[i + 1:])
                if curve_neighborhood_element(p, trial) == target:
                    d[i] -= 1
                    changed = True
                else:
                    break
    return tuple(d)


@lru_cache(maxsize=None)
def minimal_degrees(p: Parabolic) -> tuple[Degree, ...]:
    """All minimal degrees, searched over the box below point_class_degree."""
    rs = p.system
    d_top = point_class_degree(p)
    _check_box_size(p, d_top)
    for i, c in enumerate(d_top):  # the frontier scan certifies these larger boxes
        _check_box_size(p, d_top[:i] + (c + 1,) + d_top[i + 1:])
    target = compose(longest_element(rs), p.w_p)
    found = []
    for d in itertools.product(*(range(c + 1) for c in d_top)):
        if d != d_top and curve_neighborhood_element(p, d) == target:
            raise UniquenessViolationError(
                f"{d} below {d_top} also reaches the longest coset")
        if is_minimal_degree(p, d):
            found.append(d)
    for i in range(len(d_top)):
        ranges = [range(c + 1) for c in d_top]
        ranges[i] = range(d_top[i] + 1, d_top[i] + 2)
        for d in itertools.product(*ranges):
            if is_minimal_degree(p, d):
                raise BoundViolationError(
                    f"minimal degree {d} escaped the search box below {d_top}")
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _liftings(rs: RootSystem) -> dict[WeylElement, list[Degree]]:
    """The full-flag minimal degrees of rs, grouped by their z."""
    b = borel(rs)
    out = {}
    for e in minimal_degrees(b):
        out.setdefault(curve_neighborhood_element(b, e), []).append(e)
    return out


def lifting(p: Parabolic, d: Degree) -> Degree:
    """The full-flag minimal degree e with z_e = z_d * w_P."""
    if not is_minimal_degree(p, d):
        raise NotMinimalDegreeError(f"{d} is not a minimal degree for {p}")
    want = compose(curve_neighborhood_element(p, d), p.w_p)
    matches = _liftings(p.system).get(want, [])
    if not matches:
        raise LiftingNotFoundError(f"no full-flag minimal degree lifts {d}")
    if len(matches) > 1:
        raise LiftingNotUniqueError(f"{d} lifts to each of {matches}")
    return matches[0]


@dataclass(frozen=True)
class MinimalDegreeRecord:
    degree: Degree
    z: WeylElement
    lifting: Degree
    cascade: tuple[Root, ...]


@lru_cache(maxsize=None)
def minimal_degree_records(p: Parabolic) -> tuple[MinimalDegreeRecord, ...]:
    """One record per minimal degree: its Weyl element, lifting, and cascade."""
    b = borel(p.system)
    out = []
    for d in minimal_degrees(p):
        e = lifting(p, d)
        casc = tuple(sorted(set(greedy_decomposition(b, e)), key=lambda r: r.coeffs))
        out.append(MinimalDegreeRecord(d, curve_neighborhood_element(p, d), e, casc))
    return tuple(out)
